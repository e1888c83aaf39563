type outcome = Committed | Aborted of string

type trace_event =
  | Begin of string
  | Prepare_ok of string
  | Prepare_failed of string
  | Commit of string
  | Rollback of string

let run_traced participants work =
  let trace = ref [] in
  let emit e = trace := e :: !trace in
  let rollback_all () =
    List.iter
      (fun db ->
        if Database.in_tx db then begin
          Database.rollback db;
          emit (Rollback (Database.name db))
        end)
      participants
  in
  let result =
    try
      List.iter
        (fun db ->
          Database.begin_tx db;
          emit (Begin (Database.name db)))
        participants;
      let v = work () in
      (* from the first prepare vote on, the round runs exempt from the
         ambient request deadline: a prepared participant must reach a
         commit-or-rollback decision, and killing the coordinator here
         on client impatience would manufacture the very partial commit
         2PC exists to prevent *)
      Resilience.Deadline.exempt @@ fun () ->
      (* phase 1: every participant votes — all emit a Prepare_* event
         before the coordinator decides, as a real 2PC round would *)
      let failures =
        List.filter_map
          (fun db ->
            match Database.prepare_fault db with
            | Some reason ->
              emit (Prepare_failed (Database.name db));
              Some (Printf.sprintf "%s: %s" (Database.name db) reason)
            | None ->
              emit (Prepare_ok (Database.name db));
              None)
          participants
      in
      match failures with
      | reason :: _ ->
        rollback_all ();
        Error reason
      | [] ->
        (* phase 2: commit. A prepared participant must eventually
           commit, so injected commit faults are retried (the plan never
           schedules more than two in a row). The whole phase runs under
           the global publish lock so the new versions of every
           participant become visible as one cut — a concurrent
           snapshot sees the entire cross-database changeset or none of
           it. *)
        Table.publish_all (fun () ->
            List.iter
              (fun db ->
                let rec commit_retry attempts =
                  match Database.commit db with
                  | () -> emit (Commit (Database.name db))
                  | exception Xdm.Item.Error { code; _ }
                    when Xdm.Qname.equal code Resilience.Faults.resx0004
                         && attempts < 8 ->
                    commit_retry (attempts + 1)
                in
                commit_retry 0)
              participants);
        Ok v
    with
    | Xdm.Item.Error { message; _ } ->
      rollback_all ();
      Error message
    | e ->
      rollback_all ();
      raise e
  in
  (result, List.rev !trace)

let run participants work = fst (run_traced participants work)

