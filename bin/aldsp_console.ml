(* aldsp-console — explore the demo dataspace (the paper's customer-
   profile scenario plus the employees scenario) from a prompt.

     aldsp-console --catalog                 # the design view (Figure 1)
     aldsp-console -q 'profile:getProfile()' # one query
     aldsp-console --chaos-seed 7 -q '...'   # under a seeded fault plan
     aldsp-console                           # interactive (';;' submits) *)

open Core

let build_dataspace ?chaos () =
  (* one dataspace hosting both worked scenarios: the customer-profile
     sources live in their own env; employees are registered alongside.
     Instrumentation is always recording, so the `stats` command can show
     cumulative counters at any point. *)
  let instr = Instr.create () in
  Instr.preregister instr;
  Instr.enable instr;
  let resilience =
    match chaos with
    | None -> None
    | Some (seed, profile) ->
      (* seeded fault plan plus a demo policy set: bounded retries on
         every source, a breaker on the credit-rating service, which
         degrades (profile without rating) instead of failing reads *)
      let ctl =
        Resilience.Control.create
          ~plan:(Resilience.Plan.make ~seed ~profile ())
          ~instr ()
      in
      List.iter
        (fun source ->
          Resilience.Control.set_policy ctl ~source
            (Resilience.Policy.make ~max_retries:2 ~backoff_ms:5. ~jitter_ms:2.
               ()))
        [ "db1"; "db2" ];
      Resilience.Control.set_policy ctl ~source:"CreditRatingService"
        (Resilience.Policy.make ~max_retries:2 ~backoff_ms:5. ~jitter_ms:2.
           ~breaker:Resilience.Breaker.default_config ());
      Resilience.Control.set_degradable ctl ~source:"CreditRatingService";
      Printf.printf "chaos: seed %d, profile %s\n" seed
        (Resilience.Plan.profile_to_string profile);
      Some ctl
  in
  let env = Fixtures.Customer_profile.make ~customers:5 ~instr ?resilience () in
  let ds = env.Fixtures.Customer_profile.ds in
  let hr = Relational.Database.create "hr" in
  ignore (Relational.Database.add_table hr Fixtures.Employees.employee_schema);
  let tbl = Relational.Database.table hr "EMPLOYEE" in
  List.iteri
    (fun i name ->
      Relational.Table.insert tbl
        [|
          Relational.Value.Int (i + 1);
          Text name;
          Int (10 * (1 + (i mod 3)));
          (if i = 0 then Relational.Value.Null else Relational.Value.Int ((i / 2) + 1));
          Float (50000. +. (1000. *. float_of_int i));
        |])
    [ "Dana Wilson"; "Mona Davis"; "Bob Lee"; "Carol Thomas"; "Nils Walker" ];
  ignore (Aldsp.Dataspace.register_database ds hr);
  let sess = Aldsp.Dataspace.session ds in
  Xqse.Session.declare_namespace sess "ens1" Fixtures.Employees.employees_ns;
  Xqse.Session.declare_namespace sess "uc" Fixtures.Employees.usecases_ns;
  Xqse.Session.load_library sess Fixtures.Employees.service_source;
  Xqse.Session.load_library sess Fixtures.Employees.uc2_chain_source;
  ds

let eval_and_print ds src =
  if String.trim src = "stats" then
    (* cumulative counters for the whole console session *)
    print_string
      (Instr.render ~times:false (Instr.stats (Aldsp.Dataspace.instr ds)))
  else if String.trim src = "breakers" then (
    let ctl = Aldsp.Dataspace.resilience ds in
    match List.sort compare (Resilience.Control.attached ctl) with
    | [] ->
      print_endline "breakers: no sources attached (start with --chaos-seed)"
    | sources ->
      List.iter
        (fun source ->
          match Resilience.Control.breaker_state ctl ~source with
          | Some st ->
            Printf.printf "%-20s %s\n" source
              (Resilience.Breaker.state_to_string st)
          | None -> Printf.printf "%-20s no breaker\n" source)
        sources)
  else if String.trim src = "tables" then
    (* per-table MVCC state: published version, live (pinned) version
       count, and the write lock's holder/waiters *)
    List.iter
      (fun db ->
        List.iter
          (fun tbl ->
            let holder, waiters = Relational.Table.lock_info tbl in
            Printf.printf "%-16s v%-3d live %d  lock %s waiters %d\n"
              (Relational.Database.name db ^ "." ^ Relational.Table.name tbl)
              (Relational.Table.current_version tbl)
              (Relational.Table.live_versions tbl)
              (match holder with
              | None -> "free"
              | Some id -> Printf.sprintf "held(domain %d)" id)
              waiters)
          (Relational.Database.tables db))
      (Aldsp.Dataspace.databases ds)
  else if String.trim src = "cache" then (
    match Aldsp.Dataspace.result_cache ds with
    | None -> print_endline "result cache: off (start with --cache)"
    | Some h ->
      let store = Cache.store h in
      Printf.printf "result cache: on — %d entries, generation %d\n"
        (Cache.Store.size store)
        (Cache.Store.generation store))
  else
    match Xqse.Session.eval (Aldsp.Dataspace.session ds) src with
    | result -> print_endline (Xdm.Xml_serialize.seq_to_string result)
    | exception Xdm.Item.Error { code; message; _ } ->
      Printf.printf "error %s: %s\n" (Xdm.Qname.to_string code) message

let interactive ds =
  Printf.printf
    "ALDSP demo dataspace. End input with ';;'. Try: catalog:services()/@name\n";
  let buf = Buffer.create 256 in
  let rec loop () =
    print_string (if Buffer.length buf = 0 then "aldsp> " else "    -> ");
    flush stdout;
    match In_channel.input_line In_channel.stdin with
    | None -> print_newline ()
    | Some line ->
      let trimmed = String.trim line in
      let done_ =
        String.length trimmed >= 2
        && String.sub trimmed (String.length trimmed - 2) 2 = ";;"
      in
      Buffer.add_string buf line;
      Buffer.add_char buf '\n';
      if done_ then begin
        let src = String.trim (Buffer.contents buf) in
        let src = String.sub src 0 (String.length src - 2) in
        Buffer.clear buf;
        if String.trim src <> "" then eval_and_print ds src;
        loop ()
      end
      else loop ()
  in
  loop ()

let main catalog queries lineage chaos_seed chaos_profile cache =
  let chaos =
    match (chaos_seed, chaos_profile) with
    | None, None -> None
    | seed, profile ->
      Some
        ( Option.value seed ~default:1,
          Option.value profile ~default:Resilience.Plan.Light )
  in
  let ds = build_dataspace ?chaos () in
  if cache then ignore (Aldsp.Dataspace.enable_result_cache ds);
  if catalog then print_string (Aldsp.Dataspace.describe ds);
  (match lineage with
  | Some name -> (
    match Aldsp.Dataspace.find_service ds name with
    | None -> Printf.printf "no such service: %s\n" name
    | Some svc -> (
      match Aldsp.Dataspace.lineage_of ds svc with
      | Ok blk -> print_string (Aldsp.Lineage.describe blk)
      | Error m -> Printf.printf "lineage error: %s\n" m))
  | None -> ());
  List.iter (eval_and_print ds) queries;
  if (not catalog) && queries = [] && lineage = None then interactive ds;
  `Ok ()

open Cmdliner

let catalog =
  let doc = "Print the design view of every data service." in
  Arg.(value & flag & info [ "catalog" ] ~doc)

let queries =
  let doc = "Evaluate $(docv) against the demo dataspace." in
  Arg.(value & opt_all string [] & info [ "q"; "query" ] ~docv:"QUERY" ~doc)

let lineage =
  let doc = "Print the update lineage of the named service." in
  Arg.(value & opt (some string) None & info [ "lineage" ] ~docv:"SERVICE" ~doc)

let chaos_seed =
  let doc =
    "Run the dataspace under a deterministic fault plan seeded with $(docv): \
     injected transients, latency spikes and down windows, with retry \
     policies and a circuit breaker on the credit-rating service. The same \
     seed replays the same faults."
  in
  Arg.(value & opt (some int) None & info [ "chaos-seed" ] ~docv:"SEED" ~doc)

let chaos_profile =
  let profile_conv =
    let parse s =
      match Resilience.Plan.profile_of_string s with
      | Some p -> Ok p
      | None -> Error (`Msg (Printf.sprintf "unknown profile %S (calm|light|heavy)" s))
    in
    Arg.conv (parse, fun fmt p ->
        Format.pp_print_string fmt (Resilience.Plan.profile_to_string p))
  in
  let doc = "Fault-plan intensity: $(b,calm), $(b,light) or $(b,heavy)." in
  Arg.(
    value
    & opt (some profile_conv) None
    & info [ "chaos-profile" ] ~docv:"PROFILE" ~doc)

let cache =
  let doc =
    "Enable the lineage-invalidated result cache for the session; the \
     $(b,cache) console command shows its state and $(b,stats) its counters."
  in
  Arg.(value & flag & info [ "cache" ] ~doc)

let cmd =
  let doc = "explore the demo ALDSP dataspace" in
  Cmd.v
    (Cmd.info "aldsp-console" ~version:"1.0.0" ~doc)
    Term.(
      ret
        (const main $ catalog $ queries $ lineage $ chaos_seed $ chaos_profile
       $ cache))

let () = exit (Cmd.eval cmd)
