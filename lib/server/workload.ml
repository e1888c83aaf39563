module FC = Fixtures.Customer_profile
module Rng = Resilience.Rng

type mix = { m_reads : int; m_scripts : int; m_submits : int }

let default_mix = { m_reads = 6; m_scripts = 3; m_submits = 1 }

(* --- job bodies ------------------------------------------------------ *)

let eval_job text sess = ignore (Xqse.Session.eval sess text)

let read_texts customers rng =
  (* a small pool of distinct program texts so worker plan caches warm
     up, like repeated service calls would *)
  if Rng.chance rng 25 then ("getProfile", "count(profile:getProfile())")
  else begin
    let cid =
      if Rng.chance rng 10 then "007"
      else Printf.sprintf "C%d" (1 + Rng.int rng (max 1 customers))
    in
    ( "getProfileById(" ^ cid ^ ")",
      Printf.sprintf "profile:getProfileById(\"%s\")" cid )
  end

let script_texts customers rng =
  let cid = Printf.sprintf "C%d" (1 + Rng.int rng (max 1 customers)) in
  match Rng.int rng 3 with
  | 0 ->
    (* use case: iterate over a profile's orders, accumulating *)
    ( "iterate-orders(" ^ cid ^ ")",
      Printf.sprintf
        {| {
             declare $open := 0;
             iterate $o over profile:getProfileById("%s")/Orders/ORDERS {
               set $open := $open + (if ($o/STATUS eq 'OPEN') then 1 else 0);
             }
             return value $open;
           } |}
        cid )
  | 1 ->
    (* use case: while-loop polling a read method *)
    ( "while-cards(" ^ cid ^ ")",
      Printf.sprintf
        {| {
             declare $i := 0;
             declare $cards := 0;
             while ($i lt 2) {
               set $i := $i + 1;
               set $cards := $cards +
                 count(profile:getProfileById("%s")/CreditCards/CREDIT_CARD);
             }
             return value $cards;
           } |}
        cid )
  | _ ->
    (* use case: guarded read with error handling *)
    ( "try-profile",
      {| {
           declare $r := 0;
           try { set $r := count(profile:getProfile()); }
           catch (*) { set $r := (0 - 1); }
           return value $r;
         } |} )

let submit_job env k _sess =
  (* the Figure 4 update: read 007's profile, change fields that land
     in both databases, submit the changeset. Concurrent submits to the
     same customer race at the optimistic-concurrency check (the read
     runs against a snapshot, unlocked, and a rival's commit between
     read and write makes the conditioned UPDATE match nothing) — so,
     like any OCC client, re-read and retry on conflict. *)
  let rec attempt tries =
    let dg = FC.get_profile_by_id env "007" in
    Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] (Printf.sprintf "Name%d" k);
    Sdo.set_leaf dg 1
      [ ("CreditCards", 1); ("CREDIT_CARD", 1); ("BRAND", 1) ]
      (Printf.sprintf "BRAND%d" k);
    let res = Aldsp.Dataspace.submit env.FC.ds env.FC.svc dg in
    if not res.Aldsp.Dataspace.sr_committed then
      if tries > 1 then attempt (tries - 1)
      else
        Relational.Table.violation "submit aborted 10 times, last: %s"
          (Option.value res.Aldsp.Dataspace.sr_reason ~default:"no reason")
  in
  attempt 10

(* --- mix -------------------------------------------------------------- *)

let jobs ?(mix = default_mix) ?rate ?io_ms ?submit_io_ms ?deadline_ms
    ?(customers = 3) ~seed ~count env =
  let with_io ?ms f sess =
    (* the in-memory substrate answers in microseconds; real ALDSP
       sources are a network hop away. The optional sleep puts that
       wire time back, giving worker domains real I/O to overlap. *)
    (match (match ms with Some _ -> ms | None -> io_ms) with
    | Some ms when ms > 0. -> Unix.sleepf (ms /. 1000.)
    | _ -> ());
    f sess
  in
  let rng = Rng.make seed in
  let weights =
    [
      (Pool.Read, max 0 mix.m_reads);
      (Pool.Script, max 0 mix.m_scripts);
      (Pool.Submit, max 0 mix.m_submits);
    ]
  in
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 weights in
  if total = 0 then invalid_arg "Workload.jobs: empty mix";
  let pick () =
    let x = Rng.int rng total in
    let rec go acc = function
      | [] -> Pool.Read
      | (k, w) :: rest -> if x < acc + w then k else go (acc + w) rest
    in
    go 0 weights
  in
  let arrival =
    match rate with
    | Some r when r > 0. ->
      let clock = ref 0. in
      fun () ->
        (* Poisson arrivals: exponential interarrival times *)
        let u = Rng.float rng 1.0 in
        clock := !clock +. (-.log (1. -. u) *. 1000. /. r);
        !clock
    | _ -> fun () -> 0.
  in
  List.init count (fun i ->
      let kind = pick () in
      let j_arrival_ms = arrival () in
      match kind with
      | Pool.Read ->
        let label, text = read_texts customers rng in
        {
          Pool.j_kind = Pool.Read;
          j_label = Printf.sprintf "read#%d:%s" i label;
          j_arrival_ms;
          j_deadline_ms = deadline_ms;
          j_run = with_io (eval_job text);
        }
      | Pool.Script ->
        let label, text = script_texts customers rng in
        {
          Pool.j_kind = Pool.Script;
          j_label = Printf.sprintf "script#%d:%s" i label;
          j_arrival_ms;
          j_deadline_ms = deadline_ms;
          j_run = with_io (eval_job text);
        }
      | Pool.Submit ->
        {
          Pool.j_kind = Pool.Submit;
          j_label = Printf.sprintf "submit#%d" i;
          j_arrival_ms;
          j_deadline_ms = deadline_ms;
          j_run = with_io ?ms:submit_io_ms (submit_job env i);
        })
