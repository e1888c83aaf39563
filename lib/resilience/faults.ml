(* Per-source fault state. One [t] lives inside each Database and
   Webservice, replacing the old ad-hoc [fault_next] / [fail_every] /
   [fail_after] / [fail_prepare] fields. It merges two fault streams:

   - ad-hoc one-shots (for tests and demos), which fire only on
     statement/invoke consultations; and
   - the plan schedule (call-indexed transients and latency spikes,
     virtual-time hard-down windows, XA prepare/commit rounds), which
     fires on reads as well.

   The source itself raises its native exception ([Db_error], [Fault])
   when a consultation returns a fault; [take_last] is the side channel
   the resilience guard uses to tell injected (retryable) failures from
   genuine ones. *)

type fault = { f_message : string; f_transient : bool }
type kind = Statement | Read
type verdict = { v_latency : float; v_fault : fault option }

type t = {
  source : string;
  lock : Mutex.t;
      (* one consultation (cursor advance + schedule lookup + [last]
         record) must be atomic under concurrent worker domains, or two
         calls could claim the same schedule index / lose an injected
         fault *)
  mutable clock : Clock.t;
  mutable schedule : Plan.schedule;
  mutable calls : int;        (* schedule cursor: statements + reads *)
  mutable stmts : int;        (* ad-hoc cursor: statements only *)
  mutable next : fault option;
  mutable every : int option;
  mutable after : int option;
  mutable prepare_flag : bool;
  mutable prepares : int;     (* XA prepare-round cursor *)
  mutable commits : int;      (* XA commit-round cursor *)
  mutable last : fault option;
}

let create ?clock ~source () =
  {
    source;
    lock = Mutex.create ();
    clock = (match clock with Some c -> c | None -> Clock.create ());
    schedule = Plan.empty ~source;
    calls = 0;
    stmts = 0;
    next = None;
    every = None;
    after = None;
    prepare_flag = false;
    prepares = 0;
    commits = 0;
    last = None;
  }

let source t = t.source
let clock t = t.clock
let set_clock t c = t.clock <- c
let set_schedule t s = t.schedule <- s
let schedule t = t.schedule

(* ---- ad-hoc injection ---- *)

let inject_next ?(transient = true) t message =
  Mutex.protect t.lock (fun () ->
      t.next <- Some { f_message = message; f_transient = transient })

let set_fail_every t n = t.every <- n
let set_fail_after t n = t.after <- n
let set_fail_on_prepare t b = t.prepare_flag <- b

(* ---- consultation ---- *)

let record t f =
  t.last <- Some f;
  Some f

let take_last t =
  Mutex.protect t.lock (fun () ->
      let f = t.last in
      t.last <- None;
      f)

let adhoc_fault t =
  match t.next with
  | Some f ->
    t.next <- None;
    record t f
  | None -> (
    match t.after with
    | Some 0 ->
      t.after <- None;
      record t { f_message = "injected statement failure"; f_transient = true }
    | Some n ->
      t.after <- Some (n - 1);
      None
    | None -> (
      match t.every with
      | Some n when n > 0 && t.stmts mod n = 0 ->
        record t
          { f_message = Printf.sprintf "injected failure (every %d)" n;
            f_transient = true }
      | _ -> None))

let scheduled_fault t =
  if List.mem t.calls t.schedule.Plan.s_transients then
    record t
      { f_message = Printf.sprintf "scheduled transient (call %d)" t.calls;
        f_transient = true }
  else
    let now = Clock.now t.clock in
    match
      List.find_opt
        (fun w -> now >= w.Plan.w_from && now < w.Plan.w_until)
        t.schedule.Plan.s_windows
    with
    | Some w ->
      record t
        { f_message =
            Printf.sprintf "source down (window %.0f..%.0fms)" w.Plan.w_from
              w.Plan.w_until;
          f_transient = true }
    | None -> None

let on_call t kind =
  Mutex.protect t.lock @@ fun () ->
  t.calls <- t.calls + 1;
  let latency =
    match List.assoc_opt t.calls t.schedule.Plan.s_spikes with
    | Some ms -> ms
    | None -> 0.
  in
  Clock.advance t.clock latency;
  let fault =
    match kind with
    | Statement ->
      t.stmts <- t.stmts + 1;
      (match adhoc_fault t with
       | Some f -> Some f
       | None -> scheduled_fault t)
    | Read -> scheduled_fault t
  in
  { v_latency = latency; v_fault = fault }

(* prepare/commit faults are consumed by the XA coordinator directly and
   never by the retry guard, so they deliberately do not go through
   [record] — a stale [last] would misclassify a later genuine error *)
let on_prepare t =
  Mutex.protect t.lock @@ fun () ->
  t.prepares <- t.prepares + 1;
  if t.prepare_flag then
    Some { f_message = "injected prepare failure"; f_transient = true }
  else if List.mem t.prepares t.schedule.Plan.s_prepares then
    Some
      { f_message = Printf.sprintf "scheduled prepare fault (round %d)" t.prepares;
        f_transient = true }
  else None

let on_commit t =
  Mutex.protect t.lock @@ fun () ->
  t.commits <- t.commits + 1;
  if List.mem t.commits t.schedule.Plan.s_commits then
    Some
      { f_message = Printf.sprintf "scheduled commit fault (round %d)" t.commits;
        f_transient = true }
  else None

let calls t = t.calls
