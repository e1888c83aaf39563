(* Per-source fault state. One [t] lives inside each Database and
   Webservice, replacing the old ad-hoc [fault_next] / [fail_every] /
   [fail_after] / [fail_prepare] fields. It merges two fault streams:

   - ad-hoc one-shots (for tests and demos), which fire only on
     statement/invoke consultations; and
   - the plan schedule (call-indexed transients and latency spikes,
     virtual-time hard-down windows, XA prepare/commit rounds), which
     fires on reads as well.

   When a consultation returns a fault, the source raises it with
   [fail]: [err:RESX0004], the one retryable code. The resilience guard
   recognises an injected fault by that code alone; this handle keeps
   no record of what it handed out.

   Until something is armed — an ad-hoc injection or a schedule that can
   fault — a consultation only advances the two cursors, which are
   atomic, and takes no lock: it would find nothing to hand out. Every
   injection and every non-empty schedule sets [armed], one atomic flag
   that stays set, and from then on every consultation takes the lock as
   before. *)

type kind = Statement | Read

let resx0004 = Xdm.Qname.err "RESX0004"
let fail message = Xdm.Item.raise_error resx0004 message

type t = {
  source : string;
  lock : Mutex.t;
      (* one consultation (cursor advance + schedule lookup) must be
         atomic under concurrent worker domains, or two calls could
         claim the same schedule index / lose an injected fault *)
  armed : bool Atomic.t;
  mutable clock : Clock.t;
  mutable schedule : Plan.schedule;
  calls : int Atomic.t;       (* schedule cursor: statements + reads *)
  stmts : int Atomic.t;       (* ad-hoc cursor: statements only *)
  mutable next : string option;
  mutable every : int option;
  mutable after : int option;
  mutable prepare_flag : bool;
  mutable prepares : int;     (* XA prepare-round cursor *)
  mutable commits : int;      (* XA commit-round cursor *)
}

let create ?clock ~source () =
  {
    source;
    lock = Mutex.create ();
    armed = Atomic.make false;
    clock = (match clock with Some c -> c | None -> Clock.create ());
    schedule = Plan.empty ~source;
    calls = Atomic.make 0;
    stmts = Atomic.make 0;
    next = None;
    every = None;
    after = None;
    prepare_flag = false;
    prepares = 0;
    commits = 0;
  }

let source t = t.source
let clock t = t.clock
let set_clock t c = t.clock <- c
let arm t = Atomic.set t.armed true

let set_schedule t s =
  t.schedule <- s;
  match s with
  | { Plan.s_transients = []; s_spikes = []; s_windows = []; s_prepares = [];
      s_commits = []; _ } -> ()
  | _ -> arm t

let schedule t = t.schedule

(* ---- ad-hoc injection ---- *)

let inject_next t message =
  Mutex.protect t.lock (fun () -> t.next <- Some message);
  arm t

let set_fail_every t n =
  t.every <- n;
  arm t

let set_fail_after t n =
  t.after <- n;
  arm t

let set_fail_on_prepare t b =
  t.prepare_flag <- b;
  arm t

(* ---- consultation ---- *)

let adhoc_fault t stmts =
  match t.next with
  | Some _ as f ->
    t.next <- None;
    f
  | None -> (
    match t.after with
    | Some 0 ->
      t.after <- None;
      Some "injected statement failure"
    | Some n ->
      t.after <- Some (n - 1);
      None
    | None -> (
      match t.every with
      | Some n when n > 0 && stmts mod n = 0 ->
        Some (Printf.sprintf "injected failure (every %d)" n)
      | _ -> None))

let scheduled_fault t calls =
  if List.mem calls t.schedule.Plan.s_transients then
    Some (Printf.sprintf "scheduled transient (call %d)" calls)
  else
    let now = Clock.now t.clock in
    match
      List.find_opt
        (fun w -> now >= w.Plan.w_from && now < w.Plan.w_until)
        t.schedule.Plan.s_windows
    with
    | Some w ->
      Some
        (Printf.sprintf "source down (window %.0f..%.0fms)" w.Plan.w_from
           w.Plan.w_until)
    | None -> None

let on_call t kind =
  if not (Atomic.get t.armed) then begin
    Atomic.incr t.calls;
    (match kind with Statement -> Atomic.incr t.stmts | Read -> ());
    None
  end
  else
    Mutex.protect t.lock @@ fun () ->
    let calls = Atomic.fetch_and_add t.calls 1 + 1 in
    (match List.assoc_opt calls t.schedule.Plan.s_spikes with
     | Some ms -> Clock.advance t.clock ms
     | None -> ());
    match kind with
    | Statement ->
      let stmts = Atomic.fetch_and_add t.stmts 1 + 1 in
      (match adhoc_fault t stmts with
       | Some _ as f -> f
       | None -> scheduled_fault t calls)
    | Read -> scheduled_fault t calls

let on_prepare t =
  Mutex.protect t.lock @@ fun () ->
  t.prepares <- t.prepares + 1;
  if t.prepare_flag then Some "injected prepare failure"
  else if List.mem t.prepares t.schedule.Plan.s_prepares then
    Some (Printf.sprintf "scheduled prepare fault (round %d)" t.prepares)
  else None

let on_commit t =
  Mutex.protect t.lock @@ fun () ->
  t.commits <- t.commits + 1;
  if List.mem t.commits t.schedule.Plan.s_commits then
    Some (Printf.sprintf "scheduled commit fault (round %d)" t.commits)
  else None

let calls t = Atomic.get t.calls
