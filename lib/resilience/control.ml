(* The per-dataspace resilience control: one virtual clock, one jitter
   RNG, the optional fault plan, and per-source policies, breakers,
   fault handles and degradable annotations. [guard] is the single
   enforcement point wrapped around every source call. *)

type code =
  | Timeout
  | Circuit_open
  | Retries_exhausted
  | Deadline_exceeded
  | Overloaded

let code_name = function
  | Timeout -> "RESX0001"
  | Circuit_open -> "RESX0002"
  | Retries_exhausted -> "RESX0003"
  | Deadline_exceeded -> "RESX0005"
  | Overloaded -> "RESX0006"

exception Error of { source : string; code : code; message : string }

let () =
  Printexc.register_printer (function
    | Error { source; code; message } ->
      Some
        (Printf.sprintf "Resilience.Control.Error(%s, %s: %s)"
           (code_name code) source message)
    | _ -> None)

type degradation = {
  dg_source : string;
  dg_code : string;
  dg_message : string;
  dg_at : float;
}

type t = {
  clock : Clock.t;
  lock : Mutex.t;
      (* guards the tables, the degradation log and the jitter RNG —
         everything here but the clock (atomic), the breakers and the
         fault handles (own locks) *)
  jitter_rng : Rng.t;
  plan : Plan.t option;
  mutable instr : Instr.t;
  policies : (string, Policy.t) Hashtbl.t;
  breakers : (string, Breaker.t) Hashtbl.t;
  faults : (string, Faults.t) Hashtbl.t;
  degradable : (string, unit) Hashtbl.t;
  mutable degradations : degradation list;  (* newest first *)
  degraded : int Atomic.t;  (* [List.length degradations], read lock-free *)
  brownout : bool Atomic.t;
      (* overload pressure: while set, degradable reads degrade
         *proactively* (dataspace skips the source call entirely) *)
}

let create ?seed ?plan ?(instr = Instr.disabled) () =
  let seed =
    match (seed, plan) with
    | Some s, _ -> s
    | None, Some p -> Plan.seed p
    | None, None -> 1
  in
  {
    clock = Clock.create ();
    lock = Mutex.create ();
    jitter_rng = Rng.make (seed lxor 0x5EED);
    plan;
    instr;
    policies = Hashtbl.create 8;
    breakers = Hashtbl.create 8;
    faults = Hashtbl.create 8;
    degradable = Hashtbl.create 4;
    degradations = [];
    degraded = Atomic.make 0;
    brownout = Atomic.make false;
  }

let clock t = t.clock
let plan t = t.plan
let set_instr t instr = t.instr <- instr

let reschedule t faults =
  let source = Faults.source faults in
  Faults.set_schedule faults
    (match t.plan with
     | Some p -> Plan.schedule_for p ~source
     | None -> Plan.empty ~source)

let attach t faults =
  Faults.set_clock faults t.clock;
  reschedule t faults;
  Mutex.protect t.lock (fun () ->
      Hashtbl.replace t.faults (Faults.source faults) faults)

let attached t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun k _ acc -> k :: acc) t.faults [])

let set_policy t ~source policy =
  Mutex.protect t.lock (fun () ->
      Hashtbl.replace t.policies source policy;
      match policy.Policy.breaker with
      | Some config ->
        Hashtbl.replace t.breakers source (Breaker.create ~config t.clock)
      | None -> Hashtbl.remove t.breakers source)

let policy t ~source =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.policies source with
      | Some p -> p
      | None -> Policy.default)

let breaker t ~source =
  Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.breakers source)
let breaker_state t ~source = Option.map Breaker.state (breaker t ~source)

let trip t ~source =
  match breaker t ~source with
  | Some b -> Breaker.force_open b
  | None ->
    invalid_arg
      (Printf.sprintf "Control.trip: source %s has no breaker configured"
         source)

(* ---- degradation ---- *)

let set_degradable t ~source =
  Mutex.protect t.lock (fun () -> Hashtbl.replace t.degradable source ())

let is_degradable t ~source =
  Mutex.protect t.lock (fun () -> Hashtbl.mem t.degradable source)

let note_degraded t ~source ~code ~message =
  Instr.bump t.instr Instr.K.resil_degraded;
  Mutex.protect t.lock (fun () ->
      t.degradations <-
        { dg_source = source; dg_code = code; dg_message = message;
          dg_at = Clock.now t.clock }
        :: t.degradations;
      Atomic.incr t.degraded)

let degradations t = Mutex.protect t.lock (fun () -> List.rev t.degradations)
let degradation_count t = Atomic.get t.degraded

(* ---- brownout ---- *)

(* Transition counters are bumped here — whoever flips the flag (the
   pool's pressure signal, a test, a console demo), entry/exit stays
   observable in one place. Idempotent: re-asserting the current state
   neither bumps nor transitions. *)
let set_brownout t on =
  let was = Atomic.exchange t.brownout on in
  if was <> on then
    Instr.bump t.instr
      (if on then Instr.K.overload_brownout_entered
       else Instr.K.overload_brownout_exited)

let in_brownout t = Atomic.get t.brownout

(* ---- the guard ---- *)

let breaker_failure t = function
  | Some b -> if Breaker.on_failure b then Instr.bump t.instr Instr.K.resil_trips
  | None -> ()

let reject t ~source =
  Instr.bump t.instr Instr.K.resil_rejected;
  raise
    (Error
       { source; code = Circuit_open;
         message = "circuit breaker open, call rejected" })

let check_strict t ~source =
  match breaker t ~source with
  | Some b when not (Breaker.would_allow b) -> reject t ~source
  | _ -> ()

(* The ambient request deadline caps every guarded call: an expired
   request fails fast (before the breaker would even admit it, so a shed
   request cannot consume a half-open probe), and after any attempt —
   success included — a blown budget is a failure: the client already
   gave up. Deadline expiry is client impatience, not a source-health
   signal, so it never feeds the breaker. *)
let fail_deadline t ~source d =
  Instr.bump t.instr Instr.K.overload_expired;
  raise
    (Error
       { source; code = Deadline_exceeded;
         message =
           Printf.sprintf "request budget of %.0fms exhausted (%.0fms elapsed)"
             (Deadline.budget_ms d) (Deadline.elapsed_ms d) })

let guard t ~source f =
  let policy = policy t ~source in
  let deadline = Deadline.current () in
  let check_deadline () =
    match deadline with
    | Some d when Deadline.expired d -> fail_deadline t ~source d
    | _ -> ()
  in
  check_deadline ();
  let br = breaker t ~source in
  (match br with
   | Some b when not (Breaker.allow b) -> reject t ~source
   | _ -> ());
  let fl = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.faults source) in
  (* effective per-attempt timeout: min(policy timeout, remaining
     budget) — whichever bound the attempt actually blew names the error
     (RESX0001 for the policy, RESX0005 for the request budget) *)
  let timed_out t0 =
    match policy.Policy.timeout_ms with
    | Some tmo -> Clock.now t.clock -. t0 > tmo
    | None -> false
  in
  let fail_timeout t0 =
    breaker_failure t br;
    Instr.bump t.instr Instr.K.resil_timeouts;
    raise
      (Error
         { source; code = Timeout;
           message =
             Printf.sprintf "call took %.0fms of a %.0fms budget"
               (Clock.now t.clock -. t0)
               (Option.value policy.Policy.timeout_ms ~default:0.) })
  in
  let rec attempt n =
    let t0 = Clock.now t.clock in
    match f () with
    | v ->
      (* a timed-out success is a failure: the client already gave up.
         It is never retried — the work may have happened. *)
      if timed_out t0 then fail_timeout t0
      else begin
        (match br with Some b -> Breaker.on_success b | None -> ());
        check_deadline ();
        v
      end
    | exception e ->
      let injected =
        match fl with Some fl -> Faults.take_last fl | None -> None
      in
      if timed_out t0 then fail_timeout t0
      else begin
        match injected with
        | Some { Faults.f_transient = true; f_message } ->
          if n < policy.Policy.max_retries then begin
            (* no retry on a dead budget: the backoff plus another
               attempt can only waste a worker the client abandoned *)
            check_deadline ();
            Instr.bump t.instr Instr.K.resil_retries;
            let wait =
              Policy.backoff policy ~attempt:n
              +.
              if policy.Policy.jitter_ms > 0. then
                Mutex.protect t.lock (fun () ->
                    Rng.float t.jitter_rng policy.Policy.jitter_ms)
              else 0.
            in
            Clock.advance t.clock wait;
            (* the backoff itself may have spent what was left *)
            check_deadline ();
            attempt (n + 1)
          end
          else begin
            breaker_failure t br;
            if policy.Policy.max_retries > 0 then
              raise
                (Error
                   { source; code = Retries_exhausted;
                     message =
                       Printf.sprintf "%d attempts failed, last: %s" (n + 1)
                         f_message })
            else
              (* pass-through policy: the source's native exception
                 keeps its original surface *)
              raise e
          end
        | Some { Faults.f_transient = false; _ } ->
          breaker_failure t br;
          raise e
        | None ->
          (* genuine (non-injected) failure: application-level, not a
             source-health signal — never retried, never fed to the
             breaker *)
          raise e
      end
  in
  if Instr.enabled t.instr then
    Instr.span t.instr ~attrs:[ ("source", source) ] "resil.guard" (fun () ->
        attempt 0)
  else attempt 0
