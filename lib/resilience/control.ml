(* The per-dataspace resilience control: one virtual clock, one jitter
   RNG, the optional fault plan, and per-source policies, breakers,
   fault handles and degradable annotations. [call] is the single
   enforcement point wrapped around every source call; what it refuses
   it raises as the language's own error, [err:RESX0001..3] or
   [err:RESX0005], with a "source: message" text. *)

type degradation = {
  dg_source : string;
  dg_code : string;
  dg_message : string;
  dg_at : float;
}

(* A source's guard state, resolved once: what [guard] needs about the
   source. The record is immutable; a setter replaces it under the
   control's lock, and the next call on any domain reads the new one. *)
type state = {
  st_policy : Policy.t;
  st_breaker : Breaker.t option;
  st_faults : Faults.t option;
  st_degradable : bool;
}

type source = { src_name : string; src_state : state Atomic.t }

let unguarded =
  { st_policy = Policy.default; st_breaker = None; st_faults = None;
    st_degradable = false }

type t = {
  clock : Clock.t;
  lock : Mutex.t;
      (* guards the source table, the degradation log and the jitter
         RNG — everything here but the clock (atomic), the sources'
         states (atomic, replaced under this lock), the breakers and the
         fault handles (own locks) *)
  jitter_rng : Rng.t;
  plan : Plan.t option;
  mutable instr : Instr.t;
  sources : (string, source) Hashtbl.t;
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
    sources = Hashtbl.create 8;
    degradations = [];
    degraded = Atomic.make 0;
    brownout = Atomic.make false;
  }

let clock t = t.clock
let plan t = t.plan
let set_instr t instr = t.instr <- instr

(* under [t.lock] *)
let source_locked t name =
  match Hashtbl.find_opt t.sources name with
  | Some h -> h
  | None ->
    let h = { src_name = name; src_state = Atomic.make unguarded } in
    Hashtbl.replace t.sources name h;
    h

let source t name = Mutex.protect t.lock (fun () -> source_locked t name)
let source_name h = h.src_name
let degradable h = (Atomic.get h.src_state).st_degradable

(* a lookup by name, allocating nothing *)
let state t name =
  Mutex.lock t.lock;
  let st =
    match Hashtbl.find t.sources name with
    | h -> Atomic.get h.src_state
    | exception Not_found -> unguarded
  in
  Mutex.unlock t.lock;
  st

let update t name f =
  Mutex.protect t.lock (fun () ->
      let h = source_locked t name in
      Atomic.set h.src_state (f (Atomic.get h.src_state)))

let reschedule t faults =
  let source = Faults.source faults in
  Faults.set_schedule faults
    (match t.plan with
     | Some p -> Plan.schedule_for p ~source
     | None -> Plan.empty ~source)

let attach t faults =
  Faults.set_clock faults t.clock;
  reschedule t faults;
  update t (Faults.source faults) (fun st -> { st with st_faults = Some faults })

let attached t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold
        (fun k h acc ->
          match (Atomic.get h.src_state).st_faults with
          | Some _ -> k :: acc
          | None -> acc)
        t.sources [])

let set_policy t ~source policy =
  update t source (fun st ->
      {
        st with
        st_policy = policy;
        st_breaker =
          Option.map
            (fun config -> Breaker.create ~config t.clock)
            policy.Policy.breaker;
      })

let policy t ~source = (state t source).st_policy
let breaker t ~source = (state t source).st_breaker
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
  update t source (fun st -> { st with st_degradable = true })

let is_degradable t ~source = (state t source).st_degradable

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

(* A refusal: [err:CODE], its text prefixed with the source's name *)
let fail code ~source message =
  Xdm.Item.raise_error (Xdm.Qname.err code) (source ^ ": " ^ message)

let breaker_failure t = function
  | Some b -> if Breaker.on_failure b then Instr.bump t.instr Instr.K.resil_trips
  | None -> ()

let reject t ~source =
  Instr.bump t.instr Instr.K.resil_rejected;
  fail "RESX0002" ~source "circuit breaker open, call rejected"

let check_strict t h =
  match (Atomic.get h.src_state).st_breaker with
  | Some b when not (Breaker.would_allow b) -> reject t ~source:h.src_name
  | _ -> ()

(* The ambient request deadline caps every guarded call: an expired
   request fails fast (before the breaker would even admit it, so a shed
   request cannot consume a half-open probe), and after any attempt —
   success included — a blown budget is a failure: the client already
   gave up. Deadline expiry is client impatience, not a source-health
   signal, so it never feeds the breaker. The guard's steps are
   top-level functions over the resolved state, so a call allocates no
   closures. *)
let check_deadline t ~source = function
  | Some d as deadline when Deadline.expired d ->
    Instr.bump t.instr Instr.K.overload_expired;
    Deadline.check ~source deadline
  | _ -> ()

(* effective per-attempt timeout: min(policy timeout, remaining budget)
   — whichever bound the attempt actually blew names the error
   (RESX0001 for the policy, RESX0005 for the request budget) *)
let timed_out t st t0 =
  match st.st_policy.Policy.timeout_ms with
  | Some tmo -> Clock.now t.clock -. t0 > tmo
  | None -> false

let fail_timeout t ~source st t0 =
  breaker_failure t st.st_breaker;
  Instr.bump t.instr Instr.K.resil_timeouts;
  fail "RESX0001" ~source
    (Printf.sprintf "call took %.0fms of a %.0fms budget"
       (Clock.now t.clock -. t0)
       (Option.value st.st_policy.Policy.timeout_ms ~default:0.))

let rec attempt t ~source st deadline f x n =
  let policy = st.st_policy in
  let t0 = Clock.now t.clock in
  match f x with
  | v ->
    (* a timed-out success is a failure: the client already gave up.
       It is never retried — the work may have happened. *)
    if timed_out t st t0 then fail_timeout t ~source st t0
    else begin
      (match st.st_breaker with Some b -> Breaker.on_success b | None -> ());
      check_deadline t ~source deadline;
      v
    end
  | exception e ->
    if timed_out t st t0 then fail_timeout t ~source st t0
    else begin
      match e with
      | Xdm.Item.Error { code; message; _ }
        when Xdm.Qname.equal code Faults.resx0004 ->
        if n < policy.Policy.max_retries then begin
          (* no retry on a dead budget: the backoff plus another
             attempt can only waste a worker the client abandoned *)
          check_deadline t ~source deadline;
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
          check_deadline t ~source deadline;
          attempt t ~source st deadline f x (n + 1)
        end
        else begin
          breaker_failure t st.st_breaker;
          if policy.Policy.max_retries > 0 then
            fail "RESX0003" ~source
              (Printf.sprintf "%d attempts failed, last: %s" (n + 1) message)
          else
            (* pass-through policy: the injected fault keeps its own
               code and text *)
            raise e
        end
      | _ ->
        (* genuine failure: application-level, not a source-health
           signal — never retried, never fed to the breaker *)
        raise e
    end

let call t h f x =
  let source = h.src_name in
  let st = Atomic.get h.src_state in
  let deadline = Deadline.current () in
  check_deadline t ~source deadline;
  (match st.st_breaker with
   | Some b when not (Breaker.allow b) -> reject t ~source
   | _ -> ());
  if Instr.enabled t.instr then
    Instr.span t.instr ~attrs:[ ("source", source) ] "resil.guard" (fun () ->
        attempt t ~source st deadline f x 0)
  else attempt t ~source st deadline f x 0
