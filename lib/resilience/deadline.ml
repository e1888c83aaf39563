(* End-to-end request deadlines. A deadline is a budget in milliseconds
   anchored at admission: elapsed time against it is the sum of the
   *virtual* time that passed on the control's clock (fault-plan latency
   spikes, retry backoff — advanced instantaneously in wall time) and
   the *wall* time spent doing real work (which never moves the virtual
   clock). The two are disjoint by construction, so the sum models the
   total delay a client would have experienced, and deterministic tests
   can drive expiry purely through the virtual clock with margins far
   above wall-clock noise.

   The current deadline is ambient, carried in domain-local storage: the
   pool installs it around a request and every layer below — session
   execution, Control.guard at the source boundary, SDO submit admission
   — consults it without any plumbing through intermediate signatures.
   DLS is the right scope because a request runs on exactly one worker
   domain from admission to completion. *)

type t = {
  clock : Clock.t option;
  v0 : float;  (* virtual ms at start *)
  w0 : float;  (* wall ms at start *)
  budget_ms : float;
}

let wall_ms () = Unix.gettimeofday () *. 1000.

let start ?clock ~budget_ms () =
  {
    clock;
    v0 = (match clock with Some c -> Clock.now c | None -> 0.);
    w0 = wall_ms ();
    budget_ms;
  }

let budget_ms t = t.budget_ms

let elapsed_ms t =
  let virtual_ =
    match t.clock with Some c -> Clock.now c -. t.v0 | None -> 0.
  in
  let wall = wall_ms () -. t.w0 in
  virtual_ +. Float.max 0. wall

let remaining_ms t = Float.max 0. (t.budget_ms -. elapsed_ms t)
let expired t = remaining_ms t <= 0.

(* ---- the ambient deadline ---- *)

let key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () = Domain.DLS.get key

let with_deadline d f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key (Some d);
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

(* A commit point must never be killed by client impatience: once a
   submit has entered XA prepare, the write either lands everywhere or
   rolls back everywhere, and aborting it half-way would manufacture
   exactly the partial commit the protocol exists to prevent. [exempt]
   clears the ambient deadline for the duration of [f]. *)
let exempt f =
  match Domain.DLS.get key with
  | None -> f ()
  | Some _ as prev ->
    Domain.DLS.set key None;
    Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f
