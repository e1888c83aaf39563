(** End-to-end request deadlines.

    A deadline is a millisecond budget anchored when a request is
    admitted. Elapsed time against it is {e virtual} time passed on the
    control's clock (injected latency, retry backoff) {e plus} wall time
    spent in real work — the two are disjoint (virtual advances are
    instantaneous in wall time), so their sum is the delay the client
    experienced, and tests can drive expiry deterministically through
    the virtual clock alone.

    The deadline of the request in flight is {e ambient}: the server
    pool installs it with {!with_deadline} around the whole request on
    the worker domain, and the layers below ({!Control.call}, session
    execution, plan admission) read it back with {!current} — no
    signature in between carries it. *)

type t

val start : ?clock:Clock.t -> budget_ms:float -> unit -> t
(** Anchor a fresh deadline now. [clock] is the virtual clock whose
    advances count against the budget (omit it and only wall time
    counts). *)

val budget_ms : t -> float
val elapsed_ms : t -> float
val remaining_ms : t -> float
(** Clamped at [0.] once expired — callers subtract it from timeouts and
    a negative cap would mean "no timeout" to some of them. *)

val expired : t -> bool

val check : source:string -> t option -> unit
(** Raise [Item.Error] [err:RESX0005], ["source: request budget of Nms
    exhausted (Mms elapsed)"], when the deadline has expired; nothing
    otherwise. Every layer that refuses a spent budget raises it here. *)

(** {1 The ambient deadline (per worker domain)} *)

val with_deadline : t -> (unit -> 'a) -> 'a
(** Run [f] with [t] as the domain's ambient deadline; the previous
    ambient deadline (if any) is restored on exit, raise included. *)

val current : unit -> t option

val exempt : (unit -> 'a) -> 'a
(** Run [f] with {e no} ambient deadline — for sections that must run
    to completion once entered (XA prepare/commit: never kill a write
    mid-commit). Restores the deadline afterwards. *)
