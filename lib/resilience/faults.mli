(** Per-source fault state: the single injection point each Database and
    Webservice consults, merging ad-hoc one-shots with the plan's
    deterministic schedule.

    The source raises its own native exception when a consultation
    returns a fault; the resilience guard then uses {!take_last} to tell
    injected (retryable) failures from genuine ones. *)

type fault = { f_message : string; f_transient : bool }

type kind =
  | Statement  (** a DML/DDL statement or a web-service invoke *)
  | Read       (** a query-path read (table scan, index lookup) *)

type verdict = {
  v_latency : float;   (** injected latency spike, already charged to the clock *)
  v_fault : fault option;
}

type t

val create : ?clock:Clock.t -> source:string -> unit -> t
val source : t -> string
val clock : t -> Clock.t
val set_clock : t -> Clock.t -> unit
val set_schedule : t -> Plan.schedule -> unit
val schedule : t -> Plan.schedule

(** {1 Ad-hoc injection}

    These fire only on [Statement] consultations: a DML/DDL statement or
    a web-service invoke. *)

val inject_next : ?transient:bool -> t -> string -> unit
(** Fault the next statement with this message (default transient). *)

val set_fail_every : t -> int option -> unit
(** [Some n]: every [n]-th statement faults. *)

val set_fail_after : t -> int option -> unit
(** [Some n]: the statement after the next [n] faults (once). *)

val set_fail_on_prepare : t -> bool -> unit
(** Sticky: while set, every XA prepare consultation faults. *)

(** {1 Consultation} *)

val on_call : t -> kind -> verdict
(** Advance the call cursor, charge any scheduled latency spike to the
    clock, and decide whether this call faults (ad-hoc stream first,
    then scheduled transients / hard-down windows). Until an injection
    or a schedule that can fault is set on [t], the consultation only
    advances its cursors and takes no lock. *)

val on_prepare : t -> fault option
(** Consult the XA prepare round: sticky flag, then the schedule. *)

val on_commit : t -> fault option
(** Consult the XA commit round against the schedule. The plan never
    schedules more than two consecutive commit faults, so bounded
    commit retries always terminate. *)

val take_last : t -> fault option
(** The most recent fault handed out, clearing it — the guard's side
    channel for classifying a failure as injected. *)

val calls : t -> int
