(** Per-source fault state: the single injection point each Database and
    Webservice consults, merging ad-hoc one-shots with the plan's
    deterministic schedule.

    When a consultation returns a fault, the source raises it with
    {!fail}: [err:RESX0004], the one code the resilience guard retries.
    The handle keeps no record of what it handed out. *)

type kind =
  | Statement  (** a DML/DDL statement or a web-service invoke *)
  | Read       (** a query-path read (table scan, index lookup) *)

val resx0004 : Xdm.Qname.t
(** [err:RESX0004]: an injected source fault. [Control.call] retries
    it under the source's policy; one that no policy absorbed reaches
    the caller with this code. *)

val fail : string -> 'a
(** Raise [Xdm.Item.Error] [err:RESX0004] with this text — how a source
    surfaces a fault its consultation returned, prefixed with what the
    source is (["db1: scheduled transient (call 3)"]). *)

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

val inject_next : t -> string -> unit
(** Fault the next statement with this message. *)

val set_fail_every : t -> int option -> unit
(** [Some n]: every [n]-th statement faults. *)

val set_fail_after : t -> int option -> unit
(** [Some n]: the statement after the next [n] faults (once). *)

val set_fail_on_prepare : t -> bool -> unit
(** Sticky: while set, every XA prepare consultation faults. *)

(** {1 Consultation} *)

val on_call : t -> kind -> string option
(** Advance the call cursor, charge any scheduled latency spike to the
    clock, and decide whether this call faults (ad-hoc stream first,
    then scheduled transients / hard-down windows): [Some text] when it
    does, which the source raises with {!fail}. Until an injection or a
    schedule that can fault is set on [t], the consultation only
    advances its cursors and takes no lock. *)

val on_prepare : t -> string option
(** Consult the XA prepare round: sticky flag, then the schedule. *)

val on_commit : t -> string option
(** Consult the XA commit round against the schedule. The plan never
    schedules more than two consecutive commit faults, so bounded
    commit retries always terminate. *)

val calls : t -> int
