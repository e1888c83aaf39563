(** The per-dataspace resilience control: one virtual clock, one seeded
    jitter RNG, an optional fault plan, and per-source policies,
    breakers, fault handles and degradable annotations.

    {!guard} is the single enforcement point the dataspace wraps around
    every source call. *)

type code =
  | Timeout            (** [RESX0001] — call exceeded the policy deadline *)
  | Circuit_open       (** [RESX0002] — breaker rejected the call *)
  | Retries_exhausted  (** [RESX0003] — transient failures outlived the
                           retry budget *)
  | Deadline_exceeded  (** [RESX0005] — the end-to-end request budget
                           ({!Deadline}) ran out *)
  | Overloaded         (** [RESX0006] — shed at admission by the server
                           pool's load-shedding policy *)

val code_name : code -> string
(** The stable error code, e.g. ["RESX0002"] — surfaced to XQSE
    try/catch as [err:RESX0002]. *)

exception Error of { source : string; code : code; message : string }

type degradation = {
  dg_source : string;
  dg_code : string;     (** stable code, e.g. "RESX0002" *)
  dg_message : string;
  dg_at : float;        (** virtual ms when the read degraded *)
}

type t

val create : ?seed:int -> ?plan:Plan.t -> ?instr:Instr.t -> unit -> t
(** [seed] feeds the jitter RNG (defaults to the plan's seed, or 1). *)

val clock : t -> Clock.t
val plan : t -> Plan.t option
val set_instr : t -> Instr.t -> unit

val attach : t -> Faults.t -> unit
(** Put a source's fault handle under this control: share the virtual
    clock and assign the plan's schedule for that source. *)

val attached : t -> string list

val set_policy : t -> source:string -> Policy.t -> unit
(** Also (re)creates the source's breaker when the policy has one. *)

val policy : t -> source:string -> Policy.t
val breaker : t -> source:string -> Breaker.t option
val breaker_state : t -> source:string -> Breaker.state option

val trip : t -> source:string -> unit
(** Force a source's breaker open (tests/demos). Raises
    [Invalid_argument] if the source has no breaker. *)

val set_degradable : t -> source:string -> unit
val is_degradable : t -> source:string -> bool

val note_degraded : t -> source:string -> code:string -> message:string -> unit
val degradations : t -> degradation list
(** Oldest first. *)

val degradation_count : t -> int
(** How many degradations have been noted: the length of
    {!degradations}, without copying the log or taking its lock. The
    result cache reads it as its degradation epoch on every miss. *)

val set_brownout : t -> bool -> unit
(** Assert or clear overload brownout. While set, the dataspace degrades
    {e degradable} reads proactively (the source is not called at all;
    warm cache hits still serve, short-circuiting before the boundary).
    Transitions bump [overload.brownout.entered] / [.exited];
    re-asserting the current state is a no-op. *)

val in_brownout : t -> bool

val guard : t -> source:string -> (unit -> 'a) -> 'a
(** Run a source call under the source's policy: breaker admission,
    bounded retry with exponential backoff + seeded jitter for
    {e injected transient} failures, per-attempt virtual-time deadline.
    Raises {!Error} for timeout / open-circuit / retries-exhausted;
    genuine (non-injected) failures pass through untouched and do not
    feed the breaker. Under the default policy this is a transparent
    pass-through.

    The ambient {!Deadline} additionally caps every guarded call: an
    already-expired request fails fast with [Deadline_exceeded]
    ({e before} breaker admission, so it cannot consume a half-open
    probe), a blown budget after any attempt — success included — is
    [Deadline_exceeded], and retries stop the moment the budget dies.
    The effective per-attempt bound is therefore
    [min(policy timeout, remaining budget)], with the error naming
    whichever bound was actually hit. Deadline expiry never feeds the
    breaker: it is client impatience, not a source-health signal. *)

val check_strict : t -> source:string -> unit
(** Strict admission for SDO submit: raises {!Error} with
    [Circuit_open] when the source's breaker would reject a call —
    without consuming the half-open probe. *)
