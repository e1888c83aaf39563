(** The per-dataspace resilience control: one virtual clock, one seeded
    jitter RNG, an optional fault plan, and per-source policies,
    breakers, fault handles and degradable annotations.

    {!call} is the single enforcement point the dataspace wraps around
    every source call. What the control refuses it raises as
    [Xdm.Item.Error] in the [err:] namespace, with the text
    ["source: message"]: [RESX0001] (the call exceeded its policy
    timeout), [RESX0002] (the breaker rejected it), [RESX0003]
    (transient failures outlived the retry budget) and [RESX0005] (the
    request's {!Deadline} ran out). *)

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

type source
(** A source's guard state, resolved once: its policy, breaker, fault
    handle and degradable flag. {!set_policy}, {!set_degradable} and
    {!attach} replace it under the control's lock; the next {!call} on
    any domain reads the new state without taking a lock. *)

val source : t -> string -> source
(** The named source's state cell, created (unguarded: the default
    policy, no breaker, no fault handle, not degradable) on first use.
    Resolve it once, when the source is registered, and guard every
    call through it. *)

val source_name : source -> string

val degradable : source -> bool
(** {!is_degradable}, read from the resolved state. *)

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

val call : t -> source -> ('a -> 'b) -> 'a -> 'b
(** [call t src f x] runs the source call [f x] under [src]'s resolved
    state: breaker admission, bounded retry with exponential backoff +
    seeded jitter for {e injected} faults — an [Xdm.Item.Error] whose
    code is {!Faults.resx0004} — and a per-attempt virtual-time
    timeout. Raises [err:RESX0001] on a timeout, [err:RESX0002] on an
    open circuit and [err:RESX0003] when the retries run out; under the
    pass-through policy ([max_retries = 0]) the injected fault is
    re-raised unchanged. An injected fault that gives up feeds the
    breaker; every other exception passes through untouched and does
    not. The guard reads no fault handle: the raised code alone marks
    a fault as injected. Under the default policy this is a transparent
    pass-through.

    The ambient {!Deadline} additionally caps every call: an
    already-expired request fails fast with [err:RESX0005] ({e before}
    breaker admission, so it cannot consume a half-open probe), a blown
    budget after any attempt — success included — is [err:RESX0005],
    and retries stop the moment the budget dies. The effective
    per-attempt bound is therefore [min(policy timeout, remaining
    budget)], with the error naming whichever bound was actually hit.
    Deadline expiry never feeds the breaker: it is client impatience,
    not a source-health signal.

    [call] takes no lock of the control's and allocates no closure
    unless instrumentation is on or a retry draws jitter. *)

val check_strict : t -> source -> unit
(** Strict admission for writes: raises [err:RESX0002] when the
    source's breaker would reject a call — without consuming the
    half-open probe. Like {!call}, it reads the resolved state without
    taking a lock. *)
