(** Execution instrumentation: named counters, accumulated timers and
    hierarchical trace spans behind one mutable handle.

    Every engine component (optimizer, relational substrate, web-service
    client, XQSE interpreter, SDO decomposition) holds a reference to a
    handle and reports into it; the handle is created once per session
    and shared, so turning instrumentation on or swapping the sink
    affects components that were wired long before. A disabled handle is
    free on hot paths: every reporting entry point is guarded by a single
    mutable boolean and allocates nothing when it is off.

    Handles are domain-safe: counters and timers are atomics (concurrent
    {!bump}s from several worker domains never lose increments), the
    name tables are mutex-guarded, and each domain tracing through a
    shared handle keeps its own span stack in domain-local storage, so
    span nesting is per-domain and cannot be corrupted by a concurrent
    worker. *)

type sink =
  | Null  (** discard everything (the default) *)
  | Text of (string -> unit)
      (** human-readable lines: spans indented by depth, completion
          order (a child closes — and prints — before its parent) *)
  | Json of (string -> unit)
      (** JSON-lines: one object per span or note; nesting is encoded in
          the [id]/[parent]/[depth] fields *)

type t

val create : ?sink:sink -> unit -> t
(** A fresh handle, {e disabled}; call {!enable} to start recording.
    [sink] (default [Null]) is where spans and notes go. *)

val disabled : t
(** The shared always-off handle — the default for components that were
    never given one. Calling {!enable} on it raises [Invalid_argument];
    create your own handle instead. *)

val enable : t -> unit
val disable : t -> unit
val enabled : t -> bool
val set_sink : t -> sink -> unit
val sink : t -> sink

val noting : t -> bool
(** [true] when notes/spans would actually be emitted (enabled and the
    sink is not [Null]) — use to avoid building log strings nobody will
    see. *)

(** {1 Reporting} *)

val bump : t -> ?n:int -> string -> unit
(** Add [n] (default 1) to a named counter. No-op when disabled. *)

val note : t -> string -> unit
(** Emit a free-form line into the trace at the current span depth. *)

val span : t -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a named span: the duration is
    accumulated into the timer named [name] and the span is emitted to
    the sink when [f] returns (or raises — spans close on exceptions).
    When disabled this is exactly [f ()]. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t name f] accumulates [f]'s duration into the timer named
    [name] without opening a span — for hot, frequently-entered phases
    (e.g. one optimizer pass per fixpoint iteration) where a span per
    entry would drown the trace. When disabled this is exactly [f ()]. *)

val add_ms : t -> string -> float -> unit
(** Accumulate an externally-measured duration into a named timer — for
    spans whose clock is not this process's wall clock (e.g. a request's
    consumed deadline budget, part virtual, part wall). No-op when
    disabled. *)

(** {1 Snapshots} *)

type stats = {
  counters : (string * int) list;  (** first-registered order *)
  timers : (string * float) list;  (** accumulated milliseconds *)
}

val stats : t -> stats
(** Current counter and timer values. *)

val since : t -> stats -> stats
(** [since t before] is the delta between now and an earlier
    {!stats} snapshot — the per-query cost of whatever ran in between. *)

val add_stats : stats -> stats -> stats
(** Pointwise sum of two snapshots (union of names, missing = 0) — for
    merging per-worker deltas into one fleet-wide table. *)

val reset : t -> unit
(** Zero every counter and timer (registrations are kept). *)

val render : ?times:bool -> stats -> string
(** An aligned two-column table, one counter per line, followed (unless
    [times] is [false]) by [time.<span>.ms] lines for each timer. *)

(** {1 Well-known counters}

    Any string names a counter, but the engine reports under these keys;
    {!preregister} registers all of them so a stats table over an idle
    handle still lists every key (with value 0) in a stable order. *)

module K : sig
  val queries_compiled : string

  (** plan-cache counters: [queries_compiled] counts only successful
      compiles; a cache hit skips the compile span entirely, so
      [hit + miss] is the number of lookups and [miss >=
      queries_compiled] (a failed parse is a miss that never becomes a
      plan). [invalidate] counts cached entries flushed by a
      registry-changing install. [plan_unit_built] counts session
      compilation units built: at most one per generation (registry
      state), by the first compile or call after a registration. *)

  val plan_cache_hit : string
  val plan_cache_miss : string
  val plan_cache_invalidate : string
  val plan_unit_built : string
  val optimizer_folded : string
  val optimizer_inlined : string
  val optimizer_inlined_pure : string
  val optimizer_joins : string
  val optimizer_pushed : string
  val optimizer_pushed_shifted : string
  val sql_generated : string
  val sql_executed : string
  val rows_scanned : string
  val rows_fetched : string
  val ws_calls : string
  val ws_faults : string
  val xqse_statements : string
  val sdo_submits : string
  val sdo_statements : string

  (** source-resilience counters: retries/timeouts at the dataspace
      source-call boundary, breaker trips and rejected calls, degraded
      reads, and faults actually injected by the chaos plan *)

  val resil_retries : string
  val resil_timeouts : string
  val resil_trips : string
  val resil_rejected : string
  val resil_degraded : string
  val resil_injected : string

  (** streaming-core counters: items pulled from live producer cursors,
      items copied out at materialization boundaries, and abandons that
      skipped a provably-pure remainder *)

  val stream_pulled : string
  val stream_materialized : string
  val stream_early_exits : string

  (** concurrent-server counters: jobs completed by the worker pool,
      jobs that raised, and submit jobs executed *)

  val server_jobs : string
  val server_errors : string
  val server_submits : string

  (** MVCC storage counters: table versions currently live (a gauge —
      published heads plus superseded versions still pinned by a
      snapshot or open cursor), versions garbage-collected after their
      last unpin, per-table write locks acquired, and acquisitions that
      had to wait because another domain held the lock *)

  val mvcc_versions_live : string
  val mvcc_versions_collected : string
  val mvcc_lock_acquired : string
  val mvcc_lock_contended : string

  (** overload-protection counters: requests shed at admission
      ([RESX0006]), requests whose end-to-end deadline expired
      ([RESX0005]), and brownout entry/exit transitions of the pool's
      pressure signal *)

  val overload_shed : string
  val overload_expired : string
  val overload_brownout_entered : string
  val overload_brownout_exited : string

  (** result-cache counters: [cache_hit] reads served from a
      materialized prior result, [cache_miss] calls that ran the
      function, [cache_evict] entries removed by lineage-driven
      invalidation, [cache_bypass] calls that could not be cached or
      whose result was refused admission *)

  val cache_hit : string
  val cache_miss : string
  val cache_evict : string
  val cache_bypass : string

  (** per-pass optimizer timer names, accumulated via {!time} *)

  val t_optimizer_fold : string
  val t_optimizer_normalize : string
  val t_optimizer_inline : string
  val t_optimizer_join : string
  val t_optimizer_push : string

  val t_deadline_budget : string
  (** accumulated budget (virtual + wall ms) consumed by deadlined
      requests, reported via {!add_ms} *)
end

val preregister : t -> unit
