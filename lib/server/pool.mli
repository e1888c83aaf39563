(** The concurrent query server: a pool of worker domains draining a
    job list against per-worker session forks of one template session.

    Each worker gets its own {!Xqse.Session.with_config} fork (own plan
    cache, own procedure runtime, shared host state), so the only
    shared mutable surface is the dataspace's sources — and those are
    safe to hit concurrently: every query runs against a pinned MVCC
    snapshot of the source tables and every submit takes per-table
    write locks and publishes its new versions atomically at commit
    (see {!Relational.Table}). The pool itself holds no lock around
    jobs; a reader never sees half a changeset, and a submit in flight
    no longer excludes readers of unrelated (or even the same) tables.

    With [workers = 1] no domain is spawned and jobs run in list order
    on the calling domain — a deterministic baseline the tests diff
    concurrent runs against.

    Jobs carry open-loop arrival offsets: a job whose [j_arrival_ms] is
    positive is not started before that offset from run start, and its
    latency is measured from the {e scheduled} arrival — queueing delay
    under an overloaded pool counts, as in any open-loop harness. When
    every offset is [0.] the run is closed-loop and latency is pure
    service time.

    {2 Overload protection}

    An {!overload} config arms three independent defenses, all enforced
    at admission (when a worker picks the job up), before any service
    work happens, so refused requests cost ~zero service time:

    - {e deadlines}: each job's budget (its own [j_deadline_ms], else
      the pool default) starts at its scheduled arrival. A job whose
      whole budget died in the queue fails immediately with
      [err:RESX0005]; an admitted job runs under the ambient
      {!Resilience.Deadline} carrying what is left, which
      {!Resilience.Control.call} and session execution consult below.
    - {e shedding}: a bounded queue ([sp_queue_bound] — backlog of
      already-arrived jobs) and/or a CoDel-style delay target
      ([sp_delay_target_ms] — drop while queueing delay exceeds it)
      reject with [err:RESX0006].
    - {e brownout}: the queueing-delay EWMA crossing [b_enter_ms]
      invokes [b_apply true] (typically {!Resilience.Control.set_brownout}
      — degradable reads start degrading proactively); falling below
      [b_exit_ms], or the run draining completely, restores with
      [b_apply false]. *)

type kind = Read | Script | Submit

val kind_name : kind -> string
(** ["read"], ["script"], ["submit"]. *)

type job = {
  j_kind : kind;
  j_label : string;  (** for error reports *)
  j_arrival_ms : float;  (** open-loop arrival offset; [0.] = immediate *)
  j_deadline_ms : float option;
      (** end-to-end budget from scheduled arrival; [None] = the pool
          default (which may itself be off) *)
  j_run : Xqse.Session.t -> unit;
      (** receives the worker's session fork; submit jobs typically
          ignore it and drive the shared dataspace directly *)
}

type latency = {
  l_p50 : float;
  l_p95 : float;
  l_p99 : float;
  l_max : float;
  l_mean : float;
}
(** Milliseconds. *)

type window = { w_from_ms : float; w_jobs : int; w_latency : latency }
(** One slice of an open-loop run: the jobs whose scheduled arrival
    fell in [[w_from_ms, w_from_ms + window)], with their latency
    percentiles. *)

type shed_policy = {
  sp_queue_bound : int option;
      (** reject when the backlog of arrived-but-unserved jobs exceeds
          this *)
  sp_delay_target_ms : float option;
      (** CoDel-style: reject while queueing delay exceeds this *)
}

type brownout = {
  b_enter_ms : float;  (** queueing-delay EWMA above this enters *)
  b_exit_ms : float;  (** EWMA below this exits (keep < enter) *)
  b_apply : bool -> unit;  (** called on each transition *)
}

type overload = {
  o_deadline_ms : float option;  (** default budget for every job *)
  o_shed : shed_policy option;
  o_brownout : brownout option;
  o_clock : Resilience.Clock.t option;
      (** the control's virtual clock, so injected latency counts
          against budgets *)
}

val no_overload : overload
(** Everything off — the PR 7 pool behavior. *)

type report = {
  r_workers : int;
  r_jobs : int;  (** jobs attempted *)
  r_ok : int;  (** jobs that completed without raising *)
  r_accepted : int;  (** jobs admitted to service (not shed/expired) *)
  r_shed : int;  (** rejected at admission with [err:RESX0006] *)
  r_expired : int;  (** budget dead on arrival, [err:RESX0005] *)
  r_errors : (string * string) list;  (** (label, message), capped *)
  r_error_kinds : (string * int) list;
      (** failure counts per {!error_kind}, sorted by kind — uncapped,
          unlike [r_errors] *)
  r_wall_ms : float;
  r_qps : float;  (** attempted jobs per wall-clock second *)
  r_goodput : float;  (** {e successful} jobs per wall-clock second *)
  r_latency : latency;
      (** over all jobs; a shed/expired job contributes its (tiny)
          time-to-rejection *)
  r_accepted_latency : latency;  (** over admitted jobs only *)
  r_by_kind : (string * int) list;  (** job count per {!kind_name} *)
  r_kind_latency : (string * latency) list;
      (** accepted-job latency per {!kind_name} (kinds with no accepted
          jobs are omitted) — the mixed-workload headline: with MVCC
          snapshots a background submit stream must not drag read p99
          up to submit latency *)
  r_kind_words : (string * float) list;
      (** mean minor words a job's [j_run] allocated, per {!kind_name}
          over accepted jobs (same omissions), counted on the worker's
          own domain with [Gc.minor_words]. Every minor collection
          stops all of OCaml 5's domains, so this is a request's share
          of what couples the workers. *)
  r_trajectory : window list;
      (** the latency trajectory over arrival time — how p50/p95/p99
          evolve as a sustained-rate run progresses, which a single
          whole-run percentile cannot show (a pool slowly falling
          behind its arrival rate looks fine in the aggregate and
          catastrophic in the last window). Empty for closed-loop
          runs (every arrival at [0.]). *)
}

val percentile : float array -> float -> float
(** [percentile sorted q] is the nearest-rank [q]-th percentile of a
    sorted array ([0.] when empty). *)

val trajectory : window_ms:float -> job array -> float array -> window list
(** [trajectory ~window_ms jobs lat] buckets per-job latencies by
    scheduled arrival into [window_ms]-wide slices; windows with no
    arrivals are dropped. Exposed for direct testing of the slicing
    edges ({!run} calls it with the measured latencies). *)

val error_kind : exn -> string
(** The stable-code classification used for {!report.r_error_kinds}:
    the [RESX000x] local name for resilience-surfaced errors
    ([Xdm.Item.Error] in the [err:] namespace); [err:CODE] for every
    other code in the
    [err:] namespace (e.g. [err:XPTY0004], [err:SQLX0001]); [{uri}local]
    for a code in any other namespace (a data service's [CreateError], a
    user's [fn:error] code); ["other"] only for exceptions that carry no
    code. Every failure the library raises to its callers is an
    [Xdm.Item.Error], so ["other"] marks a programming error (an
    [Invalid_argument], an [Sdo] client-API [Failure]) or a job's own
    exception. *)

val run :
  ?workers:int ->
  ?window_ms:float ->
  ?overload:overload ->
  session:Xqse.Session.t ->
  job list ->
  report
(** Drain [jobs] with [workers] domains (default [1]) forked from
    [session]. Bumps [server.jobs] / [server.errors] /
    [server.submits] — plus [overload.shed] / [overload.expired] and
    the [deadline.budget] timer when [overload] arms those — on the
    session's instrumentation handle. Job exceptions are caught,
    counted and reported — one bad job never takes down the pool.
    [window_ms] (default [250.]) sets the trajectory bucket width for
    open-loop runs. *)
