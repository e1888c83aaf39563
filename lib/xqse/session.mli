(** XQSE sessions: the top-level API for compiling and running XQSE
    programs.

    A session owns an XQuery engine (static context + function registry)
    and an XQSE procedure runtime. Hosts (the ALDSP dataspace) register
    external functions and procedures into the session; each program
    compiles against a copy so its own declarations do not leak. *)

open Xdm

type t

type config = {
  optimize : bool;  (** run the rewrite optimizer (default [true]) *)
  streaming : bool;
      (** pull-based cursor evaluation where the gates allow (default
          [true]); off forces eager materialization everywhere *)
  plans : bool;
      (** closure-compiled execution + plan caching (default [true]);
          off walks ASTs through the tree interpreter *)
  instr : Instr.t;  (** instrumentation handle (default {!Instr.disabled}) *)
  trace : (string -> unit) option;
      (** [fn:trace] destination; [None] notes into [instr]'s sink *)
  result_cache : Cache.handle option;
      (** data-service result cache (default [None] = off). The handle's
          store is shareable: identically-configured forks (e.g. the
          server's per-worker sessions) share entries, while the
          fingerprint prefix keeps differently-configured sessions on
          disjoint keys. *)
}
(** Everything configurable about a session, as one immutable value: fix
    it at {!create}, read it back with {!config}, or fork a
    differently-configured independent session with {!with_config} — no
    mutator calls to sequence, so a session can be handed to a worker
    domain without another thread's setter changing its behavior
    mid-flight. *)

val default_config : config
(** All defaults ([optimize]/[streaming]/[plans] on, {!Instr.disabled},
    trace into the instrumentation sink). Build variations as
    [{ default_config with streaming = false }]. *)

val create : ?optimize:bool -> ?instr:Instr.t -> ?config:config -> unit -> t
(** A fresh session configured by [config] (default {!default_config}).
    The legacy labelled arguments override the record's fields where
    given (they predate [config]; prefer the record in new code).
    [config.instr] is the session's instrumentation handle, shared with
    its engine, its XQSE runtime, and every program compiled in it. The
    handle identity is fixed at creation — enable it or swap its sink at
    any time and already-wired components report into it. *)

val config : t -> config
(** The session's current configuration (trace is always [Some]: the
    session's installed destination). *)

val with_config : t -> config -> t
(** [with_config s cfg] is an independent session configured by [cfg]
    over copies of everything [s] accreted — registered functions and
    procedures, loaded libraries, modules, documents, globals. Neither
    session sees the other's subsequent registrations, plan caches or
    global-variable updates, so forked sessions are safe to drive from
    separate worker domains (the host state captured inside registered
    external functions — e.g. a dataspace's sources — stays shared; the
    server serializes access to it). *)

val with_engine : Xquery.Engine.t -> t
(** Build a session around an existing engine (sharing its registry,
    static context and instrumentation handle). Sessions over one engine
    keep independent plan caches and procedure runtimes; registrations
    that touch the shared registry invalidate across all of them through
    the engine's generation. *)

val engine : t -> Xquery.Engine.t
val runtime : t -> Interp.runtime

val invalidate_plans : t -> unit
(** Flush the session's plan cache and compiled procedure bodies,
    bumping the session generation (flushed entries count on
    [plan.cache.invalidate]). Called automatically by every
    registration ({!register_function}, {!register_function_cursor},
    {!register_procedure}, {!register_module}) and by library loads. *)

val instr : t -> Instr.t
(** The handle given to {!create}. *)

val streaming : t -> bool

val set_streaming : t -> bool -> unit
(** Removed (the PR 7 deprecated shim): mutating a session another
    domain is executing against is a race. Set [streaming] in the
    {!config} record at creation, or use {!with_config} for a
    differently-configured fork.
    @raise Invalid_argument always, naming the replacement. *)

val set_plans : t -> bool -> unit
(** Removed, like {!set_streaming}: set [plans] in the {!config} record
    at creation, or use {!with_config}.
    @raise Invalid_argument always, naming the replacement. *)

val set_result_cache : t -> Cache.handle option -> unit
(** Install (or remove) the session's result cache. A mutator by
    necessity — the dataspace enables caching on an already-built
    session — but safe to call before handing the session to workers:
    {!with_config} forks inherit whatever [config] carries at fork
    time. *)

val result_cache : t -> Cache.handle option

type snapshot_scope = { scope : 'a. (unit -> 'a) -> 'a }
(** An ambient read-context wrapper: applied around every {!run},
    {!eval} and {!call} so all source reads of one query resolve
    against a single consistent cut. The data layer registers one that
    installs a pinned MVCC snapshot of every source table (see
    [Relational.Table.with_snapshot]); it must be reentrant — a nested
    query entry runs inside the outer scope unchanged. *)

val set_snapshot_scope : t -> snapshot_scope option -> unit
(** Install (or remove) the session's snapshot scope. Like
    {!set_result_cache}, a mutator by necessity (the dataspace wires it
    onto an already-built session); {!with_config} forks inherit the
    scope installed at fork time. *)

val declare_namespace : t -> string -> string -> unit
val set_trace : t -> (string -> unit) -> unit
(** Where [fn:trace] output goes for subsequently compiled programs
    (default: a note in the instrumentation trace). *)

val register_function :
  t ->
  ?side_effects:bool ->
  ?purity:bool * bool * bool ->
  Qname.t ->
  int ->
  (Item.seq list -> Item.seq) ->
  unit
(** Register a host function (callable from XQuery expressions).
    [purity] is the caller-vouched (effects, fallible, constructs)
    verdict — the dataspace passes [(false, true, true)] for its source
    reads so purity analysis, optimizer rewrites and result-cache
    admission can see through them; omitted means unknown (impure). *)

val register_function_cursor :
  t ->
  ?side_effects:bool ->
  ?purity:bool * bool * bool ->
  ?keyed:Xquery.Context.keyed_read ->
  Qname.t ->
  int ->
  (Item.seq list -> Item.t Cursor.t) ->
  unit
(** Register a host function that produces its result as a pull-based
    cursor ({!Xdm.Cursor}); streaming consumers pull it lazily, eager
    call sites materialize it. [keyed] marks a relational table read
    that can also select its rows by a text column: the compiled filter
    [T()[COL eq K]] then reads only the matching rows (DESIGN.md §13). *)

val register_procedure :
  t ->
  ?readonly:bool ->
  ?params:(Qname.t * Seqtype.t option) list ->
  ?return:Seqtype.t ->
  Qname.t ->
  int ->
  (Item.seq list -> Item.seq) ->
  unit
(** Register an external host procedure — e.g. the ALDSP-provided
    create/update/delete procedures of a physical data service. *)

val register_module : t -> string -> string -> unit
(** [register_module s uri source] adds an XQSE library program to the
    session's module library. A program whose prolog contains
    [import module namespace p = "uri"] causes the module to be loaded
    (once per session, recursively) before the program runs — this is
    how ALDSP data services reference one another. *)

val load_library : t -> string -> unit
(** Parse an XQSE program containing only declarations and install its
    functions and procedures permanently into the session (how ALDSP
    deploys data-service methods).
    @raise Xdm.Item.Error if the program has a query body. *)

type compiled

val compile : t -> string -> compiled
(** Parse an XQSE program and register its declarations against copies of
    the session registry/runtime. When the engine executes plans
    (see {!Xquery.Engine.plans}), the query body is closure-compiled
    inside the [compile] span, so {!run} measures pure execution.
    [queries.compiled] counts only successful compiles. *)

val compile_cached : t -> string -> compiled
(** {!compile} through the session's plan cache: a fingerprint-valid
    entry for the same program text is returned without recompiling
    (bumping [plan.cache.hit] and skipping the [compile] span entirely);
    otherwise [plan.cache.miss] is bumped {e before} compiling, so
    failed compiles are misses that never become plans. The fingerprint
    covers the engine and session generations plus the
    optimize/streaming/plans flags. Bypassed when plans are off. *)

type exec_opts = {
  vars : (Qname.t * Item.seq) list;  (** external variable bindings *)
  trace : (string -> unit) option;
      (** per-call [fn:trace] destination; [None] uses the session
          default (see {!set_trace}) *)
}

val default_exec_opts : exec_opts
(** No variables, session-default trace. Build custom options as
    [{ default_exec_opts with vars = ... }]. *)

val run : ?opts:exec_opts -> compiled -> Item.seq
(** Execute a compiled program: evaluate its global variables, then its
    query body (expression or block). Programs without a body return the
    empty sequence.

    When the calling domain carries an already-expired
    {!Resilience.Deadline}, execution fails fast with [err:RESX0005]
    before any statement runs — the server pool installs that deadline
    around each request, and {!Resilience.Control.guard} enforces the
    remaining budget at every source call below. *)

val eval : ?opts:exec_opts -> t -> string -> Item.seq
(** {!compile_cached} + {!run}: repeated program texts skip compilation
    entirely while the fingerprint holds. *)

val eval_to_string : ?opts:exec_opts -> t -> string -> string

type exec_result = {
  r_value : Item.seq;
  r_stats : Instr.stats;  (** counters/timers this execution added *)
}

val exec : ?opts:exec_opts -> t -> string -> exec_result
(** [compile] + [run] inside a [query] span, returning the result
    together with the instrumentation delta it caused — the one code
    path the CLI and the console share. With a disabled handle,
    [r_stats] is empty. *)

val call : t -> Qname.t -> Item.seq list -> Item.seq
(** Call a session procedure or function by name with evaluated
    arguments (procedures take precedence). *)

type explain = {
  ex_program : string;  (** the optimized program, pretty-printed *)
  ex_stats : Xquery.Optimizer.stats;
      (** total rewrite counts across all optimized bodies *)
  ex_log : string list;
      (** one line per rewrite plus per-iteration summaries, in order *)
}

val explain : t -> string -> explain
(** Parse a program and run the optimizer over its function bodies,
    procedure bodies and query body (like {!compile} would), recording
    every rewrite. Does not execute anything and does not install
    declarations into the session. *)
