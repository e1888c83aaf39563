(** XQSE sessions: the one API for compiling and running programs.

    XQSE loosely wraps XQuery: a plain XQuery main module is an XQSE
    program whose body is an expression, so sessions compile and run
    both. A session is one record: the static context (namespaces), the
    optimizer switch, and an XQSE runtime holding the function registry,
    the procedures, the documents and the instrumentation handle. Hosts
    (the ALDSP dataspace) register external functions, procedures and
    documents into the session; each program compiles against a copy so
    its own declarations do not leak. Optimizer rewrites bump the
    [optimizer.*] counters on the handle (and emit one note per rewrite
    when it has a sink). *)

open Xdm

type t

type config = {
  optimize : bool;  (** run the rewrite optimizer (default [true]) *)
  plans : bool;
      (** closure-compiled execution + plan caching (default [true]);
          off runs the eager reference walkers, which is how the
          differential tests select the reference *)
  instr : Instr.t;  (** instrumentation handle (default {!Instr.disabled}) *)
}
(** The session's flags, as one immutable value: fix them at {!create},
    read them back with {!config}, or fork a differently-configured
    independent session with {!with_config}. They cannot change on a
    built session, so a session can be handed to a worker domain without
    another thread changing its behavior mid-flight. *)

val default_config : config
(** [optimize] and [plans] on, {!Instr.disabled}. Build variations as
    [{ default_config with plans = false }]. *)

val create : ?config:config -> unit -> t
(** A fresh session configured by [config] (default {!default_config}),
    with [fn:trace] noting into the instrumentation trace and no result
    cache (see {!set_trace} and {!set_result_cache}). [config.instr] is
    the session's instrumentation handle, shared by its optimizer, its
    XQSE runtime, and every program compiled in it. The handle identity
    is fixed at creation — enable it or swap its sink at any time and
    already-wired components report into it. *)

val config : t -> config

val with_config : t -> config -> t
(** [with_config s cfg] is an independent session configured by [cfg]
    over copies of everything [s] accreted — namespaces, registered
    functions and procedures, loaded libraries, modules, documents,
    globals — with [s]'s [fn:trace] destination, result cache and
    snapshot scope. Neither session sees the other's subsequent
    registrations, plan caches or global-variable updates, so forked
    sessions are safe to drive from separate worker domains (the host
    state captured inside registered external functions — e.g. a
    dataspace's sources — stays shared; the server serializes access to
    it). *)

val instr : t -> Instr.t
(** The handle given to {!create}. *)

val registry : t -> Xquery.Context.registry
(** The session's function registry: builtins plus everything
    registered or loaded. Read it; register through the session, so the
    plan cache and result-cache keys move. *)

val purity_env : t -> Xquery.Purity.env
(** The purity verdicts of the session's registry: those of its
    compilation unit for the current generation (see {!compile}), built
    now if no compile or call has built it yet. Extend it by a
    program's declarations with {!Xquery.Purity.extend}. *)

val parse : t -> string -> Stmt.program
(** Parse a program against a copy of the session's static context:
    the session's namespace declarations are in scope, the program's
    own do not leak back. Installs nothing. *)

val set_result_cache : t -> Cache.handle option -> unit
(** Install (or remove) the session's data-service result cache. A
    mutator by necessity — the dataspace enables caching on an
    already-built session — but safe to call before handing the session
    to workers: {!with_config} forks inherit the cache installed at fork
    time. The handle's store is shareable: identically-configured forks
    (e.g. the server's per-worker sessions) share entries, while the key
    prefix — the session generation and flags — keeps differently
    configured sessions, and sessions whose registrations differ, on
    disjoint keys. Every registration, library load and document moves
    the generation to a fresh process-wide value. *)

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
(** Where [fn:trace] output goes for every program of the session,
    cached plans included (default: a note in the instrumentation
    trace). A {!with_config} fork starts with its source's destination
    and keeps its own afterwards. *)

val register_function :
  t ->
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

val register_doc : t -> string -> Node.t -> unit
(** Make a document available to [fn:doc] in the session's programs,
    replacing an earlier one at the same URI. {!with_config} forks
    inherit the documents registered before the fork. *)

val register_collection : t -> string -> Node.t list -> unit
(** Make nodes available to [fn:collection]; the empty URI names the
    default collection. Inherited by forks like {!register_doc}. *)

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
(** Parse an XQSE program (or XQuery main module) and register its
    declarations against copies of the session registry/runtime. When
    the session executes plans ([config.plans]), the query body is
    closure-compiled inside the [compile] span, so {!run} measures pure
    execution. [queries.compiled] counts only successful compiles.

    The registry-derived part of a compile is done once per generation,
    by the first compile or {!call} after a registration, into the
    session's compilation unit ([plan.unit.built] counts them): the
    registry's purity verdicts and every registry user function,
    compiled. A compile then solves purity over its own declarations
    only, on top of the unit's verdicts, and compiles only its own
    code: a registry function it calls runs the unit's plan. A
    {!with_config} fork builds its own unit.
    @raise Xdm.Item.Error [err:XPST0003] on bad syntax, with the
    position in its text, and the static error's own code otherwise. *)

val compile_cached : t -> string -> compiled
(** {!compile} through the session's plan cache: an entry for the same
    program text compiled under the session's current generation is
    returned without recompiling (bumping [plan.cache.hit] and skipping
    the [compile] span entirely); otherwise [plan.cache.miss] is bumped
    {e before} compiling, so failed compiles are misses that never
    become plans. Every registration moves the generation; the flags
    need no key, being fixed for the session's lifetime. A compile that
    a registration raced (the generation moved after the compile read
    it) returns its plan without caching it. Bypassed when plans are
    off. *)

type exec_opts = {
  context_item : Item.t option;
      (** the focus of an expression query body (position and size 1);
          variable initializers and block bodies run without one *)
  vars : (Qname.t * Item.seq) list;  (** external variable bindings *)
}

val default_exec_opts : exec_opts
(** No context item, no variables. Build custom
    options as [{ default_exec_opts with vars = ... }]. *)

val run : ?opts:exec_opts -> compiled -> Item.seq
(** Execute a compiled program: evaluate its global variables, then its
    query body (expression or block). Programs without a body return the
    empty sequence.

    When the calling domain carries an already-expired
    {!Resilience.Deadline}, execution fails fast with [err:RESX0005]
    before any statement runs — the server pool installs that deadline
    around each request, and {!Resilience.Control.call} enforces the
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
