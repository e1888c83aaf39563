(** High-level XQuery engine facade.

    An engine owns a static context (namespaces) and a base function
    registry (builtins plus whatever external functions the host — e.g.
    the ALDSP dataspace — registers). Each query evaluation works on a
    copy of the registry, so per-query prolog declarations do not leak
    between queries.

    An engine also carries an instrumentation handle ({!Instr.t},
    default {!Instr.disabled}): compilation and execution run inside
    [compile]/[run] spans, optimizer rewrites bump the
    [optimizer.*] counters (and emit one note per rewrite when the
    handle has a sink), and [fn:trace] output without an explicit
    [trace] callback flows into the same sink. *)

open Xdm

type t

val create :
  ?optimize:bool -> ?streaming:bool -> ?instr:Instr.t -> unit -> t
(** [optimize] (default [true]) runs the rewrite optimizer over every
    compiled function body and query body. [streaming] (default [true])
    lets the evaluator run pull-based cursor pipelines where the gates
    allow it; turning it off forces eager (materializing) evaluation
    everywhere — results are identical either way. [instr] (default
    {!Instr.disabled}) receives spans, counters and rewrite notes. *)

val with_registry :
  ?optimize:bool ->
  ?streaming:bool ->
  ?instr:Instr.t ->
  Context.static ->
  Context.registry ->
  t
(** Build an engine around an existing static context and registry
    (shared with other components, e.g. the XQSE interpreter). *)

val fork :
  ?optimize:bool ->
  ?streaming:bool ->
  ?plans:bool ->
  ?instr:Instr.t ->
  t ->
  t
(** An independent engine seeded from an existing one: copies of its
    static context, registry, documents and collections, a fresh plan
    cache, and the given flag overrides (defaulting to the source's
    current values). Registrations on either engine are invisible to
    the other — this is how a worker gets its own engine over a shared
    dataspace's registrations. *)

val static : t -> Context.static
val registry : t -> Context.registry
val optimizing : t -> bool
val set_optimizing : t -> bool -> unit

val streaming : t -> bool
val set_streaming : t -> bool -> unit
(** Toggle streaming for subsequent [run]s. With streaming off every
    compiled cursor plan degenerates to eager evaluation; the
    differential corpus exercises both modes. The reference walker
    (plans off) is eager either way. *)

val plans : t -> bool
val set_plans : t -> bool -> unit
(** Toggle closure-compiled execution (default on). With plans on,
    {!run} executes the query's compiled plan and {!eval_string} serves
    repeated query texts from the engine's plan cache (bumping
    [plan.cache.hit]/[plan.cache.miss]); with plans off every run walks
    the AST through the eager reference walker [Eval.eval] and the
    cache is bypassed entirely. Results are identical either way — the
    differential tests compare the two. *)

val generation : t -> int
(** Monotonic static-context generation: bumped by every registration
    ({!register_external}, {!register_external_cursor},
    {!declare_namespace}) and by {!invalidate_plans}. Part of the plan
    cache fingerprint; session-level caches key on it too. *)

val invalidate_plans : t -> unit
(** Flush the plan cache and bump the generation (counting the flushed
    entries on [plan.cache.invalidate]). Called automatically by every
    registration; call it directly after mutating shared state behind
    the engine's back. *)

val instr : t -> Instr.t
val set_instr : t -> Instr.t -> unit

val optimize_expr : t -> ?where:string -> ?env:Purity.env -> Ast.expr -> Ast.expr
(** Run the optimizer over one expression (identity when optimization is
    off), reporting pass counters, per-pass timers and rewrite notes into
    the engine's instrumentation handle. [where] names the enclosing
    declaration and prefixes each note as [[where] rewrite...] — this is
    how explain output attributes rewrites in multi-declaration programs.
    [env] (default: builtins only) supplies the function verdicts for the
    purity-gated rewrites; build one with {!purity_env}. *)

val purity_env : t -> Ast.function_decl list -> Purity.env
(** The purity environment for a compilation against this engine: its
    registry plus [decls] (function declarations being compiled but not
    yet registered). Built even when optimization is off — the compiled
    streaming arms gate on the same verdicts and must gate identically
    in optimized and unoptimized engines. *)

val purity_fn : Purity.env -> Ast.expr -> bool * bool * bool
(** [(effects, fallible, constructs)] verdict of an expression under a
    purity environment — the closure shape {!Eval.compiler} expects for
    its [?purity] argument. *)

val declare_namespace : t -> string -> string -> unit

val register_external :
  t ->
  ?side_effects:bool ->
  ?purity:bool * bool * bool ->
  Qname.t ->
  int ->
  (Item.seq list -> Item.seq) ->
  unit
(** Register a host function into the engine's base registry. [purity]
    is the caller-vouched (effects, fallible, constructs) verdict for
    the optimizer's purity-gated rewrites and result-cache admission;
    omitted means unknown, treated as impure. *)

val register_external_cursor :
  t ->
  ?side_effects:bool ->
  ?purity:bool * bool * bool ->
  ?keyed:Context.keyed_read ->
  Qname.t ->
  int ->
  (Item.seq list -> Item.t Cursor.t) ->
  unit
(** Register a host function whose result is produced as a pull-based
    cursor. Streaming consumers (path steps, FLWOR, [xqse] iterate) pull
    it lazily; eager call sites materialize it via {!Xdm.Cursor.to_list}.
    [keyed] marks a relational table read that can select its rows by a
    text column (see {!Context.keyed_read}). *)

val register_doc : t -> string -> Node.t -> unit
(** Make a document available to [fn:doc]. *)

val register_collection : t -> string -> Node.t list -> unit
(** Make nodes available to [fn:collection]; the empty URI names the
    default collection. *)

type compiled

val compile : t -> string -> compiled
(** Parse a query (prolog + body), register its functions into a copy of
    the base registry, optimize, and (when {!plans} is on) closure-
    compile the body — all inside the [compile] span, so [run] measures
    pure execution. [queries.compiled] counts only successful compiles.
    @raise Parser.Syntax_error / Lexer.Lex_error on bad syntax,
    Xdm.Item.Error on static errors. *)

val compile_cached : t -> string -> compiled
(** {!compile} through the engine's plan cache: a fingerprint-valid
    entry for the same query text is returned without recompiling
    (bumping [plan.cache.hit] and skipping the [compile] span
    entirely); otherwise [plan.cache.miss] is bumped {e before}
    compiling, so failed compiles are misses that never become plans.
    Bypasses the cache when {!plans} is off. *)

type run_opts = {
  context_item : Item.t option;
  vars : (Qname.t * Item.seq) list;  (** external variable bindings *)
  trace : (string -> unit) option;
      (** where [fn:trace] output goes; [None] routes it into the
          engine's instrumentation sink as a note *)
}

val default_run_opts : run_opts
(** No context item, no variables, trace into the instrumentation sink.
    Build custom options as [{ default_run_opts with vars = ... }]. *)

val run : ?opts:run_opts -> compiled -> Item.seq
(** Evaluate a compiled query: global variable declarations are evaluated
    first (external ones must be supplied through [opts.vars]), then the
    body. *)

val declare_variables :
  plans:bool ->
  Eval.compiler ->
  ?missing:(Context.dynamic -> Qname.t -> Item.seq) ->
  Context.dynamic ->
  Ast.var_decl list ->
  Context.dynamic
(** Run module variable declarations in order, binding each for the ones
    after it, and install the final bindings as the context registry's
    globals. An initializer runs as a plan compiled by the compiler, or
    through the reference walker when [plans] is off; a declaration
    without one takes [missing]'s value (default: the binding already in
    the context, else [err:XPDY0002]). Every value is checked against
    the declared type. The engine's {!run} and the XQSE session's
    programs and library loads all bind their variables through it. *)

val eval_string : ?opts:run_opts -> t -> string -> Item.seq
(** [compile] + [run]. *)

val eval_to_string : ?opts:run_opts -> t -> string -> string
(** Evaluate and serialize the result sequence. *)
