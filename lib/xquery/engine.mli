(** The XQuery side of a session: what programs compile against.

    An engine owns a static context (namespaces) and a base function
    registry (builtins plus whatever external functions the host — e.g.
    the ALDSP dataspace — registers), the optimizer switch and an
    instrumentation handle ({!Instr.t}). It neither compiles nor runs
    programs: [Xqse.Session] is the one compile pipeline, for XQuery
    main modules and XQSE programs alike, and registers into the
    engine's static context and registry.

    Optimizer rewrites bump the [optimizer.*] counters on the handle
    (and emit one note per rewrite when it has a sink). *)

type t

val create : optimize:bool -> instr:Instr.t -> t
(** A fresh static context and standard registry. [optimize] runs the
    rewrite optimizer in {!optimize_expr}; [instr] receives its
    counters and rewrite notes. Both are fixed for the engine's
    lifetime. *)

val fork : optimize:bool -> instr:Instr.t -> t -> t
(** An independent engine seeded from an existing one: copies of its
    static context and registry, with the given flags. Registrations on
    either engine are invisible to the other — this is how a worker
    session gets its own engine over a shared dataspace's
    registrations. *)

val static : t -> Context.static
val registry : t -> Context.registry
val optimizing : t -> bool
val instr : t -> Instr.t

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
    in optimized and unoptimized sessions. *)

val purity_fn : Purity.env -> Ast.expr -> bool * bool * bool
(** [(effects, fallible, constructs)] verdict of an expression under a
    purity environment — the closure shape {!Eval.compiler} expects for
    its [?purity] argument. *)

val declare_variables :
  plans:bool ->
  Eval.compiler ->
  ?missing:(Context.dynamic -> Xdm.Qname.t -> Xdm.Item.seq) ->
  Context.dynamic ->
  Ast.var_decl list ->
  Context.dynamic
(** Run module variable declarations in order, binding each for the ones
    after it, and install the final bindings as the context registry's
    globals. An initializer runs as a plan compiled by the compiler, or
    through the reference walker when [plans] is off; a declaration
    without one takes [missing]'s value (default: the binding already in
    the context, else [err:XPDY0002]). Every value is checked against
    the declared type. The XQSE session's programs and library loads
    bind their variables through it. *)
