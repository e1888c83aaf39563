(** The XQuery evaluator: a closure compiler, which production runs,
    and the eager tree walker it is tested against.

    Evaluation is pure except for calls to registered external functions
    (data-service reads) and the accumulation of update primitives from
    XUF expressions into the dynamic context's pending update list.

    {1 The reference walker}

    [eval], [call] and [eval_updating] walk the AST eagerly: every
    operand is evaluated in full before it is used. The session walks
    only with plans off, which is how the differential tests select the
    eager reference for the compiled streaming arms. Compiled plans use
    [call] only for callees their compiler's registry lacked: host
    functions and readonly procedures registered later, and, from a
    registry function's body, a function only the calling program
    declares (the session compiled that body before any program
    existed), whose body [call] then walks. *)

open Xdm

val eval : Context.dynamic -> Ast.expr -> Item.seq
(** Evaluate an expression.
    @raise Xdm.Item.Error for all dynamic and type errors. *)

val call : Context.dynamic -> Qname.t -> Item.seq list -> Item.seq
(** Call a function from the registry by name with evaluated arguments
    (applies parameter and return sequence-type checks for user
    functions).
    @raise Xdm.Item.Error [err:XPST0017] if unknown. *)

val eval_updating : Context.dynamic -> Ast.expr -> Update.t
(** Evaluate an expression as an updating expression: returns the pending
    update list it produced (the caller decides when to {!Update.apply}
    it).
    @raise Xdm.Item.Error [err:XUST0001]-style when the expression also
    returns a non-empty value. *)

(** {1 Closure compilation}

    Stage 2 of the two-stage pipeline: [compile] walks an expression
    once and produces a plan — a plain closure over the dynamic context
    — with constructor dispatch, registry lookups and purity/streaming
    gate verdicts hoisted out of the per-evaluation path. Running a plan
    is observably identical to {!eval} on the same context: same items,
    effects, errors and evaluation order; cursor schedules stop early
    only where no consumer can tell. Plans never call back into the
    walker.

    A compiler (and its plans) is valid for the registry and purity
    verdicts it was built with. A session builds one compiler per
    generation that holds every registry user function compiled, and
    layers each program's compiler on it ([~base]): the program
    compiles only its own code. *)

type plan = Context.dynamic -> Item.seq

type compiler

val compiler :
  ?base:compiler ->
  ?purity:(Ast.expr -> bool * bool * bool) ->
  Context.registry ->
  compiler
(** A compiler over a registry snapshot. [purity] is the compiled
    program's (effects, fallible, constructs) analysis — conservative
    [(true, true, true)] by default, which disables the streaming fast
    paths but stays correct. Sub-plans and compiled user-function bodies
    are memoized per compiler. A call that resolves to the very
    declaration (physical identity) [base] compiled runs [base]'s plan;
    any other function body compiles here. [base] is only read, so one
    base can serve compilers on several domains. *)

val compile_functions : compiler -> unit
(** Compile the body of every user function in the compiler's registry.
    Afterwards {!compile_call} on this compiler, and every compiler
    built with it as [~base] over a copy of that registry, finds each of
    them compiled and writes nothing here. *)

val verdict : compiler -> Ast.expr -> bool * bool * bool
(** The [(effects, fallible, constructs)] verdict the compiler gates its
    streaming arms on. *)

val compile : compiler -> Ast.expr -> plan

val compile_cur :
  compiler -> Ast.expr -> Context.dynamic -> Item.t Cursor.t
(** Cursor-producing variant of {!compile}: fully consuming the cursor
    yields exactly what the plan returns (same items, effects and
    errors, in the same order); consumers stopping early must use
    {!Xdm.Cursor.abandon}. Where no streaming arm applies, the plan's
    eager result is wrapped in a pure cursor. *)

val compile_updating : compiler -> Ast.expr -> Context.dynamic -> Update.t
(** The compiled form of {!eval_updating}, for the XQSE update
    statement. *)

val compile_call :
  compiler -> Qname.t -> int -> Context.dynamic -> Item.seq list -> Item.seq
(** [compile_call cc name arity] is {!call} with the callee resolved at
    compile time: a user function's body runs as a closure plan, behind
    the same result-cache routing; other callees fall back to {!call}.
    The argument list must have [arity] items. *)

(** {1 Shared scalar kernels}

    Single-source arithmetic/comparison rules over already-evaluated
    operands, exported for the XQSE interpreter's fast path for tiny
    statement expressions — all three paths (eager, compiled, XQSE) must
    agree exactly. *)

val arith_seq : Atomic.arith_op -> Item.seq -> Item.seq -> Item.seq
val value_cmp_seq : Ast.comp_op -> Item.seq -> Item.seq -> Item.seq
