(** The XQuery evaluator.

    [eval] is pure except for calls to registered external functions
    (data-service reads) and the accumulation of update primitives from
    XUF expressions into the dynamic context's pending update list. *)

open Xdm

val eval : Context.dynamic -> Ast.expr -> Item.seq
(** Evaluate an expression.
    @raise Xdm.Item.Error for all dynamic and type errors. *)

val eval_cur : Context.dynamic -> Ast.expr -> Item.t Cursor.t
(** Evaluate an expression as a pull-based cursor. Fully consuming the
    cursor yields exactly what {!eval} returns (same items, effects and
    errors, in the same order); consumers stopping early must use
    {!Xdm.Cursor.abandon}. When the context is not streaming (or no
    streaming arm applies) this degenerates to eager evaluation wrapped
    in a pure cursor. *)

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
    effects, errors, instrumentation counters and evaluation order.

    A compiler (and its plans) is valid for a fixed registry and purity
    environment; Engine/Session key their plan caches on exactly that
    pair (plus the flags) and recompile after any registration. The
    [streaming] flag is read from the context at run time, so one plan
    serves both modes. *)

type plan = Context.dynamic -> Item.seq

type compiler

val compiler :
  ?purity:(Ast.expr -> bool * bool * bool) -> Context.registry -> compiler
(** A compilation unit over a registry snapshot. [purity] is the
    compiled program's (effects, fallible, constructs) analysis —
    conservative [(true, true, true)] by default, which disables the
    streaming fast paths but stays correct. Sub-plans and compiled
    user-function bodies are memoized per compiler, so compiling many
    queries against one registry shares function plans. *)

val compile : compiler -> Ast.expr -> plan

val compile_cur :
  compiler -> Ast.expr -> Context.dynamic -> Item.t Cursor.t
(** Cursor-producing variant of {!compile}, mirroring {!eval_cur}. *)

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
