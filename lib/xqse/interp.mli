(** The XQSE interpreter: statement execution per the paper's extended
    processing model (section III.B.1).

    Statements execute in order; side effects (external procedure calls,
    applied pending-update lists, variable assignments) are visible to
    every subsequent statement and expression. Expressions are evaluated
    by the unmodified XQuery evaluator over a read-only snapshot of the
    variables in scope.

    Blocks run as compiled statement plans whose expressions (update
    statements included) are closure-compiled plans
    ({!Xquery.Eval.compile}), and [iterate] pulls its binding sequence
    through the compiled cursor pipeline where the purity gates allow.
    With {!plans} off they run through the statement walker instead,
    which evaluates expressions through the eager reference walker
    {!Xquery.Eval.eval} and drives [iterate] over its fully evaluated
    binding sequence: the eager reference the differential tests
    compare the compiled (streaming) plans against. *)

open Xdm

type procedure = {
  p_name : Qname.t;
  p_params : (Qname.t * Seqtype.t option) list;
  p_return : Seqtype.t option;
  p_readonly : bool;
  p_impl : impl;
}

and impl =
  | P_block of Stmt.block
  | P_external of (Item.seq list -> Item.seq)
      (** host procedure — the ALDSP-provided create/update/delete, etc. *)

type runtime
(** Shared execution environment: the function registry, the procedure
    table, the instrumentation handle and the trace sink. *)

val create_runtime :
  ?trace:(string -> unit) ->
  ?parent:runtime ->
  instr:Instr.t ->
  plans:bool ->
  Xquery.Context.registry ->
  runtime
(** A runtime over a registry, its {!plans} flag fixed for its
    lifetime. Every executed statement bumps the [xqse.statements]
    counter on [instr]. [parent] makes another runtime's procedures,
    result-cache view, documents and collections visible (used to layer
    a per-program runtime over a session runtime). Its compiler is
    conservative until {!set_compiler}. *)

val fork_runtime :
  ?trace:(string -> unit) ->
  instr:Instr.t ->
  plans:bool ->
  runtime ->
  Xquery.Context.registry ->
  runtime
(** [fork_runtime src reg] is a fresh parentless runtime over [reg] with
    the given [plans] flag, carrying every procedure visible from [src]
    (innermost declaration wins) and copies of its documents and
    collections, but none of its mutable state — a worker can execute
    against the fork while the source keeps serving. Its compiler is
    conservative until {!set_compiler}: the forked session installs
    its own.
    [reg] should be a copy of [src]'s registry: readonly procedures get
    their function entry re-registered in it so the closure captures the
    fork (the copied entry would otherwise call back into [src]). *)

val registry : runtime -> Xquery.Context.registry
val set_trace : runtime -> (string -> unit) -> unit
val instr : runtime -> Instr.t

val plans : runtime -> bool
(** Whether blocks and procedures execute through compiled statement
    plans (closures built once per block, expressions closure-compiled
    through {!Xquery.Eval.compile}) instead of the eager reference
    walkers. Results, effects and errors are identical either way — the
    differential tests compare the two. *)

val register_doc : runtime -> string -> Node.t -> unit
(** Make a document available to [fn:doc] in every evaluation under the
    runtime, replacing an earlier one at the same URI. *)

val register_collection : runtime -> string -> Node.t list -> unit
(** Make nodes available to [fn:collection]; the empty URI names the
    default collection. *)

val context : runtime -> Xquery.Context.dynamic
(** A fresh dynamic context over the runtime's registry, with its trace,
    instrumentation, result-cache view, documents and collections: the
    context every evaluation under the runtime starts from. *)

val invalidate_plans : runtime -> unit
(** Drop every compiled plan held by this runtime (the expression
    compiler and all compiled procedure bodies). Must be called after
    anything is registered into the runtime's registry from outside, so
    stale name resolutions can never be replayed. *)

val compiler : runtime -> Xquery.Eval.compiler
(** The runtime's expression compiler, built on first use by the
    function {!set_compiler} installed. Statement blocks and procedure
    bodies compile their expressions through it, and gate [iterate]'s
    streaming schedule on its verdicts; the session compiles query-body
    expressions through it too, so they share compiled user-function
    plans with statement blocks. *)

val set_compiler : runtime -> (unit -> Xquery.Eval.compiler) -> unit
(** Install how {!compiler} is built (and drop the compiled plans). The
    session's own runtime builds a compiler layered on the session's
    compilation unit, with the unit's verdicts, anew after each
    {!invalidate_plans}; a program's runtime gets the program's
    compiler. Defaults to a compiler over the runtime's registry with
    all-[true] (fully conservative) verdicts. *)

val set_cache : runtime -> (unit -> Cache.bound option) -> unit
(** Install the result-cache view supplier threaded into every
    evaluation context. A supplier (re-invoked per context) rather than
    a value so keys always carry the session's current fingerprint.
    Defaults to the parent's, or [fun () -> None]; {!fork_runtime}
    resets it — the forked session installs its own. *)

val declare_procedure : runtime -> procedure -> unit
(** Add a procedure. Readonly procedures are additionally registered as
    functions in the registry so XQuery expressions can call them (paper
    section III.A).
    @raise Xdm.Item.Error [err:XQST0034] on duplicates. *)

val find_procedure : runtime -> Qname.t -> int -> procedure option

val call_procedure : runtime -> Qname.t -> Item.seq list -> Item.seq
(** Execute a procedure with evaluated arguments; the result is the value
    of its [return value] statement, or the empty sequence. *)

val exec_block :
  runtime -> ?vars:(Qname.t * Item.seq) list -> Stmt.block -> Item.seq
(** Execute a block as a query body: the result is the value of the
    [return value] statement that stops execution, or the empty
    sequence (paper III.B.5). [vars] are external read-only bindings.
    Dispatches on {!plans}: compiled blocks are memoized per runtime, so
    re-executing the same block skips compilation. *)

type cblock
(** A statement block compiled to closures, ready to run. Valid for the
    runtime it was compiled under, until that runtime's registry or
    compiler changes (see {!invalidate_plans}). *)

val compile_block : runtime -> Stmt.block -> cblock

val run_block :
  runtime -> ?vars:(Qname.t * Item.seq) list -> cblock -> Item.seq
(** Run a compiled block as a query body — same contract as
    {!exec_block}, minus the compile. The session caches the [cblock]
    in its plan cache and forces it inside the [compile] span. *)

exception Break_outside_loop
exception Continue_outside_loop
