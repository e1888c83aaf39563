(** Purity/effect analysis over the XQuery AST.

    Computes, per expression, whether evaluation may have observable side
    effects, may raise a dynamic error, or creates fresh nodes — the
    three facts the optimizer needs before moving, duplicating, dropping
    or reordering an expression. See the implementation header for the
    full policy (builtin table, impure externals, fixpoint over user
    function bodies). *)

open Xdm

type verdict = {
  effects : bool;  (** may have an observable side effect *)
  fallible : bool;  (** may raise a dynamic error *)
  constructs : bool;
      (** creates new nodes — identity-observable, so the evaluation
          count must be preserved even for otherwise total expressions *)
}

val total : verdict
(** No effects, no errors, no construction: the bottom of the lattice. *)

val fallible : verdict
(** Pure and non-constructing, but may raise. *)

val impure : verdict
(** The top: assume everything. Used for unknown/external functions. *)

val join : verdict -> verdict -> verdict
(** Pointwise disjunction. *)

val builtin_verdict : Qname.t -> int -> verdict option
(** The effect table for [Builtins.register_all]: a verdict for every
    [fn:]/[xs:] builtin name and arity the standard registry installs,
    [None] for anything else. The purity test suite checks coverage
    against the registry itself. *)

val boolean_valued : Ast.expr -> bool
(** Is the expression's value — when it produces one — always a single
    [xs:boolean] or the empty sequence? (Then its EBV cannot raise and a
    filter predicate over it is never a positional test.) Conservative:
    [false] means "unknown". *)

type env
(** Verdicts for named functions, keyed by name and arity, and the
    declarations of the user functions among them. *)

val empty_env : env
(** Builtins only (via {!builtin_verdict}); any other call is impure. *)

val env_for : registry:Context.registry -> Ast.function_decl list -> env
(** Environment for the functions visible in [registry], {!extend}ed by
    the not-yet-registered [decls]: builtins from the table, externals
    impure unless registered with a verdict, user function bodies solved
    by fixpoint — but always fallible, since recursion depth is checked
    dynamically. *)

val extend : env -> Ast.function_decl list -> env
(** [extend base decls] adds [decls] to [base], solving the fixpoint
    over their bodies only: [base]'s verdicts stay as they are, and a
    decl replaces a [base] entry under the same name and arity. A
    session solves its registry once per generation and extends that
    environment by each program's declarations. Solving [base]'s bodies
    and [decls] together differs only where a [base] body calls a name
    [decls] define: [base] was solved without that decl (a name unknown
    then leaves its caller impure). *)

val add_verdict : env -> Qname.t -> int -> verdict -> env
(** [add_verdict env name arity v] classifies calls to [name]/[arity]
    as [v], the way {!env_for} reads an external registered with a
    verdict (an XQSE readonly procedure). The user functions of [env]
    keep their verdicts: {!extend} them again to let their bodies see
    [v]. *)

val lookup : env -> Qname.t -> int -> verdict option

val user_function : env -> Qname.t -> int -> Ast.function_decl option
(** The declaration behind a user function of {!env_for} or {!extend}:
    one of the [decls], else a [declare function] installed in the
    registry (whose body the install already optimized). [None] for
    builtins, externals and unknown names. *)

val analyze : env -> Ast.expr -> verdict

val is_pure : env -> Ast.expr -> bool
(** No effects (may still raise or construct). *)

val is_total : env -> Ast.expr -> bool
(** No effects and no errors (may still construct). *)
