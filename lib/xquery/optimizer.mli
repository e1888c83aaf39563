(** AST rewrite optimizer.

    Reproduces (at small scale) the ALDSP claim that the declarative
    fragments of an XQSE program keep their query optimizations
    (paper section IV, citing the VLDB'06 query-processing paper).

    Passes, applied to fixpoint (bounded):
    - constant folding of arithmetic, comparisons and [if] on literals;
    - inlining of [let] bindings: literals and aliases always, and —
      gated by the {!Purity} analysis — pure single-use computed values
      (unconditionally when the occurrence is a head position, under a
      size cap otherwise) plus removal of unused pure bindings;
    - elimination of [where true()] clauses and always-true conditions;
    - conversion of equi-join [where] clauses between two [for] clauses
      into a hash {!Ast.Join_clause};
    - pushdown of single-variable [where] predicates into the binding
      [for] expression as a filter predicate. Non-boolean conditions are
      wrapped in [fn:boolean] (a bare numeric predicate would be a
      positional test), focus-shifted occurrences are rebound through a
      fresh [let $v' := .], and a condition only jumps an earlier
      unpushable [where] when it is provably pure, total and
      boolean-valued;
    - unfolding of a filter over a call to a view function (body
      [for ... return <E>...</E>]) into the function's FLWOR with the
      filter as its last where, each atomized [./N] replaced by the
      view's [<N>...</N>] child constructor; callee bodies come from
      [env] ({!Purity.user_function}). Counted as a push.

    Each pass runs as its own bottom-up sweep, timed into the [instr]
    handle under [optimizer.fold] / [.normalize] / [.inline] / [.join] /
    [.push] (the unfold sweep included). *)

val optimize :
  ?log:(string -> unit) ->
  ?env:Purity.env ->
  ?instr:Instr.t ->
  Ast.expr ->
  Ast.expr
(** [log], when given, receives one line per individual rewrite (which
    pass fired and on what) and a per-iteration counter summary — the
    optimizer's "explain" output. [env] supplies function verdicts for
    the purity-gated rewrites (default: builtins only, every other call
    impure). [instr] receives the per-pass timers. *)

type stats = {
  folded : int;
  inlined : int;  (** trivial inlines: literals and aliases *)
  inlined_pure : int;
      (** purity-gated inlines (and drops) of computed lets *)
  joins : int;
  pushed : int;
  pushed_shifted : int;
      (** pushdowns that rebound a shifted focus through a fresh let *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats
val stats_to_string : stats -> string

val optimize_with_stats :
  ?log:(string -> unit) ->
  ?env:Purity.env ->
  ?instr:Instr.t ->
  Ast.expr ->
  Ast.expr * stats
