open Xdm

type stats = {
  folded : int;
  inlined : int;  (* trivial inlines: literals and aliases *)
  inlined_pure : int;  (* purity-gated inlines of computed lets *)
  joins : int;
  pushed : int;
  pushed_shifted : int;  (* pushdowns that needed a fresh focus binding *)
}

let zero_stats =
  {
    folded = 0;
    inlined = 0;
    inlined_pure = 0;
    joins = 0;
    pushed = 0;
    pushed_shifted = 0;
  }

let add_stats a b =
  {
    folded = a.folded + b.folded;
    inlined = a.inlined + b.inlined;
    inlined_pure = a.inlined_pure + b.inlined_pure;
    joins = a.joins + b.joins;
    pushed = a.pushed + b.pushed;
    pushed_shifted = a.pushed_shifted + b.pushed_shifted;
  }

let stats_to_string s =
  Printf.sprintf
    "folded=%d inlined=%d inlined_pure=%d joins=%d pushed=%d pushed_shifted=%d"
    s.folded s.inlined s.inlined_pure s.joins s.pushed s.pushed_shifted

(* A pass reports each rewrite through [note]: it bumps that pass's
   counter (the fixpoint driver keys off the counters) and appends a line
   to the rewrite log when one is attached. *)
type note = string Lazy.t -> unit

let brief e =
  let s = Pretty.expr e in
  if String.length s <= 60 then s else String.sub s 0 57 ^ "..."

(* ------------------------------------------------------------------ *)
(* Passes                                                               *)
(* ------------------------------------------------------------------ *)

let is_literal = function Ast.Literal _ -> true | _ -> false

let fold_constants (note : note) e =
  let open Ast in
  let try_arith op a b =
    try Some (Literal (Atomic.arith op a b)) with Atomic.Cast_error _ -> None
  in
  match e with
  | Arith (op, Literal a, Literal b) -> (
    match try_arith op a b with
    | Some e' ->
      note (lazy (Printf.sprintf "fold_constants: %s => %s" (brief e) (brief e')));
      e'
    | None -> e)
  | Neg (Literal a) -> (
    (* compute first: a non-numeric literal must keep its dynamic error *)
    match Atomic.negate a with
    | v ->
      note (lazy (Printf.sprintf "fold_constants: %s folded" (brief e)));
      Literal v
    | exception Atomic.Cast_error _ -> e)
  | Value_cmp (op, Literal a, Literal b) -> (
    (* incomparable literals (e.g. integer vs string) keep their dynamic
       type error instead of folding *)
    match Atomic.compare_values a b with
    | c ->
      note (lazy (Printf.sprintf "fold_constants: %s folded" (brief e)));
      let r =
        match op with
        | Eq -> c = 0
        | Ne -> c <> 0
        | Lt -> c < 0
        | Le -> c <= 0
        | Gt -> c > 0
        | Ge -> c >= 0
      in
      Literal (Atomic.Boolean r)
    | exception Atomic.Cast_error _ -> e)
  | If_expr (Literal (Atomic.Boolean true), t, _) ->
    note (lazy (Printf.sprintf "fold_constants: if true() => %s" (brief t)));
    t
  | If_expr (Literal (Atomic.Boolean false), _, f) ->
    note (lazy (Printf.sprintf "fold_constants: if false() => %s" (brief f)));
    f
  (* and/or: evaluation short-circuits on the first operand, so dropping
     the *second* operand after a literal first operand never skips an
     evaluation the unoptimized program would have performed. The kept
     operand still goes through fn:boolean — and/or return the EBV, not
     the operand value. *)
  | And (Literal (Atomic.Boolean true), b) ->
    note (lazy (Printf.sprintf "fold_constants: true() and _ => boolean(%s)" (brief b)));
    Call (Qname.fn "boolean", [ b ])
  | And (Literal (Atomic.Boolean false), _) ->
    note (lazy "fold_constants: false() and _ => false()");
    Literal (Atomic.Boolean false)
  | Or (Literal (Atomic.Boolean false), b) ->
    note (lazy (Printf.sprintf "fold_constants: false() or _ => boolean(%s)" (brief b)));
    Call (Qname.fn "boolean", [ b ])
  | Or (Literal (Atomic.Boolean true), _) ->
    note (lazy "fold_constants: true() or _ => true()");
    Literal (Atomic.Boolean true)
  | Call (q, [ arg ])
    when q.Qname.uri = Qname.fn_ns && q.Qname.local = "boolean" && is_literal arg
    -> (
    match arg with
    | Literal (Atomic.Boolean _) ->
      note (lazy "fold_constants: fn:boolean on boolean literal");
      arg
    | _ -> e)
  | e -> e

(* ---- cost model for purity-gated inlining ---- *)

(* AST node count: the duplication-cost estimate. *)
let rec size e = Ast.fold_subexprs (fun acc s -> acc + size s) 1 e

(* Refuse to inline a multi-node value into a position where it would be
   re-evaluated per tuple unless it is at most this many nodes. *)
let max_inline_size = 16

let is_total env e =
  let v = Purity.analyze env e in
  (not v.Purity.effects) && not v.Purity.fallible

(* Is the single free occurrence of [$v] in [e] the *first* thing
   evaluated when [e] is evaluated — exactly once, under the same focus,
   before any other subexpression that could raise, trace, or construct?
   Inlining a pure binding into such a position preserves the evaluation
   count, the focus, and the order in which errors surface, so even a
   fallible or node-constructing value may move there.

   For operators whose OCaml operand order is unspecified ([Arith],
   comparisons, [Range], node comparisons, set operators: eval.ml uses
   [let va = ... and vb = ...]), both operands are always evaluated
   exactly once, so the occurrence side qualifies whenever the *other*
   side is total — the reorder is then unobservable. [and]/[or]
   short-circuit left-to-right, so only the left operand is a head
   position there. *)
let rec head_position env v e =
  let open Ast in
  let other_total e = is_total env e in
  match e with
  | Var x -> Qname.equal x v
  | Arith (_, a, b)
  | Value_cmp (_, a, b)
  | General_cmp (_, a, b)
  | Range (a, b)
  | Node_is (a, b)
  | Node_before (a, b)
  | Node_after (a, b)
  | Union (a, b)
  | Intersect (a, b)
  | Except (a, b) ->
    (head_position env v a && other_total b)
    || (head_position env v b && other_total a)
  | And (a, _) | Or (a, _) -> head_position env v a
  | Seq_expr (a :: _) -> head_position env v a
  | If_expr (c, _, _) -> head_position env v c
  | Typeswitch (operand, _, _) -> head_position env v operand
  | Neg a
  | Instance_of (a, _)
  | Treat_as (a, _)
  | Castable_as (a, _, _)
  | Cast_as (a, _, _) ->
    head_position env v a
  | Path (a, _) -> head_position env v a
  | Filter (p, _) -> head_position env v p
  | Quantified (_, (_, _, src) :: _, _) -> head_position env v src
  (* like the binary operators: argument evaluation order is an
     implementation detail of eval.ml, so the first argument is a head
     position only when the other arguments are total and the reorder is
     unobservable *)
  | Call (_, a :: rest) ->
    head_position env v a && List.for_all other_total rest
  | Flwor ([], ret) -> head_position env v ret
  | Flwor (For_clause [] :: rest, ret) | Flwor (Let_clause [] :: rest, ret)
    ->
    head_position env v (Flwor (rest, ret))
  | Flwor (For_clause (b :: _) :: _, _) -> head_position env v b.for_expr
  | Flwor (Let_clause (b :: _) :: _, _) -> head_position env v b.let_expr
  | Flwor (Where_clause c :: _, _) -> head_position env v c
  | _ -> false

(* Inline let bindings. Three tiers, each preserving observable behavior:

   - trivial (literals and aliases): always inlined — re-evaluating a
     literal or variable lookup is free and cannot raise.
   - pure single-use values whose occurrence is a head position: inlined
     regardless of size or fallibility — the value is still evaluated
     exactly once, first, under the same focus.
   - pure *total* single-use values elsewhere: inlined when small enough
     (the occurrence may sit under a per-tuple loop, so this trades at
     most [max_inline_size] nodes of re-evaluation for the binding),
     non-constructing (a constructor must keep its evaluation count —
     node identity is observable), and not context-sensitive moving into
     a shifted focus.
   - pure total unused bindings are dropped outright.

   Effectful values, multi-use computed values and typed bindings (the
   declared type is checked dynamically) are always kept. The scope of a
   let binding is the remaining bindings of its clause, the remaining
   clauses and the return expression — exactly what [Binders.subst] sees
   when we hand it the tail FLWOR, so shadowing and capture are handled
   there. *)
let inline_lets ~env (note_trivial : note) (note_pure : note) e =
  let open Ast in
  match e with
  | Flwor (clauses, ret) ->
    let trivial b =
      match b.let_expr with
      | Literal _ | Var _ -> b.let_type = None
      | _ -> false
    in
    let action b scope =
      if b.let_type <> None then `Keep
      else
        let v = Purity.analyze env b.let_expr in
        if v.Purity.effects then `Keep
        else
          match Binders.count_free b.let_var scope with
          | 0 ->
            if (not v.Purity.fallible) && not v.Purity.constructs then `Drop
            else `Keep
          | 1 ->
            if head_position env b.let_var scope then `Inline
            else if
              (not v.Purity.fallible)
              && (not v.Purity.constructs)
              && size b.let_expr <= max_inline_size
              && not
                   (Binders.uses_context b.let_expr
                   && Binders.occurs_in_shifted_focus b.let_var scope)
            then `Inline
            else `Keep
          | _ -> `Keep
    in
    let rec go clauses ret =
      match clauses with
      | [] -> ([], ret)
      | Let_clause bs :: rest ->
        let rec go_bindings bs rest ret kept =
          match bs with
          | [] -> (
            let rest, ret = go rest ret in
            match List.rev kept with
            | [] -> (rest, ret)
            | ks -> (Let_clause ks :: rest, ret))
          | b :: bs when trivial b -> (
            note_trivial
              (lazy
                (Printf.sprintf "inline_lets: $%s := %s"
                   (Qname.to_string b.let_var) (brief b.let_expr)));
            match
              Binders.subst b.let_var b.let_expr
                (Flwor (Let_clause bs :: rest, ret))
            with
            | Flwor (Let_clause bs :: rest, ret) -> go_bindings bs rest ret kept
            | _ -> assert false)
          | b :: bs -> (
            match action b (Flwor (Let_clause bs :: rest, ret)) with
            | `Keep -> go_bindings bs rest ret (b :: kept)
            | `Drop ->
              note_pure
                (lazy
                  (Printf.sprintf "inline_lets: dropped unused pure $%s := %s"
                     (Qname.to_string b.let_var) (brief b.let_expr)));
              go_bindings bs rest ret kept
            | `Inline -> (
              note_pure
                (lazy
                  (Printf.sprintf "inline_lets: pure single-use $%s := %s"
                     (Qname.to_string b.let_var) (brief b.let_expr)));
              match
                Binders.subst b.let_var b.let_expr
                  (Flwor (Let_clause bs :: rest, ret))
              with
              | Flwor (Let_clause bs :: rest, ret) ->
                go_bindings bs rest ret kept
              | _ -> assert false))
        in
        go_bindings bs rest ret []
      | c :: rest ->
        let rest, ret = go rest ret in
        (c :: rest, ret)
    in
    let clauses', ret' = go clauses ret in
    if clauses' = [] then ret' else Flwor (clauses', ret')
  | e -> e

(* Split conjunctive wheres and drop trivially-true ones. *)
let normalize_wheres e =
  let open Ast in
  match e with
  | Flwor (clauses, ret) ->
    let rec split_where cond =
      match cond with
      | And (a, b) -> split_where a @ split_where b
      | c -> [ c ]
    in
    let clauses =
      List.concat_map
        (function
          | Where_clause (Literal (Atomic.Boolean true)) -> []
          | Where_clause (Call (q, []))
            when q.Qname.uri = Qname.fn_ns && q.Qname.local = "true" -> []
          | Where_clause cond ->
            List.map (fun c -> Where_clause c) (split_where cond)
          | c -> [ c ])
        clauses
    in
    Flwor (clauses, ret)
  | e -> e

(* Does [e] reference only the variable [v] (and no context / other free
   vars / positional functions)? *)
let key_over_var v e =
  (match Binders.free_vars e with
  | [ x ] -> Qname.equal x v
  | _ -> false)
  && not (Binders.uses_context e)

(* Detect equi-joins: for $a in E1 ... for $b in E2 ... where K1($a) eq
   K2($b) — rewrite the second for + where into a hash join clause.

   The rewrite moves the where's key expressions to the for's position:
   the probe key runs before the clauses that used to precede the where,
   and the build key binds the for variable at its original spot. Both
   moves are sound only if no intervening clause rebinds a key variable —
   [bound_between] tracks every binder introduced between the for and the
   where (for/let/join variables and positional variables) and the
   rewrite is refused when a key variable appears in it. *)
let detect_joins (note : note) e =
  let open Ast in
  match e with
  | Flwor (clauses, ret) ->
    (* variables bound before each position *)
    let rec scan prefix_rev bound = function
      | [] -> None
      | (For_clause [ b ] as c) :: rest when b.for_pos = None -> (
        (* look for a where equi-join on b.for_var in the remainder,
           with the other side bound earlier *)
        let rec find_where seen_rev bound_between = function
          | Where_clause cond :: rest2 -> (
            let sides =
              match cond with
              | Value_cmp (Eq, l, r) | General_cmp (Eq, l, r) -> Some (l, r)
              | _ -> None
            in
            match sides with
            | Some (l, r) ->
              let rebound x = List.exists (Qname.equal x) bound_between in
              let try_match build probe =
                key_over_var b.for_var build
                (* the where's reference must still mean the join's for
                   variable: refuse if an intervening clause rebound it *)
                && (not (rebound b.for_var))
                && (match Binders.free_vars probe with
                   | [ x ] ->
                     (not (Qname.equal x b.for_var))
                     && List.exists (Qname.equal x) bound
                     && not (rebound x)
                   | _ -> false)
                && (not (Binders.uses_context probe))
                (* the joined source must not depend on outer vars *)
                && Binders.free_vars b.for_expr = []
              in
              let result =
                if try_match l r then Some (l, r)
                else if try_match r l then Some (r, l)
                else None
              in
              (match result with
              | Some (build, probe) ->
                note
                  (lazy
                    (Printf.sprintf "detect_joins: $%s keyed on %s = %s"
                       (Qname.to_string b.for_var) (brief build) (brief probe)));
                let join =
                  Join_clause
                    {
                      join_var = b.for_var;
                      join_type = b.for_type;
                      join_source = b.for_expr;
                      join_build_key = build;
                      join_probe_key = probe;
                    }
                in
                Some
                  (List.rev prefix_rev
                  @ [ join ]
                  @ List.rev seen_rev
                  @ rest2)
              | None ->
                find_where (Where_clause cond :: seen_rev) bound_between rest2)
            | None ->
              find_where (Where_clause cond :: seen_rev) bound_between rest2)
          | (For_clause bs as c2) :: rest2 ->
            let vars =
              List.concat_map
                (fun b ->
                  b.for_var :: (match b.for_pos with Some p -> [ p ] | None -> []))
                bs
            in
            find_where (c2 :: seen_rev) (vars @ bound_between) rest2
          | (Let_clause bs as c2) :: rest2 ->
            find_where (c2 :: seen_rev)
              (List.map (fun b -> b.let_var) bs @ bound_between)
              rest2
          | (Join_clause j as c2) :: rest2 ->
            find_where (c2 :: seen_rev) (j.join_var :: bound_between) rest2
          | c2 :: rest2 -> find_where (c2 :: seen_rev) bound_between rest2
          | [] -> None
        in
        match find_where [] [] rest with
        | Some new_clauses -> Some new_clauses
        | None ->
          scan (c :: prefix_rev) (b.for_var :: bound) rest)
      | (For_clause bs as c) :: rest ->
        scan (c :: prefix_rev) (List.map (fun b -> b.for_var) bs @ bound) rest
      | (Let_clause bs as c) :: rest ->
        scan (c :: prefix_rev) (List.map (fun b -> b.let_var) bs @ bound) rest
      | (Join_clause j as c) :: rest ->
        scan (c :: prefix_rev) (j.join_var :: bound) rest
      | c :: rest -> scan (c :: prefix_rev) bound rest
    in
    (match scan [] [] clauses with
    | Some clauses' -> Flwor (clauses', ret)
    | None -> e)
  | e -> e

(* Push wheres into the binding for-expression as predicates. A where
   qualifies when it names the for variable and otherwise only
   variables bound outside the FLWOR (a correlated where, like Figure
   3's [$CUSTOMER/CID eq $CREDIT_CARD/CID] inside the customer loop):
   no clause of this FLWOR rebinds those, so they mean the same thing
   at the for-expression as at the where. A where naming a variable
   bound by another clause of the same FLWOR stays put for
   [detect_joins]. Soundness gates, each matching a once-latent
   divergence:

   - A [where] tests the effective boolean value of its condition, but a
     filter predicate with a *numeric* singleton value is a positional
     test. Unless the condition is provably boolean-valued, the pushed
     predicate is wrapped in fn:boolean to keep EBV semantics.
   - A condition pushed past an earlier, unpushable [where] reorders two
     filters, and both directions must be unobservable. The condition
     runs on tuples that where had filtered out, so it must be pure and
     total (it can neither raise on the extra tuples nor trace them)
     *and* boolean-valued (its EBV inside the predicate cannot raise
     either). Dually, the jumped where now runs on *fewer* tuples — the
     ones the pushed predicate rejects — so it too must be pure, total
     and boolean-valued, or a raise/trace it would have performed on
     those tuples silently disappears (e.g. `where 1 idiv $y ge 1`
     jumped by a pushable `empty($x)` would lose its FOAR0001).
   - A condition in which the for-variable occurs under a shifted focus
     (a predicate, a path tail) cannot have [Context_item] substituted
     directly — the occurrence would rebind to the inner focus. Instead
     the outer focus is captured in a fresh let binding
     ([let $v_1 := .]) and the variable is substituted with that.

   All consecutive wheres after the for are examined, so a partially
   pushable run is partially pushed — and logged per predicate, not per
   clause. Pushed predicates keep their original order, so a later
   predicate still only sees items the earlier ones accepted. *)
let pushdown_predicates ~env (note_plain : note) (note_shifted : note) e =
  let open Ast in
  match e with
  | Flwor (clauses, ret) ->
    let flwor_vars =
      List.concat_map
        (function
          | For_clause bs ->
            List.concat_map (fun b -> b.for_var :: Option.to_list b.for_pos) bs
          | Let_clause bs -> List.map (fun b -> b.let_var) bs
          | Join_clause j -> [ j.join_var ]
          | Where_clause _ | Order_clause _ -> [])
        clauses
    in
    let rec go = function
      | (For_clause [ b ] as c) :: rest when b.for_pos = None -> (
        (* the variables besides the for variable a pushable condition
           names, all bound outside the FLWOR; [None] when it is not
           pushable *)
        let outer_vars cond =
          let fv = Binders.free_vars cond in
          let outer = List.filter (fun x -> not (Qname.equal x b.for_var)) fv in
          let bound_here x = List.exists (Qname.equal x) flwor_vars in
          if
            List.exists (Qname.equal b.for_var) fv
            && (not (Binders.uses_context cond))
            && not (List.exists bound_here outer)
          then Some outer
          else None
        in
        (* can a where with this condition be evaluated on more or fewer
           tuples without anyone noticing? *)
        let reorderable w = Purity.boolean_valued w && is_total env w in
        (* [kept_jumpable]: every where kept so far is itself
           reorderable, so a later pushable condition may jump them *)
        let rec collect preds_rev kept_rev kept_jumpable = function
          | Where_clause cond :: rest2
            when outer_vars cond <> None
                 && (kept_rev = [] || (kept_jumpable && reorderable cond)) ->
            let shifted =
              Binders.occurs_in_shifted_focus b.for_var cond
            in
            let pred =
              if not shifted then Binders.subst b.for_var Context_item cond
              else begin
                let avoid =
                  Binders.Vset.add b.for_var (Binders.all_vars cond)
                in
                let v' = Binders.fresh ~avoid b.for_var in
                Flwor
                  ( [
                      Let_clause
                        [
                          {
                            let_var = v';
                            let_type = None;
                            let_expr = Context_item;
                          };
                        ];
                    ],
                    Binders.subst b.for_var (Var v') cond )
              end
            in
            let pred =
              if Purity.boolean_valued cond then pred
              else Call (Qname.fn "boolean", [ pred ])
            in
            (* a correlated push names the outer variables it keeps *)
            let outer () =
              match outer_vars cond with
              | Some (_ :: _ as vs) ->
                Printf.sprintf " (outer %s)"
                  (String.concat ", "
                     (List.map (fun q -> "$" ^ Qname.to_string q) vs))
              | _ -> ""
            in
            (if shifted then
               note_shifted
                 (lazy
                   (Printf.sprintf
                      "pushdown_predicates: $%s where %s (shifted focus, \
                       fresh binding)%s"
                      (Qname.to_string b.for_var) (brief cond) (outer ())))
             else
               note_plain
                 (lazy
                   (Printf.sprintf "pushdown_predicates: $%s where %s%s"
                      (Qname.to_string b.for_var) (brief cond) (outer ()))));
            collect (pred :: preds_rev) kept_rev kept_jumpable rest2
          | (Where_clause w as c2) :: rest2 ->
            collect preds_rev (c2 :: kept_rev)
              (kept_jumpable && reorderable w)
              rest2
          | rest2 -> (List.rev preds_rev, List.rev_append kept_rev rest2)
        in
        match collect [] [] true rest with
        | [], _ -> c :: go rest
        | preds, rest' ->
          let b' = { b with for_expr = Filter (b.for_expr, preds) } in
          For_clause [ b' ] :: go rest')
      | c :: rest -> c :: go rest
      | [] -> []
    in
    Flwor (go clauses, ret)
  | e -> e

(* ------------------------------------------------------------------ *)

let optimize_with_stats ?log ?(env = Purity.empty_env)
    ?(instr = Instr.disabled) e =
  let folded = ref 0
  and inlined = ref 0
  and inlined_pure = ref 0
  and joins = ref 0
  and pushed = ref 0
  and pushed_shifted = ref 0 in
  let note counter msg =
    incr counter;
    match log with None -> () | Some f -> f (Lazy.force msg)
  in
  let counts () =
    (!folded, !inlined, !inlined_pure, !joins, !pushed, !pushed_shifted)
  in
  (* one timed bottom-up sweep of the whole tree per pass, so the stats
     table attributes optimizer time per pass ([time.optimizer.<pass>.ms]
     rows) rather than folding it into the compile span *)
  let sweep timer_name passfn e =
    Instr.time instr timer_name (fun () ->
        let rec go e = passfn (Ast.map_subexprs go e) in
        go e)
  in
  let iteration = ref 0 in
  let pass e =
    e
    |> sweep Instr.K.t_optimizer_fold (fold_constants (note folded))
    |> sweep Instr.K.t_optimizer_normalize normalize_wheres
    |> sweep Instr.K.t_optimizer_inline
         (inline_lets ~env (note inlined) (note inlined_pure))
    |> sweep Instr.K.t_optimizer_join (detect_joins (note joins))
    |> sweep Instr.K.t_optimizer_push
         (pushdown_predicates ~env (note pushed) (note pushed_shifted))
  in
  let stats_now () =
    {
      folded = !folded;
      inlined = !inlined;
      inlined_pure = !inlined_pure;
      joins = !joins;
      pushed = !pushed;
      pushed_shifted = !pushed_shifted;
    }
  in
  let rec fix n e =
    if n = 0 then e
    else
      let before = counts () in
      incr iteration;
      let e' = pass e in
      if counts () = before then e'
      else begin
        (match log with
        | None -> ()
        | Some f ->
          f
            (Printf.sprintf "pass %d: %s" !iteration
               (stats_to_string (stats_now ()))));
        fix (n - 1) e'
      end
  in
  let e' = fix 4 e in
  (e', stats_now ())

let optimize ?log ?env ?instr e =
  fst (optimize_with_stats ?log ?env ?instr e)

let optimize_decl ?log ?env ?instr (d : Ast.function_decl) =
  match d.Ast.fd_body with
  | None -> d
  | Some body -> { d with Ast.fd_body = Some (optimize ?log ?env ?instr body) }
