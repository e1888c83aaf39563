(* Deterministic generator of well-formed XQuery programs for
   differential testing of the rewrite optimizer (optimized and
   unoptimized evaluation must agree item-for-item).

   The grammar is deliberately skewed toward the optimizer's attack
   surface: FLWOR nests, [let] bindings to literals and variable aliases
   (the inlining pass), single- and two-variable [where] clauses (the
   pushdown and join passes), typeswitch expressions (whose case
   variables are binding sites substitution must respect), equi-join
   shaped for/for/where programs (so [detect_joins] fires on generated
   input), quantified expressions, and a *tiny* variable pool so that
   shadowing — and therefore variable capture — is frequent. Every
   expression is integer-valued, so generated programs never raise type
   errors and results compare exactly. *)

(* the whole point: few names => frequent rebinding *)
let pool = [ "x"; "y"; "z" ]

(* scope entries: variable name and whether it is known to be a single
   integer ([`Atom], usable as an arithmetic/comparison operand) or an
   arbitrary-length integer sequence ([`Seq]) *)
type entry = string * [ `Atom | `Seq ]

let rand_int t lo hi = lo + Det.int t (hi - lo + 1)

let atoms_of scope = List.filter (fun (_, k) -> k = `Atom) scope
let seqs_of scope = List.filter (fun (_, k) -> k = `Seq) scope

(* A single integer. *)
let rec atom t depth (scope : entry list) =
  let avs = atoms_of scope in
  let choices =
    [ `Lit; `Lit ]
    @ (if avs <> [] then [ `Var; `Var; `Var ] else [])
    @ (if depth > 0 then
         [ `Arith; `Arith; `If; `Count; `Let; `Switch; `LetUse; `Copy ]
       else [])
  in
  match Det.pick t choices with
  | `Lit -> string_of_int (rand_int t 0 9)
  | `Var -> "$" ^ fst (Det.pick t avs)
  | `LetUse -> let_use t depth scope
  | `Copy -> transform t depth scope
  | `Switch ->
    (* integer-valued in every branch; the case variables are binding
       sites, so typeswitch participates in the capture-avoidance
       differential coverage *)
    let v = Det.pick t pool in
    Printf.sprintf
      "(typeswitch ((%s)) case $%s as xs:integer return %s case $%s as \
       xs:integer+ return count($%s) default return %s)"
      (seq t (depth - 1) scope)
      v
      (atom t (depth - 1) ((v, `Atom) :: scope))
      v v
      (atom t (depth - 1) scope)
  | `Arith ->
    let op = Det.pick t [ "+"; "-"; "*" ] in
    Printf.sprintf "(%s %s %s)" (atom t (depth - 1) scope) op
      (atom t (depth - 1) scope)
  | `If ->
    Printf.sprintf "(if (%s) then %s else %s)"
      (cond t (depth - 1) scope)
      (atom t (depth - 1) scope)
      (atom t (depth - 1) scope)
  | `Count -> Printf.sprintf "count((%s))" (seq t (depth - 1) scope)
  | `Let ->
    let v = Det.pick t pool in
    Printf.sprintf "(let $%s := %s return %s)" v
      (atom t (depth - 1) scope)
      (atom t (depth - 1) ((v, `Atom) :: scope))

(* A single-use computed [let]: the value is genuinely computed (not a
   literal or alias, so only the purity-gated cost-based inliner can
   touch it) and the body uses the variable exactly once, in a head
   position, so the inliner fires without a size cap. The non-variable
   parts of the body are generated against a scope with the bound name
   removed, which is what guarantees the single use. *)
and let_use t depth scope =
  let v = Det.pick t pool in
  let scope' = List.filter (fun (n, _) -> n <> v) scope in
  let value = Printf.sprintf "count((%s))" (seq t (depth - 1) scope) in
  let use =
    match Det.int t 3 with
    | 0 -> Printf.sprintf "($%s + %d)" v (rand_int t 0 9)
    | 1 ->
      Printf.sprintf "(if ($%s ge %d) then %s else %s)" v (rand_int t 1 5)
        (atom t (depth - 1) scope')
        (atom t (depth - 1) scope')
    | _ ->
      let w = Det.pick t (List.filter (fun p -> p <> v) pool) in
      Printf.sprintf "count((for $%s in (1 to ($%s mod 3)) return %s))" w v
        (seq t (depth - 1) ((w, `Atom) :: scope'))
  in
  Printf.sprintf "(let $%s := %s return %s)" v value use

(* A transform (copy/modify/return) expression, integer-valued overall so
   it slots in anywhere an atom does. Exercises the update-expression AST
   nodes the purity analysis must keep the optimizer away from: a
   transform constructs fresh nodes, so a [let] bound to one must never
   be inlined into a multi-evaluation position or dropped. The copy
   variable is bound to a node, so post-copy operands come from a scope
   with that name removed. *)
and transform t depth scope =
  let c = Det.pick t pool in
  let scope' = List.filter (fun (n, _) -> n <> c) scope in
  if Det.int t 2 = 0 then
    Printf.sprintf
      "(copy $%s := <w><v>{%s}</v></w> modify replace value of node $%s/v \
       with %s return xs:integer($%s/v))"
      c
      (atom t (depth - 1) scope)
      c
      (atom t (depth - 1) scope')
      c
  else
    Printf.sprintf
      "(copy $%s := <w/> modify insert node <v>{%s}</v> into $%s return \
       (count($%s/v) + %s))"
      c
      (atom t (depth - 1) scope')
      c c
      (atom t (depth - 1) scope')

(* A boolean, used only in where/if/satisfies position. *)
and cond t depth scope =
  let choices =
    [ `Cmp; `Cmp; `Cmp ]
    @ (if depth > 0 then [ `And; `Or; `Quant ] else [ `Bool ])
  in
  match Det.pick t choices with
  | `Bool -> Det.pick t [ "true()"; "false()" ]
  | `Cmp ->
    let op = Det.pick t [ "eq"; "ne"; "lt"; "le"; "gt"; "ge" ] in
    Printf.sprintf "%s %s %s" (atom t depth scope) op (atom t depth scope)
  | `And ->
    Printf.sprintf "(%s) and (%s)"
      (cond t (depth - 1) scope)
      (cond t (depth - 1) scope)
  | `Or ->
    Printf.sprintf "(%s) or (%s)"
      (cond t (depth - 1) scope)
      (cond t (depth - 1) scope)
  | `Quant ->
    let q = Det.pick t [ "some"; "every" ] in
    let v = Det.pick t pool in
    Printf.sprintf "(%s $%s in (%s) satisfies %s)" q v
      (seq t (depth - 1) scope)
      (cond t (depth - 1) ((v, `Atom) :: scope))

(* A sequence of integers (possibly empty, possibly one). *)
and seq t depth scope =
  let svs = seqs_of scope in
  let choices =
    [ `Atom; `Atom; `Range ]
    @ (if svs <> [] then [ `Var ] else [])
    @ (if depth > 0 then [ `Pair; `Flwor; `Flwor; `Subseq ] else [])
  in
  match Det.pick t choices with
  | `Atom -> atom t depth scope
  | `Var -> "$" ^ fst (Det.pick t svs)
  | `Range ->
    (* literal bounds keep generated sequences small *)
    let lo = rand_int t 0 5 in
    Printf.sprintf "(%d to %d)" lo (lo + rand_int t 0 4)
  | `Pair ->
    Printf.sprintf "(%s, %s)" (seq t (depth - 1) scope) (seq t (depth - 1) scope)
  | `Flwor -> "(" ^ flwor t (depth - 1) scope ^ ")"
  | `Subseq -> subseq t depth scope

(* fn:subsequence over a generated source, with the start/length drawn
   from the coercion corners of the F&O window rule: fractional values
   (rounding is half toward +INF, so negative halves matter), zero and
   negative starts, NaN and the infinities (every comparison false /
   [-INF + INF] a NaN bound), and doubles far outside the int range
   (position arithmetic must stay in xs:double — converting to int
   would wrap). The streaming schedule and the eager builtin must keep
   the same window on all of them; integer-valued as required, since
   only the surviving source items appear. *)
and subseq t depth scope =
  let bound () =
    match Det.int t 8 with
    | 0 -> string_of_int (rand_int t (-3) 6)
    | 1 -> Printf.sprintf "%d.5" (rand_int t (-2) 4)
    | 2 -> Printf.sprintf "%d.25" (rand_int t (-2) 4)
    | 3 -> "xs:double('NaN')"
    | 4 -> Det.pick t [ "xs:double('INF')"; "-xs:double('INF')" ]
    | 5 -> Det.pick t [ "1e18"; "-1e18" ]
    | _ -> atom t (depth - 1) scope
  in
  if Det.int t 2 = 0 then
    Printf.sprintf "subsequence((%s), %s)" (seq t (depth - 1) scope) (bound ())
  else
    Printf.sprintf "subsequence((%s), %s, %s)"
      (seq t (depth - 1) scope)
      (bound ()) (bound ())

(* A FLWOR, following the XQuery 1.0 grammar: 1-3 for/let clauses, then
   an optional single where, an optional order by, and the return. When
   depth remains, one time in four it is join-shaped, one time in four
   shifted-where-shaped and one time in eight correlated instead. *)
and flwor t depth scope =
  if depth > 0 then
    match Det.int t 8 with
    | 0 | 1 -> join_flwor t depth scope
    | 2 | 3 -> shifted_flwor t depth scope
    | 4 -> correlated_flwor t depth scope
    | _ -> general_flwor t depth scope
  else general_flwor t depth scope

(* The shape the correlated pushdown handles (Figure 3's credit-card
   loop): an inner FLWOR whose where names its own for variable and a
   for variable of the enclosing FLWOR, so the condition moves into the
   inner source as a predicate over the outer binding. *)
and correlated_flwor t depth scope =
  let a = Det.pick t pool in
  let b = Det.pick t (List.filter (fun v -> v <> a) pool) in
  let op = Det.pick t [ "eq"; "ne"; "lt"; "le"; "gt"; "ge" ] in
  let outer = (a, `Atom) :: scope in
  let key =
    match Det.int t 3 with
    | 0 -> "$" ^ a
    | 1 -> Printf.sprintf "($%s + %d)" a (rand_int t 0 3)
    | _ -> Printf.sprintf "($%s mod %d)" a (rand_int t 2 4)
  in
  Printf.sprintf "for $%s in (%s) return (for $%s in (%s) where $%s %s %s return %s)"
    a
    (seq t (depth - 1) scope)
    b
    (seq t (depth - 1) outer)
    b op key
    (seq t (depth - 1) ((b, `Atom) :: outer))

(* The shape the focus-shift pushdown handles: a single-variable [where]
   whose variable occurs inside a nested filter predicate (a shifted
   focus), so the pushdown must rebind the for variable through a fresh
   [let $v' := .] instead of bailing. The filtered source is generated
   against an empty scope so the condition's only free variable is the
   for variable. *)
and shifted_flwor t depth scope =
  let v = Det.pick t pool in
  let op = Det.pick t [ "eq"; "ne"; "lt"; "le"; "gt"; "ge" ] in
  Printf.sprintf "for $%s in (%s) where count((%s)[. le $%s]) %s %d return %s"
    v
    (seq t (depth - 1) scope)
    (seq t (depth - 1) [])
    v op (rand_int t 0 3)
    (seq t (depth - 1) ((v, `Atom) :: scope))

(* The exact shape [detect_joins] rewrites into a hash Join_clause: two
   single-variable for clauses, the second over a source with no free
   variables, and a where that is a bare [$a eq $b] comparison. *)
and join_flwor t depth scope =
  let a = Det.pick t pool in
  let b = Det.pick t (List.filter (fun v -> v <> a) pool) in
  let scope' = (b, `Atom) :: (a, `Atom) :: scope in
  Printf.sprintf "for $%s in (%s) for $%s in (%s) where $%s eq $%s return %s"
    a
    (seq t (depth - 1) scope)
    b
    (seq t (depth - 1) [])
    a b
    (seq t (depth - 1) scope')

and general_flwor t depth scope =
  let b = Buffer.create 64 in
  let n_clauses = 1 + Det.int t 3 in
  let rec clauses i scope =
    if i >= n_clauses then scope
    else begin
      match Det.pick t [ `For; `For; `Let; `Let ] with
      | `For ->
        let v = Det.pick t pool in
        let posv =
          if Det.int t 4 = 0 then
            match List.filter (fun p -> p <> v) pool with
            | [] -> None
            | ps -> Some (Det.pick t ps)
          else None
        in
        Buffer.add_string b
          (Printf.sprintf "for $%s%s in (%s) " v
             (match posv with Some p -> " at $" ^ p | None -> "")
             (seq t (depth - 1) scope));
        let scope = (v, `Atom) :: scope in
        let scope =
          match posv with Some p -> (p, `Atom) :: scope | None -> scope
        in
        clauses (i + 1) scope
      | `Let ->
        let v = Det.pick t pool in
        let value =
          (* skew toward the inliner's triggers: literals and aliases *)
          match Det.pick t [ `Lit; `Alias; `Alias; `Expr; `SeqExpr ] with
          | `Lit -> (string_of_int (rand_int t 0 9), `Atom)
          | `Alias -> (
            match scope with
            | [] -> (string_of_int (rand_int t 0 9), `Atom)
            | _ ->
              let v', k = Det.pick t scope in
              ("$" ^ v', k))
          | `Expr -> (atom t (depth - 1) scope, `Atom)
          | `SeqExpr -> ("(" ^ seq t (depth - 1) scope ^ ")", `Seq)
        in
        Buffer.add_string b
          (Printf.sprintf "let $%s := %s " v (fst value));
        clauses (i + 1) ((v, snd value) :: scope)
    end
  in
  let scope' = clauses 0 scope in
  if Det.int t 2 = 0 then
    Buffer.add_string b
      (Printf.sprintf "where %s " (cond t (depth - 1) scope'));
  if Det.int t 3 = 0 && atoms_of scope' <> [] then
    Buffer.add_string b
      (Printf.sprintf "order by %s%s "
         (atom t (if depth > 0 then depth - 1 else 0) scope')
         (if Det.int t 2 = 0 then " descending" else ""));
  Buffer.add_string b ("return " ^ seq t (depth - 1) scope');
  Buffer.contents b

let expr t = flwor t 3 []

let corpus ?(seed = 1) n =
  List.init n (fun i -> expr (Det.make ((seed * 65599) + (i * 2654435761))))
