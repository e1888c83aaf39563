(** Abstract syntax of the XQuery subset (QNames already resolved against
    the in-scope namespaces at parse time), including the XQuery Update
    Facility subset and the internal nodes introduced by the optimizer. *)

open Xdm

type axis =
  | Child
  | Descendant
  | Attribute_axis
  | Self
  | Descendant_or_self
  | Parent
  | Following_sibling
  | Preceding_sibling
  | Ancestor
  | Ancestor_or_self
  | Following
  | Preceding

type nodetest =
  | Name_test of Qname.t
  | Any_name  (** [*] *)
  | Ns_wildcard of string  (** [p:*], URI resolved *)
  | Local_wildcard of string  (** [*:local] *)
  | Kind_node
  | Kind_text
  | Kind_comment
  | Kind_pi of string option
  | Kind_element of Qname.t option
  | Kind_attribute of Qname.t option
  | Kind_document

type comp_op = Eq | Ne | Lt | Le | Gt | Ge
type quantifier = Some_q | Every_q
type insert_pos = Into | Into_first | Into_last | Before | After

type expr =
  | Literal of Atomic.t
  | Var of Qname.t
  | Context_item
  | Seq_expr of expr list  (** comma operator; [Seq_expr []] is [()] *)
  | Range of expr * expr
  | Arith of Atomic.arith_op * expr * expr
  | Neg of expr
  | And of expr * expr
  | Or of expr * expr
  | General_cmp of comp_op * expr * expr
  | Value_cmp of comp_op * expr * expr
  | Node_is of expr * expr
  | Node_before of expr * expr
  | Node_after of expr * expr
  | Union of expr * expr
  | Intersect of expr * expr
  | Except of expr * expr
  | Instance_of of expr * Seqtype.t
  | Treat_as of expr * Seqtype.t
  | Castable_as of expr * Qname.t * bool  (** [bool]: optional ([?]) *)
  | Cast_as of expr * Qname.t * bool
  | If_expr of expr * expr * expr
  | Typeswitch of expr * case_clause list * (Qname.t option * expr)
      (** operand, cases, default (with optional variable) *)
  | Flwor of clause list * expr
  | Quantified of quantifier * in_binding list * expr
  | Path of expr * expr  (** [e1/e2] with document-order semantics *)
  | Root_expr  (** leading [/] *)
  | Step of axis * nodetest * expr list
  | Filter of expr * expr list  (** primary expression with predicates *)
  | Call of Qname.t * expr list
  | Elem_ctor of Qname.t * (Qname.t * attr_content list) list * content list
  | Comp_elem of name_spec * expr
  | Comp_attr of name_spec * expr
  | Comp_text of expr
  | Comp_doc of expr
  | Comp_comment of expr
  | Comp_pi of name_spec * expr
  (* XQuery Update Facility subset *)
  | Insert of insert_pos * expr * expr  (** source, target *)
  | Delete of expr
  | Replace of { value_of : bool; target : expr; source : expr }
  | Rename of expr * name_spec
  | Transform of (Qname.t * expr) list * expr * expr
      (** [copy $v := e modify e return e] *)

and case_clause = {
  case_var : Qname.t option;
  case_type : Seqtype.t;
  case_return : expr;
}

and name_spec = Static_name of Qname.t | Dynamic_name of expr

and attr_content = Attr_str of string | Attr_expr of expr

and content =
  | Content_text of string
  | Content_expr of expr  (** enclosed [{...}] *)
  | Content_node of expr  (** nested constructor, comment or PI *)

and in_binding = Qname.t * Seqtype.t option * expr

and clause =
  | For_clause of for_binding list
  | Let_clause of let_binding list
  | Where_clause of expr
  | Order_clause of bool * order_spec list  (** [bool]: stable *)
  | Join_clause of join
      (** optimizer-introduced hash join: binds [var] to the items of
          [source] whose [build_key] equals the outer tuple's
          [probe_key] *)

and for_binding = {
  for_var : Qname.t;
  for_pos : Qname.t option;
  for_type : Seqtype.t option;
  for_expr : expr;
}

and let_binding = {
  let_var : Qname.t;
  let_type : Seqtype.t option;
  let_expr : expr;
}

and order_spec = { key : expr; descending : bool; empty_least : bool }

and join = {
  join_var : Qname.t;
  join_type : Seqtype.t option;
  join_source : expr;
  join_build_key : expr;  (** evaluated with [join_var] bound *)
  join_probe_key : expr;  (** evaluated in the outer tuple context *)
}

type function_decl = {
  fd_name : Qname.t;
  fd_params : (Qname.t * Seqtype.t option) list;
  fd_return : Seqtype.t option;
  fd_body : expr option;  (** [None] for [external] *)
}

type var_decl = {
  vd_name : Qname.t;
  vd_type : Seqtype.t option;
  vd_value : expr option;  (** [None] for [external] *)
}

type prolog_item =
  | P_function of function_decl
  | P_variable of var_decl
  | P_import of { prefix : string option; uri : string }
      (** [import module namespace p = "uri"] — resolved by the host
          (sessions resolve against their registered module library) *)

(** {1 AST traversal helpers} *)

let fold_subexprs : 'a. ('a -> expr -> 'a) -> 'a -> expr -> 'a =
 fun f acc e ->
  let on = f in
  match e with
  | Literal _ | Var _ | Context_item | Root_expr -> acc
  | Seq_expr es -> List.fold_left on acc es
  | Range (a, b)
  | Arith (_, a, b)
  | And (a, b)
  | Or (a, b)
  | General_cmp (_, a, b)
  | Value_cmp (_, a, b)
  | Node_is (a, b)
  | Node_before (a, b)
  | Node_after (a, b)
  | Union (a, b)
  | Intersect (a, b)
  | Except (a, b)
  | Path (a, b) -> on (on acc a) b
  | Neg a
  | Instance_of (a, _)
  | Treat_as (a, _)
  | Castable_as (a, _, _)
  | Cast_as (a, _, _)
  | Comp_text a
  | Comp_doc a
  | Comp_comment a
  | Delete a -> on acc a
  | If_expr (c, t, e2) -> on (on (on acc c) t) e2
  | Typeswitch (operand, cases, (_, default)) ->
    let acc = on acc operand in
    let acc = List.fold_left (fun acc c -> on acc c.case_return) acc cases in
    on acc default
  | Flwor (clauses, ret) ->
    let acc =
      List.fold_left
        (fun acc c ->
          match c with
          | For_clause bs ->
            List.fold_left (fun acc b -> on acc b.for_expr) acc bs
          | Let_clause bs ->
            List.fold_left (fun acc b -> on acc b.let_expr) acc bs
          | Where_clause e -> on acc e
          | Order_clause (_, specs) ->
            List.fold_left (fun acc s -> on acc s.key) acc specs
          | Join_clause j ->
            on (on (on acc j.join_source) j.join_build_key) j.join_probe_key)
        acc clauses
    in
    on acc ret
  | Quantified (_, bindings, body) ->
    let acc = List.fold_left (fun acc (_, _, e) -> on acc e) acc bindings in
    on acc body
  | Step (_, _, preds) -> List.fold_left on acc preds
  | Filter (p, preds) -> List.fold_left on (on acc p) preds
  | Call (_, args) -> List.fold_left on acc args
  | Elem_ctor (_, attrs, contents) ->
    let acc =
      List.fold_left
        (fun acc (_, parts) ->
          List.fold_left
            (fun acc part ->
              match part with Attr_str _ -> acc | Attr_expr e -> on acc e)
            acc parts)
        acc attrs
    in
    List.fold_left
      (fun acc c ->
        match c with
        | Content_text _ -> acc
        | Content_expr e | Content_node e -> on acc e)
      acc contents
  | Comp_elem (ns, e) | Comp_attr (ns, e) | Comp_pi (ns, e) ->
    let acc = match ns with Static_name _ -> acc | Dynamic_name ne -> on acc ne in
    on acc e
  | Insert (_, s, t) -> on (on acc s) t
  | Replace { target; source; _ } -> on (on acc target) source
  | Rename (t, ns) ->
    let acc = on acc t in
    (match ns with Static_name _ -> acc | Dynamic_name ne -> on acc ne)
  | Transform (copies, modify, ret) ->
    let acc = List.fold_left (fun acc (_, e) -> on acc e) acc copies in
    on (on acc modify) ret

(* [List.map], returning [l] itself when [f] returns every element
   unchanged; elements are visited left to right *)
let rec map_list f l =
  match l with
  | [] -> l
  | x :: rest ->
    let x' = f x in
    let rest' = map_list f rest in
    if x' == x && rest' == rest then l else x' :: rest'

(** [map_subexprs f e] rebuilds [e] with [f] applied to every immediate
    subexpression (a purely structural, scope-oblivious map; for
    binder-aware traversals see {!Binders}). When [f] returns every
    subexpression physically unchanged, [e] itself is returned, so a
    sweep over an unchanged tree allocates nothing. Subexpressions are
    visited in the order OCaml evaluates a rebuild [C (f a, f b)] —
    constructor arguments and record fields right to left, list
    elements left to right — which is the order the optimizer's rewrite
    log (and [xqse --explain]) reports rewrites in. *)
let map_subexprs (f : expr -> expr) (e : expr) : expr =
  let name_spec ns =
    match ns with
    | Static_name _ -> ns
    | Dynamic_name x ->
      let x' = f x in
      if x' == x then ns else Dynamic_name x'
  in
  let one a rebuild =
    let a' = f a in
    if a' == a then e else rebuild a'
  in
  let two a b rebuild =
    let b' = f b in
    let a' = f a in
    if a' == a && b' == b then e else rebuild a' b'
  in
  match e with
  | Literal _ | Var _ | Context_item | Root_expr -> e
  | Seq_expr es ->
    let es' = map_list f es in
    if es' == es then e else Seq_expr es'
  | Range (a, b) -> two a b (fun a b -> Range (a, b))
  | Arith (op, a, b) -> two a b (fun a b -> Arith (op, a, b))
  | Neg a -> one a (fun a -> Neg a)
  | And (a, b) -> two a b (fun a b -> And (a, b))
  | Or (a, b) -> two a b (fun a b -> Or (a, b))
  | General_cmp (op, a, b) -> two a b (fun a b -> General_cmp (op, a, b))
  | Value_cmp (op, a, b) -> two a b (fun a b -> Value_cmp (op, a, b))
  | Node_is (a, b) -> two a b (fun a b -> Node_is (a, b))
  | Node_before (a, b) -> two a b (fun a b -> Node_before (a, b))
  | Node_after (a, b) -> two a b (fun a b -> Node_after (a, b))
  | Union (a, b) -> two a b (fun a b -> Union (a, b))
  | Intersect (a, b) -> two a b (fun a b -> Intersect (a, b))
  | Except (a, b) -> two a b (fun a b -> Except (a, b))
  | Instance_of (a, t) -> one a (fun a -> Instance_of (a, t))
  | Treat_as (a, t) -> one a (fun a -> Treat_as (a, t))
  | Castable_as (a, t, o) -> one a (fun a -> Castable_as (a, t, o))
  | Cast_as (a, t, o) -> one a (fun a -> Cast_as (a, t, o))
  | If_expr (c, t, e2) ->
    let e2' = f e2 in
    let t' = f t in
    let c' = f c in
    if c' == c && t' == t && e2' == e2 then e else If_expr (c', t', e2')
  | Typeswitch (operand, cases, (dvar, default)) ->
    let default' = f default in
    let cases' =
      map_list
        (fun c ->
          let r = f c.case_return in
          if r == c.case_return then c else { c with case_return = r })
        cases
    in
    let operand' = f operand in
    if operand' == operand && default' == default && cases' == cases then e
    else Typeswitch (operand', cases', (dvar, default'))
  | Flwor (clauses, ret) ->
    let clause c =
      match c with
      | For_clause bs ->
        let bs' =
          map_list
            (fun b ->
              let x = f b.for_expr in
              if x == b.for_expr then b else { b with for_expr = x })
            bs
        in
        if bs' == bs then c else For_clause bs'
      | Let_clause bs ->
        let bs' =
          map_list
            (fun b ->
              let x = f b.let_expr in
              if x == b.let_expr then b else { b with let_expr = x })
            bs
        in
        if bs' == bs then c else Let_clause bs'
      | Where_clause x ->
        let x' = f x in
        if x' == x then c else Where_clause x'
      | Order_clause (st, specs) ->
        let specs' =
          map_list
            (fun sp ->
              let k = f sp.key in
              if k == sp.key then sp else { sp with key = k })
            specs
        in
        if specs' == specs then c else Order_clause (st, specs')
      | Join_clause j ->
        let probe = f j.join_probe_key in
        let build = f j.join_build_key in
        let source = f j.join_source in
        if
          source == j.join_source
          && build == j.join_build_key
          && probe == j.join_probe_key
        then c
        else
          Join_clause
            {
              j with
              join_source = source;
              join_build_key = build;
              join_probe_key = probe;
            }
    in
    let clauses' = map_list clause clauses in
    let ret' = f ret in
    if ret' == ret && clauses' == clauses then e else Flwor (clauses', ret')
  | Quantified (q, bs, body) ->
    let body' = f body in
    let bs' =
      map_list
        (fun ((v, t, x) as b) ->
          let x' = f x in
          if x' == x then b else (v, t, x'))
        bs
    in
    if body' == body && bs' == bs then e else Quantified (q, bs', body')
  | Path (a, b) -> two a b (fun a b -> Path (a, b))
  | Step (ax, nt, preds) ->
    let preds' = map_list f preds in
    if preds' == preds then e else Step (ax, nt, preds')
  | Filter (p, preds) ->
    let preds' = map_list f preds in
    let p' = f p in
    if p' == p && preds' == preds then e else Filter (p', preds')
  | Call (n, args) ->
    let args' = map_list f args in
    if args' == args then e else Call (n, args')
  | Elem_ctor (n, attrs, contents) ->
    let contents' =
      map_list
        (fun c ->
          match c with
          | Content_text _ -> c
          | Content_expr x ->
            let x' = f x in
            if x' == x then c else Content_expr x'
          | Content_node x ->
            let x' = f x in
            if x' == x then c else Content_node x')
        contents
    in
    let attrs' =
      map_list
        (fun ((an, parts) as a) ->
          let parts' =
            map_list
              (fun part ->
                match part with
                | Attr_str _ -> part
                | Attr_expr x ->
                  let x' = f x in
                  if x' == x then part else Attr_expr x')
              parts
          in
          if parts' == parts then a else (an, parts'))
        attrs
    in
    if contents' == contents && attrs' == attrs then e
    else Elem_ctor (n, attrs', contents')
  | Comp_elem (ns, x) ->
    let x' = f x in
    let ns' = name_spec ns in
    if x' == x && ns' == ns then e else Comp_elem (ns', x')
  | Comp_attr (ns, x) ->
    let x' = f x in
    let ns' = name_spec ns in
    if x' == x && ns' == ns then e else Comp_attr (ns', x')
  | Comp_text x -> one x (fun x -> Comp_text x)
  | Comp_doc x -> one x (fun x -> Comp_doc x)
  | Comp_comment x -> one x (fun x -> Comp_comment x)
  | Comp_pi (ns, x) ->
    let x' = f x in
    let ns' = name_spec ns in
    if x' == x && ns' == ns then e else Comp_pi (ns', x')
  | Insert (p, s, t) -> two s t (fun s t -> Insert (p, s, t))
  | Delete t -> one t (fun t -> Delete t)
  | Replace { value_of; target; source } ->
    let source' = f source in
    let target' = f target in
    if source' == source && target' == target then e
    else Replace { value_of; target = target'; source = source' }
  | Rename (t, ns) ->
    let ns' = name_spec ns in
    let t' = f t in
    if t' == t && ns' == ns then e else Rename (t', ns')
  | Transform (cs, m, r) ->
    let r' = f r in
    let m' = f m in
    let cs' =
      map_list
        (fun ((v, x) as c) ->
          let x' = f x in
          if x' == x then c else (v, x'))
        cs
    in
    if r' == r && m' == m && cs' == cs then e else Transform (cs', m', r')
