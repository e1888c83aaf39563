open Xdm
module Qmap = Context.Qmap

let err code msg = Item.raise_error (Qname.err code) msg

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Map Atomic.Cast_error to the right err:* code for the operation. *)
let arith_error msg =
  if contains_substring msg "zero" then err "FOAR0001" msg
  else err "XPTY0004" msg

let numeric_of_untyped a =
  match a with
  | Atomic.Untyped s -> (
    try Atomic.Double (float_of_string (String.trim s))
    with _ -> (
      match s with
      | "INF" -> Atomic.Double Float.infinity
      | "-INF" -> Atomic.Double Float.neg_infinity
      | "NaN" -> Atomic.Double Float.nan
      | _ ->
        err "FORG0001"
          (Printf.sprintf "cannot cast untyped value %S to xs:double" s)))
  | a -> a

(* ------------------------------------------------------------------ *)
(* Axes and node tests                                                  *)
(* ------------------------------------------------------------------ *)

let axis_nodes axis node =
  match axis with
  | Ast.Child -> Node.children node
  | Ast.Descendant -> Node.descendants node
  | Ast.Attribute_axis -> Node.attributes node
  | Ast.Self -> [ node ]
  | Ast.Descendant_or_self -> Node.descendant_or_self node
  | Ast.Parent -> ( match Node.parent node with Some p -> [ p ] | None -> [])
  | Ast.Following_sibling -> Node.following_siblings node
  | Ast.Preceding_sibling -> Node.preceding_siblings node
  | Ast.Ancestor -> Node.ancestors node
  | Ast.Ancestor_or_self -> node :: Node.ancestors node
  | Ast.Following -> (
    (* nodes after this node in document order, excluding descendants *)
    let rec collect n acc =
      match Node.parent n with
      | None -> acc
      | Some p ->
        let acc =
          List.fold_left
            (fun acc sib -> acc @ Node.descendant_or_self sib)
            acc (Node.following_siblings n)
        in
        collect p acc
    in
    (* an attribute precedes its owner's children: they follow it, then
       what follows the owner (attributes are never on this axis) *)
    match (Node.kind node, Node.parent node) with
    | Node.Attribute, Some owner -> collect owner (Node.descendants owner)
    | _ -> collect node [])
  | Ast.Preceding ->
    let ancestors = Node.ancestors node in
    let rec collect n acc =
      match Node.parent n with
      | None -> acc
      | Some p ->
        let acc =
          List.fold_left
            (fun acc sib -> acc @ Node.descendant_or_self sib)
            acc
            (List.rev (Node.preceding_siblings n))
        in
        collect p acc
    in
    let all = collect node [] in
    (* nearest first, as a reverse axis presents its candidates *)
    List.rev
      (List.filter
         (fun n -> not (List.exists (fun a -> Node.is_same a n) ancestors))
         (List.sort Node.doc_order all))

(* The node test of a step, resolved once per step: a predicate over
   candidate nodes that allocates nothing per candidate. *)
let node_test ~axis nt : Node.t -> bool =
  let principal =
    if axis = Ast.Attribute_axis then Node.Attribute else Node.Element
  in
  let named kind p n =
    Node.kind n = kind
    && match Node.name n with Some qn -> p qn | None -> false
  in
  match nt with
  | Ast.Name_test q -> named principal (Qname.equal q)
  | Ast.Any_name -> fun n -> Node.kind n = principal
  | Ast.Ns_wildcard uri ->
    named principal (fun qn -> String.equal qn.Qname.uri uri)
  | Ast.Local_wildcard local ->
    named principal (fun qn -> String.equal qn.Qname.local local)
  | Ast.Kind_node -> fun _ -> true
  | Ast.Kind_text -> fun n -> Node.kind n = Node.Text
  | Ast.Kind_comment -> fun n -> Node.kind n = Node.Comment
  | Ast.Kind_pi None -> fun n -> Node.kind n = Node.Processing_instruction
  | Ast.Kind_pi (Some t) ->
    named Node.Processing_instruction (fun qn -> String.equal qn.Qname.local t)
  | Ast.Kind_element None -> fun n -> Node.kind n = Node.Element
  | Ast.Kind_element (Some q) -> named Node.Element (Qname.equal q)
  | Ast.Kind_attribute None -> fun n -> Node.kind n = Node.Attribute
  | Ast.Kind_attribute (Some q) -> named Node.Attribute (Qname.equal q)
  | Ast.Kind_document -> fun n -> Node.kind n = Node.Document

let reverse_axis = function
  | Ast.Parent | Ast.Ancestor | Ast.Ancestor_or_self | Ast.Preceding_sibling
  | Ast.Preceding -> true
  | Ast.Child | Ast.Descendant | Ast.Attribute_axis | Ast.Self
  | Ast.Descendant_or_self | Ast.Following_sibling | Ast.Following -> false

(* ------------------------------------------------------------------ *)
(* Comparisons                                                          *)
(* ------------------------------------------------------------------ *)

let apply_op op c =
  match op with
  | Ast.Eq -> c = 0
  | Ast.Ne -> c <> 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0

let value_compare_atoms op a b =
  (* value comparison: untyped operands are treated as strings *)
  let norm = function Atomic.Untyped s -> Atomic.String s | a -> a in
  let a = norm a and b = norm b in
  if (Atomic.is_nan a || Atomic.is_nan b) && (op = Ast.Eq || op = Ast.Lt || op = Ast.Le || op = Ast.Gt || op = Ast.Ge)
  then false
  else if (Atomic.is_nan a || Atomic.is_nan b) && op = Ast.Ne then true
  else
    match Atomic.compare_values a b with
    | c -> apply_op op c
    | exception Atomic.Cast_error msg -> err "XPTY0004" msg

let general_pair_compare op a b =
  (* general comparison: untyped is cast to the other operand's type
     (numeric → double, untyped/untyped → string) *)
  let a, b =
    match (a, b) with
    | Atomic.Untyped _, Atomic.Untyped _ -> (a, b) (* compared as strings *)
    | Atomic.Untyped _, other when Atomic.is_numeric other ->
      (numeric_of_untyped a, b)
    | other, Atomic.Untyped _ when Atomic.is_numeric other ->
      (a, numeric_of_untyped b)
    | Atomic.Untyped s, Atomic.Boolean _ -> (Atomic.String s, b)
    | Atomic.Boolean _, Atomic.Untyped s -> (a, Atomic.String s)
    | _ -> (a, b)
  in
  if Atomic.is_nan a || Atomic.is_nan b then op = Ast.Ne
  else
    match Atomic.compare_values a b with
    | c -> apply_op op c
    | exception Atomic.Cast_error msg -> err "XPTY0004" msg

(* Shared scalar kernels over already-evaluated operands: the eager
   evaluator, the closure compiler (stage 2, below) and the XQSE
   interpreter's fast path for tiny statement expressions must agree
   exactly, so the arithmetic/comparison/range rules live here once. *)

let arith_seq op va vb =
  match (va, vb) with
  (* singleton non-untyped atoms skip the atomize walk; [numeric_of_
     untyped] is the identity on everything but [Untyped] *)
  | [ Item.Atomic a ], [ Item.Atomic b ]
    when (match a with Atomic.Untyped _ -> false | _ -> true)
         && (match b with Atomic.Untyped _ -> false | _ -> true) -> (
    try [ Item.Atomic (Atomic.arith op a b) ]
    with Atomic.Cast_error msg -> arith_error msg)
  | _ -> (
    match (Item.one_atom_opt va, Item.one_atom_opt vb) with
    | None, _ | _, None -> []
    | Some va, Some vb -> (
      let va = numeric_of_untyped va and vb = numeric_of_untyped vb in
      try [ Item.Atomic (Atomic.arith op va vb) ]
      with Atomic.Cast_error msg -> arith_error msg))

let neg_seq va =
  match Item.one_atom_opt va with
  | None -> []
  | Some v -> (
    try [ Item.Atomic (Atomic.negate (numeric_of_untyped v)) ]
    with Atomic.Cast_error msg -> err "XPTY0004" msg)

let value_cmp_seq op va vb =
  match (va, vb) with
  (* singleton atoms are what [one_atom_opt] would unwrap anyway *)
  | [ Item.Atomic x ], [ Item.Atomic y ] ->
    Item.bool (value_compare_atoms op x y)
  | _ -> (
    match (Item.one_atom_opt va, Item.one_atom_opt vb) with
    | None, _ | _, None -> []
    | Some x, Some y -> Item.bool (value_compare_atoms op x y))

let general_cmp_seq op va vb =
  let va = Item.atomize va and vb = Item.atomize vb in
  Item.bool
    (List.exists
       (fun x -> List.exists (fun y -> general_pair_compare op x y) vb)
       va)

let node_comparison_seq na nb pred =
  match (na, nb) with
  | [], _ | _, [] -> []
  | [ Item.Node x ], [ Item.Node y ] -> Item.bool (pred x y)
  | _ -> Item.type_error "node comparison requires single nodes"

let range_bounds_seq va vb =
  match (Item.one_atom_opt va, Item.one_atom_opt vb) with
  | None, _ | _, None -> None
  | Some ia, Some ib ->
    let to_int v =
      match v with
      | Atomic.Integer i -> i
      | a -> (
        try
          match Atomic.cast_to a (Qname.xs "integer") with
          | Atomic.Integer i -> i
          | _ -> err "XPTY0004" "range bounds must be integers"
        with Atomic.Cast_error m -> err "XPTY0004" m)
    in
    let lo = to_int ia and hi = to_int ib in
    if lo > hi then None else Some (lo, hi)

let range_list lo hi =
  List.init (hi - lo + 1) (fun i -> Item.Atomic (Atomic.Integer (lo + i)))

(* order by: compare one evaluated key pair under its spec, then the
   stable multi-key sort over (tuple, keys) pairs *)
let order_cmp_key (a, spec) (b, _) =
  let c =
    match (a, b) with
    | None, None -> 0
    | None, Some _ -> if spec.Ast.empty_least then -1 else 1
    | Some _, None -> if spec.Ast.empty_least then 1 else -1
    | Some x, Some y -> (
      let x = match x with Atomic.Untyped s -> Atomic.String s | x -> x in
      let y = match y with Atomic.Untyped s -> Atomic.String s | y -> y in
      match (Atomic.is_nan x, Atomic.is_nan y) with
      | true, true -> 0
      | true, false -> if spec.Ast.empty_least then -1 else 1
      | false, true -> if spec.Ast.empty_least then 1 else -1
      | false, false -> (
        try Atomic.compare_values x y
        with Atomic.Cast_error msg -> err "XPTY0004" msg))
  in
  if spec.Ast.descending then -c else c

let rec order_cmp_keys ka kb =
  match (ka, kb) with
  | [], [] -> 0
  | a :: ka, b :: kb -> (
    match order_cmp_key a b with 0 -> order_cmp_keys ka kb | c -> c)
  | _ -> 0

let order_sort keyed =
  List.map fst
    (List.stable_sort (fun (_, ka) (_, kb) -> order_cmp_keys ka kb) keyed)

(* computed-constructor name rule over the evaluated name atom *)
let name_spec_atom ~element a =
  match a with
  | Atomic.QName q -> q
  | Atomic.String s | Atomic.Untyped s ->
    if String.contains s ':' then
      err "XQDY0074" (Printf.sprintf "cannot resolve prefixed name %S" s)
    else Qname.local s
  | a ->
    ignore element;
    err "XPTY0004"
      (Printf.sprintf "invalid name value of type %s"
         (Qname.to_string (Atomic.type_name a)))

(* ------------------------------------------------------------------ *)
(* The evaluator                                                        *)
(* ------------------------------------------------------------------ *)

(* Does [e] syntactically mention [fn:last()]? Streaming the left side
   of a path never computes the focus size, so the step must provably
   not observe it. User function bodies run under [Context.no_focus],
   so a last() inside a called function cannot see the path's focus —
   the syntactic check over the step expression is conservative but
   sound. *)
let rec mentions_last e =
  (match e with
  | Ast.Call (n, []) ->
    String.equal n.Qname.uri Qname.fn_ns && String.equal n.Qname.local "last"
  | _ -> false)
  || Ast.fold_subexprs (fun acc sub -> acc || mentions_last sub) false e

(* Effective boolean value over a cursor, pulling at most two items.
   Equivalent to materializing and applying [Item.effective_boolean_value]:
   the remainder is skipped only when the cursor is pure; otherwise
   [Cursor.abandon] drains it so a pending error or effect surfaces
   first, exactly as the eager evaluator (which evaluates the whole
   operand before applying the EBV rule) behaves. *)
let ebv_cur c =
  match Cursor.next c with
  | None ->
    Cursor.close c;
    false
  | Some (Item.Node _) ->
    Cursor.abandon c;
    true
  | Some (Item.Atomic _ as first) -> (
    match Cursor.next c with
    | None -> Item.effective_boolean_value [ first ]
    | Some _ ->
      Cursor.abandon c;
      (* >= 2 items with an atomic head: same FORG0006 as the eager rule *)
      Item.effective_boolean_value [ first; first ])

let cursor_nonempty c =
  match Cursor.next c with
  | Some _ ->
    Cursor.abandon c;
    true
  | None ->
    Cursor.close c;
    false

(* Materialization boundary: drain a cursor into a list, accounting the
   copied items on the context's [stream.materialized] counter. *)
let materialize ctx c = Cursor.to_list ~instr:(Context.fields ctx).instr c

(* A source read the result cache never sees — consumed as a stream
   (only a materialized value can be stored) or keyed (its rows are
   selected below the cache) — counts as a bypass when a cache is bound,
   like any other read the cache skips. *)
let count_bypass (f : Context.dynamic_fields) =
  match f.cache with Some b -> Cache.bypass b | None -> ()

(* Pending-update-list kernels over already-evaluated operands, shared
   by the walker and the compiled plans like the scalar kernels above.
   Each caller applies the list it collects itself. *)

let check_updating ctx =
  if not (Context.fields ctx).updating_ok then
    err "XUST0001"
      "updating expressions are only allowed in an update statement"

let push_update ctx u =
  let fields = Context.fields ctx in
  fields.pul := u :: !(fields.pul)

(* inserted and replacing nodes are copies of the source nodes *)
let copy_nodes v = List.map Node.deep_copy (Item.nodes_only v)

let push_insert ctx pos sources target =
  let attrs, others =
    List.partition (fun n -> Node.kind n = Node.Attribute) sources
  in
  match pos with
  | Ast.Into ->
    if attrs <> [] then push_update ctx (Update.Insert_attributes (target, attrs));
    if others <> [] then push_update ctx (Update.Insert_into (target, others))
  | Ast.Into_first -> push_update ctx (Update.Insert_first (target, others))
  | Ast.Into_last -> push_update ctx (Update.Insert_last (target, others))
  | Ast.Before -> push_update ctx (Update.Insert_before (target, others))
  | Ast.After -> push_update ctx (Update.Insert_after (target, others))

let push_delete ctx v =
  List.iter (fun n -> push_update ctx (Update.Delete_node n)) (Item.nodes_only v)

let replace_update ~value_of target v =
  if value_of then
    Update.Replace_value
      (target, String.concat " " (List.map Atomic.to_string (Item.atomize v)))
  else Update.Replace_node (target, copy_nodes v)

(* Run [f] with updating expressions allowed over a fresh pending update
   list, and return the primitives it collected, oldest first. [f] must
   return the empty sequence; [what] is the XUST0001 message when it
   does not. *)
let pending_updates ~what ctx f =
  let fields = Context.fields ctx in
  let saved = !(fields.pul) in
  fields.pul := [];
  let result = f (Context.with_updating ctx true) in
  let pul = List.rev !(fields.pul) in
  fields.pul := saved;
  if result <> [] then err "XUST0001" what;
  pul

(* copy … modify … return: the modify clause's list, applied to the
   fresh copies only, so it needs no enclosing update statement *)
let modify_updates =
  pending_updates ~what:"the modify clause must be an updating expression"

let statement_updates =
  pending_updates
    ~what:
      "an update statement requires an updating expression (it returned a \
       value)"

(* the tuples one [for] binding makes from one input tuple *)
let for_tuples b items vars =
  List.mapi
    (fun i item ->
      let vars = Qmap.add b.Ast.for_var [ item ] vars in
      match b.Ast.for_pos with
      | Some pv -> Qmap.add pv [ Item.Atomic (Atomic.Integer (i + 1)) ] vars
      | None -> vars)
    items

(* The tree walker: the eager reference evaluator. Production runs the
   compiled plans below; the walker runs only when plans are off, which
   is how the differential tests select the reference. It never
   streams, so each of its arms is the eager schedule the compiled
   streaming arms must be indistinguishable from. *)
let rec eval ctx (e : Ast.expr) : Item.seq =
  match e with
  | Ast.Literal a -> [ Item.Atomic a ]
  | Ast.Var q -> (
    match Context.lookup_var ctx q with
    | Some v -> v
    | None ->
      Item.raise_error (Qname.err "XPST0008")
        (Printf.sprintf "undefined variable $%s" (Qname.to_string q)))
  | Ast.Context_item -> (
    match (Context.fields ctx).ctx_item with
    | Some item -> [ item ]
    | None -> err "XPDY0002" "the context item is not defined")
  | Ast.Seq_expr es -> List.concat_map (eval ctx) es
  | Ast.Range (a, b) -> (
    match range_bounds ctx a b with
    | None -> []
    | Some (lo, hi) -> range_list lo hi)
  | Ast.Arith (op, a, b) ->
    let va = eval ctx a in
    let vb = eval ctx b in
    arith_seq op va vb
  | Ast.Neg a -> neg_seq (eval ctx a)
  | Ast.And (a, b) -> Item.bool (ebv ctx a && ebv ctx b)
  | Ast.Or (a, b) -> Item.bool (ebv ctx a || ebv ctx b)
  | Ast.General_cmp (op, a, b) ->
    let va = eval ctx a in
    let vb = eval ctx b in
    general_cmp_seq op va vb
  | Ast.Value_cmp (op, a, b) ->
    let va = eval ctx a in
    let vb = eval ctx b in
    value_cmp_seq op va vb
  | Ast.Node_is (a, b) -> node_comparison ctx a b (fun x y -> Node.is_same x y)
  | Ast.Node_before (a, b) ->
    node_comparison ctx a b (fun x y -> Node.doc_order x y < 0)
  | Ast.Node_after (a, b) ->
    node_comparison ctx a b (fun x y -> Node.doc_order x y > 0)
  | Ast.Union (a, b) -> Item.doc_sort (eval ctx a @ eval ctx b)
  | Ast.Intersect (a, b) ->
    let nb = Item.nodes_only (eval ctx b) in
    Item.doc_sort
      (List.filter
         (function
           | Item.Node n -> List.exists (Node.is_same n) nb
           | Item.Atomic _ -> Item.type_error "intersect requires nodes")
         (eval ctx a))
  | Ast.Except (a, b) ->
    let nb = Item.nodes_only (eval ctx b) in
    Item.doc_sort
      (List.filter
         (function
           | Item.Node n -> not (List.exists (Node.is_same n) nb)
           | Item.Atomic _ -> Item.type_error "except requires nodes")
         (eval ctx a))
  | Ast.Instance_of (a, ty) -> Item.bool (Seqtype.matches ty (eval ctx a))
  | Ast.Treat_as (a, ty) ->
    let v = eval ctx a in
    if Seqtype.matches ty v then v
    else
      Item.raise_error (Qname.err "XPDY0050")
        (Printf.sprintf "treat as %s failed" (Seqtype.to_string ty))
  | Ast.Castable_as (a, ty, opt) -> (
    match Item.atomize (eval ctx a) with
    | [] -> Item.bool opt
    | [ v ] -> Item.bool (Atomic.can_cast_to v ty)
    | _ -> Item.bool false)
  | Ast.Cast_as (a, ty, opt) -> (
    match Item.atomize (eval ctx a) with
    | [] ->
      if opt then []
      else err "XPTY0004" "cast of an empty sequence to a non-optional type"
    | [ v ] -> (
      try [ Item.Atomic (Atomic.cast_to v ty) ]
      with Atomic.Cast_error msg -> err "FORG0001" msg)
    | _ -> err "XPTY0004" "cast of a sequence of more than one item")
  | Ast.If_expr (c, t, e2) -> if ebv ctx c then eval ctx t else eval ctx e2
  | Ast.Typeswitch (operand, cases, (dvar, default)) -> (
    let v = eval ctx operand in
    match
      List.find_opt (fun c -> Seqtype.matches c.Ast.case_type v) cases
    with
    | Some c ->
      let ctx =
        match c.Ast.case_var with
        | Some var -> Context.bind ctx var v
        | None -> ctx
      in
      eval ctx c.Ast.case_return
    | None ->
      let ctx =
        match dvar with Some var -> Context.bind ctx var v | None -> ctx
      in
      eval ctx default)
  | Ast.Flwor (clauses, ret) -> eval_flwor ctx clauses ret
  | Ast.Quantified (quant, bindings, body) ->
    let rec go ctx = function
      | [] -> ebv ctx body
      | (v, ty, src) :: rest ->
        let items = eval ctx src in
        let items =
          match ty with
          | Some t ->
            List.map
              (fun i ->
                match Seqtype.check ~what:(Qname.to_string v) t [ i ] with
                | [ i' ] -> i'
                | _ -> i)
              items
          | None -> items
        in
        let test item = go (Context.bind ctx v [ item ]) rest in
        (match quant with
        | Ast.Some_q -> List.exists test items
        | Ast.Every_q -> List.for_all test items)
    in
    Item.bool (go ctx bindings)
  | Ast.Path (a, b) -> path_over ctx (eval ctx a) b
  | Ast.Root_expr -> (
    match (Context.fields ctx).ctx_item with
    | Some (Item.Node n) -> [ Item.Node (Node.root n) ]
    | Some (Item.Atomic _) ->
      err "XPTY0020" "the context item is not a node"
    | None -> err "XPDY0002" "the context item is not defined")
  | Ast.Step (axis, nt, preds) -> (
    match (Context.fields ctx).ctx_item with
    | Some (Item.Node n) ->
      let matched = List.filter (node_test ~axis nt) (axis_nodes axis n) in
      (* candidates arrive in axis order (reverse axes: nearest first),
         which is what positional predicates must see; the step result
         itself is returned in document order *)
      let filtered =
        apply_predicates ctx preds (List.map (fun n -> Item.Node n) matched)
      in
      if reverse_axis axis then Item.doc_sort filtered else filtered
    | Some (Item.Atomic _) -> err "XPTY0020" "the context item is not a node"
    | None -> err "XPDY0002" "the context item is not defined")
  | Ast.Filter (prim, preds) -> apply_predicates ctx preds (eval ctx prim)
  | Ast.Call (name, args) -> call ctx name (List.map (eval ctx) args)
  | Ast.Elem_ctor (name, attrs, contents) ->
    [ Item.Node (construct_element ctx name attrs contents) ]
  | Ast.Comp_elem (name_spec, content) ->
    let name = eval_name_spec ctx ~element:true name_spec in
    let items = eval ctx content in
    let el = Node.element name [] in
    attach_content el items;
    merge_text_children el;
    [ Item.Node el ]
  | Ast.Comp_attr (name_spec, content) ->
    let name = eval_name_spec ctx ~element:false name_spec in
    let v =
      String.concat " "
        (List.map Atomic.to_string (Item.atomize (eval ctx content)))
    in
    [ Item.Node (Node.attribute name v) ]
  | Ast.Comp_text content -> (
    match Item.atomize (eval ctx content) with
    | [] -> []
    | atoms ->
      [ Item.Node
          (Node.text (String.concat " " (List.map Atomic.to_string atoms))) ])
  | Ast.Comp_doc content ->
    let items = eval ctx content in
    let holder = Node.element (Qname.local "holder") [] in
    attach_content holder items;
    let children = Node.children holder in
    List.iter Node.detach children;
    [ Item.Node (Node.document children) ]
  | Ast.Comp_comment content ->
    let s =
      String.concat " "
        (List.map Atomic.to_string (Item.atomize (eval ctx content)))
    in
    [ Item.Node (Node.comment s) ]
  | Ast.Comp_pi (name_spec, content) ->
    let name = eval_name_spec ctx ~element:false name_spec in
    let s =
      String.concat " "
        (List.map Atomic.to_string (Item.atomize (eval ctx content)))
    in
    [ Item.Node (Node.processing_instruction name.Qname.local s) ]
  (* ---- XQuery Update Facility subset ---- *)
  | Ast.Insert (pos, source, target) ->
    check_updating ctx;
    let sources = copy_nodes (eval ctx source) in
    push_insert ctx pos sources (Item.one_node (eval ctx target));
    []
  | Ast.Delete target ->
    check_updating ctx;
    push_delete ctx (eval ctx target);
    []
  | Ast.Replace { value_of; target; source } ->
    check_updating ctx;
    let target = Item.one_node (eval ctx target) in
    push_update ctx (replace_update ~value_of target (eval ctx source));
    []
  | Ast.Rename (target, name_spec) ->
    check_updating ctx;
    let target = Item.one_node (eval ctx target) in
    push_update ctx
      (Update.Rename_node (target, eval_name_spec ctx ~element:true name_spec));
    []
  | Ast.Transform (copies, modify, ret) ->
    let ctx =
      List.fold_left
        (fun ctx (v, e) ->
          Context.bind ctx v
            [ Item.Node (Node.deep_copy (Item.one_node (eval ctx e))) ])
        ctx copies
    in
    Update.apply (modify_updates ctx (fun mctx -> eval mctx modify));
    eval ctx ret

and ebv ctx e = Item.effective_boolean_value (eval ctx e)

and node_comparison ctx a b pred =
  let na = eval ctx a in
  let nb = eval ctx b in
  node_comparison_seq na nb pred

and eval_name_spec ctx ~element = function
  | Ast.Static_name qn -> qn
  | Ast.Dynamic_name e -> name_spec_atom ~element (Item.one_atom (eval ctx e))

(* Predicates: numeric singleton = positional test, otherwise EBV. *)
and apply_predicates ctx preds items =
  List.fold_left
    (fun items pred ->
      let size = List.length items in
      List.filteri
        (fun i item ->
          let fctx = Context.with_focus ctx item ~pos:(i + 1) ~size in
          let v = eval fctx pred in
          match v with
          | [ Item.Atomic a ] when Atomic.is_numeric a ->
            Float.equal (Atomic.to_double a) (float_of_int (i + 1))
          | v -> Item.effective_boolean_value v)
        items)
    items preds

(* FLWOR: tuples are variable environments. *)
and eval_flwor ctx clauses ret =
  let tuples = eval_clauses ctx [ (Context.fields ctx).vars ] clauses in
  List.concat_map
    (fun vars -> eval (Context.with_vars ctx vars) ret)
    tuples

and eval_clauses ctx tuples = function
  | [] -> tuples
  | Ast.For_clause bindings :: rest ->
    let tuples =
      List.fold_left
        (fun tuples b ->
          List.concat_map
            (fun vars ->
              let items = eval (Context.with_vars ctx vars) b.Ast.for_expr in
              let items =
                match b.Ast.for_type with
                | Some ty ->
                  List.concat_map
                    (fun i ->
                      Seqtype.check
                        ~what:(Printf.sprintf "$%s" (Qname.to_string b.Ast.for_var))
                        ty [ i ])
                    items
                | None -> items
              in
              for_tuples b items vars)
            tuples)
        tuples bindings
    in
    eval_clauses ctx tuples rest
  | Ast.Let_clause bindings :: rest ->
    let tuples =
      List.fold_left
        (fun tuples b ->
          List.map
            (fun vars ->
              let v = eval (Context.with_vars ctx vars) b.Ast.let_expr in
              let v =
                match b.Ast.let_type with
                | Some ty ->
                  Seqtype.check
                    ~what:(Printf.sprintf "$%s" (Qname.to_string b.Ast.let_var))
                    ty v
                | None -> v
              in
              Qmap.add b.Ast.let_var v vars)
            tuples)
        tuples bindings
    in
    eval_clauses ctx tuples rest
  | Ast.Where_clause cond :: rest ->
    let tuples =
      List.filter (fun vars -> ebv (Context.with_vars ctx vars) cond) tuples
    in
    eval_clauses ctx tuples rest
  | Ast.Order_clause (_stable, specs) :: rest ->
    let keyed =
      List.map
        (fun vars ->
          let keys =
            List.map
              (fun spec ->
                ( Item.one_atom_opt (eval (Context.with_vars ctx vars) spec.Ast.key),
                  spec ))
              specs
          in
          (vars, keys))
        tuples
    in
    eval_clauses ctx (order_sort keyed) rest
  | Ast.Join_clause j :: rest ->
    (* build side: hash join_source items by join_build_key *)
    let table = Hashtbl.create 64 in
    let source_items = eval ctx j.Ast.join_source in
    List.iter
      (fun item ->
        let kctx = Context.bind ctx j.Ast.join_var [ item ] in
        match Item.one_atom_opt (eval kctx j.Ast.join_build_key) with
        | Some a ->
          let key = Atomic.to_string a in
          Hashtbl.replace table key
            (match Hashtbl.find_opt table key with
            | Some items -> item :: items
            | None -> [ item ])
        | None -> ())
      source_items;
    let tuples =
      List.concat_map
        (fun vars ->
          let pctx = Context.with_vars ctx vars in
          match Item.one_atom_opt (eval pctx j.Ast.join_probe_key) with
          | Some a -> (
            match Hashtbl.find_opt table (Atomic.to_string a) with
            | Some matches ->
              List.rev_map
                (fun item -> Qmap.add j.Ast.join_var [ item ] vars)
                matches
            | None -> [])
          | None -> [])
        tuples
    in
    eval_clauses ctx tuples rest

(* Adjacent text nodes merge into one in constructed content (XQuery
   3.7.1.3). *)
and merge_text_children el =
  let children = Node.children el in
  let rec has_adjacent = function
    | a :: (b :: _ as rest) ->
      (Node.kind a = Node.Text && Node.kind b = Node.Text)
      || has_adjacent rest
    | _ -> false
  in
  if has_adjacent children then begin
    let rec merged = function
      | a :: b :: rest when Node.kind a = Node.Text && Node.kind b = Node.Text
        ->
        merged (Node.text (Node.text_content a ^ Node.text_content b) :: rest)
      | c :: rest -> c :: merged rest
      | [] -> []
    in
    let nc = merged children in
    List.iter Node.detach children;
    List.iter (Node.append_child el) nc
  end

(* Element construction. *)
and construct_element ctx name attrs contents =
  let el = Node.element name [] in
  List.iter
    (fun (an, parts) ->
      let v =
        String.concat ""
          (List.map
             (function
               | Ast.Attr_str s -> s
               | Ast.Attr_expr e ->
                 String.concat " "
                   (List.map Atomic.to_string (Item.atomize (eval ctx e))))
             parts)
      in
      Node.set_attribute el an v)
    attrs;
  List.iter
    (fun part ->
      match part with
      | Ast.Content_text s -> Node.append_child el (Node.text s)
      | Ast.Content_node e | Ast.Content_expr e ->
        attach_content el (eval ctx e))
    contents;
  merge_text_children el;
  el

(* Attach a sequence as element content per the construction rules:
   adjacent atomics become a space-separated text node; nodes are
   deep-copied; attribute nodes become attributes; document nodes are
   spliced. *)
and attach_content el items =
  let flush_atoms atoms =
    if atoms <> [] then
      Node.append_child el
        (Node.text (String.concat " " (List.rev_map Atomic.to_string atoms)))
  in
  let rec go atoms = function
    | [] -> flush_atoms atoms
    | Item.Atomic a :: rest -> go (a :: atoms) rest
    | Item.Node n :: rest -> (
      flush_atoms atoms;
      match Node.kind n with
      | Node.Attribute -> (
        match Node.name n with
        | Some an -> (
          if Node.children el <> [] then
            err "XQTY0024"
              "attribute nodes must precede other element content";
          match Node.attribute_value el an with
          | Some _ ->
            err "XQDY0025"
              (Printf.sprintf "duplicate attribute %S" (Qname.to_string an))
          | None ->
            Node.set_attribute el an (Node.string_value n);
            go [] rest)
        | None -> go [] rest)
      | Node.Document ->
        List.iter
          (fun c -> Node.append_child el (Node.deep_copy c))
          (Node.children n);
        go [] rest
      | _ ->
        Node.append_child el (Node.deep_copy n);
        go [] rest)
  in
  (* reversed-atom accumulation keeps order: we reverse on flush *)
  go [] items

and call ctx name arg_vals =
  let fields = Context.fields ctx in
  let arity = List.length arg_vals in
  match Context.find fields.registry name arity with
  | None ->
    Item.raise_error (Qname.err "XPST0017")
      (Printf.sprintf "unknown function %s/%d" (Qname.to_string name) arity)
  | Some f -> (
    let run () = invoke ctx fields name f arg_vals in
    match (fields.cache, f.Context.fn_impl) with
    | ( Some b,
        (Context.User _ | Context.External _ | Context.External_cursor _) ) ->
      (* the result cache only ever sees host/user functions: builtins
         are language primitives, never data-service reads *)
      Cache.through b name arg_vals run
    | _ -> run ())

and invoke ctx fields name f arg_vals =
  match f.Context.fn_impl with
  | Context.Builtin impl -> impl ctx arg_vals
  | Context.External impl -> impl arg_vals
  | Context.External_cursor impl ->
    Cursor.to_list ~instr:fields.instr (impl arg_vals)
  | Context.User decl ->
    let ctx = Context.deeper ctx in
      let params = decl.Ast.fd_params in
      let checked =
        List.map2
          (fun (pname, pty) v ->
            let v =
              match pty with
              | Some ty ->
                Seqtype.check
                  ~what:(Printf.sprintf "argument $%s of %s"
                           (Qname.to_string pname) (Qname.to_string name))
                  ty v
              | None -> v
            in
            (pname, v))
          params arg_vals
      in
      let base = Context.globals fields.registry in
      let vars =
        List.fold_left (fun m (n, v) -> Qmap.add n v m) base checked
      in
      let body =
        match decl.Ast.fd_body with
        | Some b -> b
        | None ->
          Item.raise_error (Qname.err "XPST0017")
            (Printf.sprintf "external function %s has no implementation"
               (Qname.to_string name))
      in
      let fctx = Context.no_focus (Context.with_vars ctx vars) in
      let result = eval fctx body in
      (match decl.Ast.fd_return with
      | Some ty ->
        Seqtype.check
          ~what:(Printf.sprintf "result of %s" (Qname.to_string name))
          ty result
      | None -> result)

and range_bounds ctx a b =
  let va = eval ctx a in
  let vb = eval ctx b in
  range_bounds_seq va vb

(* Shared tail of path evaluation: node/atomic homogeneity check and
   document-order sort. *)
and path_finish results =
  let all_nodes =
    List.for_all (function Item.Node _ -> true | _ -> false) results
  in
  let all_atomic =
    List.for_all (function Item.Atomic _ -> true | _ -> false) results
  in
  if all_nodes then Item.doc_sort results
  else if all_atomic then results
  else
    Item.raise_error (Qname.err "XPTY0018")
      "path result mixes nodes and atomic values"

(* Eager path schedule over a pre-evaluated left sequence. *)
and path_over ctx left b =
  let size = List.length left in
  path_finish
    (List.concat
       (List.mapi
          (fun i item ->
            eval (Context.with_focus ctx item ~pos:(i + 1) ~size) b)
          left))

let eval_updating ctx e = statement_updates ctx (fun u -> eval u e)

(* fn:subsequence with the sequence argument streamed, for the compiled
   streaming call: the cursor arrives already opened and the
   start/length arguments arrive as thunks. The thunks
   are forced after the cursor is opened, matching the eager
   left-to-right argument order; when the cursor is impure it is
   materialized first (restoring the exact eager schedule), when pure
   the pending pulls commute with those evaluations. Index arithmetic is
   byte-for-byte the eager builtin's. *)
let streaming_subsequence ctx c startv lenv =
  let pre = if Cursor.is_pure c then None else Some (materialize ctx c) in
  let dbl v =
    match Item.one_atom_opt (v ()) with
    | None -> None
    | Some a -> (
      try Some (Atomic.to_double a)
      with Atomic.Cast_error m -> err "XPTY0004" m)
  in
  let bounds =
    match lenv with
    | None -> (
      match dbl startv with
      | None -> None
      | Some s -> Some (Builtins.subsequence_window s None))
    | Some lv -> (
      let sv = dbl startv in
      let lv = dbl lv in
      match (sv, lv) with
      | None, _ | _, None -> None
      | Some s, Some l -> Some (Builtins.subsequence_window s (Some l)))
  in
  match bounds with
  | None ->
    (match pre with None -> Cursor.abandon c | Some _ -> ());
    []
  | Some ((start, stop) as w) -> (
    match pre with
    | Some items ->
      List.filteri (fun i _ -> Builtins.subsequence_keep w (i + 1)) items
    | None ->
      if Float.is_nan start || Float.is_nan stop then begin
        (* no position can pass a NaN bound: nothing to collect *)
        Cursor.abandon c;
        []
      end
      else
        (* once the position reaches the exclusive upper bound no later
           position can match either — safe to abandon *)
        let rec go i acc =
          if float_of_int (i + 1) >= stop then begin
            Cursor.abandon c;
            List.rev acc
          end
          else
            match Cursor.next c with
            | None -> List.rev acc
            | Some x ->
              go (i + 1)
                (if Builtins.subsequence_keep w (i + 1) then x :: acc else acc)
        in
        go 0 [])

(* ------------------------------------------------------------------ *)
(* Stage 2: closure compilation                                         *)
(* ------------------------------------------------------------------ *)

(* [compile] walks an expression once and closes over everything the
   tree-walking evaluator re-derives per evaluation: constructor
   dispatch, name resolution against the registry, purity/streaming
   gate verdicts and nested sub-plans. The resulting [plan] is a plain
   closure [ctx -> seq] whose observable behaviour — items, effects,
   errors, evaluation order — is identical to the eager walker [eval];
   every arm below mirrors its [eval] arm, with the per-evaluation
   analysis hoisted to compile time, and the streaming arms add cursor
   schedules the walker does not have. No arm calls back into the
   walker: production runs compiled plans only, and the walker stays
   as the reference they are tested against.

   What is fixed at compile time (and therefore part of the plan-cache
   fingerprint the session maintains): the registry contents for
   names that resolve, and the purity environment. Both are sound to
   freeze: [Context.register] rejects redefinition, so a name that
   resolved at compile time cannot change, and a name that did *not*
   resolve compiles to a runtime-lookup fallback so late registrations
   (XQSE readonly procedures declared mid-block) still work and a name
   that is never executed still raises XPST0017 only on execution.

   What stays dynamic: variables, focus, documents and collections come
   from the context; each streaming arm checks its source cursor's
   purity when it opens it. *)

type plan = Context.dynamic -> Item.seq

(* Sub-plan memo keyed on physical identity: an expression node needed
   both eagerly and as a cursor (or shared after optimizer rewrites) is
   compiled once per mode, which also bounds compilation of nested
   [Seq_expr]/[Path] chains that would otherwise recompile subtrees
   exponentially. *)
module PhysTbl = Hashtbl.Make (struct
  type t = Ast.expr

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type compiler = {
  c_purity : Ast.expr -> bool * bool * bool;
  c_registry : Context.registry;
  c_base : compiler option;
      (* compiled user functions this compiler reuses; only ever read *)
  c_eager : plan PhysTbl.t;
  c_cur : (Context.dynamic -> Item.t Cursor.t) PhysTbl.t;
  c_fns :
    ( string * string * int,
      Ast.function_decl * (Context.dynamic -> Item.seq list -> Item.seq) )
    Hashtbl.t;
      (* per-(uri, local, arity) compiled user-function bodies, with the
         declaration each was compiled from; entries are installed as
         forward references before the body compiles, which ties the
         knot for (mutually) recursive functions *)
}

let compiler ?base ?(purity = fun _ -> (true, true, true)) registry =
  {
    c_purity = purity;
    c_registry = registry;
    c_base = base;
    c_eager = PhysTbl.create 64;
    c_cur = PhysTbl.create 16;
    c_fns = Hashtbl.create 8;
  }

let verdict cc e = cc.c_purity e

(* ---- keyed-read predicate forms ---- *)

(* the argument of a call to the built-in [fn:data] *)
let data_arg cc = function
  | Ast.Call (q, [ e ])
    when String.equal q.Qname.uri Qname.fn_ns
         && String.equal q.Qname.local "data"
         && (match Context.find cc.c_registry q 1 with
            | Some { Context.fn_impl = Context.Builtin _; _ } -> true
            | _ -> false) ->
    Some e
  | _ -> None

(* [fn:data(e)] compares like [e]: comparisons atomize their operands *)
let strip_data cc e = match data_arg cc e with Some a -> a | None -> e

(* [$v/COL]: a child step by an unprefixed name from a variable. When
   [$v] holds exactly one unbuilt row element (DESIGN.md §13), the
   column is that row's cell: the row has one child named COL, whose
   text is the cell, or none when the column is NULL. The compiled
   plans read [fn:data($v/COL)], a keyed read's key [$v/COL] and the
   leaf [<N>{fn:data($v/COL)}</N>] from the cell; anything else takes
   the general plan. *)
let row_column = function
  | Ast.Path (Ast.Var v, Ast.Step (Ast.Child, Ast.Name_test q, []))
    when String.equal q.Qname.uri "" ->
    Some (v, q)
  | _ -> None

(* The columns one plan site reads from a row, resolved against the
   layout of the last row seen there: rows of one table read, and view
   rows of one constructor, share a layout, so the name search runs once
   per site and layout, not once per row. A site is the cell holding
   that resolution; domains sharing the plan may replace it, and each
   reads a consistent one. *)
type resolution = { layout : Node.layout; columns : int array }

(* a site's cell before its first row: no row is made on this layout *)
let unresolved = { layout = Node.layout (Qname.local "") [||]; columns = [||] }

(* A site reading [names]: for a row, each name's position in its
   layout, or [-1] where it has none *)
let column_site names =
  let site = Stdlib.Atomic.make unresolved in
  fun n ->
    let l = Node.row_layout n in
    let r = Stdlib.Atomic.get site in
    if r.layout == l then r.columns
    else begin
      let columns = Array.map (Node.layout_column l) names in
      Stdlib.Atomic.set site { layout = l; columns };
      columns
    end

(* The data-service leaf [<N>{fn:data($v/COL)}</N>]: [N], the
   [fn:data] call and its argument, and [(v, COL)]. *)
let ds_leaf cc = function
  | Ast.Elem_ctor
      (name, [], [ Ast.Content_expr (Ast.Call (call, ([ _ ] as args)) as c) ])
    -> (
    match Option.bind (data_arg cc c) row_column with
    | Some vc -> Some (name, (call, args), vc)
    | None -> None)
  | _ -> None

let rec distinct = function
  | [] -> true
  | q :: rest -> (not (List.exists (Qname.equal q) rest)) && distinct rest

(* A constructor that only projects one row: no attributes, and every
   content a data-service leaf over one variable, no two leaves of one
   name (a row's columns are named apart: [$r/A] reads one cell).
   Returns the variable and the leaves. *)
let projection cc contents =
  let leaf = function
    | Ast.Content_node e | Ast.Content_expr e -> ds_leaf cc e
    | Ast.Content_text _ -> None
  in
  match List.map leaf contents with
  | Some (_, _, (v, _)) :: _ as leaves
    when List.for_all
           (function Some (_, _, (v', _)) -> Qname.equal v v' | None -> false)
           leaves ->
    let leaves = List.filter_map Fun.id leaves in
    if distinct (List.map (fun (n, _, _) -> n) leaves) then Some (v, leaves)
    else None
  | _ -> None

(* the row side: a child step naming one of the read's text columns,
   or that step projected through an element constructor — an unfolded
   view's key [<N>{fn:data(./COL)}</N>] (DESIGN.md §10), which atomizes
   to the column's string, or to [""] on a NULL row. [true] marks the
   projection. *)
let key_column cc (kr : Context.keyed_read) e =
  let column = function
    | Ast.Step (Ast.Child, Ast.Name_test q, [])
    | Ast.Path (Ast.Context_item, Ast.Step (Ast.Child, Ast.Name_test q, []))
      when String.equal q.Qname.uri "" && List.mem q.Qname.local kr.kr_columns
      ->
      Some q.Qname.local
    | _ -> None
  in
  match strip_data cc e with
  | Ast.Elem_ctor (_, [], [ Ast.Content_expr c ]) ->
    Option.map (fun col -> (col, true)) (column (strip_data cc c))
  | e -> Option.map (fun col -> (col, false)) (column e)

(* the key side: a literal, a variable, or a child path from a variable *)
let rec is_key_path = function
  | Ast.Var _ -> true
  | Ast.Path (a, Ast.Step (Ast.Child, Ast.Name_test _, [])) -> is_key_path a
  | _ -> false

let is_key = function Ast.Literal _ -> true | e -> is_key_path e

(* [COL eq K], [K eq COL] or the [=] forms: the column, whether it is
   projected, and the key *)
let keyed_pred cc kr pred =
  let split col key =
    match key_column cc kr col with
    | Some (c, projected) when is_key (strip_data cc key) ->
      Some (c, projected, key)
    | _ -> None
  in
  match pred with
  | Ast.Value_cmp (Ast.Eq, l, r) | Ast.General_cmp (Ast.Eq, l, r) -> (
    match split l r with Some _ as m -> m | None -> split r l)
  | _ -> None

(* A text column's row element atomizes to xs:untypedAtomic, which
   equals a single xs:string or xs:untypedAtomic key exactly when the
   two strings are equal — the keyed select's own test. *)
let text_key v =
  match Item.atomize v with
  | [ (Atomic.String s | Atomic.Untyped s) ] -> Some s
  | _ -> None

(* ---- construction on the compiled path (DESIGN.md §14) ---- *)

(* Can a node that [e] yields only have been built by [e] itself, so that
   nothing else reaches it once [e] returns? A constructor then adopts
   such content instead of deep-copying it. Literals yield no node;
   anything else (a variable, path, context item, call, typeswitch,
   copy-modify, ...) may yield a node that is reachable elsewhere. *)
let rec fresh_content = function
  | Ast.Elem_ctor _ | Ast.Comp_elem _ | Ast.Comp_attr _ | Ast.Comp_text _
  | Ast.Comp_doc _ | Ast.Comp_comment _ | Ast.Comp_pi _ | Ast.Literal _ ->
    true
  | Ast.If_expr (_, t, e) -> fresh_content t && fresh_content e
  | Ast.Seq_expr es -> List.for_all fresh_content es
  | Ast.Flwor (_, ret) -> fresh_content ret
  | _ -> false

(* A compiled constructor gathers its children newest first and sets
   them once at the end. Adjacent text merges as it arrives, so the
   children are the walker's [attach_content] then [merge_text_children]. *)
let push_child rev n =
  match rev with
  | prev :: rest when Node.kind n = Node.Text && Node.kind prev = Node.Text ->
    Node.text (Node.text_content prev ^ Node.text_content n) :: rest
  | _ -> n :: rev

(* [atoms] newest first *)
let text_of_atoms = function
  | [ a ] -> Node.text (Atomic.to_string a)
  | atoms -> Node.text (String.concat " " (List.rev_map Atomic.to_string atoms))

let flush_atoms atoms rev =
  match atoms with [] -> rev | _ -> push_child rev (text_of_atoms atoms)

(* a node of [fresh] content that has no parent is adopted, any other
   node is deep-copied *)
let own ~fresh n =
  if fresh && Option.is_none (Node.parent n) then n else Node.deep_copy n

let rec splice ~fresh rev = function
  | [] -> rev
  | c :: rest -> splice ~fresh (push_child rev (own ~fresh c)) rest

(* [attach_content]'s rules over the children gathered so far ([rev],
   newest first) and the atoms not yet flushed. The helpers are
   top-level functions, so a constructor allocates only what it builds. *)
let rec add_content el ~fresh atoms rev = function
  | [] -> flush_atoms atoms rev
  | Item.Atomic a :: rest -> add_content el ~fresh (a :: atoms) rev rest
  | Item.Node n :: rest -> (
    let rev = flush_atoms atoms rev in
    match Node.kind n with
    | Node.Attribute -> (
      match Node.name n with
      | Some an -> (
        if rev <> [] then
          err "XQTY0024" "attribute nodes must precede other element content";
        match Node.attribute_value el an with
        | Some _ ->
          err "XQDY0025"
            (Printf.sprintf "duplicate attribute %S" (Qname.to_string an))
        | None ->
          Node.set_attribute el an (Node.string_value n);
          add_content el ~fresh [] rev rest)
      | None -> add_content el ~fresh [] rev rest)
    | Node.Document ->
      add_content el ~fresh [] (splice ~fresh rev (Node.children n)) rest
    | _ -> add_content el ~fresh [] (push_child rev (own ~fresh n)) rest)

(* a direct constructor's content parts, in order *)
let rec gather_parts ctx el rev = function
  | [] -> rev
  | `Text s :: rest -> gather_parts ctx el (push_child rev (Node.text s)) rest
  | `Expr (p, fresh) :: rest ->
    gather_parts ctx el (add_content el ~fresh [] rev (p ctx)) rest

let attach_children parent rev =
  Node.insert_children parent ~pos:`Last (List.rev rev)

(* A direct constructor's plan over its compiled attributes and
   contents: the element named by [tag] *)
let elem_ctor_plan tag cattrs ccontents ctx =
  let el = Node.element_of_tag tag [] in
  if cattrs <> [] then
    List.iter
      (fun (an, parts) ->
        let v =
          String.concat ""
            (List.map
               (function
                 | `Str s -> s
                 | `Expr p ->
                   String.concat " "
                     (List.map Atomic.to_string (Item.atomize (p ctx))))
               parts)
        in
        Node.set_attribute el an v)
      cattrs;
  attach_children el (gather_parts ctx el [] ccontents);
  [ Item.Node el ]

(* the eager FLWOR schedule over compiled clauses: every clause over all
   tuples in turn, then the return expression per tuple *)
let run_clauses ctx cclauses pret tuples =
  let tuples = List.fold_left (fun tuples cl -> cl ctx tuples) tuples cclauses in
  List.concat_map (fun vars -> pret (Context.with_vars ctx vars)) tuples

let rec compile cc e =
  match PhysTbl.find_opt cc.c_eager e with
  | Some p -> p
  | None ->
    let p = compile_expr cc e in
    PhysTbl.replace cc.c_eager e p;
    p

and compile_cur cc e =
  match PhysTbl.find_opt cc.c_cur e with
  | Some p -> p
  | None ->
    let p = compile_cur_expr cc e in
    PhysTbl.replace cc.c_cur e p;
    p

and compile_expr cc (e : Ast.expr) : plan =
  match e with
  | Ast.Literal a ->
    let v = [ Item.Atomic a ] in
    fun _ -> v
  | Ast.Var q -> (
    fun ctx ->
      match Context.lookup_var ctx q with
      | Some v -> v
      | None ->
        Item.raise_error (Qname.err "XPST0008")
          (Printf.sprintf "undefined variable $%s" (Qname.to_string q)))
  | Ast.Context_item -> (
    fun ctx ->
      match (Context.fields ctx).ctx_item with
      | Some item -> [ item ]
      | None -> err "XPDY0002" "the context item is not defined")
  | Ast.Seq_expr es ->
    let ps = List.map (compile cc) es in
    fun ctx -> List.concat_map (fun p -> p ctx) ps
  | Ast.Range (a, b) ->
    let pa = compile cc a and pb = compile cc b in
    fun ctx -> (
      let va = pa ctx in
      let vb = pb ctx in
      match range_bounds_seq va vb with
      | None -> []
      | Some (lo, hi) -> range_list lo hi)
  | Ast.Arith (op, a, b) ->
    let pa = compile cc a and pb = compile cc b in
    fun ctx ->
      let va = pa ctx in
      let vb = pb ctx in
      arith_seq op va vb
  | Ast.Neg a ->
    let pa = compile cc a in
    fun ctx -> neg_seq (pa ctx)
  | Ast.And (a, b) ->
    let ca = compile_cur cc a and cb = compile_cur cc b in
    fun ctx -> Item.bool (ebv_cur (ca ctx) && ebv_cur (cb ctx))
  | Ast.Or (a, b) ->
    let ca = compile_cur cc a and cb = compile_cur cc b in
    fun ctx -> Item.bool (ebv_cur (ca ctx) || ebv_cur (cb ctx))
  | Ast.General_cmp (op, a, b) ->
    let pa = compile cc a and pb = compile cc b in
    fun ctx ->
      let va = pa ctx in
      let vb = pb ctx in
      general_cmp_seq op va vb
  | Ast.Value_cmp (op, a, b) ->
    let pa = compile cc a and pb = compile cc b in
    fun ctx ->
      let va = pa ctx in
      let vb = pb ctx in
      value_cmp_seq op va vb
  | Ast.Node_is (a, b) ->
    compile_node_comparison cc a b (fun x y -> Node.is_same x y)
  | Ast.Node_before (a, b) ->
    compile_node_comparison cc a b (fun x y -> Node.doc_order x y < 0)
  | Ast.Node_after (a, b) ->
    compile_node_comparison cc a b (fun x y -> Node.doc_order x y > 0)
  | Ast.Union (a, b) ->
    let pa = compile cc a and pb = compile cc b in
    fun ctx -> Item.doc_sort (pa ctx @ pb ctx)
  | Ast.Intersect (a, b) ->
    let pa = compile cc a and pb = compile cc b in
    fun ctx ->
      let nb = Item.nodes_only (pb ctx) in
      Item.doc_sort
        (List.filter
           (function
             | Item.Node n -> List.exists (Node.is_same n) nb
             | Item.Atomic _ -> Item.type_error "intersect requires nodes")
           (pa ctx))
  | Ast.Except (a, b) ->
    let pa = compile cc a and pb = compile cc b in
    fun ctx ->
      let nb = Item.nodes_only (pb ctx) in
      Item.doc_sort
        (List.filter
           (function
             | Item.Node n -> not (List.exists (Node.is_same n) nb)
             | Item.Atomic _ -> Item.type_error "except requires nodes")
           (pa ctx))
  | Ast.Instance_of (a, ty) ->
    let pa = compile cc a in
    fun ctx -> Item.bool (Seqtype.matches ty (pa ctx))
  | Ast.Treat_as (a, ty) ->
    let pa = compile cc a in
    fun ctx ->
      let v = pa ctx in
      if Seqtype.matches ty v then v
      else
        Item.raise_error (Qname.err "XPDY0050")
          (Printf.sprintf "treat as %s failed" (Seqtype.to_string ty))
  | Ast.Castable_as (a, ty, opt) -> (
    let pa = compile cc a in
    fun ctx ->
      match Item.atomize (pa ctx) with
      | [] -> Item.bool opt
      | [ v ] -> Item.bool (Atomic.can_cast_to v ty)
      | _ -> Item.bool false)
  | Ast.Cast_as (a, ty, opt) -> (
    let pa = compile cc a in
    fun ctx ->
      match Item.atomize (pa ctx) with
      | [] ->
        if opt then []
        else err "XPTY0004" "cast of an empty sequence to a non-optional type"
      | [ v ] -> (
        try [ Item.Atomic (Atomic.cast_to v ty) ]
        with Atomic.Cast_error msg -> err "FORG0001" msg)
      | _ -> err "XPTY0004" "cast of a sequence of more than one item")
  | Ast.If_expr (c, t, e2) ->
    let ccond = compile_cur cc c in
    let pt = compile cc t and pe = compile cc e2 in
    fun ctx -> if ebv_cur (ccond ctx) then pt ctx else pe ctx
  | Ast.Typeswitch (operand, cases, (dvar, default)) -> (
    let pop = compile cc operand in
    let ccases = List.map (fun c -> (c, compile cc c.Ast.case_return)) cases in
    let pdef = compile cc default in
    fun ctx ->
      let v = pop ctx in
      match
        List.find_opt (fun (c, _) -> Seqtype.matches c.Ast.case_type v) ccases
      with
      | Some (c, pret) ->
        let ctx =
          match c.Ast.case_var with
          | Some var -> Context.bind ctx var v
          | None -> ctx
        in
        pret ctx
      | None ->
        let ctx =
          match dvar with Some var -> Context.bind ctx var v | None -> ctx
        in
        pdef ctx)
  | Ast.Flwor (clauses, ret) -> (
    match compile_flwor_stream cc clauses ret with
    | Some splan -> fun ctx -> materialize ctx (splan ctx)
    | None ->
      let cclauses = List.map (compile_clause cc) clauses in
      let pret = compile cc ret in
      fun ctx -> run_clauses ctx cclauses pret [ (Context.fields ctx).vars ])
  | Ast.Quantified (quant, bindings, body) -> (
    let cbody_cur = compile_cur cc body in
    (* Single-binding quantifier over a pure source: pull, test, stop
       on the deciding item. The eager schedule materializes the (pure)
       source first and then short-circuits the same tests in the same
       order, so interleaving pure pulls between tests is unobservable. *)
    match bindings with
    | [ (v, None, src) ] ->
      let csrc = compile_cur cc src in
      fun ctx ->
        let c = csrc ctx in
        let test item = ebv_cur (cbody_cur (Context.bind ctx v [ item ])) in
        if Cursor.is_pure c then
          let rec go () =
            match Cursor.next c with
            | None -> (
              match quant with Ast.Some_q -> false | Ast.Every_q -> true)
            | Some item -> (
              match (quant, test item) with
              | Ast.Some_q, true ->
                Cursor.abandon c;
                true
              | Ast.Every_q, false ->
                Cursor.abandon c;
                false
              | _ -> go ())
          in
          Item.bool (go ())
        else
          let items = materialize ctx c in
          Item.bool
            (match quant with
            | Ast.Some_q -> List.exists test items
            | Ast.Every_q -> List.for_all test items)
    | _ ->
      let cbindings =
        List.map (fun (v, ty, src) -> (v, ty, compile cc src)) bindings
      in
      fun ctx ->
        let rec go ctx = function
          | [] -> ebv_cur (cbody_cur ctx)
          | (v, ty, psrc) :: rest ->
            let items = psrc ctx in
            let items =
              match ty with
              | Some t ->
                List.map
                  (fun i ->
                    match Seqtype.check ~what:(Qname.to_string v) t [ i ] with
                    | [ i' ] -> i'
                    | _ -> i)
                  items
              | None -> items
            in
            let test item = go (Context.bind ctx v [ item ]) rest in
            (match quant with
            | Ast.Some_q -> List.exists test items
            | Ast.Every_q -> List.for_all test items)
        in
        Item.bool (go ctx cbindings))
  | Ast.Path (a, b) ->
    (* Stream the left side of a path: pull one left item at a time and
       apply the step under the correct position. Gates: the step must
       not construct (cross-tree document order is allocation order, so
       interleaving a constructing step with a constructing source would
       be observable), must not have effects, must not mention fn:last()
       (the focus size is never computed — the step sees a dummy size),
       and may be fallible only over a pure left side (two fallible
       streams would reorder errors relative to the eager schedule). The
       result is still materialized and doc-sorted; the win is never
       holding the full left sequence, so a left side whose cursor would
       only wrap its list (a variable, another path) is taken as that
       list. A forward step from a single node needs no sort: its result
       is already distinct and in document order. *)
    let eff, fall, cons = cc.c_purity b in
    let over, one_node = compile_path_step cc b in
    if eff || cons || mentions_last b || not (cursor_streams a) then
      let pa = compile cc a in
      fun ctx -> compile_path_over ctx ~one_node (pa ctx) over
    else
      let ca = compile_cur cc a in
      fun ctx ->
        let la = ca ctx in
        if fall && not (Cursor.is_pure la) then
          compile_path_over ctx ~one_node (materialize ctx la) over
        else begin
          let rec go i acc =
            match Cursor.next la with
            | None -> path_finish (List.rev acc)
            | Some item -> go (i + 1) (List.rev_append (over ctx item i 0) acc)
          in
          match Cursor.next la with
          | None -> []
          | Some item -> (
            let r = over ctx item 1 0 in
            match Cursor.next la with
            (* the step accepted [item], so it was a node *)
            | None -> if one_node then r else path_finish r
            | Some item2 ->
              go 3 (List.rev_append (over ctx item2 2 0) (List.rev r)))
        end
  | Ast.Root_expr -> (
    fun ctx ->
      match (Context.fields ctx).ctx_item with
      | Some (Item.Node n) -> [ Item.Node (Node.root n) ]
      | Some (Item.Atomic _) -> err "XPTY0020" "the context item is not a node"
      | None -> err "XPDY0002" "the context item is not defined")
  | Ast.Step (axis, nt, preds) -> (
    let step = compile_step cc axis nt preds in
    fun ctx ->
      match (Context.fields ctx).ctx_item with
      | Some (Item.Node n) -> step ctx n
      | Some (Item.Atomic _) -> err "XPTY0020" "the context item is not a node"
      | None -> err "XPDY0002" "the context item is not defined")
  | Ast.Filter (prim, preds) -> (
    let cpreds = compile_predicates cc preds in
    let eager () =
      let cprim = compile cc prim in
      fun ctx -> cpreds ctx (cprim ctx)
    in
    match preds with
    (* positional [n] over a pure source pulls exactly n items *)
    | [ Ast.Literal (Atomic.Integer k) ] when k >= 1 ->
      let cprim_cur = compile_cur cc prim in
      fun ctx ->
        let c = cprim_cur ctx in
        if not (Cursor.is_pure c) then cpreds ctx (materialize ctx c)
        else
          let rec go i =
            match Cursor.next c with
            | None -> []
            | Some x ->
              if i = k then begin
                Cursor.abandon c;
                [ x ]
              end
              else go (i + 1)
          in
          go 1
    | first :: rest -> (
      match compile_keyed_filter cc prim first rest with
      | Some keyed -> keyed
      | None -> eager ())
    | [] -> eager ())
  | Ast.Call (name, args) ->
    compile_streaming_call cc name args
  | Ast.Elem_ctor (name, attrs, contents) -> (
    match (ds_leaf cc e, projection cc contents) with
    | Some (_, call, (v, q)), _ -> (
      (* the data-service leaf [<N>{fn:data($v/COL)}</N>] over one
         unbuilt row: the general plan's element, with the cell as its
         one text child (none when NULL), made in the same order *)
      let tag = Node.tag name and column = column_site [| q |] in
      let general = leaf_general cc tag call in
      fun ctx ->
        match Context.lookup_var ctx v with
        | Some [ Item.Node n ] when Node.unbuilt_row n ->
          let el = Node.element_of_tag tag [] in
          let i = (column n).(0) in
          if i >= 0 then
            Node.insert_children el ~pos:`Last [ Node.text (Node.row_text n i) ];
          [ Item.Node el ]
        | _ -> general ctx)
    | None, Some (v, leaves) when attrs = [] -> (
      (* a constructor that only projects one unbuilt row: a view row
         over its cells, whose leaves are built on first navigation *)
      let names = Array.of_list (List.map (fun (n, _, _) -> n) leaves)
      and columns = Array.of_list (List.map (fun (_, _, (_, c)) -> c) leaves) in
      let layout = Node.layout name names and site = column_site columns in
      let general =
        elem_ctor_plan (Node.tag name) []
          (List.map
             (fun (n, call, _) -> `Expr (leaf_general cc (Node.tag n) call, true))
             leaves)
      in
      fun ctx ->
        match Context.lookup_var ctx v with
        | Some [ Item.Node n ] when Node.unbuilt_row n ->
          [ Item.Node (Node.view_row layout n (site n)) ]
        | _ -> general ctx)
    | _ -> compile_elem_ctor cc name attrs contents)
  | Ast.Comp_elem (name_spec, content) ->
    let cname = compile_name_spec cc ~element:true name_spec in
    let pc = compile cc content in
    let fresh = fresh_content content in
    fun ctx ->
      let name = cname ctx in
      let items = pc ctx in
      let el = Node.element name [] in
      attach_children el (add_content el ~fresh [] [] items);
      [ Item.Node el ]
  | Ast.Comp_attr (name_spec, content) ->
    let cname = compile_name_spec cc ~element:false name_spec in
    let pc = compile cc content in
    fun ctx ->
      let name = cname ctx in
      let v =
        String.concat " "
          (List.map Atomic.to_string (Item.atomize (pc ctx)))
      in
      [ Item.Node (Node.attribute name v) ]
  | Ast.Comp_text content -> (
    let pc = compile cc content in
    fun ctx ->
      match Item.atomize (pc ctx) with
      | [] -> []
      | atoms ->
        [ Item.Node
            (Node.text (String.concat " " (List.map Atomic.to_string atoms)))
        ])
  | Ast.Comp_doc content ->
    let pc = compile cc content in
    let fresh = fresh_content content in
    fun ctx ->
      let items = pc ctx in
      (* attributes land on the holder and are dropped, as the walker's *)
      let holder = Node.element (Qname.local "holder") [] in
      let rev = add_content holder ~fresh [] [] items in
      let doc = Node.document [] in
      attach_children doc rev;
      [ Item.Node doc ]
  | Ast.Comp_comment content ->
    let pc = compile cc content in
    fun ctx ->
      let s =
        String.concat " "
          (List.map Atomic.to_string (Item.atomize (pc ctx)))
      in
      [ Item.Node (Node.comment s) ]
  | Ast.Comp_pi (name_spec, content) ->
    let cname = compile_name_spec cc ~element:false name_spec in
    let pc = compile cc content in
    fun ctx ->
      let name = cname ctx in
      let s =
        String.concat " "
          (List.map Atomic.to_string (Item.atomize (pc ctx)))
      in
      [ Item.Node (Node.processing_instruction name.Qname.local s) ]
  | Ast.Insert (pos, source, target) ->
    let psrc = compile cc source and ptgt = compile cc target in
    fun ctx ->
      check_updating ctx;
      let sources = copy_nodes (psrc ctx) in
      push_insert ctx pos sources (Item.one_node (ptgt ctx));
      []
  | Ast.Delete target ->
    let ptgt = compile cc target in
    fun ctx ->
      check_updating ctx;
      push_delete ctx (ptgt ctx);
      []
  | Ast.Replace { value_of; target; source } ->
    let ptgt = compile cc target and psrc = compile cc source in
    fun ctx ->
      check_updating ctx;
      let target = Item.one_node (ptgt ctx) in
      push_update ctx (replace_update ~value_of target (psrc ctx));
      []
  | Ast.Rename (target, name_spec) ->
    let ptgt = compile cc target in
    let cname = compile_name_spec cc ~element:true name_spec in
    fun ctx ->
      check_updating ctx;
      let target = Item.one_node (ptgt ctx) in
      push_update ctx (Update.Rename_node (target, cname ctx));
      []
  | Ast.Transform (copies, modify, ret) ->
    let ccopies = List.map (fun (v, e) -> (v, compile cc e)) copies in
    let pmod = compile cc modify and pret = compile cc ret in
    fun ctx ->
      let ctx =
        List.fold_left
          (fun ctx (v, p) ->
            Context.bind ctx v
              [ Item.Node (Node.deep_copy (Item.one_node (p ctx))) ])
          ctx ccopies
      in
      Update.apply (modify_updates ctx pmod);
      pret ctx

and compile_node_comparison cc a b pred =
  let pa = compile cc a and pb = compile cc b in
  fun ctx ->
    let na = pa ctx in
    let nb = pb ctx in
    node_comparison_seq na nb pred

and compile_name_spec cc ~element = function
  | Ast.Static_name qn -> fun _ -> qn
  | Ast.Dynamic_name e ->
    let pe = compile cc e in
    fun ctx -> name_spec_atom ~element (Item.one_atom (pe ctx))

and compile_elem_ctor cc name attrs contents =
  let cattrs =
    List.map
      (fun (an, parts) ->
        ( an,
          List.map
            (function
              | Ast.Attr_str s -> `Str s
              | Ast.Attr_expr e -> `Expr (compile cc e))
            parts ))
      attrs
  in
  let ccontents =
    List.map
      (function
        | Ast.Content_text s -> `Text s
        | Ast.Content_node e | Ast.Content_expr e ->
          `Expr (compile cc e, fresh_content e))
      contents
  in
  elem_ctor_plan (Node.tag name) cattrs ccontents

(* A data-service leaf's general plan: the element around a plain
   [fn:data] call. It runs only when the leaf's variable does not hold
   one unbuilt row, so the call's own cell read could never fire and is
   not compiled. *)
and leaf_general cc tag (call, args) =
  elem_ctor_plan tag [] [ `Expr (compile_apply cc call args, false) ]

(* The keyed read: [T()[COL eq K] ...] over a keyed table read makes
   the read's one guarded open, then — only when the opened version has
   rows — evaluates K once. A single string-like key selects the rows
   whose COL is that string from the same version (a primary-key lookup
   or index probe when one covers COL); any other key — and the key
   [""] against a projected COL, which NULL rows also match — runs the
   first predicate per row over the rows already opened, exactly as the
   generic filter would. The key forms ignore the focus and are pure, so
   one evaluation stands for the per-row ones: the same value, and the
   same error on the first row. Either way the later predicates then
   filter the result as usual. The result cache is never consulted, so
   a bound cache counts a bypass. *)
and compile_keyed_filter cc prim first rest =
  match prim with
  | Ast.Call (name, []) -> (
    match Context.find cc.c_registry name 0 with
    | Some { Context.fn_keyed = Some kr; _ } -> (
      match keyed_pred cc kr first with
      | None -> None
      | Some (column, projected, key) ->
        let ckey = compile cc key in
        let key_text =
          match row_column key with
          | None -> fun ctx -> text_key (ckey ctx)
          | Some (v, q) -> (
            let column = column_site [| q |] in
            fun ctx ->
              match Context.lookup_var ctx v with
              | Some [ Item.Node n ] when Node.unbuilt_row n ->
                let i = (column n).(0) in
                if i < 0 then None else Some (Node.row_text n i)
              | _ -> text_key (ckey ctx))
        in
        let cfirst = compile_predicates cc [ first ] in
        let crest = compile_predicates cc rest in
        Some
          (fun ctx ->
            count_bypass (Context.fields ctx);
            let r = kr.Context.kr_open () in
            let rows =
              if r.Context.tr_empty then begin
                r.Context.tr_release ();
                []
              end
              else
                match key_text ctx with
                | Some k when not (projected && k = "") ->
                  materialize ctx (r.Context.tr_rows (Some (column, k)))
                | Some _ | None ->
                  cfirst ctx (materialize ctx (r.Context.tr_rows None))
                | exception e ->
                  r.Context.tr_release ();
                  raise e
            in
            crest ctx rows))
    | _ -> None)
  | _ -> None

and compile_predicates cc preds =
  let cps = List.map (compile cc) preds in
  fun ctx items ->
    List.fold_left
      (fun items cpred ->
        let size = List.length items in
        List.filteri
          (fun i item ->
            let fctx = Context.with_focus ctx item ~pos:(i + 1) ~size in
            match cpred fctx with
            | [ Item.Atomic a ] when Atomic.is_numeric a ->
              Float.equal (Atomic.to_double a) (float_of_int (i + 1))
            | v -> Item.effective_boolean_value v)
          items)
      items cps

(* A step from context node [n]: candidates in axis order (reverse axes:
   nearest first), which is what positional predicates must see; the
   result itself is in document order. *)
and compile_step cc axis nt preds =
  let test = node_test ~axis nt in
  let rev = reverse_axis axis in
  (* test and wrap in one pass *)
  let[@tail_mod_cons] rec matching = function
    | [] -> []
    | c :: rest -> if test c then Item.Node c :: matching rest else matching rest
  in
  match preds with
  | [] when not rev -> fun _ n -> matching (axis_nodes axis n)
  | _ ->
    let cpreds = compile_predicates cc preds in
    fun ctx n ->
      let filtered = cpreds ctx (matching (axis_nodes axis n)) in
      if rev then Item.doc_sort filtered else filtered

(* A path's right side as [over ctx item pos size], and whether its
   result from one node is already in document order without
   duplicates. A step reads the left item itself, with no focus record:
   its predicates set their own. *)
and compile_path_step cc = function
  | Ast.Step (axis, nt, preds) ->
    let step = compile_step cc axis nt preds in
    ( (fun ctx item _ _ ->
        match item with
        | Item.Node n -> step ctx n
        | Item.Atomic _ -> err "XPTY0020" "the context item is not a node"),
      not (reverse_axis axis) )
  | b ->
    let pb = compile cc b in
    ((fun ctx item pos size -> pb (Context.with_focus ctx item ~pos ~size)), false)

and compile_path_over ctx ~one_node left over =
  match left with
  | [ (Item.Node _ as item) ] when one_node -> over ctx item 1 1
  | _ ->
    let size = List.length left in
    path_finish
      (List.concat (List.mapi (fun i item -> over ctx item (i + 1) size) left))

and compile_clause cc = function
  | Ast.For_clause bindings ->
    let cbs = List.map (fun b -> (b, compile cc b.Ast.for_expr)) bindings in
    fun ctx tuples ->
      List.fold_left
        (fun tuples (b, pexpr) ->
          List.concat_map
            (fun vars ->
              let items = pexpr (Context.with_vars ctx vars) in
              let items =
                match b.Ast.for_type with
                | Some ty ->
                  List.concat_map
                    (fun i ->
                      Seqtype.check
                        ~what:
                          (Printf.sprintf "$%s"
                             (Qname.to_string b.Ast.for_var))
                        ty [ i ])
                    items
                | None -> items
              in
              for_tuples b items vars)
            tuples)
        tuples cbs
  | Ast.Let_clause bindings ->
    let cbs = List.map (fun b -> (b, compile cc b.Ast.let_expr)) bindings in
    fun ctx tuples ->
      List.fold_left
        (fun tuples (b, pexpr) ->
          List.map
            (fun vars ->
              let v = pexpr (Context.with_vars ctx vars) in
              let v =
                match b.Ast.let_type with
                | Some ty ->
                  Seqtype.check
                    ~what:
                      (Printf.sprintf "$%s" (Qname.to_string b.Ast.let_var))
                    ty v
                | None -> v
              in
              Qmap.add b.Ast.let_var v vars)
            tuples)
        tuples cbs
  | Ast.Where_clause cond ->
    let cw = compile_cur cc cond in
    fun ctx tuples ->
      List.filter
        (fun vars -> ebv_cur (cw (Context.with_vars ctx vars)))
        tuples
  | Ast.Order_clause (_stable, specs) ->
    let cspecs = List.map (fun spec -> (spec, compile cc spec.Ast.key)) specs in
    fun ctx tuples ->
      let keyed =
        List.map
          (fun vars ->
            let keys =
              List.map
                (fun (spec, pk) ->
                  (Item.one_atom_opt (pk (Context.with_vars ctx vars)), spec))
                cspecs
            in
            (vars, keys))
          tuples
      in
      order_sort keyed
  | Ast.Join_clause j ->
    let psrc = compile cc j.Ast.join_source in
    let pbuild = compile cc j.Ast.join_build_key in
    let pprobe = compile cc j.Ast.join_probe_key in
    fun ctx tuples ->
      let table = Hashtbl.create 64 in
      let source_items = psrc ctx in
      List.iter
        (fun item ->
          let kctx = Context.bind ctx j.Ast.join_var [ item ] in
          match Item.one_atom_opt (pbuild kctx) with
          | Some a ->
            let key = Atomic.to_string a in
            Hashtbl.replace table key
              (match Hashtbl.find_opt table key with
              | Some items -> item :: items
              | None -> [ item ])
          | None -> ())
        source_items;
      List.concat_map
        (fun vars ->
          let pctx = Context.with_vars ctx vars in
          match Item.one_atom_opt (pprobe pctx) with
          | Some a -> (
            match Hashtbl.find_opt table (Atomic.to_string a) with
            | Some matches ->
              List.rev_map
                (fun item -> Qmap.add j.Ast.join_var [ item ] vars)
                matches
            | None -> [])
          | None -> [])
        tuples

(* Stream a FLWOR: a single leading [for] binding driven one item at a
   time, [let]/[where] stages applied per item, the return expression
   streamed recursively. Gates: deferred stages (lets, wheres, return)
   must neither construct (allocation-order interleaving would be
   observable through document order) nor have effects; at most one
   stage may be fallible, and then only over a pure source — otherwise
   the depth-first schedule would reorder errors relative to the eager
   breadth-first one. A where whose value is not statically boolean
   counts as fallible (its EBV can raise FORG0006).

   Structural shape and purity verdicts are fixed per compile (the
   purity environment is part of the cache fingerprint), only the
   source cursor's runtime purity is left to the plan. Returns [None]
   when the shape or verdicts reject streaming — the caller then uses
   the eager plan unconditionally. *)
and compile_flwor_stream cc clauses ret =
  match clauses with
  | Ast.For_clause [ b0 ] :: rest
    when b0.Ast.for_type = None
         && List.for_all
              (function
                | Ast.For_clause _ | Ast.Order_clause _ | Ast.Join_clause _ ->
                  false
                | Ast.Let_clause bs ->
                  List.for_all (fun b -> b.Ast.let_type = None) bs
                | Ast.Where_clause _ -> true)
              rest ->
    let stage_verdicts =
      List.concat_map
        (function
          | Ast.Let_clause bs ->
            List.map (fun b -> cc.c_purity b.Ast.let_expr) bs
          | Ast.Where_clause w ->
            let eff, fall, cons = cc.c_purity w in
            [ (eff, fall || not (Purity.boolean_valued w), cons) ]
          | _ -> [])
        rest
      @ [ cc.c_purity ret ]
    in
    if List.exists (fun (eff, _, cons) -> eff || cons) stage_verdicts then None
    else begin
      let fallible_stages =
        List.length (List.filter (fun (_, fall, _) -> fall) stage_verdicts)
      in
      let csrc = compile_cur cc b0.Ast.for_expr in
      let cstages =
        List.map
          (function
            | Ast.Let_clause bs ->
              `Let
                (List.map
                   (fun b -> (b.Ast.let_var, compile cc b.Ast.let_expr))
                   bs)
            | Ast.Where_clause w -> `Where (compile_cur cc w)
            | _ -> assert false)
          rest
      in
      let cret_cur = compile_cur cc ret in
      let crest = List.map (compile_clause cc) rest in
      let pret = compile cc ret in
      Some
        (fun ctx ->
          let f = Context.fields ctx in
          let c0 = csrc ctx in
          if
            fallible_stages > 1
            || (fallible_stages = 1 && not (Cursor.is_pure c0))
          then
            (* the source cursor is already open: finish on the eager
               schedule's compiled clauses over the materialized source *)
            Cursor.of_list
              (run_clauses ctx crest pret
                 (for_tuples b0 (materialize ctx c0) f.vars))
          else begin
            let base = f.vars in
            let idx = ref 0 and cur_ret = ref None in
            let rec pull () =
              match !cur_ret with
              | Some rc -> (
                match Cursor.next rc with
                | Some _ as r -> r
                | None ->
                  cur_ret := None;
                  pull ())
              | None -> (
                match Cursor.next c0 with
                | None -> None
                | Some item ->
                  incr idx;
                  let vars = Qmap.add b0.Ast.for_var [ item ] base in
                  let vars =
                    match b0.Ast.for_pos with
                    | Some pv ->
                      Qmap.add pv [ Item.Atomic (Atomic.Integer !idx) ] vars
                    | None -> vars
                  in
                  stages vars cstages)
            and stages vars = function
              | [] ->
                cur_ret := Some (cret_cur (Context.with_vars ctx vars));
                pull ()
              | `Let cbs :: more ->
                let vars =
                  List.fold_left
                    (fun vars (v, pe) ->
                      Qmap.add v (pe (Context.with_vars ctx vars)) vars)
                    vars cbs
                in
                stages vars more
              | `Where cw :: more ->
                if ebv_cur (cw (Context.with_vars ctx vars)) then
                  stages vars more
                else pull ()
            in
            Cursor.make
              ~pure:(Cursor.is_pure c0 && fallible_stages = 0)
              ~cleanup:(fun () ->
                (match !cur_ret with
                | Some rc -> Cursor.abandon rc
                | None -> ());
                Cursor.abandon c0)
              pull
          end)
    end
  | _ -> None

(* Streaming interception of the sequence-cardinality builtins: the
   sequence argument is evaluated as a cursor and consumed only as far
   as the semantics require. The name is resolved against the compile
   registry first, so a user override still wins (registration rejects
   redefinition, so the verdict cannot go stale). *)
and compile_streaming_call cc name args =
  let plain () = compile_apply cc name args in
  let is_builtin =
    String.equal name.Qname.uri Qname.fn_ns
    &&
    match Context.find cc.c_registry name (List.length args) with
    | Some { Context.fn_impl = Context.Builtin _; _ } -> true
    | _ -> false
  in
  if not is_builtin then plain ()
  else
    let stream1 e f =
      let ce = compile_cur cc e in
      fun ctx -> f ctx (ce ctx)
    in
    match (name.Qname.local, args) with
    | "exists", [ e ] -> stream1 e (fun _ c -> Item.bool (cursor_nonempty c))
    | "empty", [ e ] ->
      stream1 e (fun _ c -> Item.bool (not (cursor_nonempty c)))
    | "head", [ e ] ->
      stream1 e (fun _ c ->
          match Cursor.next c with
          | Some x ->
            Cursor.abandon c;
            [ x ]
          | None ->
            Cursor.close c;
            [])
    | "count", [ e ] ->
      stream1 e (fun _ c ->
          let rec go n =
            match Cursor.next c with Some _ -> go (n + 1) | None -> n
          in
          Item.int (go 0))
    | "boolean", [ e ] -> stream1 e (fun _ c -> Item.bool (ebv_cur c))
    | "not", [ e ] -> stream1 e (fun _ c -> Item.bool (not (ebv_cur c)))
    | "subsequence", [ e; starte ] ->
      let cstart = compile cc starte in
      stream1 e (fun ctx c ->
          streaming_subsequence ctx c (fun () -> cstart ctx) None)
    | "subsequence", [ e; starte; lene ] ->
      let cstart = compile cc starte and clen = compile cc lene in
      stream1 e (fun ctx c ->
          streaming_subsequence ctx c
            (fun () -> cstart ctx)
            (Some (fun () -> clen ctx)))
    | "data", [ e ] -> (
      match row_column e with
      | None -> plain ()
      | Some (v, q) -> (
        let general = plain () and column = column_site [| q |] in
        fun ctx ->
          match Context.lookup_var ctx v with
          | Some [ Item.Node n ] when Node.unbuilt_row n ->
            let i = (column n).(0) in
            if i < 0 then [] else [ Item.Atomic (Atomic.Untyped (Node.row_text n i)) ]
          | _ -> general ctx))
    | _ -> plain ()

(* Function application with the callee resolved at compile time. A name
   absent from the compile registry falls back to a runtime lookup: it
   may be registered later (XQSE readonly procedures declared mid-block),
   or be declared by the program calling a registry function compiled
   before it, and an unknown name must keep raising XPST0017 only when
   actually executed. *)
and compile_apply cc name args =
  let cargs = List.map (compile cc) args in
  let eval_args ctx = List.map (fun p -> p ctx) cargs in
  (* mirror [call]: host/user callees route through the session result
     cache when one is bound; builtins skip the lookup entirely *)
  let via_cache k ctx =
    let arg_vals = eval_args ctx in
    match (Context.fields ctx).cache with
    | Some b -> Cache.through b name arg_vals (fun () -> k ctx arg_vals)
    | None -> k ctx arg_vals
  in
  match Context.find cc.c_registry name (List.length args) with
  | None -> fun ctx -> call ctx name (eval_args ctx)
  | Some f -> (
    match f.Context.fn_impl with
    | Context.Builtin impl -> fun ctx -> impl ctx (eval_args ctx)
    | Context.External impl -> via_cache (fun _ arg_vals -> impl arg_vals)
    | Context.External_cursor impl ->
      via_cache (fun ctx arg_vals ->
          Cursor.to_list ~instr:(Context.fields ctx).instr (impl arg_vals))
    | Context.User _ ->
      let call_user = compile_call cc name (List.length args) in
      fun ctx -> call_user ctx (eval_args ctx))

(* Compile a user-defined function body once per (name, arity); the memo
   entry is installed as a forward reference *before* the body compiles,
   so recursive and mutually recursive functions tie back to their own
   compiled plan instead of diverging. Mirrors [call]'s User arm exactly,
   including the error order: parameter checks run before the
   missing-body XPST0017. *)
and compile_user cc name decl =
  let key =
    (name.Qname.uri, name.Qname.local, List.length decl.Ast.fd_params)
  in
  (* the base's plan only if it was compiled from this very declaration:
     a registry that changed since the base was built resolves the name
     to another one, which compiles here *)
  let compiled cc =
    match Hashtbl.find_opt cc.c_fns key with
    | Some (d, f) when d == decl -> Some f
    | _ -> None
  in
  let found =
    match compiled cc with None -> Option.bind cc.c_base compiled | f -> f
  in
  match found with
  | Some f -> f
  | None ->
    let fwd =
      ref (fun ctx arg_vals ->
          ignore ctx;
          ignore arg_vals;
          assert false)
    in
    Hashtbl.replace cc.c_fns key (decl, fun ctx arg_vals -> !fwd ctx arg_vals);
    (* the checks' error texts, formatted once *)
    let params =
      List.map
        (fun (pname, pty) ->
          ( pname,
            Option.map
              (fun ty ->
                ( Printf.sprintf "argument $%s of %s" (Qname.to_string pname)
                    (Qname.to_string name),
                  ty ))
              pty ))
        decl.Ast.fd_params
    in
    let result_check =
      Option.map
        (fun ty -> (Printf.sprintf "result of %s" (Qname.to_string name), ty))
        decl.Ast.fd_return
    in
    let cbody =
      match decl.Ast.fd_body with
      | Some b -> Some (compile cc b)
      | None -> None
    in
    let impl ctx arg_vals =
      let ctx = Context.deeper ctx in
      let checked =
        List.map2
          (fun (pname, check) v ->
            let v =
              match check with
              | Some (what, ty) -> Seqtype.check ~what ty v
              | None -> v
            in
            (pname, v))
          params arg_vals
      in
      let base = Context.globals (Context.fields ctx).registry in
      let vars =
        List.fold_left (fun m (n, v) -> Qmap.add n v m) base checked
      in
      match cbody with
      | None ->
        Item.raise_error (Qname.err "XPST0017")
          (Printf.sprintf "external function %s has no implementation"
             (Qname.to_string name))
      | Some cbody ->
        let fctx = Context.no_focus (Context.with_vars ctx vars) in
        let result = cbody fctx in
        (match result_check with
        | Some (what, ty) -> Seqtype.check ~what ty result
        | None -> result)
    in
    fwd := impl;
    Hashtbl.replace cc.c_fns key (decl, impl);
    impl

(* [call] on the compiled path: the callee resolved once, a user
   function's body closure-compiled, the result cache routed exactly as
   [call] routes it; any other callee is left to [call]. *)
and compile_call cc name arity =
  match Context.find cc.c_registry name arity with
  | Some { Context.fn_impl = Context.User decl; _ } -> (
    let cfn = compile_user cc name decl in
    fun ctx arg_vals ->
      match (Context.fields ctx).cache with
      | Some b -> Cache.through b name arg_vals (fun () -> cfn ctx arg_vals)
      | None -> cfn ctx arg_vals)
  | _ -> fun ctx arg_vals -> call ctx name arg_vals

(* Does [compile_cur] stream [e]? Any other expression's cursor only
   wraps its eager value, so a consumer may as well take the list. *)
and cursor_streams = function
  | Ast.Seq_expr _ | Ast.Range _ | Ast.If_expr _ | Ast.Call _ | Ast.Flwor _ ->
    true
  | _ -> false

and compile_cur_expr cc e =
  let eager () =
    let p = compile cc e in
    fun ctx -> Cursor.of_list (p ctx)
  in
  match e with
  | Ast.Seq_expr es ->
    let total e' =
      let eff, fall, _ = cc.c_purity e' in
      (not eff) && not fall
    in
    let pure = List.for_all total es in
    let ces = List.map (compile_cur cc) es in
    fun ctx -> Cursor.chain ~pure (List.map (fun ce () -> ce ctx) ces)
  | Ast.Range (a, b) -> (
    let pa = compile cc a and pb = compile cc b in
    fun ctx ->
      let va = pa ctx in
      let vb = pb ctx in
      match range_bounds_seq va vb with
      | None -> Cursor.empty ()
      | Some (lo, hi) ->
        let i = ref lo in
        Cursor.make ~pure:true ~instr:(Context.fields ctx).instr (fun () ->
            if !i > hi then None
            else begin
              let v = !i in
              incr i;
              Some (Item.Atomic (Atomic.Integer v))
            end))
  | Ast.If_expr (c, t, e2) ->
    let ccond = compile_cur cc c in
    let ct = compile_cur cc t and ce2 = compile_cur cc e2 in
    fun ctx -> if ebv_cur (ccond ctx) then ct ctx else ce2 ctx
  | Ast.Call (name, args) -> (
    match Context.find cc.c_registry name (List.length args) with
    | Some { Context.fn_impl = Context.External_cursor impl; _ } ->
      let cargs = List.map (compile cc) args in
      fun ctx ->
        let args = List.map (fun p -> p ctx) cargs in
        count_bypass (Context.fields ctx);
        impl args
    | _ -> eager ())
  | Ast.Flwor (clauses, ret) -> (
    match compile_flwor_stream cc clauses ret with
    | Some splan -> splan
    | None -> eager ())
  | _ -> eager ()

let compile_updating cc e =
  let p = compile cc e in
  fun ctx -> statement_updates ctx p

let compile_functions cc =
  Context.fold cc.c_registry ~init:() ~f:(fun () f ->
      match f.Context.fn_impl with
      | Context.User decl ->
        ignore
          (compile_user cc f.Context.fn_name decl
            : Context.dynamic -> Item.seq list -> Item.seq)
      | _ -> ())
