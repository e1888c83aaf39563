type kind =
  | Document
  | Element
  | Attribute
  | Text
  | Comment
  | Processing_instruction

(* A node's stored kind. [Row] is an element made from a source row: it
   keeps the row's cells and builds its column children only when
   something navigates into it; {!kind} reports it as [Element]. Every
   other node keeps its children in [children]. *)
type t = {
  id : int;
  mutable parent : t option;
  mutable name : Qname.t option;  (* element, attribute, PI target *)
  mutable content : string;  (* text, comment, PI data, attribute value *)
  mutable attrs : t list;  (* elements only *)
  mutable children : t list;  (* documents and elements other than rows *)
  node_kind : stored;
}

and stored =
  | Document
  | Element
  | Attribute
  | Text
  | Comment
  | Processing_instruction
  | Row of {
      columns : Qname.t array;  (* the non-NULL columns, in table order *)
      cells : string array;  (* their values as text *)
      built : t list option Stdlib.Atomic.t;
          (* [None] until the children are built. They are published
             here with one compare-and-set, and every later read or
             write of the row's children goes through this cell. *)
    }

(* Node ids are unique across domains: each domain draws a block of ids
   with one atomic fetch-and-add and hands them out from a domain-local
   cursor, so ids increase within a domain and creating a node costs no
   atomic operation until the block runs out. *)
let id_block = 4096
let next_block = Stdlib.Atomic.make 1

type id_cursor = { mutable next : int; mutable limit : int }

let id_cursor = Domain.DLS.new_key (fun () -> { next = 0; limit = 0 })

let fresh_id () =
  let c = Domain.DLS.get id_cursor in
  if c.next = c.limit then begin
    c.next <- Stdlib.Atomic.fetch_and_add next_block id_block;
    c.limit <- c.next + id_block
  end;
  let id = c.next in
  c.next <- id + 1;
  id

let fresh kind =
  {
    id = fresh_id ();
    parent = None;
    name = None;
    content = "";
    attrs = [];
    children = [];
    node_kind = kind;
  }

let attribute name value =
  let n = fresh Attribute in
  n.name <- Some name;
  n.content <- value;
  n

let text s =
  let n = fresh Text in
  n.content <- s;
  n

let comment s =
  let n = fresh Comment in
  n.content <- s;
  n

let processing_instruction target data =
  let n = fresh Processing_instruction in
  n.name <- Some (Qname.local target);
  n.content <- data;
  n

let adopt parent child = child.parent <- Some parent

let rec set_parent p = function
  | [] -> ()
  | c :: rest ->
    c.parent <- p;
    set_parent p rest

(* nodes adopted together share one [Some parent] *)
let adopt_all parent = function
  | [] -> ()
  | nodes -> set_parent (Some parent) nodes

let element ?(attrs = []) name children =
  let n = fresh Element in
  n.name <- Some name;
  n.attrs <- List.map (fun (an, av) -> attribute an av) attrs;
  adopt_all n n.attrs;
  n.children <- children;
  adopt_all n children;
  n

let row name columns cells =
  if Array.length columns <> Array.length cells then
    invalid_arg "Node.row: one cell per column";
  let n = fresh (Row { columns; cells; built = Stdlib.Atomic.make None }) in
  n.name <- Some name;
  n

let document children =
  let n = fresh Document in
  n.children <- children;
  adopt_all n children;
  n

(* a row's column children, as [element c [text cell]] builds them *)
let build_columns n columns cells =
  let parent = Some n in
  let[@tail_mod_cons] rec go i =
    if i = Array.length columns then []
    else begin
      let col = fresh Element in
      col.parent <- parent;
      col.name <- Some columns.(i);
      let txt = fresh Text in
      txt.content <- cells.(i);
      txt.parent <- Some col;
      col.children <- [ txt ];
      col :: go (i + 1)
    end
  in
  go 0

(* The children of a document or element. A row builds them on first
   use: of two domains building at once, the first compare-and-set
   publishes its list and the other returns that list. *)
let rec kids n =
  match n.node_kind with
  | Row { columns; cells; built } -> (
    match Stdlib.Atomic.get built with
    | Some l -> l
    | None ->
      let l = build_columns n columns cells in
      if Stdlib.Atomic.compare_and_set built None (Some l) then l else kids n)
  | Document | Element | Attribute | Text | Comment | Processing_instruction ->
    n.children

(* callers pass a list derived from [kids n], so a row is built *)
let set_kids n l =
  match n.node_kind with
  | Row { built; _ } -> Stdlib.Atomic.set built (Some l)
  | Document | Element | Attribute | Text | Comment | Processing_instruction ->
    n.children <- l

let is_attribute n = match n.node_kind with Attribute -> true | _ -> false

let kind n : kind =
  match n.node_kind with
  | Document -> Document
  | Element | Row _ -> Element
  | Attribute -> Attribute
  | Text -> Text
  | Comment -> Comment
  | Processing_instruction -> Processing_instruction

let id n = n.id
let name n = n.name
let parent n = n.parent
let children = kids
let attributes n = n.attrs

let unbuilt_row n =
  match n.node_kind with
  | Row { built; _ } -> (
    match Stdlib.Atomic.get built with None -> true | Some _ -> false)
  | Document | Element | Attribute | Text | Comment | Processing_instruction ->
    false

let cell n q =
  match n.node_kind with
  | Row { columns; cells; _ } ->
    let rec find i =
      if i = Array.length columns then None
      else if Qname.equal columns.(i) q then Some cells.(i)
      else find (i + 1)
    in
    find 0
  | Document | Element | Attribute | Text | Comment | Processing_instruction ->
    invalid_arg "Node.cell: not a row element"

let attribute_value n qn =
  List.find_map
    (fun a ->
      match a.name with
      | Some an when Qname.equal an qn -> Some a.content
      | _ -> None)
    n.attrs

let text_content n =
  match n.node_kind with
  | Text | Comment | Processing_instruction | Attribute -> n.content
  | Document | Element | Row _ ->
    invalid_arg "Node.text_content: document or element node"

let concat_cells cells =
  match cells with
  | [||] -> ""
  | [| c |] -> c
  | _ -> String.concat "" (Array.to_list cells)

let string_value n =
  match n.node_kind with
  | Text | Attribute | Comment | Processing_instruction -> n.content
  | Row { cells; _ } when unbuilt_row n -> concat_cells cells
  | Document | Element | Row _ -> (
    (* a column or leaf element: no text to concatenate *)
    match kids n with
    | [] -> ""
    | [ { node_kind = Text; content; _ } ] -> content
    | _ ->
      let buf = Buffer.create 32 in
      let rec go n =
        match n.node_kind with
        | Text -> Buffer.add_string buf n.content
        | Row { cells; _ } when unbuilt_row n ->
          Array.iter (Buffer.add_string buf) cells
        | Element | Document | Row _ -> List.iter go (kids n)
        | Attribute | Comment | Processing_instruction -> ()
      in
      go n;
      Buffer.contents buf)

let typed_value n =
  match n.node_kind with
  | Comment | Processing_instruction -> []
  | Document | Element | Row _ | Attribute | Text ->
    [ Atomic.Untyped (string_value n) ]

let rec root n = match n.parent with None -> n | Some p -> root p

let descendants n =
  let acc = ref [] in
  let rec go n =
    List.iter
      (fun c ->
        acc := c :: !acc;
        go c)
      (kids n)
  in
  go n;
  List.rev !acc

let descendant_or_self n = n :: descendants n

let ancestors n =
  (* nearest first *)
  let rec go acc n =
    match n.parent with None -> List.rev acc | Some p -> go (p :: acc) p
  in
  go [] n

let siblings_of n =
  match n.parent with
  | None -> []
  | Some p -> if is_attribute n then [] else kids p

let rec split_at_node n = function
  | [] -> ([], [])
  | c :: rest ->
    if c == n then ([], rest)
    else
      let before, after = split_at_node n rest in
      (c :: before, after)

let following_siblings n =
  let _, after = split_at_node n (siblings_of n) in
  after

let preceding_siblings n =
  let before, _ = split_at_node n (siblings_of n) in
  List.rev before

let detach n =
  match n.parent with
  | None -> ()
  | Some p ->
    if is_attribute n then
      p.attrs <- List.filter (fun a -> not (a == n)) p.attrs
    else set_kids p (List.filter (fun c -> not (c == n)) (kids p));
    n.parent <- None

let check_child_ok parent child =
  (match parent.node_kind with
  | Document | Element | Row _ -> ()
  | Attribute | Text | Comment | Processing_instruction ->
    invalid_arg "Node: this node kind cannot have children");
  match child.node_kind with
  | Attribute -> invalid_arg "Node: attribute nodes are not children"
  | Document ->
    invalid_arg "Node: document nodes cannot be inserted as children"
  | Element | Row _ | Text | Comment | Processing_instruction -> ()

let append_child parent child =
  check_child_ok parent child;
  detach child;
  set_kids parent (kids parent @ [ child ]);
  adopt parent child

let rec check_children parent = function
  | [] -> ()
  | c :: rest ->
    check_child_ok parent c;
    check_children parent rest

let insert_children parent ~pos nodes =
  check_children parent nodes;
  List.iter detach nodes;
  adopt_all parent nodes;
  set_kids parent
    (match pos with
    | `First -> nodes @ kids parent
    | `Last -> kids parent @ nodes)

let insert_sibling target ~pos nodes =
  match target.parent with
  | None -> invalid_arg "Node.insert_sibling: target has no parent"
  | Some p ->
    List.iter (check_child_ok p) nodes;
    List.iter detach nodes;
    adopt_all p nodes;
    let before, after = split_at_node target (kids p) in
    set_kids p
      (match pos with
      | `Before -> before @ nodes @ (target :: after)
      | `After -> before @ (target :: nodes) @ after)

let set_attribute el qn value =
  (match el.node_kind with
  | Element | Row _ -> ()
  | Document | Attribute | Text | Comment | Processing_instruction ->
    invalid_arg "Node.set_attribute: not an element");
  match
    List.find_opt
      (fun a -> match a.name with Some an -> Qname.equal an qn | None -> false)
      el.attrs
  with
  | Some a -> a.content <- value
  | None ->
    let a = attribute qn value in
    adopt el a;
    el.attrs <- el.attrs @ [ a ]

let remove_attribute el qn =
  el.attrs <-
    List.filter
      (fun a ->
        match a.name with Some an -> not (Qname.equal an qn) | None -> true)
      el.attrs

let set_text n s =
  match n.node_kind with
  | Text | Comment | Attribute | Processing_instruction -> n.content <- s
  | Document | Element | Row _ ->
    invalid_arg "Node.set_text: document or element"

let rename n qn =
  match n.node_kind with
  | Element | Row _ | Attribute | Processing_instruction -> n.name <- Some qn
  | Document | Text | Comment ->
    invalid_arg "Node.rename: node kind has no name"

let replace_children_with_text el s =
  (match el.node_kind with
  | Element | Row _ -> ()
  | _ -> invalid_arg "Node.replace_children_with_text: not an element");
  List.iter (fun c -> c.parent <- None) (kids el);
  if s = "" then set_kids el []
  else begin
    let t = text s in
    adopt el t;
    set_kids el [ t ]
  end

let is_same a b = a == b

(* Path from root as child indices; attributes sort after the element
   they belong to but before its children, per document order. *)
let path_from_root n =
  let rec go acc n =
    match n.parent with
    | None -> acc
    | Some p ->
      let idx =
        if is_attribute n then
          let rec find i = function
            | [] -> assert false
            | a :: rest -> if a == n then i else find (i + 1) rest
          in
          (* attributes order between -1 (self) and 0.. (children) *)
          (-1000000) + find 0 p.attrs
        else
          let rec find i = function
            | [] -> assert false
            | c :: rest -> if c == n then i else find (i + 1) rest
          in
          find 0 (kids p)
      in
      go (idx :: acc) p
  in
  go [] n

(* [a] before [b] under their shared parent [p]: a scan, no path built *)
let sibling_order p a b =
  let rec first = function
    | [] -> assert false
    | c :: rest -> if c == a then -1 else if c == b then 1 else first rest
  in
  first (if is_attribute a then p.attrs else kids p)

let doc_order a b =
  if a == b then 0
  else
    match (a.parent, b.parent) with
    | Some pa, Some pb when pa == pb && is_attribute a = is_attribute b ->
      sibling_order pa a b
    | _ ->
      let ra = root a and rb = root b in
      if not (ra == rb) then compare ra.id rb.id
      else
        let rec cmp pa pb =
          match (pa, pb) with
          | [], [] -> 0
          | [], _ -> -1 (* ancestor precedes descendant *)
          | _, [] -> 1
          | x :: xs, y :: ys -> if x = y then cmp xs ys else compare x y
        in
        cmp (path_from_root a) (path_from_root b)

let rec deep_copy n =
  match n.node_kind with
  | Text -> text n.content
  | Comment -> comment n.content
  | Attribute -> attribute (Option.get n.name) n.content
  | Processing_instruction ->
    processing_instruction (Option.get n.name).Qname.local n.content
  | Row { columns; cells; built } -> (
    match Stdlib.Atomic.get built with
    | None ->
      (* the cells are immutable: the copy shares them, unbuilt *)
      let el = row (Option.get n.name) columns cells in
      copy_attrs n el;
      el
    | Some l -> copy_element n l)
  | Element -> copy_element n n.children
  | Document ->
    let d = fresh Document in
    d.children <- List.map deep_copy n.children;
    adopt_all d d.children;
    d

and copy_attrs n el =
  el.attrs <- List.map deep_copy n.attrs;
  adopt_all el el.attrs

and copy_element n children =
  let el = fresh Element in
  el.name <- n.name;
  copy_attrs n el;
  el.children <- List.map deep_copy children;
  adopt_all el el.children;
  el

let qname_opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Qname.equal x y
  | _ -> false

let rec deep_equal a b =
  kind a = kind b
  && qname_opt_equal a.name b.name
  &&
  match kind a with
  | Text | Comment | Processing_instruction | Attribute ->
    String.equal a.content b.content
  | Element ->
    let attr_key n = (Option.get n.name, n.content) in
    let sort l =
      List.sort
        (fun (n1, v1) (n2, v2) ->
          match Qname.compare n1 n2 with 0 -> compare v1 v2 | c -> c)
        (List.map attr_key l)
    in
    List.length a.attrs = List.length b.attrs
    && List.for_all2
         (fun (n1, v1) (n2, v2) -> Qname.equal n1 n2 && String.equal v1 v2)
         (sort a.attrs) (sort b.attrs)
    && content_equal (kids a) (kids b)
  | Document -> content_equal a.children b.children

and content_equal ca cb =
  let keep n =
    match n.node_kind with Comment | Processing_instruction -> false | _ -> true
  in
  let ca = List.filter keep ca and cb = List.filter keep cb in
  List.length ca = List.length cb && List.for_all2 deep_equal ca cb

let pp ppf n =
  match n.node_kind with
  | Document -> Format.fprintf ppf "document#%d" n.id
  | Element | Row _ ->
    Format.fprintf ppf "element(%s)#%d" (Qname.to_string (Option.get n.name)) n.id
  | Attribute ->
    Format.fprintf ppf "attribute(%s=%S)#%d"
      (Qname.to_string (Option.get n.name))
      n.content n.id
  | Text -> Format.fprintf ppf "text(%S)#%d" n.content n.id
  | Comment -> Format.fprintf ppf "comment#%d" n.id
  | Processing_instruction -> Format.fprintf ppf "pi#%d" n.id
