type kind =
  | Document
  | Element
  | Attribute
  | Text
  | Comment
  | Processing_instruction

(* A row layout: a row element's name and its columns' names, each
   boxed once, so the rows made on it and the children they build share
   the boxes instead of allocating a name per element. *)
type layout = { l_name : Qname.t option; l_columns : Qname.t option array }

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
      layout : layout;  (* the columns, one per child *)
      cells : string array;
          (* each child's text; [no_text] for a child with none *)
      built : t list option Stdlib.Atomic.t;
          (* [None] until the children are built. They are published
             here with one compare-and-set, and every later read or
             write of the row's children goes through this cell. *)
    }

(* The cell of a view row's leaf over an absent column: the leaf is an
   empty element. No other cell is this string: it is allocated here and
   recognized by identity, and it reads as [""] wherever a cell's text
   is read, as the empty element's string value is. *)
let no_text = Bytes.to_string (Bytes.create 0)
let cell_text c = if c == no_text then "" else c

type tag = Qname.t option

let tag q = Some q

let layout name columns =
  Array.iteri
    (fun i c ->
      for j = i + 1 to Array.length columns - 1 do
        if Qname.equal c columns.(j) then
          invalid_arg "Node.layout: two columns of one name"
      done)
    columns;
  { l_name = Some name; l_columns = Array.map Option.some columns }

let layout_column l q =
  let rec find i =
    if i = Array.length l.l_columns then -1
    else
      match l.l_columns.(i) with
      | Some c when Qname.equal c q -> i
      | _ -> find (i + 1)
  in
  find 0

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

let element_of_tag tag children =
  let n = fresh Element in
  n.name <- tag;
  n.children <- children;
  adopt_all n children;
  n

let element ?(attrs = []) name children =
  let n = element_of_tag (Some name) children in
  n.attrs <- List.map (fun (an, av) -> attribute an av) attrs;
  adopt_all n n.attrs;
  n

let make_row l cells =
  let n = fresh (Row { layout = l; cells; built = Stdlib.Atomic.make None }) in
  n.name <- l.l_name;
  n

let row_of_layout l cells =
  if Array.length l.l_columns <> Array.length cells then
    invalid_arg "Node.row_of_layout: one cell per column";
  make_row l cells

let row name columns cells = row_of_layout (layout name columns) cells

let document children =
  let n = fresh Document in
  n.children <- children;
  adopt_all n children;
  n

(* a row's column children, as [element c [text cell]] builds them, or
   [element c []] for a view row's empty leaf *)
let build_columns n l cells =
  let parent = Some n in
  let[@tail_mod_cons] rec go i =
    if i = Array.length cells then []
    else begin
      let col = fresh Element in
      col.parent <- parent;
      col.name <- l.l_columns.(i);
      let c = cells.(i) in
      if c != no_text then begin
        let txt = fresh Text in
        txt.content <- c;
        txt.parent <- Some col;
        col.children <- [ txt ]
      end;
      col :: go (i + 1)
    end
  in
  go 0

(* The children of a document or element. A row builds them on first
   use: of two domains building at once, the first compare-and-set
   publishes its list and the other returns that list. *)
let rec kids n =
  match n.node_kind with
  | Row { layout; cells; built } -> (
    match Stdlib.Atomic.get built with
    | Some l -> l
    | None ->
      let l = build_columns n layout cells in
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

let not_a_row what = invalid_arg ("Node." ^ what ^ ": not a row element")

let cell n q =
  match n.node_kind with
  | Row { layout; cells; _ } ->
    let i = layout_column layout q in
    if i < 0 then None else Some (cell_text cells.(i))
  | Document | Element | Attribute | Text | Comment | Processing_instruction ->
    not_a_row "cell"

let row_layout n =
  match n.node_kind with
  | Row { layout; _ } -> layout
  | Document | Element | Attribute | Text | Comment | Processing_instruction ->
    not_a_row "row_layout"

let row_cells what n =
  match n.node_kind with
  | Row { cells; _ } -> cells
  | Document | Element | Attribute | Text | Comment | Processing_instruction ->
    not_a_row what

let row_width n = Array.length (row_cells "row_width" n)
let row_text n i = cell_text (row_cells "row_text" n).(i)
let row_has_text n i = (row_cells "row_has_text" n).(i) != no_text
let row_column n i = Option.get (row_layout n).l_columns.(i)

let view_row l src columns =
  if Array.length columns <> Array.length l.l_columns then
    invalid_arg "Node.view_row: one source column per leaf";
  let src_cells = row_cells "view_row" src in
  let cells = Array.make (Array.length columns) no_text in
  for i = 0 to Array.length columns - 1 do
    let j = columns.(i) in
    (* a source leaf without text is an empty element: its data is [""] *)
    if j >= 0 then cells.(i) <- cell_text src_cells.(j)
  done;
  make_row l cells

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
  | [| c |] -> cell_text c
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
  | Row { layout; cells; built } -> (
    match Stdlib.Atomic.get built with
    | None ->
      (* the cells are immutable: the copy shares them, unbuilt *)
      let el = make_row layout cells in
      el.name <- n.name;
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
