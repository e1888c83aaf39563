type kind =
  | Document
  | Element
  | Attribute
  | Text
  | Comment
  | Processing_instruction

type t = {
  id : int;
  mutable parent : t option;
  mutable name : Qname.t option;  (* element, attribute, PI target *)
  mutable content : string;  (* text, comment, PI data, attribute value *)
  mutable attrs : t list;  (* elements only *)
  mutable children : t list;  (* documents and elements *)
  node_kind : kind;
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

let element ?(attrs = []) name children =
  let n = fresh Element in
  n.name <- Some name;
  n.attrs <- List.map (fun (an, av) -> attribute an av) attrs;
  List.iter (adopt n) n.attrs;
  n.children <- children;
  List.iter (adopt n) children;
  n

let document children =
  let n = fresh Document in
  n.children <- children;
  List.iter (adopt n) children;
  n

let kind n = n.node_kind
let id n = n.id
let name n = n.name
let parent n = n.parent
let children n = n.children
let attributes n = n.attrs

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
  | Document | Element ->
    invalid_arg "Node.text_content: document or element node"

let string_value n =
  match n.node_kind with
  | Text | Attribute | Comment | Processing_instruction -> n.content
  | Document | Element ->
    let buf = Buffer.create 32 in
    let rec go n =
      match n.node_kind with
      | Text -> Buffer.add_string buf n.content
      | Element | Document -> List.iter go n.children
      | Attribute | Comment | Processing_instruction -> ()
    in
    go n;
    Buffer.contents buf

let typed_value n =
  match n.node_kind with
  | Comment | Processing_instruction -> []
  | Document | Element | Attribute | Text -> [ Atomic.Untyped (string_value n) ]

let rec root n = match n.parent with None -> n | Some p -> root p

let descendants n =
  let acc = ref [] in
  let rec go n =
    List.iter
      (fun c ->
        acc := c :: !acc;
        go c)
      n.children
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
  | Some p -> if n.node_kind = Attribute then [] else p.children

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
    if n.node_kind = Attribute then
      p.attrs <- List.filter (fun a -> not (a == n)) p.attrs
    else p.children <- List.filter (fun c -> not (c == n)) p.children;
    n.parent <- None

let check_child_ok parent child =
  (match parent.node_kind with
  | Document | Element -> ()
  | Attribute | Text | Comment | Processing_instruction ->
    invalid_arg "Node: this node kind cannot have children");
  match child.node_kind with
  | Attribute -> invalid_arg "Node: attribute nodes are not children"
  | Document ->
    invalid_arg "Node: document nodes cannot be inserted as children"
  | Element | Text | Comment | Processing_instruction -> ()

let append_child parent child =
  check_child_ok parent child;
  detach child;
  parent.children <- parent.children @ [ child ];
  adopt parent child

let insert_children parent ~pos nodes =
  List.iter (check_child_ok parent) nodes;
  List.iter detach nodes;
  List.iter (adopt parent) nodes;
  parent.children <-
    (match pos with
    | `First -> nodes @ parent.children
    | `Last -> parent.children @ nodes)

let insert_sibling target ~pos nodes =
  match target.parent with
  | None -> invalid_arg "Node.insert_sibling: target has no parent"
  | Some p ->
    List.iter (check_child_ok p) nodes;
    List.iter detach nodes;
    List.iter (adopt p) nodes;
    let before, after = split_at_node target p.children in
    p.children <-
      (match pos with
      | `Before -> before @ nodes @ (target :: after)
      | `After -> before @ (target :: nodes) @ after)

let set_attribute el qn value =
  if el.node_kind <> Element then
    invalid_arg "Node.set_attribute: not an element";
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
  | Document | Element -> invalid_arg "Node.set_text: document or element"

let rename n qn =
  match n.node_kind with
  | Element | Attribute | Processing_instruction -> n.name <- Some qn
  | Document | Text | Comment ->
    invalid_arg "Node.rename: node kind has no name"

let replace_children_with_text el s =
  (match el.node_kind with
  | Element -> ()
  | _ -> invalid_arg "Node.replace_children_with_text: not an element");
  List.iter (fun c -> c.parent <- None) el.children;
  if s = "" then el.children <- []
  else begin
    let t = text s in
    adopt el t;
    el.children <- [ t ]
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
        if n.node_kind = Attribute then
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
          find 0 p.children
      in
      go (idx :: acc) p
  in
  go [] n

let doc_order a b =
  if a == b then 0
  else
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
  | Element ->
    let el = fresh Element in
    el.name <- n.name;
    el.attrs <- List.map deep_copy n.attrs;
    List.iter (adopt el) el.attrs;
    el.children <- List.map deep_copy n.children;
    List.iter (adopt el) el.children;
    el
  | Document ->
    let d = fresh Document in
    d.children <- List.map deep_copy n.children;
    List.iter (adopt d) d.children;
    d

let qname_opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Qname.equal x y
  | _ -> false

let rec deep_equal a b =
  a.node_kind = b.node_kind
  && qname_opt_equal a.name b.name
  &&
  match a.node_kind with
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
    && content_equal a.children b.children
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
  | Element ->
    Format.fprintf ppf "element(%s)#%d" (Qname.to_string (Option.get n.name)) n.id
  | Attribute ->
    Format.fprintf ppf "attribute(%s=%S)#%d"
      (Qname.to_string (Option.get n.name))
      n.content n.id
  | Text -> Format.fprintf ppf "text(%S)#%d" n.content n.id
  | Comment -> Format.fprintf ppf "comment#%d" n.id
  | Processing_instruction -> Format.fprintf ppf "pi#%d" n.id
