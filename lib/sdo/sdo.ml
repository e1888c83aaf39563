open Xdm

let sdo_ns = "commonj.sdo"
let sdo name = Qname.make ~prefix:"sdo" ~uri:sdo_ns name

type path = (string * int) list

let path_of_string s =
  if s = "" then []
  else
    List.map
      (fun step ->
        match String.index_opt step '[' with
        | None -> (step, 1)
        | Some i ->
          let name = String.sub step 0 i in
          let close =
            match String.index_opt step ']' with
            | Some j when j > i -> j
            | _ -> failwith (Printf.sprintf "invalid path step %S" step)
          in
          let idx = int_of_string (String.sub step (i + 1) (close - i - 1)) in
          (name, idx))
      (String.split_on_char '/' s)

let path_to_string p =
  String.concat "/"
    (List.map
       (fun (name, i) -> if i = 1 then name else Printf.sprintf "%s[%d]" name i)
       p)

type leaf_change = { leaf_path : path; old_value : string }
type element_delete = { deleted_path : path; deleted_old : Node.t }
type element_insert = { inserted_parent : path; inserted_node : Node.t }

type object_change = {
  mutable leaves : leaf_change list;
  mutable element_deletes : element_delete list;
  mutable element_inserts : element_insert list;
}

type change =
  | Modified of int * object_change
  | Created of int
  | Deleted of int * Node.t

type entry = { node : Node.t; mutable alive : bool; created : bool }

type t = {
  mutable entries : entry list;  (* original order; index = position+1 *)
  mutable change_order : change list;  (* newest first *)
}

let create nodes =
  {
    entries =
      List.map
        (fun n -> { node = Node.deep_copy n; alive = true; created = false })
        nodes;
    change_order = [];
  }

let roots t = List.filter_map (fun e -> if e.alive then Some e.node else None) t.entries

let entry t i =
  match List.nth_opt t.entries (i - 1) with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Sdo.root: index %d out of range" i)

let root t i =
  let e = entry t i in
  if not e.alive then invalid_arg (Printf.sprintf "Sdo.root: object %d was deleted" i);
  e.node

let changes t = List.rev t.change_order
let is_dirty t = t.change_order <> []

(* navigation *)
let child_elements node =
  List.filter (fun c -> Node.kind c = Node.Element) (Node.children node)

let nth_child node name idx =
  let matching =
    List.filter
      (fun c ->
        match Node.name c with
        | Some q -> q.Qname.local = name
        | None -> false)
      (child_elements node)
  in
  match List.nth_opt matching (idx - 1) with
  | Some c -> c
  | None ->
    invalid_arg
      (Printf.sprintf "Sdo: no child %s[%d] under %s" name idx
         (match Node.name node with
         | Some q -> Qname.to_string q
         | None -> "?"))

let navigate node path = List.fold_left (fun n (name, i) -> nth_child n name i) node path

(* index of [node] among same-named element siblings (1-based) *)
let occurrence_index node =
  match (Node.parent node, Node.name node) with
  | Some parent, Some qn ->
    let same =
      List.filter
        (fun c ->
          match Node.name c with
          | Some q -> q.Qname.local = qn.Qname.local
          | None -> false)
        (child_elements parent)
    in
    let rec find i = function
      | [] -> 1
      | c :: rest -> if Node.is_same c node then i else find (i + 1) rest
    in
    find 1 same
  | _ -> 1

let mod_change t i =
  let rec find = function
    | Modified (j, oc) :: _ when j = i -> Some oc
    | _ :: rest -> find rest
    | [] -> None
  in
  match find t.change_order with
  | Some oc -> oc
  | None ->
    let oc = { leaves = []; element_deletes = []; element_inserts = [] } in
    t.change_order <- Modified (i, oc) :: t.change_order;
    oc

let get_leaf t i path = Node.string_value (navigate (root t i) path)

let set_leaf t i path value =
  let target = navigate (root t i) path in
  let old = Node.string_value target in
  if old <> value then begin
    let e = entry t i in
    if not e.created then begin
      let oc = mod_change t i in
      if not (List.exists (fun lc -> lc.leaf_path = path) oc.leaves) then
        oc.leaves <- oc.leaves @ [ { leaf_path = path; old_value = old } ]
    end;
    Node.replace_children_with_text target value
  end

let delete_element t i path =
  let target = navigate (root t i) path in
  let e = entry t i in
  if not e.created then begin
    let oc = mod_change t i in
    oc.element_deletes <-
      oc.element_deletes
      @ [ { deleted_path = path; deleted_old = Node.deep_copy target } ]
  end;
  Node.detach target

let insert_element t i parent_path node =
  let parent = navigate (root t i) parent_path in
  Node.append_child parent node;
  let e = entry t i in
  if not e.created then begin
    let oc = mod_change t i in
    oc.element_inserts <-
      oc.element_inserts
      @ [ { inserted_parent = parent_path; inserted_node = node } ]
  end

let add_object t node =
  t.entries <- t.entries @ [ { node; alive = true; created = true } ];
  let i = List.length t.entries in
  t.change_order <- Created i :: t.change_order

let delete_object t i =
  let e = entry t i in
  if not e.alive then invalid_arg "Sdo.delete_object: already deleted";
  e.alive <- false;
  if e.created then
    (* a created-then-deleted object cancels out *)
    t.change_order <-
      List.filter (function Created j -> j <> i | _ -> true) t.change_order
  else
    t.change_order <- Deleted (i, Node.deep_copy e.node) :: t.change_order

(* ------------------------------------------------------------------ *)
(* Wire format                                                          *)
(* ------------------------------------------------------------------ *)

let ref_of t i =
  let e = entry t i in
  let local =
    match Node.name e.node with
    | Some q -> Qname.to_string q
    | None -> "object"
  in
  Printf.sprintf "#/sdo:datagraph/%s[%d]" local i

module W = Xml_serialize

let sdo_datagraph = sdo "datagraph"
let change_summary = Qname.local "changeSummary"
let sdo_ref = sdo "ref"
let sdo_path = sdo "path"
let sdo_idx = sdo "idx"

(* One object's entry in the change summary: old values of its leaves
   (Figure 4's shape for top-level ones), deleted elements in full, and
   where elements were inserted. *)
let write_summary_entry w t i (oc : object_change) =
  let e = entry t i in
  let obj_name =
    match Node.name e.node with Some q -> q | None -> Qname.local "object"
  in
  W.start_element ~attr:(sdo_ref, ref_of t i) w obj_name;
  List.iter
    (fun lc ->
      (match lc.leaf_path with
      | [ (leaf, 1) ] -> W.start_element w (Qname.local leaf)
      | p ->
        W.start_element ~attr:(sdo_path, path_to_string p) w (sdo "oldValue"));
      W.text w lc.old_value;
      W.end_element w)
    oc.leaves;
  List.iter
    (fun d ->
      W.start_element
        ~attr:(sdo_path, path_to_string d.deleted_path)
        w (sdo "deletedElement");
      W.node w d.deleted_old;
      W.end_element w)
    oc.element_deletes;
  List.iter
    (fun ins ->
      let path =
        ins.inserted_parent
        @ [
            ( (match Node.name ins.inserted_node with
              | Some q -> q.Qname.local
              | None -> "?"),
              occurrence_index ins.inserted_node );
          ]
      in
      W.start_element ~attr:(sdo_path, path_to_string path) w
        (sdo "insertedElement");
      W.end_element w)
    oc.element_inserts;
  W.end_element w

(* The client's objects are written where they stand: the wire wraps
   them without re-parenting or copying them, and each live object
   carries its original index as an sdo:idx attribute on the wire
   only. *)
let serialize t =
  let w = W.create () in
  W.start_element w sdo_datagraph;
  W.start_element w change_summary;
  List.iter
    (fun change ->
      match change with
      | Modified (i, oc) -> write_summary_entry w t i oc
      | Created i ->
        W.start_element ~attr:(sdo_ref, ref_of t i) w (sdo "created");
        W.end_element w
      | Deleted (i, old) ->
        W.start_element ~attr:(sdo_ref, ref_of t i) w (sdo "deleted");
        W.node w old;
        W.end_element w)
    (changes t);
  W.end_element w;
  List.iteri
    (fun idx e ->
      if e.alive then W.node ~attr:(sdo_idx, string_of_int (idx + 1)) w e.node)
    t.entries;
  W.end_element w;
  W.contents w

let index_of_ref s =
  (* "#/sdo:datagraph/NAME[i]" -> i *)
  match (String.rindex_opt s '[', String.rindex_opt s ']') with
  | Some i, Some j when j > i ->
    int_of_string (String.sub s (i + 1) (j - i - 1))
  | _ -> failwith (Printf.sprintf "invalid sdo:ref %S" s)

let taken n =
  Node.detach n;
  n

let parse src =
  let doc = Xml_parse.parse src in
  let dg =
    match child_elements doc with
    | [ el ] -> el
    | _ -> failwith "datagraph: expected a single root element"
  in
  (match Node.name dg with
  | Some q when q.Qname.local = "datagraph" -> ()
  | _ -> failwith "datagraph: root element must be sdo:datagraph");
  let summary, objects =
    match child_elements dg with
    | s :: rest
      when (match Node.name s with
           | Some q -> q.Qname.local = "changeSummary"
           | None -> false) -> (s, rest)
    | rest -> (Node.element (Qname.local "changeSummary") [], rest)
  in
  (* current objects carry their original index in sdo:idx *)
  let max_idx = ref 0 in
  let indexed =
    List.map
      (fun o ->
        let idx =
          match Node.attribute_value o sdo_idx with
          | Some s -> int_of_string s
          | None ->
            incr max_idx;
            !max_idx
        in
        max_idx := max idx !max_idx;
        Node.remove_attribute o sdo_idx;
        (idx, o))
      objects
  in
  (* collect deleted refs first to size the entry table *)
  let summary_entries = child_elements summary in
  List.iter
    (fun e ->
      match Node.attribute_value e (sdo "ref") with
      | Some r -> max_idx := max (index_of_ref r) !max_idx
      | None -> ())
    summary_entries;
  let slots = Array.make (max !max_idx 0) None in
  (* nothing else holds the parsed nodes: the objects, deleted objects
     and deleted elements are taken out of the parsed document, not
     copied *)
  List.iter
    (fun (idx, o) ->
      slots.(idx - 1) <- Some { node = taken o; alive = true; created = false })
    indexed;
  let t = { entries = []; change_order = [] } in
  (* process the summary *)
  let created_idxs = ref [] in
  List.iter
    (fun e ->
      let ref_idx =
        match Node.attribute_value e (sdo "ref") with
        | Some r -> index_of_ref r
        | None -> failwith "changeSummary entry without sdo:ref"
      in
      match Node.name e with
      | Some q when q.Qname.uri = sdo_ns && q.Qname.local = "created" ->
        created_idxs := ref_idx :: !created_idxs;
        t.change_order <- Created ref_idx :: t.change_order
      | Some q when q.Qname.uri = sdo_ns && q.Qname.local = "deleted" ->
        let old =
          match child_elements e with
          | [ o ] -> taken o
          | _ -> failwith "sdo:deleted must contain the old object"
        in
        slots.(ref_idx - 1) <-
          Some { node = old; alive = false; created = false };
        t.change_order <- Deleted (ref_idx, old) :: t.change_order
      | _ ->
        (* a Modified entry *)
        let oc = { leaves = []; element_deletes = []; element_inserts = [] } in
        List.iter
          (fun part ->
            match Node.name part with
            | Some q when q.Qname.uri = sdo_ns && q.Qname.local = "oldValue" ->
              let p =
                match Node.attribute_value part (sdo "path") with
                | Some s -> path_of_string s
                | None -> failwith "sdo:oldValue without sdo:path"
              in
              oc.leaves <-
                oc.leaves @ [ { leaf_path = p; old_value = Node.string_value part } ]
            | Some q when q.Qname.uri = sdo_ns && q.Qname.local = "deletedElement" ->
              let p =
                match Node.attribute_value part (sdo "path") with
                | Some s -> path_of_string s
                | None -> failwith "sdo:deletedElement without sdo:path"
              in
              let old =
                match child_elements part with
                | [ o ] -> taken o
                | _ -> failwith "sdo:deletedElement must contain the old element"
              in
              oc.element_deletes <-
                oc.element_deletes @ [ { deleted_path = p; deleted_old = old } ]
            | Some q when q.Qname.uri = sdo_ns && q.Qname.local = "insertedElement" ->
              let p =
                match Node.attribute_value part (sdo "path") with
                | Some s -> path_of_string s
                | None -> failwith "sdo:insertedElement without sdo:path"
              in
              (* resolve the inserted node in the current object *)
              let obj =
                match slots.(ref_idx - 1) with
                | Some e -> e.node
                | None -> failwith "insertedElement refers to a missing object"
              in
              let parent_path =
                match List.rev p with _ :: rev -> List.rev rev | [] -> []
              in
              let node = navigate obj p in
              oc.element_inserts <-
                oc.element_inserts
                @ [ { inserted_parent = parent_path; inserted_node = node } ]
            | Some q when q.Qname.uri = "" ->
              (* Figure 4 shape: a direct child holding the old value *)
              oc.leaves <-
                oc.leaves
                @ [
                    {
                      leaf_path = [ (q.Qname.local, 1) ];
                      old_value = Node.string_value part;
                    };
                  ]
            | _ -> ())
          (child_elements e);
        t.change_order <- Modified (ref_idx, oc) :: t.change_order)
    summary_entries;
  List.iter
    (fun i ->
      match slots.(i - 1) with
      | Some e -> slots.(i - 1) <- Some { e with created = true }
      | None -> failwith "sdo:created refers to a missing object")
    !created_idxs;
  t.entries <-
    Array.to_list slots
    |> List.map (function
         | Some e -> e
         | None ->
           (* an unmodified object slot that was not shipped; should not
              happen with our serializer *)
           failwith "datagraph: missing object slot");
  t
