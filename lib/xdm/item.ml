type t = Atomic of Atomic.t | Node of Node.t
type seq = t list

exception Error of { code : Qname.t; message : string; items : seq }

let raise_error ?(items = []) code message =
  raise (Error { code; message; items })

let type_error msg = raise_error (Qname.err "XPTY0004") msg
let of_atom a = [ Atomic a ]
let of_node n = [ Node n ]
let str s = [ Atomic (Atomic.String s) ]
let int i = [ Atomic (Atomic.Integer i) ]

(* shared: boolean results are produced on every comparison, and items
   are immutable, so both singletons can be preallocated *)
let true_seq = [ Atomic (Atomic.Boolean true) ]
let false_seq = [ Atomic (Atomic.Boolean false) ]
let bool b = if b then true_seq else false_seq
let empty = []

let string_value = function
  | Atomic a -> Atomic.to_string a
  | Node n -> Node.string_value n

let atomize = function
  | [ Node n ] -> Node.typed_value n
  | [ Atomic a ] -> [ a ]
  | seq ->
    List.concat_map
      (function Atomic a -> [ a ] | Node n -> Node.typed_value n)
      seq

let effective_boolean_value = function
  | [] -> false
  | Node _ :: _ -> true
  | [ Atomic (Atomic.Boolean b) ] -> b
  | [ Atomic (Atomic.String s | Atomic.Untyped s | Atomic.AnyUri s) ] ->
    s <> ""
  | [ Atomic (Atomic.Integer i) ] -> i <> 0
  | [ Atomic (Atomic.Decimal f) ] -> f <> 0.
  | [ Atomic (Atomic.Double f) ] -> not (f = 0. || Float.is_nan f)
  | _ ->
    raise_error (Qname.err "FORG0006")
      "invalid argument for effective boolean value"

let one_atom seq =
  match atomize seq with
  | [ a ] -> a
  | [] -> type_error "expected exactly one atomic value, got empty sequence"
  | _ -> type_error "expected exactly one atomic value, got more than one"

let one_atom_opt seq =
  match atomize seq with
  | [] -> None
  | [ a ] -> Some a
  | _ -> type_error "expected at most one atomic value"

let one_node = function
  | [ Node n ] -> n
  | [ Atomic _ ] -> type_error "expected a node, got an atomic value"
  | [] -> type_error "expected a node, got empty sequence"
  | _ -> type_error "expected a single node"

let nodes_only seq =
  List.map
    (function
      | Node n -> n
      | Atomic _ ->
        raise_error (Qname.err "XPTY0018")
          "path step result mixes nodes and atomic values")
    seq

let string_of_item = string_value

(* strictly ascending: already sorted, with no duplicate *)
let rec ascending = function
  | Node a :: (Node b :: _ as rest) -> Node.doc_order a b < 0 && ascending rest
  | [ Node _ ] -> true
  | _ -> false

let doc_sort seq =
  match seq with
  | [] | [ Node _ ] -> seq
  | _ when ascending seq -> seq
  | _ ->
    let nodes = nodes_only seq in
    let sorted = List.stable_sort Node.doc_order nodes in
    let rec dedupe = function
      | a :: (b :: _ as rest) when Node.is_same a b -> dedupe rest
      | a :: rest -> a :: dedupe rest
      | [] -> []
    in
    List.map (fun n -> Node n) (dedupe sorted)

let deep_equal s1 s2 =
  List.length s1 = List.length s2
  && List.for_all2
       (fun a b ->
         match (a, b) with
         | Atomic x, Atomic y -> Atomic.deep_equal x y
         | Node x, Node y -> Node.deep_equal x y
         | _ -> false)
       s1 s2

let pp ppf = function
  | Atomic a -> Atomic.pp ppf a
  | Node n -> Node.pp ppf n

let pp_seq ppf seq =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp)
    seq
