(* XDM core: QNames, atomic values, nodes, items. *)

open Core.Xdm
open Util

let qname_tests =
  [
    case "equal ignores prefix" (fun () ->
        check_bool "eq" true
          (Qname.equal
             (Qname.make ~prefix:"a" ~uri:"u" "n")
             (Qname.make ~prefix:"b" ~uri:"u" "n")));
    case "unequal uri" (fun () ->
        check_bool "ne" false
          (Qname.equal (Qname.make ~uri:"u1" "n") (Qname.make ~uri:"u2" "n")));
    case "to_string with prefix" (fun () ->
        check_string "str" "xs:integer" (Qname.to_string (Qname.xs "integer")));
    case "to_string clark" (fun () ->
        check_string "str" "{u}n" (Qname.to_string (Qname.make ~uri:"u" "n")));
    case "compare orders by uri then local" (fun () ->
        check_bool "lt" true
          (Qname.compare (Qname.make ~uri:"a" "z") (Qname.make ~uri:"b" "a") < 0));
    case "hash consistent with equal" (fun () ->
        check_int "hash" (Qname.hash (Qname.make ~prefix:"p" ~uri:"u" "n"))
          (Qname.hash (Qname.make ~uri:"u" "n")));
  ]

let atomic_tests =
  [
    case "integer to_string" (fun () ->
        check_string "int" "42" (Atomic.to_string (Atomic.Integer 42)));
    case "decimal integral drops point" (fun () ->
        check_string "dec" "3" (Atomic.to_string (Atomic.Decimal 3.0)));
    case "decimal fraction" (fun () ->
        check_string "dec" "2.5" (Atomic.to_string (Atomic.Decimal 2.5)));
    case "double special values" (fun () ->
        check_string "inf" "INF" (Atomic.to_string (Atomic.Double infinity));
        check_string "-inf" "-INF" (Atomic.to_string (Atomic.Double neg_infinity));
        check_string "nan" "NaN" (Atomic.to_string (Atomic.Double nan)));
    case "double exponent form for large values" (fun () ->
        check_string "exp" "1.0E7" (Atomic.to_string (Atomic.Double 1e7)));
    case "boolean lexical" (fun () ->
        check_string "t" "true" (Atomic.to_string (Atomic.Boolean true)));
    case "cast string to integer" (fun () ->
        check_bool "cast" true
          (Atomic.cast_to (Atomic.String " 7 ") (Qname.xs "integer")
          = Atomic.Integer 7));
    case "cast bad string to integer fails" (fun () ->
        check_bool "castable" false
          (Atomic.can_cast_to (Atomic.String "x7") (Qname.xs "integer")));
    case "cast decimal rejects exponent" (fun () ->
        check_bool "castable" false
          (Atomic.can_cast_to (Atomic.String "1e3") (Qname.xs "decimal")));
    case "cast double accepts INF" (fun () ->
        check_bool "castable" true
          (Atomic.can_cast_to (Atomic.String "INF") (Qname.xs "double")));
    case "cast boolean from 1/0" (fun () ->
        check_bool "one" true
          (Atomic.cast_to (Atomic.Untyped "1") (Qname.xs "boolean")
          = Atomic.Boolean true);
        check_bool "zero" true
          (Atomic.cast_to (Atomic.Untyped "0") (Qname.xs "boolean")
          = Atomic.Boolean false));
    case "cast dateTime to date" (fun () ->
        check_bool "date" true
          (Atomic.cast_to (Atomic.DateTime "2007-12-01T10:00:00") (Qname.xs "date")
          = Atomic.Date "2007-12-01"));
    case "cast date to dateTime" (fun () ->
        check_bool "dt" true
          (Atomic.cast_to (Atomic.Date "2007-12-01") (Qname.xs "dateTime")
          = Atomic.DateTime "2007-12-01T00:00:00"));
    case "derives_from integer < decimal" (fun () ->
        check_bool "derives" true
          (Atomic.derives_from (Qname.xs "integer") (Qname.xs "decimal")));
    case "derives_from anyAtomicType" (fun () ->
        check_bool "derives" true
          (Atomic.derives_from (Qname.xs "date") (Qname.xs "anyAtomicType")));
    case "arith integer promotion" (fun () ->
        check_bool "int+int" true
          (Atomic.arith Atomic.Add (Atomic.Integer 2) (Atomic.Integer 3)
          = Atomic.Integer 5));
    case "div of integers is decimal" (fun () ->
        check_bool "div" true
          (Atomic.arith Atomic.Div (Atomic.Integer 1) (Atomic.Integer 2)
          = Atomic.Decimal 0.5));
    case "idiv truncates" (fun () ->
        check_bool "idiv" true
          (Atomic.arith Atomic.Idiv (Atomic.Integer 7) (Atomic.Integer 2)
          = Atomic.Integer 3));
    case "mod sign follows dividend" (fun () ->
        check_bool "mod" true
          (Atomic.arith Atomic.Mod (Atomic.Integer (-7)) (Atomic.Integer 2)
          = Atomic.Integer (-1)));
    case "integer division by zero raises" (fun () ->
        check_bool "raises" true
          (match Atomic.arith Atomic.Idiv (Atomic.Integer 1) (Atomic.Integer 0) with
          | _ -> false
          | exception Atomic.Cast_error _ -> true));
    case "compare numeric across tower" (fun () ->
        check_int "cmp" 0
          (Atomic.compare_values (Atomic.Integer 2) (Atomic.Decimal 2.0)));
    case "compare strings by codepoint" (fun () ->
        check_bool "lt" true
          (Atomic.compare_values (Atomic.String "a") (Atomic.String "b") < 0));
    case "incomparable types raise" (fun () ->
        check_bool "raises" true
          (match Atomic.compare_values (Atomic.Integer 1) (Atomic.Date "2007-01-01") with
          | _ -> false
          | exception Atomic.Cast_error _ -> true));
    case "NaN unequal to itself via equal_values" (fun () ->
        check_bool "nan" false
          (Atomic.equal_values (Atomic.Double nan) (Atomic.Double nan)));
    case "deep_equal treats NaN = NaN" (fun () ->
        check_bool "nan" true
          (Atomic.deep_equal (Atomic.Double nan) (Atomic.Double nan)));
    prop "cast_to string then back preserves integers"
      QCheck.(int_range (-10000) 10000)
      (fun i ->
        let s = Atomic.cast_to (Atomic.Integer i) (Qname.xs "string") in
        Atomic.cast_to s (Qname.xs "integer") = Atomic.Integer i);
    prop "compare_values is antisymmetric on integers"
      QCheck.(pair (int_range (-1000) 1000) (int_range (-1000) 1000))
      (fun (a, b) ->
        let x = Atomic.Integer a and y = Atomic.Integer b in
        Atomic.compare_values x y = -Atomic.compare_values y x);
  ]

let node_tests =
  let mk () =
    (* <root><a i="1">x</a><b/><a i="2">y</a></root> *)
    let a1 = Node.element ~attrs:[ (Qname.local "i", "1") ] (Qname.local "a")
        [ Node.text "x" ] in
    let b = Node.element (Qname.local "b") [] in
    let a2 = Node.element ~attrs:[ (Qname.local "i", "2") ] (Qname.local "a")
        [ Node.text "y" ] in
    let root = Node.element (Qname.local "root") [ a1; b; a2 ] in
    (root, a1, b, a2)
  in
  [
    case "string_value concatenates descendant text" (fun () ->
        let root, _, _, _ = mk () in
        check_string "sv" "xy" (Node.string_value root));
    case "children excludes attributes" (fun () ->
        let root, _, _, _ = mk () in
        check_int "children" 3 (List.length (Node.children root)));
    case "attribute_value" (fun () ->
        let _, a1, _, _ = mk () in
        check_bool "attr" true
          (Node.attribute_value a1 (Qname.local "i") = Some "1"));
    case "parent is set by construction" (fun () ->
        let root, a1, _, _ = mk () in
        check_bool "parent" true
          (match Node.parent a1 with
          | Some p -> Node.is_same p root
          | None -> false));
    case "descendants in document order" (fun () ->
        let root, _, _, _ = mk () in
        let names =
          List.filter_map
            (fun n -> Option.map (fun q -> q.Qname.local) (Node.name n))
            (Node.descendants root)
        in
        check_bool "order" true (names = [ "a"; "b"; "a" ]));
    case "following and preceding siblings" (fun () ->
        let _, _, b, a2 = mk () in
        check_int "following" 1 (List.length (Node.following_siblings b));
        check_int "preceding" 2 (List.length (Node.preceding_siblings a2)));
    case "doc_order ancestor first" (fun () ->
        let root, a1, _, a2 = mk () in
        check_bool "root<a1" true (Node.doc_order root a1 < 0);
        check_bool "a1<a2" true (Node.doc_order a1 a2 < 0));
    case "doc_order attribute after element before children" (fun () ->
        let _, a1, _, _ = mk () in
        let attr = List.hd (Node.attributes a1) in
        let text = List.hd (Node.children a1) in
        check_bool "el<attr" true (Node.doc_order a1 attr < 0);
        check_bool "attr<text" true (Node.doc_order attr text < 0));
    case "detach removes from parent" (fun () ->
        let root, a1, _, _ = mk () in
        Node.detach a1;
        check_int "children" 2 (List.length (Node.children root));
        check_bool "no parent" true (Node.parent a1 = None));
    case "insert_sibling before" (fun () ->
        let root, _, b, _ = mk () in
        Node.insert_sibling b ~pos:`Before [ Node.element (Qname.local "c") [] ];
        let names =
          List.filter_map
            (fun n -> Option.map (fun q -> q.Qname.local) (Node.name n))
            (Node.children root)
        in
        check_bool "order" true (names = [ "a"; "c"; "b"; "a" ]));
    case "set_attribute replaces existing" (fun () ->
        let _, a1, _, _ = mk () in
        Node.set_attribute a1 (Qname.local "i") "9";
        check_bool "attr" true
          (Node.attribute_value a1 (Qname.local "i") = Some "9");
        check_int "count" 1 (List.length (Node.attributes a1)));
    case "replace_children_with_text" (fun () ->
        let _, a1, _, _ = mk () in
        Node.replace_children_with_text a1 "new";
        check_string "sv" "new" (Node.string_value a1));
    case "replace_children_with_text empty string removes children" (fun () ->
        let _, a1, _, _ = mk () in
        Node.replace_children_with_text a1 "";
        check_int "children" 0 (List.length (Node.children a1)));
    case "deep_copy detaches and gets fresh identity" (fun () ->
        let _, a1, _, _ = mk () in
        let copy = Node.deep_copy a1 in
        check_bool "identity" false (Node.is_same copy a1);
        check_bool "parent" true (Node.parent copy = None);
        check_bool "deep_equal" true (Node.deep_equal copy a1));
    case "deep_equal ignores comments" (fun () ->
        let x = Node.element (Qname.local "e") [ Node.comment "c"; Node.text "t" ] in
        let y = Node.element (Qname.local "e") [ Node.text "t" ] in
        check_bool "eq" true (Node.deep_equal x y));
    case "deep_equal attribute order irrelevant" (fun () ->
        let x = Node.element ~attrs:[ (Qname.local "a", "1"); (Qname.local "b", "2") ]
            (Qname.local "e") [] in
        let y = Node.element ~attrs:[ (Qname.local "b", "2"); (Qname.local "a", "1") ]
            (Qname.local "e") [] in
        check_bool "eq" true (Node.deep_equal x y));
    case "typed_value of element is untyped atomic" (fun () ->
        let _, a1, _, _ = mk () in
        check_bool "tv" true (Node.typed_value a1 = [ Atomic.Untyped "x" ]));
    case "append_child rejects attribute" (fun () ->
        let root, _, _, _ = mk () in
        check_bool "raises" true
          (match Node.append_child root (Node.attribute (Qname.local "x") "1") with
          | () -> false
          | exception Invalid_argument _ -> true));
    case "node ids are unique across domains and increase within one"
      (fun () ->
        (* two domains allocating at once: a shared unsynchronized counter
           hands out the same id twice, within a domain and across both *)
        let n = 1_000_000 in
        let make () = Array.init n (fun _ -> Node.id (Node.text "")) in
        let other = Domain.spawn make in
        let mine = make () in
        let theirs = Domain.join other in
        let increasing a =
          let ok = ref true in
          for i = 1 to Array.length a - 1 do
            if a.(i) <= a.(i - 1) then ok := false
          done;
          !ok
        in
        check_bool "increasing in the main domain" true (increasing mine);
        check_bool "increasing in the other domain" true (increasing theirs);
        let all = Array.append mine theirs in
        Array.sort compare all;
        check_bool "no id handed out twice" true (increasing all));
  ]

let item_tests =
  [
    case "effective_boolean_value rules" (fun () ->
        check_bool "empty" false (Item.effective_boolean_value []);
        check_bool "node" true
          (Item.effective_boolean_value
             [ Item.Node (Node.text "x"); Item.Atomic (Atomic.Integer 0) ]);
        check_bool "zero" false
          (Item.effective_boolean_value [ Item.Atomic (Atomic.Integer 0) ]);
        check_bool "empty string" false
          (Item.effective_boolean_value [ Item.Atomic (Atomic.String "") ]);
        check_bool "nan" false
          (Item.effective_boolean_value [ Item.Atomic (Atomic.Double nan) ]));
    case "ebv of two atomics raises FORG0006" (fun () ->
        check_bool "raises" true
          (match
             Item.effective_boolean_value
               [ Item.Atomic (Atomic.Integer 1); Item.Atomic (Atomic.Integer 2) ]
           with
          | _ -> false
          | exception Item.Error { code; _ } -> code.Qname.local = "FORG0006"));
    case "atomize node" (fun () ->
        let el = Node.element (Qname.local "e") [ Node.text "42" ] in
        check_bool "atomize" true
          (Item.atomize [ Item.Node el ] = [ Atomic.Untyped "42" ]));
    case "doc_sort dedupes by identity" (fun () ->
        let el = Node.element (Qname.local "e") [] in
        check_int "dedupe" 1
          (List.length (Item.doc_sort [ Item.Node el; Item.Node el ])));
    case "one_node on atomic raises XPTY0004" (fun () ->
        check_bool "raises" true
          (match Item.one_node [ Item.Atomic (Atomic.Integer 1) ] with
          | _ -> false
          | exception Item.Error { code; _ } -> code.Qname.local = "XPTY0004"));
  ]

let suites =
  [
    ("xdm.qname", qname_tests);
    ("xdm.atomic", atomic_tests);
    ("xdm.node", node_tests);
    ("xdm.item", item_tests);
  ]
