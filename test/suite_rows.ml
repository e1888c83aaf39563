(* Row elements (DESIGN.md §13): a table read hands the evaluator
   elements that keep their row's cells and build their column children
   on first navigation. Every accessor must see the element the eager
   mapping built; the compiled plans' cell reads must agree with the
   walker and the unoptimized plans, fall back on everything but one
   unbuilt row, and leave rows unbuilt; copies stay unbuilt through
   XQUF and the result cache; and two domains building one shared row
   must end up with the same children. *)

open Core
open Util
open Xdm
module FC = Fixtures.Customer_profile
module R = Relational

(* the element the eager mapping built: one child per non-NULL column *)
let eager tbl row =
  let schema = R.Table.schema tbl in
  Node.element
    (Qname.local schema.R.Table.tbl_name)
    (List.concat
       (List.mapi
          (fun i (c : R.Table.column) ->
            match row.(i) with
            | R.Value.Null -> []
            | v ->
              [
                Node.element
                  (Qname.local c.R.Table.col_name)
                  [ Node.text (R.Value.to_string v) ];
              ])
          schema.R.Table.columns))

(* Figure 3's tables, plus a customer whose SSN is NULL, an order with
   NULL date and amount and an empty status, and a card with an empty
   type *)
let env () =
  let e = FC.make ~customers:5 () in
  R.Table.insert e.FC.customer
    [| R.Value.Text "N1"; Text "Nora"; Text "Null"; Null |];
  R.Table.insert e.FC.orders
    [| R.Value.Int 999; Text "N1"; Null; Null; Text "" |];
  R.Table.insert e.FC.credit_card
    [| R.Value.Int 999; Text "N1"; Text ""; Text "VISA"; Null;
       Date "2011-01-01" |];
  e

let tables e =
  [ ("CUSTOMER", e.FC.customer); ("ORDERS", e.FC.orders);
    ("CREDIT_CARD", e.FC.credit_card) ]

let bind name n = (Qname.local name, [ Item.Node n ])

let eval_with ?(session = Xqse.Session.create ()) vars q =
  Xqse.Session.eval_to_string
    ~opts:{ Xqse.Session.default_exec_opts with vars }
    session q

(* [q] over each row ([$r]) and the row after it ([$s]): row elements
   and eager elements must read the same. Every query gets fresh row
   elements, so each starts from unbuilt rows. *)
let agree_per_row tbl q =
  let rows = R.Table.scan tbl in
  let to_xml = Aldsp.Rowxml.row_to_xml tbl in
  List.iteri
    (fun i row ->
      let next = List.nth rows ((i + 1) mod List.length rows) in
      let lazy_r = to_xml row in
      let lazy_s = to_xml next in
      let eager_r = eager tbl row in
      let eager_s = eager tbl next in
      check_string
        (Printf.sprintf "%s, row %d" q i)
        (eval_with [ bind "r" eager_r; bind "s" eager_s ] q)
        (eval_with [ bind "r" lazy_r; bind "s" lazy_s ] q))
    rows

let axis_queries =
  [
    ("serialization", "$r");
    ("string value", "string($r)");
    ("typed value", "(data($r), data($r) instance of xs:untypedAtomic)");
    ( "deep-equal",
      "deep-equal($r, <T>{$r/node()}</T>/*[1]/..) and \
       deep-equal(<T>{$r/node()}</T>, <T>{$r/node()}</T>)" );
    ( "child axis",
      "string-join(for $c in $r/node() return concat(name($c), '=', \
       string($c), ':', count($c/node())), '|')" );
    ( "descendant axis",
      "string-join(for $d in $r//node() return if ($d instance of \
       element()) then name($d) else concat('[', string($d), ']'), ' ')" );
    ( "parent axis",
      "string-join(for $c in $r/*, $t in $c/node() return \
       concat($c/.. is $r, $t/.. is $c, name($t/..)), ' ')" );
    ( "sibling axes",
      "string-join(for $c in $r/* return concat(name($c), '>', \
       string-join($c/following-sibling::*/name(), ','), '<', \
       string-join($c/preceding-sibling::*/name(), ',')), '|')" );
    ( "following and preceding axes",
      "string-join(for $n in $r//node() return \
       concat(string-join($n/following::node()/string(), ','), '/', \
       string-join($n/preceding::node()/string(), ',')), '|')" );
    ( "is on repeated navigation",
      "(every $c in $r/* satisfies $r/*[name() eq name($c)][1] is $c, \
       every $t in $r//text() satisfies $t is $t/../text()[1], \
       count($r/* | $r/*), count($r/* intersect $r//*))" );
    ( "document order against a later row",
      "let $later := $s/* return (every $c in $r//node() satisfies \
       ($c << $s and (every $d in $later satisfies $c << $d)), $r << $s, \
       every $d in $later satisfies $d >> $r, root($r/*[1]) is $r)" );
    ( "column data",
      "string-join(for $c in $r/* return concat(name($c), '=', \
       data($r/*[name() eq name($c)])), ',')" );
  ]

let element_tests =
  let e = env () in
  List.concat_map
    (fun (tname, tbl) ->
      case
        (Printf.sprintf "%s: node-level string value, typed value, \
                         deep-equal, unbuilt until navigated" tname)
        (fun () ->
          let to_xml = Aldsp.Rowxml.row_to_xml tbl in
          List.iter
            (fun row ->
              let r = to_xml row and ref_el = eager tbl row in
              check_bool "a fresh row element is unbuilt" true
                (Node.unbuilt_row r);
              check_string "string value" (Node.string_value ref_el)
                (Node.string_value r);
              check_string "typed value"
                (String.concat "," (List.map Atomic.to_string (Node.typed_value ref_el)))
                (String.concat "," (List.map Atomic.to_string (Node.typed_value r)));
              check_bool "string and typed values do not build" true
                (Node.unbuilt_row r);
              check_bool "kind" true (Node.kind r = Node.Element);
              check_bool "no attributes" true (Node.attributes r = []);
              check_string "serialization" (Xml_serialize.to_string ref_el)
                (Xml_serialize.to_string (to_xml row));
              check_bool "deep-equal" true (Node.deep_equal r ref_el);
              check_bool "deep-equal, reversed" true
                (Node.deep_equal ref_el (to_xml row));
              check_bool "navigated, it is built" false (Node.unbuilt_row r))
            (R.Table.scan tbl))
      :: List.map
           (fun (what, q) ->
             case (Printf.sprintf "%s: %s" tname what) (fun () ->
                 agree_per_row tbl q))
           axis_queries)
    (tables e)

(* the same mutations on a row element and on the eager element, in
   sequence: each goes through the row's published children *)
let mutation_tests =
  let e = env () in
  let row = List.hd (R.Table.scan e.FC.customer) in
  let to_xml = Aldsp.Rowxml.row_to_xml e.FC.customer in
  let nth el i = List.nth (Node.children el) i in
  let steps =
    [
      ("insert last", fun el -> Node.insert_children el ~pos:`Last
           [ Node.element (Qname.local "NEW") [ Node.text "n" ] ]);
      ("insert first", fun el -> Node.insert_children el ~pos:`First
           [ Node.text "t" ]);
      ("append", fun el -> Node.append_child el (Node.comment "c"));
      ("insert before a column", fun el ->
          Node.insert_sibling (nth el 2) ~pos:`Before [ Node.element (Qname.local "B") [] ]);
      ("delete a column", fun el -> Node.detach (nth el 3));
      ("replace a column's value", fun el ->
          Node.replace_children_with_text (nth el 1) "Z");
      ("rename a column", fun el -> Node.rename (nth el 4) (Qname.local "SURNAME"));
      ("set an attribute", fun el -> Node.set_attribute el (Qname.local "a") "1");
      ("replace the row's value", fun el -> Node.replace_children_with_text el "v");
    ]
  in
  [
    case "XQUF primitives on a row element act as on the eager element"
      (fun () ->
        let r = to_xml row and ref_el = eager e.FC.customer row in
        List.iter
          (fun (what, step) ->
            step r;
            step ref_el;
            check_string what (Xml_serialize.to_string ref_el)
              (Xml_serialize.to_string r))
          steps);
    case "a mutation on an unbuilt row builds it first" (fun () ->
        let r = to_xml row in
        Node.set_attribute r (Qname.local "a") "1";
        check_bool "an attribute leaves the children unbuilt" true
          (Node.unbuilt_row r);
        Node.insert_children r ~pos:`Last [ Node.element (Qname.local "X") [] ];
        check_bool "an insert builds" false (Node.unbuilt_row r);
        check_string "the columns, then the insert"
          "<CUSTOMER a=\"1\"><CID>007</CID><FIRST_NAME>James</FIRST_NAME>\
           <LAST_NAME>Carrey</LAST_NAME><SSN>111-22-3333</SSN><X/></CUSTOMER>"
          (Xml_serialize.to_string r));
    case "a copy of an unbuilt row is unbuilt and leaves the source unbuilt"
      (fun () ->
        let r = to_xml row in
        Node.set_attribute r (Qname.local "a") "1";
        let c = Node.deep_copy r in
        check_bool "the copy is unbuilt" true (Node.unbuilt_row c);
        check_bool "the source is unbuilt" true (Node.unbuilt_row r);
        check_bool "a fresh node" false (Node.is_same c r);
        let ref_el = eager e.FC.customer row in
        Node.set_attribute ref_el (Qname.local "a") "1";
        check_string "the copy reads as the source"
          (Xml_serialize.to_string ref_el)
          (Xml_serialize.to_string c);
        check_bool "the source is still unbuilt" true (Node.unbuilt_row r));
    case "a copy of a built row is a plain copy of its children" (fun () ->
        let r = to_xml row in
        Node.replace_children_with_text (List.hd (Node.children r)) "Z";
        let c = Node.deep_copy r in
        check_bool "not a row" false (Node.unbuilt_row c);
        check_string "the changed child is copied" (Xml_serialize.to_string r)
          (Xml_serialize.to_string c));
  ]

(* ---- cell reads on the compiled plans ---- *)

let modes =
  [
    ("compiled", true, true);
    ("optimize off", false, true);
    ("plans off", true, false);
    ("both off", false, false);
  ]

let fork e ~optimize ~plans =
  let s = Aldsp.Dataspace.session e.FC.ds in
  Xqse.Session.with_config s { (Xqse.Session.config s) with optimize; plans }

(* [q] in every mode must read [expect] ([None]: as compiled). [vars]
   makes fresh bindings per mode, so each mode starts from unbuilt
   rows. *)
let across_modes ?expect ?(vars = fun () -> []) e q =
  let run (_, optimize, plans) =
    match eval_with ~session:(fork e ~optimize ~plans) (vars ()) q with
    | s -> s
    | exception Item.Error { code; _ } -> "error " ^ code.Qname.local
  in
  let compiled = run (List.hd modes) in
  (match expect with Some x -> check_string (q ^ " (compiled)") x compiled | None -> ());
  List.iter
    (fun ((name, _, _) as m) -> check_string (q ^ " (" ^ name ^ ")") compiled (run m))
    (List.tl modes)

let fast_path_tests =
  let e = env () in
  let same ?expect name q = case name (fun () -> across_modes ?expect e q) in
  [
    same "fn:data($v/COL) over every customer, NULL SSN included"
      "for $c in customer:CUSTOMER() return <c>{fn:data($c/CID)}:{fn:data($c/SSN)}</c>";
    same "the leaf over a NULL column is empty"
      ~expect:"<SSN/>"
      "for $c in customer:CUSTOMER() where $c/CID eq 'N1' return \
       <SSN>{fn:data($c/SSN)}</SSN>";
    same "the leaf over Int, Float, Date and text columns"
      "for $o in orders:ORDERS() return <o><OID>{fn:data($o/OID)}</OID>\
       <TOTAL>{fn:data($o/TOTAL_ORDER_AMOUNT)}</TOTAL>\
       <D>{fn:data($o/ORDER_DATE)}</D><S>{fn:data($o/STATUS)}</S></o>";
    same "an empty text cell is an empty text child" ~expect:"<S></S>"
      "for $o in orders:ORDERS() where $o/OID = 999 return \
       <S>{fn:data($o/STATUS)}</S>";
    same "a leaf with a prefixed element name"
      "declare namespace p = 'urn:p'; for $c in customer:CUSTOMER() return \
       <p:L>{fn:data($c/LAST_NAME)}</p:L>";
    same "a leaf with an attribute takes the general plan"
      "for $c in customer:CUSTOMER() return <L a='1'>{fn:data($c/LAST_NAME)}</L>";
    same "the keyed read's key $v/COL"
      "for $c in customer:CUSTOMER() return \
       <n>{count(credit_card:CREDIT_CARD()[CID eq $c/CID])}</n>";
    same "the keyed read's key fn:data($v/COL)"
      "for $c in customer:CUSTOMER() return \
       <n>{count(credit_card:CREDIT_CARD()[CID eq fn:data($c/CID)])}</n>";
    same "a NULL key and an empty key"
      "for $o in orders:ORDERS() return \
       <n>{count(credit_card:CREDIT_CARD()[CC_TYPE eq $o/STATUS])}</n>";
    same "navigation in both directions"
      "(for $c in customer:CUSTOMER() return count(customer:getORDERS($c)), \
       for $o in orders:ORDERS() return orders:getCUSTOMER($o)/CID/string())";
    same "Figure 3's getProfile" "profile:getProfile()";
  ]

let fallback_tests =
  let e = env () in
  let to_xml = Aldsp.Rowxml.row_to_xml e.FC.customer in
  let row k = List.nth (R.Table.scan e.FC.customer) k in
  let queries =
    [
      "fn:data($v/CID)";
      "<X>{fn:data($v/CID)}</X>";
      "count(customer:CUSTOMER()[CID = $v/CID])";
      "declare namespace p = 'urn:p'; (fn:data($v/p:CID), <X>{fn:data($v/p:CID)}</X>)";
    ]
  in
  let over name ~expect vars =
    List.map2
      (fun q x ->
        case (name ^ ": " ^ q) (fun () -> across_modes ~expect:x ~vars e q))
      queries expect
  in
  over "a built row whose column was replaced"
    ~expect:[ "Z"; "<X>Z</X>"; "0"; "<X/>" ]
    (fun () ->
      let r = to_xml (row 1) in
      Node.replace_children_with_text (List.hd (Node.children r)) "Z";
      [ bind "v" r ])
  @ over "two unbuilt rows"
      ~expect:[ "C1 C2"; "<X>C1 C2</X>"; "2"; "<X/>" ]
      (fun () ->
        let r1 = to_xml (row 1) in
        let r2 = to_xml (row 2) in
        [ (Qname.local "v", [ Item.Node r1; Item.Node r2 ]) ])
  @ over "an element that is not a row"
      ~expect:[ "C1"; "<X>C1</X>"; "1"; "<X/>" ]
      (fun () -> [ bind "v" (eager e.FC.customer (row 1)) ])
  @ over "one unbuilt row" ~expect:[ "C1"; "<X>C1</X>"; "1"; "<X/>" ]
      (fun () -> [ bind "v" (to_xml (row 1)) ])
  @ [
      case "the compiled cell reads leave the row unbuilt" (fun () ->
          let r = to_xml (row 1) in
          List.iter
            (fun q ->
              ignore
                (eval_with ~session:(fork e ~optimize:true ~plans:true)
                   [ bind "v" r ] q))
            [ "fn:data($v/CID)"; "<X>{fn:data($v/CID)}</X>";
              "count(customer:CUSTOMER()[CID eq $v/CID])";
              "count(customer:getORDERS($v))" ];
          check_bool "unbuilt" true (Node.unbuilt_row r));
    ]

let xquf_tests =
  let e = env () in
  let rows = R.Table.scan e.FC.customer in
  let to_xml = Aldsp.Rowxml.row_to_xml e.FC.customer in
  let q =
    "copy $x := $r modify (replace value of node $x/CID with 'Z', delete \
     node $x/SSN, insert node <NEW>n</NEW> into $x, rename node \
     $x/LAST_NAME as 'SURNAME') return $x"
  in
  [
    case "copy-modify on a row element" (fun () ->
        List.iter
          (fun row ->
            across_modes
              ~expect:(eval_with [ bind "r" (eager e.FC.customer row) ] q)
              ~vars:(fun () -> [ bind "r" (to_xml row) ])
              e q)
          rows);
    case "copy-modify leaves the source row unbuilt" (fun () ->
        let r = to_xml (List.hd rows) in
        ignore (eval_with ~session:(fork e ~optimize:true ~plans:true) [ bind "r" r ] q);
        check_bool "unbuilt" true (Node.unbuilt_row r));
  ]

(* the result cache copies on store and on hit; a row's copy is an
   unbuilt row over the same cells, so the cached master never builds *)
let cache_tests =
  [
    case "rows through the result cache stay unbuilt" (fun () ->
        let instr = Instr.create () in
        Instr.preregister instr;
        Instr.enable instr;
        let e = FC.make ~customers:5 ~instr () in
        ignore (Aldsp.Dataspace.enable_result_cache e.FC.ds);
        let s = Aldsp.Dataspace.session e.FC.ds in
        let hits () =
          Option.value ~default:0
            (List.assoc_opt Instr.K.cache_hit (Instr.stats instr).Instr.counters)
        in
        let read () =
          let v = Xqse.Session.eval s "customer:CUSTOMER()" in
          check_int "every row" 6 (List.length v);
          List.iter
            (function
              | Item.Node n ->
                check_bool "a returned row is unbuilt" true (Node.unbuilt_row n);
                (* navigating the copy builds the copy only *)
                ignore (Node.children n)
              | Item.Atomic _ -> Alcotest.fail "an atomic row")
            v;
          Xml_serialize.seq_to_string v
        in
        let first = read () in
        check_int "the first read stores" 0 (hits ());
        for k = 1 to 3 do
          check_string "a hit reads as the stored read" first (read ());
          check_int "hits" k (hits ())
        done);
  ]

(* Two domains navigate one shared library variable at once. Each row's
   children are built by whichever domain gets there first, and the
   compare-and-set hands the other that same list, so both domains
   return the same nodes. Publishing without the compare-and-set lets
   the later builder overwrite the earlier one's children, and the two
   domains then return different nodes for that row. *)
let race_tests =
  [
    case "two domains navigating shared rows get the same children"
      (fun () ->
        let e = FC.make ~customers:2000 () in
        let s = Aldsp.Dataspace.session e.FC.ds in
        let same a b =
          List.length a = List.length b
          && List.for_all2
               (fun x y ->
                 match (x, y) with
                 | Item.Node x, Item.Node y -> Node.is_same x y
                 | _ -> false)
               a b
        in
        for k = 1 to 40 do
          let ns = Printf.sprintf "urn:rows%d" k in
          Xqse.Session.load_library s
            (Printf.sprintf
               "declare namespace m = %S; declare variable $m:rows := \
                customer:CUSTOMER();"
               ns);
          let q =
            Printf.sprintf
              "declare namespace m = %S; for $r in $m:rows return \
               ($r/LAST_NAME, $r/CID)"
              ns
          in
          let ready = Stdlib.Atomic.make 0 in
          let go () =
            let fork = Xqse.Session.with_config s (Xqse.Session.config s) in
            let c = Xqse.Session.compile fork q in
            Stdlib.Atomic.incr ready;
            while Stdlib.Atomic.get ready < 2 do
              Domain.cpu_relax ()
            done;
            Xqse.Session.run c
          in
          let d = Domain.spawn go in
          let mine = go () in
          let theirs = Domain.join d in
          check_int "two columns per row" (2 * 2001) (List.length mine);
          if not (same mine theirs) then
            Alcotest.failf "run %d: the two domains read different nodes" k;
          check_string "and the same text"
            (Xml_serialize.seq_to_string mine)
            (Xml_serialize.seq_to_string theirs)
        done);
  ]

let suites =
  [
    ("aldsp.row-element", element_tests @ mutation_tests);
    ("aldsp.cell-reads", fast_path_tests @ fallback_tests @ xquf_tests @ cache_tests);
    ("aldsp.row-race", race_tests);
  ]
