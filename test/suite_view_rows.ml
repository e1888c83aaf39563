(* View rows (DESIGN.md §13, §14): a compiled direct constructor that
   only projects one row, as Figure 3's ORDERS and CREDIT_CARD blocks
   do, yields a row element over its source row's cells whose leaves
   are built on first navigation. It must read as the element the
   general plan builds, which the walker (plans off) still builds
   eagerly: serialized bytes, string and typed value, deep-equal, every
   axis, [is], document order, XQUF, SDO leaf changes and the result
   cache. Serializing a row writes it from its cells and leaves it
   unbuilt; and two domains building one shared view row must end up
   with the same children. *)

open Core
open Util
open Xdm
module FC = Fixtures.Customer_profile
module R = Relational

(* Figure 3's tables, plus an order with NULL date and amount and an
   empty status, a card with an empty type and a NULL number, and a
   card with a NULL brand and expiry *)
let env ?(customers = 5) () =
  let e = FC.make ~customers () in
  R.Table.insert e.FC.customer
    [| R.Value.Text "N1"; Text "Nora"; Text "Null"; Null |];
  R.Table.insert e.FC.orders [| R.Value.Int 999; Text "N1"; Null; Null; Text "" |];
  R.Table.insert e.FC.credit_card
    [| R.Value.Int 999; Text "N1"; Text ""; Text "VISA"; Null; Date "2011-01-01" |];
  R.Table.insert e.FC.credit_card
    [| R.Value.Int 998; Text "N1"; Text "DEBIT"; Null; Text "4000-0001"; Null |];
  e

(* Figure 3's two row blocks over [$o] *)
let orders_block =
  "<ORDERS><OID>{fn:data($o/OID)}</OID><CID>{fn:data($o/CID)}</CID>\
   <ORDER_DATE>{fn:data($o/ORDER_DATE)}</ORDER_DATE>\
   <TOTAL>{fn:data($o/TOTAL_ORDER_AMOUNT)}</TOTAL>\
   <STATUS>{fn:data($o/STATUS)}</STATUS></ORDERS>"

let cards_block =
  "<CREDIT_CARD><CCID>{fn:data($o/CCID)}</CCID><CID>{fn:data($o/CID)}</CID>\
   <TYPE>{fn:data($o/CC_TYPE)}</TYPE><BRAND>{fn:data($o/CC_BRAND)}</BRAND>\
   <NUMBER>{fn:data($o/CC_NUMBER)}</NUMBER>\
   <EXP_DATE>{fn:data($o/EXP_DATE)}</EXP_DATE></CREDIT_CARD>"

let blocks =
  [ ("ORDERS", "orders:ORDERS()", orders_block);
    ("CREDIT_CARD", "credit_card:CREDIT_CARD()", cards_block) ]

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

let compiled e = fork e ~optimize:true ~plans:true
let walker e = fork e ~optimize:true ~plans:false

let nodes seq =
  List.map
    (function Item.Node n -> n | Item.Atomic _ -> Alcotest.fail "an atomic item")
    seq

(* [q] must read the same in every mode ([expect]: and read that);
   [vars] makes fresh bindings per mode, so each starts from unbuilt
   rows *)
let across_modes ?expect ?(vars = fun () -> []) e q =
  let run (_, optimize, plans) =
    let opts = { Xqse.Session.default_exec_opts with vars = vars () } in
    match Xqse.Session.eval_to_string ~opts (fork e ~optimize ~plans) q with
    | s -> s
    | exception Item.Error { code; _ } -> "error " ^ code.Qname.local
  in
  let reference = run (List.hd modes) in
  (match expect with
  | Some x -> check_string (q ^ " (compiled)") x reference
  | None -> ());
  List.iter
    (fun ((name, _, _) as m) -> check_string (q ^ " (" ^ name ^ ")") reference (run m))
    (List.tl modes)

(* each row's block bound to [$r], the next row's to [$s] *)
let per_row source block p =
  Printf.sprintf
    "let $rows := %s, $n := count($rows) for $o0 at $i in $rows \
     let $r := (let $o := $o0 return %s), \
     $s := (let $o := $rows[($i mod $n) + 1] return %s) \
     return <p>{%s}</p>"
    source block block p

let properties =
  [
    ("serialization", "$r");
    ("string value", "string($r)");
    ("typed value", "(data($r), data($r) instance of xs:untypedAtomic)");
    ( "deep-equal",
      "deep-equal($r, <T>{$r/node()}</T>/*[1]/..) and \
       deep-equal(<T>{$r/node()}</T>, <T>{$r/node()}</T>) and \
       deep-equal($r, $r) and not(deep-equal($r, $s))" );
    ( "child axis",
      "string-join(for $c in $r/node() return concat(name($c), '=', \
       string($c), ':', count($c/node())), '|')" );
    ( "descendant axis",
      "string-join(for $d in $r//node() return if ($d instance of \
       element()) then name($d) else concat('[', string($d), ']'), ' ')" );
    ( "parent and ancestor axes",
      "string-join(for $c in $r/*, $t in $c/node() return \
       concat($c/.. is $r, $t/.. is $c, name($t/..), \
       count($t/ancestor::node()), $t/ancestor::*[last()] is $r), ' ')" );
    ( "sibling axes",
      "string-join(for $c in $r/* return concat(name($c), '>', \
       string-join($c/following-sibling::*/name(), ','), '<', \
       string-join($c/preceding-sibling::*/name(), ',')), '|')" );
    ( "following and preceding axes",
      "string-join(for $n in $r//node() return \
       concat(string-join($n/following::node()/string(), ','), '/', \
       string-join($n/preceding::node()/string(), ',')), '|')" );
    ( "self and attribute axes",
      "(count($r/self::*), count($r/@*), count($r/*/@*), name($r/self::*))" );
    ( "is on repeated navigation",
      "(every $c in $r/* satisfies $r/*[name() eq name($c)][1] is $c, \
       every $t in $r//text() satisfies $t is $t/../text()[1], \
       count($r/* | $r/*), count($r/* intersect $r//*))" );
    ( "document order against a later row",
      "let $later := $s/* return (every $c in $r//node() satisfies \
       ($c << $s and (every $d in $later satisfies $c << $d)), $r << $s, \
       every $d in $later satisfies $d >> $r, root($r/*[1]) is $r)" );
    ( "document order against a row built first",
      "let $b := $s/*[1] return ($r << $b, $b >> $r/*[last()], \
       $o0/*[1] << $r/*[1], $r/*[1] >> $o0, \
       for $c in ($r/*, $b) order by $c return name($c))" );
    ( "column data",
      "string-join(for $c in $r/* return concat(name($c), '=', \
       data($r/*[name() eq name($c)]), ':', empty($c/text())), ',')" );
    ( "XQUF on a copy",
      "copy $x := $r modify (replace value of node $x/*[1] with 'Z', \
       delete node $x/*[2], insert node <NEW>n</NEW> into $x, \
       insert node <F/> as first into $x, \
       insert node <B/> before $x/*[last()], \
       replace node $x/*[4] with <R>r</R>, \
       rename node $x/*[last()] as 'LAST') return $x" );
    ( "a view of a view",
      "let $o := $r return <V><A>{fn:data($o/*[1])}</A>\
       <C>{fn:data($o/CID)}</C><D>{fn:data($o/ORDER_DATE)}</D>\
       <T>{fn:data($o/TYPE)}</T><M>{fn:data($o/MISSING)}</M></V>" );
  ]

let property_tests =
  let e = env () in
  List.concat_map
    (fun (bname, source, block) ->
      List.map
        (fun (what, p) ->
          case (Printf.sprintf "%s: %s in every mode" bname what) (fun () ->
              across_modes e (per_row source block p)))
        properties)
    blocks

(* node by node: the compiled plan's view rows against the walker's
   elements *)
let node_tests =
  let e = env () in
  List.concat_map
    (fun (bname, source, block) ->
      let q = Printf.sprintf "for $o in %s return %s" source block in
      [
        case (bname ^ ": each row's block is an unbuilt view row that reads as \
                        the walker's element")
          (fun () ->
            let views = nodes (Xqse.Session.eval (compiled e) q) in
            let refs = nodes (Xqse.Session.eval (walker e) q) in
            check_int "one per row" (List.length refs) (List.length views);
            List.iter2
              (fun v r ->
                check_bool "a view row" true (Node.unbuilt_row v);
                check_bool "the walker's is built eagerly" false (Node.unbuilt_row r);
                check_string "string value" (Node.string_value r) (Node.string_value v);
                check_string "typed value"
                  (String.concat "," (List.map Atomic.to_string (Node.typed_value r)))
                  (String.concat "," (List.map Atomic.to_string (Node.typed_value v)));
                check_string "serialization" (Xml_serialize.to_string r)
                  (Xml_serialize.to_string v);
                check_string "indented"
                  (Xml_serialize.to_string ~indent:true r)
                  (Xml_serialize.to_string ~indent:true v);
                check_bool "none of these builds it" true (Node.unbuilt_row v);
                check_bool "deep-equal" true (Node.deep_equal v r);
                check_bool "navigated, it is built" false (Node.unbuilt_row v);
                check_string "built, it serializes the same"
                  (Xml_serialize.to_string r) (Xml_serialize.to_string v))
              views refs);
        case (bname ^ ": projecting leaves the source row unbuilt") (fun () ->
            let rows = nodes (Xqse.Session.eval (compiled e) source) in
            List.iter
              (fun row ->
                let opts =
                  { Xqse.Session.default_exec_opts with
                    vars = [ (Qname.local "o", [ Item.Node row ]) ] }
                in
                ignore (Xqse.Session.eval ~opts (compiled e) block);
                check_bool "the source is unbuilt" true (Node.unbuilt_row row))
              rows);
      ])
    blocks

(* a fresh, unbuilt row element of [tbl] whose first column is [key],
   bound to [$o] *)
let row_var tbl key () =
  let row =
    List.find (fun row -> row.(0) = R.Value.Int key) (R.Table.scan tbl)
  in
  [ (Qname.local "o", [ Item.Node (Aldsp.Rowxml.row_to_xml tbl row) ]) ]

(* a NULL column is an empty leaf, an empty cell an empty text child *)
let leaf_tests =
  let e = env () in
  let same ?expect ?vars name q =
    case name (fun () -> across_modes ?expect ?vars e q)
  in
  [
    same "NULL date and amount, empty status"
      ~expect:"<ORDERS><OID>999</OID><CID>N1</CID><ORDER_DATE/><TOTAL/>\
               <STATUS></STATUS></ORDERS>"
      ~vars:(row_var e.FC.orders 999) orders_block;
    same "empty type, NULL number"
      ~expect:"<CREDIT_CARD><CCID>999</CCID><CID>N1</CID><TYPE></TYPE>\
               <BRAND>VISA</BRAND><NUMBER/><EXP_DATE>2011-01-01</EXP_DATE>\
               </CREDIT_CARD>"
      ~vars:(row_var e.FC.credit_card 999) cards_block;
    same "NULL brand and expiry"
      ~expect:"<CREDIT_CARD><CCID>998</CCID><CID>N1</CID><TYPE>DEBIT</TYPE>\
               <BRAND/><NUMBER>4000-0001</NUMBER><EXP_DATE/></CREDIT_CARD>"
      ~vars:(row_var e.FC.credit_card 998) cards_block;
    same "a view of a view: an empty leaf's data is the empty string"
      ~expect:"<V><D></D><T></T><M/></V>"
      ~vars:(row_var e.FC.orders 999)
      (Printf.sprintf
         "let $o := %s return <V><D>{fn:data($o/ORDER_DATE)}</D>\
          <T>{fn:data($o/TOTAL)}</T><M>{fn:data($o/TOTAL_ORDER_AMOUNT)}</M></V>"
         orders_block);
    same "one leaf, a prefixed row name and prefixed leaf names"
      "declare namespace p = 'urn:p'; declare namespace q = 'urn:q'; \
       for $o in orders:ORDERS() return (<p:R><OID>{fn:data($o/OID)}</OID></p:R>, \
       <R><p:A>{fn:data($o/OID)}</p:A><q:B>{fn:data($o/STATUS)}</q:B></R>)";
    same "repeated leaf names and repeated columns"
      "for $o in orders:ORDERS() return <R><A>{fn:data($o/OID)}</A>\
       <A>{fn:data($o/OID)}</A><B>{fn:data($o/STATUS)}</B></R>/A[2]";
    same "two leaves of one name read as both through every cell read"
      "for $o in orders:ORDERS() let $r := <R><A>{fn:data($o/OID)}</A>\
       <A>{fn:data($o/CID)}</A><B>{fn:data($o/STATUS)}</B></R> return \
       (fn:data($r/A), <X>{fn:data($r/A)}</X>, \
       <V><C>{fn:data($r/A)}</C><D>{fn:data($r/B)}</D></V>, \
       count(customer:CUSTOMER()[CID = $r/A]))";
    same "Figure 3's getProfile" "profile:getProfile()";
    same "Figure 3's getProfileById, serialized and navigated"
      "let $p := profile:getProfileById('N1') return ($p, \
       $p/CreditCards/CREDIT_CARD[BRAND eq 'VISA']/TYPE, \
       count($p//ORDERS/*), string($p/Orders))";
  ]

(* shapes that are not a projection of one unbuilt row take the
   general plan: they must read alike in every mode *)
let fallback_tests =
  let e = env () in
  let same name q = case name (fun () -> across_modes e q) in
  [
    same "two rows"
      (Printf.sprintf "let $o := orders:ORDERS()[position() le 2] return %s"
         orders_block);
    same "a row built first"
      (Printf.sprintf
         "for $o in orders:ORDERS() return ($o/OID/string(), %s)" orders_block);
    same "an element that is not a row"
      (Printf.sprintf
         "let $o := <ORDERS><OID>1</OID><STATUS>x</STATUS></ORDERS> return %s"
         orders_block);
    same "no row at all"
      (Printf.sprintf "let $o := () return %s" orders_block);
    same "a constructor with an attribute"
      "for $o in orders:ORDERS() return <R a='1'><A>{fn:data($o/OID)}</A>\
       <B>{fn:data($o/CID)}</B></R>";
    same "a leaf with an attribute"
      "for $o in orders:ORDERS() return <R><A a='1'>{fn:data($o/OID)}</A>\
       <B>{fn:data($o/CID)}</B></R>";
    same "text between the leaves"
      "for $o in orders:ORDERS() return <R>x<A>{fn:data($o/OID)}</A>\
       <B>{fn:data($o/CID)}</B></R>";
    same "leaves over two variables"
      "for $o in orders:ORDERS(), $c in customer:CUSTOMER() \
       where $o/CID eq $c/CID return <R><A>{fn:data($o/OID)}</A>\
       <B>{fn:data($c/LAST_NAME)}</B></R>";
    same "a namespaced column"
      "declare namespace p = 'urn:p'; for $o in orders:ORDERS() return \
       <R><A>{fn:data($o/OID)}</A><B>{fn:data($o/p:CID)}</B></R>";
    same "a leaf that is not fn:data"
      "for $o in orders:ORDERS() return <R><A>{fn:data($o/OID)}</A>\
       <B>{$o/CID}</B></R>";
  ]

(* the same mutations, through the Node API, on a view row and on the
   walker's element: each goes through the row's published children *)
let mutation_tests =
  let e = env () in
  let one s =
    let opts =
      { Xqse.Session.default_exec_opts with vars = row_var e.FC.orders 999 () }
    in
    List.hd (nodes (Xqse.Session.eval ~opts s orders_block))
  in
  let nth el i = List.nth (Node.children el) i in
  let steps =
    [
      ("insert last", fun el -> Node.insert_children el ~pos:`Last
           [ Node.element (Qname.local "NEW") [ Node.text "n" ] ]);
      ("insert first", fun el -> Node.insert_children el ~pos:`First
           [ Node.text "t" ]);
      ("append", fun el -> Node.append_child el (Node.comment "c"));
      ("insert before a leaf", fun el ->
          Node.insert_sibling (nth el 2) ~pos:`Before [ Node.element (Qname.local "B") [] ]);
      ("delete a leaf", fun el -> Node.detach (nth el 3));
      ("replace an empty leaf's value", fun el ->
          Node.replace_children_with_text (nth el 4) "Z");
      ("rename a leaf", fun el -> Node.rename (nth el 5) (Qname.local "S"));
      ("set an attribute", fun el -> Node.set_attribute el (Qname.local "a") "1");
    ]
  in
  [
    case "XQUF primitives on a view row act as on the walker's element"
      (fun () ->
        let v = one (compiled e) and r = one (walker e) in
        check_bool "a view row" true (Node.unbuilt_row v);
        List.iter
          (fun (what, step) ->
            step v;
            step r;
            check_string what (Xml_serialize.to_string r)
              (Xml_serialize.to_string v))
          steps);
    case "an attribute and a copy leave a view row unbuilt" (fun () ->
        let v = one (compiled e) and r = one (walker e) in
        Node.set_attribute v (Qname.local "a") "1";
        Node.set_attribute r (Qname.local "a") "1";
        let c = Node.deep_copy v in
        check_bool "the copy is unbuilt" true (Node.unbuilt_row c);
        check_bool "the source is unbuilt" true (Node.unbuilt_row v);
        check_string "the copy serializes as the element"
          (Xml_serialize.to_string r) (Xml_serialize.to_string c);
        check_bool "still unbuilt" true (Node.unbuilt_row c && Node.unbuilt_row v));
  ]

(* Figure 4's client change on a card's BRAND: the datagraph, its change
   summary and its wire form are the walker's *)
let sdo_tests =
  let e = env () in
  let datagraph s = Sdo.create (nodes (Xqse.Session.eval s "profile:getProfileById('N1')")) in
  let card i = [ ("CreditCards", 1); ("CREDIT_CARD", i); ("BRAND", 1) ] in
  [
    case "Sdo.set_leaf on a view row's BRAND, NULL brand included" (fun () ->
        let v = datagraph (compiled e) and r = datagraph (walker e) in
        let cards dg =
          List.concat_map
            (fun p ->
              List.concat_map
                (fun c ->
                  if Node.name c = Some (Qname.local "CreditCards") then Node.children c
                  else [])
                (Node.children p))
            (Sdo.roots dg)
        in
        check_int "two cards" 2 (List.length (cards v));
        check_bool "the datagraph's cards are unbuilt view rows" true
          (List.for_all Node.unbuilt_row (cards v));
        check_string "the wire form before any change" (Sdo.serialize r)
          (Sdo.serialize v);
        check_bool "writing them does not build them" true
          (List.for_all Node.unbuilt_row (cards v));
        List.iter
          (fun dg ->
            Sdo.set_leaf dg 1 (card 1) "AMEX";
            Sdo.set_leaf dg 1 (card 2) "MC")
          [ v; r ];
        check_string "the old values" "|VISA"
          (String.concat "|"
             (List.concat_map
                (function
                  | Sdo.Modified (_, oc) ->
                    List.map (fun lc -> lc.Sdo.old_value) oc.Sdo.leaves
                  | _ -> [])
                (Sdo.changes v)));
        check_string "the changed wire form and change summary"
          (Sdo.serialize r) (Sdo.serialize v);
        check_string "the leaf reads the change" "AMEX"
          (Sdo.get_leaf v 1 (card 1)));
  ]

(* the result cache copies on store and on hit: view rows come back
   unbuilt, read as cache-off output, and writing them keeps them so *)
let cache_tests =
  [
    case "getProfile through three cache hits keeps its view rows unbuilt"
      (fun () ->
        let instr = Instr.create () in
        Instr.preregister instr;
        Instr.enable instr;
        let cached = FC.make ~customers:5 ~instr () in
        ignore (Aldsp.Dataspace.enable_result_cache cached.FC.ds);
        let plain = FC.make ~customers:5 () in
        let hits () =
          Option.value ~default:0
            (List.assoc_opt Instr.K.cache_hit (Instr.stats instr).Instr.counters)
        in
        let rows v =
          List.concat_map
            (fun p ->
              List.concat_map
                (fun c ->
                  match Node.name c with
                  | Some q when q.Qname.local = "Orders" || q.Qname.local = "CreditCards" ->
                    Node.children c
                  | _ -> [])
                (Node.children p))
            (nodes v)
        in
        let expected =
          Xqse.Session.eval_to_string (Aldsp.Dataspace.session plain.FC.ds)
            "profile:getProfile()"
        in
        for k = 0 to 3 do
          let v = Xqse.Session.eval (Aldsp.Dataspace.session cached.FC.ds) "profile:getProfile()" in
          check_int "hits" k (hits ());
          check_bool "some rows" true (rows v <> []);
          check_bool "every row is an unbuilt view row" true
            (List.for_all Node.unbuilt_row (rows v));
          check_string "cache-on reads as cache-off" expected
            (Xml_serialize.seq_to_string v);
          check_bool "and stays unbuilt once written" true
            (List.for_all Node.unbuilt_row (rows v))
        done);
  ]

(* Two domains navigate one library variable of view rows at once. Each
   row's leaves are built by whichever domain gets there first, and the
   compare-and-set hands the other that same list, so both domains
   return the same nodes. Publishing without the compare-and-set lets
   the later builder overwrite the earlier one's leaves, and the two
   domains then return different nodes for that row. *)
let race_tests =
  [
    case "two domains navigating shared view rows get the same leaves"
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
          let ns = Printf.sprintf "urn:views%d" k in
          Xqse.Session.load_library s
            (Printf.sprintf
               "declare namespace m = %S; declare variable $m:views := \
                for $o in credit_card:CREDIT_CARD() return %s;"
               ns cards_block);
          let views =
            nodes (Xqse.Session.eval s (Printf.sprintf "declare namespace m = %S; $m:views" ns))
          in
          if not (List.for_all Node.unbuilt_row views) then
            Alcotest.failf "run %d: the shared rows are not unbuilt view rows" k;
          let q =
            Printf.sprintf
              "declare namespace m = %S; for $r in $m:views return \
               ($r/BRAND, $r/CCID)"
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
          check_int "two leaves per row" (2 * List.length views) (List.length mine);
          if not (same mine theirs) then
            Alcotest.failf "run %d: the two domains read different nodes" k;
          check_string "and the same text"
            (Xml_serialize.seq_to_string mine)
            (Xml_serialize.seq_to_string theirs)
        done);
  ]

let suites =
  [
    ( "aldsp.view-row",
      node_tests @ property_tests @ leaf_tests @ fallback_tests @ mutation_tests
      @ sdo_tests @ cache_tests );
    ("aldsp.view-row-race", race_tests);
  ]
