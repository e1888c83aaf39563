(* SDO datagraphs and change summaries, plus the web-service substrate. *)

open Util
open Core
open Core.Xdm

let profile_xml =
  {|<p:CustomerProfile xmlns:p="ld:CustomerProfile">
  <CID>007</CID>
  <LAST_NAME>Carrey</LAST_NAME>
  <Orders>
    <ORDERS><OID>1</OID><STATUS>OPEN</STATUS></ORDERS>
    <ORDERS><OID>2</OID><STATUS>SHIPPED</STATUS></ORDERS>
  </Orders>
</p:CustomerProfile>|}

let mk () = Sdo.create (Xml_parse.parse_fragment profile_xml)

let path_tests =
  [
    case "path_of_string with and without indices" (fun () ->
        check_bool "parsed" true
          (Sdo.path_of_string "Orders/ORDERS[2]/STATUS"
          = [ ("Orders", 1); ("ORDERS", 2); ("STATUS", 1) ]));
    case "path round trip" (fun () ->
        let p = [ ("A", 1); ("B", 3); ("C", 1) ] in
        check_bool "rt" true (Sdo.path_of_string (Sdo.path_to_string p) = p));
  ]

let change_tests =
  [
    case "graph starts clean" (fun () ->
        check_bool "clean" true (not (Sdo.is_dirty (mk ()))));
    case "create deep-copies: server data unaffected" (fun () ->
        let orig = Xml_parse.parse_fragment profile_xml in
        let dg = Sdo.create orig in
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey";
        check_string "orig" "Carrey"
          (Node.string_value
             (List.nth (List.filter (fun c -> Node.kind c = Node.Element)
                          (Node.children (List.hd orig))) 1)));
    case "set_leaf records old value once" (fun () ->
        let dg = mk () in
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey";
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Curry";
        (match Sdo.changes dg with
        | [ Sdo.Modified (1, oc) ] ->
          check_int "one leaf" 1 (List.length oc.Sdo.leaves);
          check_string "old" "Carrey" (List.hd oc.Sdo.leaves).Sdo.old_value
        | _ -> Alcotest.fail "expected one Modified change");
        check_string "current" "Curry" (Sdo.get_leaf dg 1 [ ("LAST_NAME", 1) ]));
    case "setting the same value is not a change" (fun () ->
        let dg = mk () in
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carrey";
        check_bool "clean" true (not (Sdo.is_dirty dg)));
    case "nested leaf change" (fun () ->
        let dg = mk () in
        Sdo.set_leaf dg 1 (Sdo.path_of_string "Orders/ORDERS[2]/STATUS") "CLOSED";
        (match Sdo.changes dg with
        | [ Sdo.Modified (1, oc) ] ->
          check_bool "path" true
            ((List.hd oc.Sdo.leaves).Sdo.leaf_path
            = [ ("Orders", 1); ("ORDERS", 2); ("STATUS", 1) ])
        | _ -> Alcotest.fail "expected Modified"));
    case "delete_element records the old element" (fun () ->
        let dg = mk () in
        Sdo.delete_element dg 1 (Sdo.path_of_string "Orders/ORDERS[1]");
        (match Sdo.changes dg with
        | [ Sdo.Modified (1, oc) ] ->
          check_int "deletes" 1 (List.length oc.Sdo.element_deletes);
          check_string "old oid" "1OPEN"
            (Node.string_value (List.hd oc.Sdo.element_deletes).Sdo.deleted_old)
        | _ -> Alcotest.fail "expected Modified");
        (* the live object no longer has the element *)
        check_string "remaining" "2"
          (Sdo.get_leaf dg 1 (Sdo.path_of_string "Orders/ORDERS[1]/OID")));
    case "insert_element appends and records" (fun () ->
        let dg = mk () in
        let row =
          Node.element (Qname.local "ORDERS")
            [ Node.element (Qname.local "OID") [ Node.text "3" ];
              Node.element (Qname.local "STATUS") [ Node.text "NEW" ] ]
        in
        Sdo.insert_element dg 1 [ ("Orders", 1) ] row;
        check_string "inserted" "3"
          (Sdo.get_leaf dg 1 (Sdo.path_of_string "Orders/ORDERS[3]/OID"));
        match Sdo.changes dg with
        | [ Sdo.Modified (1, oc) ] ->
          check_int "inserts" 1 (List.length oc.Sdo.element_inserts)
        | _ -> Alcotest.fail "expected Modified");
    case "add_object records a create" (fun () ->
        let dg = mk () in
        Sdo.add_object dg (Node.element (Qname.local "CustomerProfile") []);
        check_int "roots" 2 (List.length (Sdo.roots dg));
        check_bool "created" true
          (match Sdo.changes dg with [ Sdo.Created 2 ] -> true | _ -> false));
    case "delete_object records old content" (fun () ->
        let dg = mk () in
        Sdo.delete_object dg 1;
        check_int "roots" 0 (List.length (Sdo.roots dg));
        match Sdo.changes dg with
        | [ Sdo.Deleted (1, old) ] ->
          check_bool "old" true (String.length (Node.string_value old) > 0)
        | _ -> Alcotest.fail "expected Deleted");
    case "create-then-delete cancels out" (fun () ->
        let dg = mk () in
        Sdo.add_object dg (Node.element (Qname.local "CustomerProfile") []);
        Sdo.delete_object dg 2;
        check_bool "clean" true (not (Sdo.is_dirty dg)));
    case "changes on created objects are not tracked" (fun () ->
        let dg = mk () in
        Sdo.add_object dg
          (Node.element (Qname.local "CustomerProfile")
             [ Node.element (Qname.local "CID") [ Node.text "X" ] ]);
        Sdo.set_leaf dg 2 [ ("CID", 1) ] "Y";
        check_bool "only create" true
          (match Sdo.changes dg with [ Sdo.Created 2 ] -> true | _ -> false));
  ]

let wire_tests =
  [
    case "serialized form matches Figure 4's shape" (fun () ->
        let dg = mk () in
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey";
        let wire = Sdo.serialize dg in
        let contains needle =
          let n = String.length wire and m = String.length needle in
          let rec go i = i + m <= n && (String.sub wire i m = needle || go (i + 1)) in
          go 0
        in
        check_bool "datagraph root" true (contains "sdo:datagraph");
        check_bool "changeSummary" true (contains "<changeSummary>");
        check_bool "sdo:ref" true (contains "sdo:ref=\"#/sdo:datagraph/");
        check_bool "old value inside summary" true (contains "<LAST_NAME>Carrey</LAST_NAME>");
        check_bool "new value in body" true (contains "<LAST_NAME>Carey</LAST_NAME>"));
    case "round trip: leaf change" (fun () ->
        let dg = mk () in
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey";
        let dg' = Sdo.parse (Sdo.serialize dg) in
        check_string "current" "Carey" (Sdo.get_leaf dg' 1 [ ("LAST_NAME", 1) ]);
        match Sdo.changes dg' with
        | [ Sdo.Modified (1, oc) ] ->
          check_string "old" "Carrey" (List.hd oc.Sdo.leaves).Sdo.old_value
        | _ -> Alcotest.fail "changes lost in round trip");
    case "round trip: nested leaf via sdo:oldValue" (fun () ->
        let dg = mk () in
        Sdo.set_leaf dg 1 (Sdo.path_of_string "Orders/ORDERS[2]/STATUS") "CLOSED";
        let dg' = Sdo.parse (Sdo.serialize dg) in
        match Sdo.changes dg' with
        | [ Sdo.Modified (1, oc) ] ->
          let lc = List.hd oc.Sdo.leaves in
          check_string "old" "SHIPPED" lc.Sdo.old_value;
          check_bool "path" true
            (lc.Sdo.leaf_path = Sdo.path_of_string "Orders/ORDERS[2]/STATUS")
        | _ -> Alcotest.fail "changes lost");
    case "round trip: deletes and creates" (fun () ->
        let dg = mk () in
        Sdo.delete_object dg 1;
        Sdo.add_object dg
          (List.hd (Xml_parse.parse_fragment "<p:CustomerProfile xmlns:p='ld:CustomerProfile'><CID>X</CID></p:CustomerProfile>"));
        let dg' = Sdo.parse (Sdo.serialize dg) in
        check_int "roots" 1 (List.length (Sdo.roots dg'));
        check_bool "kinds" true
          (match Sdo.changes dg' with
          | [ Sdo.Deleted (1, _); Sdo.Created 2 ] -> true
          | _ -> false));
    case "round trip: element delete and insert" (fun () ->
        let dg = mk () in
        Sdo.delete_element dg 1 (Sdo.path_of_string "Orders/ORDERS[1]");
        Sdo.insert_element dg 1 [ ("Orders", 1) ]
          (Node.element (Qname.local "ORDERS")
             [ Node.element (Qname.local "OID") [ Node.text "3" ] ]);
        let dg' = Sdo.parse (Sdo.serialize dg) in
        match Sdo.changes dg' with
        | [ Sdo.Modified (1, oc) ] ->
          check_int "deletes" 1 (List.length oc.Sdo.element_deletes);
          check_int "inserts" 1 (List.length oc.Sdo.element_inserts);
          check_string "inserted resolved" "3"
            (Node.string_value (List.hd oc.Sdo.element_inserts).Sdo.inserted_node)
        | _ -> Alcotest.fail "changes lost");
    prop "serialize/parse keeps current values for random leaf edits"
      ~count:60
      QCheck.(pair (int_range 1 2) (small_printable_string))
      (fun (order_idx, value) ->
        QCheck.assume (String.length value > 0);
        QCheck.assume
          (String.for_all (fun c -> c <> '<' && c <> '&' && c <> '>') value);
        let dg = mk () in
        let path = [ ("Orders", 1); ("ORDERS", order_idx); ("STATUS", 1) ] in
        Sdo.set_leaf dg 1 path value;
        let dg' = Sdo.parse (Sdo.serialize dg) in
        Sdo.get_leaf dg' 1 path = value);
  ]

let webservice_tests =
  let mk_ws () =
    let ws = Webservice.create ~name:"Echo" ~namespace:"urn:echo" in
    Webservice.add_operation ws
      {
        Webservice.op_name = "echo";
        op_input = Qname.make ~uri:"urn:echo" "echoRequest";
        op_output = Qname.make ~uri:"urn:echo" "echoResponse";
        op_doc = "echoes its input";
        op_handler =
          (fun req ->
            Node.element
              (Qname.make ~uri:"urn:echo" "echoResponse")
              [ Node.text (Node.string_value req) ]);
      };
    ws
  in
  let request s =
    Node.element (Qname.make ~uri:"urn:echo" "echoRequest") [ Node.text s ]
  in
  [
    case "invoke validates and dispatches" (fun () ->
        let ws = mk_ws () in
        let instr = fresh_instr () in
        Webservice.set_instr ws instr;
        let resp = Webservice.invoke ws "echo" (request "hi") in
        check_string "resp" "hi" (Node.string_value resp);
        check_int "count" 1 (counter instr Instr.K.ws_calls));
    case "unknown operation faults" (fun () ->
        let ws = mk_ws () in
        check_bool "raises" true
          (match Webservice.invoke ws "nope" (request "x") with
          | _ -> false
          | exception Item.Error { code; message; _ } ->
            Qname.equal code (Qname.make ~uri:"urn:echo" "Fault")
            && message = "Echo.nope: unknown operation"));
    case "wrong request element faults" (fun () ->
        let ws = mk_ws () in
        check_bool "raises" true
          (match Webservice.invoke ws "echo" (Node.element (Qname.local "bad") []) with
          | _ -> false
          | exception Item.Error { code; _ } ->
            Qname.equal code (Webservice.fault_code ws)));
    case "fault injection: next call" (fun () ->
        let ws = mk_ws () in
        Resilience.Faults.inject_next (Webservice.faults ws) "boom";
        (match Webservice.invoke ws "echo" (request "x") with
        | _ -> Alcotest.fail "expected fault"
        | exception Item.Error { code; message; _ } ->
          check_string "code" "RESX0004" code.Qname.local;
          check_string "msg" "Echo.echo: boom" message);
        (* next call succeeds again *)
        ignore (Webservice.invoke ws "echo" (request "y")));
    case "fail_every n faults deterministically" (fun () ->
        let ws = mk_ws () in
        Resilience.Faults.set_fail_every (Webservice.faults ws) (Some 3);
        let outcomes =
          List.init 6 (fun i ->
              match Webservice.invoke ws "echo" (request (string_of_int i)) with
              | _ -> true
              | exception Item.Error { code = { local = "RESX0004"; _ }; _ } ->
                false)
        in
        check_bool "pattern" true (outcomes = [ true; true; false; true; true; false ]));
    case "wsdl summary lists operations" (fun () ->
        let ws = mk_ws () in
        let s = Webservice.wsdl_summary ws in
        check_bool "has op" true
          (let m = "operation echo" in
           let n = String.length s and k = String.length m in
           let rec go i = i + k <= n && (String.sub s i k = m || go (i + 1)) in
           go 0));
  ]

let suites =
  [
    ("sdo.paths", path_tests);
    ("sdo.changes", change_tests);
    ("sdo.wire", wire_tests);
    ("webservice", webservice_tests);
  ]
