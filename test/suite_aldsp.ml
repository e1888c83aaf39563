(* The ALDSP layer: row/XML mapping, source introspection, lineage
   analysis, update decomposition and optimistic concurrency. *)

open Util
open Core
open Core.Xdm
module R = Relational
module F = Fixtures.Customer_profile

let rowxml_tests =
  let tbl () =
    R.Table.create
      {
        R.Table.tbl_name = "T";
        columns =
          [
            { R.Table.col_name = "ID"; col_type = R.Value.T_int; nullable = false };
            { R.Table.col_name = "NAME"; col_type = R.Value.T_text; nullable = true };
            { R.Table.col_name = "RATE"; col_type = R.Value.T_float; nullable = true };
          ];
        primary_key = [ "ID" ];
        foreign_keys = [];
      }
  in
  [
    case "row_to_xml omits nulls" (fun () ->
        let t = tbl () in
        let xml = Aldsp.Rowxml.row_to_xml t [| R.Value.Int 1; R.Value.Null; R.Value.Float 2.5 |] in
        check_string "xml" "<T><ID>1</ID><RATE>2.5</RATE></T>"
          (Xml_serialize.to_string xml));
    case "xml_to_row round trips" (fun () ->
        let t = tbl () in
        let row = [| R.Value.Int 7; R.Value.Text "x"; R.Value.Null |] in
        check_bool "rt" true (Aldsp.Rowxml.xml_to_row t (Aldsp.Rowxml.row_to_xml t row) = row));
    case "xml_to_pairs ignores unknown elements" (fun () ->
        let t = tbl () in
        let el = Xml_parse.parse_fragment "<T><ID>1</ID><JUNK>z</JUNK></T>" |> List.hd in
        check_bool "pairs" true (Aldsp.Rowxml.xml_to_pairs t el = [ ("ID", R.Value.Int 1) ]));
    case "pk_pred_of_xml" (fun () ->
        let t = tbl () in
        let el = Xml_parse.parse_fragment "<T><ID>3</ID><NAME>n</NAME></T>" |> List.hd in
        check_string "pred" "ID = 3" (R.Pred.to_sql (Aldsp.Rowxml.pk_pred_of_xml t el)));
    case "pk_pred_of_xml requires the key" (fun () ->
        let t = tbl () in
        let el = Xml_parse.parse_fragment "<T><NAME>n</NAME></T>" |> List.hd in
        check_bool "raises" true
          (match Aldsp.Rowxml.pk_pred_of_xml t el with
          | _ -> false
          | exception Failure _ -> true));
    case "shape_of_table marks nullable columns optional" (fun () ->
        let t = tbl () in
        let decl = Aldsp.Rowxml.shape_of_table t in
        match decl.Schema.type_def with
        | Schema.Complex ct ->
          let p = List.nth ct.Schema.children 1 in
          check_int "min" 0 p.Schema.min_occurs
        | Schema.Simple _ -> Alcotest.fail "expected complex type");
    prop "row -> xml -> row round trips arbitrary typed rows"
      QCheck.(pair (int_range (-500) 500) (option (string_of_size (Gen.int_range 0 10))))
      (fun (id, name) ->
        QCheck.assume
          (match name with
          | Some s -> String.for_all (fun c -> c <> '<' && c <> '&' && c <> '\r') s
          | None -> true);
        let t = tbl () in
        let row =
          [| R.Value.Int id;
             (match name with Some s -> R.Value.Text s | None -> R.Value.Null);
             R.Value.Null |]
        in
        Aldsp.Rowxml.xml_to_row t (Aldsp.Rowxml.row_to_xml t row) = row);
  ]

let introspect_tests =
  [
    case "one entity service per table with four methods + navs" (fun () ->
        let env = F.make ~customers:1 () in
        match Aldsp.Dataspace.find_service env.F.ds "db1/CUSTOMER" with
        | None -> Alcotest.fail "missing service"
        | Some svc ->
          let kinds =
            List.map (fun m -> Aldsp.Data_service.kind_to_string m.Aldsp.Data_service.m_kind)
              svc.Aldsp.Data_service.ds_methods
          in
          check_bool "read" true (List.mem "read" kinds);
          check_bool "create" true (List.mem "create" kinds);
          check_bool "update" true (List.mem "update" kinds);
          check_bool "delete" true (List.mem "delete" kinds);
          check_bool "navigation" true
            (List.exists (fun k -> String.length k > 10 && String.sub k 0 10 = "navigation") kinds));
    case "read function returns the XML view of rows" (fun () ->
        let env = F.make ~customers:2 () in
        let rows =
          Aldsp.Dataspace.call env.F.ds (Qname.make ~uri:"ld:db1/CUSTOMER" "CUSTOMER") []
        in
        check_int "rows" 3 (List.length rows) (* 2 + agent 007 *));
    case "navigation function follows the foreign key" (fun () ->
        let env = F.make ~customers:1 () in
        let sess = Aldsp.Dataspace.session env.F.ds in
        let orders =
          Xqse.Session.eval sess
            "for $c in customer:CUSTOMER() where $c/CID eq '007' return customer:getORDERS($c)"
        in
        check_int "orders of 007" 1 (List.length orders));
    case "reverse navigation reaches the parent" (fun () ->
        let env = F.make ~customers:1 () in
        let sess = Aldsp.Dataspace.session env.F.ds in
        let owner =
          Xqse.Session.eval sess
            "for $o in orders:ORDERS() return string(orders:getCUSTOMER($o)/CID)"
        in
        check_bool "all 007 or C1" true
          (List.for_all
             (fun item -> let s = Item.string_of_item item in s = "007" || s = "C1")
             owner));
    case "create procedure inserts and returns keys" (fun () ->
        let env = F.make ~customers:0 () in
        let sess = Aldsp.Dataspace.session env.F.ds in
        let keys =
          Xqse.Session.eval sess
            {| { return value customer:createCUSTOMER(
                   <CUSTOMER><CID>C9</CID><FIRST_NAME>A</FIRST_NAME><LAST_NAME>B</LAST_NAME></CUSTOMER>); } |}
        in
        check_string "key" "<CUSTOMER_KEY><CID>C9</CID></CUSTOMER_KEY>"
          (Xml_serialize.seq_to_string keys);
        check_int "rows" 2 (R.Table.row_count env.F.customer));
    case "update procedure updates by pk" (fun () ->
        let env = F.make ~customers:0 () in
        let sess = Aldsp.Dataspace.session env.F.ds in
        ignore
          (Xqse.Session.eval sess
             {| { customer:updateCUSTOMER(
                    <CUSTOMER><CID>007</CID><LAST_NAME>Bond</LAST_NAME></CUSTOMER>); } |});
        let row = Option.get (R.Table.find_pk env.F.customer [ R.Value.Text "007" ]) in
        check_bool "updated" true
          (R.Table.get row env.F.customer "LAST_NAME" = R.Value.Text "Bond"));
    case "delete procedure deletes by pk" (fun () ->
        let env = F.make ~customers:0 () in
        (* remove dependent rows first *)
        ignore (R.Database.exec env.F.db1
            (R.Database.Delete { table = "ORDERS"; where = R.Pred.True }));
        let sess = Aldsp.Dataspace.session env.F.ds in
        ignore
          (Xqse.Session.eval sess
             {| { customer:deleteCUSTOMER(<CUSTOMER><CID>007</CID></CUSTOMER>); } |});
        check_int "rows" 0 (R.Table.row_count env.F.customer));
    case "create error surfaces as a named XQuery error" (fun () ->
        let env = F.make ~customers:0 () in
        let sess = Aldsp.Dataspace.session env.F.ds in
        match
          Xqse.Session.eval sess
            {| { customer:createCUSTOMER(
                   <CUSTOMER><CID>007</CID><FIRST_NAME>A</FIRST_NAME><LAST_NAME>B</LAST_NAME></CUSTOMER>); } |}
        with
        | _ -> Alcotest.fail "expected CreateError"
        | exception Item.Error { code; _ } ->
          check_string "code" "CreateError" code.Qname.local);
    case "web-service introspection yields a library service" (fun () ->
        let env = F.make ~customers:0 () in
        match Aldsp.Dataspace.find_service env.F.ds "CreditRatingService" with
        | None -> Alcotest.fail "missing ws service"
        | Some svc ->
          check_bool "library" true (svc.Aldsp.Data_service.ds_kind = Aldsp.Data_service.Library);
          check_int "ops" 1 (List.length svc.Aldsp.Data_service.ds_methods));
    case "ws faults surface with the service namespace Fault code" (fun () ->
        let env = F.make ~customers:0 () in
        Resilience.Faults.inject_next (Webservice.faults env.F.ws) "down";
        let sess = Aldsp.Dataspace.session env.F.ds in
        match
          Xqse.Session.eval sess
            "crs:getCreditRating(<crs:getCreditRating><crs:lastName>x</crs:lastName><crs:ssn>1</crs:ssn></crs:getCreditRating>)"
        with
        | _ -> Alcotest.fail "expected fault"
        | exception Item.Error { code; _ } ->
          check_string "code" "Fault" code.Qname.local;
          check_string "ns" "urn:creditrating" code.Qname.uri);
    case "describe produces a design view" (fun () ->
        let env = F.make ~customers:0 () in
        let d = Aldsp.Dataspace.describe env.F.ds in
        check_bool "mentions shape" true
          (let m = "shape: element CUSTOMER" in
           let n = String.length d and k = String.length m in
           let rec go i = i + k <= n && (String.sub d i k = m || go (i + 1)) in
           go 0));
  ]

let lineage_tests =
  [
    case "figure 3 lineage: root block" (fun () ->
        let env = F.make ~customers:1 () in
        match Aldsp.Dataspace.lineage_of env.F.ds env.F.svc with
        | Error m -> Alcotest.fail m
        | Ok blk ->
          check_string "row" "CustomerProfile" blk.Aldsp.Lineage.b_row_elem;
          check_string "table" "CUSTOMER" blk.Aldsp.Lineage.b_table;
          check_string "db" "db1" blk.Aldsp.Lineage.b_db;
          check_int "fields" 3 (List.length blk.Aldsp.Lineage.b_fields);
          check_int "children" 2 (List.length blk.Aldsp.Lineage.b_children);
          (* the web-service-derived CreditRating is opaque *)
          check_bool "opaque" true (blk.Aldsp.Lineage.b_opaque <> []));
    case "navigation-function child carries the fk link" (fun () ->
        let env = F.make ~customers:1 () in
        match Aldsp.Dataspace.lineage_of env.F.ds env.F.svc with
        | Error m -> Alcotest.fail m
        | Ok blk ->
          let orders = Option.get (Aldsp.Lineage.find_child blk "Orders") in
          check_bool "wrapper" true (orders.Aldsp.Lineage.c_wrapper = Some "Orders");
          check_bool "link" true (orders.Aldsp.Lineage.c_link = [ ("CID", "CID") ]);
          check_string "table" "ORDERS" orders.Aldsp.Lineage.c_block.Aldsp.Lineage.b_table;
          (* renamed field TOTAL maps to TOTAL_ORDER_AMOUNT *)
          let f = Option.get (Aldsp.Lineage.find_field orders.Aldsp.Lineage.c_block "TOTAL") in
          check_string "col" "TOTAL_ORDER_AMOUNT" f.Aldsp.Lineage.f_column);
    case "where-join child crosses databases" (fun () ->
        let env = F.make ~customers:1 () in
        match Aldsp.Dataspace.lineage_of env.F.ds env.F.svc with
        | Error m -> Alcotest.fail m
        | Ok blk ->
          let cards = Option.get (Aldsp.Lineage.find_child blk "CreditCards") in
          check_string "db" "db2" cards.Aldsp.Lineage.c_block.Aldsp.Lineage.b_db;
          check_bool "link" true (cards.Aldsp.Lineage.c_link = [ ("CID", "CID") ]));
    case "physical services are their own lineage" (fun () ->
        let env = F.make ~customers:1 () in
        let svc = Option.get (Aldsp.Dataspace.find_service env.F.ds "db1/CUSTOMER") in
        match Aldsp.Dataspace.lineage_of env.F.ds svc with
        | Error m -> Alcotest.fail m
        | Ok blk ->
          check_string "table" "CUSTOMER" blk.Aldsp.Lineage.b_table;
          check_int "fields" 4 (List.length blk.Aldsp.Lineage.b_fields));
    case "lineage is cached" (fun () ->
        let env = F.make ~customers:1 () in
        let a = Aldsp.Dataspace.lineage_of env.F.ds env.F.svc in
        let b = Aldsp.Dataspace.lineage_of env.F.ds env.F.svc in
        check_bool "same" true (a == b));
    case "unanalyzable read function reports an error" (fun () ->
        let env = F.make ~customers:1 () in
        let svc =
          Aldsp.Dataspace.create_entity_service env.F.ds ~name:"Weird"
            ~namespace:"urn:weird"
            ~shape:{ Schema.name = Qname.make ~uri:"urn:weird" "W"; type_def = Schema.complex [] }
            ~methods:[ ("getW", Aldsp.Data_service.Read_function) ]
            {|declare namespace w = "urn:weird";
              declare function w:getW() as element(w:W)* {
                for $i in 1 to 3 return <w:W><N>{$i}</N></w:W>
              };|}
        in
        match Aldsp.Dataspace.lineage_of env.F.ds svc with
        | Ok _ -> Alcotest.fail "expected analysis failure"
        | Error msg -> check_bool "message" true (String.length msg > 0));
    case "describe renders the tree" (fun () ->
        let env = F.make ~customers:1 () in
        match Aldsp.Dataspace.lineage_of env.F.ds env.F.svc with
        | Error m -> Alcotest.fail m
        | Ok blk ->
          let d = Aldsp.Lineage.describe blk in
          check_bool "mentions join" true
            (let m = "join: CID = parent.CID" in
             let n = String.length d and k = String.length m in
             let rec go i = i + k <= n && (String.sub d i k = m || go (i + 1)) in
             go 0));
  ]

let occ_tests =
  [
    case "read-values conditions on every read column" (fun () ->
        let c =
          Aldsp.Occ.condition Aldsp.Occ.Read_values
            ~read_values:[ ("A", R.Value.Int 1); ("B", R.Value.Text "x") ]
            ~changed_columns:[ "A" ]
        in
        check_string "sql" "(A = 1 AND B = 'x')" (R.Pred.to_sql c));
    case "updated-values conditions only on changes" (fun () ->
        let c =
          Aldsp.Occ.condition Aldsp.Occ.Updated_values
            ~read_values:[ ("A", R.Value.Int 1); ("B", R.Value.Text "x") ]
            ~changed_columns:[ "B" ]
        in
        check_string "sql" "B = 'x'" (R.Pred.to_sql c));
    case "chosen subset" (fun () ->
        let c =
          Aldsp.Occ.condition (Aldsp.Occ.Chosen [ "VERSION" ])
            ~read_values:[ ("A", R.Value.Int 1); ("VERSION", R.Value.Int 7) ]
            ~changed_columns:[ "A" ]
        in
        check_string "sql" "VERSION = 7" (R.Pred.to_sql c));
    case "null read values become IS NULL conditions" (fun () ->
        let c =
          Aldsp.Occ.condition Aldsp.Occ.Read_values
            ~read_values:[ ("A", R.Value.Null) ]
            ~changed_columns:[]
        in
        check_string "sql" "A IS NULL" (R.Pred.to_sql c));
  ]

let decompose_tests =
  [
    case "single leaf change produces one conditioned UPDATE" (fun () ->
        let env = F.make ~customers:1 () in
        let dg = F.get_profile_by_id env "007" in
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey";
        let result = Aldsp.Dataspace.submit env.F.ds env.F.svc dg in
        check_bool "committed" true result.Aldsp.Dataspace.sr_committed;
        check_int "statements" 1 result.Aldsp.Dataspace.sr_statements;
        check_bool "only db1" true
          (List.for_all
             (fun s -> String.length s >= 4 && String.sub s 0 4 = "db1:")
             result.Aldsp.Dataspace.sr_sql));
    case "unchanged sources see no statements" (fun () ->
        let env = F.make ~customers:1 () in
        R.Database.clear_log env.F.db2;
        let dg = F.get_profile_by_id env "007" in
        Sdo.set_leaf dg 1 [ ("FIRST_NAME", 1) ] "Jim";
        ignore (Aldsp.Dataspace.submit env.F.ds env.F.svc dg);
        check_int "db2 untouched" 0 (R.Database.log_size env.F.db2));
    case "two leaves of one row collapse into one UPDATE" (fun () ->
        let env = F.make ~customers:1 () in
        let dg = F.get_profile_by_id env "007" in
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey";
        Sdo.set_leaf dg 1 [ ("FIRST_NAME", 1) ] "Jim";
        let result = Aldsp.Dataspace.submit env.F.ds env.F.svc dg in
        check_int "statements" 1 result.Aldsp.Dataspace.sr_statements);
    case "changes in different rows make separate statements" (fun () ->
        let env = F.make ~customers:1 () in
        let dg = F.get_profile_by_id env "007" in
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey";
        Sdo.set_leaf dg 1 (Sdo.path_of_string "Orders/ORDERS[1]/STATUS") "CLOSED";
        let result = Aldsp.Dataspace.submit env.F.ds env.F.svc dg in
        check_int "statements" 2 result.Aldsp.Dataspace.sr_statements);
    case "nested change updates the renamed column" (fun () ->
        let env = F.make ~customers:1 () in
        let dg = F.get_profile_by_id env "007" in
        Sdo.set_leaf dg 1 (Sdo.path_of_string "Orders/ORDERS[1]/TOTAL") "99.5";
        let result = Aldsp.Dataspace.submit env.F.ds env.F.svc dg in
        check_bool "mapped" true
          (List.exists
             (fun s ->
               let m = "SET TOTAL_ORDER_AMOUNT = 99.5" in
               let n = String.length s and k = String.length m in
               let rec go i = i + k <= n && (String.sub s i k = m || go (i + 1)) in
               go 0)
             result.Aldsp.Dataspace.sr_sql));
    case "cross-database changes commit atomically" (fun () ->
        let env = F.make ~customers:1 () in
        let dg = F.get_profile_by_id env "007" in
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey";
        Sdo.set_leaf dg 1 (Sdo.path_of_string "CreditCards/CREDIT_CARD[1]/BRAND") "AMEX";
        let result = Aldsp.Dataspace.submit env.F.ds env.F.svc dg in
        check_bool "committed" true result.Aldsp.Dataspace.sr_committed;
        check_int "statements" 2 result.Aldsp.Dataspace.sr_statements);
    case "prepare failure rolls back both databases" (fun () ->
        let env = F.make ~customers:1 () in
        let dg = F.get_profile_by_id env "007" in
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey";
        Sdo.set_leaf dg 1 (Sdo.path_of_string "CreditCards/CREDIT_CARD[1]/BRAND") "AMEX";
        Resilience.Faults.set_fail_on_prepare (R.Database.faults env.F.db2) true;
        let result = Aldsp.Dataspace.submit env.F.ds env.F.svc dg in
        check_bool "aborted" true (not result.Aldsp.Dataspace.sr_committed);
        let row = Option.get (R.Table.find_pk env.F.customer [ R.Value.Text "007" ]) in
        check_bool "db1 rolled back" true
          (R.Table.get row env.F.customer "LAST_NAME" = R.Value.Text "Carrey"));
    case "optimistic conflict under updated-values" (fun () ->
        let env = F.make ~customers:1 () in
        let dg = F.get_profile_by_id env "007" in
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey";
        ignore (R.Database.exec env.F.db1
            (R.Database.Update
               { table = "CUSTOMER"; set = [ ("LAST_NAME", R.Value.Text "Intruder") ];
                 where = R.Pred.eq "CID" (R.Value.Text "007") }));
        let r = Aldsp.Dataspace.submit env.F.ds env.F.svc ~policy:Aldsp.Occ.Updated_values dg in
        check_bool "aborted" true (not r.Aldsp.Dataspace.sr_committed));
    case "updated-values tolerates changes to other columns" (fun () ->
        let env = F.make ~customers:1 () in
        let dg = F.get_profile_by_id env "007" in
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey";
        ignore (R.Database.exec env.F.db1
            (R.Database.Update
               { table = "CUSTOMER"; set = [ ("FIRST_NAME", R.Value.Text "Other") ];
                 where = R.Pred.eq "CID" (R.Value.Text "007") }));
        let r = Aldsp.Dataspace.submit env.F.ds env.F.svc ~policy:Aldsp.Occ.Updated_values dg in
        check_bool "committed" true r.Aldsp.Dataspace.sr_committed);
    case "read-values rejects changes to any read column" (fun () ->
        let env = F.make ~customers:1 () in
        let dg = F.get_profile_by_id env "007" in
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey";
        ignore (R.Database.exec env.F.db1
            (R.Database.Update
               { table = "CUSTOMER"; set = [ ("FIRST_NAME", R.Value.Text "Other") ];
                 where = R.Pred.eq "CID" (R.Value.Text "007") }));
        let r = Aldsp.Dataspace.submit env.F.ds env.F.svc ~policy:Aldsp.Occ.Read_values dg in
        check_bool "aborted" true (not r.Aldsp.Dataspace.sr_committed));
    case "element delete maps to DELETE of the child row" (fun () ->
        let env = F.make ~customers:1 () in
        let dg = F.get_profile_by_id env "007" in
        Sdo.delete_element dg 1 (Sdo.path_of_string "Orders/ORDERS[1]");
        let before = R.Table.row_count env.F.orders in
        let r = Aldsp.Dataspace.submit env.F.ds env.F.svc dg in
        check_bool "committed" true r.Aldsp.Dataspace.sr_committed;
        check_int "one row gone" (before - 1) (R.Table.row_count env.F.orders));
    case "element insert fills the parent-link column" (fun () ->
        let env = F.make ~customers:1 () in
        let dg = F.get_profile_by_id env "007" in
        let row =
          Xml_parse.parse_fragment
            "<ORDERS><OID>5555</OID><ORDER_DATE>2007-12-24</ORDER_DATE><TOTAL>1.5</TOTAL><STATUS>NEW</STATUS></ORDERS>"
          |> List.hd
        in
        Sdo.insert_element dg 1 [ ("Orders", 1) ] row;
        let r = Aldsp.Dataspace.submit env.F.ds env.F.svc dg in
        check_bool "committed" true r.Aldsp.Dataspace.sr_committed;
        let stored = Option.get (R.Table.find_pk env.F.orders [ R.Value.Int 5555 ]) in
        check_bool "cid filled from parent" true
          (R.Table.get stored env.F.orders "CID" = R.Value.Text "007"));
    case "object delete removes children first, then the root" (fun () ->
        let env = F.make ~customers:1 () in
        let dg = F.get_profile_by_id env "007" in
        Sdo.delete_object dg 1;
        let r = Aldsp.Dataspace.submit env.F.ds env.F.svc dg in
        check_bool "committed" true r.Aldsp.Dataspace.sr_committed;
        check_bool "customer gone" true
          (R.Table.find_pk env.F.customer [ R.Value.Text "007" ] = None);
        check_int "orders gone" 0
          (List.length (R.Table.select env.F.orders (R.Pred.eq "CID" (R.Value.Text "007")))));
    case "object create inserts root and nested rows" (fun () ->
        let env = F.make ~customers:1 () in
        let dg = F.get_profile_by_id env "007" in
        let obj =
          Xml_parse.parse_fragment
            {|<p:CustomerProfile xmlns:p="ld:CustomerProfile">
                <CID>NEW1</CID><LAST_NAME>Nu</LAST_NAME><FIRST_NAME>Na</FIRST_NAME>
                <Orders><ORDERS><OID>7777</OID><CID>NEW1</CID><STATUS>OPEN</STATUS></ORDERS></Orders>
                <CreditCards/>
              </p:CustomerProfile>|}
          |> List.hd
        in
        Sdo.add_object dg obj;
        let r = Aldsp.Dataspace.submit env.F.ds env.F.svc dg in
        check_bool "committed" true r.Aldsp.Dataspace.sr_committed;
        check_bool "customer" true (R.Table.find_pk env.F.customer [ R.Value.Text "NEW1" ] <> None);
        check_bool "order" true (R.Table.find_pk env.F.orders [ R.Value.Int 7777 ] <> None));
    case "updating a computed leaf is rejected" (fun () ->
        let env = F.make ~customers:1 () in
        let dg = F.get_profile_by_id env "007" in
        Sdo.set_leaf dg 1 [ ("CreditRating", 1) ] "850";
        check_bool "raises" true
          (match Aldsp.Dataspace.submit env.F.ds env.F.svc dg with
          | _ -> false
          | exception Aldsp.Decompose.Not_updatable _ -> true));
    case "empty change summary is a no-op commit" (fun () ->
        let env = F.make ~customers:1 () in
        let dg = F.get_profile_by_id env "007" in
        let r = Aldsp.Dataspace.submit env.F.ds env.F.svc dg in
        check_bool "committed" true r.Aldsp.Dataspace.sr_committed;
        check_int "statements" 0 r.Aldsp.Dataspace.sr_statements);
    case "decomposition round trip: re-read equals submitted data" (fun () ->
        let env = F.make ~customers:2 () in
        let dg = F.get_profile_by_id env "C1" in
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Rewritten";
        ignore (Aldsp.Dataspace.submit env.F.ds env.F.svc dg);
        let dg2 = F.get_profile_by_id env "C1" in
        check_string "reread" "Rewritten" (Sdo.get_leaf dg2 1 [ ("LAST_NAME", 1) ]));
  ]

let override_tests =
  [
    case "override replaces default processing" (fun () ->
        let env = F.make ~customers:1 () in
        let called = ref false in
        Aldsp.Dataspace.set_override env.F.ds env.F.svc
          (Some
             (fun _ds _req ~default:_ ->
               called := true;
               {
                 Aldsp.Dataspace.sr_committed = true;
                 sr_statements = 0;
                 sr_sql = [];
                 sr_reason = None;
               }));
        let dg = F.get_profile_by_id env "007" in
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey";
        ignore (Aldsp.Dataspace.submit env.F.ds env.F.svc dg);
        check_bool "called" true !called;
        (* default did NOT run *)
        let row = Option.get (R.Table.find_pk env.F.customer [ R.Value.Text "007" ]) in
        check_bool "unchanged" true
          (R.Table.get row env.F.customer "LAST_NAME" = R.Value.Text "Carrey"));
    case "override may extend the default (paper II.C)" (fun () ->
        let env = F.make ~customers:1 () in
        let audit = ref 0 in
        Aldsp.Dataspace.set_override env.F.ds env.F.svc
          (Some
             (fun _ds _req ~default ->
               incr audit;
               default ()));
        let dg = F.get_profile_by_id env "007" in
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey";
        let r = Aldsp.Dataspace.submit env.F.ds env.F.svc dg in
        check_bool "committed" true r.Aldsp.Dataspace.sr_committed;
        check_int "audited" 1 !audit;
        let row = Option.get (R.Table.find_pk env.F.customer [ R.Value.Text "007" ]) in
        check_bool "changed" true
          (R.Table.get row env.F.customer "LAST_NAME" = R.Value.Text "Carey"));
    case "clearing the override restores default behavior" (fun () ->
        let env = F.make ~customers:1 () in
        Aldsp.Dataspace.set_override env.F.ds env.F.svc
          (Some (fun _ _ ~default:_ ->
               { Aldsp.Dataspace.sr_committed = false; sr_statements = 0; sr_sql = []; sr_reason = Some "blocked" }));
        Aldsp.Dataspace.set_override env.F.ds env.F.svc None;
        let dg = F.get_profile_by_id env "007" in
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey";
        let r = Aldsp.Dataspace.submit env.F.ds env.F.svc dg in
        check_bool "committed" true r.Aldsp.Dataspace.sr_committed);
  ]

let suites =
  [
    ("aldsp.rowxml", rowxml_tests);
    ("aldsp.introspect", introspect_tests);
    ("aldsp.lineage", lineage_tests);
    ("aldsp.occ", occ_tests);
    ("aldsp.decompose", decompose_tests);
    ("aldsp.override", override_tests);
  ]
