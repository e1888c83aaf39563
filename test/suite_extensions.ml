(* Extensions beyond the first milestone: typeswitch, fn:collection,
   additional F&O functions, relational secondary indexes, the
   auto-generated logical-service C/U/D methods (paper III.D.1) and
   XQSE update overrides. *)

open Util
open Core
open Core.Xdm
module R = Relational
module F = Fixtures.Customer_profile

let typeswitch_tests =
  [
    q "typeswitch selects by type" "int"
      "typeswitch (42) case xs:integer return 'int' case xs:string return 'str' default return 'other'";
    q "typeswitch first matching case wins" "number"
      "typeswitch (1) case xs:decimal return 'number' case xs:integer return 'int' default return 'other'";
    q "typeswitch default" "other"
      "typeswitch (<a/>) case xs:integer return 'int' default return 'other'";
    q "typeswitch case variable binds the operand" "84"
      "typeswitch (42) case $i as xs:integer return $i * 2 default return 0";
    q "typeswitch default variable" "1"
      "typeswitch (<a/>) case xs:string return 0 default $d return count($d)";
    q "typeswitch on node kind tests" "element-a"
      "typeswitch (<a/>) case element(b) return 'element-b' case element(a) return 'element-a' default return 'other'";
    q "typeswitch on cardinality" "many"
      "typeswitch ((1, 2)) case xs:integer return 'one' case xs:integer+ return 'many' default return 'other'";
    q "typeswitch empty operand" "none"
      "typeswitch (()) case empty-sequence() return 'none' default return 'some'";
    q "typeswitch nests in expressions" "yes no"
      "for $x in (1, 'a') return typeswitch ($x) case xs:integer return 'yes' default return 'no'";
    q "typeswitch inside function with recursion" "leaf node(2)"
      "declare function local:describe($n as item()) as xs:string {
         typeswitch ($n)
         case $e as element() return
           (if (empty($e/*)) then 'leaf' else concat('node(', count($e/*), ')'))
         default return 'atomic'
       };
       (local:describe(<a/>), local:describe(<a><b/><c/></a>))";
    q_syntax "typeswitch requires a case" "typeswitch (1) default return 0";
    case "typeswitch works in XQSE statements" (fun () ->
        check_string "xqse" "int"
          (xqse
             {| {
               declare $r := "";
               iterate $x over (1) {
                 set $r := typeswitch ($x) case xs:integer return "int" default return "?";
               }
               return value $r;
             } |}));
  ]

let collection_tests =
  [
    case "fn:collection by uri" (fun () ->
        let s = Xqse.Session.create () in
        Xqse.Session.register_collection s "emps"
          (Xml_parse.parse_fragment "<e id='1'/><e id='2'/>");
        check_string "count" "2"
          (Xqse.Session.eval_to_string s "count(collection('emps'))"));
    case "fn:collection default" (fun () ->
        let s = Xqse.Session.create () in
        Xqse.Session.register_collection s "" (Xml_parse.parse_fragment "<x/>");
        check_string "count" "1"
          (Xqse.Session.eval_to_string s "count(collection())"));
    q_err "unknown collection" "FODC0002" "collection('nope')";
  ]

let fo_extension_tests =
  [
    q "fn:compare" "-1 0 1" "(compare('a','b'), compare('a','a'), compare('b','a'))";
    q "fn:compare with empty" "" "compare((), 'a')";
    q "fn:codepoint-equal" "true" "codepoint-equal('abc', 'abc')";
    q "round-half-to-even ties" "0 2 2"
      "(round-half-to-even(0.5), round-half-to-even(1.5), round-half-to-even(2.5))";
    q "round-half-to-even plain" "3" "round-half-to-even(2.7)";
    q "encode-for-uri" "a%20b%2Fc~" "encode-for-uri('a b/c~')";
    q "current-date is deterministic" "2007-12-12" "string(current-date())";
    q "current-dateTime" "2007-12-12T12:00:00" "string(current-dateTime())";
    q "dates derived from current-date compare" "true"
      "current-date() lt xs:date('2008-01-01')";
  ]

let index_tests =
  [
    case "index accelerates and agrees with scan" (fun () ->
        let schema =
          {
            R.Table.tbl_name = "T";
            columns =
              [
                { R.Table.col_name = "ID"; col_type = R.Value.T_int; nullable = false };
                { R.Table.col_name = "GRP"; col_type = R.Value.T_int; nullable = false };
              ];
            primary_key = [ "ID" ];
            foreign_keys = [];
          }
        in
        let t = R.Table.create schema in
        for i = 1 to 500 do
          R.Table.insert t [| R.Value.Int i; R.Value.Int (i mod 7) |]
        done;
        let pred = R.Pred.eq "GRP" (R.Value.Int 3) in
        let before = R.Table.select t pred in
        R.Table.create_index t [ "GRP" ];
        check_bool "indexed" true (R.Table.indexed_columns t = [ [ "GRP" ] ]);
        let after = R.Table.select t pred in
        check_bool "same rows" true (before = after));
    case "index maintained across insert, update and delete" (fun () ->
        let schema =
          {
            R.Table.tbl_name = "T";
            columns =
              [
                { R.Table.col_name = "ID"; col_type = R.Value.T_int; nullable = false };
                { R.Table.col_name = "GRP"; col_type = R.Value.T_int; nullable = false };
              ];
            primary_key = [ "ID" ];
            foreign_keys = [];
          }
        in
        let t = R.Table.create schema in
        R.Table.create_index t [ "GRP" ];
        R.Table.insert t [| R.Value.Int 1; R.Value.Int 10 |];
        R.Table.insert t [| R.Value.Int 2; R.Value.Int 10 |];
        check_int "two in group" 2
          (List.length (R.Table.select t (R.Pred.eq "GRP" (R.Value.Int 10))));
        (* move row 1 to another group *)
        ignore (R.Table.update_rows t (R.Pred.eq "ID" (R.Value.Int 1))
            [ ("GRP", R.Value.Int 20) ]);
        check_int "one left" 1
          (List.length (R.Table.select t (R.Pred.eq "GRP" (R.Value.Int 10))));
        check_int "one moved" 1
          (List.length (R.Table.select t (R.Pred.eq "GRP" (R.Value.Int 20))));
        ignore (R.Table.delete_rows t (R.Pred.eq "ID" (R.Value.Int 2)));
        check_int "gone" 0
          (List.length (R.Table.select t (R.Pred.eq "GRP" (R.Value.Int 10)))));
    case "index used with extra residual predicate" (fun () ->
        let schema =
          {
            R.Table.tbl_name = "T";
            columns =
              [
                { R.Table.col_name = "ID"; col_type = R.Value.T_int; nullable = false };
                { R.Table.col_name = "GRP"; col_type = R.Value.T_int; nullable = false };
              ];
            primary_key = [ "ID" ];
            foreign_keys = [];
          }
        in
        let t = R.Table.create schema in
        R.Table.create_index t [ "GRP" ];
        for i = 1 to 20 do
          R.Table.insert t [| R.Value.Int i; R.Value.Int (i mod 2) |]
        done;
        let pred =
          R.Pred.And
            (R.Pred.eq "GRP" (R.Value.Int 0), R.Pred.Cmp (R.Pred.Gt, "ID", R.Value.Int 10))
        in
        check_int "residual applies" 5 (List.length (R.Table.select t pred)));
    case "introspection indexes foreign-key columns" (fun () ->
        let env = F.make ~customers:1 () in
        check_bool "orders indexed on CID" true
          (List.mem [ "CID" ] (R.Table.indexed_columns env.F.orders)));
    prop "indexed select equals unindexed select on random data"
      ~count:60
      QCheck.(small_list (pair (int_range 1 60) (int_range 0 4)))
      (fun rows ->
        let schema =
          {
            R.Table.tbl_name = "P";
            columns =
              [
                { R.Table.col_name = "ID"; col_type = R.Value.T_int; nullable = false };
                { R.Table.col_name = "GRP"; col_type = R.Value.T_int; nullable = false };
              ];
            primary_key = [ "ID" ];
            foreign_keys = [];
          }
        in
        let with_idx = R.Table.create schema in
        let without = R.Table.create schema in
        R.Table.create_index with_idx [ "GRP" ];
        let seen = Hashtbl.create 8 in
        List.iter
          (fun (id, grp) ->
            if not (Hashtbl.mem seen id) then begin
              Hashtbl.add seen id ();
              R.Table.insert with_idx [| R.Value.Int id; R.Value.Int grp |];
              R.Table.insert without [| R.Value.Int id; R.Value.Int grp |]
            end)
          rows;
        List.for_all
          (fun g ->
            R.Table.select with_idx (R.Pred.eq "GRP" (R.Value.Int g))
            = R.Table.select without (R.Pred.eq "GRP" (R.Value.Int g)))
          [ 0; 1; 2; 3; 4 ]);
  ]

let logical_cud_tests =
  let profile_xml cid oid =
    Printf.sprintf
      {|<p:CustomerProfile xmlns:p="ld:CustomerProfile">
          <CID>%s</CID><LAST_NAME>New</LAST_NAME><FIRST_NAME>Guy</FIRST_NAME>
          <Orders><ORDERS><OID>%d</OID><CID>%s</CID><STATUS>OPEN</STATUS></ORDERS></Orders>
          <CreditCards/>
        </p:CustomerProfile>|}
      cid oid cid
  in
  [
    case "create<Shape> inserts root and nested rows, returns keys" (fun () ->
        let env = F.make ~customers:1 () in
        let obj = List.hd (Xml_parse.parse_fragment (profile_xml "L1" 8001)) in
        let keys =
          Aldsp.Dataspace.call env.F.ds
            (Qname.make ~uri:F.profile_ns "createCustomerProfile")
            [ [ Item.Node obj ] ]
        in
        check_int "one key" 1 (List.length keys);
        check_bool "key shape" true
          (match keys with
          | [ Item.Node k ] -> (
            match Node.name k with
            | Some q -> q.Qname.local = "CustomerProfile_KEY"
            | None -> false)
          | _ -> false);
        check_bool "customer row" true
          (R.Table.find_pk env.F.customer [ R.Value.Text "L1" ] <> None);
        check_bool "order row" true
          (R.Table.find_pk env.F.orders [ R.Value.Int 8001 ] <> None));
    case "update<Shape> rewrites mapped rows field-wise" (fun () ->
        let env = F.make ~customers:1 () in
        let dg = F.get_profile_by_id env "007" in
        let obj = Node.deep_copy (List.hd (Sdo.roots dg)) in
        (* edit the instance directly, then call the generated update *)
        let last =
          List.find
            (fun c ->
              match Node.name c with
              | Some q -> q.Qname.local = "LAST_NAME"
              | None -> false)
            (Node.children obj)
        in
        Node.replace_children_with_text last "Updated";
        ignore
          (Aldsp.Dataspace.call env.F.ds
             (Qname.make ~uri:F.profile_ns "updateCustomerProfile")
             [ [ Item.Node obj ] ]);
        let row = Option.get (R.Table.find_pk env.F.customer [ R.Value.Text "007" ]) in
        check_bool "written" true
          (R.Table.get row env.F.customer "LAST_NAME" = R.Value.Text "Updated"));
    case "delete<Shape> removes children then the root" (fun () ->
        let env = F.make ~customers:1 () in
        let dg = F.get_profile_by_id env "007" in
        let obj = Node.deep_copy (List.hd (Sdo.roots dg)) in
        ignore
          (Aldsp.Dataspace.call env.F.ds
             (Qname.make ~uri:F.profile_ns "deleteCustomerProfile")
             [ [ Item.Node obj ] ]);
        check_bool "customer gone" true
          (R.Table.find_pk env.F.customer [ R.Value.Text "007" ] = None);
        check_int "orders gone" 0
          (List.length
             (R.Table.select env.F.orders (R.Pred.eq "CID" (R.Value.Text "007")))));
    case "generated methods appear in the design view" (fun () ->
        let env = F.make ~customers:1 () in
        let kinds =
          List.map
            (fun m -> m.Aldsp.Data_service.m_kind)
            env.F.svc.Aldsp.Data_service.ds_methods
        in
        check_bool "create" true (List.mem Aldsp.Data_service.Create_procedure kinds);
        check_bool "update" true (List.mem Aldsp.Data_service.Update_procedure kinds);
        check_bool "delete" true (List.mem Aldsp.Data_service.Delete_procedure kinds));
    case "generated create is callable from XQSE source" (fun () ->
        let env = F.make ~customers:1 () in
        let sess = Aldsp.Dataspace.session env.F.ds in
        ignore
          (Xqse.Session.eval sess
             {| {
               profile:createCustomerProfile(
                 <profile:CustomerProfile>
                   <CID>L2</CID><LAST_NAME>Script</LAST_NAME><FIRST_NAME>Ed</FIRST_NAME>
                   <Orders/><CreditCards/>
                 </profile:CustomerProfile>);
             } |});
        check_bool "row" true
          (R.Table.find_pk env.F.customer [ R.Value.Text "L2" ] <> None));
  ]

let xqse_override_tests =
  [
    case "an XQSE procedure takes over update processing" (fun () ->
        let env = F.make ~customers:1 () in
        let sess = Aldsp.Dataspace.session env.F.ds in
        (* the override logs into an audit table instead of updating *)
        Xqse.Session.load_library sess
          {|
declare namespace ov = "urn:override";
declare namespace sdo = "commonj.sdo";
declare procedure ov:auditOnly($dg as element(sdo:datagraph)) as xs:integer {
  declare $changes := $dg/changeSummary/*;
  return value count($changes);
};
|};
        Aldsp.Dataspace.set_xqse_override env.F.ds env.F.svc
          (Qname.make ~uri:"urn:override" "auditOnly");
        let dg = F.get_profile_by_id env "007" in
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey";
        let r = Aldsp.Dataspace.submit env.F.ds env.F.svc dg in
        check_bool "committed" true r.Aldsp.Dataspace.sr_committed;
        (* the default decomposition did NOT run *)
        let row = Option.get (R.Table.find_pk env.F.customer [ R.Value.Text "007" ]) in
        check_bool "source untouched" true
          (R.Table.get row env.F.customer "LAST_NAME" = R.Value.Text "Carrey"));
    case "an erroring XQSE override propagates its error" (fun () ->
        let env = F.make ~customers:1 () in
        let sess = Aldsp.Dataspace.session env.F.ds in
        Xqse.Session.load_library sess
          {|
declare namespace ov = "urn:override2";
declare namespace sdo = "commonj.sdo";
declare procedure ov:reject($dg as element(sdo:datagraph)) {
  fn:error(xs:QName("UPDATES_FORBIDDEN"), "this service is read-only");
};
|};
        Aldsp.Dataspace.set_xqse_override env.F.ds env.F.svc
          (Qname.make ~uri:"urn:override2" "reject");
        let dg = F.get_profile_by_id env "007" in
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "X";
        match Aldsp.Dataspace.submit env.F.ds env.F.svc dg with
        | _ -> Alcotest.fail "expected UPDATES_FORBIDDEN"
        | exception Item.Error { code; _ } ->
          check_string "code" "UPDATES_FORBIDDEN" code.Qname.local);
    case "override receives the Figure 4 wire form" (fun () ->
        let env = F.make ~customers:1 () in
        let sess = Aldsp.Dataspace.session env.F.ds in
        Xqse.Session.load_library sess
          {|
declare namespace ov = "urn:override3";
declare namespace sdo = "commonj.sdo";
declare procedure ov:oldValue($dg as element(sdo:datagraph)) as xs:string {
  return value string($dg/changeSummary/*/LAST_NAME);
};
|};
        let captured = ref "" in
        Aldsp.Dataspace.set_override env.F.ds env.F.svc
          (Some
             (fun ds req ~default:_ ->
               let wire = Sdo.serialize req.Aldsp.Dataspace.ur_datagraph in
               let root =
                 List.hd
                   (List.filter
                      (fun c -> Node.kind c = Node.Element)
                      (Node.children (Xml_parse.parse wire)))
               in
               captured :=
                 Xml_serialize.seq_to_string
                   (Aldsp.Dataspace.call ds
                      (Qname.make ~uri:"urn:override3" "oldValue")
                      [ [ Item.Node root ] ]);
               {
                 Aldsp.Dataspace.sr_committed = true;
                 sr_statements = 0;
                 sr_sql = [];
                 sr_reason = None;
               }));
        let dg = F.get_profile_by_id env "007" in
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey";
        ignore (Aldsp.Dataspace.submit env.F.ds env.F.svc dg);
        check_string "old value seen by override" "Carrey" !captured);
  ]

(* A second-level logical service composed over CustomerProfile
   (paper II.A: methods are "used when creating other, higher-level
   logical data services"). *)
let summary_source =
  {|
declare namespace sum = "urn:summary";
declare namespace prof = "ld:CustomerProfile";

declare function sum:getSummary() as element(sum:Summary)* {
  for $p in prof:getProfile()
  return <sum:Summary>
    <Id>{fn:data($p/CID)}</Id>
    <Surname>{fn:data($p/LAST_NAME)}</Surname>
    <Rating>{fn:data($p/CreditRating)}</Rating>
    <Orders2>{
      for $o in $p/Orders/ORDERS
      return <Order2>
        <Key>{fn:data($o/OID)}</Key>
        <State>{fn:data($o/STATUS)}</State>
      </Order2>
    }</Orders2>
  </sum:Summary>
};
|}

let make_composed () =
  let env = F.make ~customers:1 () in
  let svc =
    Aldsp.Dataspace.create_entity_service env.F.ds ~name:"CustomerSummary"
      ~namespace:"urn:summary"
      ~shape:
        { Schema.name = Qname.make ~uri:"urn:summary" "Summary";
          type_def = Schema.complex [] }
      ~methods:[ ("getSummary", Aldsp.Data_service.Read_function) ]
      ~dependencies:[ "CustomerProfile" ] summary_source
  in
  (env, svc)

let composition_tests =
  [
    case "composed service reads through the inner service" (fun () ->
        let env, svc = make_composed () in
        let dg = Aldsp.Dataspace.get env.F.ds svc ~meth:"getSummary" [] in
        check_int "summaries" 2 (List.length (Sdo.roots dg));
        check_bool "surname present" true
          (List.exists
             (fun n -> Node.string_value n <> "")
             (Sdo.roots dg)));
    case "lineage composes through the inner lineage" (fun () ->
        let env, svc = make_composed () in
        match Aldsp.Dataspace.lineage_of env.F.ds svc with
        | Error m -> Alcotest.fail m
        | Ok blk ->
          check_string "root table" "CUSTOMER" blk.Aldsp.Lineage.b_table;
          let surname = Option.get (Aldsp.Lineage.find_field blk "Surname") in
          check_string "mapped through" "LAST_NAME" surname.Aldsp.Lineage.f_column;
          (* the computed CreditRating stays opaque through composition *)
          check_bool "opaque propagates" true
            (List.mem "Rating" blk.Aldsp.Lineage.b_opaque);
          let orders = Option.get (Aldsp.Lineage.find_child blk "Orders2") in
          check_string "child table" "ORDERS"
            orders.Aldsp.Lineage.c_block.Aldsp.Lineage.b_table;
          check_bool "link preserved" true
            (orders.Aldsp.Lineage.c_link = [ ("CID", "CID") ]);
          let key = Option.get (Aldsp.Lineage.find_field orders.Aldsp.Lineage.c_block "Key") in
          check_string "renamed field maps" "OID" key.Aldsp.Lineage.f_column);
    case "updates decompose through two levels of composition" (fun () ->
        let env, svc = make_composed () in
        let dg = Aldsp.Dataspace.get env.F.ds svc ~meth:"getSummary" [] in
        (* find the 007 summary *)
        let idx =
          match
            List.mapi (fun i n -> (i + 1, n)) (Sdo.roots dg)
            |> List.find_opt (fun (i, _) -> Sdo.get_leaf dg i [ ("Id", 1) ] = "007")
          with
          | Some (i, _) -> i
          | None -> Alcotest.fail "007 not found"
        in
        Sdo.set_leaf dg idx [ ("Surname", 1) ] "Composed";
        let r = Aldsp.Dataspace.submit env.F.ds svc dg in
        check_bool "committed" true r.Aldsp.Dataspace.sr_committed;
        let row = Option.get (R.Table.find_pk env.F.customer [ R.Value.Text "007" ]) in
        check_bool "written to the base table" true
          (R.Table.get row env.F.customer "LAST_NAME" = R.Value.Text "Composed"));
    case "nested rows of a composed service update their base table" (fun () ->
        let env, svc = make_composed () in
        let dg = Aldsp.Dataspace.get env.F.ds svc ~meth:"getSummary" [] in
        let idx =
          match
            List.mapi (fun i n -> (i + 1, n)) (Sdo.roots dg)
            |> List.find_opt (fun (i, _) -> Sdo.get_leaf dg i [ ("Id", 1) ] = "007")
          with
          | Some (i, _) -> i
          | None -> Alcotest.fail "007 not found"
        in
        Sdo.set_leaf dg idx (Sdo.path_of_string "Orders2/Order2[1]/State") "DONE";
        let r = Aldsp.Dataspace.submit env.F.ds svc dg in
        check_bool "committed" true r.Aldsp.Dataspace.sr_committed;
        check_bool "order updated" true
          (List.exists
             (fun row -> R.Table.get row env.F.orders "STATUS" = R.Value.Text "DONE")
             (R.Table.select env.F.orders (R.Pred.eq "CID" (R.Value.Text "007")))));
    case "composed service gets auto-generated CUD methods too" (fun () ->
        let _env, svc = make_composed () in
        check_bool "create method" true
          (List.exists
             (fun m -> m.Aldsp.Data_service.m_name.Qname.local = "createSummary")
             svc.Aldsp.Data_service.ds_methods));
    case "self-recursive composition is rejected, not looped" (fun () ->
        let env = F.make ~customers:1 () in
        let svc =
          Aldsp.Dataspace.create_entity_service env.F.ds ~name:"Loop"
            ~namespace:"urn:loop"
            ~shape:{ Schema.name = Qname.make ~uri:"urn:loop" "L"; type_def = Schema.complex [] }
            ~methods:[ ("getL", Aldsp.Data_service.Read_function) ]
            {|declare namespace lo = "urn:loop";
              declare function lo:getL() as element(lo:L)* {
                for $x in lo:getL() return <lo:L><A>{fn:data($x/A)}</A></lo:L>
              };|}
        in
        match Aldsp.Dataspace.lineage_of env.F.ds svc with
        | Ok _ -> Alcotest.fail "expected a lineage error"
        | Error _ -> ());
  ]

let tooling_tests =
  [
    case "catalog:services() reflects the dataspace" (fun () ->
        let env = F.make ~customers:1 () in
        let sess = Aldsp.Dataspace.session env.F.ds in
        check_string "entities" "4"
          (Xqse.Session.eval_to_string sess
             "count(catalog:services()[@kind eq 'entity'])");
        check_string "library" "CreditRatingService"
          (Xqse.Session.eval_to_string sess
             "string(catalog:services()[@kind eq 'library']/@name)");
        check_string "logical has reads" "true"
          (Xqse.Session.eval_to_string sess
             "exists(catalog:services()[@name eq 'CustomerProfile']/Method[@kind eq 'read'])"));
    case "catalog records dependencies" (fun () ->
        let env = F.make ~customers:1 () in
        check_string "dep" "true"
          (Xqse.Session.eval_to_string (Aldsp.Dataspace.session env.F.ds)
             "exists(catalog:services()[@name eq 'CustomerProfile']/DependsOn[. eq 'db2/CREDIT_CARD'])"));
    case "explain reports optimizer activity" (fun () ->
        let env = F.make ~customers:1 () in
        match Aldsp.Dataspace.explain env.F.ds env.F.svc ~meth:"getProfile" with
        | Error m -> Alcotest.fail m
        | Ok report ->
          check_bool "mentions joins" true
            (let m = "joins=" in
             let n = String.length report and k = String.length m in
             let rec go i = i + k <= n && (String.sub report i k = m || go (i + 1)) in
             go 0);
          check_bool "contains the rewritten query" true
            (String.length report > 100);
          (* the plan the library load installed: getProfileById's key
             unfolds through getProfile into the CUSTOMER read *)
          match
            Aldsp.Dataspace.explain env.F.ds env.F.svc ~meth:"getProfileById"
          with
          | Error m -> Alcotest.fail m
          | Ok report ->
            let has m =
              let n = String.length report and k = String.length m in
              let rec go i =
                i + k <= n && (String.sub report i k = m || go (i + 1))
              in
              go 0
            in
            check_bool "four pushes" true (has "pushed=4");
            check_bool "the key is pushed into cus:CUSTOMER()" true
              (has "(cus:CUSTOMER())[($cid eq <CID>{fn:data(./child::CID)}</CID>)]");
            check_bool "getProfile is not called" false
              (has "ns1:getProfile()"));
    case "infer_shape reverse-engineers the read logic" (fun () ->
        let env = F.make ~customers:1 () in
        match Aldsp.Dataspace.infer_shape env.F.ds env.F.svc with
        | Error m -> Alcotest.fail m
        | Ok decl ->
          check_string "root" "CustomerProfile" decl.Schema.name.Qname.local;
          (* the inferred shape validates actual service output *)
          let schema = Schema.make ~target_ns:F.profile_ns [ decl ] in
          let dg = F.get_profile_by_id env "007" in
          (match Schema.validate schema (List.hd (Sdo.roots dg)) with
          | Ok () -> ()
          | Error vs ->
            Alcotest.failf "inferred shape rejects real output: %s"
              (String.concat "; "
                 (List.map (fun v -> v.Schema.path ^ " " ^ v.Schema.message) vs))));
  ]

let logical_nav_tests =
  [
    case "logical services get navigation functions per nested block" (fun () ->
        let env = F.make ~customers:1 () in
        let navs =
          List.filter
            (fun (m : Aldsp.Data_service.ds_method) ->
              match m.Aldsp.Data_service.m_kind with
              | Aldsp.Data_service.Navigation_function _ -> true
              | _ -> false)
            env.F.svc.Aldsp.Data_service.ds_methods
        in
        check_int "two navs (orders, cards)" 2 (List.length navs));
    case "navigation probes the live source, not the instance copy" (fun () ->
        let env = F.make ~customers:1 () in
        let sess = Aldsp.Dataspace.session env.F.ds in
        let count_orders () =
          Xqse.Session.eval_to_string sess
            "count(for $p in profile:getProfileById('007') return profile:getORDERS($p))"
        in
        let before = count_orders () in
        (* a new order arrives directly in the source *)
        ignore
          (R.Database.exec env.F.db1
             (R.Database.Insert
                {
                  table = "ORDERS";
                  columns = [ "OID"; "CID"; "STATUS" ];
                  values = [ R.Value.Int 123456; R.Value.Text "007"; R.Value.Text "FRESH" ];
                }));
        let after = count_orders () in
        check_int "sees the new row" (int_of_string before + 1) (int_of_string after));
    case "navigation from a credit-card block crosses databases" (fun () ->
        let env = F.make ~customers:1 () in
        let sess = Aldsp.Dataspace.session env.F.ds in
        check_string "ccards" "1"
          (Xqse.Session.eval_to_string sess
             "count(for $p in profile:getProfileById('007') return profile:getCREDIT_CARD($p))"));
    case "navigation is usable from XQSE procedures" (fun () ->
        let env = F.make ~customers:1 () in
        let sess = Aldsp.Dataspace.session env.F.ds in
        let expected =
          Xqse.Session.eval_to_string sess
            "count(profile:getProfile()/Orders/ORDERS[STATUS eq 'OPEN'])"
        in
        check_string "open orders" expected
          (Xqse.Session.eval_to_string sess
             {| {
               declare $open := 0;
               iterate $p over profile:getProfile() {
                 iterate $o over profile:getORDERS($p) {
                   if ($o/STATUS eq 'OPEN') then set $open := $open + 1;
                 }
               }
               return value $open;
             } |}));
  ]

let submit_validation_tests =
  [
    case "valid submissions pass shape validation" (fun () ->
        let env = F.make ~customers:1 () in
        let dg = F.get_profile_by_id env "007" in
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey";
        let r = Aldsp.Dataspace.submit env.F.ds env.F.svc ~validate:true dg in
        check_bool "committed" true r.Aldsp.Dataspace.sr_committed);
    case "shape-violating object is rejected before any SQL" (fun () ->
        let env = F.make ~customers:1 () in
        let dg = F.get_profile_by_id env "007" in
        R.Database.clear_log env.F.db1;
        (* add a bogus root object that violates the shape *)
        Sdo.add_object dg
          (List.hd
             (Xml_parse.parse_fragment
                {|<p:CustomerProfile xmlns:p="ld:CustomerProfile"><WRONG>1</WRONG></p:CustomerProfile>|}));
        (match Aldsp.Dataspace.submit env.F.ds env.F.svc ~validate:true dg with
        | _ -> Alcotest.fail "expected Not_updatable"
        | exception Aldsp.Decompose.Not_updatable msg ->
          check_bool "mentions shape" true
            (let m = "shape" in
             let n = String.length msg and k = String.length m in
             let rec go i = i + k <= n && (String.sub msg i k = m || go (i + 1)) in
             go 0));
        check_int "no sql ran" 0 (R.Database.log_size env.F.db1));
    case "multi-object datagraph decomposes per object" (fun () ->
        let env = F.make ~customers:3 () in
        let dg = Aldsp.Dataspace.get env.F.ds env.F.svc ~meth:"getProfile" [] in
        check_int "objects" 4 (List.length (Sdo.roots dg));
        (* change two different customers in one submission *)
        Sdo.set_leaf dg 1 [ ("FIRST_NAME", 1) ] "Edit1";
        Sdo.set_leaf dg 3 [ ("FIRST_NAME", 1) ] "Edit3";
        let r = Aldsp.Dataspace.submit env.F.ds env.F.svc dg in
        check_bool "committed" true r.Aldsp.Dataspace.sr_committed;
        check_int "two updates" 2 r.Aldsp.Dataspace.sr_statements;
        let edited =
          List.length
            (R.Table.select env.F.customer
               (R.Pred.Or
                  ( R.Pred.eq "FIRST_NAME" (R.Value.Text "Edit1"),
                    R.Pred.eq "FIRST_NAME" (R.Value.Text "Edit3") )))
        in
        check_int "both written" 2 edited);
    case "mixed kinds in one datagraph: modify + create + delete" (fun () ->
        let env = F.make ~customers:2 () in
        let dg = Aldsp.Dataspace.get env.F.ds env.F.svc ~meth:"getProfile" [] in
        let n = List.length (Sdo.roots dg) in
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Mixed";
        Sdo.delete_object dg n;
        Sdo.add_object dg
          (List.hd
             (Xml_parse.parse_fragment
                {|<p:CustomerProfile xmlns:p="ld:CustomerProfile"><CID>MX1</CID><LAST_NAME>New</LAST_NAME><FIRST_NAME>Guy</FIRST_NAME><Orders/><CreditCards/></p:CustomerProfile>|}));
        let before = R.Table.row_count env.F.customer in
        let r = Aldsp.Dataspace.submit env.F.ds env.F.svc dg in
        check_bool "committed" true r.Aldsp.Dataspace.sr_committed;
        (* one deleted, one created: count unchanged; new row present *)
        check_int "count stable" before (R.Table.row_count env.F.customer);
        check_bool "created" true
          (R.Table.find_pk env.F.customer [ R.Value.Text "MX1" ] <> None));
  ]

let suites =
  [
    ("ext.typeswitch", typeswitch_tests);
    ("ext.composition", composition_tests);
    ("ext.tooling", tooling_tests);
    ("ext.submit-validation", submit_validation_tests);
    ("ext.logical-nav", logical_nav_tests);
    ("ext.collection", collection_tests);
    ("ext.fo-functions", fo_extension_tests);
    ("ext.indexes", index_tests);
    ("ext.logical-cud", logical_cud_tests);
    ("ext.xqse-override", xqse_override_tests);
  ]
