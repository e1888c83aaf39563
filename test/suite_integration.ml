(* End-to-end integration: the paper's four use cases and the full
   Figure 1-4 flow through the public API. *)

open Util
open Core
open Core.Xdm
module FE = Fixtures.Employees
module FC = Fixtures.Customer_profile
module R = Relational

let uc qname_local = Qname.make ~uri:FE.usecases_ns qname_local

let employee_xml id name =
  List.hd
    (Xml_parse.parse_fragment
       (Printf.sprintf
          {|<e:Employee xmlns:e="urn:employees"><EmployeeID>%d</EmployeeID><Name>%s</Name><DeptNo>10</DeptNo><ManagerID>1</ManagerID><Salary>50000</Salary></e:Employee>|}
          id name))

let use_case_tests =
  [
    case "UC1: delete by employee id" (fun () ->
        let env = FE.make ~employees:6 () in
        Xqse.Session.load_library (Aldsp.Dataspace.session env.FE.ds) FE.uc1_delete_source;
        ignore (Aldsp.Dataspace.call env.FE.ds (uc "deleteByEmployeeID") [ Item.int 6 ]);
        check_int "rows" 5 (R.Table.row_count env.FE.employee);
        check_bool "sql shape" true
          (List.exists
             (fun s -> s = "DELETE FROM EMPLOYEE WHERE EMP_ID = 6")
             (R.Database.sql_log env.FE.hr)));
    case "UC1: missing employee raises the custom error" (fun () ->
        let env = FE.make ~employees:3 () in
        Xqse.Session.load_library (Aldsp.Dataspace.session env.FE.ds) FE.uc1_delete_source;
        match Aldsp.Dataspace.call env.FE.ds (uc "deleteByEmployeeID") [ Item.int 99 ] with
        | _ -> Alcotest.fail "expected NO_SUCH_EMPLOYEE"
        | exception Item.Error { code; _ } ->
          check_string "code" "NO_SUCH_EMPLOYEE" code.Qname.local);
    case "UC2: chain ends at the top employee" (fun () ->
        let env = FE.make ~employees:15 () in
        Xqse.Session.load_library (Aldsp.Dataspace.session env.FE.ds) FE.uc2_chain_source;
        let chain = Aldsp.Dataspace.call env.FE.ds (uc "getManagementChain") [ Item.int 15 ] in
        check_bool "nonempty" true (List.length chain >= 1);
        (* last element is employee 1, who has no manager *)
        let last = List.nth chain (List.length chain - 1) in
        let id =
          match last with
          | Item.Node n ->
            Node.string_value
              (List.find
                 (fun c -> match Node.name c with Some q -> q.Qname.local = "EmployeeID" | None -> false)
                 (Node.children n))
          | _ -> "?"
        in
        check_string "top" "1" id);
    case "UC2: chain of the top employee is just themselves" (fun () ->
        let env = FE.make ~employees:5 () in
        Xqse.Session.load_library (Aldsp.Dataspace.session env.FE.ds) FE.uc2_chain_source;
        check_int "len" 1
          (List.length (Aldsp.Dataspace.call env.FE.ds (uc "getManagementChain") [ Item.int 1 ])));
    case "UC2: callable inside XQuery because it is readonly" (fun () ->
        let env = FE.make ~employees:8 () in
        Xqse.Session.load_library (Aldsp.Dataspace.session env.FE.ds) FE.uc2_chain_source;
        let r =
          Xqse.Session.eval (Aldsp.Dataspace.session env.FE.ds)
            "max(for $e in ens1:getAll() return count(uc:getManagementChain(xs:integer($e/EmployeeID))))"
        in
        check_bool "depth >= 2" true
          (match Item.one_atom r with
          | Atomic.Integer d -> d >= 2
          | _ -> false));
    case "UC3: copies every employee with the transformed shape" (fun () ->
        let env = FE.make ~employees:9 () in
        Xqse.Session.load_library (Aldsp.Dataspace.session env.FE.ds) FE.uc3_etl_source;
        let n = Aldsp.Dataspace.call env.FE.ds (uc "copyAllToEMP2") [] in
        check_string "count" "9" (Xml_serialize.seq_to_string n);
        check_int "rows" 9 (R.Table.row_count env.FE.emp2);
        (* manager name resolved via the auxiliary lookup *)
        let top_mgr = R.Table.find_pk env.FE.emp2 [ R.Value.Int 1 ] in
        check_bool "top has no mgr name" true
          (match top_mgr with
          | Some row ->
            let v = R.Table.get row env.FE.emp2 "MGR_NAME" in
            v = R.Value.Null || v = R.Value.Text ""
          | None -> false);
        let some_child = R.Table.find_pk env.FE.emp2 [ R.Value.Int 2 ] in
        check_bool "child has mgr name" true
          (match some_child with
          | Some row -> (
            match R.Table.get row env.FE.emp2 "MGR_NAME" with
            | R.Value.Text s -> String.length s > 0
            | _ -> false)
          | None -> false));
    case "UC3: name splits into first and last" (fun () ->
        let env = FE.make ~employees:3 () in
        Xqse.Session.load_library (Aldsp.Dataspace.session env.FE.ds) FE.uc3_etl_source;
        ignore (Aldsp.Dataspace.call env.FE.ds (uc "copyAllToEMP2") []);
        let row = Option.get (R.Table.find_pk env.FE.emp2 [ R.Value.Int 1 ]) in
        let full =
          R.Value.to_string (R.Table.get (Option.get (R.Table.find_pk env.FE.employee [ R.Value.Int 1 ])) env.FE.employee "NAME")
        in
        let first = R.Value.to_string (R.Table.get row env.FE.emp2 "FIRST_NAME") in
        let last = R.Value.to_string (R.Table.get row env.FE.emp2 "LAST_NAME") in
        check_string "rejoined" full (first ^ " " ^ last));
    case "UC4: replicates into both sources" (fun () ->
        let env = FE.make ~employees:4 () in
        FE.load_all_use_cases env;
        let keys =
          Aldsp.Dataspace.call env.FE.ds (uc "create")
            [ [ Item.Node (employee_xml 50 "Nora Park") ] ]
        in
        check_int "one key" 1 (List.length keys);
        check_bool "primary" true (R.Table.find_pk env.FE.employee [ R.Value.Int 50 ] <> None);
        check_bool "backup" true (R.Table.find_pk env.FE.emp2 [ R.Value.Int 50 ] <> None));
    case "UC4: primary failure wraps as PRIMARY_CREATE_FAILURE" (fun () ->
        let env = FE.make ~employees:4 () in
        FE.load_all_use_cases env;
        match
          Aldsp.Dataspace.call env.FE.ds (uc "create")
            [ [ Item.Node (employee_xml 1 "Dup") ] ]
        with
        | _ -> Alcotest.fail "expected failure"
        | exception Item.Error { code; _ } ->
          check_string "code" "PRIMARY_CREATE_FAILURE" code.Qname.local);
    case "UC4: backup failure wraps as SECONDARY_CREATE_FAILURE" (fun () ->
        let env = FE.make ~employees:4 () in
        FE.load_all_use_cases env;
        Resilience.Faults.set_fail_after (R.Database.faults env.FE.backup) (Some 0);
        match
          Aldsp.Dataspace.call env.FE.ds (uc "create")
            [ [ Item.Node (employee_xml 60 "Faily McFail") ] ]
        with
        | _ -> Alcotest.fail "expected failure"
        | exception Item.Error { code; _ } ->
          check_string "code" "SECONDARY_CREATE_FAILURE" code.Qname.local);
    case "UC4: iterate processes every input once" (fun () ->
        let env = FE.make ~employees:2 () in
        FE.load_all_use_cases env;
        let keys =
          Aldsp.Dataspace.call env.FE.ds (uc "create")
            [ [ Item.Node (employee_xml 70 "A B"); Item.Node (employee_xml 71 "C D") ] ]
        in
        check_int "keys" 2 (List.length keys);
        check_int "emp2" 2 (R.Table.row_count env.FE.emp2));
  ]

let figure_tests =
  [
    case "Figure 3: profile integrates both databases and the ws" (fun () ->
        let env = FC.make ~customers:2 () in
        let dg = FC.get_profile_by_id env "007" in
        match Sdo.roots dg with
        | [ profile ] ->
          let child name =
            List.find_opt
              (fun c -> match Node.name c with Some q -> q.Qname.local = name | None -> false)
              (Node.children profile)
          in
          check_bool "orders" true (child "Orders" <> None);
          check_bool "cards" true (child "CreditCards" <> None);
          check_bool "rating present (ws)" true (child "CreditRating" <> None);
          check_string "last name" "Carrey"
            (Node.string_value (Option.get (child "LAST_NAME")))
        | _ -> Alcotest.fail "expected exactly one profile");
    case "Figure 3: getProfile returns every customer" (fun () ->
        let env = FC.make ~customers:4 () in
        let all = Aldsp.Dataspace.get env.FC.ds env.FC.svc ~meth:"getProfile" [] in
        check_int "profiles" 5 (List.length (Sdo.roots all)));
    case "Figure 4: the whole disconnected update cycle" (fun () ->
        let env = FC.make ~customers:1 () in
        (* 1. client reads *)
        let dg = FC.get_profile_by_id env "007" in
        (* 2. client mutates offline *)
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey";
        (* 3. wire round trip happens inside submit; server decomposes *)
        let r = Aldsp.Dataspace.submit env.FC.ds env.FC.svc ~policy:Aldsp.Occ.Read_values dg in
        check_bool "committed" true r.Aldsp.Dataspace.sr_committed;
        check_int "exactly one statement" 1 r.Aldsp.Dataspace.sr_statements;
        (* the generated SQL matches the paper's conditioned-update idea *)
        check_bool "conditioned" true
          (List.exists
             (fun s ->
               let m = "LAST_NAME = 'Carrey'" in
               let n = String.length s and k = String.length m in
               let rec go i = i + k <= n && (String.sub s i k = m || go (i + 1)) in
               go 0)
             r.Aldsp.Dataspace.sr_sql);
        (* 4. source reflects the change *)
        let row = Option.get (R.Table.find_pk env.FC.customer [ R.Value.Text "007" ]) in
        check_bool "applied" true
          (R.Table.get row env.FC.customer "LAST_NAME" = R.Value.Text "Carey"));
    case "web service is called once per customer in getProfile" (fun () ->
        let instr = fresh_instr () in
        let env = FC.make ~customers:3 ~instr () in
        ignore (Aldsp.Dataspace.get env.FC.ds env.FC.svc ~meth:"getProfile" []);
        check_int "calls" 4 (counter instr Instr.K.ws_calls));
    case "getProfileById composes on top of getProfile" (fun () ->
        let env = FC.make ~customers:3 () in
        let dg = FC.get_profile_by_id env "C2" in
        check_int "one" 1 (List.length (Sdo.roots dg));
        check_string "cid" "C2" (Sdo.get_leaf dg 1 [ ("CID", 1) ]));
    case "shape validation of produced profiles" (fun () ->
        let env = FC.make ~customers:1 () in
        let dg = FC.get_profile_by_id env "007" in
        let shape = Option.get (Aldsp.Data_service.shape env.FC.svc) in
        let schema = Schema.make ~target_ns:FC.profile_ns [ shape ] in
        match Schema.validate schema (List.hd (Sdo.roots dg)) with
        | Ok () -> ()
        | Error vs ->
          Alcotest.failf "shape violations: %s"
            (String.concat "; " (List.map (fun v -> v.Schema.path ^ " " ^ v.Schema.message) vs)));
    case "ad-hoc queries can call data service methods" (fun () ->
        let env = FC.make ~customers:3 () in
        let r =
          Xqse.Session.eval (Aldsp.Dataspace.session env.FC.ds)
            "count(profile:getProfile()[xs:integer(CreditRating) ge 500])"
        in
        check_string "all rated" "4" (Xml_serialize.seq_to_string r));
    case "XQSE procedure can drive the SDO flow (update via script)" (fun () ->
        let env = FC.make ~customers:1 () in
        let sess = Aldsp.Dataspace.session env.FC.ds in
        (* an XQSE procedure that renames a customer via the physical
           update method — the paper's "custom update logic" in action *)
        Xqse.Session.load_library sess
          {|
declare namespace cus = "ld:db1/CUSTOMER";
declare namespace uc2 = "urn:renamer";
declare procedure uc2:rename($cid as xs:string, $new as xs:string) {
  declare $row := (for $c in cus:CUSTOMER() where $c/CID eq $cid return $c);
  if (fn:empty($row)) then fn:error(xs:QName("NO_SUCH_CUSTOMER"), $cid);
  cus:updateCUSTOMER(<CUSTOMER><CID>{fn:data($row/CID)}</CID><LAST_NAME>{$new}</LAST_NAME></CUSTOMER>);
};
|};
        ignore
          (Xqse.Session.call sess (Qname.make ~uri:"urn:renamer" "rename")
             [ Item.str "007"; Item.str "Moneypenny" ]);
        let row = Option.get (R.Table.find_pk env.FC.customer [ R.Value.Text "007" ]) in
        check_bool "renamed" true
          (R.Table.get row env.FC.customer "LAST_NAME" = R.Value.Text "Moneypenny"));
  ]

let suites =
  [
    ("integration.use-cases", use_case_tests);
    ("integration.figures", figure_tests);
  ]
