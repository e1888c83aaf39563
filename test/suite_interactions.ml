(* Cross-component interactions: compiled-program reuse, update
   statements against live platform state, procedures calling through
   layers, and trace routing. *)

open Util
open Core
open Core.Xdm
module R = Relational
module FE = Fixtures.Employees

let compiled_reuse_tests =
  [
    case "compiled XQuery runs many times with different variables" (fun () ->
        let compiled =
          Xqse.Session.compile (Xqse.Session.create ())
            "declare variable $n external; $n * $n"
        in
        List.iter
          (fun n ->
            check_string "square"
              (string_of_int (n * n))
              (Xml_serialize.seq_to_string
                 (Xqse.Session.run
                    ~opts:
                      {
                        Xqse.Session.default_exec_opts with
                        vars = [ (Qname.local "n", Item.int n) ];
                      }
                    compiled)))
          [ 2; 5; 12 ]);
    case "compiled XQSE program re-runs deterministically" (fun () ->
        let s = Xqse.Session.create () in
        let compiled =
          Xqse.Session.compile s
            {| {
              declare $acc := 0;
              iterate $i over 1 to 5 { set $acc := $acc + $i; }
              return value $acc;
            } |}
        in
        check_string "first" "15"
          (Xml_serialize.seq_to_string (Xqse.Session.run compiled));
        check_string "second" "15"
          (Xml_serialize.seq_to_string (Xqse.Session.run compiled)));
    case "compiled XQSE program accepts external vars per run" (fun () ->
        let s = Xqse.Session.create () in
        let compiled =
          Xqse.Session.compile s
            {|declare variable $limit external;
              {
                declare $acc := 0, $i := 1;
                while ($i le $limit) { set $acc := $acc + $i; set $i := $i + 1; }
                return value $acc;
              }|}
        in
        let with_limit n =
          {
            Xqse.Session.default_exec_opts with
            vars = [ (Qname.local "limit", Item.int n) ];
          }
        in
        check_string "limit 3" "6"
          (Xml_serialize.seq_to_string
             (Xqse.Session.run ~opts:(with_limit 3) compiled));
        check_string "limit 10" "55"
          (Xml_serialize.seq_to_string
             (Xqse.Session.run ~opts:(with_limit 10) compiled)));
  ]

let platform_interaction_tests =
  [
    case "XQSE procedure mixes update statements and service calls" (fun () ->
        let env = FE.make ~employees:4 () in
        let sess = Aldsp.Dataspace.session env.FE.ds in
        (* build an XML report, enrich it with an update statement per
           employee read from the service *)
        Xqse.Session.load_library sess
          {|
declare namespace ens1 = "urn:employees";
declare namespace rep = "urn:report";
declare readonly procedure rep:headcount() as element(Report) {
  declare $report := <Report><Count>0</Count></Report>;
  declare $n := 0;
  iterate $e over ens1:getAll() {
    set $n := $n + 1;
    replace value of node $report/Count with $n;
  }
  return value $report;
};
|};
        check_string "report" "<Report><Count>4</Count></Report>"
          (Xqse.Session.eval_to_string sess
             "declare namespace rep = 'urn:report'; rep:headcount()"));
    case "procedure -> function -> readonly procedure chain" (fun () ->
        let s = Xqse.Session.create () in
        Xqse.Session.load_library s
          {|
declare readonly procedure local:base($x as xs:integer) as xs:integer {
  return value $x + 1;
};
declare function local:middle($x as xs:integer) as xs:integer {
  local:base($x) * 2
};
declare procedure local:top($x as xs:integer) as xs:integer {
  declare $v := local:middle($x);
  return value $v + 100;
};
|};
        check_string "chain" "108"
          (Xml_serialize.seq_to_string
             (Xqse.Session.call s (Qname.make ~uri:Qname.local_default_ns "top")
                [ Item.int 3 ])));
    case "writes through procedures are visible to later reads in one program"
      (fun () ->
        let env = FE.make ~employees:2 () in
        let sess = Aldsp.Dataspace.session env.FE.ds in
        check_string "count grows" "2 3"
          (Xqse.Session.eval_to_string sess
             {| {
               declare $before := count(employee:EMPLOYEE());
               declare $after := 0;
               employee:createEMPLOYEE(
                 <EMPLOYEE><EMP_ID>77</EMP_ID><NAME>New Hire</NAME></EMPLOYEE>);
               set $after := count(employee:EMPLOYEE());
               return value ($before, $after);
             } |}));
    case "trace output is routed through sessions into the platform" (fun () ->
        let env = FE.make ~employees:2 () in
        let sess = Aldsp.Dataspace.session env.FE.ds in
        let traces = ref [] in
        Xqse.Session.set_trace sess (fun m -> traces := m :: !traces);
        ignore
          (Xqse.Session.eval sess
             {| { iterate $e over ens1:getAll() { fn:trace($e/EmployeeID, "emp"); } } |});
        check_int "one trace per employee" 2 (List.length !traces));
    case "update statement cannot touch function results by accident" (fun () ->
        (* service reads return fresh copies; updating them changes the
           copy, not the source *)
        let env = FE.make ~employees:2 () in
        let sess = Aldsp.Dataspace.session env.FE.ds in
        ignore
          (Xqse.Session.eval sess
             {| {
               declare $row := (employee:EMPLOYEE())[1];
               replace value of node $row/NAME with "Hacked";
               return value string($row/NAME);
             } |});
        check_bool "source unchanged" true
          (not
             (List.exists
                (fun r -> R.Table.get r env.FE.employee "NAME" = R.Value.Text "Hacked")
                (R.Table.scan env.FE.employee))));
    case "catalog lists XQSE-declared methods after deployment" (fun () ->
        let env = FE.make ~employees:2 () in
        let sess = Aldsp.Dataspace.session env.FE.ds in
        Xqse.Session.load_library sess FE.uc2_chain_source;
        (* the procedure exists in the session even though the catalog
           only tracks declared service methods *)
        check_string "callable" "1"
          (Xqse.Session.eval_to_string sess
             "count(uc:getManagementChain(1))"));
  ]

let suites =
  [
    ("interactions.compiled-reuse", compiled_reuse_tests);
    ("interactions.platform", platform_interaction_tests);
  ]
