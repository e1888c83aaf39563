(* Use case 4 (paper section III.D.4): augmenting ALDSP C/U/D behavior.

   A replicating create method writes every new employee to both
   sources, wrapping each source's failures in a distinguishable error
   (PRIMARY_CREATE_FAILURE / SECONDARY_CREATE_FAILURE) with try/catch.

   Run with:  dune exec examples/replicated_create.exe *)

open Core
module F = Fixtures.Employees
module R = Relational

let employee_xml id name =
  List.hd
    (Xdm.Xml_parse.parse_fragment
       (Printf.sprintf
          {|<e:Employee xmlns:e="urn:employees"><EmployeeID>%d</EmployeeID><Name>%s</Name><DeptNo>10</DeptNo><ManagerID>1</ManagerID><Salary>55000</Salary></e:Employee>|}
          id name))

let () =
  let env = F.make ~employees:5 () in
  let ds = env.F.ds in
  let sess = Aldsp.Dataspace.session ds in
  Xqse.Session.load_library sess F.uc3_etl_source;
  (* uc4 uses uc:transformToEMP2 from uc3 *)
  Xqse.Session.load_library sess F.uc4_replicate_source;

  print_endline "--- the XQSE source ---";
  print_endline (String.trim F.uc4_replicate_source);

  let create emps =
    Aldsp.Dataspace.call ds
      (Xdm.Qname.make ~uri:F.usecases_ns "create")
      [ List.map (fun n -> Xdm.Item.Node n) emps ]
  in

  print_endline "\n--- replicate two new employees ---";
  let keys = create [ employee_xml 100 "Zara Quinn"; employee_xml 101 "Omar Reyes" ] in
  Printf.printf "keys: %s\n" (Xdm.Xml_serialize.seq_to_string keys);
  Printf.printf "EMPLOYEE has %d rows, EMP2 has %d rows\n"
    (R.Table.row_count env.F.employee)
    (R.Table.row_count env.F.emp2);

  print_endline "\n--- a duplicate id fails in the primary source ---";
  (try ignore (create [ employee_xml 100 "Zara Quinn" ])
   with Xdm.Item.Error { code; message; _ } ->
     Printf.printf "caught %s:\n  %s\n" (Xdm.Qname.to_string code) message);

  print_endline "\n--- a backup-source failure is wrapped separately ---";
  (* sabotage the backup database: the next statement there fails *)
  Resilience.Faults.set_fail_after (R.Database.faults env.F.backup) (Some 0);
  (try ignore (create [ employee_xml 102 "Finn Marsh" ])
   with Xdm.Item.Error { code; message; _ } ->
     Printf.printf "caught %s:\n  %s\n" (Xdm.Qname.to_string code) message);
  Printf.printf
    "note the partial effect the paper warns about (III.B.13: side effects \
     are not rolled back): EMPLOYEE has %d rows, EMP2 has %d rows\n"
    (R.Table.row_count env.F.employee)
    (R.Table.row_count env.F.emp2)
