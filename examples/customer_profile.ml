(* The paper's worked example, end to end (Figures 1-4):

   - two relational databases (CUSTOMER+ORDERS, CREDIT_CARD) and a
     credit-rating web service are introspected into data services;
   - the CustomerProfile logical entity service integrates them with the
     Figure 3 XQuery read methods;
   - a client reads a profile into an SDO datagraph, renames the
     customer, and submits the change summary back (Figure 4);
   - ALDSP decomposes the change via lineage analysis into exactly one
     conditioned UPDATE against the one affected source.

   Run with:  dune exec examples/customer_profile.exe *)

open Core
module F = Fixtures.Customer_profile

let section title = Printf.printf "\n=== %s ===\n" title

let () =
  let env = F.make ~customers:3 () in
  let ds = env.F.ds in

  section "Design view (Figure 1 stand-in)";
  print_string (Aldsp.Dataspace.describe ds);

  section "The primary read method source (Figure 3)";
  print_endline (String.trim F.profile_source);

  section "getProfileById(\"007\")";
  let dg = F.get_profile_by_id env "007" in
  List.iter
    (fun n -> print_endline (Xdm.Xml_serialize.to_string ~indent:true n))
    (Sdo.roots dg);

  section "Lineage of the primary read function";
  (match Aldsp.Dataspace.lineage_of ds env.F.svc with
  | Ok blk -> print_string (Aldsp.Lineage.describe blk)
  | Error m -> Printf.printf "lineage error: %s\n" m);

  section "Client change + datagraph wire form (Figure 4)";
  Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey";
  print_endline (Sdo.serialize dg);

  section "Submit under the read-values concurrency policy";
  let result = Aldsp.Dataspace.submit ds env.F.svc ~policy:Aldsp.Occ.Read_values dg in
  Printf.printf "committed: %b, statements: %d\n"
    result.Aldsp.Dataspace.sr_committed result.Aldsp.Dataspace.sr_statements;
  List.iter (fun s -> Printf.printf "  %s\n" s) result.Aldsp.Dataspace.sr_sql;

  section "Source state after the update";
  List.iter
    (fun row ->
      Printf.printf "CUSTOMER 007: LAST_NAME = %s\n"
        (Relational.Value.to_string
           (Relational.Table.get row env.F.customer "LAST_NAME")))
    (Relational.Table.select env.F.customer
       (Relational.Pred.eq "CID" (Relational.Value.Text "007")));

  section "A conflicting writer makes the resubmission abort";
  let dg2 = F.get_profile_by_id env "007" in
  Sdo.set_leaf dg2 1 [ ("FIRST_NAME", 1) ] "Jim";
  (* another client changes the row in between *)
  ignore
    (Relational.Database.exec env.F.db1
       (Relational.Database.Update
          {
            table = "CUSTOMER";
            set = [ ("FIRST_NAME", Relational.Value.Text "Jimmy") ];
            where = Relational.Pred.eq "CID" (Relational.Value.Text "007");
          }));
  let r2 = Aldsp.Dataspace.submit ds env.F.svc ~policy:Aldsp.Occ.Updated_values dg2 in
  Printf.printf "committed: %b%s\n" r2.Aldsp.Dataspace.sr_committed
    (match r2.Aldsp.Dataspace.sr_reason with
    | Some reason -> " — " ^ reason
    | None -> "");

  section "Nested change: closing an order touches only db1.ORDERS";
  let dg3 = F.get_profile_by_id env "007" in
  Sdo.set_leaf dg3 1 (Sdo.path_of_string "Orders/ORDERS[1]/STATUS") "CLOSED";
  let r3 = Aldsp.Dataspace.submit ds env.F.svc dg3 in
  List.iter (fun s -> Printf.printf "  %s\n" s) r3.Aldsp.Dataspace.sr_sql;

  section "Computed fields are protected";
  let dg4 = F.get_profile_by_id env "007" in
  (match Sdo.set_leaf dg4 1 [ ("CreditRating", 1) ] "850" with
  | () -> (
    match Aldsp.Dataspace.submit ds env.F.svc dg4 with
    | _ -> print_endline "unexpectedly accepted!"
    | exception Xdm.Item.Error { code; message; _ }
      when Xdm.Qname.equal code Aldsp.Decompose.sdox0001 ->
      Printf.printf "rejected as expected: %s\n" message)
  | exception e -> Printf.printf "set_leaf failed: %s\n" (Printexc.to_string e))
