open Xdm
module FC = Customer_profile
module R = Relational

type t = {
  by_id : int;
  by_id_serialized : int;
  get_profile : int;
  nav : int;
  cycle : int;
  wire : int;
}

let read_customers = 20
let cycle_customers = 10
let by_id_customer = "C7"
let cycle_customer = "007"

(* untimed runs first: plan caches, compilation units and table
   versions settle, so the counted run allocates what every later one
   does *)
let warmups = 3

let words f =
  for _ = 1 to warmups do
    f ()
  done;
  let before = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. before)

let read_words ?(finish = ignore) fc text =
  let s = Aldsp.Dataspace.session fc.FC.ds in
  let fork = Xqse.Session.with_config s (Xqse.Session.config s) in
  let tables = [ fc.FC.customer; fc.FC.orders; fc.FC.credit_card ] in
  words (fun () ->
      let c = Xqse.Session.compile_cached fork text in
      finish (R.Table.with_snapshot tables (fun () -> Xqse.Session.run c)))

(* the Figure 4 client change: get the profile, change two leaves *)
let changed_profile fc tag =
  let dg =
    Aldsp.Dataspace.get fc.FC.ds fc.FC.svc ~meth:"getProfileById"
      [ [ Item.Atomic (Atomic.String cycle_customer) ] ]
  in
  Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] (Printf.sprintf "L%d" tag);
  Sdo.set_leaf dg 1
    [ ("CreditCards", 1); ("CREDIT_CARD", 1); ("BRAND", 1) ]
    (Printf.sprintf "B%d" tag);
  dg

let cycle_words fc =
  ignore (Aldsp.Dataspace.enable_result_cache fc.FC.ds);
  let tag = ref 0 in
  words (fun () ->
      incr tag;
      let dg = changed_profile fc !tag in
      let r = Aldsp.Dataspace.submit fc.FC.ds fc.FC.svc dg in
      if not r.Aldsp.Dataspace.sr_committed then
        failwith "Alloc_probe: the Figure 4 submit did not commit")

let measure () =
  let reads = FC.make ~customers:read_customers () in
  let by_id_text =
    Printf.sprintf {|profile:getProfileById("%s")|} by_id_customer
  in
  let by_id = read_words reads by_id_text in
  let by_id_serialized =
    read_words reads by_id_text ~finish:(fun v ->
        ignore (Xml_serialize.seq_to_string v : string))
  in
  let get_profile = read_words reads "count(profile:getProfile())" in
  let nav =
    read_words reads
      "count(for $c in customer:CUSTOMER() return customer:getORDERS($c))"
  in
  let fc = FC.make ~customers:cycle_customers () in
  let cycle = cycle_words fc in
  let dg = changed_profile fc 0 in
  let wire = words (fun () -> ignore (Sdo.parse (Sdo.serialize dg) : Sdo.t)) in
  { by_id; by_id_serialized; get_profile; nav; cycle; wire }
