(* Keyed relational reads: a compiled filter [T()[COL eq K]] over a
   table read opens the read once and, for a single string key, selects
   only the matching rows. Every case compares the keyed build with two
   builds that take the generic filter — an optimize = false dataspace,
   where Figure 3's where is never pushed, and a plans = false fork,
   whose tree walker evaluates the pushed filter row by row — byte for
   byte, error code for error code, degradation record for degradation
   record. *)

open Core
open Util
module FC = Fixtures.Customer_profile
module R = Relational
module Res = Resilience

(* a result or the error code it raised *)
let outcome sess src =
  match Xqse.Session.eval sess src with
  | v -> Ok (Xdm.Xml_serialize.seq_to_string v)
  | exception Xdm.Item.Error { code; _ } -> Error (Xdm.Qname.to_string code)

let show = function
  | Ok s -> Printf.sprintf "result %S" s
  | Error c -> Printf.sprintf "error %s" c

let no_plans sess =
  Xqse.Session.with_config sess
    { (Xqse.Session.config sess) with Xqse.Session.plans = false }

(* the keyed session and its two oracles; [keyed] and [no_plans] share
   one dataspace, [no_opt] has its own over the same seeded data *)
type builds = {
  env : FC.env;
  keyed : Xqse.Session.t;
  no_opt : Xqse.Session.t;
  no_opt_env : FC.env;
  no_plans : Xqse.Session.t;
}

let builds ?instr customers =
  let env = FC.make ~customers ?instr () in
  let no_opt_env = FC.make ~customers ~optimize:false () in
  let keyed = Aldsp.Dataspace.session env.FC.ds in
  {
    env;
    keyed;
    no_opt = Aldsp.Dataspace.session no_opt_env.FC.ds;
    no_opt_env;
    no_plans = no_plans keyed;
  }

let agree_on what ~keyed ~oracles =
  List.iter
    (fun (name, o) ->
      if o <> keyed then
        Alcotest.failf "%s: keyed build gave %s, %s gave %s" what (show keyed)
          name (show o))
    oracles

let agree b src =
  let keyed = outcome b.keyed src in
  agree_on src ~keyed
    ~oracles:
      [ ("optimize=false", outcome b.no_opt src);
        ("plans=false", outcome b.no_plans src) ];
  keyed

let profile_queries =
  [
    "profile:getProfile()";
    {|profile:getProfileById("C1")|};
    {|orders:ORDERS()[CID eq "C1"]|};
    {|credit_card:CREDIT_CARD()[CID eq "C1"]|};
  ]

(* [Session.call], the path of [Dataspace.get] and of Figure 4's read *)
let call_outcome sess local args =
  match Xqse.Session.call sess (Xdm.Qname.make ~uri:FC.profile_ns local) args with
  | v -> Ok (Xdm.Xml_serialize.seq_to_string v)
  | exception Xdm.Item.Error { code; _ } -> Error (Xdm.Qname.to_string code)

let agree_call b local args =
  agree_on ("call " ^ local) ~keyed:(call_outcome b.keyed local args)
    ~oracles:
      [ ("optimize=false", call_outcome b.no_opt local args);
        ("plans=false", call_outcome b.no_plans local args) ]

let equivalence_tests =
  List.map
    (fun customers ->
      case (Printf.sprintf "Figure 3 reads agree at %d customers" customers)
        (fun () ->
          let b = builds customers in
          List.iter (fun src -> ignore (agree b src)) profile_queries;
          agree_call b "getProfile" [];
          agree_call b "getProfileById" [ Xdm.Item.str "C1" ]))
    [ 0; 1; 5; 20 ]
  @ [
      case "the keyed read fetches only the matching rows" (fun () ->
          let instr = Instr.create () in
          Instr.preregister instr;
          Instr.enable instr;
          let b = builds ~instr 5 in
          (* the customer with the most cards, so the count is not 0 *)
          let cards_of cid =
            List.length
              (R.Table.select b.env.FC.credit_card
                 (R.Pred.eq "CID" (R.Value.Text cid)))
          in
          let cid =
            List.fold_left
              (fun best c -> if cards_of c > cards_of best then c else best)
              "007"
              (List.init 5 (fun i -> Printf.sprintf "C%d" (i + 1)))
          in
          (* count the keyed build's own run; the oracles share [instr] *)
          let delta src name =
            ignore (agree b src);
            let before = counter instr name in
            ignore (outcome b.keyed src);
            counter instr name - before
          in
          let cards = Printf.sprintf {|credit_card:CREDIT_CARD()[CID eq "%s"]|} cid in
          check_int "cards fetched" (cards_of cid)
            (delta cards Instr.K.rows_fetched);
          check_int "cards materialized" (cards_of cid)
            (delta cards Instr.K.stream_materialized);
          (* no index on CREDIT_CARD.CID: every row is still examined *)
          check_int "cards scanned" (R.Table.row_count b.env.FC.credit_card)
            (delta cards Instr.K.rows_scanned);
          (* Session.call runs the compiled plan too: Figure 4's get
             fetches one card row per customer's own cards, not the
             whole table per customer *)
          let before = counter instr Instr.K.rows_fetched in
          ignore (call_outcome b.keyed "getProfile" []);
          check_int "getProfile through Session.call"
            (R.Table.row_count b.env.FC.customer
            + R.Table.row_count b.env.FC.orders
            + R.Table.row_count b.env.FC.credit_card)
            (counter instr Instr.K.rows_fetched - before);
          (* ORDERS.CID carries the foreign-key index: a probe *)
          let orders = Printf.sprintf {|orders:ORDERS()[CID eq "%s"]|} cid in
          check_int "orders scanned by the index probe"
            (List.length
               (R.Table.select b.env.FC.orders (R.Pred.eq "CID" (R.Value.Text cid))))
            (delta orders Instr.K.rows_scanned));
      case "a snapshot pinned across a concurrent submit reads the same rows"
        (fun () ->
          let b = builds 5 in
          let tables (e : FC.env) = [ e.FC.customer; e.FC.orders; e.FC.credit_card ] in
          (* a Figure 4 submit (007's name and card brand, across both
             databases) and new rows for C1, from another domain *)
          let commit (e : FC.env) =
            Domain.join
              (Domain.spawn (fun () ->
                   let dg = FC.get_profile_by_id e "007" in
                   Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Moneypenny";
                   Sdo.set_leaf dg 1
                     [ ("CreditCards", 1); ("CREDIT_CARD", 1); ("BRAND", 1) ]
                     "AMEX";
                   if
                     not
                       (Aldsp.Dataspace.submit e.FC.ds e.FC.svc dg)
                         .Aldsp.Dataspace.sr_committed
                   then Alcotest.fail "the concurrent submit did not commit";
                   R.Table.insert e.FC.credit_card
                     [| R.Value.Int 777; Text "C1"; Text "CREDIT"; Text "VISA";
                        Text "4000-0007"; Date "2010-01-01" |];
                   R.Table.insert e.FC.orders
                     [| R.Value.Int 777; Text "C1"; Date "2008-01-01";
                        Float 7.; Text "OPEN" |]))
          in
          let queries =
            profile_queries
            @ [ {|profile:getProfileById("007")|};
                {|credit_card:CREDIT_CARD()[CID eq "007"]|} ]
          in
          let reads sessions =
            List.map (fun src -> List.map (fun s -> outcome s src) sessions)
              queries
          in
          let pinned sessions e =
            R.Table.with_snapshot (tables e) (fun () ->
                let before = reads sessions in
                commit e;
                let during = reads sessions in
                if during <> before then
                  Alcotest.fail "a pinned read saw the concurrent commit";
                during)
          in
          let keyed_in = pinned [ b.keyed; b.no_plans ] b.env in
          let no_opt_in = pinned [ b.no_opt ] b.no_opt_env in
          List.iter2
            (fun k o ->
              match (k, o) with
              | [ keyed; no_plans ], [ no_opt ] ->
                agree_on "inside the snapshot" ~keyed
                  ~oracles:[ ("optimize=false", no_opt); ("plans=false", no_plans) ]
              | _ -> assert false)
            keyed_in no_opt_in;
          (* released: every build sees the commit, and they still agree *)
          let after = List.map (agree b) queries in
          (* every query reads a row the submit or the inserts changed *)
          check_bool "the commit is visible once the snapshot is released"
            true
            (List.for_all2 ( <> ) after (List.map List.hd keyed_in)));
    ]

(* One fault on the k-th db2 call of getProfile, for every k the read
   makes: the keyed build makes the same guarded calls, so it fails (or,
   with db2 degradable, degrades) at the same point as the oracles. *)
let db2_calls (e : FC.env) = Res.Faults.calls (R.Database.faults e.FC.db2)

let fault_run ~degradable ~k make =
  let e, sess = make () in
  let ctl = Aldsp.Dataspace.resilience e.FC.ds in
  if degradable then Res.Control.set_degradable ctl ~source:"db2";
  Res.Faults.set_schedule
    (R.Database.faults e.FC.db2)
    {
      (Res.Plan.empty ~source:"db2") with
      Res.Plan.s_transients = [ db2_calls e + k ];
    };
  let r = outcome sess "profile:getProfile()" in
  let dgs =
    List.map
      (fun (d : Res.Control.degradation) ->
        (d.Res.Control.dg_source, d.Res.Control.dg_code, d.Res.Control.dg_message))
      (Res.Control.degradations ctl)
  in
  (r, dgs)

let fault_tests =
  let customers = 5 in
  let keyed () =
    let e = FC.make ~customers () in
    (e, Aldsp.Dataspace.session e.FC.ds)
  and no_opt () =
    let e = FC.make ~customers ~optimize:false () in
    (e, Aldsp.Dataspace.session e.FC.ds)
  and no_plans () =
    let e = FC.make ~customers () in
    (e, no_plans (Aldsp.Dataspace.session e.FC.ds))
  in
  let calls_per_read make =
    let e, sess = make () in
    let before = db2_calls e in
    ignore (outcome sess "profile:getProfile()");
    db2_calls e - before
  in
  [
    case "getProfile makes one db2 call per customer in every build" (fun () ->
        List.iter
          (fun make -> check_int "db2 calls" (customers + 1) (calls_per_read make))
          [ keyed; no_opt; no_plans ]);
    case "a browned-out db2 degrades every card read alike, uncalled"
      (fun () ->
        let browned make =
          let e, sess = make () in
          let ctl = Aldsp.Dataspace.resilience e.FC.ds in
          Res.Control.set_degradable ctl ~source:"db2";
          Res.Control.set_brownout ctl true;
          let before = db2_calls e in
          let r = outcome sess "profile:getProfile()" in
          Res.Control.set_brownout ctl false;
          ( r,
            List.map
              (fun (d : Res.Control.degradation) ->
                (d.Res.Control.dg_source, d.Res.Control.dg_code))
              (Res.Control.degradations ctl),
            db2_calls e - before )
        in
        let ((_, kd, kcalls) as k) = browned keyed in
        check_int "no db2 call made" 0 kcalls;
        check_int "one degradation per card read" (customers + 1)
          (List.length kd);
        List.iter
          (fun (name, make) ->
            if browned make <> k then
              Alcotest.failf "brownout: keyed build and %s disagree" name)
          [ ("optimize=false", no_opt); ("plans=false", no_plans) ]);
  ]
  @ List.map
      (fun degradable ->
        case
          (Printf.sprintf "a fault on the k-th db2 call %s alike"
             (if degradable then "degrades" else "fails"))
          (fun () ->
            for k = 1 to customers + 1 do
              let kr, kd = fault_run ~degradable ~k keyed in
              List.iter
                (fun (name, make) ->
                  let r, d = fault_run ~degradable ~k make in
                  if r <> kr || d <> kd then
                    Alcotest.failf
                      "fault on db2 call %d: keyed build gave %s with %d \
                       degradation(s), %s gave %s with %d"
                      k (show kr) (List.length kd) name (show r) (List.length d))
                [ ("optimize=false", no_opt); ("plans=false", no_plans) ];
              if degradable then
                check_int "one degradation" 1 (List.length kd)
              else
                check_bool "the read failed" true
                  (match kr with Error _ -> true | Ok _ -> false)
            done))
      [ false; true ]

(* A table of our own, with a nullable text key column. *)
let key_schema =
  {
    R.Table.tbl_name = "T";
    columns =
      [
        { R.Table.col_name = "ID"; col_type = R.Value.T_int; nullable = false };
        { R.Table.col_name = "CID"; col_type = R.Value.T_text; nullable = true };
        { R.Table.col_name = "N"; col_type = R.Value.T_int; nullable = true };
      ];
    primary_key = [ "ID" ];
    foreign_keys = [];
  }

let key_rows =
  [
    [| R.Value.Int 1; Text "a"; Int 1 |];
    [| R.Value.Int 2; Null; Int 2 |];
    [| R.Value.Int 3; Text "b"; Int 3 |];
    [| R.Value.Int 4; Text "a"; Int 4 |];
    [| R.Value.Int 5; Text ""; Null |];
    [| R.Value.Int 6; Null; Null |];
  ]

let key_prolog =
  {|declare function local:eq($k) { t:T()[CID eq $k] };
declare function local:geq($k) { t:T()[CID = $k] };
declare function local:path($c) { t:T()[CID eq $c/CID] };
|}

(* the same table in a keyed dataspace and an optimize = false one *)
let key_builds rows =
  let make optimize =
    let db = R.Database.create "kdb" in
    let tbl = R.Database.add_table db key_schema in
    List.iter (R.Table.insert tbl) rows;
    let ds = Aldsp.Dataspace.create ~optimize () in
    ignore (Aldsp.Dataspace.register_database ds db);
    (tbl, Aldsp.Dataspace.session ds)
  in
  let tbl, keyed = make true in
  let _, no_opt = make false in
  (tbl, keyed, no_opt)

let key_agree ?expect (_, keyed, no_opt) body =
  let src = key_prolog ^ body in
  let k = outcome keyed src in
  agree_on body ~keyed:k
    ~oracles:[ ("optimize=false", outcome no_opt src);
               ("plans=false", outcome (no_plans keyed) src) ];
  match expect with
  | Some e when e <> k -> Alcotest.failf "%s: expected %s, got %s" body (show e) (show k)
  | _ -> ()

let ok s = Ok s
let err c = Error ("err:" ^ c)

let edge_tests =
  [
    case "string, node and untyped keys select the same rows" (fun () ->
        let b = key_builds key_rows in
        let two_a =
          ok "<T><ID>1</ID><CID>a</CID><N>1</N></T><T><ID>4</ID><CID>a</CID><N>4</N></T>"
        in
        key_agree b ~expect:two_a {|t:T()[CID eq "a"]|};
        key_agree b ~expect:two_a {|t:T()["a" eq CID]|};
        key_agree b ~expect:two_a {|t:T()[fn:data(./CID) = "a"]|};
        key_agree b ~expect:two_a {|local:eq("a")|};
        key_agree b ~expect:two_a {|local:eq(<k>a</k>)|};
        key_agree b ~expect:two_a {|local:eq(xs:untypedAtomic("a"))|};
        key_agree b ~expect:two_a {|local:path(<r><CID>a</CID></r>)|};
        key_agree b {|local:eq("")|};
        key_agree b ~expect:(ok "") {|local:eq("c")|};
        (* later predicates see positions within the selected rows *)
        key_agree b ~expect:(ok "<T><ID>4</ID><CID>a</CID><N>4</N></T>")
          {|t:T()[CID eq "a"][2]|};
        key_agree b ~expect:(ok "<T><ID>4</ID><CID>a</CID><N>4</N></T>")
          {|t:T()[CID eq "a"][N > 1]|});
    case "an empty key selects nothing" (fun () ->
        let b = key_builds key_rows in
        key_agree b ~expect:(ok "") "local:eq(())";
        key_agree b ~expect:(ok "") "local:geq(())");
    case "a two-item key keeps the row-by-row semantics" (fun () ->
        let b = key_builds key_rows in
        key_agree b ~expect:(err "XPTY0004") {|local:eq(("a", "b"))|};
        key_agree b
          ~expect:
            (ok
               "<T><ID>1</ID><CID>a</CID><N>1</N></T><T><ID>3</ID><CID>b</CID><N>3</N></T><T><ID>4</ID><CID>a</CID><N>4</N></T>")
          {|local:geq(("a", "b"))|});
    case "an integer key keeps the row-by-row type errors" (fun () ->
        let b = key_builds key_rows in
        key_agree b ~expect:(err "XPTY0004") "local:eq(1)";
        key_agree b "local:geq(1)");
    case "NULL key columns never match" (fun () ->
        let b = key_builds key_rows in
        key_agree b {|count(t:T()[CID eq "a"]) + count(t:T()[CID = ("a", "b", "")])|};
        (* only NULL rows: the string key compares with nothing, the
           integer key raises nothing *)
        let nulls = key_builds [ [| R.Value.Int 2; Null; Null |] ] in
        key_agree nulls ~expect:(ok "") {|local:eq("a")|};
        key_agree nulls ~expect:(ok "") "local:eq(1)");
    case "an empty table never evaluates the key" (fun () ->
        let empty = key_builds [] in
        key_agree empty ~expect:(ok "") "local:path(1)";
        key_agree empty ~expect:(ok "") {|local:eq(("a", "b"))|};
        key_agree empty ~expect:(ok "") "local:eq(1)";
        let full = key_builds key_rows in
        key_agree full ~expect:(err "XPTY0020") "local:path(1)");
    case "a key that raises releases the opened version" (fun () ->
        let ((tbl, keyed, _) as b) = key_builds key_rows in
        key_agree b ~expect:(err "XPTY0020") "local:path(1)";
        ignore (outcome keyed "local:path(1)");
        (* a publish supersedes the version the failed reads opened; it
           is collected only if nothing still pins it *)
        R.Table.insert tbl [| R.Value.Int 9; Text "z"; Null |];
        check_int "live versions" 1 (R.Table.live_versions tbl));
  ]

(* View unfolding (DESIGN.md §10): getProfileById's filter over
   getProfile() becomes getProfile's FLWOR with the key as a where, and
   that where becomes a keyed CUSTOMER read. Without faults every read
   is byte-identical to the optimize = false and plans = false builds;
   only the selected customer's sources are read. *)
let by_id cid = Printf.sprintf {|profile:getProfileById("%s")|} cid

let customer_ids customers =
  "007" :: List.init customers (fun i -> Printf.sprintf "C%d" (i + 1))

(* the Figure 4 read's wire form, in each build: [Dataspace.get] is
   [Session.call] wrapped in a datagraph *)
let get_wire sess cid =
  match
    Xqse.Session.call sess
      (Xdm.Qname.make ~uri:FC.profile_ns "getProfileById")
      [ Xdm.Item.str cid ]
  with
  | v -> Ok (Sdo.serialize (Sdo.create (Xdm.Item.nodes_only v)))
  | exception Xdm.Item.Error { code; _ } -> Error (Xdm.Qname.to_string code)

(* [ws.calls] on the env's handle, which must be enabled *)
let ws_calls (e : FC.env) =
  counter (Aldsp.Dataspace.instr e.FC.ds) Instr.K.ws_calls

(* does the optimizer unfold a view in [src]'s query body? *)
let unfolds sess src =
  List.exists
    (fun l -> String.length l >= 13 && String.sub l 0 13 = "unfold_views:")
    (Xqse.Session.explain sess src).Xqse.Session.ex_log

let view_equivalence_tests =
  List.map
    (fun customers ->
      case
        (Printf.sprintf "getProfileById unfolds and agrees at %d customers"
           customers) (fun () ->
          let b = builds ~instr:(fresh_instr ()) customers in
          List.iter
            (fun cid ->
              let before = ws_calls b.env in
              ignore (agree b (by_id cid));
              agree_call b "getProfileById" [ Xdm.Item.str cid ];
              let keyed_get =
                match
                  Aldsp.Dataspace.get b.env.FC.ds b.env.FC.svc
                    ~meth:"getProfileById" [ Xdm.Item.str cid ]
                with
                | dg -> Ok (Sdo.serialize dg)
                | exception Xdm.Item.Error { code; _ } ->
                  Error (Xdm.Qname.to_string code)
              in
              agree_on ("Dataspace.get " ^ cid) ~keyed:keyed_get
                ~oracles:
                  [ ("optimize=false", get_wire b.no_opt cid);
                    ("plans=false", get_wire b.no_plans cid) ];
              (* eval, call and get, in the keyed and the plans=false
                 build (one dataspace): each reads only the selected
                 profile, so six reads make six calls, or none *)
              let own = if List.mem cid (customer_ids customers) then 1 else 0 in
              check_int ("web-service calls for " ^ cid) (6 * own)
                (ws_calls b.env - before))
            (customer_ids customers @ [ ""; "C999" ])))
    [ 0; 1; 5; 20 ]
  @ [
      case "the by-id read is one primary-key lookup of CUSTOMER" (fun () ->
          let instr = Instr.create () in
          Instr.preregister instr;
          Instr.enable instr;
          let e = FC.make ~customers:20 ~instr () in
          let sess = Aldsp.Dataspace.session e.FC.ds in
          (* rows examined beyond the card scan and the orders probe *)
          let customer_rows () =
            let before = counter instr Instr.K.rows_scanned in
            ignore (outcome sess (by_id "C7"));
            let all = counter instr Instr.K.rows_scanned - before in
            let cards = R.Table.row_count e.FC.credit_card in
            let orders =
              List.length
                (R.Table.select e.FC.orders (R.Pred.eq "CID" (R.Value.Text "C7")))
            in
            all - cards - orders
          in
          check_int "CUSTOMER rows examined" 1 (customer_rows ());
          let calls = ws_calls e in
          ignore (outcome sess "count(profile:getProfile())");
          check_int "getProfile still reads every customer" 21 (ws_calls e - calls));
      case "ad-hoc filters over getProfile unfold too" (fun () ->
          let b = builds 5 in
          List.iter
            (fun src ->
              ignore (agree b src);
              check_bool ("unfolds: " ^ src) true (unfolds b.keyed src))
            [ {|profile:getProfile()[CID eq "C3"]|};
              {|profile:getProfile()[LAST_NAME = "Carrey"]|};
              {|count(profile:getProfile()[CID ne "C3"])|} ]);
    ]

(* Views of our own over the fixture tables: an integer key column, and
   the nullable SSN column, whose NULL projects to "". *)
let view_prolog =
  {|declare function local:orders() { for $o in orders:ORDERS() return <O><OID>{fn:data($o/OID)}</OID><CID>{fn:data($o/CID)}</CID></O> };
declare function local:ssn() { for $c in customer:CUSTOMER() return <S><CID>{fn:data($c/CID)}</CID><SSN>{fn:data($c/SSN)}</SSN></S> };
|}

let view_agree ?expect b body =
  let src = view_prolog ^ body in
  let k = agree b src in
  check_bool ("unfolds: " ^ body) true (unfolds b.keyed src);
  match expect with
  | Some e when e <> k -> Alcotest.failf "%s: expected %s, got %s" body (show e) (show k)
  | _ -> ()

let view_edge_tests =
  [
    case "a view over an integer column" (fun () ->
        let b = builds 5 in
        view_agree b ~expect:(Error "err:XPTY0004") "local:orders()[OID eq 3]";
        view_agree b ~expect:(Ok "<O><OID>3</OID><CID>C1</CID></O>")
          "local:orders()[OID = 3]";
        view_agree b ~expect:(Ok "<O><OID>3</OID><CID>C1</CID></O>")
          {|local:orders()[OID eq "3"]|});
    case "a view over a nullable column selects the NULL row with \"\""
      (fun () ->
        let b = builds 5 in
        List.iter
          (fun (e : FC.env) ->
            R.Table.insert e.FC.customer
              [| R.Value.Text "N1"; Text "Nil"; Text "Nobody"; Null |])
          [ b.env; b.no_opt_env ];
        view_agree b ~expect:(Ok "<S><CID>N1</CID><SSN/></S>")
          {|local:ssn()[SSN eq ""]|};
        view_agree b ~expect:(Ok "<S><CID>007</CID><SSN>111-22-3333</SSN></S>")
          {|local:ssn()[SSN eq "111-22-3333"]|};
        view_agree b ~expect:(Ok "") {|local:ssn()[SSN eq "000"]|};
        view_agree b ~expect:(Ok "1") {|count(local:ssn()[CID = ("N1", "Q")])|});
  ]

(* The §2.3.4 contract under faults, with C3 selected among 5 customers.
   The optimize = false build reads every profile in CUSTOMER key order,
   one db2 and one web-service call each, so C3's own reads are its 4th;
   the unfolded builds read C3 alone, so they are their 1st. *)
let contract_tests =
  let customers = 5 and cid = "C3" in
  let rank = 4 in
  let sources =
    [ ("db2", fun (e : FC.env) -> R.Database.faults e.FC.db2);
      ("CreditRatingService", fun (e : FC.env) -> Webservice.faults e.FC.ws) ]
  in
  let keyed () =
    let e = FC.make ~customers () in
    (e, Aldsp.Dataspace.session e.FC.ds)
  and no_opt () =
    let e = FC.make ~customers ~optimize:false () in
    (e, Aldsp.Dataspace.session e.FC.ds)
  and no_plans () =
    let e = FC.make ~customers () in
    (e, no_plans (Aldsp.Dataspace.session e.FC.ds))
  in
  (* the by-id read with a transient on the [at]-th call to [source] *)
  let run (source, faults) ~degradable ~at make =
    let e, sess = make () in
    let ctl = Aldsp.Dataspace.resilience e.FC.ds in
    if degradable then Res.Control.set_degradable ctl ~source;
    (match at with
    | Some k ->
      let f = faults e in
      Res.Faults.set_schedule f
        { (Res.Plan.empty ~source) with Res.Plan.s_transients = [ Res.Faults.calls f + k ] }
    | None -> ());
    let r = outcome sess (by_id cid) in
    ( r,
      List.map
        (fun (d : Res.Control.degradation) -> (d.Res.Control.dg_source, d.Res.Control.dg_code))
        (Res.Control.degradations ctl) )
  in
  List.concat_map
    (fun ((name, _) as source) ->
      List.map
        (fun degradable ->
          case
            (Printf.sprintf "%s faults on %s: own read %s alike, others vanish" name cid
               (if degradable then "degrades" else "fails"))
            (fun () ->
              let clean = run source ~degradable ~at:None keyed in
              (* the selected customer's own read *)
              let own = run source ~degradable ~at:(Some 1) keyed in
              List.iter
                (fun (oracle, make, at) ->
                  if run source ~degradable ~at:(Some at) make <> own then
                    Alcotest.failf "own-read fault: keyed and %s disagree" oracle)
                [ ("optimize=false", no_opt, rank); ("plans=false", no_plans, 1) ];
              if degradable then check_int "one degradation" 1 (List.length (snd own))
              else
                check_bool "the read failed" true
                  (match fst own with Error _ -> true | Ok _ -> false);
              (* another customer's read, 2nd in key order: the reference
                 fails or degrades, the unfolded builds never make it *)
              let other = run source ~degradable ~at:(Some 2) no_opt in
              check_bool "the reference sees the other customer's fault" true
                (other <> clean);
              List.iter
                (fun (oracle, make) ->
                  if run source ~degradable ~at:(Some 2) make <> clean then
                    Alcotest.failf "other-read fault surfaced in the %s build" oracle)
                [ ("keyed", keyed); ("plans=false", no_plans) ]))
        [ false; true ])
    sources

let suites =
  [
    ("keyed.equivalence", equivalence_tests);
    ("keyed.faults", fault_tests);
    ("keyed.edges", edge_tests);
    ("keyed.views", view_equivalence_tests @ view_edge_tests);
    ("keyed.view-faults", contract_tests);
  ]
