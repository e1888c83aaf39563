(* The experiment report: one section per experiment in DESIGN.md
   section 4, regenerating the paper's reproducible artifacts (Figures 3-4
   and use cases 1-4 carry no measured numbers in the paper, so the report
   prints the qualitative rows - who wins, what SQL is generated, where
   behavior crosses over - next to the numbers it measures).

   Run with:  dune exec bench/main.exe -- report                         *)

open Core
open Core.Xdm
module R = Relational
module FC = Fixtures.Customer_profile
module FE = Fixtures.Employees

let uc local = Qname.make ~uri:FE.usecases_ns local

(* ------------------------------------------------------------------ *)
(* Shared workload setups (built once, reused across report sections)  *)
(* ------------------------------------------------------------------ *)

let profile_env_small = lazy (FC.make ~customers:10 ())

let employees_chain =
  lazy
    (let env = FE.make ~employees:32 ~fanout:1 () in
     let sess = Aldsp.Dataspace.session env.FE.ds in
     Xqse.Session.load_library sess FE.uc2_chain_source;
     (* the expression-oriented (recursive XQuery) baseline of DESIGN.md
        ablation 2 *)
     Xqse.Session.load_library sess
       {|
declare namespace ens1 = "urn:employees";
declare namespace uc = "urn:usecases";
declare function uc:chainRec($id as xs:integer?) as element(ens1:Employee)* {
  for $e in ens1:getByEmployeeID($id)
  return ($e,
    if (fn:string($e/ManagerID) eq '') then ()
    else uc:chainRec(xs:integer($e/ManagerID)))
};
|};
     env)

let employees_etl = lazy (
  let env = FE.make ~employees:50 () in
  Xqse.Session.load_library (Aldsp.Dataspace.session env.FE.ds) FE.uc3_etl_source;
  env)

let employees_repl = lazy (
  let env = FE.make ~employees:5 () in
  FE.load_all_use_cases env;
  env)

let getprofile env =
  Aldsp.Dataspace.call env.FC.ds
    (Qname.make ~uri:FC.profile_ns "getProfile")
    []

let submit_rename ?(policy = Aldsp.Occ.Updated_values) env cid name =
  let dg = FC.get_profile_by_id env cid in
  Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] name;
  Aldsp.Dataspace.submit env.FC.ds env.FC.svc ~policy dg

(* a join workload for the optimizer ablation (Figure-3-shaped
   cross-database equi-join), compiled once with and once without the
   optimizer over the same dataspace: the unoptimized compile runs in an
   otherwise identically-configured fork of the dataspace's session *)
let join_query =
  "for $c in customer:CUSTOMER() for $cc in credit_card:CREDIT_CARD() \
   where $c/CID eq $cc/CID return <hit>{fn:data($cc/CCID)}</hit>"

let unoptimized sess =
  Xqse.Session.with_config sess
    { (Xqse.Session.config sess) with optimize = false }

let join_sessions n =
  let env = FC.make ~customers:n ~max_cards:2 () in
  let sess = Aldsp.Dataspace.session env.FC.ds in
  (Xqse.Session.compile sess join_query,
   Xqse.Session.compile (unoptimized sess) join_query)

(* XQSE statement-dispatch overhead: a tight while loop vs the
   equivalent declarative expressions *)
let xqse_loop_src =
  {| {
        declare $sum := 0, $i := 1;
        while ($i le 1000) {
          set $sum := $sum + $i;
          set $i := $i + 1;
        }
        return value $sum;
      } |}

let xquery_sum_src = "sum(1 to 1000)"

let dispatch_session = lazy (
  let sess = Xqse.Session.create () in
  let xqse_loop = Xqse.Session.compile sess xqse_loop_src in
  let xquery_sum = Xqse.Session.compile sess xquery_sum_src in
  let xquery_flwor = Xqse.Session.compile sess
      "sum(for $i in 1 to 1000 return $i)" in
  (sess, xqse_loop, xquery_sum, xquery_flwor))

(* XUF snapshot sweep: one update statement replacing N values *)
let snapshot_program n =
  Printf.sprintf
    {|declare variable $doc := <doc>{for $i in 1 to %d return <v>0</v>}</doc>;
{
  for $v in $doc/v return replace value of node $v with 1;
  return value count($doc/v[. eq '1']);
}|}
    n

(* ------------------------------------------------------------------ *)
(* Timing helper for the report (median of repeated wall-clock runs)   *)
(* ------------------------------------------------------------------ *)

let time_ms ?(repeat = 5) f =
  let times =
    List.init repeat (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (f ());
        (Unix.gettimeofday () -. t0) *. 1000.)
  in
  let sorted = List.sort compare times in
  List.nth sorted (repeat / 2)

(* ------------------------------------------------------------------ *)
(* The experiment report                                                *)
(* ------------------------------------------------------------------ *)

let section title =
  Printf.printf "\n================ %s ================\n" title

(* machine-readable companion to the printed report: named metrics
   recorded as the sections run, written as BENCH_report.json *)
let metrics : (string * float) list ref = ref []
let record name v = metrics := (name, v) :: !metrics

let json_escape s =
  String.concat ""
    (List.map
       (function
         | '"' -> "\\\"" | '\\' -> "\\\\" | '\n' -> "\\n" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let write_json_report counters =
  let oc = open_out "BENCH_report.json" in
  let entry fmt (n, v) = Printf.sprintf ("    \"%s\": " ^^ fmt) (json_escape n) v in
  Printf.fprintf oc "{\n  \"schema\": \"xqse-bench-report/1\",\n";
  Printf.fprintf oc "  \"metrics\": {\n%s\n  },\n"
    (String.concat ",\n" (List.map (entry "%.3f") (List.rev !metrics)));
  Printf.fprintf oc "  \"counters\": {\n%s\n  }\n}\n"
    (String.concat ",\n" (List.map (entry "%d") counters));
  close_out oc;
  Printf.printf "\nwrote BENCH_report.json (%d metrics, %d counters)\n"
    (List.length !metrics) (List.length counters)

(* the instrumented Figure 3/4 workload whose counters go into the JSON
   report: one full read plus one submit, on a session-wide handle *)
let instrumented_counters () =
  let instr = Instr.create () in
  Instr.preregister instr;
  Instr.enable instr;
  let env = FC.make ~customers:10 ~instr () in
  ignore (getprofile env);
  ignore
    (Xqse.Session.eval
       (Aldsp.Dataspace.session env.FC.ds)
       "{ declare $n := count(profile:getProfile()); return value $n; }");
  ignore (submit_rename env "007" "Carey");
  (Instr.stats instr).Instr.counters

let report () =
  Printf.printf "XQSE/ALDSP reproduction - experiment report\n";
  Printf.printf "(paper: ICDE 2008, Borkar et al.; see EXPERIMENTS.md)\n";

  section "F3-read: Figure 3 getProfile() scaling";
  Printf.printf "%-12s %-10s %-10s %-14s %-14s %-12s\n" "customers" "profiles"
    "ws calls" "rows scanned" "rows fetched" "median ms";
  List.iter
    (fun n ->
      let instr = Instr.create () in
      Instr.preregister instr;
      let env = FC.make ~customers:n ~instr () in
      let ms = time_ms (fun () -> getprofile env) in
      record (Printf.sprintf "f3.getProfile.N=%d.ms" n) ms;
      (* one more call, counted: web-service calls, rows examined vs
         rows returned *)
      Instr.enable instr;
      ignore (getprofile env);
      let c k =
        Option.value ~default:0
          (List.assoc_opt k (Instr.stats instr).Instr.counters)
      in
      record (Printf.sprintf "f3.getProfile.N=%d.rows_scanned" n)
        (float_of_int (c Instr.K.rows_scanned));
      record (Printf.sprintf "f3.getProfile.N=%d.rows_fetched" n)
        (float_of_int (c Instr.K.rows_fetched));
      Printf.printf "%-12d %-10d %-10d %-14d %-14d %-12.2f\n" n (n + 1)
        (c Instr.K.ws_calls)
        (c Instr.K.rows_scanned) (c Instr.K.rows_fetched) ms)
    [ 10; 50; 200 ];

  section "F3-byid: getProfileById - optimizer on vs off";
  Printf.printf "%-12s %-10s %-10s %-14s %-14s %-12s\n" "customers" "optimizer"
    "ws calls" "rows scanned" "rows fetched" "median ms";
  List.iter
    (fun n ->
      let run optimize =
        let instr = Instr.create () in
        Instr.preregister instr;
        let env = FC.make ~customers:n ~optimize ~instr () in
        let ms = time_ms (fun () -> FC.get_profile_by_id env "C1") in
        (* one more read, counted *)
        Instr.enable instr;
        ignore (FC.get_profile_by_id env "C1");
        let c k =
          Option.value ~default:0
            (List.assoc_opt k (Instr.stats instr).Instr.counters)
        in
        let label = if optimize then "on" else "off" in
        List.iter
          (fun (what, v) ->
            record (Printf.sprintf "f3.byid.N=%d.%s.%s" n label what) v)
          [ ("ms", ms);
            ("ws_calls", float_of_int (c Instr.K.ws_calls));
            ("rows_scanned", float_of_int (c Instr.K.rows_scanned));
            ("rows_fetched", float_of_int (c Instr.K.rows_fetched)) ];
        Printf.printf "%-12d %-10s %-10d %-14d %-14d %-12.2f\n" n label
          (c Instr.K.ws_calls) (c Instr.K.rows_scanned)
          (c Instr.K.rows_fetched) ms;
        ms
      in
      let t_on = run true in
      let t_off = run false in
      record (Printf.sprintf "f3.byid.N=%d.optimizer_ratio" n) (t_off /. t_on))
    [ 10; 50 ];

  section "F4-sdo: the Figure 4 disconnected update";
  let env = Lazy.force profile_env_small in
  let dg = FC.get_profile_by_id env "007" in
  Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey";
  Printf.printf "datagraph wire form (change summary):\n  %s\n"
    (Sdo.serialize dg);
  let r = Aldsp.Dataspace.submit env.FC.ds env.FC.svc ~policy:Aldsp.Occ.Read_values dg in
  Printf.printf "decomposed statements (%d, committed=%b):\n"
    r.Aldsp.Dataspace.sr_statements r.Aldsp.Dataspace.sr_committed;
  List.iter (fun s -> Printf.printf "  %s\n" s) r.Aldsp.Dataspace.sr_sql;
  ignore (submit_rename env "007" "Carrey");

  section "ALLOC: minor words per request on the Figure 3/4 paths";
  (* one domain, after warm-up; deterministic for a given build, and
     bounded by the tier-1 alloc.read-path gate *)
  let module A = Fixtures.Alloc_probe in
  let a = A.measure () in
  Printf.printf "%-56s %10s\n" "request" "words";
  List.iter
    (fun (label, key, w) ->
      Printf.printf "%-56s %10d\n" label w;
      record ("alloc." ^ key ^ ".words") (float_of_int w))
    [
      ( Printf.sprintf "by-id read of %s (%d customers)" A.by_id_customer
          A.read_customers,
        "by_id",
        a.A.by_id );
      ( Printf.sprintf "by-id read of %s, serialized (%d customers)"
          A.by_id_customer A.read_customers,
        "by_id_serialized",
        a.A.by_id_serialized );
      ( Printf.sprintf "count(profile:getProfile()) (%d customers)"
          A.read_customers,
        "get_profile",
        a.A.get_profile );
      ( Printf.sprintf "count(customer:getORDERS($c) per row) (%d customers)"
          A.read_customers,
        "nav",
        a.A.nav );
      ( Printf.sprintf "Figure 4 get/change/submit of %s (%d customers, cache)"
          A.cycle_customer A.cycle_customers,
        "cycle",
        a.A.cycle );
      ( Printf.sprintf "Sdo.parse (Sdo.serialize dg) of that cycle's datagraph",
        "wire",
        a.A.wire );
    ];

  section "OCC: optimistic concurrency policies";
  Printf.printf "%-18s %-28s %-10s\n" "policy" "concurrent writer touched" "outcome";
  List.iter
    (fun (policy, touched_col) ->
      let env = FC.make ~customers:2 () in
      let dg = FC.get_profile_by_id env "007" in
      Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey";
      ignore
        (R.Database.exec env.FC.db1
           (R.Database.Update
              { table = "CUSTOMER";
                set = [ (touched_col, R.Value.Text "intruder") ];
                where = R.Pred.eq "CID" (R.Value.Text "007") }));
      let r = Aldsp.Dataspace.submit env.FC.ds env.FC.svc ~policy dg in
      Printf.printf "%-18s %-28s %-10s\n"
        (Aldsp.Occ.to_string policy)
        touched_col
        (if r.Aldsp.Dataspace.sr_committed then "committed" else "conflict"))
    [
      (Aldsp.Occ.Read_values, "FIRST_NAME");
      (Aldsp.Occ.Updated_values, "FIRST_NAME");
      (Aldsp.Occ.Updated_values, "LAST_NAME");
      (Aldsp.Occ.Chosen [ "CID" ], "FIRST_NAME");
    ];

  section "XA: two-phase commit across db1 and db2";
  let env = FC.make ~customers:2 () in
  let dg = FC.get_profile_by_id env "007" in
  Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey";
  Sdo.set_leaf dg 1 (Sdo.path_of_string "CreditCards/CREDIT_CARD[1]/BRAND") "AMEX";
  Resilience.Faults.set_fail_on_prepare (R.Database.faults env.FC.db2) true;
  let r = Aldsp.Dataspace.submit env.FC.ds env.FC.svc dg in
  Printf.printf "prepare failure in db2 -> committed=%b (%s)\n"
    r.Aldsp.Dataspace.sr_committed
    (Option.value ~default:"-" r.Aldsp.Dataspace.sr_reason);
  let row = Option.get (R.Table.find_pk env.FC.customer [ R.Value.Text "007" ]) in
  Printf.printf "db1 rolled back -> LAST_NAME still %s\n"
    (R.Value.to_string (R.Table.get row env.FC.customer "LAST_NAME"));

  section "UC1: user-defined delete (XQSE over generated methods)";
  let env1 = FE.make ~employees:8 () in
  Xqse.Session.load_library (Aldsp.Dataspace.session env1.FE.ds) FE.uc1_delete_source;
  ignore (Aldsp.Dataspace.call env1.FE.ds (uc "deleteByEmployeeID") [ Item.int 8 ]);
  Printf.printf "deleteByEmployeeID(8): EMPLOYEE rows 8 -> %d; last SQL: %s\n"
    (R.Table.row_count env1.FE.employee)
    (List.nth (R.Database.sql_log env1.FE.hr)
       (R.Database.log_size env1.FE.hr - 1));

  section "UC2: management chain - procedural vs recursive-declarative";
  let env2 = Lazy.force employees_chain in
  let chain_len =
    List.length
      (Aldsp.Dataspace.call env2.FE.ds (uc "getManagementChain") [ Item.int 32 ])
  in
  let t_xqse =
    time_ms (fun () ->
        Aldsp.Dataspace.call env2.FE.ds (uc "getManagementChain") [ Item.int 32 ])
  in
  let t_rec =
    time_ms (fun () ->
        Aldsp.Dataspace.call env2.FE.ds (uc "chainRec") [ Item.int 32 ])
  in
  record "uc2.chain.xqse_while.ms" t_xqse;
  record "uc2.chain.recursive.ms" t_rec;
  Printf.printf "chain depth %d: XQSE while-loop %.2f ms, recursive XQuery %.2f ms (ratio %.2f)\n"
    chain_len t_xqse t_rec (t_xqse /. t_rec);

  section "UC3: lightweight ETL (iterate + transform + insert)";
  let env3 = Lazy.force employees_etl in
  let t_etl =
    time_ms ~repeat:3 (fun () ->
        R.Table.clear env3.FE.emp2;
        Aldsp.Dataspace.call env3.FE.ds (uc "copyAllToEMP2") [])
  in
  Printf.printf "copied %d employees in %.2f ms (%d INSERTs logged in backup)\n"
    (R.Table.row_count env3.FE.emp2)
    t_etl
    (List.length
       (List.filter
          (fun s -> String.length s > 6 && String.sub s 0 6 = "INSERT")
          (R.Database.sql_log env3.FE.backup)));

  section "UC4: replicating create under injected faults";
  let env4 = Lazy.force employees_repl in
  let next_id = ref 1000 in
  let attempt () =
    incr next_id;
    let emp =
      List.hd
        (Xml_parse.parse_fragment
           (Printf.sprintf
              {|<e:Employee xmlns:e="urn:employees"><EmployeeID>%d</EmployeeID><Name>B M</Name><DeptNo>10</DeptNo><ManagerID>1</ManagerID><Salary>1</Salary></e:Employee>|}
              !next_id))
    in
    match Aldsp.Dataspace.call env4.FE.ds (uc "create") [ [ Item.Node emp ] ] with
    | _ -> `Ok
    | exception Item.Error { code; _ } -> `Failed code.Qname.local
  in
  List.iter
    (fun rate ->
      Resilience.Faults.set_fail_after (R.Database.faults env4.FE.backup) None;
      let failures = ref 0 and oks = ref 0 and secondary = ref 0 in
      for i = 1 to 20 do
        (if rate > 0 && i mod rate = 0 then
           Resilience.Faults.set_fail_after
             (R.Database.faults env4.FE.backup)
             (Some 0));
        (match attempt () with
        | `Ok -> incr oks
        | `Failed "SECONDARY_CREATE_FAILURE" -> incr failures; incr secondary
        | `Failed _ -> incr failures)
      done;
      Printf.printf
        "backup fault every %-2s: %2d ok, %2d failed (all wrapped as SECONDARY: %b)\n"
        (if rate = 0 then "-" else string_of_int rate)
        !oks !failures
        (!failures = !secondary))
    [ 0; 4 ];

  section "OPT: optimizer ablation on the Figure-3-shaped join";
  Printf.printf "%-8s %-16s %-18s %-10s\n" "rows" "hash join (ms)" "nested loop (ms)" "speedup";
  List.iter
    (fun n ->
      let compiled_on, compiled_off = join_sessions n in
      let t_on = time_ms ~repeat:3 (fun () -> Xqse.Session.run compiled_on) in
      let t_off = time_ms ~repeat:3 (fun () -> Xqse.Session.run compiled_off) in
      record (Printf.sprintf "opt.join.N=%d.speedup" n) (t_off /. t_on);
      Printf.printf "%-8d %-16.2f %-18.2f %-10.2f\n" n t_on t_off (t_off /. t_on))
    [ 25; 100; 200 ];

  (* per-pass optimizer cost, and the work the rewrites remove: the same
     join compiled and run on an instrumented session, optimizer on vs
     off — the hash join scans the inner table once instead of once per
     outer row, which the rows.* counters make visible *)
  let opt_join_stats optimize =
    let instr = Instr.create () in
    Instr.preregister instr;
    Instr.enable instr;
    let env = FC.make ~customers:100 ~max_cards:2 ~instr () in
    let sess = Aldsp.Dataspace.session env.FC.ds in
    let sess = if optimize then sess else unoptimized sess in
    ignore (Xqse.Session.eval sess join_query);
    Instr.stats instr
  in
  let stats_on = opt_join_stats true and stats_off = opt_join_stats false in
  let counter st n = try List.assoc n st.Instr.counters with Not_found -> 0 in
  Printf.printf "\nper-pass optimizer time (N=100, optimizer on):\n";
  List.iter
    (fun name ->
      match List.assoc_opt name stats_on.Instr.timers with
      | Some ms ->
        record (Printf.sprintf "opt.join.pass.%s.ms" name) ms;
        Printf.printf "  %-24s %8.3f ms\n" name ms
      | None -> ())
    [
      "optimizer.fold"; "optimizer.normalize"; "optimizer.inline";
      "optimizer.join"; "optimizer.push";
    ];
  Printf.printf "rows scanned: %d optimized vs %d unoptimized\n"
    (counter stats_on "rows.scanned")
    (counter stats_off "rows.scanned");
  Printf.printf "rows fetched: %d optimized vs %d unoptimized\n"
    (counter stats_on "rows.fetched")
    (counter stats_off "rows.fetched");
  List.iter
    (fun (name, v) -> record name (float_of_int v))
    [
      ("opt.join.rows_scanned.on", counter stats_on "rows.scanned");
      ("opt.join.rows_scanned.off", counter stats_off "rows.scanned");
      ("opt.join.rows_fetched.on", counter stats_on "rows.fetched");
      ("opt.join.rows_fetched.off", counter stats_off "rows.fetched");
    ];

  section "IDX: foreign-key index ablation on navigation functions";
  Printf.printf "%-8s %-18s %-18s %-10s\n" "orders" "indexed (ms)" "unindexed (ms)" "speedup";
  List.iter
    (fun n ->
      let env = FC.make ~customers:n ~max_orders:4 () in
      let nav () =
        Xqse.Session.eval
          (Aldsp.Dataspace.session env.FC.ds)
          "count(for $c in customer:CUSTOMER() return customer:getORDERS($c))"
      in
      let t_indexed = time_ms ~repeat:3 nav in
      R.Table.drop_indexes env.FC.orders;
      let t_scan = time_ms ~repeat:3 nav in
      R.Table.create_index env.FC.orders [ "CID" ];
      Printf.printf "%-8d %-18.2f %-18.2f %-10.2f\n"
        (R.Table.row_count env.FC.orders)
        t_indexed t_scan (t_scan /. t_indexed))
    [ 50; 200 ];

  section "OVH: XQSE statement dispatch vs declarative evaluation";
  let sess_d, xqse_loop, xquery_sum, xquery_flwor =
    Lazy.force dispatch_session
  in
  let t_loop = time_ms (fun () -> Xqse.Session.run xqse_loop) in
  let t_sum = time_ms (fun () -> Xqse.Session.run xquery_sum) in
  let t_flwor = time_ms (fun () -> Xqse.Session.run xquery_flwor) in
  Printf.printf
    "sum of 1..1000: XQSE while %.3f ms, fn:sum %.3f ms, FLWOR sum %.3f ms\n"
    t_loop t_sum t_flwor;
  record "ovh.dispatch_vs_sum.ratio" (t_loop /. t_sum);
  record "ovh.dispatch_vs_flwor.ratio" (t_loop /. t_flwor);
  Printf.printf "statement overhead vs fn:sum: %.1fx; vs FLWOR: %.1fx\n"
    (t_loop /. t_sum) (t_loop /. t_flwor);

  section "PLAN: closure-compiled plans and the session plan cache";
  (* the same while-loop/fn:sum pair compiled in a plans-off fork: the
     gap between the two ratios is the interpreter tax the closure
     compiler removes *)
  let sess_off =
    Xqse.Session.with_config sess_d
      { (Xqse.Session.config sess_d) with plans = false }
  in
  let xqse_loop_off = Xqse.Session.compile sess_off xqse_loop_src in
  let xquery_sum_off = Xqse.Session.compile sess_off xquery_sum_src in
  let t_loop_off = time_ms (fun () -> Xqse.Session.run xqse_loop_off) in
  let t_sum_off = time_ms (fun () -> Xqse.Session.run xquery_sum_off) in
  record "plan.dispatch_vs_sum.interpreted.ratio" (t_loop_off /. t_sum_off);
  Printf.printf
    "dispatch ratio (XQSE while / fn:sum): compiled %.1fx, interpreted %.1fx\n"
    (t_loop /. t_sum) (t_loop_off /. t_sum_off);
  (* cold = fresh session (parse + compile + run); warm = the same text
     served from the session plan cache, compile span skipped *)
  let plan_query = "sum(for $i in 1 to 500 return $i * 2)" in
  let t_cold =
    time_ms (fun () ->
        let sess = Xqse.Session.create () in
        Xqse.Session.eval sess plan_query)
  in
  let i = Instr.create () in
  Instr.enable i;
  let sess_w =
    Xqse.Session.create ~config:{ Xqse.Session.default_config with instr = i } ()
  in
  ignore (Xqse.Session.eval sess_w plan_query);
  let before = Instr.stats i in
  let t_warm = time_ms (fun () -> Xqse.Session.eval sess_w plan_query) in
  let delta = Instr.since i before in
  let counter name =
    match List.assoc_opt name delta.Instr.counters with
    | Some n -> n
    | None -> 0
  in
  let compile_span_ms =
    List.fold_left
      (fun acc (name, ms) -> if name = "compile" then acc +. ms else acc)
      0. delta.Instr.timers
  in
  Printf.printf
    "eval %s: cold %.3f ms, warm %.3f ms (%.1fx); warm runs: %d cache \
     hits, %d misses, %.3f ms in compile span\n"
    plan_query t_cold t_warm
    (t_cold /. t_warm)
    (counter "plan.cache.hit")
    (counter "plan.cache.miss")
    compile_span_ms;
  record "plan.cold_eval.ms" t_cold;
  record "plan.warm_eval.ms" t_warm;
  record "plan.warm_speedup" (t_cold /. t_warm);
  record "plan.warm.compile_span.ms" compile_span_ms;

  section "XUF: snapshot size sweep (one update statement, N replaces)";
  List.iter
    (fun n ->
      let sess = Xqse.Session.create () in
      let compiled = Xqse.Session.compile sess (snapshot_program n) in
      let t = time_ms ~repeat:3 (fun () -> Xqse.Session.run compiled) in
      record (Printf.sprintf "xuf.snapshot.N=%d.ms" n) t;
      Printf.printf "N=%-5d  %.2f ms per snapshot\n" n t)
    [ 1; 10; 100; 1000 ];

  section "RESIL: seeded chaos storms over read+submit (virtual clock)";
  (* 50 seeded 8-round storms per profile — all deterministic, so these
     rows are reproducible artifacts, not samples *)
  Printf.printf "%-8s %-10s %-7s %-7s %-8s %-6s %-9s %-9s\n" "profile"
    "committed" "failed" "reads!" "retries" "trips" "degraded" "injected";
  List.iter
    (fun profile ->
      let name = Resilience.Plan.profile_to_string profile in
      let committed = ref 0 and failed = ref 0 and reads = ref 0 in
      let retries = ref 0 and trips = ref 0 in
      let degraded = ref 0 and injected = ref 0 in
      for seed = 1 to 50 do
        let r = Fixtures.Chaos.run ~seed ~profile () in
        assert (r.Fixtures.Chaos.r_violations = []);
        committed := !committed + r.Fixtures.Chaos.r_committed;
        failed := !failed + r.r_failed;
        reads := !reads + r.r_read_failures;
        retries := !retries + r.r_retries;
        trips := !trips + r.r_trips;
        degraded := !degraded + r.r_degraded;
        injected := !injected + r.r_injected
      done;
      Printf.printf "%-8s %-10d %-7d %-7d %-8d %-6d %-9d %-9d\n" name
        !committed !failed !reads !retries !trips !degraded !injected;
      record (Printf.sprintf "resil.%s.committed" name) (float_of_int !committed);
      record (Printf.sprintf "resil.%s.retries" name) (float_of_int !retries);
      record (Printf.sprintf "resil.%s.degraded" name) (float_of_int !degraded);
      record
        (Printf.sprintf "resil.%s.degraded_read_rate" name)
        (float_of_int !degraded /. float_of_int (50 * 8)))
    [ Resilience.Plan.Calm; Resilience.Plan.Light; Resilience.Plan.Heavy ];
  let t_storm =
    time_ms ~repeat:3 (fun () ->
        ignore (Fixtures.Chaos.run ~seed:7 ~profile:Resilience.Plan.Heavy ()))
  in
  Printf.printf "one heavy 8-round storm: %.2f ms wall\n" t_storm;
  record "resil.storm.heavy.ms" t_storm;

  section "STREAM: cursor pipeline vs the eager walker";
  (* two headline shapes over a 5000-row scan, each run through the
     compiled plans' cursor pipeline and through a plans-off fork's
     eager reference walker: an early-exiting declarative consumer
     (fn:head) and an XQSE iterate that breaks after its first binding.
     Streaming should hold materialized items near zero while the
     walker pays for the whole table *)
  let stream_rows = 5000 in
  Printf.printf "%-14s %-12s %9s %8s %13s %8s\n" "shape" "mode" "ms" "pulled"
    "materialized" "scanned";
  List.iter
    (fun (shape, src) ->
      List.iter
        (fun plans ->
          let instr = Instr.create () in
          Instr.enable instr;
          let env = FE.make ~employees:stream_rows ~instr () in
          let ds_sess = Aldsp.Dataspace.session env.FE.ds in
          let sess =
            Xqse.Session.with_config ds_sess
              { (Xqse.Session.config ds_sess) with plans }
          in
          let compiled = Xqse.Session.compile sess src in
          let t = time_ms (fun () -> Xqse.Session.run compiled) in
          let before = Instr.stats instr in
          ignore (Xqse.Session.run compiled);
          let d = Instr.since instr before in
          let c k =
            match List.assoc_opt k d.Instr.counters with
            | Some n -> n
            | None -> 0
          in
          let mode = if plans then "streaming" else "walker" in
          Printf.printf "%-14s %-12s %9.3f %8d %13d %8d\n" shape mode t
            (c Instr.K.stream_pulled)
            (c Instr.K.stream_materialized)
            (c Instr.K.rows_scanned);
          record (Printf.sprintf "stream.%s.%s.ms" shape mode) t;
          record
            (Printf.sprintf "stream.%s.%s.materialized" shape mode)
            (float_of_int (c Instr.K.stream_materialized)))
        [ true; false ])
    [
      ("head-of-scan", "fn:head(employee:EMPLOYEE())/EMP_ID/text()");
      ( "iterate-break",
        "{ declare $n := 0; iterate $e over employee:EMPLOYEE() { set $n := \
         $n + 1; break(); } return value $n; }" );
    ];

  section "SERVE: concurrent query server, 1 -> 4 worker domains";
  (* the same seeded 200-job mix (reads : scripts : submits = 6:3:1)
     drained by 1, 2 and 4 worker domains. Each job carries a 2 ms
     simulated source round-trip — the wire latency remote ALDSP
     sources would add — so the workload is latency-bound and extra
     workers genuinely overlap I/O even on a small machine *)
  Printf.printf "cores available: %d\n"
    (Domain.recommended_domain_count ());
  Printf.printf "%-8s %8s %9s %9s %9s %9s %6s\n" "workers" "qps" "p50ms"
    "p95ms" "p99ms" "wallms" "errors";
  List.iter
    (fun workers ->
      let env = FC.make ~customers:5 () in
      let session = Aldsp.Dataspace.session env.FC.ds in
      let jobs =
        Server.Workload.jobs ~io_ms:2. ~customers:5 ~seed:42 ~count:200 env
      in
      let rp = Server.Pool.run ~workers ~session jobs in
      let open Server.Pool in
      Printf.printf "%-8d %8.0f %9.2f %9.2f %9.2f %9.1f %6d\n" workers
        rp.r_qps rp.r_latency.l_p50 rp.r_latency.l_p95 rp.r_latency.l_p99
        rp.r_wall_ms
        (rp.r_jobs - rp.r_ok);
      assert (rp.r_ok = rp.r_jobs);
      let m name v = record (Printf.sprintf "serve.workers=%d.%s" workers name) v in
      m "qps" rp.r_qps;
      m "p50_ms" rp.r_latency.l_p50;
      m "p95_ms" rp.r_latency.l_p95;
      m "p99_ms" rp.r_latency.l_p99)
    [ 1; 2; 4 ];

  (* the closed-loop table above reports pure service time; a pool
     slowly falling behind a fixed arrival rate looks identical there.
     Sustain an open-loop rate and report the latency trajectory —
     queueing delay counts, window by window *)
  Printf.printf "\nopen loop: 300 jobs at 400/s, 4 workers, 2 ms source RTT\n";
  Printf.printf "%-10s %6s %9s %9s %9s\n" "window" "jobs" "p50ms" "p95ms"
    "p99ms";
  let env = FC.make ~customers:5 () in
  let session = Aldsp.Dataspace.session env.FC.ds in
  let jobs =
    Server.Workload.jobs ~io_ms:2. ~rate:400. ~customers:5 ~seed:43 ~count:300
      env
  in
  let rp = Server.Pool.run ~workers:4 ~window_ms:250. ~session jobs in
  let open Server.Pool in
  assert (rp.r_ok = rp.r_jobs);
  List.iter
    (fun w ->
      Printf.printf "+%-9.0f %6d %9.2f %9.2f %9.2f\n" w.w_from_ms w.w_jobs
        w.w_latency.l_p50 w.w_latency.l_p95 w.w_latency.l_p99;
      let m name v =
        record
          (Printf.sprintf "serve.openloop.t=%.0fms.%s" w.w_from_ms name)
          v
      in
      m "p50_ms" w.w_latency.l_p50;
      m "p95_ms" w.w_latency.l_p95;
      m "p99_ms" w.w_latency.l_p99)
    rp.r_trajectory;
  record "serve.openloop.qps" rp.r_qps;

  (* mixed read/write: the MVCC acceptance gate. A background writer
     stream with 40 ms of write-side wire time runs alongside cheap
     reads; under the retired pool-wide lock every reader queued behind
     the submit in flight, dragging read p99 up to submit latency.
     With versioned tables readers run against pinned snapshots and the
     submit's per-table locks never touch them: reader p99 with the
     writer streaming must stay within 2x of the read-only baseline. *)
  Printf.printf "\nmixed: 4 workers, reads at 1 ms RTT, submits at 40 ms RTT\n";
  let read_p99 rp =
    match List.assoc_opt "read" rp.r_kind_latency with
    | Some l -> l.l_p99
    | None -> rp.r_accepted_latency.l_p99
  in
  let baseline_p99 =
    let env = FC.make ~customers:5 () in
    let session = Aldsp.Dataspace.session env.FC.ds in
    let jobs =
      Server.Workload.jobs
        ~mix:{ Server.Workload.m_reads = 1; m_scripts = 0; m_submits = 0 }
        ~io_ms:1. ~customers:5 ~seed:45 ~count:160 env
    in
    let rp = Server.Pool.run ~workers:4 ~session jobs in
    assert (rp.r_ok = rp.r_jobs);
    rp.r_latency.l_p99
  in
  let mixed =
    let env = FC.make ~customers:5 () in
    let session = Aldsp.Dataspace.session env.FC.ds in
    let jobs =
      Server.Workload.jobs
        ~mix:{ Server.Workload.m_reads = 8; m_scripts = 0; m_submits = 2 }
        ~io_ms:1. ~submit_io_ms:40. ~customers:5 ~seed:45 ~count:160 env
    in
    let rp = Server.Pool.run ~workers:4 ~session jobs in
    assert (rp.r_ok = rp.r_jobs);
    rp
  in
  let mixed_read_p99 = read_p99 mixed in
  let mixed_submit_p99 =
    match List.assoc_opt "submit" mixed.r_kind_latency with
    | Some l -> l.l_p99
    | None -> 0.
  in
  Printf.printf "%-28s %9.2f ms\n" "read-only p99" baseline_p99;
  Printf.printf "%-28s %9.2f ms\n" "read p99 with writer" mixed_read_p99;
  Printf.printf "%-28s %9.2f ms\n" "submit p99" mixed_submit_p99;
  Printf.printf "%-28s %9.2fx (gate: <= 2x)\n" "reader inflation"
    (if baseline_p99 > 0. then mixed_read_p99 /. baseline_p99 else 0.);
  record "serve.mixed.readonly.read_p99_ms" baseline_p99;
  record "serve.mixed.withwriter.read_p99_ms" mixed_read_p99;
  record "serve.mixed.withwriter.submit_p99_ms" mixed_submit_p99;

  section "OVERLOAD: open-loop storm at 3x capacity, shedding off vs on";
  (* same latency-bound mix, offered at three times the measured
     single-worker closed-loop capacity, with a 250 ms end-to-end
     deadline. Without shedding every job is served late (deadlines
     expire in the queue, p99-of-accepted explodes); with the CoDel
     delay target on, excess load is rejected at admission for ~zero
     service cost and the accepted jobs keep their latency. The
     cross-database pair check after each run pins zero partial
     commits under overload. *)
  let overload_capacity =
    let env = FC.make ~customers:5 () in
    let session = Aldsp.Dataspace.session env.FC.ds in
    let jobs =
      Server.Workload.jobs ~io_ms:2. ~customers:5 ~seed:44 ~count:80 env
    in
    (Server.Pool.run ~workers:1 ~session jobs).r_qps
  in
  let overload_rate = 3. *. overload_capacity in
  Printf.printf "capacity %.0f qps (1 worker, closed loop) -> offering %.0f\n"
    overload_capacity overload_rate;
  record "overload.capacity.qps" overload_capacity;
  let pair env =
    let value tbl pk col =
      match Relational.Table.find_pk tbl pk with
      | Some row -> Relational.Value.to_string (Relational.Table.get row tbl col)
      | None -> "<missing>"
    in
    ( value env.FC.customer [ Relational.Value.Text "007" ] "LAST_NAME",
      value env.FC.credit_card [ Relational.Value.Int 900001 ] "CC_BRAND" )
  in
  let pair_consistent ~baseline (ln, br) =
    let suffix ~prefix s =
      let pl = String.length prefix in
      if String.length s > pl && String.sub s 0 pl = prefix then
        Some (String.sub s pl (String.length s - pl))
      else None
    in
    baseline = (ln, br)
    ||
    match (suffix ~prefix:"Name" ln, suffix ~prefix:"BRAND" br) with
    | Some k1, Some k2 -> k1 = k2
    | _ -> false
  in
  Printf.printf "%-8s %-5s %9s %9s %6s %8s %12s %6s\n" "workers" "shed"
    "goodput" "accepted" "shed" "expired" "acc-p99ms" "pair";
  List.iter
    (fun workers ->
      List.iter
        (fun shed_on ->
          let env = FC.make ~customers:5 () in
          let session = Aldsp.Dataspace.session env.FC.ds in
          let baseline = pair env in
          let jobs =
            Server.Workload.jobs ~io_ms:2. ~rate:overload_rate ~customers:5
              ~seed:45 ~count:240 env
          in
          let overload =
            {
              no_overload with
              o_deadline_ms = Some 250.;
              o_shed =
                (if shed_on then
                   Some { sp_queue_bound = None; sp_delay_target_ms = Some 50. }
                 else None);
            }
          in
          let rp = Server.Pool.run ~workers ~overload ~session jobs in
          let consistent = pair_consistent ~baseline (pair env) in
          assert consistent;
          Printf.printf "%-8d %-5s %9.0f %9d %6d %8d %12.2f %6s\n" workers
            (if shed_on then "on" else "off")
            rp.r_goodput rp.r_accepted rp.r_shed rp.r_expired
            rp.r_accepted_latency.l_p99
            (if consistent then "ok" else "TORN");
          let m name v =
            record
              (Printf.sprintf "overload.workers=%d.shed=%s.%s" workers
                 (if shed_on then "on" else "off")
                 name)
              v
          in
          m "goodput.qps" rp.r_goodput;
          m "accepted" (float_of_int rp.r_accepted);
          m "shed" (float_of_int rp.r_shed);
          m "expired" (float_of_int rp.r_expired);
          m "accepted_p99_ms" rp.r_accepted_latency.l_p99;
          m "pair_consistent" (if consistent then 1. else 0.))
        [ false; true ])
    [ 1; 4 ];

  section "CACHE: lineage-invalidated result cache";
  (* warm-hit speedup on the hot read: the same getProfileById call,
     recomputed every time vs served from the cache *)
  let hot = {|profile:getProfileById("007")|} in
  let env_cold = FC.make ~customers:50 () in
  let sess_cold = Aldsp.Dataspace.session env_cold.FC.ds in
  let env_warm = FC.make ~customers:50 () in
  ignore (Aldsp.Dataspace.enable_result_cache env_warm.FC.ds);
  let sess_warm = Aldsp.Dataspace.session env_warm.FC.ds in
  ignore (Xqse.Session.eval sess_warm hot);
  let t_cold = time_ms (fun () -> Xqse.Session.eval sess_cold hot) in
  let t_warm = time_ms (fun () -> Xqse.Session.eval sess_warm hot) in
  Printf.printf
    "hot read (N=50): uncached %.3f ms   warm hit %.3f ms   speedup %.0fx\n"
    t_cold t_warm (t_cold /. t_warm);
  record "cache.hot_read.cold_ms" t_cold;
  record "cache.hot_read.warm_ms" t_warm;
  record "cache.hot_read.speedup" (t_cold /. t_warm);
  (* the server mix, cache off vs on: submits keep evicting, so the
     hit rate is what the 6:3:1 read/write balance sustains *)
  Printf.printf "\n%-8s %10s %10s %9s %9s\n" "workers" "qps(off)" "qps(on)"
    "speedup" "hitrate";
  List.iter
    (fun workers ->
      let run_mix ~cache =
        let instr = Instr.create () in
        Instr.preregister instr;
        Instr.enable instr;
        let env = FC.make ~customers:5 ~instr () in
        if cache then ignore (Aldsp.Dataspace.enable_result_cache env.FC.ds);
        let session = Aldsp.Dataspace.session env.FC.ds in
        let jobs =
          Server.Workload.jobs ~customers:5 ~seed:42 ~count:200 env
        in
        let rp = Server.Pool.run ~workers ~session jobs in
        assert (rp.r_ok = rp.r_jobs);
        (rp.r_qps, instr)
      in
      let qps_off, _ = run_mix ~cache:false in
      let qps_on, instr = run_mix ~cache:true in
      let c name =
        Option.value ~default:0
          (List.assoc_opt name (Instr.stats instr).Instr.counters)
      in
      let hits = c Instr.K.cache_hit and misses = c Instr.K.cache_miss in
      let hit_rate =
        if hits + misses = 0 then 0.
        else float_of_int hits /. float_of_int (hits + misses)
      in
      Printf.printf "%-8d %10.0f %10.0f %8.2fx %8.0f%%\n" workers qps_off
        qps_on (qps_on /. qps_off) (100. *. hit_rate);
      let m name v = record (Printf.sprintf "cache.workers=%d.%s" workers name) v in
      m "qps_off" qps_off;
      m "qps_on" qps_on;
      m "speedup" (qps_on /. qps_off);
      m "hit_rate" hit_rate)
    [ 1; 2; 4 ];

  write_json_report (instrumented_counters ())

let () =
  (match Sys.argv with
  | [| _ |] | [| _; "report" |] -> report ()
  | _ ->
    prerr_endline "usage: main.exe [report]";
    exit 2);
  Printf.printf "\ndone.\n"
