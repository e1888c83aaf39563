(* The concurrent query server: worker-pool correctness under
   deterministic seeds, snapshot-read isolation between concurrent
   reads and submits, and the cross-database atomicity invariant under
   chaos with multiple workers. *)

open Core
open Util
module FC = Fixtures.Customer_profile
module R = Relational
module Pool = Server.Pool
module Workload = Server.Workload

let value_at tbl pk col =
  match R.Table.find_pk tbl pk with
  | Some row -> R.Table.get row tbl col
  | None -> R.Value.Null

(* the two cells every submit rewrites as a matched pair, one per
   database — 007's last name in db1, card 900001's brand in db2 *)
let lastname env = value_at env.FC.customer [ R.Value.Text "007" ] "LAST_NAME"

let brand env =
  value_at env.FC.credit_card [ R.Value.Int 900001 ] "CC_BRAND"

let text = function R.Value.Text s -> s | v -> R.Value.to_string v

let suffix ~prefix s =
  let pl = String.length prefix in
  if String.length s > pl && String.sub s 0 pl = prefix then
    Some (String.sub s pl (String.length s - pl))
  else None

(* a consistent pair is (Name<k>, BRAND<k>) for one k, or the seeded
   baseline on both sides — anything else is a torn read or a partial
   commit *)
let pair_consistent ~baseline (ln, br) =
  baseline = (ln, br)
  ||
  match (suffix ~prefix:"Name" ln, suffix ~prefix:"BRAND" br) with
  | Some k1, Some k2 -> k1 = k2
  | _ -> false

let submit_pair env k =
  let dg = FC.get_profile_by_id env "007" in
  Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] (Printf.sprintf "Name%d" k);
  Sdo.set_leaf dg 1
    [ ("CreditCards", 1); ("CREDIT_CARD", 1); ("BRAND", 1) ]
    (Printf.sprintf "BRAND%d" k);
  (Aldsp.Dataspace.submit env.FC.ds env.FC.svc dg).Aldsp.Dataspace.sr_committed

(* concurrent submits to the same customer race at the optimistic-
   concurrency check (the read runs against a snapshot, unlocked) —
   like any OCC client, re-read and retry on conflict *)
let rec submit_pair_retry ?(tries = 10) env k =
  submit_pair env k
  || tries > 1
     && submit_pair_retry ~tries:(tries - 1) env k

(* one consistent cut of the cross-database pair: both cells read from
   a single pinned snapshot, so a rival submit publishing between the
   two reads cannot fake a torn observation *)
let snapshot_pair env =
  let snap = R.Table.snapshot [ env.FC.customer; env.FC.credit_card ] in
  Fun.protect ~finally:(fun () -> R.Table.release snap) @@ fun () ->
  let v tbl pk col =
    match R.Table.snapshot_find_pk snap tbl pk with
    | Some row -> R.Table.get row tbl col
    | None -> R.Value.Null
  in
  ( text (v env.FC.customer [ R.Value.Text "007" ] "LAST_NAME"),
    text (v env.FC.credit_card [ R.Value.Int 900001 ] "CC_BRAND") )

let pair_query =
  {|let $p := profile:getProfileById("007")
    return fn:concat($p/LAST_NAME, "|",
                     ($p/CreditCards/CREDIT_CARD)[1]/BRAND)|}

let split_pair s =
  match String.index_opt s '|' with
  | Some i ->
    (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> (s, "")

let pool_tests =
  [
    case "percentiles are nearest-rank" (fun () ->
        let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
        check_bool "p50" true (Pool.percentile a 50. = 50.);
        check_bool "p95" true (Pool.percentile a 95. = 95.);
        check_bool "p99" true (Pool.percentile a 99. = 99.);
        check_bool "empty" true (Pool.percentile [||] 50. = 0.));
    case "sequential pool drains every job in order" (fun () ->
        let env = FC.make ~customers:2 () in
        let sess = Aldsp.Dataspace.session env.FC.ds in
        let order = ref [] in
        let job i =
          {
            Pool.j_kind = Pool.Read;
            j_label = Printf.sprintf "j%d" i;
            j_arrival_ms = 0.;
            j_deadline_ms = None;
            j_run = (fun _ -> order := i :: !order);
          }
        in
        let rp = Pool.run ~workers:1 ~session:sess (List.init 5 job) in
        check_int "all ok" 5 rp.Pool.r_ok;
        check_bool "list order" true (List.rev !order = [ 0; 1; 2; 3; 4 ]));
    case "job exceptions are counted, not fatal" (fun () ->
        let env = FC.make ~customers:1 () in
        let instr = Instr.create () in
        Instr.enable instr;
        let template = Aldsp.Dataspace.session env.FC.ds in
        let sess =
          Xqse.Session.with_config template
            { (Xqse.Session.config template) with instr }
        in
        let boom =
          {
            Pool.j_kind = Pool.Script;
            j_label = "boom";
            j_arrival_ms = 0.;
            j_deadline_ms = None;
            j_run = (fun _ -> failwith "boom");
          }
        and fine =
          {
            Pool.j_kind = Pool.Read;
            j_label = "fine";
            j_arrival_ms = 0.;
            j_deadline_ms = None;
            j_run =
              (fun s -> ignore (Xqse.Session.eval s "count(profile:getProfile())"));
          }
        in
        let rp = Pool.run ~workers:1 ~session:sess [ boom; fine; boom ] in
        check_int "ok" 1 rp.Pool.r_ok;
        check_int "errors reported" 2 (List.length rp.Pool.r_errors);
        let st = Instr.stats instr in
        let c name =
          Option.value ~default:0 (List.assoc_opt name st.Instr.counters)
        in
        check_int "server.jobs" 3 (c Instr.K.server_jobs);
        check_int "server.errors" 2 (c Instr.K.server_errors));
    case "failures are reported by their error code's QName" (fun () ->
        let env = FC.make ~customers:1 () in
        let sess = Aldsp.Dataspace.session env.FC.ds in
        let job label src =
          {
            Pool.j_kind = Pool.Script;
            j_label = label;
            j_arrival_ms = 0.;
            j_deadline_ms = None;
            j_run = (fun s -> ignore (Xqse.Session.eval s src));
          }
        in
        let rp =
          Pool.run ~workers:1 ~session:sess
            [
              job "type" "1 + 'a'";
              (* a duplicate key fails the physical create procedure *)
              job "create"
                {|{ customer:createCUSTOMER(<CUSTOMER><CID>007</CID><FIRST_NAME>J</FIRST_NAME><LAST_NAME>B</LAST_NAME></CUSTOMER>); }|};
              job "user" {|fn:error(xs:QName("err:FOER0000"), "stop")|};
              {
                Pool.j_kind = Pool.Script;
                j_label = "uncoded";
                j_arrival_ms = 0.;
                j_deadline_ms = None;
                j_run = (fun _ -> failwith "boom");
              };
            ]
        in
        check_bool "every kind reported" true
          (List.sort compare rp.Pool.r_error_kinds
          = List.sort compare
              [
                ("err:XPTY0004", 1);
                ("{ld:db1/CUSTOMER}CreateError", 1);
                ("err:FOER0000", 1);
                ("other", 1);
              ]);
        check_string "RESX codes keep their local name" "RESX0004"
          (Pool.error_kind
             (Xdm.Item.Error
                { code = Xdm.Qname.err "RESX0004"; message = ""; items = [] })));
    case "open-loop runs report a latency trajectory" (fun () ->
        let env = FC.make ~customers:2 () in
        let sess = Aldsp.Dataspace.session env.FC.ds in
        let noop i arrival =
          {
            Pool.j_kind = Pool.Read;
            j_label = Printf.sprintf "j%d" i;
            j_arrival_ms = arrival;
            j_deadline_ms = None;
            j_run = ignore;
          }
        in
        (* 20 arrivals spread over ~95 ms, bucketed into 25 ms windows *)
        let jobs = List.init 20 (fun i -> noop i (float_of_int i *. 5.)) in
        let rp = Pool.run ~workers:2 ~window_ms:25. ~session:sess jobs in
        check_bool "trajectory present" true (rp.Pool.r_trajectory <> []);
        check_int "windows partition the jobs" 20
          (List.fold_left
             (fun acc w -> acc + w.Pool.w_jobs)
             0 rp.Pool.r_trajectory);
        check_bool "windows are ordered" true
          (let froms = List.map (fun w -> w.Pool.w_from_ms) rp.Pool.r_trajectory in
           froms = List.sort compare froms);
        (* closed loop: no arrivals, no trajectory *)
        let closed = List.init 5 (fun i -> noop i 0.) in
        let rp2 = Pool.run ~workers:1 ~session:sess closed in
        check_bool "closed loop has none" true (rp2.Pool.r_trajectory = []));
    case "workload is a pure function of its seed" (fun () ->
        let env = FC.make ~customers:3 () in
        let sig_of js =
          List.map
            (fun j -> (j.Pool.j_label, j.Pool.j_kind, j.Pool.j_arrival_ms))
            js
        in
        let a = Workload.jobs ~rate:500. ~seed:11 ~count:60 env in
        let b = Workload.jobs ~rate:500. ~seed:11 ~count:60 env in
        let c = Workload.jobs ~rate:500. ~seed:12 ~count:60 env in
        check_bool "same seed, same jobs" true (sig_of a = sig_of b);
        check_bool "different seed, different jobs" true (sig_of a <> sig_of c));
    case "concurrent workload run completes clean and counts add up"
      (fun () ->
        let instr = Instr.create () in
        Instr.preregister instr;
        Instr.enable instr;
        let env = FC.make ~customers:3 ~instr () in
        let sess = Aldsp.Dataspace.session env.FC.ds in
        let jobs = Workload.jobs ~customers:3 ~seed:5 ~count:60 env in
        let rp = Pool.run ~workers:3 ~session:sess jobs in
        check_int "all ok" 60 rp.Pool.r_ok;
        check_bool "throughput positive" true (rp.Pool.r_qps > 0.);
        check_int "kinds partition the jobs" 60
          (List.fold_left (fun a (_, n) -> a + n) 0 rp.Pool.r_by_kind);
        let st = Instr.stats instr in
        let c name =
          Option.value ~default:0 (List.assoc_opt name st.Instr.counters)
        in
        check_int "server.jobs counted across domains" 60
          (c Instr.K.server_jobs);
        check_int "no server errors" 0 (c Instr.K.server_errors);
        check_int "submits counted" (List.assoc "submit" rp.Pool.r_by_kind)
          (c Instr.K.server_submits));
    case "minor words are reported for every kind that ran" (fun () ->
        let env = FC.make ~customers:3 () in
        let sess = Aldsp.Dataspace.session env.FC.ds in
        let jobs = Workload.jobs ~customers:3 ~seed:5 ~count:60 env in
        let rp = Pool.run ~workers:2 ~session:sess jobs in
        check_int "all ok" 60 rp.Pool.r_ok;
        let ran = List.filter (fun (_, n) -> n > 0) rp.Pool.r_by_kind in
        List.iter
          (fun (kind, _) ->
            match List.assoc_opt kind rp.Pool.r_kind_words with
            | Some w ->
              check_bool (Printf.sprintf "%s: %.0f words > 0" kind w) true
                (w > 0.)
            | None -> Alcotest.failf "no minor words for %s" kind)
          ran;
        check_int "one figure per kind that ran" (List.length ran)
          (List.length rp.Pool.r_kind_words));
  ]

let isolation_tests =
  [
    case "readers never see half a cross-database submit" (fun () ->
        (* submits rewrite (LAST_NAME, BRAND) as a matched pair; every
           concurrent read of 007's profile must see one submit's pair
           (or the baseline), never a mix *)
        let env = FC.make ~customers:2 () in
        let sess = Aldsp.Dataspace.session env.FC.ds in
        let baseline =
          split_pair (Xqse.Session.eval_to_string sess pair_query)
        in
        let n = 40 in
        let results = Array.make n ("", "") in
        let job i =
          if i mod 4 = 3 then
            {
              Pool.j_kind = Pool.Submit;
              j_label = Printf.sprintf "submit#%d" i;
              j_arrival_ms = 0.;
              j_deadline_ms = None;
              j_run =
                (fun _ ->
                  if not (submit_pair_retry env i) then
                    failwith "submit aborted");
            }
          else
            {
              Pool.j_kind = Pool.Read;
              j_label = Printf.sprintf "read#%d" i;
              j_arrival_ms = 0.;
              j_deadline_ms = None;
              j_run =
                (fun s ->
                  results.(i) <-
                    split_pair (Xqse.Session.eval_to_string s pair_query));
            }
        in
        let rp = Pool.run ~workers:4 ~session:sess (List.init n job) in
        check_int "all ok" n rp.Pool.r_ok;
        Array.iteri
          (fun i (ln, br) ->
            if (ln, br) <> ("", "") && not (pair_consistent ~baseline (ln, br))
            then
              Alcotest.failf "read %d saw a torn pair: %s | %s" i ln br)
          results;
        (* and the sources themselves hold a matched pair *)
        check_bool "sources consistent after the storm" true
          (pair_consistent ~baseline (text (lastname env), text (brand env))));
    case "chaos with concurrent workers leaves zero partial commits"
      (fun () ->
        (* the suite_resilience atomicity invariant, now with 3 worker
           domains racing reads against faulting submits: whatever
           aborts, the (db1, db2) pair must stay matched *)
        let instr = Instr.create () in
        Instr.preregister instr;
        Instr.enable instr;
        let ctl =
          Resilience.Control.create
            ~plan:(Resilience.Plan.make ~seed:7 ~profile:Resilience.Plan.Heavy ())
            ~instr ()
        in
        List.iter
          (fun source ->
            Resilience.Control.set_policy ctl ~source
              (Resilience.Policy.make ~max_retries:2 ~backoff_ms:5.
                 ~jitter_ms:2. ()))
          [ "db1"; "db2" ];
        Resilience.Control.set_policy ctl ~source:"CreditRatingService"
          (Resilience.Policy.make ~max_retries:2 ~backoff_ms:5. ~jitter_ms:2.
             ~breaker:
               { Resilience.Breaker.failure_threshold = 4; cooldown_ms = 400. }
             ());
        Resilience.Control.set_degradable ctl ~source:"CreditRatingService";
        let env = FC.make ~customers:2 ~seed:7 ~instr ~resilience:ctl () in
        let sess = Aldsp.Dataspace.session env.FC.ds in
        let baseline = (text (lastname env), text (brand env)) in
        let violations = ref [] in
        let vmutex = Mutex.create () in
        let job i =
          if i mod 3 = 2 then
            {
              Pool.j_kind = Pool.Submit;
              j_label = Printf.sprintf "submit#%d" i;
              j_arrival_ms = 0.;
              j_deadline_ms = None;
              j_run =
                (fun _ ->
                  (* aborts are expected under chaos; partial commits
                     are not. The pair check reads one pinned snapshot,
                     so rival commits cannot fake a torn observation. *)
                  (try ignore (submit_pair env i) with _ -> ());
                  let pair = snapshot_pair env in
                  if not (pair_consistent ~baseline pair) then
                    Mutex.protect vmutex (fun () ->
                        violations :=
                          Printf.sprintf "after submit#%d: %s | %s" i
                            (fst pair) (snd pair)
                          :: !violations));
            }
          else
            {
              Pool.j_kind = Pool.Read;
              j_label = Printf.sprintf "read#%d" i;
              j_arrival_ms = 0.;
              j_deadline_ms = None;
              j_run =
                (fun s ->
                  match Xqse.Session.eval_to_string s pair_query with
                  | result ->
                    let pair = split_pair result in
                    if not (pair_consistent ~baseline pair) then
                      Mutex.protect vmutex (fun () ->
                          violations :=
                            Printf.sprintf "read#%d tore: %s" i result
                            :: !violations)
                  | exception _ -> () (* chaos: reads may fail *));
            }
        in
        let rp = Pool.run ~workers:3 ~session:sess (List.init 45 job) in
        check_int "every job drained" 45 rp.Pool.r_jobs;
        check_string "zero partial commits" ""
          (String.concat "; " !violations);
        check_bool "final pair matched" true
          (pair_consistent ~baseline (text (lastname env), text (brand env))));
  ]

let cache_tests =
  [
    case "4 workers: reads racing submits never serve a stale cached pair"
      (fun () ->
        (* the isolation storm again, now with the result cache on: a
           read served from cache after a submit committed would surface
           the pre-submit pair — lineage eviction must prevent it *)
        let instr = Instr.create () in
        Instr.preregister instr;
        Instr.enable instr;
        let env = FC.make ~customers:2 ~instr () in
        ignore (Aldsp.Dataspace.enable_result_cache env.FC.ds);
        let sess = Aldsp.Dataspace.session env.FC.ds in
        let baseline =
          split_pair (Xqse.Session.eval_to_string sess pair_query)
        in
        (* warm the cache so the racing reads start from hot entries *)
        ignore (Xqse.Session.eval_to_string sess pair_query);
        let n = 40 in
        let results = Array.make n ("", "") in
        let job i =
          if i mod 4 = 3 then
            {
              Pool.j_kind = Pool.Submit;
              j_label = Printf.sprintf "submit#%d" i;
              j_arrival_ms = 0.;
              j_deadline_ms = None;
              j_run =
                (fun _ ->
                  if not (submit_pair_retry env i) then
                    failwith "submit aborted");
            }
          else
            {
              Pool.j_kind = Pool.Read;
              j_label = Printf.sprintf "read#%d" i;
              j_arrival_ms = 0.;
              j_deadline_ms = None;
              j_run =
                (fun s ->
                  results.(i) <-
                    split_pair (Xqse.Session.eval_to_string s pair_query));
            }
        in
        let rp = Pool.run ~workers:4 ~session:sess (List.init n job) in
        check_int "all ok" n rp.Pool.r_ok;
        Array.iteri
          (fun i (ln, br) ->
            if (ln, br) <> ("", "") && not (pair_consistent ~baseline (ln, br))
            then
              Alcotest.failf "read %d saw a stale or torn pair: %s | %s" i ln
                br)
          results;
        (* the decisive coherence check: a read through the warm cache
           agrees with the sources after every submit has committed *)
        let final = split_pair (Xqse.Session.eval_to_string sess pair_query) in
        check_bool "cached read agrees with the sources" true
          (final = (text (lastname env), text (brand env)));
        let st = Instr.stats instr in
        let c name =
          Option.value ~default:0 (List.assoc_opt name st.Instr.counters)
        in
        check_bool "the cache actually served hits" true
          (c Instr.K.cache_hit > 0);
        check_bool "the submits actually evicted" true
          (c Instr.K.cache_evict > 0));
    case "chaos with workers and cache enabled leaves zero partial commits"
      (fun () ->
        (* the atomicity invariant must survive the cache too: faulting
           submits may abort mid-plan, and whatever they managed to
           write must still evict before any cached read replays *)
        let instr = Instr.create () in
        Instr.preregister instr;
        Instr.enable instr;
        let ctl =
          Resilience.Control.create
            ~plan:(Resilience.Plan.make ~seed:7 ~profile:Resilience.Plan.Heavy ())
            ~instr ()
        in
        List.iter
          (fun source ->
            Resilience.Control.set_policy ctl ~source
              (Resilience.Policy.make ~max_retries:2 ~backoff_ms:5.
                 ~jitter_ms:2. ()))
          [ "db1"; "db2" ];
        Resilience.Control.set_policy ctl ~source:"CreditRatingService"
          (Resilience.Policy.make ~max_retries:2 ~backoff_ms:5. ~jitter_ms:2.
             ~breaker:
               { Resilience.Breaker.failure_threshold = 4; cooldown_ms = 400. }
             ());
        Resilience.Control.set_degradable ctl ~source:"CreditRatingService";
        let env = FC.make ~customers:2 ~seed:7 ~instr ~resilience:ctl () in
        ignore (Aldsp.Dataspace.enable_result_cache env.FC.ds);
        let sess = Aldsp.Dataspace.session env.FC.ds in
        let baseline = (text (lastname env), text (brand env)) in
        let violations = ref [] in
        let vmutex = Mutex.create () in
        let job i =
          if i mod 3 = 2 then
            {
              Pool.j_kind = Pool.Submit;
              j_label = Printf.sprintf "submit#%d" i;
              j_arrival_ms = 0.;
              j_deadline_ms = None;
              j_run =
                (fun _ ->
                  (try ignore (submit_pair env i) with _ -> ());
                  let pair = snapshot_pair env in
                  if not (pair_consistent ~baseline pair) then
                    Mutex.protect vmutex (fun () ->
                        violations :=
                          Printf.sprintf "after submit#%d: %s | %s" i
                            (fst pair) (snd pair)
                          :: !violations));
            }
          else
            {
              Pool.j_kind = Pool.Read;
              j_label = Printf.sprintf "read#%d" i;
              j_arrival_ms = 0.;
              j_deadline_ms = None;
              j_run =
                (fun s ->
                  match Xqse.Session.eval_to_string s pair_query with
                  | result ->
                    let pair = split_pair result in
                    if not (pair_consistent ~baseline pair) then
                      Mutex.protect vmutex (fun () ->
                          violations :=
                            Printf.sprintf "read#%d tore: %s" i result
                            :: !violations)
                  | exception _ -> () (* chaos: reads may fail *));
            }
        in
        let rp = Pool.run ~workers:4 ~session:sess (List.init 45 job) in
        check_int "every job drained" 45 rp.Pool.r_jobs;
        check_string "zero partial commits" ""
          (String.concat "; " !violations);
        check_bool "final pair matched" true
          (pair_consistent ~baseline (text (lastname env), text (brand env)));
        (* once the plan quiets down the cached view must re-agree with
           the sources (reads may still degrade, never go stale) *)
        (match Xqse.Session.eval_to_string sess pair_query with
        | result ->
          check_bool "post-chaos cached read agrees with the sources" true
            (pair_consistent ~baseline (split_pair result))
        | exception _ -> ()));
  ]

(* The trajectory slicer's edges, driven directly through the exposed
   Pool.trajectory (run calls it with measured latencies). *)
let trajectory_tests =
  let noop_at arrival =
    {
      Pool.j_kind = Pool.Read;
      j_label = "t";
      j_arrival_ms = arrival;
      j_deadline_ms = None;
      j_run = ignore;
    }
  in
  let windows arrivals =
    let jobs = Array.of_list (List.map noop_at arrivals) in
    let lat = Array.map (fun j -> j.Pool.j_arrival_ms +. 1.) jobs in
    Pool.trajectory ~window_ms:25. jobs lat
  in
  [
    case "an arrival exactly on a boundary opens the next window" (fun () ->
        let ws = windows [ 0.; 24.9; 25.; 50. ] in
        check_int "three windows" 3 (List.length ws);
        check_bool "froms" true
          (List.map (fun w -> w.Pool.w_from_ms) ws = [ 0.; 25.; 50. ]);
        check_bool "counts" true
          (List.map (fun w -> w.Pool.w_jobs) ws = [ 2; 1; 1 ]));
    case "interior and trailing empty windows are dropped" (fun () ->
        let ws = windows [ 0.; 100. ] in
        check_int "only populated windows" 2 (List.length ws);
        check_bool "froms skip the gap" true
          (List.map (fun w -> w.Pool.w_from_ms) ws = [ 0.; 100. ]));
    case "a single-job run is one window, bucket-floored" (fun () ->
        match windows [ 10. ] with
        | [ w ] ->
          check_bool "floored to the window start" true (w.Pool.w_from_ms = 0.);
          check_int "one job" 1 w.Pool.w_jobs;
          check_bool "its latency is the whole distribution" true
            (w.Pool.w_latency.Pool.l_p50 = 11.
            && w.Pool.w_latency.Pool.l_max = 11.)
        | ws -> Alcotest.failf "expected one window, got %d" (List.length ws));
  ]

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let overload_tests =
  [
    case "3x-capacity storm with deadlines and shedding stays bounded"
      (fun () ->
        (* measure the single-worker closed-loop ceiling, then offer
           three times that. Shedding must keep the accepted p99 within
           the deadline, refuse with stable codes only, hold goodput
           near the ceiling, and leave the cross-database pair matched *)
        let capacity =
          let env = FC.make ~customers:3 () in
          let sess = Aldsp.Dataspace.session env.FC.ds in
          let warmup = Workload.jobs ~io_ms:2. ~customers:3 ~seed:21 ~count:60 env in
          (Pool.run ~workers:1 ~session:sess warmup).Pool.r_qps
        in
        let env = FC.make ~customers:3 () in
        let sess = Aldsp.Dataspace.session env.FC.ds in
        let baseline = (text (lastname env), text (brand env)) in
        let jobs =
          Workload.jobs ~io_ms:2. ~rate:(3. *. capacity) ~customers:3 ~seed:22
            ~count:150 env
        in
        let overload =
          {
            Pool.no_overload with
            o_deadline_ms = Some 250.;
            o_shed =
              Some { Pool.sp_queue_bound = None; sp_delay_target_ms = Some 50. };
          }
        in
        let rp = Pool.run ~workers:1 ~overload ~session:sess jobs in
        check_int "admission accounts for every job" rp.Pool.r_jobs
          (rp.Pool.r_accepted + rp.Pool.r_shed + rp.Pool.r_expired);
        check_bool "the storm actually shed" true (rp.Pool.r_shed > 0);
        check_bool "accepted p99 within the deadline" true
          (rp.Pool.r_accepted_latency.Pool.l_p99 <= 250.);
        check_bool "refusals carry stable codes only" true
          (rp.Pool.r_error_kinds <> []
          && List.for_all
               (fun (k, _) -> k = "RESX0005" || k = "RESX0006")
               rp.Pool.r_error_kinds);
        (* nominal runs land within a few percent of the ceiling; the
           pinned bound leaves margin for loaded CI machines *)
        if rp.Pool.r_goodput < 0.8 *. capacity then
          Alcotest.failf
            "goodput %.0f below 80%% of the %.0f qps ceiling (accepted %d \
             shed %d expired %d ok %d wall %.0fms)"
            rp.Pool.r_goodput capacity rp.Pool.r_accepted rp.Pool.r_shed
            rp.Pool.r_expired rp.Pool.r_ok rp.Pool.r_wall_ms;
        check_int "every accepted job succeeded" rp.Pool.r_accepted
          rp.Pool.r_ok;
        check_bool "zero partial commits" true
          (pair_consistent ~baseline (text (lastname env), text (brand env))));
    case "without shedding a dead budget expires in the queue as RESX0005"
      (fun () ->
        let env = FC.make ~customers:2 () in
        let sess = Aldsp.Dataspace.session env.FC.ds in
        let jobs =
          Workload.jobs ~io_ms:2. ~rate:2000. ~deadline_ms:40. ~customers:2
            ~seed:23 ~count:80 env
        in
        let rp = Pool.run ~workers:1 ~session:sess jobs in
        check_bool "some budgets died waiting" true (rp.Pool.r_expired > 0);
        check_bool "reported as RESX0005" true
          (List.mem_assoc "RESX0005" rp.Pool.r_error_kinds);
        check_int "nothing shed without a policy" 0 rp.Pool.r_shed;
        check_int "expired + accepted = jobs" rp.Pool.r_jobs
          (rp.Pool.r_accepted + rp.Pool.r_expired));
    case "brownout enters under pressure and always exits" (fun () ->
        let instr = Instr.create () in
        Instr.preregister instr;
        Instr.enable instr;
        let ctl = Resilience.Control.create ~instr () in
        Resilience.Control.set_degradable ctl ~source:"CreditRatingService";
        let env = FC.make ~customers:2 ~instr ~resilience:ctl () in
        let sess = Aldsp.Dataspace.session env.FC.ds in
        let jobs =
          Workload.jobs ~io_ms:2. ~rate:1500. ~customers:2 ~seed:24 ~count:80
            env
        in
        let overload =
          {
            Pool.no_overload with
            o_brownout =
              Some
                {
                  Pool.b_enter_ms = 10.;
                  b_exit_ms = 2.;
                  b_apply = Resilience.Control.set_brownout ctl;
                };
            o_clock = Some (Resilience.Control.clock ctl);
          }
        in
        let rp = Pool.run ~workers:1 ~overload ~session:sess jobs in
        check_int "all drained" 80 rp.Pool.r_jobs;
        check_bool "entered at least once" true
          (counter instr Instr.K.overload_brownout_entered >= 1);
        check_int "every entry was exited"
          (counter instr Instr.K.overload_brownout_entered)
          (counter instr Instr.K.overload_brownout_exited);
        check_bool "control cleared after the run" false
          (Resilience.Control.in_brownout ctl);
        check_bool "reads actually degraded while browned out" true
          (counter instr Instr.K.resil_degraded > 0));
    case "brownout prefers warm cache hits and never caches degraded reads"
      (fun () ->
        let make_env () =
          let instr = Instr.create () in
          Instr.preregister instr;
          Instr.enable instr;
          let ctl = Resilience.Control.create ~instr () in
          Resilience.Control.set_degradable ctl ~source:"CreditRatingService";
          let env = FC.make ~customers:3 ~instr ~resilience:ctl () in
          ignore (Aldsp.Dataspace.enable_result_cache env.FC.ds);
          (env, ctl, instr)
        in
        let q = {|profile:getProfileById("007")|} in
        (* phase 1: an entry admitted before the brownout keeps serving
           — the warm hit short-circuits before the degradable source,
           so the client still gets the full (rated) profile *)
        let env, ctl, instr = make_env () in
        let eval () =
          Xqse.Session.eval_to_string (Aldsp.Dataspace.session env.FC.ds) q
        in
        let full = eval () in
        check_bool "baseline carries the rating" true
          (contains full "CreditRating");
        Resilience.Control.set_brownout ctl true;
        let hits0 = counter instr Instr.K.cache_hit in
        check_string "warm entry short-circuits the degraded source" full
          (eval ());
        check_bool "served from cache" true
          (counter instr Instr.K.cache_hit > hits0);
        (* phase 2: a genuinely cold read under brownout degrades — and
           the degraded result must never be admitted to the cache *)
        let env, ctl, instr = make_env () in
        let eval () =
          Xqse.Session.eval_to_string (Aldsp.Dataspace.session env.FC.ds) q
        in
        Resilience.Control.set_brownout ctl true;
        let cold = eval () in
        if contains cold "CreditRating" then
          Alcotest.failf "cold read not degraded under brownout: %s"
            (String.sub cold 0 (min 300 (String.length cold)));
        ignore (instr : Instr.t);
        check_bool "degraded replay still degraded" false
          (contains (eval ()) "CreditRating");
        Resilience.Control.set_brownout ctl false;
        (* the decisive check: were any degraded result admitted, this
           post-brownout eval would serve it and still lack the rating *)
        check_bool "full result restored after brownout" true
          (contains (eval ()) "CreditRating"));
    case "chaos storm with overload protection leaves zero partial commits"
      (fun () ->
        (* the isolation-suite chaos invariant with every overload
           defense armed at once: whatever is shed, expired or aborted,
           the (db1, db2) pair stays matched — a submit that entered XA
           prepare runs to completion exempt from its budget *)
        let instr = Instr.create () in
        Instr.preregister instr;
        Instr.enable instr;
        let ctl =
          Resilience.Control.create
            ~plan:(Resilience.Plan.make ~seed:7 ~profile:Resilience.Plan.Heavy ())
            ~instr ()
        in
        List.iter
          (fun source ->
            Resilience.Control.set_policy ctl ~source
              (Resilience.Policy.make ~max_retries:2 ~backoff_ms:5.
                 ~jitter_ms:2. ()))
          [ "db1"; "db2" ];
        Resilience.Control.set_policy ctl ~source:"CreditRatingService"
          (Resilience.Policy.make ~max_retries:2 ~backoff_ms:5. ~jitter_ms:2.
             ~breaker:
               { Resilience.Breaker.failure_threshold = 4; cooldown_ms = 400. }
             ());
        Resilience.Control.set_degradable ctl ~source:"CreditRatingService";
        let env = FC.make ~customers:2 ~seed:7 ~instr ~resilience:ctl () in
        let sess = Aldsp.Dataspace.session env.FC.ds in
        let baseline = (text (lastname env), text (brand env)) in
        let violations = ref [] in
        let vmutex = Mutex.create () in
        let job i =
          let arrival = float_of_int i *. 1. in
          if i mod 3 = 2 then
            {
              Pool.j_kind = Pool.Submit;
              j_label = Printf.sprintf "submit#%d" i;
              j_arrival_ms = arrival;
              j_deadline_ms = None;
              j_run =
                (fun _ ->
                  (try ignore (submit_pair env i) with _ -> ());
                  let pair = snapshot_pair env in
                  if not (pair_consistent ~baseline pair) then
                    Mutex.protect vmutex (fun () ->
                        violations :=
                          Printf.sprintf "after submit#%d: %s | %s" i
                            (fst pair) (snd pair)
                          :: !violations));
            }
          else
            {
              Pool.j_kind = Pool.Read;
              j_label = Printf.sprintf "read#%d" i;
              j_arrival_ms = arrival;
              j_deadline_ms = None;
              j_run =
                (fun s ->
                  match Xqse.Session.eval_to_string s pair_query with
                  | result ->
                    let pair = split_pair result in
                    if not (pair_consistent ~baseline pair) then
                      Mutex.protect vmutex (fun () ->
                          violations :=
                            Printf.sprintf "read#%d tore: %s" i result
                            :: !violations)
                  | exception _ -> () (* chaos and expiry: reads may fail *));
            }
        in
        let overload =
          {
            Pool.o_deadline_ms = Some 200.;
            o_shed =
              Some
                { Pool.sp_queue_bound = Some 8; sp_delay_target_ms = Some 50. };
            o_brownout =
              Some
                {
                  Pool.b_enter_ms = 15.;
                  b_exit_ms = 3.;
                  b_apply = Resilience.Control.set_brownout ctl;
                };
            o_clock = Some (Resilience.Control.clock ctl);
          }
        in
        let rp = Pool.run ~workers:3 ~overload ~session:sess (List.init 45 job) in
        check_int "every job accounted for" 45
          (rp.Pool.r_accepted + rp.Pool.r_shed + rp.Pool.r_expired);
        check_string "zero partial commits" ""
          (String.concat "; " !violations);
        check_bool "final pair matched" true
          (pair_consistent ~baseline (text (lastname env), text (brand env)));
        check_bool "brownout cleared" false (Resilience.Control.in_brownout ctl));
  ]

(* MVCC at the server's grain: submits lock only the tables their plan
   writes, so disjoint writers run in parallel, and a pinned snapshot
   outlives a rival commit. All timing-independent — the proofs are
   lock-state and counter assertions, not latency comparisons. *)
let mvcc_tests =
  [
    case "a submit commits while an unrelated table's write lock is held"
      (fun () ->
        (* the submit's lockset is {db1.CUSTOMER, db2.CREDIT_CARD};
           holding ORDERS — same database, not in the plan — must not
           exclude it. Join-while-held is the proof: under the retired
           pool/global lock this deadlocked or serialized. *)
        let env = FC.make ~customers:2 () in
        R.Table.lock_write env.FC.orders;
        let committed =
          Fun.protect
            ~finally:(fun () -> R.Table.unlock_write env.FC.orders)
          @@ fun () -> Domain.join (Domain.spawn (fun () -> submit_pair env 3))
        in
        check_bool "committed under the foreign lock" true committed;
        check_bool "pair written" true
          ((text (lastname env), text (brand env)) = ("Name3", "BRAND3")));
    case "same-table submits queue on the write lock, then commit" (fun () ->
        let env = FC.make ~customers:2 () in
        R.Table.lock_write env.FC.customer;
        let d = Domain.spawn (fun () -> submit_pair env 5) in
        (* the rival must park on CUSTOMER's lock (its first in the
           ordered lockset): waiters becomes visible, deterministically *)
        let rec await n =
          let _, waiters = R.Table.lock_info env.FC.customer in
          if waiters >= 1 then true
          else if n = 0 then false
          else begin
            Unix.sleepf 0.001;
            await (n - 1)
          end
        in
        let queued = await 5000 in
        R.Table.unlock_write env.FC.customer;
        let committed = Domain.join d in
        check_bool "writer queued while the lock was held" true queued;
        check_bool "committed after release" true committed;
        check_bool "pair written" true
          ((text (lastname env), text (brand env)) = ("Name5", "BRAND5")));
    case "disjoint-table writers acquire without contention" (fun () ->
        let instr = Instr.create () in
        Instr.preregister instr;
        Instr.enable instr;
        let env = FC.make ~customers:2 ~instr () in
        let base_acq = counter instr Instr.K.mvcc_lock_acquired in
        let n = 50 in
        let insert db table columns values =
          ignore (R.Database.exec db (R.Database.Insert { table; columns; values }))
        in
        let w1 =
          Domain.spawn (fun () ->
              for i = 0 to n - 1 do
                insert env.FC.db1 "ORDERS" [ "OID"; "CID" ]
                  [ R.Value.Int (9000 + i); R.Value.Text "007" ]
              done)
        and w2 =
          Domain.spawn (fun () ->
              for i = 0 to n - 1 do
                insert env.FC.db2 "CREDIT_CARD" [ "CCID"; "CID" ]
                  [ R.Value.Int (8000 + i); R.Value.Text "007" ]
              done)
        in
        Domain.join w1;
        Domain.join w2;
        check_int "no contention across disjoint tables" 0
          (counter instr Instr.K.mvcc_lock_contended);
        check_bool "locks were actually taken" true
          (counter instr Instr.K.mvcc_lock_acquired >= base_acq + (2 * n)));
    case "a pinned snapshot spans a concurrent commit" (fun () ->
        let env = FC.make ~customers:2 () in
        let before = (text (lastname env), text (brand env)) in
        let live0 = R.Table.live_versions env.FC.customer in
        R.Table.with_snapshot
          [ env.FC.customer; env.FC.credit_card ]
          (fun () ->
            check_bool "inside: the baseline cut" true
              ((text (lastname env), text (brand env)) = before);
            let committed =
              Domain.join (Domain.spawn (fun () -> submit_pair env 9))
            in
            check_bool "writer committed mid-snapshot" true committed;
            (* the decisive read: the rival's commit is published, yet
               this domain still sees its pinned version *)
            check_bool "inside: still the pinned cut" true
              ((text (lastname env), text (brand env)) = before);
            check_int "superseded version stays live while pinned"
              (live0 + 1)
              (R.Table.live_versions env.FC.customer));
        check_bool "outside: the committed pair" true
          ((text (lastname env), text (brand env)) = ("Name9", "BRAND9"));
        check_int "superseded version collected on release" live0
          (R.Table.live_versions env.FC.customer));
    case "two domains' transactions on one database stay apart" (fun () ->
        (* one client rewrites 007's LAST_NAME (a plan on db1/CUSTOMER
           alone), the other C1's first order STATUS (db1/ORDERS alone):
           disjoint locksets, so their XA rounds on db1 overlap, and
           each domain must commit its own transaction, never the
           other's *)
        let env = FC.make ~customers:2 () in
        let n = 1_000 in
        let client cid path prefix =
          Domain.spawn (fun () ->
              let aborted = ref [] in
              for i = 1 to n do
                let dg = FC.get_profile_by_id env cid in
                Sdo.set_leaf dg 1 path (Printf.sprintf "%s%d" prefix i);
                let r = Aldsp.Dataspace.submit env.FC.ds env.FC.svc dg in
                if not r.Aldsp.Dataspace.sr_committed then
                  aborted :=
                    Option.value r.Aldsp.Dataspace.sr_reason ~default:"?"
                    :: !aborted
              done;
              !aborted)
        in
        let names = client "007" [ ("LAST_NAME", 1) ] "L"
        and statuses =
          client "C1" [ ("Orders", 1); ("ORDERS", 1); ("STATUS", 1) ] "S"
        in
        let outcome d =
          match Domain.join d with
          | [] -> "all committed"
          | reasons ->
            Printf.sprintf "%d aborted, first: %s" (List.length reasons)
              (List.hd reasons)
          | exception e -> "raised " ^ Printexc.to_string e
        in
        check_string "the LAST_NAME client" "all committed" (outcome names);
        check_string "the STATUS client" "all committed" (outcome statuses);
        List.iter
          (fun tbl ->
            check_int (R.Table.name tbl ^ ": one live version") 1
              (R.Table.live_versions tbl);
            check_bool (R.Table.name tbl ^ ": no lock held") true
              (R.Table.lock_info tbl = (None, 0)))
          [ env.FC.customer; env.FC.orders ];
        check_string "007's last write" (Printf.sprintf "L%d" n)
          (text (lastname env));
        let first_order =
          List.hd
            (R.Table.select env.FC.orders (R.Pred.eq "CID" (R.Value.Text "C1")))
        in
        check_string "C1's first order's last write" (Printf.sprintf "S%d" n)
          (text (R.Table.get first_order env.FC.orders "STATUS")));
  ]

let suites =
  [
    ("server.pool", pool_tests); ("server.trajectory", trajectory_tests);
    ("server.overload", overload_tests);
    ("server.isolation", isolation_tests); ("server.mvcc", mvcc_tests);
    ("server.cache", cache_tests);
  ]
