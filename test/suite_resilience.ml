(* The source resilience layer: virtual clock, seeded fault plans,
   retry/timeout/backoff policies, circuit breakers, degradable reads,
   strict submits, and the chaos harness's atomicity invariant. *)

open Util
open Core
open Core.Xdm
module FE = Fixtures.Employees
module FC = Fixtures.Customer_profile
module R = Relational
module Res = Resilience

let uc qname_local = Qname.make ~uri:FE.usecases_ns qname_local

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let employee_xml id name =
  List.hd
    (Xml_parse.parse_fragment
       (Printf.sprintf
          {|<e:Employee xmlns:e="urn:employees"><EmployeeID>%d</EmployeeID><Name>%s</Name><DeptNo>10</DeptNo><ManagerID>1</ManagerID><Salary>50000</Salary></e:Employee>|}
          id name))

let counter instr name =
  match List.assoc_opt name (Instr.stats instr).Instr.counters with
  | Some v -> v
  | None -> 0

let fresh_instr () =
  let instr = Instr.create () in
  Instr.enable instr;
  Instr.preregister instr;
  instr

(* a schedule literal for targeted fault tests *)
let sched ?(transients = []) ?(spikes = []) ?(windows = []) ?(prepares = [])
    ?(commits = []) source =
  {
    Res.Plan.s_source = source;
    s_transients = transients;
    s_spikes = spikes;
    s_windows = windows;
    s_prepares = prepares;
    s_commits = commits;
  }

let clock_tests =
  [
    case "advance accumulates, ignores non-positive" (fun () ->
        let c = Res.Clock.create () in
        Res.Clock.advance c 10.;
        Res.Clock.advance c 0.;
        Res.Clock.advance c (-5.);
        Res.Clock.advance c 2.5;
        check_bool "now" true (Res.Clock.now c = 12.5));
    case "same seed, same rng stream" (fun () ->
        let a = Res.Rng.make 42 and b = Res.Rng.make 42 in
        for _ = 1 to 50 do
          check_int "step" (Res.Rng.int a 1000) (Res.Rng.int b 1000)
        done);
    case "different seeds diverge" (fun () ->
        let a = Res.Rng.make 1 and b = Res.Rng.make 2 in
        let sa = List.init 20 (fun _ -> Res.Rng.int a 1000) in
        let sb = List.init 20 (fun _ -> Res.Rng.int b 1000) in
        check_bool "diverge" true (sa <> sb));
  ]

let plan_tests =
  [
    case "schedule is a pure function of seed and source" (fun () ->
        let s1 =
          Res.Plan.schedule_for
            (Res.Plan.make ~seed:11 ~profile:Res.Plan.Heavy ())
            ~source:"db1"
        and s2 =
          Res.Plan.schedule_for
            (Res.Plan.make ~seed:11 ~profile:Res.Plan.Heavy ())
            ~source:"db1"
        in
        check_bool "replay" true (s1 = s2));
    case "different sources get different schedules" (fun () ->
        let plan = Res.Plan.make ~seed:11 ~profile:Res.Plan.Heavy () in
        check_bool "distinct" true
          (Res.Plan.schedule_for plan ~source:"db1"
          <> Res.Plan.schedule_for plan ~source:"db2"));
    case "different seeds get different schedules" (fun () ->
        let at seed =
          Res.Plan.schedule_for
            (Res.Plan.make ~seed ~profile:Res.Plan.Heavy ())
            ~source:"db1"
        in
        check_bool "distinct" true (at 1 <> at 2));
    case "calm profile never schedules hard-down windows" (fun () ->
        for seed = 1 to 20 do
          let s =
            Res.Plan.schedule_for
              (Res.Plan.make ~seed ~profile:Res.Plan.Calm ())
              ~source:"db1"
          in
          check_int "windows" 0 (List.length s.Res.Plan.s_windows)
        done);
    case "commit faults never exceed two consecutive rounds" (fun () ->
        for seed = 1 to 40 do
          let s =
            Res.Plan.schedule_for
              (Res.Plan.make ~seed ~profile:Res.Plan.Heavy ())
              ~source:"dbx"
          in
          let rec streak best run = function
            | a :: (b :: _ as rest) when b = a + 1 ->
              streak (max best (run + 1)) (run + 1) rest
            | _ :: rest -> streak best 1 rest
            | [] -> best
          in
          check_bool "bounded" true
            (streak 1 1 (List.sort compare s.Res.Plan.s_commits) <= 2)
        done);
    case "profile name round-trip" (fun () ->
        List.iter
          (fun p ->
            check_bool "roundtrip" true
              (Res.Plan.profile_of_string (Res.Plan.profile_to_string p)
              = Some p))
          [ Res.Plan.Calm; Res.Plan.Light; Res.Plan.Heavy ]);
  ]

let fault_tests =
  [
    case "ad-hoc one-shots fire on statements, not reads" (fun () ->
        let f = Res.Faults.create ~source:"db" () in
        Res.Faults.inject_next f "blip";
        check_bool "read skips" true
          ((Res.Faults.on_call f Res.Faults.Read).v_fault = None);
        check_bool "statement faults" true
          ((Res.Faults.on_call f Res.Faults.Statement).v_fault <> None);
        check_bool "once" true
          ((Res.Faults.on_call f Res.Faults.Statement).v_fault = None));
    case "scheduled transient fires at its call index" (fun () ->
        let f = Res.Faults.create ~source:"db" () in
        Res.Faults.set_schedule f (sched ~transients:[ 2 ] "db");
        check_bool "call 1 ok" true
          ((Res.Faults.on_call f Res.Faults.Read).v_fault = None);
        match (Res.Faults.on_call f Res.Faults.Read).v_fault with
        | Some fl -> check_bool "transient" true fl.Res.Faults.f_transient
        | None -> Alcotest.fail "expected a fault at call 2");
    case "latency spikes are charged to the virtual clock" (fun () ->
        let f = Res.Faults.create ~source:"db" () in
        Res.Faults.set_schedule f (sched ~spikes:[ (1, 25.) ] "db");
        let v = Res.Faults.on_call f Res.Faults.Read in
        check_bool "latency" true (v.Res.Faults.v_latency = 25.);
        check_bool "clock" true (Res.Clock.now (Res.Faults.clock f) = 25.));
    case "hard-down windows fault by virtual time, not call count" (fun () ->
        let f = Res.Faults.create ~source:"db" () in
        Res.Faults.set_schedule f
          (sched ~windows:[ { Res.Plan.w_from = 0.; w_until = 100. } ] "db");
        (match (Res.Faults.on_call f Res.Faults.Read).v_fault with
        (* transient: a retry whose backoff outlasts the window succeeds *)
        | Some fl -> check_bool "retryable" true fl.Res.Faults.f_transient
        | None -> Alcotest.fail "expected a window fault");
        Res.Clock.advance (Res.Faults.clock f) 150.;
        check_bool "after window" true
          ((Res.Faults.on_call f Res.Faults.Read).v_fault = None));
    case "take_last clears the side channel" (fun () ->
        let f = Res.Faults.create ~source:"db" () in
        Res.Faults.inject_next f "blip";
        ignore (Res.Faults.on_call f Res.Faults.Statement);
        check_bool "present" true (Res.Faults.take_last f <> None);
        check_bool "cleared" true (Res.Faults.take_last f = None));
  ]

let breaker_tests =
  [
    case "trips after consecutive failures, probes after cooldown" (fun () ->
        let clock = Res.Clock.create () in
        let b =
          Res.Breaker.create
            ~config:{ Res.Breaker.failure_threshold = 2; cooldown_ms = 100. }
            clock
        in
        check_bool "closed allows" true (Res.Breaker.allow b);
        check_bool "1st failure" false (Res.Breaker.on_failure b);
        check_bool "2nd failure trips" true (Res.Breaker.on_failure b);
        check_bool "open rejects" false (Res.Breaker.allow b);
        check_bool "peek rejects" false (Res.Breaker.would_allow b);
        Res.Clock.advance clock 150.;
        check_bool "peek would probe" true (Res.Breaker.would_allow b);
        check_bool "probe allowed" true (Res.Breaker.allow b);
        check_bool "half-open" true (Res.Breaker.state b = Res.Breaker.Half_open);
        Res.Breaker.on_success b;
        check_bool "closed again" true (Res.Breaker.state b = Res.Breaker.Closed));
    case "failed half-open probe re-trips" (fun () ->
        let clock = Res.Clock.create () in
        let b =
          Res.Breaker.create
            ~config:{ Res.Breaker.failure_threshold = 1; cooldown_ms = 100. }
            clock
        in
        ignore (Res.Breaker.on_failure b);
        Res.Clock.advance clock 150.;
        check_bool "probe" true (Res.Breaker.allow b);
        check_bool "re-trip" true (Res.Breaker.on_failure b);
        check_bool "open" true (Res.Breaker.state b = Res.Breaker.Open);
        check_int "trips" 2 (Res.Breaker.trips b));
  ]

let guard_tests =
  let setup ?plan ?policy () =
    let instr = fresh_instr () in
    let ctl = Res.Control.create ?plan ~instr () in
    let f = Res.Faults.create ~source:"src" () in
    Res.Control.attach ctl f;
    (match policy with
    | Some p -> Res.Control.set_policy ctl ~source:"src" p
    | None -> ());
    (ctl, f, instr)
  in
  (* a guarded call that consults the fault handle like a real source *)
  let consult f () =
    match (Res.Faults.on_call f Res.Faults.Statement).v_fault with
    | Some fl -> failwith fl.Res.Faults.f_message
    | None -> "ok"
  in
  [
    case "default policy is a transparent pass-through" (fun () ->
        let ctl, f, _ = setup () in
        Res.Faults.inject_next f "boom";
        match Res.Control.guard ctl ~source:"src" (consult f) with
        | _ -> Alcotest.fail "expected the native failure"
        | exception Failure msg -> check_string "native" "boom" msg);
    case "transient injected failures are retried" (fun () ->
        let ctl, f, instr =
          setup ~policy:(Res.Policy.make ~max_retries:2 ()) ()
        in
        Res.Faults.inject_next f "blip";
        check_string "recovered" "ok"
          (Res.Control.guard ctl ~source:"src" (consult f));
        check_int "retries" 1 (counter instr Instr.K.resil_retries);
        check_bool "backoff advanced the clock" true
          (Res.Clock.now (Res.Control.clock ctl) > 0.));
    case "exhausted retries raise err:RESX0003" (fun () ->
        let ctl, f, instr =
          setup ~policy:(Res.Policy.make ~max_retries:2 ()) ()
        in
        Res.Faults.set_fail_every f (Some 1);
        match Res.Control.guard ctl ~source:"src" (consult f) with
        | _ -> Alcotest.fail "expected exhaustion"
        | exception Res.Control.Error { code; _ } ->
          check_string "code" "RESX0003" (Res.Control.code_name code);
          check_int "retries" 2 (counter instr Instr.K.resil_retries));
    case "genuine failures are never retried" (fun () ->
        let ctl, _, instr =
          setup ~policy:(Res.Policy.make ~max_retries:3 ()) ()
        in
        match
          Res.Control.guard ctl ~source:"src" (fun () -> failwith "genuine")
        with
        | _ -> Alcotest.fail "expected the failure through"
        | exception Failure msg ->
          check_string "native" "genuine" msg;
          check_int "no retries" 0 (counter instr Instr.K.resil_retries));
    case "virtual-time deadline raises err:RESX0001" (fun () ->
        let ctl, _, instr =
          setup ~policy:(Res.Policy.make ~timeout_ms:50. ()) ()
        in
        let clock = Res.Control.clock ctl in
        match
          Res.Control.guard ctl ~source:"src" (fun () ->
              Res.Clock.advance clock 80.;
              "slow")
        with
        | _ -> Alcotest.fail "expected a timeout"
        | exception Res.Control.Error { code; _ } ->
          check_string "code" "RESX0001" (Res.Control.code_name code);
          check_int "timeouts" 1 (counter instr Instr.K.resil_timeouts));
    case "breaker trips under repeated failures and rejects" (fun () ->
        let ctl, f, instr =
          setup
            ~policy:
              (Res.Policy.make
                 ~breaker:
                   { Res.Breaker.failure_threshold = 2; cooldown_ms = 1000. }
                 ())
            ()
        in
        Res.Faults.set_fail_every f (Some 1);
        let attempt () =
          match Res.Control.guard ctl ~source:"src" (consult f) with
          | _ -> None
          | exception e -> Some e
        in
        check_bool "failure 1" true (attempt () <> None);
        check_bool "failure 2" true (attempt () <> None);
        check_int "tripped" 1 (counter instr Instr.K.resil_trips);
        (match attempt () with
        | Some (Res.Control.Error { code; _ }) ->
          check_string "code" "RESX0002" (Res.Control.code_name code)
        | _ -> Alcotest.fail "expected an open-circuit rejection");
        check_int "rejected" 1 (counter instr Instr.K.resil_rejected);
        (* after the cooldown the half-open probe may go through and
           close the circuit again *)
        Res.Faults.set_fail_every f None;
        Res.Clock.advance (Res.Control.clock ctl) 1500.;
        check_string "probe recovers" "ok"
          (Res.Control.guard ctl ~source:"src" (consult f));
        check_bool "closed" true
          (Res.Control.breaker_state ctl ~source:"src"
          = Some Res.Breaker.Closed));
    case "check_strict rejects without consuming the probe" (fun () ->
        let ctl, _, _ =
          setup ~policy:(Res.Policy.make ~breaker:Res.Breaker.default_config ())
            ()
        in
        Res.Control.trip ctl ~source:"src";
        (match Res.Control.check_strict ctl ~source:"src" with
        | () -> Alcotest.fail "expected strict rejection"
        | exception Res.Control.Error { code; _ } ->
          check_string "code" "RESX0002" (Res.Control.code_name code));
        check_bool "still open" true
          (Res.Control.breaker_state ctl ~source:"src" = Some Res.Breaker.Open));
  ]

(* End-to-end request deadlines: the ambient budget installed by the
   server pool, enforced at every guarded source call. Virtual-clock
   driven, so every expiry here is deterministic. *)
let deadline_tests =
  let setup ?policy () =
    let instr = fresh_instr () in
    let ctl = Res.Control.create ~instr () in
    let f = Res.Faults.create ~source:"src" () in
    Res.Control.attach ctl f;
    (match policy with
    | Some p -> Res.Control.set_policy ctl ~source:"src" p
    | None -> ());
    (ctl, f, instr)
  in
  [
    case "budget drains on the virtual clock" (fun () ->
        let clock = Res.Clock.create () in
        let d = Res.Deadline.start ~clock ~budget_ms:100. () in
        check_bool "fresh" false (Res.Deadline.expired d);
        Res.Clock.advance clock 60.;
        check_bool "remaining in (30,45)" true
          (let r = Res.Deadline.remaining_ms d in
           r > 30. && r <= 40.);
        Res.Clock.advance clock 50.;
        check_bool "expired" true (Res.Deadline.expired d);
        check_bool "remaining clamps at zero" true
          (Res.Deadline.remaining_ms d = 0.));
    case "with_deadline installs, restores and nests" (fun () ->
        check_bool "ambient starts empty" true (Res.Deadline.current () = None);
        let d = Res.Deadline.start ~budget_ms:1000. () in
        Res.Deadline.with_deadline d (fun () ->
            check_bool "installed" true (Res.Deadline.current () = Some d);
            let inner = Res.Deadline.start ~budget_ms:5. () in
            Res.Deadline.with_deadline inner (fun () ->
                check_bool "inner shadows" true
                  (Res.Deadline.current () = Some inner));
            check_bool "outer restored" true
              (Res.Deadline.current () = Some d);
            Res.Deadline.exempt (fun () ->
                check_bool "exempt clears" true
                  (Res.Deadline.current () = None));
            check_bool "restored after exempt" true
              (Res.Deadline.current () = Some d));
        check_bool "ambient empty again" true (Res.Deadline.current () = None));
    case "guard fails fast on an exhausted budget" (fun () ->
        let ctl, _, instr = setup () in
        let clock = Res.Control.clock ctl in
        let d = Res.Deadline.start ~clock ~budget_ms:20. () in
        Res.Clock.advance clock 30.;
        let ran = ref false in
        (match
           Res.Deadline.with_deadline d (fun () ->
               Res.Control.guard ctl ~source:"src" (fun () -> ran := true))
         with
        | _ -> Alcotest.fail "expected deadline failure"
        | exception Res.Control.Error { code; source; _ } ->
          check_string "code" "RESX0005" (Res.Control.code_name code);
          check_string "source" "src" source);
        check_bool "work never started" false !ran;
        check_int "counted" 1 (counter instr Instr.K.overload_expired));
    case "remaining budget caps a slow call below the policy timeout"
      (fun () ->
        (* policy timeout 500 ms, but only 50 ms of budget remains: the
           call's virtual 80 ms must fail the request even though the
           per-call policy alone would have allowed it *)
        let ctl, _, _ =
          setup ~policy:(Res.Policy.make ~timeout_ms:500. ()) ()
        in
        let clock = Res.Control.clock ctl in
        let d = Res.Deadline.start ~clock ~budget_ms:50. () in
        match
          Res.Deadline.with_deadline d (fun () ->
              Res.Control.guard ctl ~source:"src" (fun () ->
                  Res.Clock.advance clock 80.;
                  "slow"))
        with
        | _ -> Alcotest.fail "expected deadline failure"
        | exception Res.Control.Error { code; _ } ->
          check_string "code" "RESX0005" (Res.Control.code_name code));
    case "deadline cuts a retry loop short" (fun () ->
        (* every attempt faults; with 3 retries allowed the policy alone
           would exhaust as RESX0003, but the budget dies during backoff
           first *)
        let ctl, f, instr =
          setup
            ~policy:(Res.Policy.make ~max_retries:3 ~backoff_ms:40. ())
            ()
        in
        Res.Faults.set_fail_every f (Some 1);
        let d =
          Res.Deadline.start ~clock:(Res.Control.clock ctl) ~budget_ms:60. ()
        in
        let consult () =
          match (Res.Faults.on_call f Res.Faults.Statement).v_fault with
          | Some fl -> failwith fl.Res.Faults.f_message
          | None -> "ok"
        in
        (match
           Res.Deadline.with_deadline d (fun () ->
               Res.Control.guard ctl ~source:"src" consult)
         with
        | _ -> Alcotest.fail "expected deadline failure"
        | exception Res.Control.Error { code; _ } ->
          check_string "code" "RESX0005" (Res.Control.code_name code));
        check_bool "fewer retries than the policy allows" true
          (counter instr Instr.K.resil_retries < 3));
    case "exempt shields XA-style work from an expired budget" (fun () ->
        let ctl, _, _ = setup () in
        let clock = Res.Control.clock ctl in
        let d = Res.Deadline.start ~clock ~budget_ms:10. () in
        Res.Clock.advance clock 50.;
        let v =
          Res.Deadline.with_deadline d (fun () ->
              Res.Deadline.exempt (fun () ->
                  Res.Control.guard ctl ~source:"src" (fun () -> "committed")))
        in
        check_string "ran to completion" "committed" v);
    case "brownout transitions bump counters once per edge" (fun () ->
        let instr = fresh_instr () in
        let ctl = Res.Control.create ~instr () in
        check_bool "starts clear" false (Res.Control.in_brownout ctl);
        Res.Control.set_brownout ctl true;
        Res.Control.set_brownout ctl true;
        check_bool "in brownout" true (Res.Control.in_brownout ctl);
        Res.Control.set_brownout ctl false;
        Res.Control.set_brownout ctl false;
        check_int "entered once" 1
          (counter instr Instr.K.overload_brownout_entered);
        check_int "exited once" 1
          (counter instr Instr.K.overload_brownout_exited));
  ]

let dataspace_tests =
  [
    case "transient db fault on a read is retried to success" (fun () ->
        (* a heavy plan whose db1 schedule faults the very first call *)
        let seed =
          let faults_first s =
            List.mem 1
              (Res.Plan.schedule_for
                 (Res.Plan.make ~seed:s ~profile:Res.Plan.Heavy ())
                 ~source:"db1")
                .Res.Plan.s_transients
          in
          let rec find s = if faults_first s then s else find (s + 1) in
          find 1
        in
        let instr = fresh_instr () in
        let ctl =
          Res.Control.create
            ~plan:(Res.Plan.make ~seed ~profile:Res.Plan.Heavy ())
            ~instr ()
        in
        Res.Control.set_policy ctl ~source:"db1"
          (Res.Policy.make ~max_retries:3 ());
        Res.Control.set_policy ctl ~source:"db2"
          (Res.Policy.make ~max_retries:3 ());
        Res.Control.set_policy ctl ~source:"CreditRatingService"
          (Res.Policy.make ~max_retries:3 ());
        let env = FC.make ~customers:2 ~instr ~resilience:ctl () in
        let dg = FC.get_profile_by_id env "007" in
        check_bool "profile read" true (Sdo.roots dg <> []);
        check_bool "retried" true (counter instr Instr.K.resil_retries > 0);
        check_bool "injected" true (counter instr Instr.K.resil_injected > 0));
    case "hard db fault without degradation surfaces err:RESX0004" (fun () ->
        let env = FC.make ~customers:2 () in
        Res.Faults.set_schedule
          (R.Database.faults env.FC.db1)
          (sched ~windows:[ { Res.Plan.w_from = 0.; w_until = 1e9 } ] "db1");
        match FC.get_profile_by_id env "007" with
        | _ -> Alcotest.fail "expected the read to fail"
        | exception Item.Error { code; _ } ->
          check_string "code" "RESX0004" code.Qname.local);
    case "open ws breaker degrades getProfile and blocks submit" (fun () ->
        let instr = fresh_instr () in
        let ctl = Res.Control.create ~instr () in
        Res.Control.set_policy ctl ~source:"CreditRatingService"
          (Res.Policy.make ~breaker:Res.Breaker.default_config ());
        Res.Control.set_degradable ctl ~source:"CreditRatingService";
        let env = FC.make ~customers:2 ~instr ~resilience:ctl () in
        Res.Control.trip ctl ~source:"CreditRatingService";
        let dg = FC.get_profile_by_id env "007" in
        (* the profile is well-formed, just missing the rating *)
        (match Sdo.roots dg with
        | [ profile ] ->
          let child name =
            List.exists
              (fun c ->
                match Node.name c with
                | Some q -> q.Qname.local = name
                | None -> false)
              (Node.children profile)
          in
          check_bool "cards kept" true (child "CreditCards");
          check_bool "rating dropped" false (child "CreditRating")
        | _ -> Alcotest.fail "expected one profile root");
        check_bool "degraded counted" true
          (counter instr Instr.K.resil_degraded > 0);
        (match Res.Control.degradations ctl with
        | d :: _ ->
          check_string "source" "CreditRatingService" d.Res.Control.dg_source;
          check_string "code" "RESX0002" d.Res.Control.dg_code
        | [] -> Alcotest.fail "expected a degradation report");
        (* resil:degradations() surfaces the report to queries *)
        let report =
          Xqse.Session.eval_to_string
            (Aldsp.Dataspace.session env.FC.ds)
            "resil:degradations()"
        in
        check_bool "report names source" true
          (contains report "CreditRatingService");
        check_bool "report names code" true (contains report "RESX0002");
        (* …while the same open breaker makes submit fail strictly *)
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Blocked";
        (match Aldsp.Dataspace.submit env.FC.ds env.FC.svc dg with
        | _ -> Alcotest.fail "expected a strict rejection"
        | exception Item.Error { code; _ } ->
          check_string "code" "RESX0002" code.Qname.local);
        match R.Table.find_pk env.FC.customer [ R.Value.Text "007" ] with
        | Some row ->
          check_string "db untouched" "Carrey"
            (R.Value.to_string (R.Table.get row env.FC.customer "LAST_NAME"))
        | None -> Alcotest.fail "customer 007 missing");
  ]

let uc4_tests =
  [
    case "UC4: transient backup fault is retried to success" (fun () ->
        let instr = fresh_instr () in
        let ctl = Res.Control.create ~instr () in
        Res.Control.set_policy ctl ~source:"backup"
          (Res.Policy.make ~max_retries:3 ());
        let env = FE.make ~employees:4 ~instr ~resilience:ctl () in
        FE.load_all_use_cases env;
        Res.Faults.inject_next (R.Database.faults env.FE.backup) "blip";
        let keys =
          Aldsp.Dataspace.call env.FE.ds (uc "create")
            [ [ Item.Node (employee_xml 50 "Nora Park") ] ]
        in
        check_int "one key" 1 (List.length keys);
        check_bool "primary" true
          (R.Table.find_pk env.FE.employee [ R.Value.Int 50 ] <> None);
        check_bool "backup" true
          (R.Table.find_pk env.FE.emp2 [ R.Value.Int 50 ] <> None);
        check_bool "retried" true (counter instr Instr.K.resil_retries > 0));
    case "UC4: hard backup fault is caught with the stable code" (fun () ->
        let ctl = Res.Control.create () in
        Res.Control.set_policy ctl ~source:"backup"
          (Res.Policy.make ~max_retries:2 ());
        let env = FE.make ~employees:4 ~resilience:ctl () in
        FE.load_all_use_cases env;
        Res.Faults.set_fail_after (R.Database.faults env.FE.backup) (Some 0);
        Res.Faults.set_fail_every (R.Database.faults env.FE.backup) (Some 1);
        match
          Aldsp.Dataspace.call env.FE.ds (uc "create")
            [ [ Item.Node (employee_xml 60 "Faily McFail") ] ]
        with
        | _ -> Alcotest.fail "expected failure"
        | exception Item.Error { code; message; _ } ->
          check_string "code" "SECONDARY_CREATE_FAILURE" code.Qname.local;
          check_bool "stable code in catch" true (contains message "RESX0003");
          check_bool "backup untouched" true
            (R.Table.find_pk env.FE.emp2 [ R.Value.Int 60 ] = None));
  ]

let xa_tests =
  let mk name =
    let db = R.Database.create name in
    ignore
      (R.Database.add_table db
         {
           R.Table.tbl_name = "T";
           columns =
             [
               {
                 R.Table.col_name = "ID";
                 col_type = R.Value.T_int;
                 nullable = false;
               };
             ];
           primary_key = [ "ID" ];
           foreign_keys = [];
         });
    db
  in
  let prepares evs =
    List.filter
      (function R.Xa.Prepare_ok _ | R.Xa.Prepare_failed _ -> true | _ -> false)
      evs
  in
  let index p evs =
    let rec go i = function
      | [] -> None
      | e :: rest -> if p e then Some i else go (i + 1) rest
    in
    go 0 evs
  in
  [
    case "2 participants: full prepare round then commits" (fun () ->
        let a = mk "a" and b = mk "b" in
        let result, trace = R.Xa.run_traced [ a; b ] (fun () -> ()) in
        check_bool "committed" true (result = Ok ());
        check_int "both voted" 2 (List.length (prepares trace));
        check_bool "votes ok" true
          (List.for_all
             (function R.Xa.Prepare_ok _ -> true | _ -> false)
             (prepares trace));
        check_int "both committed" 2
          (List.length
             (List.filter
                (function R.Xa.Commit _ -> true | _ -> false)
                trace)));
    case "3 participants: every vote lands before the decision" (fun () ->
        let a = mk "a" and b = mk "b" and c = mk "c" in
        Res.Faults.set_fail_on_prepare (R.Database.faults b) true;
        let result, trace = R.Xa.run_traced [ a; b; c ] (fun () -> ()) in
        check_bool "aborted" true (match result with Error _ -> true | Ok _ -> false);
        (* ALL three participants vote, even after b's failure *)
        check_int "three votes" 3 (List.length (prepares trace));
        check_bool "b voted no" true
          (List.exists
             (function R.Xa.Prepare_failed "b" -> true | _ -> false)
             trace);
        check_bool "c still voted" true
          (List.exists
             (function R.Xa.Prepare_ok "c" -> true | _ -> false)
             trace);
        (* …and only then does the coordinator decide *)
        let last_vote =
          index
            (function R.Xa.Prepare_ok "c" -> true | _ -> false)
            trace
        and first_rollback =
          index (function R.Xa.Rollback _ -> true | _ -> false) trace
        in
        (match (last_vote, first_rollback) with
        | Some v, Some r -> check_bool "votes before rollback" true (v < r)
        | _ -> Alcotest.fail "missing events");
        check_int "all rolled back" 3
          (List.length
             (List.filter
                (function R.Xa.Rollback _ -> true | _ -> false)
                trace));
        check_bool "nobody committed" true
          (not (List.exists (function R.Xa.Commit _ -> true | _ -> false) trace)));
    case "injected commit fault is retried to completion" (fun () ->
        let a = mk "a" and b = mk "b" in
        Res.Faults.set_schedule
          (R.Database.faults b)
          (sched ~commits:[ 1 ] "b");
        let result, trace = R.Xa.run_traced [ a; b ] (fun () -> ()) in
        check_bool "committed" true (result = Ok ());
        check_int "both commit despite the fault" 2
          (List.length
             (List.filter
                (function R.Xa.Commit _ -> true | _ -> false)
                trace)));
  ]

let webservice_tests =
  let mk_ws () =
    let ws = Webservice.create ~name:"Echo" ~namespace:"urn:echo" in
    Webservice.add_operation ws
      {
        Webservice.op_name = "echo";
        op_input = Qname.make ~uri:"urn:echo" "echoRequest";
        op_output = Qname.make ~uri:"urn:echo" "echoResponse";
        op_doc = "echoes its input";
        op_handler =
          (fun req ->
            Node.element
              (Qname.make ~uri:"urn:echo" "echoResponse")
              [ Node.text (Node.string_value req) ]);
      };
    Webservice.set_latency ws 5.;
    ws
  in
  let request s =
    Node.element (Qname.make ~uri:"urn:echo" "echoRequest") [ Node.text s ]
  in
  let faults f = match f () with
    | _ -> false
    | exception Webservice.Fault _ -> true
  in
  [
    case "unknown operation counts as a call, accrues no latency" (fun () ->
        let ws = mk_ws () in
        check_bool "faults" true (faults (fun () -> Webservice.invoke ws "nope" (request "x")));
        check_int "counted" 1 (Webservice.call_count ws);
        check_bool "no latency" true (Webservice.total_latency ws = 0.));
    case "validation fault counts as a call, accrues no latency" (fun () ->
        let ws = mk_ws () in
        check_bool "faults" true
          (faults (fun () ->
               Webservice.invoke ws "echo" (Node.element (Qname.local "bad") [])));
        check_int "counted" 1 (Webservice.call_count ws);
        check_bool "no latency" true (Webservice.total_latency ws = 0.));
    case "injected fault counts as a call, accrues no latency" (fun () ->
        let ws = mk_ws () in
        Res.Faults.inject_next (Webservice.faults ws) "boom";
        check_bool "faults" true (faults (fun () -> Webservice.invoke ws "echo" (request "x")));
        check_int "counted" 1 (Webservice.call_count ws);
        check_bool "no latency" true (Webservice.total_latency ws = 0.));
    case "successful invoke accrues latency on clock and total" (fun () ->
        let ws = mk_ws () in
        ignore (Webservice.invoke ws "echo" (request "x"));
        ignore (Webservice.invoke ws "echo" (request "y"));
        check_int "counted" 2 (Webservice.call_count ws);
        check_bool "latency" true (Webservice.total_latency ws = 10.);
        check_bool "virtual clock" true
          (Res.Clock.now (Res.Faults.clock (Webservice.faults ws)) = 10.));
  ]

let chaos_tests =
  [
    case "50+ seeded schedules: no partial commits, full replay" (fun () ->
        let exercised = ref 0 in
        for seed = 1 to 55 do
          let r = Fixtures.Chaos.run ~seed ~profile:Res.Plan.Heavy () in
          (match r.Fixtures.Chaos.r_violations with
          | [] -> ()
          | v :: _ -> Alcotest.failf "atomicity violation: %s" v);
          if r.Fixtures.Chaos.r_injected > 0 then incr exercised;
          check_bool "rounds ran" true
            (r.Fixtures.Chaos.r_committed + r.Fixtures.Chaos.r_failed
             + r.Fixtures.Chaos.r_read_failures
            > 0)
        done;
        (* the plans actually injected faults in almost every run *)
        check_bool "chaos exercised" true (!exercised > 45));
    case "a chaos run is a pure function of its seed" (fun () ->
        for seed = 1 to 5 do
          let r1 = Fixtures.Chaos.run ~seed ~profile:Res.Plan.Heavy () in
          let r2 = Fixtures.Chaos.run ~seed ~profile:Res.Plan.Heavy () in
          check_bool "replay" true (r1 = r2)
        done);
    case "calm profile commits every round" (fun () ->
        let r = Fixtures.Chaos.run ~seed:3 ~profile:Res.Plan.Calm () in
        check_bool "no violations" true (r.Fixtures.Chaos.r_violations = []));
  ]

let suites =
  [
    ("resilience clock+rng", clock_tests);
    ("resilience plan", plan_tests);
    ("resilience faults", fault_tests);
    ("resilience breaker", breaker_tests);
    ("resilience guard", guard_tests);
    ("resilience deadline", deadline_tests);
    ("resilience dataspace", dataspace_tests);
    ("resilience uc4", uc4_tests);
    ("resilience xa", xa_tests);
    ("resilience webservice", webservice_tests);
    ("resilience chaos", chaos_tests);
  ]
