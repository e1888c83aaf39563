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
          (Res.Faults.on_call f Res.Faults.Read = None);
        check_bool "statement faults" true
          (Res.Faults.on_call f Res.Faults.Statement <> None);
        check_bool "once" true
          (Res.Faults.on_call f Res.Faults.Statement = None));
    case "scheduled transient fires at its call index" (fun () ->
        let f = Res.Faults.create ~source:"db" () in
        Res.Faults.set_schedule f (sched ~transients:[ 2 ] "db");
        check_bool "call 1 ok" true
          (Res.Faults.on_call f Res.Faults.Read = None);
        match Res.Faults.on_call f Res.Faults.Read with
        | Some text -> check_string "text" "scheduled transient (call 2)" text
        | None -> Alcotest.fail "expected a fault at call 2");
    case "latency spikes are charged to the virtual clock" (fun () ->
        let f = Res.Faults.create ~source:"db" () in
        Res.Faults.set_schedule f (sched ~spikes:[ (1, 25.) ] "db");
        check_bool "no fault" true (Res.Faults.on_call f Res.Faults.Read = None);
        check_bool "clock" true (Res.Clock.now (Res.Faults.clock f) = 25.));
    case "hard-down windows fault by virtual time, not call count" (fun () ->
        let f = Res.Faults.create ~source:"db" () in
        Res.Faults.set_schedule f
          (sched ~windows:[ { Res.Plan.w_from = 0.; w_until = 100. } ] "db");
        (match Res.Faults.on_call f Res.Faults.Read with
        | Some text -> check_string "text" "source down (window 0..100ms)" text
        | None -> Alcotest.fail "expected a window fault");
        Res.Clock.advance (Res.Faults.clock f) 150.;
        check_bool "after window" true
          (Res.Faults.on_call f Res.Faults.Read = None));
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
  let call ctl f = Res.Control.call ctl (Res.Control.source ctl "src") f () in
  (* a guarded call that consults the fault handle like a real source *)
  let consult f () =
    match Res.Faults.on_call f Res.Faults.Statement with
    | Some text -> Res.Faults.fail text
    | None -> "ok"
  in
  [
    case "default policy is a transparent pass-through" (fun () ->
        let ctl, f, _ = setup () in
        Res.Faults.inject_next f "boom";
        match call ctl (consult f) with
        | _ -> Alcotest.fail "expected the injected fault"
        | exception Item.Error { code; message; _ } ->
          check_string "code" "RESX0004" code.Qname.local;
          check_string "text" "boom" message);
    case "transient injected failures are retried" (fun () ->
        let ctl, f, instr =
          setup ~policy:(Res.Policy.make ~max_retries:2 ()) ()
        in
        Res.Faults.inject_next f "blip";
        check_string "recovered" "ok"
          (call ctl (consult f));
        check_int "retries" 1 (counter instr Instr.K.resil_retries);
        check_bool "backoff advanced the clock" true
          (Res.Clock.now (Res.Control.clock ctl) > 0.));
    case "exhausted retries raise err:RESX0003" (fun () ->
        let ctl, f, instr =
          setup ~policy:(Res.Policy.make ~max_retries:2 ()) ()
        in
        Res.Faults.set_fail_every f (Some 1);
        match call ctl (consult f) with
        | _ -> Alcotest.fail "expected exhaustion"
        | exception Item.Error { code; _ } ->
          check_string "code" "RESX0003" code.Qname.local;
          check_int "retries" 2 (counter instr Instr.K.resil_retries));
    case "two domains' injected faults each exhaust to err:RESX0003"
      (fun () ->
        (* the guard tells an injected fault by its code alone, so a
           fault another domain's call drew cannot mislabel this one *)
        let ctl, f, _ =
          setup ~policy:(Res.Policy.make ~max_retries:2 ()) ()
        in
        Res.Faults.set_fail_every f (Some 1);
        let calls () =
          let others = ref 0 in
          for _ = 1 to 1000 do
            match call ctl (consult f) with
            | _ -> incr others
            | exception Item.Error { code = { local = "RESX0003"; _ }; _ } -> ()
            | exception _ -> incr others
          done;
          !others
        in
        let other_domain = Domain.spawn calls in
        let here = calls () in
        check_int "calls that did not end in RESX0003" 0
          (here + Domain.join other_domain));
    case "genuine failures are never retried" (fun () ->
        let ctl, _, instr =
          setup ~policy:(Res.Policy.make ~max_retries:3 ()) ()
        in
        match
          call ctl (fun () -> failwith "genuine")
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
          call ctl (fun () ->
              Res.Clock.advance clock 80.;
              "slow")
        with
        | _ -> Alcotest.fail "expected a timeout"
        | exception Item.Error { code; _ } ->
          check_string "code" "RESX0001" code.Qname.local;
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
          match call ctl (consult f) with
          | _ -> None
          | exception e -> Some e
        in
        check_bool "failure 1" true (attempt () <> None);
        check_bool "failure 2" true (attempt () <> None);
        check_int "tripped" 1 (counter instr Instr.K.resil_trips);
        (match attempt () with
        | Some (Item.Error { code; _ }) ->
          check_string "code" "RESX0002" code.Qname.local
        | _ -> Alcotest.fail "expected an open-circuit rejection");
        check_int "rejected" 1 (counter instr Instr.K.resil_rejected);
        (* after the cooldown the half-open probe may go through and
           close the circuit again *)
        Res.Faults.set_fail_every f None;
        Res.Clock.advance (Res.Control.clock ctl) 1500.;
        check_string "probe recovers" "ok"
          (call ctl (consult f));
        check_bool "closed" true
          (Res.Control.breaker_state ctl ~source:"src"
          = Some Res.Breaker.Closed));
    case "check_strict rejects without consuming the probe" (fun () ->
        let ctl, _, _ =
          setup ~policy:(Res.Policy.make ~breaker:Res.Breaker.default_config ())
            ()
        in
        Res.Control.trip ctl ~source:"src";
        (match Res.Control.check_strict ctl (Res.Control.source ctl "src") with
        | () -> Alcotest.fail "expected strict rejection"
        | exception Item.Error { code; _ } ->
          check_string "code" "RESX0002" code.Qname.local);
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
  let call ctl f = Res.Control.call ctl (Res.Control.source ctl "src") f () in
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
               call ctl (fun () -> ran := true))
         with
        | _ -> Alcotest.fail "expected deadline failure"
        | exception Item.Error { code; message; _ } ->
          check_string "code" "RESX0005" code.Qname.local;
          check_bool "source" true (String.starts_with ~prefix:"src: " message));
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
              call ctl (fun () ->
                  Res.Clock.advance clock 80.;
                  "slow"))
        with
        | _ -> Alcotest.fail "expected deadline failure"
        | exception Item.Error { code; _ } ->
          check_string "code" "RESX0005" code.Qname.local);
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
          match Res.Faults.on_call f Res.Faults.Statement with
          | Some text -> Res.Faults.fail text
          | None -> "ok"
        in
        (match
           Res.Deadline.with_deadline d (fun () ->
               call ctl consult)
         with
        | _ -> Alcotest.fail "expected deadline failure"
        | exception Item.Error { code; _ } ->
          check_string "code" "RESX0005" code.Qname.local);
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
                  call ctl (fun () -> "committed")))
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

(* The source boundary, walked function by function: every source
   function the CustomerProfile dataspace registers — the three tables'
   reads and create/update/delete, both foreign-key navigations, the
   credit-rating operation, and the logical service's lineage
   navigations and generated procedures — is admitted by its source's
   breaker, degraded under brownout and fails natively the same way. *)
type access = Read | Write

type boundary_fn = {
  b_fn : Qname.t;
  b_source : string;  (* whose guard admits the call *)
  b_access : access;
  b_native : Qname.t;  (* what a failure of the source surfaces as *)
  b_args : FC.env -> Item.seq list;  (* a valid call, fetched while healthy *)
}

let boundary_fns =
  let xml text _ =
    [ List.map (fun n -> Item.Node n) (Xml_parse.parse_fragment text) ]
  in
  let query q env =
    [ Xqse.Session.eval (Aldsp.Dataspace.session env.FC.ds) q ]
  in
  (* a table's read and its create/update/delete: 007's rows exist,
     [fresh] names a row that does not *)
  let table db tname ~fresh =
    let fn = Qname.make ~uri:(Printf.sprintf "ld:%s/%s" db tname) in
    let write verb args =
      { b_fn = fn (verb ^ tname); b_source = db; b_access = Write;
        b_native = fn (String.capitalize_ascii verb ^ "Error");
        b_args = args }
    in
    [
      { b_fn = fn tname; b_source = db; b_access = Read;
        b_native = Qname.err "RESX0004"; b_args = (fun _ -> []) };
      write "create" (xml fresh);
      write "update"
        (query
           (Printf.sprintf "%s:%s()[CID eq '007']"
              (String.lowercase_ascii tname) tname));
      write "delete" (xml fresh);
    ]
  in
  let profile = Qname.make ~uri:FC.profile_ns in
  let instance cid = query (Printf.sprintf "profile:getProfileById('%s')" cid) in
  let lineage_nav row source =
    { b_fn = profile ("get" ^ row); b_source = source; b_access = Read;
      b_native = Qname.err "RESX0004"; b_args = instance "007" }
  in
  let generated verb args =
    { b_fn = profile (verb ^ "CustomerProfile"); b_source = "db1";
      b_access = Write;
      b_native = profile (String.capitalize_ascii verb ^ "Error");
      b_args = args }
  in
  table "db1" "CUSTOMER"
    ~fresh:
      "<CUSTOMER><CID>N1</CID><FIRST_NAME>Ann</FIRST_NAME><LAST_NAME>New</LAST_NAME></CUSTOMER>"
  @ table "db1" "ORDERS" ~fresh:"<ORDERS><OID>777</OID><CID>007</CID></ORDERS>"
  @ table "db2" "CREDIT_CARD"
      ~fresh:"<CREDIT_CARD><CCID>777</CCID><CID>007</CID></CREDIT_CARD>"
  @ [
      { b_fn = Qname.make ~uri:"ld:db1/CUSTOMER" "getORDERS"; b_source = "db1";
        b_access = Read; b_native = Qname.err "RESX0004";
        b_args = query "customer:CUSTOMER()[CID eq '007']" };
      { b_fn = Qname.make ~uri:"ld:db1/ORDERS" "getCUSTOMER"; b_source = "db1";
        b_access = Read; b_native = Qname.err "RESX0004";
        b_args = query "orders:ORDERS()[CID eq '007']" };
      { b_fn = Qname.make ~uri:"urn:creditrating" "getCreditRating";
        b_source = "CreditRatingService"; b_access = Read;
        b_native = Qname.make ~uri:"urn:creditrating" "Fault";
        b_args =
          xml
            {|<crs:getCreditRating xmlns:crs="urn:creditrating"><crs:lastName>Carrey</crs:lastName><crs:ssn>111-22-3333</crs:ssn></crs:getCreditRating>|} };
      lineage_nav "ORDERS" "db1";
      lineage_nav "CREDIT_CARD" "db2";
      generated "create"
        (xml
           {|<p:CustomerProfile xmlns:p="ld:CustomerProfile"><CID>N2</CID><LAST_NAME>New</LAST_NAME><FIRST_NAME>Ann</FIRST_NAME><Orders/><CreditCards/></p:CustomerProfile>|});
      generated "update" (instance "007");
      generated "delete" (instance "C1");
    ]

let boundary_tests =
  let sources = [ "db1"; "db2"; "CreditRatingService" ] in
  (* a fresh dataspace whose sources all have breakers, and the
     function's arguments read from it while it is healthy *)
  let setup fn =
    let ctl = Res.Control.create () in
    List.iter
      (fun source ->
        Res.Control.set_policy ctl ~source
          (Res.Policy.make ~breaker:Res.Breaker.default_config ()))
      sources;
    let env = FC.make ~customers:3 ~resilience:ctl () in
    (ctl, env, fn.b_args env)
  in
  let call env fn args = Aldsp.Dataspace.call env.FC.ds fn.b_fn args in
  let faults env = function
    | "db1" -> R.Database.faults env.FC.db1
    | "db2" -> R.Database.faults env.FC.db2
    | _ -> Webservice.faults env.FC.ws
  in
  let expect_error what expected f =
    match f () with
    | _ -> Alcotest.failf "%s: expected %s" what (Qname.to_string expected)
    | exception Item.Error { code; _ } ->
      check_string what (Qname.to_string expected) (Qname.to_string code)
  in
  let name fn = Qname.to_string fn.b_fn in
  List.concat_map
    (fun fn ->
      [
        case (name fn ^ ": an open breaker refuses it before any statement")
          (fun () ->
            let ctl, env, args = setup fn in
            Res.Control.trip ctl ~source:fn.b_source;
            let logs () =
              (R.Database.log_size env.FC.db1, R.Database.log_size env.FC.db2)
            in
            let before = logs () in
            expect_error (name fn) (Qname.err "RESX0002") (fun () ->
                call env fn args);
            check_bool "no statement ran" true (logs () = before));
        case (name fn ^ ": a failure of its source surfaces natively")
          (fun () ->
            let _, env, args = setup fn in
            (match (fn.b_access, fn.b_source) with
            | Read, ("db1" | "db2") ->
              Res.Faults.set_schedule (faults env fn.b_source)
                (sched
                   ~windows:[ { Res.Plan.w_from = 0.; w_until = 1e9 } ]
                   fn.b_source)
            | _ -> Res.Faults.inject_next (faults env fn.b_source) "down");
            expect_error (name fn) fn.b_native (fun () -> call env fn args));
      ]
      @
      match fn.b_access with
      | Write -> []
      | Read ->
        [
          case (name fn ^ ": a degradable source in brownout reads empty")
            (fun () ->
              let ctl, env, args = setup fn in
              check_bool "rows while healthy" true (call env fn args <> []);
              Res.Control.set_degradable ctl ~source:fn.b_source;
              Res.Control.set_brownout ctl true;
              check_int "empty" 0 (List.length (call env fn args));
              match Res.Control.degradations ctl with
              | [ d ] ->
                check_string "noted source" fn.b_source d.Res.Control.dg_source;
                check_string "noted code" "BROWNOUT" d.Res.Control.dg_code
              | ds -> Alcotest.failf "%d degradation notes" (List.length ds));
        ])
    boundary_fns

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
    case "an injected fault drawn outside the guard leaves no trace"
      (fun () ->
        let instr = fresh_instr () in
        let ctl = Res.Control.create ~instr () in
        let env = FC.make ~customers:3 ~instr ~resilience:ctl () in
        (* an unguarded statement draws the fault, as the XA submit path
           does *)
        Res.Faults.inject_next (R.Database.faults env.FC.db1) "blip";
        (match
           R.Database.exec env.FC.db1
             (R.Database.Delete { table = "ORDERS"; where = R.Pred.False })
         with
        | _ -> Alcotest.fail "expected the injected fault"
        | exception Item.Error { code = { local = "RESX0004"; _ }; _ } -> ());
        Res.Control.set_policy ctl ~source:"db1"
          (Res.Policy.make ~max_retries:0
             ~breaker:{ Res.Breaker.failure_threshold = 1; cooldown_ms = 1e6 }
             ());
        let sess = Aldsp.Dataspace.session env.FC.ds in
        (* a duplicate key is a genuine failure: no retry, no trip *)
        (match
           Xqse.Session.eval sess
             {| { customer:createCUSTOMER(
                    <CUSTOMER><CID>007</CID><FIRST_NAME>A</FIRST_NAME><LAST_NAME>B</LAST_NAME></CUSTOMER>); } |}
         with
        | _ -> Alcotest.fail "expected CreateError"
        | exception Item.Error { code; _ } ->
          check_string "code" "{ld:db1/CUSTOMER}CreateError"
            (Qname.to_string code));
        check_int "retries" 0 (counter instr Instr.K.resil_retries);
        check_int "trips" 0 (counter instr Instr.K.resil_trips);
        check_string "db1 still serves reads" "4"
          (Xqse.Session.eval_to_string sess "count(customer:CUSTOMER())"));
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
    let instr = fresh_instr () in
    Webservice.set_instr ws instr;
    (ws, instr)
  in
  let request s =
    Node.element (Qname.make ~uri:"urn:echo" "echoRequest") [ Node.text s ]
  in
  let faults code f =
    match f () with
    | _ -> false
    | exception Item.Error { code = c; _ } -> Qname.equal c code
  in
  let ws_fault = Qname.make ~uri:"urn:echo" "Fault" in
  [
    case "unknown operation counts as a call" (fun () ->
        let ws, instr = mk_ws () in
        check_bool "faults" true
          (faults ws_fault (fun () -> Webservice.invoke ws "nope" (request "x")));
        check_int "counted" 1 (counter instr Instr.K.ws_calls);
        check_int "faulted" 1 (counter instr Instr.K.ws_faults));
    case "validation fault counts as a call" (fun () ->
        let ws, instr = mk_ws () in
        check_bool "faults" true
          (faults ws_fault (fun () ->
               Webservice.invoke ws "echo" (Node.element (Qname.local "bad") [])));
        check_int "counted" 1 (counter instr Instr.K.ws_calls);
        check_int "faulted" 1 (counter instr Instr.K.ws_faults));
    case "injected fault counts as a call" (fun () ->
        let ws, instr = mk_ws () in
        Res.Faults.inject_next (Webservice.faults ws) "boom";
        check_bool "faults" true
          (faults (Qname.err "RESX0004") (fun () ->
               Webservice.invoke ws "echo" (request "x")));
        check_int "counted" 1 (counter instr Instr.K.ws_calls);
        check_int "faulted" 1 (counter instr Instr.K.ws_faults));
    case "successful invokes count as calls" (fun () ->
        let ws, instr = mk_ws () in
        ignore (Webservice.invoke ws "echo" (request "x"));
        ignore (Webservice.invoke ws "echo" (request "y"));
        check_int "counted" 2 (counter instr Instr.K.ws_calls);
        check_int "no faults" 0 (counter instr Instr.K.ws_faults));
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
    ("resilience boundary", boundary_tests);
    ("resilience uc4", uc4_tests);
    ("resilience xa", xa_tests);
    ("resilience webservice", webservice_tests);
    ("resilience chaos", chaos_tests);
  ]
