(* The instrumentation subsystem: counter/timer bookkeeping on the
   handle itself, span emission and nesting through both sinks, and the
   counters the engine components report on known workloads. *)

open Util
open Core
open Core.Xdm
module FC = Fixtures.Customer_profile

(* crude JSON-line field extraction — enough to check the hand-emitted
   span objects without a JSON parser dependency *)
let field line name =
  let needle = Printf.sprintf "\"%s\":" name in
  let nl = String.length needle and ll = String.length line in
  let rec find i =
    if i + nl > ll then None
    else if String.sub line i nl = needle then Some (i + nl)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = ref start in
    while
      !stop < ll && (match line.[!stop] with ',' | '}' -> false | _ -> true)
    do
      incr stop
    done;
    Some (String.sub line start (!stop - start))

let int_field line name =
  match field line name with
  | Some v -> int_of_string v
  | None -> Alcotest.failf "field %s missing in %s" name line

let str_field line name =
  match field line name with
  | Some v when String.length v >= 2 -> String.sub v 1 (String.length v - 2)
  | _ -> Alcotest.failf "string field %s missing in %s" name line

(* missing = never bumped = zero *)
let counter stats name =
  Option.value ~default:0 (List.assoc_opt name stats.Instr.counters)

let handle_tests =
  [
    case "counters accumulate in first-seen order" (fun () ->
        let i = Instr.create () in
        Instr.enable i;
        Instr.bump i "b.second";
        Instr.bump i ~n:3 "a.first";
        Instr.bump i "b.second";
        check_bool "order" true
          ((Instr.stats i).Instr.counters = [ ("b.second", 2); ("a.first", 3) ]));
    case "bump is a no-op while disabled" (fun () ->
        let i = Instr.create () in
        Instr.bump i "x";
        check_int "nothing recorded" 0
          (List.length (Instr.stats i).Instr.counters);
        Instr.enable i;
        Instr.disable i;
        Instr.bump i "x";
        check_int "still nothing" 0 (List.length (Instr.stats i).Instr.counters));
    case "the shared disabled handle refuses enable" (fun () ->
        check_bool "off" false (Instr.enabled Instr.disabled);
        match Instr.enable Instr.disabled with
        | () -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    case "since computes a per-query delta" (fun () ->
        let i = Instr.create () in
        Instr.enable i;
        Instr.bump i ~n:5 "q";
        let before = Instr.stats i in
        Instr.bump i ~n:2 "q";
        Instr.bump i "fresh";
        let d = Instr.since i before in
        check_int "existing counter delta" 2 (counter d "q");
        check_int "counter born after the snapshot" 1 (counter d "fresh"));
    case "reset zeroes values but keeps registrations" (fun () ->
        let i = Instr.create () in
        Instr.enable i;
        Instr.bump i ~n:9 "k";
        Instr.reset i;
        check_bool "still listed, now zero" true
          ((Instr.stats i).Instr.counters = [ ("k", 0) ]));
    case "preregister lists every engine key at zero" (fun () ->
        let i = Instr.create () in
        Instr.preregister i;
        let st = Instr.stats i in
        List.iter
          (fun k ->
            check_bool (k ^ " listed") true
              (List.mem_assoc k st.Instr.counters);
            check_int k 0 (counter st k))
          [
            Instr.K.queries_compiled;
            Instr.K.optimizer_joins;
            Instr.K.sql_executed;
            Instr.K.rows_fetched;
            Instr.K.ws_calls;
            Instr.K.sdo_submits;
          ]);
    case "render aligns counters and can omit timers" (fun () ->
        let i = Instr.create () in
        Instr.enable i;
        Instr.bump i ~n:7 "a.count";
        Instr.span i "work" (fun () -> ());
        let full = Instr.render (Instr.stats i) in
        let no_times = Instr.render ~times:false (Instr.stats i) in
        let contains hay needle =
          let nl = String.length needle and hl = String.length hay in
          let rec go i =
            i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
          in
          go 0
        in
        check_bool "counter line" true (contains full "a.count");
        check_bool "value" true (contains full "7");
        check_bool "timer line" true (contains full "time.work.ms");
        check_bool "timers omitted" false (contains no_times "time.work.ms"));
    case "span durations accumulate into timers" (fun () ->
        let i = Instr.create () in
        Instr.enable i;
        Instr.span i "w" (fun () -> ());
        Instr.span i "w" (fun () -> ());
        match (Instr.stats i).Instr.timers with
        | [ ("w", ms) ] -> check_bool "non-negative" true (ms >= 0.)
        | l -> Alcotest.failf "expected one timer, got %d" (List.length l));
    case "noting requires both enablement and a live sink" (fun () ->
        let i = Instr.create () in
        check_bool "disabled" false (Instr.noting i);
        Instr.enable i;
        check_bool "null sink" false (Instr.noting i);
        Instr.set_sink i (Instr.Text ignore);
        check_bool "enabled + text" true (Instr.noting i));
  ]

let span_tests =
  [
    case "json spans carry id/parent/depth nesting" (fun () ->
        let lines = ref [] in
        let i = Instr.create ~sink:(Instr.Json (fun l -> lines := l :: !lines)) () in
        Instr.enable i;
        Instr.span i "outer" (fun () ->
            Instr.span i "inner" (fun () -> ()));
        match List.rev !lines with
        | [ inner; outer ] ->
          (* children complete — and print — before their parents *)
          check_string "inner first" "inner" (str_field inner "name");
          check_string "outer second" "outer" (str_field outer "name");
          check_int "outer is a root" 0 (int_field outer "parent");
          check_int "outer depth" 0 (int_field outer "depth");
          check_int "inner nests under outer" (int_field outer "id")
            (int_field inner "parent");
          check_int "inner depth" 1 (int_field inner "depth")
        | l -> Alcotest.failf "expected 2 span lines, got %d" (List.length l));
    case "json lines are well-formed objects" (fun () ->
        let lines = ref [] in
        let i = Instr.create ~sink:(Instr.Json (fun l -> lines := l :: !lines)) () in
        Instr.enable i;
        Instr.span i "s" ~attrs:[ ("k", "va\"lue") ] (fun () ->
            Instr.note i "with \"quotes\" and\nnewline");
        List.iter
          (fun l ->
            check_bool "starts as object" true
              (String.length l > 8 && String.sub l 0 8 = {|{"type":|});
            check_bool "ends closed" true (l.[String.length l - 1] = '}');
            (* escaped payloads must not leave raw quotes or newlines *)
            String.iteri
              (fun idx c ->
                if c = '\n' then Alcotest.fail "raw newline in json line";
                if c = '"' && idx > 0 && l.[idx - 1] <> '\\' then ()
                else ())
              l)
          !lines;
        check_int "note + span" 2 (List.length !lines));
    case "spans close and pop on exceptions" (fun () ->
        let lines = ref [] in
        let i = Instr.create ~sink:(Instr.Json (fun l -> lines := l :: !lines)) () in
        Instr.enable i;
        (try Instr.span i "boom" (fun () -> failwith "x")
         with Failure _ -> ());
        Instr.span i "after" (fun () -> ());
        match List.rev !lines with
        | [ boom; after ] ->
          check_string "failed span emitted" "boom" (str_field boom "name");
          check_int "stack popped: next span is a root" 0
            (int_field after "depth")
        | l -> Alcotest.failf "expected 2 lines, got %d" (List.length l));
    case "text sink indents by depth and closes children first" (fun () ->
        let lines = ref [] in
        let i = Instr.create ~sink:(Instr.Text (fun l -> lines := l :: !lines)) () in
        Instr.enable i;
        Instr.span i "outer" (fun () ->
            Instr.span i "inner" (fun () -> Instr.note i "hello"));
        match List.rev !lines with
        | [ note; inner; outer ] ->
          check_bool "note at depth 2" true
            (String.length note > 4 && String.sub note 0 4 = "    ");
          check_bool "inner at depth 1" true
            (String.length inner > 2 && String.sub inner 0 2 = "  ");
          check_bool "outer at depth 0" true (outer.[0] <> ' ')
        | l -> Alcotest.failf "expected 3 lines, got %d" (List.length l));
    case "a session query runs inside nested compile/run spans" (fun () ->
        let lines = ref [] in
        let instr =
          Instr.create ~sink:(Instr.Json (fun l -> lines := l :: !lines)) ()
        in
        Instr.enable instr;
        let s =
          Xqse.Session.create
            ~config:{ Xqse.Session.default_config with instr }
            ()
        in
        let r = Xqse.Session.exec s "1 + 2" in
        check_string "value" "3" (Xml_serialize.seq_to_string r.Xqse.Session.r_value);
        let spans =
          List.filter (fun l -> str_field l "type" = "span") (List.rev !lines)
        in
        let find name =
          match List.find_opt (fun l -> str_field l "name" = name) spans with
          | Some l -> l
          | None -> Alcotest.failf "no %s span" name
        in
        let query = find "query" and compile = find "compile" and run = find "run" in
        check_int "query is a root span" 0 (int_field query "parent");
        check_int "compile nests under query" (int_field query "id")
          (int_field compile "parent");
        check_int "run nests under query" (int_field query "id")
          (int_field run "parent"));
  ]

let engine_counter_tests =
  [
    case "compilation reports queries.compiled and optimizer counters" (fun () ->
        let instr = Instr.create () in
        Instr.enable instr;
        let s =
          Xqse.Session.create
            ~config:{ Xqse.Session.default_config with instr }
            ()
        in
        ignore (Xqse.Session.compile s "1 + 2 * 3");
        let st = Instr.stats instr in
        check_int "queries.compiled" 1 (counter st Instr.K.queries_compiled);
        check_bool "optimizer.folded" true
          (counter st Instr.K.optimizer_folded > 0));
    case "join detection is counted per compile" (fun () ->
        let instr = Instr.create () in
        Instr.enable instr;
        let s =
          Xqse.Session.create
            ~config:{ Xqse.Session.default_config with instr }
            ()
        in
        ignore
          (Xqse.Session.compile s
             "for $a in (<r><k>1</k></r>, <r><k>2</k></r>)
              for $b in (<s><k>2</k></s>)
              where $a/k eq $b/k
              return ($a, $b)");
        check_bool "optimizer.joins" true
          (counter (Instr.stats instr) Instr.K.optimizer_joins > 0));
    case "xqse.statements counts statement executions per iteration" (fun () ->
        let run n =
          let instr = Instr.create () in
          Instr.enable instr;
          let s =
            Xqse.Session.create
              ~config:{ Xqse.Session.default_config with instr }
              ()
          in
          ignore
            (Xqse.Session.eval s
               (Printf.sprintf
                  "{ declare $acc := 0; iterate $i over 1 to %d { set $acc := $acc + $i; } return value $acc; }"
                  n));
          counter (Instr.stats instr) Instr.K.xqse_statements
        in
        let five = run 5 and ten = run 10 in
        check_bool "statements were counted" true (five > 0);
        (* the loop body is one [set] statement per iteration *)
        check_int "5 extra iterations = 5 extra statements" 5 (ten - five));
    case "Session.exec returns the per-query stats delta" (fun () ->
        let instr = Instr.create () in
        Instr.enable instr;
        let s =
          Xqse.Session.create
            ~config:{ Xqse.Session.default_config with instr }
            ()
        in
        ignore (Xqse.Session.exec s "1 + 1");
        let r = Xqse.Session.exec s "2 + 2" in
        check_string "value" "4"
          (Xml_serialize.seq_to_string r.Xqse.Session.r_value);
        (* a delta, not the running total: exactly this query's compile *)
        check_int "one compile in the delta" 1
          (counter r.Xqse.Session.r_stats Instr.K.queries_compiled));
  ]

let platform_counter_tests =
  [
    case "web service calls are counted across the read method" (fun () ->
        let instr = Instr.create () in
        Instr.enable instr;
        let env = FC.make ~customers:2 ~instr () in
        ignore
          (Xqse.Session.eval
             (Aldsp.Dataspace.session env.FC.ds)
             "count(profile:getProfile())");
        let st = Instr.stats instr in
        (* 007 plus C1, C2: one rating lookup per customer *)
        check_int "ws.calls" 3 (counter st Instr.K.ws_calls);
        check_int "no faults" 0 (counter st Instr.K.ws_faults);
        check_bool "rows were scanned" true
          (counter st Instr.K.rows_scanned > 0);
        check_bool "rows were fetched" true
          (counter st Instr.K.rows_fetched > 0));
    case "web service faults are counted" (fun () ->
        let instr = Instr.create () in
        Instr.enable instr;
        let env = FC.make ~customers:1 ~instr () in
        Resilience.Faults.inject_next (Webservice.faults env.FC.ws) "down";
        (try
           ignore
             (Xqse.Session.eval
                (Aldsp.Dataspace.session env.FC.ds)
                "profile:getProfile()")
         with _ -> ());
        check_bool "ws.faults" true
          (counter (Instr.stats instr) Instr.K.ws_faults > 0));
    case "submit reports sdo and sql counters" (fun () ->
        let instr = Instr.create () in
        Instr.enable instr;
        let env = FC.make ~customers:1 ~instr () in
        let dg = FC.get_profile_by_id env "007" in
        Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey";
        let before = Instr.stats instr in
        let r = Aldsp.Dataspace.submit env.FC.ds env.FC.svc dg in
        check_bool "committed" true r.Aldsp.Dataspace.sr_committed;
        let d = Instr.since instr before in
        check_int "sdo.submits" 1 (counter d Instr.K.sdo_submits);
        check_int "sdo.statements" 1 (counter d Instr.K.sdo_statements);
        check_bool "sql.generated" true (counter d Instr.K.sql_generated > 0);
        check_bool "sql.executed" true (counter d Instr.K.sql_executed > 0));
    case "a late-enabled handle still hears registered components" (fun () ->
        (* the shared-handle contract: components wired while the handle
           was off report once it is enabled *)
        let instr = Instr.create () in
        let env = FC.make ~customers:1 ~instr () in
        Instr.enable instr;
        ignore
          (Xqse.Session.eval
             (Aldsp.Dataspace.session env.FC.ds)
             "count(profile:getProfile())");
        check_bool "ws.calls heard after enable" true
          (counter (Instr.stats instr) Instr.K.ws_calls > 0));
  ]

let domain_tests =
  [
    case "an increment storm from two domains loses nothing" (fun () ->
        (* the counters are atomics: 2 x 200k concurrent bumps (plus
           interleaved multi-increments and a timer) must land exactly *)
        let instr = Instr.create () in
        Instr.enable instr;
        let storm () =
          for i = 1 to 200_000 do
            Instr.bump instr "storm.count";
            if i mod 1000 = 0 then begin
              Instr.bump ~n:5 instr "storm.batch";
              Instr.time instr "storm.ms" (fun () -> ())
            end
          done
        in
        let d = Domain.spawn storm in
        storm ();
        Domain.join d;
        let st = Instr.stats instr in
        let c name =
          Option.value ~default:0 (List.assoc_opt name st.Instr.counters)
        in
        check_int "storm.count" 400_000 (c "storm.count");
        check_int "storm.batch" 2_000 (c "storm.batch");
        check_bool "storm.ms timer exists and is sane" true
          (match List.assoc_opt "storm.ms" st.Instr.timers with
          | Some t -> t >= 0.
          | None -> false));
    case "spans stay balanced per domain" (fun () ->
        (* each domain gets its own span stack: concurrent spans must
           not corrupt each other's nesting *)
        let instr = Instr.create () in
        Instr.enable instr;
        let spin () =
          for _ = 1 to 1_000 do
            Instr.span instr "work" (fun () ->
                Instr.span instr "inner" (fun () -> ()))
          done
        in
        let d = Domain.spawn spin in
        spin ();
        Domain.join d;
        let st = Instr.stats instr in
        check_bool "span timer accumulated" true
          (List.mem_assoc "work" st.Instr.timers
          && List.mem_assoc "inner" st.Instr.timers));
    case "add_stats merges two workers' deltas" (fun () ->
        let a = { Instr.counters = [ ("x", 1); ("y", 2) ]; timers = [ ("t", 1.) ] }
        and b = { Instr.counters = [ ("y", 3); ("z", 4) ]; timers = [ ("t", 2.) ] } in
        let m = Instr.add_stats a b in
        let c name =
          Option.value ~default:0 (List.assoc_opt name m.Instr.counters)
        in
        check_int "x" 1 (c "x");
        check_int "y" 5 (c "y");
        check_int "z" 4 (c "z");
        check_bool "t" true
          (List.assoc_opt "t" m.Instr.timers = Some 3.));
  ]

let suites =
  [
    ("instr.handle", handle_tests);
    ("instr.spans", span_tests);
    ("instr.domains", domain_tests);
    ("instr.engine-counters", engine_counter_tests);
    ("instr.platform-counters", platform_counter_tests);
  ]
