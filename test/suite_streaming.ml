(* The streaming sequence core: pull-based cursors from relational scans
   through the evaluator to XQSE iterate.

   Two kinds of assertion:
   - equivalence: compiled streaming plans and the eager reference
     walker (plans off) return the same serialized value (the
     differential corpus covers this broadly; these tests pin the
     headline shapes);
   - laziness: early-exiting consumers (fn:exists, fn:head, EBV,
     positional [1], iterate+break) pull O(1) items from a large scan,
     proven on the [stream.pulled] / [rows.scanned] counters — a
     regression that silently re-materializes fails here, not in a
     benchmark. *)

open Util
open Core
module FE = Fixtures.Employees

let counter stats name =
  match List.assoc_opt name stats.Instr.counters with Some n -> n | None -> 0

(* one large-scan environment; 10_000 rows makes an accidental full
   materialization unmistakable *)
let rows = 10_000

(* the dataspace session runs compiled plans; a plans-off config fork
   over the same sources and instr runs the eager walker *)
let env =
  lazy
    (let instr = Instr.create () in
     Instr.enable instr;
     let env = FE.make ~employees:rows ~instr () in
     let sess = Aldsp.Dataspace.session env.FE.ds in
     let walker =
       Xqse.Session.with_config sess
         { (Xqse.Session.config sess) with plans = false }
     in
     (sess, walker, instr))

(* run [src] compiled and walked: return the compiled result plus its
   counter delta, after checking the walker agrees *)
let both src =
  let sess, walker, instr = Lazy.force env in
  let run sess =
    let before = Instr.stats instr in
    let v =
      match Xqse.Session.eval_to_string sess src with
      | s -> Ok s
      | exception Xdm.Item.Error { code; _ } ->
        Error (Xdm.Qname.to_string code)
    in
    (v, Instr.since instr before)
  in
  let sv, sd = run sess in
  let wv, _ = run walker in
  if sv <> wv then
    Alcotest.failf "modes disagree on %s:\n  streaming: %s\n  walker: %s" src
      (match sv with Ok s -> s | Error c -> "error " ^ c)
      (match wv with Ok s -> s | Error c -> "error " ^ c);
  match sv with
  | Ok s -> (s, sd)
  | Error c -> Alcotest.failf "unexpected error %s on %s" c src

(* an early exit must pull a handful of items, not the table *)
let small = 8

let early_exit_tests =
  [
    case "fn:exists over a 10k-row scan pulls O(1)" (fun () ->
        let v, d = both "fn:exists(employee:EMPLOYEE())" in
        check_string "value" "true" v;
        check_bool
          (Printf.sprintf "stream.pulled %d <= %d"
             (counter d Instr.K.stream_pulled) small)
          true
          (counter d Instr.K.stream_pulled <= small);
        check_bool
          (Printf.sprintf "rows.scanned %d <= %d"
             (counter d Instr.K.rows_scanned) small)
          true
          (counter d Instr.K.rows_scanned <= small);
        check_bool "an early exit was recorded" true
          (counter d Instr.K.stream_early_exits > 0));
    case "fn:empty over a 10k-row scan pulls O(1)" (fun () ->
        let v, d = both "fn:empty(employee:EMPLOYEE())" in
        check_string "value" "false" v;
        check_bool "pulled O(1)" true
          (counter d Instr.K.stream_pulled <= small));
    case "fn:head over a 10k-row scan pulls O(1)" (fun () ->
        let v, d = both "fn:head(employee:EMPLOYEE())/EMP_ID/text()" in
        check_string "value" "1" v;
        check_bool
          (Printf.sprintf "rows.scanned %d <= %d"
             (counter d Instr.K.rows_scanned) small)
          true
          (counter d Instr.K.rows_scanned <= small));
    case "effective boolean value pulls O(1)" (fun () ->
        let v, d = both "if (employee:EMPLOYEE()) then 1 else 0" in
        check_string "value" "1" v;
        check_bool "pulled O(1)" true
          (counter d Instr.K.stream_pulled <= small);
        check_bool "scanned O(1)" true
          (counter d Instr.K.rows_scanned <= small));
    case "positional [1] pulls O(1)" (fun () ->
        let v, d = both "employee:EMPLOYEE()[1]/EMP_ID/text()" in
        check_string "value" "1" v;
        check_bool "scanned O(1)" true
          (counter d Instr.K.rows_scanned <= small));
    case "fn:subsequence pulls only up to its window" (fun () ->
        let v, d = both "fn:data(fn:subsequence(employee:EMPLOYEE(), 3, 2)/EMP_ID)" in
        check_string "value" "3 4" v;
        check_bool "scanned O(window)" true
          (counter d Instr.K.rows_scanned <= small));
    case "fn:count streams without materializing the scan" (fun () ->
        let v, d = both "fn:count(employee:EMPLOYEE())" in
        check_string "value" (string_of_int rows) v;
        check_int "every row pulled exactly once" rows
          (counter d Instr.K.stream_pulled);
        check_int "nothing materialized" 0
          (counter d Instr.K.stream_materialized));
    case "xqse iterate + break abandons the scan" (fun () ->
        let v, d =
          both
            "{ declare $n := 0; iterate $e over employee:EMPLOYEE() { set $n \
             := $n + 1; break(); } return value $n; }"
        in
        check_string "value" "1" v;
        check_bool
          (Printf.sprintf "rows.scanned %d <= %d"
             (counter d Instr.K.rows_scanned) small)
          true
          (counter d Instr.K.rows_scanned <= small);
        check_bool "an early exit was recorded" true
          (counter d Instr.K.stream_early_exits > 0));
    case "xqse iterate return value abandons the scan" (fun () ->
        let v, d =
          both
            "{ iterate $e over employee:EMPLOYEE() { return value \
             fn:data($e/EMP_ID); } return value 0; }"
        in
        check_string "value" "1" v;
        check_bool "scanned O(1)" true
          (counter d Instr.K.rows_scanned <= small));
    case "a library procedure's iterate exits early" (fun () ->
        (* a library procedure runs on the session's own runtime, which
           compiles with the verdicts of the session's compilation unit;
           without them the body counts as constructing, and iterate
           pulls and materializes the whole range first *)
        let instr = Instr.create () in
        Instr.enable instr;
        let s =
          Xqse.Session.create
            ~config:{ Xqse.Session.default_config with instr }
            ()
        in
        Xqse.Session.load_library s
          {|declare namespace lib = "urn:lib";
            declare readonly procedure lib:firstBig() {
              iterate $x over (1 to 100000) {
                if ($x gt 3) then { return value $x; } else { };
              }
              return value 0;
            };|};
        let walker =
          Xqse.Session.with_config s
            { Xqse.Session.default_config with plans = false }
        in
        let src = {|declare namespace lib = "urn:lib"; lib:firstBig()|} in
        check_string "walker agrees" (Xqse.Session.eval_to_string walker src)
          (Xqse.Session.eval_to_string s src);
        let before = Instr.stats instr in
        let v = Xqse.Session.eval_to_string s src in
        let d = Instr.since instr before in
        check_string "value" "4" v;
        check_bool
          (Printf.sprintf "stream.pulled %d <= %d"
             (counter d Instr.K.stream_pulled) small)
          true
          (counter d Instr.K.stream_pulled <= small);
        check_int "nothing materialized" 0
          (counter d Instr.K.stream_materialized);
        check_bool "an early exit was recorded" true
          (counter d Instr.K.stream_early_exits > 0));
    case "full consumption pulls every row in both modes" (fun () ->
        (* the laziness counters must not come at the cost of losing
           rows: a fold over the whole scan sees all of them *)
        let v, d =
          both "sum(for $e in employee:EMPLOYEE() return 1)"
        in
        check_string "value" (string_of_int rows) v;
        check_int "all rows scanned" rows (counter d Instr.K.rows_scanned));
  ]

(* range producers: no dataspace needed, a bare session streams *)
let range_tests =
  let with_counters src =
    let instr = Instr.create () in
    Instr.enable instr;
    let s =
      Xqse.Session.create
        ~config:{ Xqse.Session.default_config with instr }
        ()
    in
    let walker =
      Xqse.Session.with_config s
        { Xqse.Session.default_config with plans = false }
    in
    let v = Xqse.Session.eval_to_string s src in
    let v' = Xqse.Session.eval_to_string walker src in
    check_string ("modes agree on " ^ src) v' v;
    (v, Instr.stats instr)
  in
  [
    case "fn:head of a million-integer range pulls one item" (fun () ->
        let v, st = with_counters "fn:head(1 to 1000000)" in
        check_string "value" "1" v;
        check_bool "pulled O(1)" true
          (counter st Instr.K.stream_pulled <= small));
    case "fn:exists of a large range pulls one item" (fun () ->
        let v, st = with_counters "fn:exists(1 to 1000000)" in
        check_string "value" "true" v;
        check_bool "pulled O(1)" true
          (counter st Instr.K.stream_pulled <= small));
    case "quantified some stops at the witness" (fun () ->
        let v, st =
          with_counters "some $x in (1 to 1000000) satisfies $x eq 3"
        in
        check_string "value" "true" v;
        check_bool "pulled O(witness)" true
          (counter st Instr.K.stream_pulled <= small));
    case "fn:subsequence of a large range pulls its window" (fun () ->
        let v, st = with_counters "fn:subsequence(1 to 1000000, 5, 3)" in
        check_string "value" "5 6 7" v;
        check_bool "pulled O(window)" true
          (counter st Instr.K.stream_pulled <= small + 8));
    case "streamed FLWOR with infallible stages pulls O(prefix)" (fun () ->
        let v, st =
          with_counters
            "fn:head(for $x in (1 to 1000000) let $y := ($x, $x) return $y)"
        in
        check_string "value" "1" v;
        check_bool "pulled O(prefix)" true
          (counter st Instr.K.stream_pulled <= small));
    case "FLWOR with fallible stages falls back but agrees" (fun () ->
        (* [$x * 2] and [$y ge 10] may raise, so an early exit must not
           skip them: with more than one fallible deferred stage the
           engine materializes the source instead, trading laziness for
           identical error behavior — the value must still agree *)
        let v, _ =
          with_counters
            "fn:head(for $x in (1 to 100000) let $y := $x * 2 where $y ge 10 \
             return $y)"
        in
        check_string "value" "10" v);
  ]

(* Cursor lifecycle laws, tested on the module directly: [abandon] and
   [close] must be idempotent — a second abandon (or abandon after
   close, or an abandon reentering from inside the drain) must not
   re-run deferred effects, re-drain the producer, or double-bump the
   laziness counters. Consumers like iterate-with-break abandon from
   inside exception handlers, so double-abandon happens in practice. *)
let cursor_lifecycle_tests =
  let open Xdm in
  (* an impure 1..n counter that records every pull and cleanup *)
  let effectful ?instr n =
    let pulls = ref 0 and cleanups = ref 0 in
    let cur =
      Cursor.make ?instr
        ~cleanup:(fun () -> incr cleanups)
        (fun () ->
          if !pulls >= n then None
          else begin
            incr pulls;
            Some !pulls
          end)
    in
    (cur, pulls, cleanups)
  in
  [
    case "abandon twice drains effects once" (fun () ->
        let instr = Instr.create () in
        Instr.enable instr;
        let cur, pulls, cleanups = effectful ~instr 5 in
        check_int "first item" 1 (Option.get (Cursor.next cur));
        Cursor.abandon cur;
        check_int "drained to the end" 5 !pulls;
        check_int "cleanup ran" 1 !cleanups;
        let after_first = counter (Instr.stats instr) Instr.K.stream_pulled in
        Cursor.abandon cur;
        check_int "second abandon pulls nothing" 5 !pulls;
        check_int "cleanup still ran once" 1 !cleanups;
        check_int "counters not double-bumped" after_first
          (counter (Instr.stats instr) Instr.K.stream_pulled));
    case "abandon twice on a pure cursor bumps early_exits once" (fun () ->
        let instr = Instr.create () in
        Instr.enable instr;
        let cur = Cursor.make ~pure:true ~instr (fun () -> Some 1) in
        Cursor.abandon cur;
        Cursor.abandon cur;
        check_int "one early exit" 1
          (counter (Instr.stats instr) Instr.K.stream_early_exits));
    case "close then abandon does not resurrect the drain" (fun () ->
        let cur, pulls, cleanups = effectful 5 in
        Cursor.close cur;
        check_int "close ran cleanup" 1 !cleanups;
        Cursor.abandon cur;
        check_int "abandon after close pulls nothing" 0 !pulls;
        check_int "cleanup still once" 1 !cleanups);
    case "abandon reentering from inside the drain is a no-op" (fun () ->
        (* a producer whose pending effect itself abandons the cursor —
           the reentrant call must neither recurse nor reset state *)
        let pulls = ref 0 and cleanups = ref 0 in
        let rec cur =
          lazy
            (Cursor.make
               ~cleanup:(fun () -> incr cleanups)
               (fun () ->
                 if !pulls >= 3 then None
                 else begin
                   incr pulls;
                   Cursor.abandon (Lazy.force cur);
                   Some !pulls
                 end))
        in
        Cursor.abandon (Lazy.force cur);
        check_int "drained exactly once to the end" 3 !pulls;
        check_int "cleanup ran once" 1 !cleanups);
    case "abandon during next leaves the cursor done" (fun () ->
        let cur, pulls, _ = effectful 4 in
        ignore (Cursor.next cur);
        Cursor.abandon cur;
        check_bool "next after abandon is exhausted" true
          (Cursor.next cur = None);
        check_int "no further pulls" 4 !pulls);
    case "abandon propagates a deferred error exactly once" (fun () ->
        (* eager evaluation would raise while producing item 3: the
           drain must surface that error, and a second abandon must not
           raise it again *)
        let pulls = ref 0 in
        let cur =
          Cursor.make (fun () ->
              incr pulls;
              if !pulls >= 3 then
                Item.raise_error (Qname.err "FORG0001") "deferred failure"
              else Some !pulls)
        in
        (match Cursor.abandon cur with
        | () -> Alcotest.fail "expected the drained error to propagate"
        | exception Item.Error { code; _ } ->
          check_string "error code" "FORG0001" code.Qname.local);
        (* the failed drain closed the cursor: abandon and next are done *)
        Cursor.abandon cur;
        check_bool "cursor is exhausted after the failed drain" true
          (Cursor.next cur = None);
        check_int "producer not re-driven" 3 !pulls);
  ]

let suites =
  [
    ("streaming.early-exit", early_exit_tests);
    ("streaming.range", range_tests);
    ("streaming.cursor-lifecycle", cursor_lifecycle_tests);
  ]
