(* Differential testing of the rewrite optimizer: a deterministic corpus
   of generated FLWOR/let/quantified programs, each evaluated with and
   without optimization. Any divergence — different items, or an error on
   one side only — is an optimizer soundness bug. This is the tier-1
   tripwire for scope-analysis regressions: a rewrite pass that breaks
   variable scoping fails here instead of shipping.

   Programs run through two layers of the one compile pipeline: a fresh
   session per program and evaluation mode (the Util helpers), and one
   shared session per mode that every program replays through (each
   program's declarations compile against copies, so programs cannot
   leak into each other) — a regression that leaks program state into a
   long-lived session diverges here even when fresh sessions stay
   sound. *)

open Util
open Core

let corpus_size = 500
let corpus_seed = 20260806
let corpus = Fixtures.Gen_xquery.corpus ~seed:corpus_seed corpus_size

(* evaluation outcome: serialized result, or the dynamic error code *)
let outcome f src =
  match f src with
  | v -> Ok v
  | exception Xdm.Item.Error { code; _ } -> Error (Xdm.Qname.to_string code)

let show = function
  | Ok s -> Printf.sprintf "result %S" s
  | Error c -> Printf.sprintf "error %s" c

let agree name src =
  case name (fun () ->
      let unopt = outcome xq_noopt src in
      let opt = outcome xq src in
      if opt <> unopt then
        Alcotest.failf
          "optimizer changed program semantics:\n%s\n  unoptimized: %s\n  optimized:   %s"
          src (show unopt) (show opt);
      (* compiled vs interpreted: closure-compiled plans and their
         cursor pipelines must be invisible against the eager walker —
         same items, same errors, in both optimizer modes *)
      let interp = outcome xq_noplans src in
      if interp <> opt then
        Alcotest.failf
          "closure compilation changed program semantics:\n\
           %s\n  interpreted: %s\n  compiled:    %s"
          src (show interp) (show opt);
      let interp_noopt = outcome xq_noopt_noplans src in
      if interp_noopt <> unopt then
        Alcotest.failf
          "closure compilation changed program semantics (unoptimized):\n\
           %s\n  interpreted: %s\n  compiled:    %s"
          src (show interp_noopt) (show unopt))

(* Session-level agreement: one shared session per mode (program
   declarations compile against copies, so corpus programs cannot leak
   into each other), forced lazily so suite construction stays cheap. *)
let session_opt = lazy (Xqse.Session.create ())

let session_noopt =
  lazy
    (Xqse.Session.create
       ~config:{ Xqse.Session.default_config with optimize = false }
       ())

(* interpreted XQSE: plans off disables both the session plan cache and
   the compiled statement path, so every program runs through the
   tree-walking interpreter *)
let session_noplans =
  lazy
    (Xqse.Session.create
       ~config:{ Xqse.Session.default_config with plans = false }
       ())

let agree_session name src =
  case name (fun () ->
      let eval s src = Xqse.Session.eval_to_string (Lazy.force s) src in
      let unopt = outcome (eval session_noopt) src in
      let opt = outcome (eval session_opt) src in
      if opt <> unopt then
        Alcotest.failf
          "optimizer changed program semantics (session layer):\n%s\n  unoptimized: %s\n  optimized:   %s"
          src (show unopt) (show opt);
      let interp = outcome (eval session_noplans) src in
      if interp <> opt then
        Alcotest.failf
          "closure compilation changed program semantics (session layer):\n\
           %s\n  interpreted: %s\n  compiled:    %s"
          src (show interp) (show opt);
      (* the first [opt] evaluation populated the plan cache — replaying
         the same program must hit it and agree (warm vs cold) *)
      let warm = outcome (eval session_opt) src in
      if warm <> opt then
        Alcotest.failf
          "warm plan-cache replay changed program semantics:\n\
           %s\n  cold: %s\n  warm: %s"
          src (show opt) (show warm))

let generated_tests =
  List.mapi (fun i src -> agree (Printf.sprintf "generated %03d" i) src) corpus

let generated_session_tests =
  List.mapi
    (fun i src -> agree_session (Printf.sprintf "session %03d" i) src)
    corpus

(* Directed cases: known-dangerous shapes kept verbatim so a regression
   names the construct, not just a corpus index. *)
let directed =
  [
    (* let-alias capture under a for rebinding the aliased variable *)
    "let $x := 99 return (let $y := $x for $x in (1,2) return $y)";
    (* the same, with the capturing binder in a quantified expression *)
    "let $x := 99 return (let $y := $x return (some $x in (1,2) satisfies $x eq $y))";
    (* capture by a positional variable *)
    "let $p := 7 return (let $y := $p for $x at $p in (4,5) return $y * $x)";
    (* capture by a second binding in the same for clause *)
    "let $x := 3 return (let $y := $x for $a in (1,2), $x in (8,9) return $y + $a)";
    (* capture by a typeswitch case variable *)
    "let $x := 1 return (let $y := $x return (typeswitch (5) case $x as xs:integer return $y default return 0))";
    (* join detection must not key on a rebound variable *)
    "for $a in (1,2) for $b in (2,3) let $b := 2 where $b eq $a return ($a, $b)";
    (* probe variable rebound between the for and the where *)
    "for $a in (1,2) for $b in (2,3) let $a := 3 where $b eq $a return ($a, $b)";
    (* pushdown must rebind a shifted-focus variable, not capture it *)
    "for $x in (1,2,3) where count((1,2)[. le $x]) eq 2 return $x";
    (* alias chains across clauses *)
    "let $x := 5 let $y := $x let $x := 2 return ($y, $x)";
    (* inlining through a where that mentions both generations of $x *)
    "let $x := 1 return (for $y in (1,2) let $z := $x for $x in (3,4) where $x gt $z return ($x, $z))";
    (* a bare numeric where is an effective-boolean-value test, not a
       positional predicate: pushing it unwrapped changed 2 3 into () *)
    "for $x in (2,3) where $x return $x";
    (* a fallible conjunct must not jump an unpushable where: evaluated
       eagerly on the extra tuples it raises FOAR0001 (1 idiv 0) *)
    "for $y in (3,4) for $x in (0,1) where ($y + $x eq 9) and (1 idiv $x ge 0) \
     return $x";
    (* a let bound to a constructor must keep node identity: inlining it
       would construct a fresh node per use and double the union count *)
    "let $x := <a/> for $i in (1,2) return count($x | $x)";
    (* a single-use computed let in head position — the shape the
       cost-based inliner fires on — must still agree *)
    "let $x := count((1 to 5)) return $x + 1";
    (* a context-dependent let value must not move into a shifted focus *)
    "for $n in (<a><b/><b/></a>)/b let $p := position() return (1,2)[. eq $p]";
  ]

let directed_tests =
  List.mapi (fun i src -> agree (Printf.sprintf "directed %02d" i) src) directed

let directed_session_tests =
  List.mapi
    (fun i src -> agree_session (Printf.sprintf "directed session %02d" i) src)
    directed

(* The former escape hatches: shapes whose compiled plans used to call
   back into the walker, so comparing them with plans = false compared
   the walker with itself. Each must agree with the reference walker
   with the optimizer on and off, in fresh sessions (the XQuery ones)
   and in the shared session layer (all of them). The FLWOR keeps its nested shape
   only with the optimizer off: its fallible outer where over a source
   whose own where is fallible makes the streamed FLWOR fall back to the
   eager schedule. *)
let escape_hatches =
  [
    ( "copy/modify/return",
      "copy $c := <a><b>1</b></a> modify (replace value of node $c/b with 2, \
       insert node <d/> into $c, rename node $c/b as \"e\") return $c" );
    ( "a module variable calling a declared function",
      "declare function local:f($x) { $x * 2 }; \
       declare variable $v := local:f(21); $v + 1" );
    ( "a streamed FLWOR falling back to the eager schedule",
      "count(for $j in (for $i in 1 to 3 where 1 idiv $i ge 0 return $i) \
       where 1 idiv ($j - 5) le 0 return $j)" );
  ]

let xqse_escape_hatch =
  ( "an XQSE update statement",
    "{ declare $x := <a><b>1</b></a>; \
     (replace value of node $x/b with 2, insert node <c/> into $x); \
     return value $x; }" )

let against_walker ?expect name run src =
  case name (fun () ->
      List.iter
        (fun optimize ->
          let compiled = outcome (run ~optimize ~plans:true) src in
          let walker = outcome (run ~optimize ~plans:false) src in
          if compiled <> walker then
            Alcotest.failf
              "compiled plans disagree with the reference walker \
               (optimize=%b):\n%s\n  walker:   %s\n  compiled: %s"
              optimize src (show walker) (show compiled);
          Option.iter
            (fun v ->
              if compiled <> Ok v then
                Alcotest.failf "%s\n  expected: %s\n  got:      %s" src
                  (show (Ok v)) (show compiled))
            expect)
        [ true; false ])

let escape_hatch_tests =
  List.map
    (fun (name, src) ->
      against_walker ("escape hatch: " ^ name)
        (fun ~optimize ~plans src ->
          xq ~config:{ Xqse.Session.default_config with optimize; plans } src)
        src)
    escape_hatches

let escape_hatch_session_tests =
  List.map
    (fun (name, src) ->
      against_walker ("escape hatch session: " ^ name)
        (fun ~optimize ~plans src ->
          Xqse.Session.eval_to_string
            (Xqse.Session.create
               ~config:{ Xqse.Session.default_config with optimize; plans }
               ())
            src)
        src)
    (escape_hatches @ [ xqse_escape_hatch ])

(* Directed XQSE statement cases: the compiled statement layer (cblock
   closures, frame slots, iterate's two schedules) against the statement
   walker, with the optimizer on and off. Each block runs as a program
   body in fresh sessions, and as the body of a library readonly
   procedure that a program calls: that body compiles on the session's
   own runtime, with the verdicts of the session's compilation unit. *)
let xqse_statements =
  [
    ( "iterate at, constructing body (materializing schedule)",
      "<p>1</p><p>2</p>",
      "{ declare $s := (); iterate $x at $i over (1, 2) { set $s := ($s, \
       <p>{$i}</p>); } return value $s; }" );
    ( "iterate at over a pure source (streaming schedule)",
      "15 26 37 48",
      "{ declare $s := (); iterate $x at $i over (5 to 8) { set $s := ($s, \
       $i * 10 + $x); } return value $s; }" );
    ( "break and continue in iterate",
      "1 2 4 5 7 8 10",
      "{ declare $out := (); iterate $x at $i over (1 to 20) { if ($x mod 3 \
       eq 0) then continue(); if ($i gt 10) then break(); set $out := ($out, \
       $i); } return value $out; }" );
    ( "return value in iterate",
      "18 5",
      "{ declare $n := 0; iterate $x at $i over (3 to 30) { if ($x mod 7 eq \
       0) then return value ($n, $i); set $n := $n + $x; } return value -1; }"
    );
    ( "break and continue in while",
      "1 2 3 5 6 7 9",
      "{ declare $i := 0, $out := (); while ($i lt 20) { set $i := $i + 1; \
       if ($i mod 4 eq 0) then continue(); if ($i gt 9) then break(); set \
       $out := ($out, $i); } return value $out; }" );
    ( "return value in while",
      "80",
      "{ declare $i := 0; while (true()) { set $i := $i + 2; if ($i ge 7) \
       then return value $i * 10; } return value 0; }" );
    ( "nested blocks with a shadowing declare",
      "12 100 200 1001",
      "{ declare $x := 1, $out := (); { declare $x := 2; set $x := $x + 10; \
       set $out := ($out, $x); } iterate $y over (1, 2) { declare $x := $y * \
       100; set $out := ($out, $x); } set $x := $x + 1000; return value \
       ($out, $x); }" );
    ( "try/catch around 1 idiv 0",
      "err:FOAR0001 -1",
      "{ declare $r := 0; try { set $r := 1 idiv 0; } catch (err:FOAR0001 \
       into $c, $m) { set $r := (string($c), -1); } return value $r; }" );
  ]

let xqse_statement_tests =
  List.concat_map
    (fun (name, expect, block) ->
      [
        against_walker ~expect ("xqse: " ^ name)
          (fun ~optimize ~plans src ->
            xq ~config:{ Xqse.Session.default_config with optimize; plans } src)
          block;
        against_walker ~expect ("xqse library procedure: " ^ name)
          (fun ~optimize ~plans block ->
            let s =
              Xqse.Session.create
                ~config:{ Xqse.Session.default_config with optimize; plans }
                ()
            in
            Xqse.Session.load_library s
              ("declare namespace t = \"urn:t\"; declare readonly procedure \
                t:p() " ^ block ^ ";");
            Xqse.Session.eval_to_string s
              "declare namespace t = \"urn:t\"; t:p()")
          block;
      ])
    xqse_statements

(* Rewrite statistics for one corpus program, through the optimizer
   entry point compiles use. *)
let stats_of src =
  let e =
    Xquery.Parser.parse_expression (Xquery.Context.default_static ()) src
  in
  snd (Xquery.Optimizer.optimize_with_stats e)

(* The optimizer's rewrite log for one corpus program. *)
let log_of src =
  let e =
    Xquery.Parser.parse_expression (Xquery.Context.default_static ()) src
  in
  let lines = ref [] in
  ignore
    (Xquery.Optimizer.optimize_with_stats ~log:(fun l -> lines := l :: !lines) e);
  !lines

let count_where pred l = List.length (List.filter pred l)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let meta_tests =
  [
    case "corpus is deterministic" (fun () ->
        check_bool "same corpus for same seed" true
          (corpus = Fixtures.Gen_xquery.corpus ~seed:corpus_seed corpus_size));
    case "corpus is large enough" (fun () ->
        check_bool "\xe2\x89\xa5 500 generated programs" true (corpus_size >= 500));
    case "generated programs exercise shadowing" (fun () ->
        (* the generator's reason to exist: rebinding must be common *)
        let occurrences needle hay =
          let nl = String.length needle and hl = String.length hay in
          let rec go i acc =
            if i + nl > hl then acc
            else if String.sub hay i nl = needle then go (i + 1) (acc + 1)
            else go (i + 1) acc
          in
          go 0 0
        in
        let binder_count src v =
          (* every binding site renders as one of these prefixes *)
          occurrences (Printf.sprintf "for $%s" v) src
          + occurrences (Printf.sprintf "let $%s := " v) src
          + occurrences (Printf.sprintf "some $%s in" v) src
          + occurrences (Printf.sprintf "every $%s in" v) src
          + occurrences (Printf.sprintf "at $%s" v) src
        in
        let shadowing =
          count_where
            (fun src ->
              List.exists (fun v -> binder_count src v >= 2) [ "x"; "y"; "z" ])
            corpus
        in
        check_bool
          (Printf.sprintf "%d/%d programs rebind a variable" shadowing
             (List.length corpus))
          true
          (shadowing * 4 >= List.length corpus));
    case "generated programs include typeswitch" (fun () ->
        let n = count_where (contains "typeswitch") corpus in
        check_bool
          (Printf.sprintf "%d/%d programs contain a typeswitch" n
             (List.length corpus))
          true (n >= 10));
    case "generated programs include transform expressions" (fun () ->
        let n = count_where (contains "copy $") corpus in
        check_bool
          (Printf.sprintf "%d/%d programs contain a copy/modify/return" n
             (List.length corpus))
          true (n >= 10));
    case "generated programs trigger join detection" (fun () ->
        (* the whole point of the join-shaped template: detect_joins must
           fire on generated input, not just on hand-written tests *)
        let n =
          count_where (fun p -> (stats_of p).Xquery.Optimizer.joins > 0) corpus
        in
        check_bool
          (Printf.sprintf "%d/%d programs rewrite into a hash join" n
             (List.length corpus))
          true (n >= 10));
    case "generated programs trigger purity-gated inlining" (fun () ->
        (* the single-use computed-let template must actually reach the
           cost-based inliner, so corpus agreement proves it sound *)
        let n =
          count_where
            (fun p -> (stats_of p).Xquery.Optimizer.inlined_pure > 0)
            corpus
        in
        check_bool
          (Printf.sprintf "%d/%d programs fire a purity-gated inline" n
             (List.length corpus))
          true (n >= 20));
    case "generated programs exercise subsequence coercion corners" (fun () ->
        (* the window-rule shapes must actually appear: fn:subsequence
           calls overall, and the adversarial non-integer bounds (NaN,
           infinities, fractional, out-of-int-range) in particular *)
        let n = count_where (contains "subsequence(") corpus in
        let adversarial =
          count_where
            (fun p ->
              List.exists
                (fun needle -> contains needle p)
                [ "NaN"; "INF"; ".5"; ".25"; "1e18" ])
            corpus
        in
        check_bool
          (Printf.sprintf "%d/%d call subsequence, %d with adversarial bounds"
             n (List.length corpus) adversarial)
          true
          (n >= 20 && adversarial >= 10));
    case "generated programs trigger correlated pushdown" (fun () ->
        (* the nested-FLWOR template: an inner where over an outer for
           variable must move into the inner source on generated input *)
        let n =
          count_where
            (fun p ->
              List.exists
                (fun l ->
                  contains "pushdown_predicates:" l && contains "(outer $" l)
                (log_of p))
            corpus
        in
        check_bool
          (Printf.sprintf "%d/%d programs push a correlated where" n
             (List.length corpus))
          true (n >= 20));
    case "generated programs trigger focus-shift pushdown" (fun () ->
        let n =
          count_where
            (fun p -> (stats_of p).Xquery.Optimizer.pushed_shifted > 0)
            corpus
        in
        check_bool
          (Printf.sprintf "%d/%d programs fire a focus-shifted pushdown" n
             (List.length corpus))
          true (n >= 20));
  ]

(* View unfolding: a filter over a call to a view function becomes the
   function's FLWOR with the filter as a where. Each program must agree
   across every fresh and shared session layer (optimize = false and
   plans = false among them), and its rewrite log must show whether the pass
   fired. *)
let view_prolog =
  {|declare function local:v() { for $i in (1, 2, 3) return <E><N>{$i}</N><M>{$i * 10}</M></E> };
declare function local:w() { for $i in (1, 2, 3) return <E><N>{if ($i eq 2) then () else $i}</N></E> };
declare function local:p($k) { for $i in (1 to $k) let $j := $i * 2 where $j ne 4 return <E><N>{$j}</N></E> };
|}

let unfolds =
  [
    {|local:v()[N eq "2"]|};
    {|local:v()[fn:data(N) = (1, 3)]|};
    {|local:v()["3" eq ./N][M = 30]|};
    {|local:v()[N ne "1"][2]|};
    (* an empty key child atomizes to "" *)
    {|local:w()[N eq ""]|};
    {|local:p(4)[N eq "6"]|};
    (* the comparison raises on the first tuple in both schedules *)
    {|local:v()[N eq 2]|};
  ]

let no_unfolds =
  [
    (* positional and numeric predicates *)
    "local:v()[2]";
    "local:v()[fn:count(N)]";
    "local:v()[N]";
    (* the predicate looks at more than an atomized key *)
    {|local:v()[N eq "2" and fn:exists(M)]|};
    (* another content part could add an N child too *)
    {|declare function local:n($i) { <N>{$i * 10}</N> };
declare function local:d() { for $i in (1, 2) return <E><N>{$i}</N>{local:n($i)}</E> };
local:d()[N = "10"]|};
    {|declare function local:d() { for $i in (1, 2) return <E><N>{$i}</N><N>x</N></E> };
local:d()[N = "x"]|};
    (* the key content calls a non-builtin function *)
    {|declare function local:k($i) { $i * 2 };
declare function local:c() { for $i in (1, 2) return <E><N>{local:k($i)}</N></E> };
local:c()[N eq "4"]|};
    (* effects in the content *)
    {|declare function local:t() { for $i in (1, 2) return <E><N>{$i}</N><T>{fn:trace($i, "t")}</T></E> };
local:t()[N eq "2"]|};
    (* a recursive callee *)
    {|declare function local:r($n) { for $i in (1 to $n) return <E><N>{$i}</N><R>{count(local:r($n - 1))}</R></E> };
local:r(2)[N eq "1"]|};
    (* order by, and a positional variable *)
    {|declare function local:o() { for $i in (3, 1, 2) order by $i return <E><N>{$i}</N></E> };
local:o()[N ne "2"]|};
    {|declare function local:a() { for $i at $p in (3, 1, 2) return <E><N>{$p}</N></E> };
local:a()[N eq "2"]|};
    (* typed parameters *)
    {|declare function local:tp($k as xs:integer) { for $i in (1 to $k) return <E><N>{$i}</N></E> };
local:tp(3)[N eq "2"]|};
    (* a declared result type the constructor does not imply: the
       reference raises on the call even though the filter keeps nothing *)
    {|declare function local:rt() as element(F)* { for $i in (1, 2) return <E><N>{$i}</N></E> };
local:rt()[N eq "3"]|};
    {|declare function local:rp() as element(E)+ { for $i in () return <E><N>{$i}</N></E> };
local:rp()[N eq "3"]|};
    (* a name the callee binds occurs in the filter *)
    {|for $i in (2, 3) return local:v()[N eq fn:string($i)]|};
  ]

let unfold_log src =
  (Xqse.Session.explain (Xqse.Session.create ()) src).Xqse.Session.ex_log

let unfold_tests ~fires programs =
  List.concat_map
    (fun body ->
      let src =
        if String.length body > 8 && String.sub body 0 8 = "declare " then body
        else view_prolog ^ body
      in
      let body = String.map (function '\n' -> ' ' | c -> c) body in
      [
        agree ("unfold: " ^ body) src;
        agree_session ("unfold session: " ^ body) src;
        case ("unfold log: " ^ body) (fun () ->
            check_bool
              (Printf.sprintf "unfold_views %s on %s"
                 (if fires then "fires" else "does not fire")
                 body)
              fires
              (List.exists (contains "unfold_views:") (unfold_log src)));
      ])
    programs

let view_tests = unfold_tests ~fires:true unfolds @ unfold_tests ~fires:false no_unfolds

let suites =
  [
    ( "differential",
      meta_tests @ directed_tests @ generated_tests @ escape_hatch_tests
      @ xqse_statement_tests );
    ( "differential-session",
      directed_session_tests @ generated_session_tests
      @ escape_hatch_session_tests );
    ("differential-views", view_tests);
  ]
