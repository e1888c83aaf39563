(* Differential testing of the rewrite optimizer: a deterministic corpus
   of generated FLWOR/let/quantified programs, each evaluated with and
   without optimization. Any divergence — different items, or an error on
   one side only — is an optimizer soundness bug. This is the tier-1
   tripwire for scope-analysis regressions: a rewrite pass that breaks
   variable scoping fails here instead of shipping.

   Programs run through two layers: the bare XQuery engine, and the XQSE
   session (whose compile path builds the purity environment from the
   program's own declarations before optimizing) — a session-layer
   regression in environment threading would diverge here even if the
   engine layer stays sound. *)

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
      (* streaming vs forced-materializing: the cursor pipeline must be
         invisible — same items, same errors, in both optimizer modes *)
      let mat = outcome xq_nostream src in
      if mat <> opt then
        Alcotest.failf
          "streaming changed program semantics:\n%s\n  materializing: %s\n  streaming:     %s"
          src (show mat) (show opt);
      let mat_noopt = outcome xq_noopt_nostream src in
      if mat_noopt <> unopt then
        Alcotest.failf
          "streaming changed program semantics (unoptimized):\n\
           %s\n  materializing: %s\n  streaming:     %s"
          src (show mat_noopt) (show unopt);
      (* compiled vs interpreted: closure-compiled plans must be
         invisible — same items, same errors *)
      let interp = outcome xq_noplans src in
      if interp <> opt then
        Alcotest.failf
          "closure compilation changed program semantics:\n\
           %s\n  interpreted: %s\n  compiled:    %s"
          src (show interp) (show opt))

(* Session-level agreement: one shared session per mode (program
   declarations compile against copies, so corpus programs cannot leak
   into each other), forced lazily so suite construction stays cheap. *)
let session_opt = lazy (Xqse.Session.create ())
let session_noopt = lazy (Xqse.Session.create ~optimize:false ())

let session_nostream =
  lazy
    (Xqse.Session.create
       ~config:{ Xqse.Session.default_config with streaming = false }
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
      let mat = outcome (eval session_nostream) src in
      if mat <> opt then
        Alcotest.failf
          "streaming changed program semantics (session layer):\n\
           %s\n  materializing: %s\n  streaming:     %s"
          src (show mat) (show opt);
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

(* Rewrite statistics for one corpus program, through the same
   entry point the engine uses. *)
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

let suites =
  [
    ("differential", meta_tests @ directed_tests @ generated_tests);
    ("differential-session", directed_session_tests @ generated_session_tests);
  ]
