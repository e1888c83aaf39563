(* The rewrite optimizer: each pass, the stats counters, and the
   semantic-preservation property (optimized and unoptimized evaluation
   agree). *)

open Util
open Core

let parse src = Xquery.Parser.parse_expression (Xquery.Context.default_static ()) src

let stats src =
  let _, st = Xquery.Optimizer.optimize_with_stats (parse src) in
  st

let rewrite_log src =
  let lines = ref [] in
  ignore
    (Xquery.Optimizer.optimize_with_stats
       ~log:(fun l -> lines := l :: !lines)
       (parse src));
  List.rev !lines

let contains s sub =
  let n = String.length sub and l = String.length s in
  let rec go i = i + n <= l && (String.sub s i n = sub || go (i + 1)) in
  go 0

let pass_tests =
  [
    case "constant folding of arithmetic" (fun () ->
        check_bool "folded" true ((stats "1 + 2 * 3").Xquery.Optimizer.folded > 0);
        check_bool "result" true
          (Xquery.Optimizer.optimize (parse "1 + 2 * 3")
          = Xquery.Ast.Literal (Xdm.Atomic.Integer 7)));
    case "constant folding of comparisons" (fun () ->
        check_bool "folded" true
          (Xquery.Optimizer.optimize (parse "1 lt 2")
          = Xquery.Ast.Literal (Xdm.Atomic.Boolean true)));
    case "if on constant condition selects branch" (fun () ->
        check_bool "then" true
          (Xquery.Optimizer.optimize (parse "if (1 lt 2) then 'a' else 'b'")
          = Xquery.Ast.Literal (Xdm.Atomic.String "a")));
    case "division by zero is not folded away" (fun () ->
        (* folding must not turn a dynamic error into a value *)
        match Xquery.Optimizer.optimize (parse "1 idiv 0") with
        | Xquery.Ast.Literal _ -> Alcotest.fail "folded an erroring expression"
        | _ -> ());
    case "let inlining of literals" (fun () ->
        check_bool "inlined" true
          ((stats "let $x := 1 return $x + $x").Xquery.Optimizer.inlined > 0));
    case "let alias inlining" (fun () ->
        check_bool "inlined" true
          ((stats "for $a in (1,2) let $b := $a return $b * 2").Xquery.Optimizer.inlined
          > 0));
    case "computed lets are kept" (fun () ->
        check_int "inlined" 0
          (stats "let $x := <a/> return ($x, $x)").Xquery.Optimizer.inlined);
    case "where-to-predicate pushdown" (fun () ->
        check_bool "pushed" true
          ((stats "for $x in (1 to 10) where $x mod 2 eq 0 return $x").Xquery.Optimizer.pushed
          > 0));
    case "pushdown skipped when where uses two variables" (fun () ->
        check_int "pushed" 0
          (stats
             "for $x in (1 to 3) for $y in (1 to 3) where $x + $y eq 4 return 1")
            .Xquery.Optimizer.pushed);
    case "correlated where over an outer variable is pushed" (fun () ->
        (* the inner where names $o, bound by the enclosing FLWOR, which
           no clause of the inner FLWOR rebinds *)
        let src =
          "for $o in (1, 2) return (for $x in (1 to 3) where $x eq $o return \
           $x * 10)"
        in
        check_int "pushed" 1 (stats src).Xquery.Optimizer.pushed;
        check_bool "the rewrite names the outer variable" true
          (List.exists
             (fun l -> contains l "pushdown_predicates: $x where" && contains l "(outer $o)")
             (rewrite_log src));
        check_string "result" "10 20" (xq src);
        check_string "agrees" (xq_noopt src) (xq src));
    case "pushdown skipped when the other variable is bound in the same FLWOR"
      (fun () ->
        (* the where's $o is the inner let, a clause of the same FLWOR:
           the where stays *)
        let src =
          "for $o in (1, 2) return (let $o := $o + 1 for $x in (1 to 6) \
           where $x eq $o return $x)"
        in
        check_int "pushed" 0 (stats src).Xquery.Optimizer.pushed;
        check_string "result" "2 3" (xq src);
        check_string "agrees" (xq_noopt src) (xq src));
    case "equi-join detection" (fun () ->
        check_bool "joins" true
          ((stats
              "for $a in (<r><k>1</k></r>, <r><k>2</k></r>)
               for $b in (<s><k>2</k></s>)
               where $a/k eq $b/k
               return ($a, $b)")
             .Xquery.Optimizer.joins
          > 0));
    case "join not detected for non-equality" (fun () ->
        check_int "joins" 0
          (stats
             "for $a in (<r><k>1</k></r>)
              for $b in (<s><k>2</k></s>)
              where $a/k lt $b/k
              return 1")
            .Xquery.Optimizer.joins);
    case "join not detected when inner source depends on outer" (fun () ->
        check_int "joins" 0
          (stats
             "for $a in (<r><k>1</k></r>)
              for $b in $a/k
              where $a/k eq $b
              return 1")
            .Xquery.Optimizer.joins);
  ]

(* Equivalence: a library of expressions covering every construct the
   optimizer rewrites, evaluated with and without optimization. *)
let equivalence_exprs =
  [
    "1 + 2 * 3 - 4 idiv 2";
    "let $x := 5 return $x * $x";
    "let $x := 'a' let $y := $x return concat($y, $x)";
    "for $i in 1 to 20 where $i mod 3 eq 0 return $i";
    "for $i in 1 to 10 where $i gt 2 and $i lt 8 return $i";
    "for $x in (1 to 5) let $y := $x return (if ($y lt 3) then 'lo' else 'hi')";
    "for $a in (<r><k>1</k><v>a</v></r>, <r><k>2</k><v>b</v></r>)
     for $b in (<s><k>2</k><w>B</w></s>, <s><k>1</k><w>A</w></s>)
     where $a/k eq $b/k
     order by $a/k
     return concat($a/v, $b/w)";
    "for $a in (<r><k>1</k></r>, <r><k>1</k></r>)
     for $b in (<s><k>1</k></s>, <s><k>1</k></s>)
     where $a/k eq $b/k
     return 'x'";
    "count(for $x in 1 to 50 where true() return $x)";
    "for $x in (3, 1, 2) order by $x descending return $x * 10";
    "some $x in (1 to 10) satisfies $x * $x eq 49";
    "<out>{for $i in 1 to 3 where $i ne 2 return <i>{$i}</i>}</out>";
    "for $x in (1 to 5) where $x eq 3 return $x + (let $pad := 0 return $pad)";
  ]

let equivalence_tests =
  List.map
    (fun src ->
      case ("optimized = unoptimized: " ^ String.sub src 0 (min 40 (String.length src)))
        (fun () -> check_string src (xq_noopt src) (xq src)))
    equivalence_exprs

let prop_tests =
  [
    (* randomized FLWOR queries over a small data space *)
    prop "random where/order FLWORs agree with and without optimization"
      ~count:60
      QCheck.(triple (int_range 1 10) (int_range 0 3) bool)
      (fun (n, m, desc) ->
        let src =
          Printf.sprintf
            "for $x in 1 to %d let $y := $x mod 4 where $y ge %d order by $x %s return $x * 2 + $y"
            n m
            (if desc then "descending" else "")
        in
        xq src = xq_noopt src);
    prop "random join queries agree" ~count:40
      QCheck.(pair (int_range 1 6) (int_range 1 6))
      (fun (n, m) ->
        let seq k =
          String.concat ", "
            (List.init k (fun i -> Printf.sprintf "<r><k>%d</k></r>" (i mod 3)))
        in
        let src =
          Printf.sprintf
            "for $a in (%s) for $b in (%s) where $a/k eq $b/k return string($a/k)"
            (seq n) (seq m)
        in
        xq src = xq_noopt src);
  ]

(* Soundness regressions: capture-avoiding substitution, join detection
   across shadowing [let] clauses, and constant-folding edge cases. *)

let agree name src = case name (fun () -> check_string src (xq_noopt src) (xq src))

let trace_run ~optimize src =
  let msgs = ref [] in
  let result =
    Xqse.Session.eval_to_string
      ~opts:
        {
          Xqse.Session.default_exec_opts with
          trace = Some (fun m -> msgs := m :: !msgs);
        }
      (Xqse.Session.create
         ~config:{ Xqse.Session.default_config with optimize }
         ())
      src
  in
  (result, List.rev !msgs)

let soundness_tests =
  [
    case "let inlining is capture-avoiding (issue repro)" (fun () ->
        let src =
          "let $x := 99 return (let $y := $x for $x in (1,2) return $y)"
        in
        check_string "optimized result" "99 99" (xq src);
        check_string "agrees with unoptimized" (xq_noopt src) (xq src));
    agree "alias inlining avoids capture under quantifiers"
      "for $x in (7,8) let $y := $x return some $x in (1 to 3) satisfies $x eq $y";
    agree "alias inlining avoids capture by positional variables"
      "for $x in (5,6) let $y := $x return (for $i at $x in ('a','b') return $y)";
    agree "alias inlining avoids capture by a later let in the same FLWOR"
      "for $x in (3,4) let $y := $x let $x := 0 return $y";
    case "join skipped when a let shadows the probe key variable" (fun () ->
        let src =
          "for $a in (<r><k>1</k></r>, <r><k>2</k></r>)
           for $b in (<s><k>2</k></s>, <s><k>3</k></s>)
           let $a := <r><k>3</k></r>
           where $a/k eq $b/k
           return string($b/k)"
        in
        check_int "joins" 0 (stats src).Xquery.Optimizer.joins;
        check_string src (xq_noopt src) (xq src));
    case "join skipped when a let shadows the build key variable" (fun () ->
        let src =
          "for $a in (<r><k>1</k></r>, <r><k>2</k></r>)
           for $b in (<s><k>9</k></s>)
           let $b := <s><k>2</k></s>
           where $a/k eq $b/k
           return string($a/k)"
        in
        check_int "joins" 0 (stats src).Xquery.Optimizer.joins;
        check_string src (xq_noopt src) (xq src));
    case "value comparison on incomparable literals is not folded" (fun () ->
        let src = "1 eq 'x'" in
        check_int "folded" 0 (stats src).Xquery.Optimizer.folded;
        (match Xquery.Optimizer.optimize (parse src) with
        | Xquery.Ast.Literal _ -> Alcotest.fail "folded an erroring comparison"
        | _ -> ());
        (* both modes must still raise the dynamic type error *)
        List.iter
          (fun run ->
            match run src with
            | (_ : string) -> Alcotest.fail "expected XPTY0004"
            | exception Xdm.Item.Error { code; _ } ->
              check_string "code" "XPTY0004" code.Xdm.Qname.local)
          [ xq; xq_noopt ])
    ;
    case "unary minus on a non-numeric literal is not folded" (fun () ->
        let src = "-'a'" in
        check_int "folded" 0 (stats src).Xquery.Optimizer.folded;
        match Xquery.Optimizer.optimize (parse src) with
        | Xquery.Ast.Literal _ -> Alcotest.fail "folded an erroring negation"
        | _ -> ());
    case "and-fold keeps short-circuit trace behaviour" (fun () ->
        (* the second operand is never evaluated in either mode *)
        let src = "(1 eq 2) and trace(true(), 'boom')" in
        let r_opt, t_opt = trace_run ~optimize:true src in
        let r_no, t_no = trace_run ~optimize:false src in
        check_string "result" r_no r_opt;
        check_int "no trace either way" 0 (List.length t_opt + List.length t_no));
    case "and-fold keeps the traced second operand when it must run" (fun () ->
        let src = "(1 eq 1) and trace(true(), 'side')" in
        let r_opt, t_opt = trace_run ~optimize:true src in
        let r_no, t_no = trace_run ~optimize:false src in
        check_string "result" r_no r_opt;
        check_int "trace fires once optimized" (List.length t_no)
          (List.length t_opt));
    case "and-fold preserves the EBV of a non-boolean operand" (fun () ->
        let src = "(1 eq 1) and 1" in
        check_string "true and 1 is true" (xq_noopt src) (xq src));
    case "or-fold preserves the EBV of a non-boolean operand" (fun () ->
        let src = "(1 eq 2) or 'nonempty'" in
        check_string "false or string is true" (xq_noopt src) (xq src));
  ]

(* The purity-gated rewrites: cost-based inlining of computed lets and
   the focus-shift/boolean-wrap pushdown paths. Each case checks both
   that the rewrite fires (or refuses) via the stats counters and that
   the result agrees with unoptimized evaluation. *)
let purity_gated_tests =
  [
    case "bare numeric where pushes as an EBV test" (fun () ->
        (* regression: pushing [$x] unwrapped made it a positional
           predicate, turning 2 3 into the empty sequence *)
        let src = "for $x in (2,3) where $x return $x" in
        check_bool "pushed" true ((stats src).Xquery.Optimizer.pushed > 0);
        check_string "result" "2 3" (xq src);
        check_string "agrees" (xq_noopt src) (xq src));
    case "fallible condition does not jump an unpushable where" (fun () ->
        (* regression: [1 idiv $x] pushed past the kept two-variable
           where runs on tuples the kept where would have filtered,
           raising FOAR0001 on a program whose result is empty *)
        let src =
          "for $y in (3,4) for $x in (0,1) where ($y + $x eq 9) and (1 idiv \
           $x ge 0) return $x"
        in
        check_int "pushed" 0 (stats src).Xquery.Optimizer.pushed;
        check_string "result" "" (xq src);
        check_string "agrees" (xq_noopt src) (xq src));
    case "pushable condition does not jump a fallible kept where" (fun () ->
        (* regression, dual of the previous case: [empty($x)] is itself
           pure, total and boolean-valued, but pushing it past the kept
           fallible [1 idiv $y ge 1] filters the $y=0 tuple out before
           the idiv runs, turning FOAR0001 into an empty result *)
        (* the conjunction splits into two where clauses in
           normalize_wheres before pushdown sees them *)
        let src =
          "for $y in (0,1) for $x in (1) where (1 idiv $y ge 1) and \
           empty($x) return $x"
        in
        check_int "pushed" 0 (stats src).Xquery.Optimizer.pushed;
        check_string "agrees (both raise)" "FOAR0001"
          (match xq src with
          | _ -> "no error"
          | exception Xdm.Item.Error { code; _ } -> code.Xdm.Qname.local));
    case "pushable condition still jumps a total kept where" (fun () ->
        (* partial pushdown survives when the jumped where is itself
           pure, total and boolean-valued — skipping its evaluation on
           rejected tuples is unobservable *)
        let src =
          "for $y in (1,2) for $x in (3,4) where exists(($y)) and \
           exists($x) return $x"
        in
        check_bool "pushed" true ((stats src).Xquery.Optimizer.pushed > 0);
        check_string "result" "3 4 3 4" (xq src);
        check_string "agrees" (xq_noopt src) (xq src));
    case "head inline into a call requires total later arguments" (fun () ->
        (* the inlined value runs first only because eval.ml happens to
           evaluate arguments left-to-right; refuse the inline unless
           the later arguments are total, so nothing depends on that *)
        let fallible_rest =
          "let $x := xs:integer(\"3\") return concat($x, 1 idiv 0)"
        in
        check_int "kept" 0 (stats fallible_rest).Xquery.Optimizer.inlined_pure;
        check_string "agrees (both raise)" "FOAR0001"
          (match xq fallible_rest with
          | _ -> "no error"
          | exception Xdm.Item.Error { code; _ } -> code.Xdm.Qname.local);
        let total_rest =
          "let $x := xs:integer(\"3\") return concat($x, \"b\")"
        in
        check_int "inlined" 1 (stats total_rest).Xquery.Optimizer.inlined_pure;
        check_string "result" "3b" (xq total_rest));
    case "focus-shifted predicate pushes through a fresh let" (fun () ->
        let src = "for $x in (1,2,3) where count((1,2)[. le $x]) eq 2 return $x" in
        check_int "pushed_shifted" 1 (stats src).Xquery.Optimizer.pushed_shifted;
        check_string "result" "2 3" (xq src);
        check_string "agrees" (xq_noopt src) (xq src));
    case "single-use computed let inlines in head position" (fun () ->
        let src = "let $x := count((1 to 5)) return $x + 1" in
        check_int "inlined_pure" 1 (stats src).Xquery.Optimizer.inlined_pure;
        check_string "result" "6" (xq src));
    case "unused total let is dropped" (fun () ->
        let src = "let $d := current-date() return 7" in
        check_int "inlined_pure" 1 (stats src).Xquery.Optimizer.inlined_pure;
        check_string "result" "7" (xq src));
    case "unused fallible let is kept" (fun () ->
        (* dropping it would swallow its potential dynamic error *)
        let src = "let $x := 1 idiv 0 return 7" in
        check_int "inlined_pure" 0 (stats src).Xquery.Optimizer.inlined_pure;
        check_string "agrees (both raise)" "FOAR0001"
          (match xq src with
          | _ -> "no error"
          | exception Xdm.Item.Error { code; _ } -> code.Xdm.Qname.local));
    case "size cap refuses a large value in non-head position" (fun () ->
        let big = "count((1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18))" in
        let non_head =
          Printf.sprintf "let $x := %s return xs:integer(\"3\") + $x" big
        in
        check_int "kept" 0 (stats non_head).Xquery.Optimizer.inlined_pure;
        check_string "agrees" (xq_noopt non_head) (xq non_head);
        (* the same value in head position inlines regardless of size:
           it is evaluated exactly once either way *)
        let head = Printf.sprintf "let $x := %s return $x + 1" big in
        check_int "head inlines" 1 (stats head).Xquery.Optimizer.inlined_pure;
        check_string "result" "19" (xq head));
    case "multi-use computed let is kept" (fun () ->
        (* inlining would evaluate the computation once per use *)
        let src = "let $x := count((1 to 5)) return $x + $x" in
        let st = stats src in
        check_int "inlined" 0 st.Xquery.Optimizer.inlined;
        check_int "inlined_pure" 0 st.Xquery.Optimizer.inlined_pure;
        check_string "result" "10" (xq src));
    case "constructing let is never inlined" (fun () ->
        (* node identity: a fresh element per use would change [$x | $x] *)
        let src = "let $x := <a/> for $i in (1,2) return count($x | $x)" in
        let st = stats src in
        check_int "inlined_pure" 0 st.Xquery.Optimizer.inlined_pure;
        check_string "result" "1 1" (xq src);
        check_string "agrees" (xq_noopt src) (xq src));
  ]

let suites =
  [
    ("optimizer.passes", pass_tests);
    ("optimizer.purity-gated", purity_gated_tests);
    ("optimizer.equivalence", equivalence_tests @ prop_tests);
    ("optimizer.soundness", soundness_tests);
  ]
