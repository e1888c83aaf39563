(* The purity/effect analysis that gates the cost-based optimizer
   rewrites. Three layers of coverage:

   - the builtin effect table must classify every function the standard
     registry actually installs (a new builtin without a verdict would
     silently pessimize every call site to impure — or worse, a wrong
     arity would);
   - the fixpoint over user function declarations (mutual recursion,
     trace-calling bodies, externals);
   - adversarial shapes where a wrong verdict changes semantics: shadowed
     same-name functions across programs, [fn:trace]-bound lets, and
     context-dependent ([fn:position]) values near shifted focus. *)

open Util
open Core
open Xquery

let parse src =
  Parser.parse_expression (Context.default_static ()) src

let analyze ?(env = Purity.empty_env) src = Purity.analyze env (parse src)

let stats_of src = snd (Optimizer.optimize_with_stats (parse src))

(* function declarations of a parsed program, plus an environment built
   the way Session.compile builds one *)
let decls_of src =
  (Xqse.Parse.parse_program (Context.default_static ()) src)
    .Xqse.Stmt.prog_functions

let env_of src =
  Purity.env_for ~registry:(Builtins.standard_registry ()) (decls_of src)

let verdict_of env decls name =
  match
    List.find_opt (fun d -> d.Ast.fd_name.Xdm.Qname.local = name) decls
  with
  | None -> Alcotest.failf "no declaration named %s" name
  | Some d -> (
    match Purity.lookup env d.Ast.fd_name (List.length d.Ast.fd_params) with
    | Some v -> v
    | None -> Alcotest.failf "no verdict for %s" name)

let table_tests =
  [
    case "every installed builtin has a verdict" (fun () ->
        (* the table is complete by construction of this test: adding a
           builtin to the registry without classifying it fails here *)
        let reg = Builtins.standard_registry () in
        let missing =
          Context.fold reg ~init:[] ~f:(fun acc f ->
              match f.Context.fn_impl with
              | Context.Builtin _ -> (
                match
                  Purity.builtin_verdict f.Context.fn_name f.Context.fn_arity
                with
                | Some _ -> acc
                | None ->
                  Printf.sprintf "%s/%d"
                    (Xdm.Qname.to_string f.Context.fn_name)
                    f.Context.fn_arity
                  :: acc)
              | _ -> acc)
        in
        if missing <> [] then
          Alcotest.failf "builtins without a purity verdict: %s"
            (String.concat ", " (List.sort compare missing)));
    case "fn:count is total" (fun () ->
        check_bool "total" true
          (Purity.builtin_verdict (Xdm.Qname.fn "count") 1 = Some Purity.total));
    case "fn:current-date is total" (fun () ->
        (* stable within one evaluation, so duplication is unobservable *)
        check_bool "total" true
          (Purity.builtin_verdict (Xdm.Qname.fn "current-date") 0
          = Some Purity.total));
    case "fn:trace is effectful" (fun () ->
        match Purity.builtin_verdict (Xdm.Qname.fn "trace") 2 with
        | Some v -> check_bool "effects" true v.Purity.effects
        | None -> Alcotest.fail "fn:trace unclassified");
    case "fn:error is fallible but not effectful" (fun () ->
        match Purity.builtin_verdict (Xdm.Qname.fn "error") 0 with
        | Some v ->
          check_bool "fallible" true v.Purity.fallible;
          check_bool "no effects" false v.Purity.effects
        | None -> Alcotest.fail "fn:error unclassified");
    case "xs constructors are pure but fallible" (fun () ->
        match Purity.builtin_verdict (Xdm.Qname.xs "integer") 1 with
        | Some v ->
          check_bool "fallible" true v.Purity.fallible;
          check_bool "no effects" false v.Purity.effects;
          check_bool "no construction" false v.Purity.constructs
        | None -> Alcotest.fail "xs:integer unclassified");
    case "unknown names and arities are unclassified" (fun () ->
        check_bool "unknown name" true
          (Purity.builtin_verdict (Xdm.Qname.fn "no-such-function") 1 = None);
        check_bool "known name, wrong arity" true
          (Purity.builtin_verdict (Xdm.Qname.fn "count") 2 = None);
        (* regression: total names used to get a verdict at any
           arity <= 1 — fn:true#1 and fn:exists#0 are never installed,
           so they must stay unclassified (hence impure at call sites) *)
        check_bool "total name, uninstalled arity (true#1)" true
          (Purity.builtin_verdict (Xdm.Qname.fn "true") 1 = None);
        check_bool "total name, uninstalled arity (exists#0)" true
          (Purity.builtin_verdict (Xdm.Qname.fn "exists") 0 = None));
    case "empty env still resolves builtins" (fun () ->
        check_bool "count total via lookup" true
          (Purity.lookup Purity.empty_env (Xdm.Qname.fn "count") 1
          = Some Purity.total));
  ]

let analysis_tests =
  [
    case "literals and arithmetic" (fun () ->
        check_bool "literal total" true (analyze "42" = Purity.total);
        check_bool "arith fallible" true
          ((analyze "1 + 2").Purity.fallible);
        check_bool "arith pure" false ((analyze "1 + 2").Purity.effects));
    case "construction is tracked" (fun () ->
        check_bool "element ctor constructs" true
          ((analyze "<a/>").Purity.constructs);
        check_bool "transform constructs" true
          ((analyze
              "copy $c := <a/> modify insert node <b/> into $c return $c")
             .Purity.constructs);
        check_bool "count(...) of ctor still constructs" true
          ((analyze "count((<a/>, <b/>))").Purity.constructs));
    case "position and last are pure but context-dependent" (fun () ->
        let v = analyze "position()" in
        check_bool "no effects" false v.Purity.effects;
        check_bool "fallible (no focus => XPDY0002)" true v.Purity.fallible);
    case "boolean_valued recognizes boolean shapes" (fun () ->
        let bv src = Purity.boolean_valued (parse src) in
        check_bool "comparison" true (bv "1 eq 2");
        check_bool "and over comparisons" true (bv "(1 eq 2) and (3 lt 4)");
        check_bool "exists" true (bv "exists((1,2))");
        check_bool "if with boolean branches" true
          (bv "if (1 eq 1) then true() else false()");
        check_bool "integer is not boolean" false (bv "3");
        check_bool "filter is unknown" false (bv "(1,2)[1]"));
  ]

let fixpoint_tests =
  [
    case "mutually recursive pure functions converge to pure" (fun () ->
        let src =
          "declare function local:even($n as xs:integer) as xs:boolean { if \
           ($n eq 0) then true() else local:odd($n - 1) }; declare function \
           local:odd($n as xs:integer) as xs:boolean { if ($n eq 0) then \
           false() else local:even($n - 1) }; 0"
        in
        let decls = decls_of src and env = env_of src in
        let even = verdict_of env decls "even" in
        let odd = verdict_of env decls "odd" in
        check_bool "even pure" false even.Purity.effects;
        check_bool "odd pure" false odd.Purity.effects;
        (* recursion depth is checked dynamically, so user functions are
           always fallible no matter how tame the body *)
        check_bool "even fallible" true even.Purity.fallible;
        check_bool "even does not construct" false even.Purity.constructs);
    case "a trace call poisons the whole call chain" (fun () ->
        let src =
          "declare function local:dbg($x as xs:integer) as xs:integer { \
           fn:trace($x, \"dbg\") }; declare function local:caller($x as \
           xs:integer) as xs:integer { local:dbg($x) + 1 }; 0"
        in
        let decls = decls_of src and env = env_of src in
        check_bool "dbg effectful" true (verdict_of env decls "dbg").Purity.effects;
        check_bool "caller effectful" true
          (verdict_of env decls "caller").Purity.effects);
    case "a constructing body propagates through the fixpoint" (fun () ->
        let src =
          "declare function local:mk($n as xs:integer) as element() { \
           <n>{$n}</n> }; declare function local:wrap($n as xs:integer) as \
           element() { local:mk($n + 1) }; 0"
        in
        let decls = decls_of src and env = env_of src in
        check_bool "mk constructs" true (verdict_of env decls "mk").Purity.constructs;
        check_bool "wrap constructs" true
          (verdict_of env decls "wrap").Purity.constructs);
    case "externals are impure" (fun () ->
        let reg = Builtins.standard_registry () in
        let host = Xdm.Qname.make ~uri:"urn:host" "lookup" in
        Context.register_external reg host 1 (fun _ -> []);
        let env = Purity.env_for ~registry:reg [] in
        check_bool "external impure" true
          (Purity.lookup env host 1 = Some Purity.impure));
    case "a decl shadowing a registry user function takes precedence" (fun () ->
        (* regression: on a name/arity collision both bodies stayed on
           the fixpoint worklist — each iteration wrote the decl's
           verdict and then the registry body's over it, so when the
           two disagreed [env_for] flipped forever and never returned.
           The decl's body must be the one analyzed. *)
        let reg = Builtins.standard_registry () in
        let impure_d =
          List.hd
            (decls_of
               "declare function local:f($x as xs:integer) as xs:integer { \
                fn:trace($x, \"f\") }; 0")
        in
        Context.register_user reg impure_d;
        let decls =
          decls_of
            "declare function local:f($x as xs:integer) as xs:integer { $x \
             + 1 }; 0"
        in
        let env = Purity.env_for ~registry:reg decls in
        let v = verdict_of env decls "f" in
        check_bool "decl's pure body wins" false v.Purity.effects);
    case "redeclaring a loaded library function reports XQST0034" (fun () ->
        (* the session path that reached the collision: the purity
           environment is built before registration raises, so this
           used to hang instead of erroring *)
        let sess = Xqse.Session.create () in
        Xqse.Session.load_library sess
          "declare namespace lib = \"urn:lib\"; declare function lib:f($x \
           as xs:integer) as xs:integer { fn:trace($x, \"lib\") };";
        match
          Xqse.Session.eval_to_string sess
            "declare namespace lib = \"urn:lib\"; declare function lib:f($x \
             as xs:integer) as xs:integer { $x + 1 }; lib:f(1)"
        with
        | result -> Alcotest.failf "expected XQST0034, got %s" result
        | exception Xdm.Item.Error { code; _ } ->
          check_string "duplicate function" "XQST0034" code.Xdm.Qname.local);
    case "calls to unknown functions are impure" (fun () ->
        let env = env_of "0" in
        let call = Ast.Call (Xdm.Qname.make ~uri:"urn:mystery" "f", []) in
        check_bool "unknown call impure" true
          (Purity.analyze env call = Purity.impure));
  ]

(* Adversarial: shapes where a wrong verdict would change semantics. The
   differential corpus provides breadth; these name the construct. *)
let adversarial_tests =
  [
    case "same name, different programs, different verdicts" (fun () ->
        (* the environment is per-program: local:f here is pure, local:f
           there calls fn:trace — a global cache keyed by name alone
           would let the pure verdict license inlining the impure one *)
        let pure_env_src =
          "declare function local:f($x as xs:integer) as xs:integer { $x + 1 \
           }; 0"
        and impure_env_src =
          "declare function local:f($x as xs:integer) as xs:integer { \
           fn:trace($x, \"f\") }; 0"
        in
        let d1 = decls_of pure_env_src and e1 = env_of pure_env_src in
        let d2 = decls_of impure_env_src and e2 = env_of impure_env_src in
        check_bool "pure program's f" false (verdict_of e1 d1 "f").Purity.effects;
        check_bool "impure program's f" true (verdict_of e2 d2 "f").Purity.effects);
    case "trace-bound let is never inlined or dropped" (fun () ->
        let st = stats_of "let $x := fn:trace(1, \"m\") return $x + 1" in
        check_int "inlined" 0 st.Optimizer.inlined;
        check_int "inlined_pure" 0 st.Optimizer.inlined_pure;
        let unused = stats_of "let $x := fn:trace(1, \"m\") return 7" in
        check_int "unused trace kept" 0 unused.Optimizer.inlined_pure);
    case "trace fires the same number of times optimized" (fun () ->
        let runs optimize =
          let n = ref 0 in
          let s =
            Xqse.Session.create
              ~config:{ Xqse.Session.default_config with optimize }
              ()
          in
          let opts =
            {
              Xqse.Session.default_exec_opts with
              trace = Some (fun _ -> incr n);
            }
          in
          ignore
            (Xqse.Session.eval ~opts s
               "let $x := fn:trace(3, \"t\") return $x * $x");
          !n
        in
        check_int "one trace either way" (runs false) (runs true));
    case "position-bound let inlines only into the same focus" (fun () ->
        (* head position, same focus: inlining position() is safe *)
        let head = "(4,5,6)[let $p := position() return $p eq 2]" in
        check_int "head inline fires" 1 (stats_of head).Optimizer.inlined_pure;
        check_string "head inline agrees" (xq_noopt head) (xq head);
        (* occurrence inside a nested predicate: substituting would
           rebind position() to the inner focus — must keep the let *)
        let shifted =
          "(4,5,6)[let $p := position() return exists((1,2)[. le $p])]"
        in
        check_int "shifted occurrence kept" 0
          (stats_of shifted).Optimizer.inlined_pure;
        check_string "shifted agrees" (xq_noopt shifted) (xq shifted));
    case "last-bound let behaves like position" (fun () ->
        let src = "(4,5,6)[let $n := last() return position() eq $n]" in
        check_string "result" "6" (xq src);
        check_string "agrees" (xq_noopt src) (xq src));
  ]

(* XQSE readonly procedures register as callable functions carrying the
   purity verdict of their statement body (Interp.declare_procedure), so
   [env_for] classifies calls to them instead of defaulting to impure. *)

let xqse_proc_verdict ?(register = fun _ -> ()) src local =
  let s = Xqse.Session.create () in
  register s;
  if src <> "" then Xqse.Session.load_library s src;
  let reg = Xqse.Session.registry s in
  let env = Purity.env_for ~registry:reg [] in
  let fn =
    Context.fold reg ~init:None ~f:(fun acc f ->
        if acc = None && f.Context.fn_name.Xdm.Qname.local = local then Some f
        else acc)
  in
  match fn with
  | None -> Alcotest.failf "procedure %s was not registered as a function" local
  | Some f -> (
    match Purity.lookup env f.Context.fn_name f.Context.fn_arity with
    | Some v -> v
    | None -> Alcotest.failf "no verdict for %s" local)

let xqse_procedure_tests =
  [
    case "readonly procedure with a pure body is analyzable" (fun () ->
        let v =
          xqse_proc_verdict
            {|declare readonly procedure local:double($x as xs:integer) as xs:integer {
                return value $x * 2;
              };|}
            "double"
        in
        check_bool "no effects" false v.Purity.effects;
        check_bool "fallible (type checks can raise)" true v.Purity.fallible;
        check_bool "no construction" false v.Purity.constructs);
    case "constructing body is reported" (fun () ->
        let v =
          xqse_proc_verdict
            {|declare readonly procedure local:wrap($x as xs:integer) {
                return value <wrapped>{$x}</wrapped>;
              };|}
            "wrap"
        in
        check_bool "no effects" false v.Purity.effects;
        check_bool "constructs" true v.Purity.constructs);
    case "effectful body (fn:trace) is reported" (fun () ->
        let v =
          xqse_proc_verdict
            {|declare readonly procedure local:noisy() {
                return value fn:trace(1, "noisy");
              };|}
            "noisy"
        in
        check_bool "effects" true v.Purity.effects);
    case "statements are walked, not just the returned expression" (fun () ->
        (* the effectful expression hides inside a loop body statement *)
        let v =
          xqse_proc_verdict
            {|declare readonly procedure local:loud($n as xs:integer) {
                declare $i := 0;
                while ($i lt $n) {
                  set $i := fn:trace($i + 1, "tick");
                }
                return value $i;
              };|}
            "loud"
        in
        check_bool "effects" true v.Purity.effects);
    case "host-registered external procedure stays opaque" (fun () ->
        (* no body to analyze: calls must pessimize to impure *)
        let v =
          xqse_proc_verdict ""
            ~register:(fun s ->
              Xqse.Session.register_procedure s ~readonly:true
                (Xdm.Qname.local "hostp") 0
                (fun _ -> []))
            "hostp"
        in
        check_bool "effects (opaque)" true v.Purity.effects;
        check_bool "fallible (opaque)" true v.Purity.fallible);
  ]

let suites =
  [
    ("purity.table", table_tests);
    ("purity.analysis", analysis_tests);
    ("purity.fixpoint", fixpoint_tests);
    ("purity.adversarial", adversarial_tests);
    ("purity.xqse-procedures", xqse_procedure_tests);
  ]
