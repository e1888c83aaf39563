(* Session persistence: library variables, globals across programs, and
   optimizer equivalence at the XQSE statement level. *)

open Util
open Core

let persistence_tests =
  [
    case "library variables persist as globals" (fun () ->
        let s = Xqse.Session.create () in
        Xqse.Session.load_library s "declare variable $base := 100;";
        check_string "read" "101" (Xqse.Session.eval_to_string s "$base + 1");
        check_string "again" "200" (Xqse.Session.eval_to_string s "$base * 2"));
    case "library variables may depend on library functions" (fun () ->
        let s = Xqse.Session.create () in
        Xqse.Session.load_library s
          {|declare function local:five() { 5 };
            declare variable $ten := local:five() * 2;|};
        check_string "value" "10" (Xqse.Session.eval_to_string s "$ten"));
    case "later libraries see earlier globals" (fun () ->
        let s = Xqse.Session.create () in
        Xqse.Session.load_library s "declare variable $a := 3;";
        Xqse.Session.load_library s "declare variable $b := $a * 3;";
        check_string "chained" "9" (Xqse.Session.eval_to_string s "$b"));
    case "XQSE procedures read session globals" (fun () ->
        let s = Xqse.Session.create () in
        Xqse.Session.load_library s
          {|declare variable $rate := 2;
            declare readonly procedure local:scale($x as xs:integer) as xs:integer {
              return value $x * $rate;
            };|};
        check_string "uses global" "14" (Xqse.Session.eval_to_string s "local:scale(7)"));
    case "per-program declarations do not leak into the session" (fun () ->
        let s = Xqse.Session.create () in
        ignore
          (Xqse.Session.eval s
             "declare function local:tmp() { 1 }; local:tmp()");
        match Xqse.Session.eval s "local:tmp()" with
        | _ -> Alcotest.fail "expected XPST0017"
        | exception Xdm.Item.Error { code; _ } ->
          check_string "code" "XPST0017" code.Xdm.Qname.local);
    case "external library variable is rejected" (fun () ->
        let s = Xqse.Session.create () in
        match Xqse.Session.load_library s "declare variable $x external;" with
        | () -> Alcotest.fail "expected error"
        | exception Xdm.Item.Error { code; _ } ->
          check_string "code" "XPDY0002" code.Xdm.Qname.local);
    case "program-level variables override nothing permanently" (fun () ->
        let s = Xqse.Session.create () in
        Xqse.Session.load_library s "declare variable $v := 1;";
        check_string "shadowed inside program" "2"
          (Xqse.Session.eval_to_string s "declare variable $w := $v + 1; $w");
        check_string "original survives" "1" (Xqse.Session.eval_to_string s "$v"));
  ]

(* XQSE programs evaluated with and without the optimizer must agree —
   exercises the statement-level optimization path of Session. *)
let xqse_equivalence_programs =
  [
    {| {
      declare $sum := 0;
      iterate $x over (for $i in 1 to 20 where $i mod 3 eq 0 return $i) {
        set $sum := $sum + $x;
      }
      return value $sum;
    } |};
    {| {
      declare $hits := 0;
      iterate $a over (<r><k>1</k></r>, <r><k>2</k></r>, <r><k>3</k></r>) {
        declare $matches := (for $b in (<s><k>2</k></s>, <s><k>3</k></s>)
                             where $a/k eq $b/k return $b);
        set $hits := $hits + count($matches);
      }
      return value $hits;
    } |};
    {| {
      declare $r := "";
      if (1 + 1 eq 2) then set $r := concat("a", "b") else set $r := "no";
      while (string-length($r) lt 6) { set $r := concat($r, "c"); }
      return value $r;
    } |};
    {|
declare function local:gen($n as xs:integer) as element(v)* {
  for $i in 1 to $n return <v>{$i}</v>
};
{
  declare $total := 0;
  iterate $v over local:gen(10) {
    if (xs:integer($v) mod 2 eq 0) then continue();
    set $total := $total + xs:integer($v);
  }
  return value $total;
} |};
  ]

let equivalence_tests =
  List.mapi
    (fun i src ->
      case (Printf.sprintf "optimized session = unoptimized session #%d" i)
        (fun () ->
          let on = Xqse.Session.create () in
          let off =
            Xqse.Session.create
              ~config:{ Xqse.Session.default_config with optimize = false }
              ()
          in
          check_string "agree"
            (Xqse.Session.eval_to_string off src)
            (Xqse.Session.eval_to_string on src)))
    xqse_equivalence_programs
  @ [
      prop "random XQSE accumulator loops agree across optimizer settings"
        ~count:40
        QCheck.(triple (int_range 1 30) (int_range 1 5) (int_range 0 4))
        (fun (n, step, threshold) ->
          let src =
            Printf.sprintf
              {| {
                declare $acc := 0, $i := 0;
                while ($i lt %d) {
                  set $i := $i + %d;
                  if ($i mod 5 lt %d) then continue();
                  set $acc := $acc + $i;
                }
                return value $acc;
              } |}
              n step threshold
          in
          let on = Xqse.Session.create () in
          let off =
            Xqse.Session.create
              ~config:{ Xqse.Session.default_config with optimize = false }
              ()
          in
          Xqse.Session.eval_to_string on src
          = Xqse.Session.eval_to_string off src);
    ]

(* The session plan cache: repeated program texts must be served from
   cache (hit, no compile span), and anything that changes what a plan
   could have compiled against — a redefined function or procedure, a
   library load — must stop the stale plan from being served, and a
   differently-configured fork must never be served the source's. *)
let plan_cache_tests =
  let counter stats name =
    match List.assoc_opt name stats.Instr.counters with Some n -> n | None -> 0
  in
  let make ?(plans = true) () =
    let instr = Instr.create () in
    Instr.enable instr;
    let s =
      Xqse.Session.create
        ~config:{ Xqse.Session.default_config with instr; plans }
        ()
    in
    (s, instr)
  in
  let delta instr f =
    let before = Instr.stats instr in
    let v = f () in
    (v, Instr.since instr before)
  in
  [
    case "repeated text hits the cache and skips the compile span" (fun () ->
        let s, instr = make () in
        let v1, d1 = delta instr (fun () -> Xqse.Session.eval_to_string s "1 + 2") in
        check_int "first run misses" 1 (counter d1 Instr.K.plan_cache_miss);
        check_int "first run compiles" 1 (counter d1 Instr.K.queries_compiled);
        let v2, d2 = delta instr (fun () -> Xqse.Session.eval_to_string s "1 + 2") in
        check_string "same value" v1 v2;
        check_int "second run hits" 1 (counter d2 Instr.K.plan_cache_hit);
        check_int "second run does not miss" 0 (counter d2 Instr.K.plan_cache_miss);
        check_int "second run does not compile" 0
          (counter d2 Instr.K.queries_compiled);
        (* [since] reports every known timer; the compile span must not
           have accumulated any time on the cached run *)
        check_bool "no time in the compile span" true
          (match List.assoc_opt "compile" d2.Instr.timers with
          | None -> true
          | Some t -> t = 0.0));
    case "a failed parse is a miss that never becomes a plan" (fun () ->
        let s, instr = make () in
        let run () =
          match Xqse.Session.eval_to_string s "1 +" with
          | _ -> Alcotest.fail "expected a syntax error"
          | exception _ -> ()
        in
        let (), d1 = delta instr run in
        check_int "miss recorded" 1 (counter d1 Instr.K.plan_cache_miss);
        check_int "nothing compiled" 0 (counter d1 Instr.K.queries_compiled);
        let (), d2 = delta instr run in
        check_int "still a miss, not a cached failure" 1
          (counter d2 Instr.K.plan_cache_miss);
        check_int "never a hit" 0 (counter d2 Instr.K.plan_cache_hit));
    case "installing a function invalidates plans that missed it" (fun () ->
        (* the stale-resolution scenario: a plan compiled while h:f was
           unknown must not be served once h:f exists (cached XPST0017
           forever); registration flushes the cache *)
        let s, instr = make () in
        let name = Xdm.Qname.make ~uri:"urn:host" ~prefix:"h" "f" in
        Xqse.Session.declare_namespace s "h" "urn:host";
        ignore (Xqse.Session.eval_to_string s "1 + 2");
        (match Xqse.Session.eval_to_string s "h:f()" with
        | v -> Alcotest.failf "expected XPST0017, got %s" v
        | exception Xdm.Item.Error { code; _ } ->
          check_string "unknown before install" "XPST0017" code.Xdm.Qname.local);
        let (), d =
          delta instr (fun () ->
              Xqse.Session.register_function s name 0 (fun _ -> Xdm.Item.int 7))
        in
        check_bool "cached plans flushed" true
          (counter d Instr.K.plan_cache_invalidate >= 1);
        let v, d2 = delta instr (fun () -> Xqse.Session.eval_to_string s "h:f()") in
        check_string "resolves after install" "7" v;
        check_int "recompiled, not served stale" 1
          (counter d2 Instr.K.plan_cache_miss);
        check_int "no stale hit" 0 (counter d2 Instr.K.plan_cache_hit));
    case "installing a procedure invalidates plans that missed it" (fun () ->
        let s, instr = make () in
        let name = Xdm.Qname.make ~uri:"urn:host" ~prefix:"h" "p" in
        Xqse.Session.declare_namespace s "h" "urn:host";
        let prog = "{ return value h:p(); }" in
        (match Xqse.Session.eval_to_string s prog with
        | v -> Alcotest.failf "expected an unknown-call error, got %s" v
        | exception Xdm.Item.Error _ -> ());
        let (), d =
          delta instr (fun () ->
              Xqse.Session.register_procedure s name 0 (fun _ ->
                  Xdm.Item.int 20))
        in
        check_bool "cached plans flushed" true
          (counter d Instr.K.plan_cache_invalidate >= 1);
        let v, d2 = delta instr (fun () -> Xqse.Session.eval_to_string s prog) in
        check_string "resolves after install" "20" v;
        check_int "recompiled" 1 (counter d2 Instr.K.plan_cache_miss);
        check_int "no stale hit" 0 (counter d2 Instr.K.plan_cache_hit));
    case "load_library invalidates cached plans" (fun () ->
        let s, instr = make () in
        ignore (Xqse.Session.eval_to_string s "1 + 2");
        Xqse.Session.load_library s "declare variable $lv := 5;";
        let _, d = delta instr (fun () -> Xqse.Session.eval_to_string s "1 + 2") in
        check_int "recompiled after load" 1 (counter d Instr.K.plan_cache_miss));
    case "optimizer toggles are fingerprint misses" (fun () ->
        (* the flags are fixed per session: toggling one means forking a
           differently-configured session, which compiles its own plans *)
        let s, instr = make () in
        let src = "sum(1 to 9)" in
        ignore (Xqse.Session.eval_to_string s src);
        let noopt =
          Xqse.Session.with_config s
            { (Xqse.Session.config s) with optimize = false }
        in
        let v, d = delta instr (fun () -> Xqse.Session.eval_to_string noopt src) in
        check_string "same value unoptimized" "45" v;
        check_int "optimizer toggle misses" 1 (counter d Instr.K.plan_cache_miss);
        (* each session keeps its own entry, so replaying is a hit again
           on every side *)
        List.iter
          (fun s ->
            let _, d3 = delta instr (fun () -> Xqse.Session.eval_to_string s src) in
            check_int "steady state hits" 1 (counter d3 Instr.K.plan_cache_hit);
            check_int "steady state does not recompile" 0
              (counter d3 Instr.K.queries_compiled))
          [ s; noopt ]);
    case "plans off bypasses the cache entirely" (fun () ->
        let s, instr = make ~plans:false () in
        ignore (Xqse.Session.eval_to_string s "1 + 2");
        let v, d = delta instr (fun () -> Xqse.Session.eval_to_string s "1 + 2") in
        check_string "value" "3" v;
        check_int "no hits" 0 (counter d Instr.K.plan_cache_hit);
        check_int "no misses" 0 (counter d Instr.K.plan_cache_miss);
        check_int "compiled each time" 1 (counter d Instr.K.queries_compiled));
  ]

(* The config record: one immutable value carrying everything the old
   mutator calls set, with with_config as the concurrent-safe way to get
   a differently-configured (or identically-configured) session. *)
let config_tests =
  let counter stats name =
    match List.assoc_opt name stats.Instr.counters with Some n -> n | None -> 0
  in
  [
    case "create ~config round-trips through config" (fun () ->
        let instr = Instr.create () in
        let cfg =
          { Xqse.Session.default_config with optimize = false; instr }
        in
        let s = Xqse.Session.create ~config:cfg () in
        let got = Xqse.Session.config s in
        check_bool "optimize off" false got.Xqse.Session.optimize;
        check_bool "plans on" true got.Xqse.Session.plans;
        check_bool "the given handle" true (got.Xqse.Session.instr == instr);
        check_bool "session agrees" true (Xqse.Session.instr s == instr));
    case "with_config forks are independent both ways" (fun () ->
        let a = Xqse.Session.create () in
        Xqse.Session.load_library a "declare variable $base := 10;";
        let b = Xqse.Session.with_config a (Xqse.Session.config a) in
        check_string "fork sees pre-fork library" "10"
          (Xqse.Session.eval_to_string b "$base");
        (* post-fork registrations stay on their side *)
        let na = Xdm.Qname.make ~uri:"urn:a" ~prefix:"qa" "f" in
        Xqse.Session.declare_namespace a "qa" "urn:a";
        Xqse.Session.register_function a na 0 (fun _ -> Xdm.Item.int 1);
        let nb = Xdm.Qname.make ~uri:"urn:b" ~prefix:"qb" "g" in
        Xqse.Session.declare_namespace b "qb" "urn:b";
        Xqse.Session.register_function b nb 0 (fun _ -> Xdm.Item.int 2);
        check_string "a's function in a" "1"
          (Xqse.Session.eval_to_string a "qa:f()");
        check_string "b's function in b" "2"
          (Xqse.Session.eval_to_string b "qb:g()");
        (* the other side has neither the function nor even the prefix *)
        (match Xqse.Session.eval_to_string b "qa:f()" with
        | v -> Alcotest.failf "fork saw post-fork registration: %s" v
        | exception Xdm.Item.Error _ -> ());
        match Xqse.Session.eval_to_string a "qb:g()" with
        | v -> Alcotest.failf "source saw fork registration: %s" v
        | exception Xdm.Item.Error _ -> ());
    case "with_config re-homes XQSE procedures onto the fork" (fun () ->
        (* a readonly procedure registered before the fork must execute
           against the fork's runtime, not call back into the source *)
        let a = Xqse.Session.create () in
        Xqse.Session.load_library a
          {|declare variable $scale := 3;
            declare readonly procedure local:triple($x as xs:integer) as xs:integer {
              return value $x * $scale;
            };|};
        let b =
          Xqse.Session.with_config a
            { (Xqse.Session.config a) with optimize = false }
        in
        check_string "procedure runs in the fork" "12"
          (Xqse.Session.eval_to_string b "local:triple(4)");
        check_string "and still in the source" "12"
          (Xqse.Session.eval_to_string a "local:triple(4)"));
    case "registrations racing warm lookups never serve stale plans"
      (fun () ->
        (* the regression the atomic generation + fingerprint-guarded
           insert exist for: one domain hammers a cached program while
           another keeps invalidating; after the dust settles the next
           registration must be visible immediately *)
        let instr = Instr.create () in
        Instr.enable instr;
        let s =
          Xqse.Session.create
            ~config:{ Xqse.Session.default_config with instr }
            ()
        in
        let stop = Stdlib.Atomic.make false in
        (* every registration invalidates the session's plans *)
        let invalidator =
          Domain.spawn (fun () ->
              while not (Stdlib.Atomic.get stop) do
                Xqse.Session.register_module s "urn:race" ""
              done)
        in
        (* at least 2,000 evaluations, and on until an invalidation has
           flushed a cached plan: the invalidator domain may not get to
           run before a fixed count ends on a small machine. The
           10-second bound fails the check below if it never does. *)
        let deadline = Unix.gettimeofday () +. 10. in
        let rec hammer n =
          check_string "value stays right under races" "6"
            (Xqse.Session.eval_to_string s "2 * 3");
          if
            n < 2_000
            || counter (Instr.stats instr) Instr.K.plan_cache_invalidate = 0
               && Unix.gettimeofday () < deadline
          then hammer (n + 1)
        in
        hammer 1;
        Stdlib.Atomic.set stop true;
        Domain.join invalidator;
        let st = Instr.stats instr in
        check_bool "invalidations were observed" true
          (counter st Instr.K.plan_cache_invalidate >= 1);
        (* the registration that used to lose the race *)
        let name = Xdm.Qname.make ~uri:"urn:late" ~prefix:"lt" "f" in
        Xqse.Session.declare_namespace s "lt" "urn:late";
        Xqse.Session.register_function s name 0 (fun _ -> Xdm.Item.int 99);
        check_string "post-race registration resolves" "99"
          (Xqse.Session.eval_to_string s "lt:f()");
        check_string "warm text still correct" "6"
          (Xqse.Session.eval_to_string s "2 * 3"));
    case "documents reach blocks and forks, and fork-side ones stay there"
      (fun () ->
        let a = Xqse.Session.create () in
        Xqse.Session.register_doc a "d.xml" (Xdm.Xml_parse.parse "<d><e/><e/></d>");
        let b = Xqse.Session.with_config a (Xqse.Session.config a) in
        let block = "{ return value count(doc('d.xml')/d/e); }" in
        check_string "a block body sees the document" "2"
          (Xqse.Session.eval_to_string a block);
        check_string "the fork inherits it" "2"
          (Xqse.Session.eval_to_string b block);
        Xqse.Session.register_doc b "d.xml" (Xdm.Xml_parse.parse "<d><e/></d>");
        check_string "a fork-side replacement is the fork's" "1"
          (Xqse.Session.eval_to_string b "count(doc('d.xml')/d/e)");
        check_string "the source keeps its own" "2"
          (Xqse.Session.eval_to_string a "count(doc('d.xml')/d/e)"));
  ]

(* The compilation unit: the registry's verdicts and compiled user
   functions, built once per generation and shared by every program
   compiled in it. *)
let unit_tests =
  let counter stats name =
    match List.assoc_opt name stats.Instr.counters with Some n -> n | None -> 0
  in
  [
    case "one unit per generation, and one per fork" (fun () ->
        let instr = Instr.create () in
        Instr.enable instr;
        let fc = Fixtures.Customer_profile.make ~customers:5 ~instr () in
        let s = Aldsp.Dataspace.session fc.Fixtures.Customer_profile.ds in
        let base = counter (Instr.stats instr) Instr.K.plan_unit_built in
        let units () =
          counter (Instr.stats instr) Instr.K.plan_unit_built - base
        in
        let program i =
          Printf.sprintf
            {|count(profile:getProfileById("C1")/CreditCards/CREDIT_CARD) + %d|}
            i
        in
        let cards = Xqse.Session.eval_to_string s (program 0) in
        for i = 1 to 49 do
          check_string "value"
            (string_of_int (int_of_string cards + i))
            (Xqse.Session.eval_to_string s (program i))
        done;
        check_int "50 programs, one unit" 1 (units ());
        let name = Xdm.Qname.make ~uri:"urn:host" ~prefix:"h" "f" in
        Xqse.Session.register_function s name 0 (fun _ -> Xdm.Item.int 1);
        check_int "a registration alone builds nothing" 1 (units ());
        ignore (Xqse.Session.eval_to_string s (program 50));
        check_int "the next compile builds the new generation's" 2 (units ());
        let fork = Xqse.Session.with_config s (Xqse.Session.config s) in
        check_string "the fork compiles" cards
          (Xqse.Session.eval_to_string fork (program 0));
        ignore (Xqse.Session.eval_to_string fork (program 51));
        ignore (Xqse.Session.eval_to_string s (program 52));
        check_int "the fork built its own, once" 3 (units ()));
    case "a readonly procedure compiles without solving the registry"
      (fun () ->
        (* its verdict comes from the purity environment the compile
           already built, so declaring one costs about what declaring a
           function does, not a fixpoint over every registry body *)
        let fc = Fixtures.Customer_profile.make ~customers:5 () in
        let s = Aldsp.Dataspace.session fc.Fixtures.Customer_profile.ds in
        let fork = Xqse.Session.with_config s (Xqse.Session.config s) in
        let words program =
          ignore (Xqse.Session.compile fork (program 0) : Xqse.Session.compiled);
          let n = 20 in
          let before = Gc.minor_words () in
          for i = 1 to n do
            ignore (Xqse.Session.compile fork (program i) : Xqse.Session.compiled)
          done;
          (Gc.minor_words () -. before) /. float_of_int n
        in
        let procedure =
          words
            (Printf.sprintf
               "declare readonly procedure local:p() { return value %d; }; \
                local:p()")
        in
        let func =
          words (Printf.sprintf "declare function local:p() { %d }; local:p()")
        in
        check_bool
          (Printf.sprintf "procedure %.0f words, at most 1.5x function %.0f"
             procedure func)
          true
          (procedure <= 1.5 *. func));
    case "a library function's late-bound call resolves per program"
      (fun () ->
        (* the unit compiles registry bodies before any program exists:
           a name only a program declares is looked up when the call
           runs, so it resolves to that program's declaration or raises
           XPST0017 — in every configuration *)
        List.iter
          (fun (optimize, plans) ->
            let s =
              Xqse.Session.create
                ~config:{ Xqse.Session.default_config with optimize; plans }
                ()
            in
            Xqse.Session.load_library s
              {|declare namespace lib = "urn:lib";
                declare function lib:callsLater() { lib:later() + 1 };|};
            let bare = {|declare namespace lib = "urn:lib"; lib:callsLater()|} in
            let unknown () =
              match Xqse.Session.eval_to_string s bare with
              | v -> Alcotest.failf "expected XPST0017, got %s" v
              | exception Xdm.Item.Error { code; _ } ->
                check_string "code" "XPST0017" code.Xdm.Qname.local
            in
            unknown ();
            check_string
              (Printf.sprintf "declared (optimize=%b, plans=%b)" optimize plans)
              "42"
              (Xqse.Session.eval_to_string s
                 {|declare namespace lib = "urn:lib";
                   declare function lib:later() { 41 };
                   lib:callsLater()|});
            unknown ())
          [ (true, true); (true, false); (false, true); (false, false) ]);
  ]

let suites =
  [
    ("session.persistence", persistence_tests);
    ("session.opt-equivalence", equivalence_tests);
    ("session.plan-cache", plan_cache_tests);
    ("session.config", config_tests);
    ("session.unit", unit_tests);
  ]
