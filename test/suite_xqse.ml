(* XQSE statements and procedures, per the paper's semantics (section
   III.B), including the paper's own inline examples. *)

open Util
open Core

let block_tests =
  [
    s "hello world (paper III.B.7)" "Hello, World"
      {| { return value "Hello, World"; } |};
    s "block without return yields empty" ""
      {| { declare $x := 1; set $x := 2; } |};
    s "declarations execute in order" "3"
      {| { declare $a := 1, $b := $a + 2; return value $b; } |};
    s "uninitialized variable reads as empty" "0"
      {| { declare $x; return value count($x); } |};
    s "nested block scoping shadows" "1"
      {| { declare $x := 1; { declare $x := 2; set $x := 3; } return value $x; } |};
    s "inner block sees outer variables" "5"
      {| { declare $x := 5; declare $y := 0; { set $y := $x; } return value $y; } |};
    s "return from nested block stops outer execution" "inner"
      {| { { return value "inner"; } return value "outer"; } |};
    s "query body may still be a plain expression" "6" "2 * 3";
    s_err "assignment to undeclared variable" "XQSE0001"
      {| { set $nope := 1; } |};
    s_err "assignment to iterate variable" "XQSE0001"
      {| { iterate $x over (1, 2) { set $x := 9; } } |};
    s "typed declaration checks init" "5"
      {| { declare $n as xs:integer := 5; return value $n; } |};
    s_err "typed declaration rejects bad init" "XPTY0004"
      {| { declare $n as xs:integer := 'x'; return value $n; } |};
    s_err "typed assignment rejects bad value" "XPTY0004"
      {| { declare $n as xs:integer := 1; set $n := 'x'; return value $n; } |};
    s "assignment failure leaves previous value (III.B.6)" "1"
      {| {
        declare $n := 1;
        try { set $n := (1 div 0); } catch (*) { }
        return value $n;
      } |};
  ]

let while_tests =
  [
    s "paper while example (III.B.10)" "3 6 12 24 48 96"
      {| {
        declare $y, $x := 3;
        while ($x lt 100) {
          set $y := ($y, $x);
          set $x := $x * 2;
        }
        return value $y;
      } |};
    s "while false never executes" "untouched"
      {| { declare $r := "untouched"; while (false()) { set $r := "touched"; } return value $r; } |};
    s "while with return exits the procedure" "found"
      {| {
        declare $i := 0;
        while (true()) {
          set $i := $i + 1;
          if ($i eq 3) then return value "found";
        }
        return value "unreachable";
      } |};
    s "break stops the loop" "0 1 2 3"
      {| {
        declare $acc := 0, $i := 0;
        declare $out := ();
        while (true()) {
          set $out := ($out, $i);
          if ($i ge 3) then break();
          set $i := $i + 1;
        }
        return value $out;
      } |};
    s "continue skips to the next test" "1 3 5"
      {| {
        declare $i := 0, $out := ();
        while ($i lt 6) {
          set $i := $i + 1;
          if ($i mod 2 eq 0) then continue();
          set $out := ($out, $i);
        }
        return value $out;
      } |};
    s "nested while with break affects inner loop only" "3"
      {| {
        declare $count := 0, $i := 0;
        while ($i lt 3) {
          set $i := $i + 1;
          while (true()) { break(); }
          set $count := $count + 1;
        }
        return value $count;
      } |};
  ]

let iterate_tests =
  [
    s "iterate binds in sequence order" "a b c"
      {| {
        declare $out := ();
        iterate $x over ('a', 'b', 'c') { set $out := ($out, $x); }
        return value $out;
      } |};
    s "positional variable counts from 1" "10 40 90"
      {| {
        declare $out := ();
        iterate $x at $i over (10, 20, 30) { set $out := ($out, $x * $i); }
        return value $out;
      } |};
    s "iterate over empty does nothing" "none"
      {| { declare $r := "none"; iterate $x over () { set $r := "some"; } return value $r; } |};
    s "binding sequence evaluated once up front" "1 2"
      {| {
        declare $src := (1, 2), $out := ();
        iterate $x over $src {
          set $out := ($out, $x);
          set $src := ($src, 99);
        }
        return value $out;
      } |};
    s "break inside iterate" "1 2"
      {| {
        declare $out := ();
        iterate $x over 1 to 10 {
          if ($x gt 2) then break();
          set $out := ($out, $x);
        }
        return value $out;
      } |};
    s "continue inside iterate" "2 4"
      {| {
        declare $out := ();
        iterate $x over 1 to 5 {
          if ($x mod 2 eq 1) then continue();
          set $out := ($out, $x);
        }
        return value $out;
      } |};
    s "return inside iterate stops everything" "2"
      {| {
        iterate $x over (1, 2, 3) {
          if ($x eq 2) then return value $x;
        }
        return value "after";
      } |};
    s "iterate over node sequence" "b1 b2"
      {| {
        declare $out := ();
        iterate $n over (<a><b>b1</b><b>b2</b></a>)/b {
          set $out := ($out, string($n));
        }
        return value $out;
      } |};
  ]

let if_tests =
  [
    s "if statement without else" "yes"
      {| { declare $r := "no"; if (1 lt 2) then set $r := "yes"; return value $r; } |};
    s "if/else selects else branch" "ge"
      {| { declare $r := ""; if (2 lt 1) then set $r := "lt" else set $r := "ge"; return value $r; } |};
    s "if with block branches" "B"
      {| {
        declare $r := "";
        if (false()) then { set $r := "A"; } else { set $r := "B"; };
        return value $r;
      } |};
    s "nested if statements" "mid"
      {| {
        declare $x := 5, $r := "";
        if ($x lt 3) then set $r := "low"
        else if ($x lt 7) then set $r := "mid"
        else set $r := "high";
        return value $r;
      } |};
  ]

let try_tests =
  [
    s "paper try/catch example (III.B.13)" "Error"
      {| {
        declare $x, $y := 0;
        try {
          set $x := $y div 0;
          return value $x;
        } catch (*:* into $e, $m) {
          return value "Error";
        }
      } |};
    s "no error: catch is skipped" "fine"
      {| { try { return value "fine"; } catch (*) { return value "caught"; } } |};
    s "catch binds code, message and items" "CODE|boom|2"
      {| {
        try {
          fn:error(xs:QName("CODE"), "boom", (1, 2));
        } catch (* into $c, $m, $items) {
          return value concat($c, "|", $m, "|", count($items));
        }
      } |};
    s "first matching catch wins" "specific"
      {| {
        try { fn:error(xs:QName("E1")); }
        catch (E1) { return value "specific"; }
        catch (*) { return value "generic"; }
      } |};
    s "name test mismatch falls through to later clause" "generic"
      {| {
        try { fn:error(xs:QName("E2")); }
        catch (E1) { return value "specific"; }
        catch (*) { return value "generic"; }
      } |};
    s_err "unmatched error propagates" "E3"
      {| { try { fn:error(xs:QName("E3")); } catch (E1) { return value "no"; } } |};
    s "namespace wildcard test" "caught"
      {| {
        try { fn:error(fn:QName("http://www.w3.org/2005/xqt-errors", "FOER0000")); }
        catch (err:*) { return value "caught"; }
      } |};
    s "local wildcard test" "caught"
      {| {
        try { fn:error(fn:QName("urn:whatever", "BOOM")); }
        catch (*:BOOM) { return value "caught"; }
      } |};
    s "side effects before the error survive (III.B.13)" "2"
      {| {
        declare $d := <a><b>1</b></a>;
        try {
          replace value of node $d/b with 2;
          fn:error(xs:QName("X"));
        } catch (*) { }
        return value string($d/b);
      } |};
    s "errors inside catch propagate" "rethrown"
      {| {
        try {
          try { fn:error(xs:QName("A")); }
          catch (*) { fn:error(xs:QName("B"), "rethrown"); }
        } catch (B into $c, $m) { return value $m; }
      } |};
    s "nested try scopes" "inner outer"
      {| {
        declare $log := ();
        try {
          try { fn:error(xs:QName("X")); }
          catch (*) { set $log := ($log, "inner"); fn:error(xs:QName("Y")); }
        } catch (*) { set $log := ($log, "outer"); }
        return value $log;
      } |};
    s "catch (*) binds a stray break()'s code" "err:XQSE0003|break() outside a loop"
      {| declare procedure local:p() { break(); };
         {
           try { local:p(); }
           catch (* into $c, $m) { return value concat(string($c), "|", $m); }
           return value "after";
         } |};
  ]

let value_stmt_tests =
  [
    s "procedure block as value statement" "42"
      {| {
        declare $v := procedure {
          declare $t := 40;
          set $t := $t + 2;
          return value $t;
        };
        return value $v;
      } |};
    s "procedure block without return yields empty" "0"
      {| { declare $v := procedure { declare $x := 1; }; return value count($v); } |};
    s "procedure block reads enclosing variables" "7"
      {| {
        declare $outer := 7;
        declare $v := procedure { return value $outer; };
        return value $v;
      } |};
    s "expression statements run for effect" "2"
      {| {
        declare $d := <a><b>0</b></a>;
        fn:trace("side effect");
        replace value of node $d/b with 2;
        return value string($d/b);
      } |};
    s "return value of complex expression" "1 4 9"
      {| { return value (for $i in 1 to 3 return $i * $i); } |};
  ]

let procedure_tests =
  [
    case "break() or continue() outside a loop raises XQSE0003" (fun () ->
        (* a procedure body, an in-place procedure and a query body, each
           compiled and interpreted *)
        List.iter
          (fun (mode, run) ->
            List.iter
              (fun src ->
                match run src with
                | r -> Alcotest.failf "%s: %s returned %s" mode src r
                | exception
                    Xdm.Item.Error { code = { local = "XQSE0003"; _ }; _ } ->
                  ())
              [
                "declare procedure local:p() { break(); }; { local:p(); }";
                "declare procedure local:p() { continue(); }; { local:p(); }";
                "{ declare $v := procedure { break(); }; return value $v; }";
                "{ declare $v := procedure { continue(); }; return value $v; }";
                "{ continue(); }";
                "{ break(); }";
              ])
          [ ("plans", fun src -> xq src); ("plans=false", xq_noplans) ]);
    s "procedure declaration and call" "done"
      {|
declare procedure local:work() { return value "done"; };
{ return value local:work(); }
|};
    s "procedure returning empty by falling off the end" "0"
      {|
declare procedure local:noop() { declare $x := 1; };
{ declare $r := local:noop(); return value count($r); }
|};
    s "parameters are read-only bindings" "15"
      {|
declare procedure local:scale($x as xs:integer, $k as xs:integer) as xs:integer {
  return value $x * $k;
};
{ return value local:scale(5, 3); }
|};
    s "readonly procedure callable from XQuery (III.A)" "2 4 6"
      {|
declare readonly procedure local:double($x as xs:integer) as xs:integer {
  return value $x * 2;
};
for $i in 1 to 3 return local:double($i)
|};
    s "declare xqse function alternate syntax" "720"
      {|
declare xqse function local:fact($n as xs:integer) as xs:integer {
  declare $acc := 1, $i := 1;
  while ($i le $n) { set $acc := $acc * $i; set $i := $i + 1; }
  return value $acc;
};
local:fact(6)
|};
    s_err "non-readonly procedure not callable from expressions" "XPST0017"
      {|
declare procedure local:sideeffect() { return value 1; };
1 + local:sideeffect()
|};
    s "procedures may call procedures" "8"
      {|
declare procedure local:inc($x as xs:integer) as xs:integer { return value $x + 1; };
declare procedure local:twice($x as xs:integer) as xs:integer {
  declare $once := local:inc($x);
  return value local:inc($once);
};
{ return value local:twice(6); }
|};
    s "recursive procedure" "55"
      {|
declare readonly procedure local:fib($n as xs:integer) as xs:integer {
  if ($n le 1) then return value $n;
  return value local:fib($n - 1) + local:fib($n - 2);
};
{ return value local:fib(10); }
|};
    s_err "procedure argument type enforced" "XPTY0004"
      {|
declare procedure local:p($x as xs:integer) { return value $x; };
{ return value local:p('not a number'); }
|};
    s_err "procedure return type enforced" "XPTY0004"
      {|
declare procedure local:p() as xs:integer { return value 'text'; };
{ return value local:p(); }
|};
    s_err "duplicate procedure declaration" "XQST0034"
      {|
declare procedure local:p() { return value 1; };
declare procedure local:p() { return value 2; };
{ return value local:p(); }
|};
    s "procedures and functions may coexist and cooperate" "9"
      {|
declare function local:square($x as xs:integer) as xs:integer { $x * $x };
declare procedure local:run() as xs:integer { return value local:square(3); };
{ return value local:run(); }
|};
  ]

let program_tests =
  [
    s "prolog variables visible in blocks" "11"
      {|
declare variable $base := 10;
{ declare $x := $base + 1; return value $x; }
|};
    case "library programs reject query bodies" (fun () ->
        let session = Xqse.Session.create () in
        check_bool "raises" true
          (match
             Xqse.Session.load_library session
               "declare procedure local:p() { return value 1; }; { return value 2; }"
           with
          | () -> false
          | exception Xdm.Item.Error { code; _ } ->
            code.Xdm.Qname.local = "XQSE0002"));
    case "load_library persists declarations across programs" (fun () ->
        let session = Xqse.Session.create () in
        Xqse.Session.load_library session
          "declare readonly procedure local:three() as xs:integer { return value 3; };";
        check_string "call1" "3" (Xqse.Session.eval_to_string session "local:three()");
        check_string "call2" "6"
          (Xqse.Session.eval_to_string session "local:three() * 2"));
    case "session call API reaches procedures" (fun () ->
        let session = Xqse.Session.create () in
        Xqse.Session.load_library session
          "declare procedure local:add($a as xs:integer, $b as xs:integer) as xs:integer { return value $a + $b; };";
        check_string "call" "5"
          (Xdm.Xml_serialize.seq_to_string
             (Xqse.Session.call session (Xdm.Qname.make ~uri:Xdm.Qname.local_default_ns "add")
                [ Xdm.Item.int 2; Xdm.Item.int 3 ])));
    case "external procedures registered by the host" (fun () ->
        let session = Xqse.Session.create () in
        let log = ref [] in
        Xqse.Session.register_procedure session
          (Xdm.Qname.make ~uri:"urn:host" "log")
          1
          (fun args ->
            log := Xdm.Xml_serialize.seq_to_string (List.hd args) :: !log;
            []);
        Xqse.Session.declare_namespace session "h" "urn:host";
        ignore
          (Xqse.Session.eval session
             {| { iterate $x over (1, 2) { h:log($x); } return value "ok"; } |});
        check_bool "called" true (List.rev !log = [ "1"; "2" ]));
    s_err "bare break is an expression statement, not a break" "XPDY0002"
      "{ break; }";
    s_syntax "set without assign" "{ declare $x := 1; set $x 2; }";
    s_syntax "iterate without over" "{ iterate $x (1, 2) { } }";
  ]

let suites =
  [
    ("xqse.block", block_tests);
    ("xqse.while", while_tests);
    ("xqse.iterate", iterate_tests);
    ("xqse.if", if_tests);
    ("xqse.try", try_tests);
    ("xqse.value-stmt", value_stmt_tests);
    ("xqse.procedures", procedure_tests);
    ("xqse.programs", program_tests);
  ]
