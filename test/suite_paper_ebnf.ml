(* Conformance against the paper's appendix EBNF: every XQSE production
   gets at least one accepted form (executed where meaningful) and,
   where the grammar constrains shape, a rejected form. *)

open Util
open Core

(* parse-only check through the XQSE program parser *)
let parses name src =
  case name (fun () ->
      ignore
        (Xqse.Parse.parse_program (Xquery.Context.default_static ()) src))

let rejects name src =
  case name (fun () ->
      match Xqse.Parse.parse_program (Xquery.Context.default_static ()) src with
      | _ -> Alcotest.failf "expected a syntax error for %s" src
      | exception Xdm.Item.Error { code = { local = "XPST0003"; _ }; _ } -> ())

let prolog_productions =
  [
    (* PROLOG ::= ... (VARDECL | FUNCTIONDECL | PROCEDUREDECL | OPTIONDECL) ... *)
    parses "prolog mixes declarations in either group order"
      {|declare namespace a = "urn:a";
        declare variable $v := 1;
        declare function local:f() { 1 };
        declare procedure local:p() { return value 1; };
        declare option local:o "x";
        $v|};
    (* PROCEDUREDECL ::= "declare" ("readonly")? "procedure" QNAME "(" PARAMLIST? ")"
                         ("as" SEQUENCETYPE)? (BLOCK | "external") *)
    parses "proceduredecl minimal" "declare procedure local:p() { };";
    parses "proceduredecl readonly with type"
      "declare readonly procedure local:p($a as xs:integer) as xs:integer { return value $a; };";
    parses "proceduredecl external" "declare procedure local:p() external;";
    parses "proceduredecl multiple parameters"
      "declare procedure local:p($a, $b as xs:string, $c as item()*) { };";
    rejects "proceduredecl without name" "declare procedure () { };";
    (* QUERYBODY ::= EXPR | BLOCK *)
    parses "query body as expression" "1 + 1";
    parses "query body as block" "{ return value 1; }";
  ]

let statement_productions =
  [
    (* BLOCK ::= "{" (BLOCKDECL ";")* ((SIMPLESTATEMENT ";") | BLOCKSTATEMENT (";")?)* "}" *)
    s "empty block" "" "{ }";
    parses "trailing semicolon after block statement optional"
      "{ while (false()) { } }";
    parses "trailing semicolon after block statement allowed"
      "{ while (false()) { }; }";
    rejects "missing semicolon after simple statement" "{ set $x := 1 set $y := 2; }";
    rejects "block declarations must precede statements"
      "{ set $x := 1; declare $y := 2; }";
    (* BLOCKDECL ::= "declare" "$" VARNAME TYPEDECLARATION? (":=" VALUESTATEMENT)?
                     ("," "$" VARNAME ...)* *)
    s "blockdecl with and without init and type" "1"
      "{ declare $a, $b as xs:integer := 1, $c := 'x'; return value $b; }";
    (* SETSTATEMENT ::= "set" "$" VARNAME ":=" VALUESTATEMENT *)
    s "set statement" "2" "{ declare $x := 1; set $x := 2; return value $x; }";
    rejects "set requires :=" "{ declare $x := 1; set $x = 2; }";
    (* RETURNSTATEMENT ::= "return" "value" VALUESTATEMENT *)
    s "return value statement" "ok" {| { return value "ok"; } |};
    rejects "return without value keyword is not a statement"
      "{ return 1; }";
    (* WHILESTATEMENT ::= "while" "(" NONUPDATINGEXPR ")" BLOCK *)
    parses "while requires a block"
      "{ declare $x := 0; while ($x lt 3) { set $x := $x + 1; } }";
    rejects "while body must be a block"
      "{ declare $x := 0; while ($x lt 3) set $x := $x + 1; }";
    (* ITERATESTATEMENT ::= "iterate" "$" VARNAME POSITIONALVAR? "over" VALUESTATEMENT BLOCK *)
    parses "iterate minimal" "{ iterate $x over (1, 2) { } }";
    parses "iterate with positional variable" "{ iterate $x at $i over (1, 2) { } }";
    rejects "iterate body must be a block" "{ iterate $x over (1, 2) set $y := $x; }";
    (* IFSTATEMENT ::= "if" "(" NONUPDATINGEXPR ")" "then" STATEMENT ("else" STATEMENT)? *)
    parses "if statement without else" "{ declare $r := 0; if (1 lt 2) then set $r := 1; }";
    parses "if statement with statement branches"
      "{ declare $r := 0; if (1 lt 2) then { set $r := 1; } else { set $r := 2; }; }";
    (* TRYSTATEMENT ::= "try" BLOCK CATCHCLAUSESTATEMENT+ *)
    parses "try with several catch clauses"
      {|declare namespace p1 = "urn:p1";
        { try { } catch (E1) { } catch (p1:*) { } catch (*:local) { } catch (*:*) { } catch (*) { } }|};
    rejects "try requires at least one catch" "{ try { } }";
    (* CATCHCLAUSESTATEMENT "into" forms: 1 to 3 variables *)
    parses "catch into one" "{ try { } catch (* into $e) { } }";
    parses "catch into two" "{ try { } catch (* into $e, $m) { } }";
    parses "catch into three" "{ try { } catch (* into $e, $m, $d) { } }";
    (* CONTINUESTATEMENT / BREAKSTATEMENT ::= name "(" ")" *)
    parses "continue and break parenthesized"
      "{ iterate $x over (1, 2) { continue(); }; while (false()) { break(); } }";
    (* PROCEDUREBLOCK ::= "procedure" BLOCK *)
    s "procedure block as a value statement" "5"
      "{ declare $v := procedure { return value 5; }; return value $v; }";
    (* UPDATESTATEMENT ::= EXPRSINGLE (updating) *)
    s "update statement from an updating expression" "done"
      {|declare variable $d := <a><b>0</b></a>;
        { replace value of node $d/b with 1; return value "done"; }|};
    (* PROCEDURECALL ::= FUNCTIONCALL restricted to procedures *)
    s "procedure call statement" "7"
      {|declare procedure local:bump($x as xs:integer) as xs:integer { return value $x + 1; };
        { declare $r := local:bump(6); return value $r; }|};
  ]

(* The four sample-usage sources from section III.D parse as written in
   the fixtures (full execution is covered by the integration suite). *)
let usecase_sources =
  [
    parses "use case 1 source" Fixtures.Employees.uc1_delete_source;
    parses "use case 2 source" Fixtures.Employees.uc2_chain_source;
    parses "use case 3 source" Fixtures.Employees.uc3_etl_source;
    parses "use case 4 source" Fixtures.Employees.uc4_replicate_source;
    parses "figure 3 source" Fixtures.Customer_profile.profile_source;
  ]

(* Statements are NOT composable inside expressions (section IV: the
   XQueryP contrast). *)
let composability_tests =
  [
    rejects "while is not an expression" "1 + (while (false()) { })";
    rejects "set is not an expression" "let $x := (set $y := 1) return 0";
    rejects "blocks are not expressions" "1 + { return value 1; }";
    s_err "procedures are not functions inside expressions" "XPST0017"
      {|declare procedure local:p() { return value 1; };
        2 * local:p()|};
    s "readonly procedures ARE functions inside expressions" "2"
      {|declare readonly procedure local:p() as xs:integer { return value 1; };
        2 * local:p()|};
  ]

let suites =
  [
    ("ebnf.prolog", prolog_productions);
    ("ebnf.statements", statement_productions);
    ("ebnf.paper-sources", usecase_sources);
    ("ebnf.composability", composability_tests);
  ]
