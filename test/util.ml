(* Shared helpers for the test suites. *)

open Core

(* Every query compiles and runs in a fresh session configured by
   [config]: a plain XQuery main module is an XQSE program whose body is
   an expression, so one pipeline serves both. *)
let xq ?(config = Xqse.Session.default_config) ?context_item ?(vars = []) src
    =
  let opts = { Xqse.Session.default_exec_opts with context_item; vars } in
  Xqse.Session.eval_to_string ~opts (Xqse.Session.create ~config ()) src

let xq_noopt src =
  xq ~config:{ Xqse.Session.default_config with optimize = false } src

(* interpreted mode: closure compilation and the plan cache disabled —
   every query walks the AST directly with the eager reference walker;
   the differential suites compare it against the default compiled
   (streaming) mode, in each optimizer mode *)
let xq_noplans src =
  xq ~config:{ Xqse.Session.default_config with plans = false } src

let xq_noopt_noplans src =
  xq
    ~config:{ Xqse.Session.default_config with optimize = false; plans = false }
    src

(* a test case asserting the serialized result of a query *)
let q name expected src =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) src expected (xq src))

(* expect a dynamic/static error whose code has this local name *)
let q_err name code src =
  Alcotest.test_case name `Quick (fun () ->
      match xq src with
      | result ->
        Alcotest.failf "expected error %s, got result %s" code result
      | exception Xdm.Item.Error { code = actual; _ } ->
        Alcotest.(check string) src code actual.Xdm.Qname.local)

(* expect a syntax error *)
let q_syntax name src =
  Alcotest.test_case name `Quick (fun () ->
      match xq src with
      | result -> Alcotest.failf "expected a syntax error, got %s" result
      | exception (Xquery.Parser.Syntax_error _ | Xquery.Lexer.Lex_error _) ->
        ())

(* the XQSE suites' names for the same helpers: one pipeline runs
   XQuery main modules and XQSE programs alike *)
let xqse = xq
let s = q
let s_err = q_err
let s_syntax = q_syntax

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let case name f = Alcotest.test_case name `Quick f

let prop name ?(count = 200) arbitrary f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arbitrary f)
