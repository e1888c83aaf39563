(* The fn:* / xs:* builtin function library. *)

open Util

let string_fn_tests =
  [
    q "concat" "abc" "concat('a', 'b', 'c')";
    q "concat many args with empties" "ab" "concat('a', (), 'b', '')";
    q "string-join" "a-b-c" "string-join(('a', 'b', 'c'), '-')";
    q "string-join empty" "" "string-join((), '-')";
    q "substring from" "world" "substring('hello world', 7)";
    q "substring with length" "ell" "substring('hello', 2, 3)";
    q "substring beyond end" "o" "substring('hello', 5, 10)";
    q "substring zero start clips" "he" "substring('hello', 0, 3)";
    q "string-length" "5" "string-length('hello')";
    q "string-length of empty arg" "0" "string-length(())";
    q "upper and lower" "ABC abc" "concat(upper-case('abc'), ' ', lower-case('ABC'))";
    q "contains" "true" "contains('haystack', 'ays')";
    q "contains empty needle" "true" "contains('x', '')";
    q "starts-with / ends-with" "true true"
      "(starts-with('hello', 'he'), ends-with('hello', 'lo'))";
    q "substring-before" "1999" "substring-before('1999/04/01', '/')";
    q "substring-after" "04/01" "substring-after('1999/04/01', '/')";
    q "substring-before no match" "" "substring-before('abc', 'z')";
    q "normalize-space" "a b c" "normalize-space('  a   b\tc  ')";
    q "translate" "BAr" "translate('bar', 'abc', 'ABC')";
    q "translate drops unmapped" "AC" "translate('ABC', 'B', '')";
    q "string of number" "3.5" "string(3.5)";
    q "string of node" "hi" "string(<a>hi</a>)";
    q "string-to-codepoints" "104 105" "string-to-codepoints('hi')";
    q "codepoints-to-string" "hi" "codepoints-to-string((104, 105))";
  ]

let regex_tests =
  [
    q "matches" "true" "matches('abc123', '[0-9]+')";
    q "matches anchors" "false" "matches('abc', '^b')";
    q "matches flags i" "true" "matches('ABC', 'abc', 'i')";
    q "replace" "a-b-c" "replace('a b c', ' ', '-')";
    q "replace with group refs" "[abc]" "replace('abc', '(.+)', '[$1]')";
    q "tokenize" "John Smith" "string-join(tokenize('John Smith', ' '), ' ')";
    q "tokenize first token" "John" "tokenize('John Smith', ' ')[1]";
    q "tokenize keeps inner empties" "3" "count(tokenize('a,,b', ','))";
    q "tokenize of empty string" "0" "count(tokenize('', ','))";
    q_err "invalid regex" "FORX0002" "matches('x', '(unclosed')";
    q_err "invalid flag" "FORX0001" "matches('x', 'x', 'q')";
  ]

let numeric_fn_tests =
  [
    q "abs" "5 5" "(abs(-5), abs(5))";
    q "floor / ceiling" "1 2" "(floor(1.7), ceiling(1.3))";
    q "round" "2 -2" "(round(1.5), round(-1.7))";
    q "round half toward positive infinity" "-2" "round(-2.5)";
    q "round integer passthrough" "7" "round(7)";
    q "number of bad string is NaN" "NaN" "string(number('abc'))";
    q "number of node" "42" "string(number(<a>42</a>))";
  ]

let sequence_fn_tests =
  [
    q "count" "3" "count((1, 2, 3))";
    q "count empty" "0" "count(())";
    q "empty / exists" "true false" "(empty(()), exists(()))";
    q "distinct-values" "3" "count(distinct-values((1, 2, 2, 3, 1)))";
    q "distinct-values mixes untyped as string" "1"
      "count(distinct-values((fn:data(<a>x</a>), 'x')))";
    q "reverse" "3 2 1" "reverse((1, 2, 3))";
    q "subsequence from" "3 4 5" "subsequence((1,2,3,4,5), 3)";
    q "subsequence with length" "2 3" "subsequence((1,2,3,4), 2, 2)";
    (* the F&O window rule in xs:double arithmetic: fn:round the
       arguments (half toward +INF), never convert positions to int *)
    q "subsequence rounds start half up" "3 4 5"
      "subsequence((1,2,3,4,5), 2.5)";
    q "subsequence rounds start down below half" "2 3 4 5"
      "subsequence((1,2,3,4,5), 2.4)";
    q "subsequence negative half start rounds toward +INF" "1 2"
      "subsequence((1,2,3,4,5), -1.5, 4)";
    q "subsequence zero start keeps all" "1 2 3 4 5"
      "subsequence((1,2,3,4,5), 0)";
    q "subsequence negative start eats into length" "1"
      "subsequence((1,2,3,4,5), -2, 4)";
    q "subsequence NaN start is empty" ""
      "string-join(for $i in subsequence((1,2,3,4,5), xs:double('NaN')) return string($i), ' ')";
    q "subsequence NaN length is empty" ""
      "string-join(for $i in subsequence((1,2,3,4,5), 2, xs:double('NaN')) return string($i), ' ')";
    q "subsequence INF start is empty" ""
      "string-join(for $i in subsequence((1,2,3,4,5), xs:double('INF')) return string($i), ' ')";
    q "subsequence INF length keeps the tail" "1 2 3 4 5"
      "subsequence((1,2,3,4,5), -5, xs:double('INF'))";
    q "subsequence -INF start with INF length is empty (NaN bound)" ""
      "string-join(for $i in subsequence((1,2,3,4,5), -xs:double('INF'), xs:double('INF')) return string($i), ' ')";
    q "subsequence huge start does not overflow" ""
      "string-join(for $i in subsequence((1,2,3,4,5), 1e18) return string($i), ' ')";
    q "subsequence huge negative start with huge length is empty" ""
      "string-join(for $i in subsequence((1,2,3,4,5), -1e18, 1e18) return string($i), ' ')";
    q "subsequence huge length keeps the tail" "2 3 4 5"
      "subsequence((1,2,3,4,5), 2, 1e18)";
    q "insert-before" "1 9 2" "insert-before((1, 2), 2, 9)";
    q "insert-before past end appends" "1 2 9" "insert-before((1, 2), 5, 9)";
    q "remove" "1 3" "remove((1, 2, 3), 2)";
    q "remove out of range is identity" "1 2" "remove((1, 2), 9)";
    q "index-of" "2 4" "index-of(('a','b','c','b'), 'b')";
    q "exactly-one ok" "1" "exactly-one((1))";
    q_err "exactly-one fails" "FORG0005" "exactly-one((1, 2))";
    q "zero-or-one" "" "string-join(zero-or-one(()), '')";
    q_err "zero-or-one fails" "FORG0003" "zero-or-one((1, 2))";
    q_err "one-or-more fails" "FORG0004" "one-or-more(())";
    q "deep-equal on trees" "true"
      "deep-equal(<a><b>1</b></a>, <a><b>1</b></a>)";
    q "deep-equal detects difference" "false"
      "deep-equal(<a><b>1</b></a>, <a><b>2</b></a>)";
    q "deep-equal across kinds" "false" "deep-equal((1), (<a>1</a>))";
  ]

let aggregate_tests =
  [
    q "sum" "6" "sum((1, 2, 3))";
    q "sum empty is zero" "0" "sum(())";
    q "sum over untyped" "3" "sum(fn:data(<a><b>1</b><b>2</b></a>/b))";
    q "avg" "2.5" "avg((1, 2, 3, 4))";
    q "avg empty is empty" "" "avg(())";
    q "min max" "1 9" "(min((3, 1, 9)), max((3, 1, 9)))";
    q "min on strings" "a" "min(('b', 'a', 'c'))";
    q_err "sum of strings" "XPTY0004" "sum(('a', 'b'))";
  ]

let node_fn_tests =
  [
    q "name / local-name / namespace-uri" "p:e e urn:p"
      "declare namespace p = 'urn:p';
       let $e := <p:e xmlns:p='urn:p'/> return (name($e), local-name($e), namespace-uri($e))";
    q "local-name of empty" "" "local-name(())";
    q "node-name returns QName" "true"
      "node-name(<a/>) eq fn:QName('', 'a')";
    q "root" "r" "let $r := <r><a><b/></a></r> return local-name(root(($r//b)[1]))";
    q "data on sequence" "1 2" "data((<a>1</a>, <a>2</a>))";
    q "boolean function" "true false" "(boolean(1), boolean(0))";
    q_err "boolean of two atomics" "FORG0006" "boolean((0, 1))";
  ]

let context_fn_tests =
  [
    q "position in predicate" "b" "local-name((<x><a/><b/></x>)/*[position() eq 2])";
    q "last in predicate" "c" "local-name((<x><a/><b/><c/></x>)/*[last()])";
    case "string() uses context item" (fun () ->
        check_string "ctx" "hello"
          (xq
             ~context_item:(Core.Xdm.Item.Atomic (Core.Xdm.Atomic.String "hello"))
             "string()"));
    q_err "string() without context" "XPDY0002" "string()";
    q_err "position outside focus" "XPDY0002" "position()";
  ]

let error_trace_tests =
  [
    q_err "fn:error default code" "FOER0000" "error()";
    q_err "fn:error with QName" "E1" "error(xs:QName('E1'))";
    q_err "fn:error with message" "OOPS" "error(xs:QName('OOPS'), 'something')";
    case "fn:error message is preserved" (fun () ->
        match xq "error(xs:QName('X'), 'the message')" with
        | _ -> Alcotest.fail "expected error"
        | exception Core.Xdm.Item.Error { message; _ } ->
          check_string "msg" "the message" message);
    case "fn:error diagnostic items are carried" (fun () ->
        match xq "error(xs:QName('X'), 'm', (1, 2, 3))" with
        | _ -> Alcotest.fail "expected error"
        | exception Core.Xdm.Item.Error { items; _ } ->
          check_int "items" 3 (List.length items));
    case "fn:trace passes value through and logs" (fun () ->
        let logged = ref [] in
        let s = Core.Xqse.Session.create () in
        Core.Xqse.Session.set_trace s (fun m -> logged := m :: !logged);
        let result =
          Core.Xqse.Session.eval_to_string s "trace((1, 2), 'label')"
        in
        check_string "value" "1 2" result;
        check_bool "logged" true
          (List.exists (fun m -> m = "label: 1 2") !logged));
    case "set_trace reaches a cached plan" (fun () ->
        let s = Core.Xqse.Session.create () in
        let first = ref 0 and second = ref 0 in
        let src = "{ fn:trace(1, 'x'); return value 2; }" in
        Core.Xqse.Session.set_trace s (fun _ -> incr first);
        ignore (Core.Xqse.Session.eval s src);
        Core.Xqse.Session.set_trace s (fun _ -> incr second);
        ignore (Core.Xqse.Session.eval s src);
        check_int "first sink" 1 !first;
        check_int "second sink" 1 !second);
  ]

let doc_tests =
  [
    case "fn:doc resolves registered documents" (fun () ->
        let s = Core.Xqse.Session.create () in
        Core.Xqse.Session.register_doc s "orders.xml"
          (Core.Xdm.Xml_parse.parse "<orders><o id='1'/><o id='2'/></orders>");
        check_string "doc" "2"
          (Core.Xqse.Session.eval_to_string s
             "count(doc('orders.xml')/orders/o)"));
    case "doc-available" (fun () ->
        let s = Core.Xqse.Session.create () in
        Core.Xqse.Session.register_doc s "x" (Core.Xdm.Xml_parse.parse "<x/>");
        check_string "avail" "true false"
          (Core.Xqse.Session.eval_to_string s
             "(doc-available('x'), doc-available('y'))"));
    q_err "missing document" "FODC0002" "doc('nope.xml')";
  ]

let constructor_fn_tests =
  [
    q "xs:integer" "5" "xs:integer(' 5 ')";
    q "xs:double from INF" "INF" "string(xs:double('INF'))";
    q "xs:boolean" "true" "string(xs:boolean('1'))";
    q "xs:date" "2007-12-01" "string(xs:date('2007-12-01'))";
    q "xs:string from number" "42" "xs:string(42)";
    q "constructor of empty is empty" "0" "count(xs:integer(()))";
    q "QName accessors" "b urn:a"
      "(local-name-from-QName(fn:QName('urn:a', 'p:b')), namespace-uri-from-QName(fn:QName('urn:a', 'p:b')))";
    q_err "xs:integer invalid" "FORG0001" "xs:integer('4.5x')";
  ]

let suites =
  [
    ("fn.strings", string_fn_tests);
    ("fn.regex", regex_tests);
    ("fn.numeric", numeric_fn_tests);
    ("fn.sequences", sequence_fn_tests);
    ("fn.aggregates", aggregate_tests);
    ("fn.nodes", node_fn_tests);
    ("fn.context", context_fn_tests);
    ("fn.error-trace", error_trace_tests);
    ("fn.doc", doc_tests);
    ("fn.xs-constructors", constructor_fn_tests);
  ]
