(* The XQuery engine: lexing, parsing, expression semantics. *)

open Util

let lexer_tests =
  let open Core.Xquery.Lexer in
  let toks src =
    let lx = create src in
    let rec go acc =
      match next lx with EOF -> List.rev acc | t -> go (t :: acc)
    in
    go []
  in
  [
    case "numbers" (fun () ->
        check_bool "kinds" true
          (toks "1 2.5 .5 3e2" = [ INT "1"; DEC "2.5"; DEC ".5"; DBL "3e2" ]));
    case "qnames keep prefixes" (fun () ->
        check_bool "qname" true (toks "fn:data" = [ NAME (Some "fn", "data") ]));
    case "axis separator is not a qname colon" (fun () ->
        check_bool "axis" true
          (toks "child::a" = [ NAME (None, "child"); AXIS_SEP; NAME (None, "a") ]));
    case "string escapes" (fun () ->
        check_bool "quotes" true (toks {|"a""b"|} = [ STR {|a"b|} ]);
        check_bool "entity" true (toks {|"x&amp;y"|} = [ STR "x&y" ]));
    case "comments nest" (fun () ->
        check_bool "nested" true (toks "1 (: a (: b :) c :) 2" = [ INT "1"; INT "2" ]));
    case "operators" (fun () ->
        check_bool "ops" true
          (toks "<= >= != << >> := ::"
          = [ LE; GE; NOTEQUALS; LTLT; GTGT; ASSIGN; AXIS_SEP ]));
    case "wildcards" (fun () ->
        check_bool "ns" true (toks "p:*" = [ NS_WILDCARD "p" ]);
        check_bool "local" true (toks "*:x" = [ LOCAL_WILDCARD "x" ]);
        check_bool "anyany" true (toks "*:*" = [ LOCAL_WILDCARD "*" ]));
    case "dots" (fun () ->
        check_bool "dots" true (toks ". .. .5" = [ DOT; DOTDOT; DEC ".5" ]));
    case "names may contain dots and dashes" (fun () ->
        check_bool "name" true (toks "a-b.c" = [ NAME (None, "a-b.c") ]));
    case "unterminated string raises" (fun () ->
        check_bool "raises" true
          (match toks "\"abc" with
          | _ -> false
          | exception Lex_error _ -> true));
    case "unterminated comment raises" (fun () ->
        check_bool "raises" true
          (match toks "(: never closed" with
          | _ -> false
          | exception Lex_error _ -> true));
  ]

let arithmetic_tests =
  [
    q "precedence" "7" "1 + 2 * 3";
    q "parens" "9" "(1 + 2) * 3";
    q "integer division" "3" "7 idiv 2";
    q "div yields decimal" "3.5" "7 div 2";
    q "mod" "1" "7 mod 2";
    q "unary minus" "-5" "-(2 + 3)";
    q "double unary" "5" "- -5";
    q "decimal arithmetic" "3.75" "1.25 * 3";
    q "double exponent literal" "250" "2.5E2";
    q "empty operand yields empty" "" "() + 1";
    q "untyped operand is cast to double" "3" "fn:data(<x>1</x>) + 2";
    q_err "arith on string" "XPTY0004" "'a' + 1";
    q_err "division by zero" "FOAR0001" "1 div 0";
    q_err "idiv by zero" "FOAR0001" "1 idiv 0";
    q "double div by zero is INF" "INF" "1e0 div 0";
    q "range" "3 4 5" "3 to 5";
    q "empty range" "" "5 to 3";
    q "range over vars" "10"
      "let $a := 1, $b := 4 return count(for $i in $a to $b return $i) + 6";
  ]

let comparison_tests =
  [
    q "value eq" "true" "1 eq 1";
    q "value comparison empty propagates" "" "() eq 1";
    q "general eq existential" "true" "(1, 2, 3) = 3";
    q "general against empty is false" "false" "(1, 2) = ()";
    q "general ne existential quirk" "true" "(1, 2) != 1";
    q "untyped vs number in general comparison" "true" "fn:data(<a>5</a>) = 5";
    q "untyped vs untyped compares as string" "false"
      "fn:data(<a>05</a>) = fn:data(<b>5</b>)";
    q "value lt on strings" "true" "'abc' lt 'abd'";
    q_err "value comparison of many items" "XPTY0004" "(1, 2) eq 1";
    q_err "string eq number" "XPTY0004" "'a' eq 1";
    q "node is" "true" "let $a := <x/> return $a is $a";
    q "node is distinct" "false" "<x/> is <x/>";
    q "node order comparison" "true"
      "let $d := <a><b/><c/></a> return ($d/b << $d/c)";
    q "node comparison with empty is empty" "" "() is <a/>";
    q "date comparison" "true" "xs:date('2007-01-01') lt xs:date('2007-12-01')";
    q "NaN equals nothing" "false" "number('x') = number('x')";
    q "boolean comparison" "true" "true() gt false()";
  ]

let logic_tests =
  [
    q "and or precedence" "true" "true() or false() and false()";
    q "ebv of node sequence" "true" "<a/> and true()";
    q "ebv of zero" "false" "0 and 1";
    q "not" "true" "not(())";
    q "if else" "yes" "if (1 le 2) then 'yes' else 'no'";
    q "if on sequence ebv" "empty" "if (()) then 'full' else 'empty'";
    q "some satisfies" "true" "some $x in (1, 2, 3) satisfies $x gt 2";
    q "every satisfies" "false" "every $x in (1, 2, 3) satisfies $x gt 2";
    q "some over empty is false" "false" "some $x in () satisfies true()";
    q "every over empty is true" "true" "every $x in () satisfies false()";
    q "multiple quantifier bindings" "true"
      "some $x in (1, 2), $y in (3, 4) satisfies $x + $y eq 6";
  ]

let sequence_tests =
  [
    q "comma flattens" "1 2 3 4" "(1, (2, 3), 4)";
    q "empty parens" "" "()";
    q "union dedupes and sorts" "1"
      "let $a := <x/> return count(($a, $a) | $a)";
    q "union document order" "<a/><b/>"
      "let $d := <d><a/><b/></d> return ($d/b, $d/a) | ()";
    q "intersect" "1"
      "let $d := <d><a/><b/></d> return count($d/* intersect $d/a)";
    q "except" "<b/>" "let $d := <d><a/><b/></d> return $d/* except $d/a";
    q_err "union of atomics" "XPTY0018" "(1, 2) | (3)";
    q "instance of" "true" "(1, 2) instance of xs:integer+";
    q "instance of empty" "true" "() instance of empty-sequence()";
    q "instance of wrong type" "false" "'a' instance of xs:integer";
    q "instance of element test" "true" "<a/> instance of element(a)";
    q "treat as passes" "5" "(5) treat as xs:integer";
    q_err "treat as fails" "XPDY0050" "('a') treat as xs:integer";
    q "castable" "true" "'12' castable as xs:integer";
    q "not castable" "false" "'x' castable as xs:integer";
    q "cast" "12" "'12' cast as xs:integer";
    q "cast optional empty" "" "() cast as xs:integer?";
    q_err "cast empty to non-optional" "XPTY0004" "() cast as xs:integer";
    q_err "cast invalid" "FORG0001" "'x' cast as xs:integer";
  ]

let flwor_tests =
  [
    q "for over literals" "2 4 6" "for $x in (1, 2, 3) return 2 * $x";
    q "for with positional var" "1:a 2:b"
      "for $x at $i in ('a', 'b') return concat($i, ':', $x)";
    q "nested for is a cross product" "6"
      "count(for $x in (1, 2) for $y in (1, 2, 3) return ($x * $y))";
    q "let binds a sequence" "3" "let $s := (1, 2, 3) return count($s)";
    q "where filters" "3 4" "for $x in 1 to 4 where $x gt 2 return $x";
    q "order by ascending" "1 2 3" "for $x in (3, 1, 2) order by $x return $x";
    q "order by descending" "c b a"
      "for $x in ('b', 'c', 'a') order by $x descending return $x";
    q "order by two keys" "a1 a2 b1"
      (* secondary key breaks ties *)
      "for $x in ('b1', 'a2', 'a1') order by substring($x, 1, 1), substring($x, 2) return $x";
    q "order by empty least puts empties first" " 1 2"
      "string-join(for $x in (<a>2</a>, <a/>, <a>1</a>) order by $x/text() return string($x), ' ')";
    q "order by empty greatest puts empties last" "1 2 "
      "string-join(for $x in (<a>2</a>, <a/>, <a>1</a>) order by $x/text() empty greatest return string($x), ' ')";
    q "order is stable" "b1 a1 a2"
      "for $x in ('b1', 'a1', 'a2') order by 1 return $x";
    q "for with type declaration coerces" "1 2 3"
      "for $x as xs:integer in fn:data(<a><b>1</b><b>2</b><b>3</b></a>/b) return $x * 1";
    q "for typed binding participates in arithmetic" "6"
      "sum(for $x as xs:integer in fn:data(<a><b>1</b><b>2</b><b>3</b></a>/b) return $x)";
    q "let with type check" "ok"
      "let $x as xs:string := 'ok' return $x";
    q_err "let type mismatch" "XPTY0004"
      "let $x as xs:integer := 'no' return $x";
    q "variable shadowing" "2"
      "let $x := 1 return (let $x := 2 return $x)";
    q "where references let" "20"
      "for $x in (10, 20) let $y := $x div 10 where $y eq 2 return $x";
    q_err "undefined variable" "XPST0008" "$nope";
  ]

let path_tests =
  [
    q "child step" "12" "(<a><b>1</b><b>2</b></a>)/b/text()";
    q "attribute axis" "v" "string((<a x='v'/>)/@x)";
    q "attribute wildcard" "2" "count((<a x='1' y='2'/>)/@*)";
    q "descendant or self //" "2" "count((<a><b><b/></b></a>)//b)";
    q "parent axis" "a" "local-name((<a><b/></a>)/b/..)";
    q "self axis with test" "1" "count((<a/>)/self::a)";
    q "ancestor axis" "2"
      "count((<a><b><c/></b></a>)/b/c/ancestor::*)";
    q "following-sibling" "<c/>"
      "let $d := <d><b/><c/></d> return $d/b/following-sibling::*";
    q "preceding-sibling in doc order" "b c"
      "let $d := <d><b/><c/><e/></d> return (for $n in $d/e/preceding-sibling::* return local-name($n))";
    q "wildcard step" "2" "count((<a><b/><c/></a>)/*)";
    q "namespace wildcard" "1"
      "declare namespace p = 'urn:p'; count((<x><p:y xmlns:p='urn:p'/><z/></x>)/p:*)";
    q "local wildcard" "2"
      "declare namespace p = 'urn:p'; count((<x><p:y xmlns:p='urn:p'/><y/></x>)/*:y)";
    q "kind test text()" "ab"
      "string-join((<a>a<b/>b</a>)/text(), '')";
    q "kind test node() includes text" "3"
      "count((<a>x<b/>y</a>)/node())";
    q "kind test comment()" "1" "count((<a><!--c--></a>)/comment())";
    q "positional predicate" "<b>2</b>" "(<a><b>1</b><b>2</b></a>)/b[2]";
    q "predicate last()" "2" "string((<a><b>1</b><b>2</b></a>)/b[last()])";
    q "predicate position()" "12"
      "(<a><b>1</b><b>2</b><b>3</b></a>)/b[position() lt 3]/text()";
    q "boolean predicate" "<b x=\"1\"/>" "(<a><b x='1'/><b/></a>)/b[@x]";
    q "comparison predicate" "<b>2</b>" "(<a><b>1</b><b>2</b></a>)/b[. eq '2']";
    q "predicate on reverse axis counts from nearest" "b"
      "local-name((<a><b><c><d/></c></b></a>)//d/ancestor::*[2])";
    q "chained predicates" "1" "count((1 to 10)[. mod 2 eq 0][. lt 5][2])";
    q "path result in document order" "b c"
      "let $d := <d><b/><c/></d> return (for $n in ($d/c, $d/b)/self::* return local-name($n))";
    q "path dedupes" "1" "let $d := <d><b/></d> return count(($d, $d)/b)";
    q "leading slash from document" "r"
      "let $d := document { <r/> } return local-name(($d/r)[1])";
    q "filter on function result" "c"
      "string(reverse(('a', 'b', 'c'))[1])";
    q_err "path step on atomic context" "XPTY0020" "(1)/a";
    q "atomic-valued final step allowed" "1 2"
      "(<a><b>1</b><b>2</b></a>)/b/data(.)";
    q_err "mixed nodes and atomics in path" "XPTY0018"
      "(<a><b>1</b><b>2</b></a>)/b/(if (. eq '1') then data(.) else .)";
  ]

let constructor_tests =
  [
    q "direct element with attribute expr" "<a b=\"2\"/>" "<a b='{1 + 1}'/>";
    q "attribute with mixed parts" "<a b=\"x3y\"/>" "<a b='x{1+2}y'/>";
    q "attribute value entity" "<a b=\"&amp;\"/>" "<a b='&amp;'/>";
    q "doubled braces escape" "<a>{}</a>" "<a>{{}}</a>";
    q "content expression spacing" "<a>1 2</a>" "<a>{1, 2}</a>";
    q "adjacent text and expr" "<a>n=3</a>" "<a>n={3}</a>";
    q "boundary whitespace is stripped" "<a><b/></a>" "<a>  <b/>  </a>";
    q "nested constructors" "<a><b x=\"1\">t</b></a>" "<a><b x='1'>t</b></a>";
    q "nodes are copied into constructors" "false"
      "let $b := <b/> let $a := <a>{$b}</a> return $a/b is $b";
    q "attribute node in content becomes attribute" "<a x=\"1\"/>"
      "<a>{attribute x { 1 }}</a>";
    q "computed element static name" "<e>5</e>" "element e { 5 }";
    q "computed element dynamic name" "<n7/>"
      "element { concat('n', 7) } {}";
    q "computed attribute" "<a p=\"q\"/>" "<a>{attribute p { 'q' }}</a>";
    q "computed text" "<a>xy</a>" "<a>{text { 'xy' }}</a>";
    q "text of empty sequence constructs nothing" "0"
      "count(text { () })";
    q "computed document" "1" "count(document { <r/> })";
    q "computed comment" "<!--hello-->" "comment { 'hello' }";
    q "computed pi" "<?tgt data?>" "processing-instruction tgt { 'data' }";
    q "direct comment constructor" "<!--note-->" "<!--note-->";
    q "namespace declaration in constructor scopes subtree" "1"
      "declare namespace o = 'urn:out';
       count((<p:a xmlns:p='urn:out'><p:b/></p:a>)/o:b)";
    q "CDATA in constructor" "<c>&lt;raw&gt;</c>" "<c><![CDATA[<raw>]]></c>";
    q_err "duplicate attribute from content" "XQDY0025"
      "<a x='1'>{attribute x { 2 }}</a>";
    q "document node content splices" "<w><r/></w>"
      "<w>{document { <r/> }}</w>";
    q "sequence in element flattens" "<l><i>1</i><i>2</i></l>"
      "<l>{for $i in 1 to 2 return <i>{$i}</i>}</l>";
  ]

let function_decl_tests =
  [
    q "simple function" "42"
      "declare function local:f() { 42 }; local:f()";
    q "typed parameters and result" "6"
      "declare function local:add($a as xs:integer, $b as xs:integer) as xs:integer { $a + $b }; local:add(2, 4)";
    q "recursion" "120"
      "declare function local:fact($n as xs:integer) as xs:integer { if ($n le 1) then 1 else $n * local:fact($n - 1) }; local:fact(5)";
    q "mutual recursion" "true"
      "declare function local:even($n as xs:integer) as xs:boolean { if ($n eq 0) then true() else local:odd($n - 1) };
       declare function local:odd($n as xs:integer) as xs:boolean { if ($n eq 0) then false() else local:even($n - 1) };
       local:even(10)";
    q "overloading by arity" "1 2"
      "declare function local:f() { 1 };
       declare function local:f($x) { $x };
       (local:f(), local:f(2))";
    q "function sees global variables" "10"
      "declare variable $g := 10;
       declare function local:get() { $g }; local:get()";
    q "parameter coercion from untyped" "8"
      "declare function local:dbl($x as xs:integer) { $x * 2 }; local:dbl(fn:data(<a>4</a>))";
    q_err "result type enforced" "XPTY0004"
      "declare function local:bad() as xs:integer { 'str' }; local:bad()";
    q_err "unknown function" "XPST0017" "local:missing()";
    q_err "duplicate declaration" "XQST0034"
      "declare function local:f() { 1 }; declare function local:f() { 2 }; local:f()";
    q_err "infinite recursion is caught" "XQDY0900"
      "declare function local:loop() { local:loop() }; local:loop()";
    q "prolog variable depends on earlier variable" "30"
      "declare variable $a := 10; declare variable $b := $a * 3; $b";
  ]

let prolog_tests =
  [
    q "declare namespace" "1"
      "declare namespace z = 'urn:z'; count(<z:e xmlns:z='urn:z'/>/self::z:e)";
    q "default element namespace applies to tests" "1"
      "declare default element namespace 'urn:d'; count((<e xmlns='urn:d'><c/></e>)/c)";
    q "boundary-space declaration accepted" "ok"
      "declare boundary-space strip; 'ok'";
    q "option declaration ignored" "ok"
      "declare option local:opt 'v'; 'ok'";
    case "import module declares prefix" (fun () ->
        let s = Core.Xqse.Session.create () in
        Core.Xqse.Session.register_module s "urn:m"
          "declare namespace m = 'urn:m'; declare function m:ok() { 'ok' };";
        check_string "import" "ok"
          (Core.Xqse.Session.eval_to_string s
             "import module namespace m = 'urn:m'; m:ok()"));
    q_err "external variable unsupplied" "XPDY0002"
      "declare variable $ext external; $ext";
    case "external variable supplied" (fun () ->
        check_string "ext" "5"
          (xq
             ~vars:[ (Core.Xdm.Qname.local "ext", Core.Xdm.Item.int 5) ]
             "declare variable $ext external; $ext"));
  ]

let syntax_error_tests =
  [
    q_syntax "unbalanced paren" "(1, 2";
    q_syntax "missing return" "for $x in (1,2) $x";
    q_syntax "reserved word as function" "if(1, 2)";
    q_syntax "bad operator sequence" "1 + * 2";
    q_syntax "unterminated constructor" "<a><b></a>";
    q_syntax "junk after query" "1 2";
    q_syntax "empty where" "for $x in 1 where return $x";
    q_syntax "assignment outside xqse" "let $x := 1 return set $x := 2";
  ]

let suites =
  [
    ("xquery.lexer", lexer_tests);
    ("xquery.arith", arithmetic_tests);
    ("xquery.comparison", comparison_tests);
    ("xquery.logic", logic_tests);
    ("xquery.sequence", sequence_tests);
    ("xquery.flwor", flwor_tests);
    ("xquery.path", path_tests);
    ("xquery.constructor", constructor_tests);
    ("xquery.functions-decl", function_decl_tests);
    ("xquery.prolog", prolog_tests);
    ("xquery.syntax-errors", syntax_error_tests);
  ]
