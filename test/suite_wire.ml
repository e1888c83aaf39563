(* The XML wire pinned byte for byte. The serializer's output (names,
   namespace declarations, escaping, indentation, sequences, the Figure
   4 datagraph of every change kind, the 21 by-id profiles) and the
   parser's trees and errors were recorded from the serializer and
   parser that preceded the one-buffer writer and the closure-free
   parser; these cases hold the new ones to them. The SDO round trip
   checks that parse (serialize dg) gives back dg's changes and roots
   and that serializing leaves the client's datagraph untouched. *)

open Core
open Core.Xdm
open Util

(* ---- corpus builders: the same code produced the pinned outputs ---- *)

module FC = Fixtures.Customer_profile

let q ?prefix uri local = Qname.make ?prefix ~uri local
let el ?(attrs = []) name kids = Node.element ~attrs name kids
let lel ?attrs local kids = el ?attrs (Qname.local local) kids
let txt = Node.text

(* hand-built trees: every case goes through the serializer alone *)
let samples () =
  let s n = Xml_serialize.to_string n in
  let si n = Xml_serialize.to_string ~indent:true n in
  let seq items = Xml_serialize.seq_to_string items in
  let a i = Item.Atomic (Atomic.Integer i) in
  let str v = Item.Atomic (Atomic.String v) in
  let nd n = Item.Node n in
  [
    ("plain", s (lel "a" [ lel "b" [ txt "hi" ]; lel "c" [] ]));
    ("empty text child", s (lel "a" [ txt "" ]));
    ( "default namespace and its undeclaration",
      s (el (q "urn:d" "a") [ lel "b" [ el (q "urn:d" "c") [] ]; el (q "urn:d" "d") [] ]) );
    ( "default namespace, no-namespace attribute",
      s (el ~attrs:[ (Qname.local "x", "1") ] (q "urn:d" "a") [ lel "b" [] ]) );
    ( "unprefixed namespaced attributes",
      s
        (lel
           ~attrs:[ (q "urn:a" "x", "1"); (q "urn:b" "y", "2"); (q "urn:a" "z", "3") ]
           "e" [ lel "f" ~attrs:[ (q "urn:a" "w", "4") ] [] ]) );
    ( "synthesized prefix skips a taken ns1",
      s (el ~attrs:[ (q "urn:a" "x", "1") ] (q ~prefix:"ns1" "urn:other" "p") []) );
    ( "prefixed names, declared once",
      s
        (el (q ~prefix:"p" "urn:p" "a")
           [ el (q ~prefix:"p" "urn:p" "b") [ el ~attrs:[ (q ~prefix:"p" "urn:p" "at", "v") ] (q ~prefix:"p" "urn:p" "c") [] ] ]) );
    ( "prefix rebound by an attribute",
      s
        (el (q ~prefix:"p" "urn:1" "o")
           [ el ~attrs:[ (q ~prefix:"p" "urn:2" "b", "x") ] (q ~prefix:"p" "urn:1" "a") [] ]) );
    ( "attribute prefix clashes with the element's new one",
      s (el ~attrs:[ (q ~prefix:"p" "urn:2" "b", "x") ] (q ~prefix:"p" "urn:1" "a") []) );
    ( "inner scope redeclares a prefix",
      s (el (q ~prefix:"p" "urn:1" "a") [ el (q ~prefix:"p" "urn:2" "b") [ el (q ~prefix:"p" "urn:1" "c") [] ] ]) );
    ( "xml namespace",
      s (lel ~attrs:[ (q ~prefix:"xml" Qname.xml_ns "lang", "en") ] "a" [ el (q Qname.xml_ns "b") [] ]) );
    ( "escapes in text and attributes",
      s
        (lel
           ~attrs:[ ("x" |> Qname.local, {|a&b<c>d"e'f|}); (Qname.local "y", "plain"); (Qname.local "z", ">") ]
           "a"
           [ txt {|1 < 2 & 3 > 2 "q" 'a'|}; lel "b" [ txt "no escapes" ]; txt "&" ]) );
    ( "comment and processing instructions",
      s
        (lel "a"
           [ Node.comment " c & <d> "; Node.processing_instruction "tgt" "x=\"1\" & <";
             Node.processing_instruction "empty" ""; txt "t" ]) );
    ( "indent",
      si
        (lel "a"
           [
             lel "b" [ lel "c" [ txt "x" ]; lel "d" [] ];
             Node.comment "k";
             lel "e" [ txt "mixed "; lel "f" [ lel "g" [] ]; txt " tail" ];
             lel "h" [ lel "i" [ lel "j" [ txt "deep" ] ] ];
           ]) );
    ("indent, a lone empty element", si (lel "a" []));
    ( "indent, a document",
      si (Node.document [ Node.comment "top"; lel "r" [ lel "s" [] ] ]) );
    ( "indent, a row",
      si
        (lel "rows"
           [ Node.row (Qname.local "R") [| Qname.local "A"; Qname.local "B" |] [| "1"; "x<y" |];
             Node.row (Qname.local "R") [||] [||] ]) );
    ( "a row element",
      s (Node.row (q ~prefix:"t" "urn:t" "ROW") [| Qname.local "A"; Qname.local "B" |] [| "a&b"; "" |]) );
    ("a document", s (Node.document [ Node.comment "c"; lel "r" [] ]));
    ("a lone text node", s (txt "a < b"));
    ("a lone comment", s (Node.comment "x"));
    ("a lone attribute", s (Node.attribute (q "urn:a" "x") "v\"<"));
    ("a lone prefixed attribute", s (Node.attribute (q ~prefix:"p" "urn:a" "x") "1"));
    ( "seq_to_string: atomics between nodes",
      seq
        [
          a 1; str "a<b"; nd (lel "e" []); a 2; a 3; nd (txt "t&"); str "x";
          nd (lel "f" [ txt "y" ]); nd (Node.attribute (Qname.local "k") "v");
          a 4; nd (Node.document [ lel "d" [] ]); str "";
        ] );
    ( "seq_to_string ~indent",
      Xml_serialize.seq_to_string ~indent:true
        [ nd (lel "a" [ lel "b" [] ]); a 1; a 2 ] );
  ]

(* Figure 4 datagraphs, one per change kind and one with every kind *)
let datagraphs () =
  let env = FC.make ~customers:2 () in
  let profile () = FC.get_profile_by_id env "007" in
  let all () = Aldsp.Dataspace.get env.FC.ds env.FC.svc ~meth:"getProfile" [] in
  let order () =
    lel "ORDERS"
      [ lel "OID" [ txt "77" ]; lel "CID" [ txt "007" ]; lel "ORDER_DATE" [ txt "2008-01-01" ];
        lel "TOTAL" [ txt "1.5" ]; lel "STATUS" [ txt "NEW & <open>" ] ]
  in
  let new_profile () =
    el (q ~prefix:"ns1" FC.profile_ns "CustomerProfile")
      [ lel "CID" [ txt "N1" ]; lel "LAST_NAME" [ txt "New" ]; lel "FIRST_NAME" [ txt "Nick" ];
        lel "Orders" []; lel "CreditCards" [] ]
  in
  let with_dg f mk () =
    let dg = mk () in
    f dg;
    dg
  in
  [
    ("clean", with_dg ignore profile);
    ("top-level leaf", with_dg (fun dg -> Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey") profile);
    ( "nested leaf",
      with_dg
        (fun dg ->
          Sdo.set_leaf dg 1 [ ("CreditCards", 1); ("CREDIT_CARD", 1); ("BRAND", 1) ] "AMEX")
        profile );
    ("element delete", with_dg (fun dg -> Sdo.delete_element dg 1 [ ("Orders", 1); ("ORDERS", 1) ]) profile);
    ("element insert", with_dg (fun dg -> Sdo.insert_element dg 1 [ ("Orders", 1) ] (order ())) profile);
    ("object create", with_dg (fun dg -> Sdo.add_object dg (new_profile ())) profile);
    ("object delete", with_dg (fun dg -> Sdo.delete_object dg 2) all);
    ( "every kind",
      with_dg
        (fun dg ->
          Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] "Carey";
          Sdo.set_leaf dg 1 [ ("Orders", 1); ("ORDERS", 1); ("STATUS", 1) ] "CLOSED";
          Sdo.delete_element dg 3 [ ("CreditCards", 1); ("CREDIT_CARD", 1) ];
          Sdo.insert_element dg 3 [ ("Orders", 1) ] (order ());
          Sdo.add_object dg (new_profile ());
          Sdo.delete_object dg 2)
        all );
  ]

(* a parse outcome as one string: the tree, or the error *)
let rec dump n =
  let name () =
    match Node.name n with
    | Some qn ->
      Printf.sprintf "%s{%s}%s"
        (match qn.Qname.prefix with Some p -> p ^ ":" | None -> "")
        qn.Qname.uri qn.Qname.local
    | None -> "?"
  in
  match Node.kind n with
  | Node.Document -> "doc[" ^ String.concat "," (List.map dump (Node.children n)) ^ "]"
  | Node.Element ->
    Printf.sprintf "%s(%s)[%s]" (name ())
      (String.concat "," (List.map dump (Node.attributes n)))
      (String.concat "," (List.map dump (Node.children n)))
  | Node.Attribute -> Printf.sprintf "%s=%S" (name ()) (Node.text_content n)
  | Node.Text -> Printf.sprintf "%S" (Node.text_content n)
  | Node.Comment -> Printf.sprintf "comment %S" (Node.text_content n)
  | Node.Processing_instruction -> Printf.sprintf "pi %s %S" (name ()) (Node.text_content n)

let outcome f src =
  match f src with
  | v -> "ok " ^ v
  | exception Item.Error { code = { local = "FODC0006"; _ }; message; _ } ->
    (* the text is "line:col: message" *)
    Scanf.sscanf message "%d:%d:%n" (fun line col n ->
        Printf.sprintf "error %d:%d %s" line col
          (String.sub message (n + 1) (String.length message - n - 1)))
  | exception e -> "raise " ^ Printexc.to_string e

let parse_outcome = outcome (fun s -> dump (Xml_parse.parse s))

let fragment_outcome =
  outcome (fun s -> String.concat "|" (List.map dump (Xml_parse.parse_fragment s)))

let parse_inputs =
  [
    "<a/>";
    {|<a x="1" y='2'>t</a>|};
    "<?xml version=\"1.0\"?>\n<!DOCTYPE a>\n<!-- c --><a><b/></a><!-- after -->\n";
    "<a>x&amp;y<![CDATA[<z>]]>w&#65;</a>";
    "<a><![CDATA[one]]><![CDATA[two]]></a>";
    "<a>one<!--c-->two<?pi data?>three<?empty?></a>";
    "<a><![CDATA[]]></a>";
    "<a><![CDATA[]]>x</a>";
    {|<p:a xmlns:p="urn:p" xmlns="urn:d"><b q:x="1" xmlns:q="urn:q" y="2"><c xmlns=""/><p:d/></b></p:a>|};
    {|<p:a xmlns:p="u" xmlns:q="u"></q:a>|};
    {|<p:a xmlns:p="1" xmlns:p="2"/>|};
    {|<a xmlns="1" xmlns="2"/>|};
    {|<a z="1" a="2" m="3" z="4"/>|};
    {|<a xml:lang="en"><xml:b/></a>|};
    "<a> <b/>\n\t</a>";
    "<a>&#x1F600;&#233;&#x10FFFF;&#x800;&#x7FF;&#127;&#128;</a>";
    "<a>&#1_0;&#0b11;&#x0041;</a>";
    {|<a x="&lt;&#65;&quot;&apos;&gt;&amp;" y="a>b
c"/>|};
    "<a></a >";
    "<a\n  x = \"1\"\n/>";
    {|<a b="1"c="2"/>|};
    "<a>]]></a>";
    {|<p:a xmlns:p="urn:p"><p:b></p:b><p:c xmlns:p="urn:q"></p:c></p:a>|};
    "<r><s><t>deep</t></s></r>";
    "<a><b>x</b>tail</a>";
    (* errors *)
    "<a><b></c></a>";
    "<a>\n  <b>\n  </c>\n</a>";
    "<a><p:b/></a>";
    {|<a p:x="1"/>|};
    "<a></p:a>";
    {|<a p:x="1" q:y="2"/>|};
    {|<e:a p:x="1"/>|};
    {|<a x="1|};
    {|<a x='1"/>|};
    "<a>&foo;</a>";
    {|<a x="&bar;"/>|};
    "<a>& b</a>";
    "<a>&lt</a>";
    "<a>&#xZZ;</a>";
    "<a>&#;</a>";
    "<a>&#x;</a>";
    "<a>&#65</a>";
    "<a>&#-5;</a>";
    "<a>&#x7FFFFFFF;</a>";
    "<a><b>text";
    "<a>";
    "<a><!-- unterminated";
    "<a><![CDATA[ x";
    "<a><?pi x";
    "<a/>junk";
    "<a/><b/>";
    "";
    "   ";
    "<!-- c -->";
    "text";
    "<a x=1/>";
    "<a x/>";
    "<1a/>";
    "<a:1/>";
    "<a></a";
    "<a><?123?></a>";
    "<a/ >";
    "<a></b >";
    "<a x=\"1\" ";
    "<!-- x";
    "<?xml x";
    "<!DOCTYPE x";
  ]

let fragment_inputs =
  [
    "<e id='1'/><e id='2'/>";
    "text<a/>more&amp;";
    "  ";
    "";
    "<!--c--><a/>";
    "a&#66;c<b>x</b>";
    "</a>";
    "<a>";
    "x</a>";
    "<a><b/></a>tail";
    "&bad;";
  ]

(* ---- pinned outputs ---- *)

let expected_samples =
  [
    ("plain",
     "<a><b>hi</b><c/></a>");
    ("empty text child",
     "<a></a>");
    ("default namespace and its undeclaration",
     "<a xmlns=\"urn:d\"><b xmlns=\"\"><c xmlns=\"urn:d\"/></b><d/></a>");
    ("default namespace, no-namespace attribute",
     "<a xmlns=\"urn:d\" x=\"1\"><b xmlns=\"\"/></a>");
    ("unprefixed namespaced attributes",
     "<e xmlns:ns1=\"urn:a\" xmlns:ns2=\"urn:b\" ns1:x=\"1\" ns2:y=\"2\" ns1:z=\"3\"><f xmlns:ns1=\"urn:a\" ns1:w=\"4\"/></e>");
    ("synthesized prefix skips a taken ns1",
     "<ns1:p xmlns:ns1=\"urn:other\" xmlns:ns2=\"urn:a\" ns2:x=\"1\"/>");
    ("prefixed names, declared once",
     "<p:a xmlns:p=\"urn:p\"><p:b><p:c p:at=\"v\"/></p:b></p:a>");
    ("prefix rebound by an attribute",
     "<p:o xmlns:p=\"urn:1\"><p:a xmlns:p=\"urn:2\" p:b=\"x\"/></p:o>");
    ("attribute prefix clashes with the element's new one",
     "<p:a xmlns:p=\"urn:1\" xmlns:ns1=\"urn:2\" ns1:b=\"x\"/>");
    ("inner scope redeclares a prefix",
     "<p:a xmlns:p=\"urn:1\"><p:b xmlns:p=\"urn:2\"><p:c xmlns:p=\"urn:1\"/></p:b></p:a>");
    ("xml namespace",
     "<a xml:lang=\"en\"><xml:b/></a>");
    ("escapes in text and attributes",
     "<a x=\"a&amp;b&lt;c&gt;d&quot;e'f\" y=\"plain\" z=\"&gt;\">1 &lt; 2 &amp; 3 &gt; 2 \"q\" 'a'<b>no escapes</b>&amp;</a>");
    ("comment and processing instructions",
     "<a><!-- c & <d> --><?tgt x=\"1\" & <?><?empty ?>t</a>");
    ("indent",
     "<a>\n  <b>\n    <c>x</c>\n    <d/>\n  </b>\n  <!--k-->\n  <e>mixed <f>\n      <g/>\n    </f> tail</e>\n  <h>\n    <i>\n      <j>deep</j>\n    </i>\n  </h>\n</a>");
    ("indent, a lone empty element",
     "<a/>");
    ("indent, a document",
     "<!--top--><r>\n  <s/>\n</r>");
    ("indent, a row",
     "<rows>\n  <R>\n    <A>1</A>\n    <B>x&lt;y</B>\n  </R>\n  <R/>\n</rows>");
    ("a row element",
     "<t:ROW xmlns:t=\"urn:t\"><A>a&amp;b</A><B></B></t:ROW>");
    ("a document",
     "<!--c--><r/>");
    ("a lone text node",
     "a &lt; b");
    ("a lone comment",
     "<!--x-->");
    ("a lone attribute",
     "{urn:a}x=\"v&quot;&lt;\"");
    ("a lone prefixed attribute",
     "p:x=\"1\"");
    ("seq_to_string: atomics between nodes",
     "1 a&lt;b<e/>2 3t&amp;x<f>y</f>k=\"v\"4<d/>");
    ("seq_to_string ~indent",
     "<a>\n  <b/>\n</a>1 2");
  ]

let expected_datagraphs =
  [
    ("clean",
     "<sdo:datagraph xmlns:sdo=\"commonj.sdo\"><changeSummary/><ns1:CustomerProfile xmlns:ns1=\"ld:CustomerProfile\" sdo:idx=\"1\"><CID>007</CID><LAST_NAME>Carrey</LAST_NAME><FIRST_NAME>James</FIRST_NAME><Orders><ORDERS><OID>900001</OID><CID>007</CID><ORDER_DATE>2007-11-01</ORDER_DATE><TOTAL>42.5</TOTAL><STATUS>OPEN</STATUS></ORDERS></Orders><CreditCards><CREDIT_CARD><CCID>900001</CCID><CID>007</CID><TYPE>CREDIT</TYPE><BRAND>VISA</BRAND><NUMBER>4111-1111</NUMBER><EXP_DATE>2009-01-01</EXP_DATE></CREDIT_CARD></CreditCards><CreditRating>836</CreditRating></ns1:CustomerProfile></sdo:datagraph>");
    ("top-level leaf",
     "<sdo:datagraph xmlns:sdo=\"commonj.sdo\"><changeSummary><ns1:CustomerProfile xmlns:ns1=\"ld:CustomerProfile\" sdo:ref=\"#/sdo:datagraph/ns1:CustomerProfile[1]\"><LAST_NAME>Carrey</LAST_NAME></ns1:CustomerProfile></changeSummary><ns1:CustomerProfile xmlns:ns1=\"ld:CustomerProfile\" sdo:idx=\"1\"><CID>007</CID><LAST_NAME>Carey</LAST_NAME><FIRST_NAME>James</FIRST_NAME><Orders><ORDERS><OID>900001</OID><CID>007</CID><ORDER_DATE>2007-11-01</ORDER_DATE><TOTAL>42.5</TOTAL><STATUS>OPEN</STATUS></ORDERS></Orders><CreditCards><CREDIT_CARD><CCID>900001</CCID><CID>007</CID><TYPE>CREDIT</TYPE><BRAND>VISA</BRAND><NUMBER>4111-1111</NUMBER><EXP_DATE>2009-01-01</EXP_DATE></CREDIT_CARD></CreditCards><CreditRating>836</CreditRating></ns1:CustomerProfile></sdo:datagraph>");
    ("nested leaf",
     "<sdo:datagraph xmlns:sdo=\"commonj.sdo\"><changeSummary><ns1:CustomerProfile xmlns:ns1=\"ld:CustomerProfile\" sdo:ref=\"#/sdo:datagraph/ns1:CustomerProfile[1]\"><sdo:oldValue sdo:path=\"CreditCards/CREDIT_CARD/BRAND\">VISA</sdo:oldValue></ns1:CustomerProfile></changeSummary><ns1:CustomerProfile xmlns:ns1=\"ld:CustomerProfile\" sdo:idx=\"1\"><CID>007</CID><LAST_NAME>Carrey</LAST_NAME><FIRST_NAME>James</FIRST_NAME><Orders><ORDERS><OID>900001</OID><CID>007</CID><ORDER_DATE>2007-11-01</ORDER_DATE><TOTAL>42.5</TOTAL><STATUS>OPEN</STATUS></ORDERS></Orders><CreditCards><CREDIT_CARD><CCID>900001</CCID><CID>007</CID><TYPE>CREDIT</TYPE><BRAND>AMEX</BRAND><NUMBER>4111-1111</NUMBER><EXP_DATE>2009-01-01</EXP_DATE></CREDIT_CARD></CreditCards><CreditRating>836</CreditRating></ns1:CustomerProfile></sdo:datagraph>");
    ("element delete",
     "<sdo:datagraph xmlns:sdo=\"commonj.sdo\"><changeSummary><ns1:CustomerProfile xmlns:ns1=\"ld:CustomerProfile\" sdo:ref=\"#/sdo:datagraph/ns1:CustomerProfile[1]\"><sdo:deletedElement sdo:path=\"Orders/ORDERS\"><ORDERS><OID>900001</OID><CID>007</CID><ORDER_DATE>2007-11-01</ORDER_DATE><TOTAL>42.5</TOTAL><STATUS>OPEN</STATUS></ORDERS></sdo:deletedElement></ns1:CustomerProfile></changeSummary><ns1:CustomerProfile xmlns:ns1=\"ld:CustomerProfile\" sdo:idx=\"1\"><CID>007</CID><LAST_NAME>Carrey</LAST_NAME><FIRST_NAME>James</FIRST_NAME><Orders/><CreditCards><CREDIT_CARD><CCID>900001</CCID><CID>007</CID><TYPE>CREDIT</TYPE><BRAND>VISA</BRAND><NUMBER>4111-1111</NUMBER><EXP_DATE>2009-01-01</EXP_DATE></CREDIT_CARD></CreditCards><CreditRating>836</CreditRating></ns1:CustomerProfile></sdo:datagraph>");
    ("element insert",
     "<sdo:datagraph xmlns:sdo=\"commonj.sdo\"><changeSummary><ns1:CustomerProfile xmlns:ns1=\"ld:CustomerProfile\" sdo:ref=\"#/sdo:datagraph/ns1:CustomerProfile[1]\"><sdo:insertedElement sdo:path=\"Orders/ORDERS[2]\"/></ns1:CustomerProfile></changeSummary><ns1:CustomerProfile xmlns:ns1=\"ld:CustomerProfile\" sdo:idx=\"1\"><CID>007</CID><LAST_NAME>Carrey</LAST_NAME><FIRST_NAME>James</FIRST_NAME><Orders><ORDERS><OID>900001</OID><CID>007</CID><ORDER_DATE>2007-11-01</ORDER_DATE><TOTAL>42.5</TOTAL><STATUS>OPEN</STATUS></ORDERS><ORDERS><OID>77</OID><CID>007</CID><ORDER_DATE>2008-01-01</ORDER_DATE><TOTAL>1.5</TOTAL><STATUS>NEW &amp; &lt;open&gt;</STATUS></ORDERS></Orders><CreditCards><CREDIT_CARD><CCID>900001</CCID><CID>007</CID><TYPE>CREDIT</TYPE><BRAND>VISA</BRAND><NUMBER>4111-1111</NUMBER><EXP_DATE>2009-01-01</EXP_DATE></CREDIT_CARD></CreditCards><CreditRating>836</CreditRating></ns1:CustomerProfile></sdo:datagraph>");
    ("object create",
     "<sdo:datagraph xmlns:sdo=\"commonj.sdo\"><changeSummary><sdo:created sdo:ref=\"#/sdo:datagraph/ns1:CustomerProfile[2]\"/></changeSummary><ns1:CustomerProfile xmlns:ns1=\"ld:CustomerProfile\" sdo:idx=\"1\"><CID>007</CID><LAST_NAME>Carrey</LAST_NAME><FIRST_NAME>James</FIRST_NAME><Orders><ORDERS><OID>900001</OID><CID>007</CID><ORDER_DATE>2007-11-01</ORDER_DATE><TOTAL>42.5</TOTAL><STATUS>OPEN</STATUS></ORDERS></Orders><CreditCards><CREDIT_CARD><CCID>900001</CCID><CID>007</CID><TYPE>CREDIT</TYPE><BRAND>VISA</BRAND><NUMBER>4111-1111</NUMBER><EXP_DATE>2009-01-01</EXP_DATE></CREDIT_CARD></CreditCards><CreditRating>836</CreditRating></ns1:CustomerProfile><ns1:CustomerProfile xmlns:ns1=\"ld:CustomerProfile\" sdo:idx=\"2\"><CID>N1</CID><LAST_NAME>New</LAST_NAME><FIRST_NAME>Nick</FIRST_NAME><Orders/><CreditCards/></ns1:CustomerProfile></sdo:datagraph>");
    ("object delete",
     "<sdo:datagraph xmlns:sdo=\"commonj.sdo\"><changeSummary><sdo:deleted sdo:ref=\"#/sdo:datagraph/ns1:CustomerProfile[2]\"><ns1:CustomerProfile xmlns:ns1=\"ld:CustomerProfile\"><CID>C1</CID><LAST_NAME>Brown</LAST_NAME><FIRST_NAME>Bob</FIRST_NAME><Orders><ORDERS><OID>1</OID><CID>C1</CID><ORDER_DATE>2007-10-21</ORDER_DATE><TOTAL>94.1295</TOTAL><STATUS>SHIPPED</STATUS></ORDERS><ORDERS><OID>2</OID><CID>C1</CID><ORDER_DATE>2007-06-17</ORDER_DATE><TOTAL>175.3595</TOTAL><STATUS>OPEN</STATUS></ORDERS><ORDERS><OID>3</OID><CID>C1</CID><ORDER_DATE>2007-02-25</ORDER_DATE><TOTAL>403.5655</TOTAL><STATUS>CLOSED</STATUS></ORDERS></Orders><CreditCards/><CreditRating>565</CreditRating></ns1:CustomerProfile></sdo:deleted></changeSummary><ns1:CustomerProfile xmlns:ns1=\"ld:CustomerProfile\" sdo:idx=\"1\"><CID>007</CID><LAST_NAME>Carrey</LAST_NAME><FIRST_NAME>James</FIRST_NAME><Orders><ORDERS><OID>900001</OID><CID>007</CID><ORDER_DATE>2007-11-01</ORDER_DATE><TOTAL>42.5</TOTAL><STATUS>OPEN</STATUS></ORDERS></Orders><CreditCards><CREDIT_CARD><CCID>900001</CCID><CID>007</CID><TYPE>CREDIT</TYPE><BRAND>VISA</BRAND><NUMBER>4111-1111</NUMBER><EXP_DATE>2009-01-01</EXP_DATE></CREDIT_CARD></CreditCards><CreditRating>836</CreditRating></ns1:CustomerProfile><ns1:CustomerProfile xmlns:ns1=\"ld:CustomerProfile\" sdo:idx=\"3\"><CID>C2</CID><LAST_NAME>Garcia</LAST_NAME><FIRST_NAME>Erin</FIRST_NAME><Orders><ORDERS><OID>4</OID><CID>C2</CID><ORDER_DATE>2007-01-20</ORDER_DATE><TOTAL>317.895</TOTAL><STATUS>SHIPPED</STATUS></ORDERS><ORDERS><OID>5</OID><CID>C2</CID><ORDER_DATE>2007-01-12</ORDER_DATE><TOTAL>48.557</TOTAL><STATUS>OPEN</STATUS></ORDERS><ORDERS><OID>6</OID><CID>C2</CID><ORDER_DATE>2007-05-24</ORDER_DATE><TOTAL>424.339</TOTAL><STATUS>SHIPPED</STATUS></ORDERS></Orders><CreditCards><CREDIT_CARD><CCID>1</CCID><CID>C2</CID><TYPE>DEBIT</TYPE><BRAND>VISA</BRAND><NUMBER>4377-3920</NUMBER><EXP_DATE>2012-07-01</EXP_DATE></CREDIT_CARD><CREDIT_CARD><CCID>2</CCID><CID>C2</CID><TYPE>DEBIT</TYPE><BRAND>VISA</BRAND><NUMBER>4075-8810</NUMBER><EXP_DATE>2010-01-01</EXP_DATE></CREDIT_CARD></CreditCards><CreditRating>773</CreditRating></ns1:CustomerProfile></sdo:datagraph>");
    ("every kind",
     "<sdo:datagraph xmlns:sdo=\"commonj.sdo\"><changeSummary><ns1:CustomerProfile xmlns:ns1=\"ld:CustomerProfile\" sdo:ref=\"#/sdo:datagraph/ns1:CustomerProfile[1]\"><LAST_NAME>Carrey</LAST_NAME><sdo:oldValue sdo:path=\"Orders/ORDERS/STATUS\">OPEN</sdo:oldValue></ns1:CustomerProfile><ns1:CustomerProfile xmlns:ns1=\"ld:CustomerProfile\" sdo:ref=\"#/sdo:datagraph/ns1:CustomerProfile[3]\"><sdo:deletedElement sdo:path=\"CreditCards/CREDIT_CARD\"><CREDIT_CARD><CCID>1</CCID><CID>C2</CID><TYPE>DEBIT</TYPE><BRAND>VISA</BRAND><NUMBER>4377-3920</NUMBER><EXP_DATE>2012-07-01</EXP_DATE></CREDIT_CARD></sdo:deletedElement><sdo:insertedElement sdo:path=\"Orders/ORDERS[4]\"/></ns1:CustomerProfile><sdo:created sdo:ref=\"#/sdo:datagraph/ns1:CustomerProfile[4]\"/><sdo:deleted sdo:ref=\"#/sdo:datagraph/ns1:CustomerProfile[2]\"><ns1:CustomerProfile xmlns:ns1=\"ld:CustomerProfile\"><CID>C1</CID><LAST_NAME>Brown</LAST_NAME><FIRST_NAME>Bob</FIRST_NAME><Orders><ORDERS><OID>1</OID><CID>C1</CID><ORDER_DATE>2007-10-21</ORDER_DATE><TOTAL>94.1295</TOTAL><STATUS>SHIPPED</STATUS></ORDERS><ORDERS><OID>2</OID><CID>C1</CID><ORDER_DATE>2007-06-17</ORDER_DATE><TOTAL>175.3595</TOTAL><STATUS>OPEN</STATUS></ORDERS><ORDERS><OID>3</OID><CID>C1</CID><ORDER_DATE>2007-02-25</ORDER_DATE><TOTAL>403.5655</TOTAL><STATUS>CLOSED</STATUS></ORDERS></Orders><CreditCards/><CreditRating>565</CreditRating></ns1:CustomerProfile></sdo:deleted></changeSummary><ns1:CustomerProfile xmlns:ns1=\"ld:CustomerProfile\" sdo:idx=\"1\"><CID>007</CID><LAST_NAME>Carey</LAST_NAME><FIRST_NAME>James</FIRST_NAME><Orders><ORDERS><OID>900001</OID><CID>007</CID><ORDER_DATE>2007-11-01</ORDER_DATE><TOTAL>42.5</TOTAL><STATUS>CLOSED</STATUS></ORDERS></Orders><CreditCards><CREDIT_CARD><CCID>900001</CCID><CID>007</CID><TYPE>CREDIT</TYPE><BRAND>VISA</BRAND><NUMBER>4111-1111</NUMBER><EXP_DATE>2009-01-01</EXP_DATE></CREDIT_CARD></CreditCards><CreditRating>836</CreditRating></ns1:CustomerProfile><ns1:CustomerProfile xmlns:ns1=\"ld:CustomerProfile\" sdo:idx=\"3\"><CID>C2</CID><LAST_NAME>Garcia</LAST_NAME><FIRST_NAME>Erin</FIRST_NAME><Orders><ORDERS><OID>4</OID><CID>C2</CID><ORDER_DATE>2007-01-20</ORDER_DATE><TOTAL>317.895</TOTAL><STATUS>SHIPPED</STATUS></ORDERS><ORDERS><OID>5</OID><CID>C2</CID><ORDER_DATE>2007-01-12</ORDER_DATE><TOTAL>48.557</TOTAL><STATUS>OPEN</STATUS></ORDERS><ORDERS><OID>6</OID><CID>C2</CID><ORDER_DATE>2007-05-24</ORDER_DATE><TOTAL>424.339</TOTAL><STATUS>SHIPPED</STATUS></ORDERS><ORDERS><OID>77</OID><CID>007</CID><ORDER_DATE>2008-01-01</ORDER_DATE><TOTAL>1.5</TOTAL><STATUS>NEW &amp; &lt;open&gt;</STATUS></ORDERS></Orders><CreditCards><CREDIT_CARD><CCID>2</CCID><CID>C2</CID><TYPE>DEBIT</TYPE><BRAND>VISA</BRAND><NUMBER>4075-8810</NUMBER><EXP_DATE>2010-01-01</EXP_DATE></CREDIT_CARD></CreditCards><CreditRating>773</CreditRating></ns1:CustomerProfile><ns1:CustomerProfile xmlns:ns1=\"ld:CustomerProfile\" sdo:idx=\"4\"><CID>N1</CID><LAST_NAME>New</LAST_NAME><FIRST_NAME>Nick</FIRST_NAME><Orders/><CreditCards/></ns1:CustomerProfile></sdo:datagraph>");
  ]

let expected_parses =
  [
    ("<a/>",
     "ok doc[{}a()[]]");
    ("<a x=\"1\" y='2'>t</a>",
     "ok doc[{}a({}x=\"1\",{}y=\"2\")[\"t\"]]");
    ("<?xml version=\"1.0\"?>\n<!DOCTYPE a>\n<!-- c --><a><b/></a><!-- after -->\n",
     "ok doc[{}a()[{}b()[]]]");
    ("<a>x&amp;y<![CDATA[<z>]]>w&#65;</a>",
     "ok doc[{}a()[\"x&y<z>wA\"]]");
    ("<a><![CDATA[one]]><![CDATA[two]]></a>",
     "ok doc[{}a()[\"onetwo\"]]");
    ("<a>one<!--c-->two<?pi data?>three<?empty?></a>",
     "ok doc[{}a()[\"one\",comment \"c\",\"two\",pi {}pi \"data\",\"three\",pi {}empty \"\"]]");
    ("<a><![CDATA[]]></a>",
     "ok doc[{}a()[]]");
    ("<a><![CDATA[]]>x</a>",
     "ok doc[{}a()[\"x\"]]");
    ("<p:a xmlns:p=\"urn:p\" xmlns=\"urn:d\"><b q:x=\"1\" xmlns:q=\"urn:q\" y=\"2\"><c xmlns=\"\"/><p:d/></b></p:a>",
     "ok doc[p:{urn:p}a()[{urn:d}b(q:{urn:q}x=\"1\",{}y=\"2\")[{}c()[],p:{urn:p}d()[]]]]");
    ("<p:a xmlns:p=\"u\" xmlns:q=\"u\"></q:a>",
     "ok doc[p:{u}a()[]]");
    ("<p:a xmlns:p=\"1\" xmlns:p=\"2\"/>",
     "ok doc[p:{1}a()[]]");
    ("<a xmlns=\"1\" xmlns=\"2\"/>",
     "ok doc[{1}a()[]]");
    ("<a z=\"1\" a=\"2\" m=\"3\" z=\"4\"/>",
     "ok doc[{}a({}z=\"1\",{}a=\"2\",{}m=\"3\",{}z=\"4\")[]]");
    ("<a xml:lang=\"en\"><xml:b/></a>",
     "ok doc[{}a(xml:{http://www.w3.org/XML/1998/namespace}lang=\"en\")[xml:{http://www.w3.org/XML/1998/namespace}b()[]]]");
    ("<a> <b/>\n\t</a>",
     "ok doc[{}a()[\" \",{}b()[],\"\\n\\t\"]]");
    ("<a>&#x1F600;&#233;&#x10FFFF;&#x800;&#x7FF;&#127;&#128;</a>",
     "ok doc[{}a()[\"\\240\\159\\152\\128\\195\\169\\244\\143\\191\\191\\224\\160\\128\\223\\191\\127\\194\\128\"]]");
    ("<a>&#1_0;&#0b11;&#x0041;</a>",
     "ok doc[{}a()[\"\\n\\003A\"]]");
    ("<a x=\"&lt;&#65;&quot;&apos;&gt;&amp;\" y=\"a>b\nc\"/>",
     "ok doc[{}a({}x=\"<A\\\"'>&\",{}y=\"a>b\\nc\")[]]");
    ("<a></a >",
     "ok doc[{}a()[]]");
    ("<a\n  x = \"1\"\n/>",
     "ok doc[{}a({}x=\"1\")[]]");
    ("<a b=\"1\"c=\"2\"/>",
     "ok doc[{}a({}b=\"1\",{}c=\"2\")[]]");
    ("<a>]]></a>",
     "ok doc[{}a()[\"]]>\"]]");
    ("<p:a xmlns:p=\"urn:p\"><p:b></p:b><p:c xmlns:p=\"urn:q\"></p:c></p:a>",
     "ok doc[p:{urn:p}a()[p:{urn:p}b()[],p:{urn:q}c()[]]]");
    ("<r><s><t>deep</t></s></r>",
     "ok doc[{}r()[{}s()[{}t()[\"deep\"]]]]");
    ("<a><b>x</b>tail</a>",
     "ok doc[{}a()[{}b()[\"x\"],\"tail\"]]");
    ("<a><b></c></a>",
     "error 1:11 mismatched end tag </c> for <b>");
    ("<a>\n  <b>\n  </c>\n</a>",
     "error 3:7 mismatched end tag </c> for <b>");
    ("<a><p:b/></a>",
     "error 1:8 undeclared namespace prefix \"p\"");
    ("<a p:x=\"1\"/>",
     "error 1:11 undeclared namespace prefix \"p\"");
    ("<a></p:a>",
     "error 1:10 undeclared namespace prefix \"p\"");
    ("<a p:x=\"1\" q:y=\"2\"/>",
     "error 1:19 undeclared namespace prefix \"q\"");
    ("<e:a p:x=\"1\"/>",
     "error 1:13 undeclared namespace prefix \"e\"");
    ("<a x=\"1",
     "error 1:8 unterminated attribute value");
    ("<a x='1\"/>",
     "error 1:11 unterminated attribute value");
    ("<a>&foo;</a>",
     "error 1:9 unknown entity &foo;");
    ("<a x=\"&bar;\"/>",
     "error 1:12 unknown entity &bar;");
    ("<a>& b</a>",
     "error 1:5 expected a name");
    ("<a>&lt</a>",
     "error 1:7 expected \";\"");
    ("<a>&#xZZ;</a>",
     "error 1:10 invalid character reference");
    ("<a>&#;</a>",
     "error 1:7 invalid character reference");
    ("<a>&#x;</a>",
     "error 1:8 invalid character reference");
    ("<a>&#65</a>",
     "error 1:12 expected \";\"");
    ("<a>&#-5;</a>",
     "raise Invalid_argument(\"Char.chr\")");
    ("<a>&#x7FFFFFFF;</a>",
     "raise Invalid_argument(\"Char.chr\")");
    ("<a><b>text",
     "error 1:11 unexpected end of input inside element");
    ("<a>",
     "error 1:4 unexpected end of input inside element");
    ("<a><!-- unterminated",
     "error 1:21 expected \"-->\"");
    ("<a><![CDATA[ x",
     "error 1:15 expected \"]]>\"");
    ("<a><?pi x",
     "error 1:10 expected \"?>\"");
    ("<a/>junk",
     "error 1:5 trailing content after root element");
    ("<a/><b/>",
     "error 1:5 trailing content after root element");
    ("",
     "error 1:1 expected a root element");
    ("   ",
     "error 1:4 expected a root element");
    ("<!-- c -->",
     "error 1:11 expected a root element");
    ("text",
     "error 1:1 expected a root element");
    ("<a x=1/>",
     "error 1:6 expected attribute value");
    ("<a x/>",
     "error 1:5 expected \"=\"");
    ("<1a/>",
     "error 1:2 expected a name");
    ("<a:1/>",
     "error 1:3 expected a name");
    ("<a></a",
     "error 1:7 expected \">\"");
    ("<a><?123?></a>",
     "error 1:6 expected a name");
    ("<a/ >",
     "error 1:3 expected \"/>\"");
    ("<a></b >",
     "error 1:9 mismatched end tag </b> for <a>");
    ("<a x=\"1\" ",
     "error 1:10 expected a name");
    ("<!-- x",
     "error 1:7 expected \"-->\"");
    ("<?xml x",
     "error 1:8 expected \"?>\"");
    ("<!DOCTYPE x",
     "error 1:12 expected \">\"");
  ]

let expected_fragments =
  [
    ("<e id='1'/><e id='2'/>",
     "ok {}e({}id=\"1\")[]|{}e({}id=\"2\")[]");
    ("text<a/>more&amp;",
     "ok \"text\"|{}a()[]|\"more&\"");
    ("  ",
     "ok \"  \"");
    ("",
     "ok ");
    ("<!--c--><a/>",
     "ok comment \"c\"|{}a()[]");
    ("a&#66;c<b>x</b>",
     "ok \"aBc\"|{}b()[\"x\"]");
    ("</a>",
     "error 1:1 unexpected end tag in fragment");
    ("<a>",
     "error 1:4 unexpected end of input inside element");
    ("x</a>",
     "error 1:2 unexpected end tag in fragment");
    ("<a><b/></a>tail",
     "ok {}a()[{}b()[]]|\"tail\"");
    ("&bad;",
     "error 1:6 unknown entity &bad;");
  ]

let expected_profiles =
  [
    ("007", 501, "01f283075598783d5c665a38e5d9260c");
    ("C1", 573, "f0bf0d7d8578ea58bdf665d53f091b64");
    ("C2", 882, "915788488e4fc56bb2889338805e54c0");
    ("C3", 575, "04297ec97ea3e927cb2538c4cf6833ec");
    ("C4", 638, "88b63b18405529695f534ae7f3dc5768");
    ("C5", 888, "e0868c0587a4eaa908f5a9f10b8a797b");
    ("C6", 636, "5d6f1fe70ff881242caef5c130d575ef");
    ("C7", 642, "7b70aaac5f27cabb3b07bd9349c16119");
    ("C8", 765, "91e8076c9800a08864ae57696c606991");
    ("C9", 493, "1f20e99220c654cd3fc07c325b025b58");
    ("C10", 580, "52e5a7d15ab89e8bcb9921b03a2f77da");
    ("C11", 335, "08b6e94f90ab2e93847db483fd610be8");
    ("C12", 620, "e47164438aadcd11f5b5f47851c2e240");
    ("C13", 332, "98ad85716741d901c7919bcd3db6fcd6");
    ("C14", 644, "1947a2695e93d49a32be8eadba4194f2");
    ("C15", 646, "d81da3c83e0ef68d0370fc5e59eb29a2");
    ("C16", 458, "8db03337e84ab2547123c5955b8c227d");
    ("C17", 903, "a66215751c2d64f1dc0c4c7e97a83db6");
    ("C18", 627, "acad983def300963d2aa34650e06bc9e");
    ("C19", 458, "7bffcbe057dad1c6da5bb076ae914a95");
    ("C20", 331, "51cb6b75a638024d72c1205e2ab8b866");
  ]

(* ---- the cases ---- *)

let sdo_idx = Qname.make ~prefix:"sdo" ~uri:Sdo.sdo_ns "idx"

let byte_tests =
  List.map2
    (fun (name, got) (name', want) ->
      assert (name = name');
      case name (fun () -> check_string name want got))
    (samples ()) expected_samples
  @ List.map2
      (fun (name, mk) (name', want) ->
        assert (name = name');
        case ("Figure 4 datagraph: " ^ name) (fun () ->
            check_string name want (Sdo.serialize (mk ()))))
      (datagraphs ()) expected_datagraphs
  @ [
      case "the 21 by-id profiles at 20 customers" (fun () ->
          let env = FC.make ~customers:20 () in
          let sess = Aldsp.Dataspace.session env.FC.ds in
          List.iter
            (fun (cid, len, digest) ->
              let out =
                Xqse.Session.eval_to_string sess
                  (Printf.sprintf {|profile:getProfileById("%s")|} cid)
              in
              check_int (cid ^ " length") len (String.length out);
              check_string (cid ^ " digest") digest
                (Digest.to_hex (Digest.string out)))
            expected_profiles);
    ]

let parse_tests =
  List.map
    (fun (src, want) ->
      case (Printf.sprintf "parse %S" src) (fun () ->
          check_string src want (parse_outcome src)))
    expected_parses
  @ List.map
      (fun (src, want) ->
        case (Printf.sprintf "parse_fragment %S" src) (fun () ->
            check_string src want (fragment_outcome src)))
      expected_fragments

(* parse_fragment reads its nodes with the element content loop, so
   CDATA sections and processing instructions, which its own loop did
   not know, now read as they do inside an element *)
let fragment_loop_tests =
  [
    case "a fragment merges CDATA into its text" (fun () ->
        check_string "cdata" {|ok "x<y>z"|}
          (fragment_outcome "x<![CDATA[<y>]]>z"));
    case "a fragment reads a processing instruction" (fun () ->
        check_string "pi" {|ok pi {}t "d"|{}a()[]|}
          (fragment_outcome "<?t d?><a/>"));
    case "fragment nodes have no parent" (fun () ->
        check_bool "parentless" true
          (List.for_all
             (fun n -> Node.parent n = None)
             (Xml_parse.parse_fragment "a<b/><!--c-->d")));
  ]

(* same change summary, node for node *)
let same_changes a b =
  let same_leaf (x : Sdo.leaf_change) (y : Sdo.leaf_change) =
    x.Sdo.leaf_path = y.Sdo.leaf_path && x.Sdo.old_value = y.Sdo.old_value
  in
  let same_delete (x : Sdo.element_delete) (y : Sdo.element_delete) =
    x.Sdo.deleted_path = y.Sdo.deleted_path
    && Node.deep_equal x.Sdo.deleted_old y.Sdo.deleted_old
  in
  let same_insert (x : Sdo.element_insert) (y : Sdo.element_insert) =
    x.Sdo.inserted_parent = y.Sdo.inserted_parent
    && Node.deep_equal x.Sdo.inserted_node y.Sdo.inserted_node
  in
  let all2 f x y = List.length x = List.length y && List.for_all2 f x y in
  all2
    (fun x y ->
      match (x, y) with
      | Sdo.Modified (i, oc), Sdo.Modified (j, oc') ->
        i = j
        && all2 same_leaf oc.Sdo.leaves oc'.Sdo.leaves
        && all2 same_delete oc.Sdo.element_deletes oc'.Sdo.element_deletes
        && all2 same_insert oc.Sdo.element_inserts oc'.Sdo.element_inserts
      | Sdo.Created i, Sdo.Created j -> i = j
      | Sdo.Deleted (i, n), Sdo.Deleted (j, m) -> i = j && Node.deep_equal n m
      | _ -> false)
    (Sdo.changes a) (Sdo.changes b)

(* the client's objects, deleted objects and deleted elements *)
let client_nodes dg =
  Sdo.roots dg
  @ List.concat_map
      (function
        | Sdo.Deleted (_, n) -> [ n ]
        | Sdo.Modified (_, oc) ->
          List.map (fun d -> d.Sdo.deleted_old) oc.Sdo.element_deletes
        | Sdo.Created _ -> [])
      (Sdo.changes dg)

let untouched what n =
  check_bool (what ^ ": no parent") true (Node.parent n = None);
  check_bool (what ^ ": no sdo:idx") true
    (Node.kind n <> Node.Element || Node.attribute_value n sdo_idx = None)

let roundtrip_tests =
  List.map
    (fun (name, mk) ->
      case ("round trip: " ^ name) (fun () ->
          let dg = mk () in
          let wire = Sdo.serialize dg in
          List.iter (untouched name) (client_nodes dg);
          check_string "serializing twice gives the same bytes" wire
            (Sdo.serialize dg);
          let back = Sdo.parse wire in
          check_bool "same changes" true (same_changes dg back);
          let roots = Sdo.roots dg and roots' = Sdo.roots back in
          check_int "same number of roots" (List.length roots)
            (List.length roots');
          check_bool "deep-equal roots" true
            (List.for_all2 Node.deep_equal roots roots');
          List.iter (untouched "parsed") (client_nodes back);
          check_string "the parsed graph serializes to the same bytes" wire
            (Sdo.serialize back)))
    (datagraphs ())
  @ [
      case "a failed serialization leaves the objects untouched" (fun () ->
          let obj = lel "o" [ lel "v" [ txt "1" ] ] in
          let dg = Sdo.create [ obj; txt "not an object" ] in
          (match Sdo.serialize dg with
          | _ -> Alcotest.fail "expected the text root to be refused"
          | exception Invalid_argument _ -> ());
          List.iter (untouched "after the failure") (Sdo.roots dg));
    ]

let suites =
  [
    ("xdm.wire-bytes", byte_tests);
    ("xdm.wire-parse", parse_tests @ fragment_loop_tests);
    ("sdo.wire-roundtrip", roundtrip_tests);
  ]
