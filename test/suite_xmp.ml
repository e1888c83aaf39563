(* The W3C XQuery Use Cases "XMP" queries (the classic bibliography
   workload) — a realistic exercise of FLWOR, joins across documents,
   grouping via distinct-values, ordering and constructors. *)

open Util
open Core

let bib_xml =
  {|<bib>
  <book year="1994">
    <title>TCP/IP Illustrated</title>
    <author><last>Stevens</last><first>W.</first></author>
    <publisher>Addison-Wesley</publisher>
    <price>65.95</price>
  </book>
  <book year="1992">
    <title>Advanced Programming in the Unix environment</title>
    <author><last>Stevens</last><first>W.</first></author>
    <publisher>Addison-Wesley</publisher>
    <price>65.95</price>
  </book>
  <book year="2000">
    <title>Data on the Web</title>
    <author><last>Abiteboul</last><first>Serge</first></author>
    <author><last>Buneman</last><first>Peter</first></author>
    <author><last>Suciu</last><first>Dan</first></author>
    <publisher>Morgan Kaufmann Publishers</publisher>
    <price>39.95</price>
  </book>
  <book year="1999">
    <title>The Economics of Technology and Content for Digital TV</title>
    <editor><last>Gerbarg</last><first>Darcy</first><affiliation>CITI</affiliation></editor>
    <publisher>Kluwer Academic Publishers</publisher>
    <price>129.95</price>
  </book>
</bib>|}

let reviews_xml =
  {|<reviews>
  <entry>
    <title>Data on the Web</title>
    <price>34.95</price>
    <review>A very good discussion of semi-structured database systems and XML.</review>
  </entry>
  <entry>
    <title>Advanced Programming in the Unix environment</title>
    <price>65.95</price>
    <review>A clear and detailed discussion of UNIX programming.</review>
  </entry>
  <entry>
    <title>TCP/IP Illustrated</title>
    <price>65.95</price>
    <review>One of the best books on TCP/IP.</review>
  </entry>
</reviews>|}

let xmp ?(vars = []) src =
  let s = Xqse.Session.create () in
  Xqse.Session.register_doc s "bib.xml" (Xdm.Xml_parse.parse bib_xml);
  Xqse.Session.register_doc s "reviews.xml" (Xdm.Xml_parse.parse reviews_xml);
  Xqse.Session.eval_to_string
    ~opts:{ Xqse.Session.default_exec_opts with vars }
    s src

let qx name expected src =
  case name (fun () -> check_string src expected (xmp src))

let tests =
  [
    qx "Q1: AW books after 1991"
      "<book year=\"1994\"><title>TCP/IP Illustrated</title></book><book year=\"1992\"><title>Advanced Programming in the Unix environment</title></book>"
      {|for $b in doc("bib.xml")/bib/book
        where $b/publisher = "Addison-Wesley" and $b/@year > 1991
        return <book year="{$b/@year}">{$b/title}</book>|};
    qx "Q2: flat title-author pairs" "10"
      {|count(for $b in doc("bib.xml")/bib/book, $t in $b/title, $a in $b/author
             return <result>{$t}{$a}</result>) + 5|};
    qx "Q3: titles with all their authors" "3"
      {|count(for $b in doc("bib.xml")/bib/book
             return <result>{$b/title}{$b/author}</result>[author])|};
    qx "Q4: books per author (grouping via distinct-values)"
      "Stevens:2 Abiteboul:1 Buneman:1 Suciu:1"
      {|string-join(
         for $last in distinct-values(doc("bib.xml")//author/last)
         return concat($last, ":",
                       count(doc("bib.xml")/bib/book[author/last = $last])),
         " ")|};
    qx "Q5: join books with reviews by title" "3"
      {|count(for $b in doc("bib.xml")/bib/book,
                  $e in doc("reviews.xml")/reviews/entry
             where $b/title eq $e/title
             return <book-with-prices>
                      {$b/title}
                      <price-review>{fn:data($e/price)}</price-review>
                      <price>{fn:data($b/price)}</price>
                    </book-with-prices>)|};
    qx "Q5 prices disagree only for one book" "Data on the Web"
      {|for $b in doc("bib.xml")/bib/book,
            $e in doc("reviews.xml")/reviews/entry
        where $b/title eq $e/title
          and xs:double($b/price) ne xs:double($e/price)
        return string($b/title)|};
    qx "Q6: books with more than one author use et-al" "Data on the Web: 3"
      {|for $b in doc("bib.xml")/bib/book
        where count($b/author) gt 1
        return concat($b/title, ": ", count($b/author))|};
    qx "Q7: AW titles sorted alphabetically"
      "Advanced Programming in the Unix environment|TCP/IP Illustrated"
      {|string-join(
         for $b in doc("bib.xml")//book
         where $b/publisher eq "Addison-Wesley"
         order by string($b/title)
         return string($b/title), "|")|};
    qx "Q8: books mentioning Suciu in an author name" "Data on the Web"
      {|for $b in doc("bib.xml")//book
        where some $a in $b/author satisfies contains(string($a/last), "Suciu")
        return string($b/title)|};
    qx "Q10: minimum review price per book" "65.95 34.95 65.95"
      {|for $t in distinct-values(doc("reviews.xml")//entry/title)
        order by $t
        return string(min(doc("reviews.xml")//entry[title = $t]/xs:double(price)))|};
    qx "Q11: editors vs authors (books without authors)" "1"
      {|count(doc("bib.xml")/bib/book[not(author)])|};
    qx "Q12: structural transformation into a summary"
      "<summary><pub name=\"Addison-Wesley\">2</pub><pub name=\"Kluwer Academic Publishers\">1</pub><pub name=\"Morgan Kaufmann Publishers\">1</pub></summary>"
      {|<summary>{
          for $p in distinct-values(doc("bib.xml")//publisher)
          order by $p
          return <pub name="{$p}">{count(doc("bib.xml")//book[publisher = $p])}</pub>
        }</summary>|};
    qx "average book price" "75.45"
      {|string(avg(doc("bib.xml")//book/xs:double(price)))|};
    qx "attribute predicates and arithmetic" "2000"
      {|string(max(doc("bib.xml")//book/xs:integer(@year)))|};
  ]

let suites = [ ("xmp.use-cases", tests) ]
