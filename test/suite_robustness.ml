(* Robustness: deep nesting, large inputs, error positions, adversarial
   but legal syntax, and end-to-end randomized update round trips. *)

open Util
open Core
module R = Relational
module F = Fixtures.Customer_profile

let stress_tests =
  [
    case "deeply nested parentheses parse and evaluate" (fun () ->
        let depth = 200 in
        let src =
          String.concat "" (List.init depth (fun _ -> "("))
          ^ "1"
          ^ String.concat "" (List.init depth (fun _ -> " + 1)"))
        in
        check_string "value" (string_of_int (depth + 1)) (xq src));
    case "deeply nested element constructors" (fun () ->
        let depth = 100 in
        let src =
          String.concat "" (List.init depth (fun i -> Printf.sprintf "<e%d>" i))
          ^ "x"
          ^ String.concat ""
              (List.init depth (fun i -> Printf.sprintf "</e%d>" (depth - 1 - i)))
        in
        check_string "depth" (string_of_int depth)
          (xq (Printf.sprintf "count((%s)/descendant-or-self::*)" src)));
    case "large sequence aggregation" (fun () ->
        check_string "sum" "50005000" (xq "sum(1 to 10000)"));
    case "large string building" (fun () ->
        check_string "len" "30000"
          (xq "string-length(string-join(for $i in 1 to 10000 return 'abc', ''))"));
    case "many FLWOR variables in scope" (fun () ->
        let src =
          String.concat " "
            (List.init 26 (fun i ->
                 Printf.sprintf "let $v%c := %d" (Char.chr (97 + i)) i))
          ^ " return $va + $vz"
        in
        check_string "sum" "25" (xq src));
    case "long XQSE loop with reassignment" (fun () ->
        check_string "loop" "100000"
          (xqse
             {| {
               declare $i := 0;
               while ($i lt 100000) { set $i := $i + 1; }
               return value $i;
             } |}));
    case "iterate over a 10k binding sequence" (fun () ->
        check_string "sum" "50005000"
          (xqse
             {| {
               declare $sum := 0;
               iterate $x over 1 to 10000 { set $sum := $sum + $x; }
               return value $sum;
             } |}));
    case "blocks nest 50 deep" (fun () ->
        let depth = 50 in
        let src =
          "{ declare $x := 0;"
          ^ String.concat "" (List.init depth (fun _ -> "{ set $x := $x + 1;"))
          ^ String.concat "" (List.init depth (fun _ -> "}"))
          ^ " return value $x; }"
        in
        check_string "nested" (string_of_int depth) (xqse src));
  ]

(* the line, column and message of the err:XPST0003 [src] raises, whose
   text is "line:col: message" *)
let syntax_error src =
  match xq src with
  | _ -> Alcotest.fail "expected a syntax error"
  | exception Xdm.Item.Error { code = { local = "XPST0003"; _ }; message; _ }
    ->
    Scanf.sscanf message "%d:%d:%n" (fun line col n ->
        (line, col, String.sub message (n + 1) (String.length message - n - 1)))

let error_position_tests =
  [
    case "syntax error reports the right line" (fun () ->
        let line, _, _ = syntax_error "1 +\n2 +\n* 3" in
        check_int "line" 3 line);
    case "lex error has an offset" (fun () ->
        let line, col, _ = syntax_error "1 ! 2" in
        check_int "line" 1 line;
        check_bool "col" true (col >= 3));
    case "error inside a constructor points into it" (fun () ->
        let line, _, _ = syntax_error "<a>{ 1 +\n+ }</a>" in
        check_bool "line" true (line >= 1));
    case "messages name the offending construct" (fun () ->
        let _, _, message = syntax_error "for $x in (1,2) order $x return $x" in
        check_bool "nonempty" true (String.length message > 5));
  ]

let adversarial_syntax_tests =
  [
    q "keywords as element names" "<for><let/><return/></for>"
      "<for><let/><return/></for>";
    q "keywords as path steps" "1"
      "count((<a><for/></a>)/for)";
    q "div as element and operator" "4"
      "count((<div><div/><div/></div>)//div) + (4 div 2)";
    q "operator keywords in value positions" "3"
      "let $and := 1 let $or := 2 return $and + $or";
    q "if as variable name" "7" "let $if := 7 return $if";
    q "comments between any tokens" "3"
      "1(::)+(: x (: nested :) y :)2";
    q "string with both quote kinds" "it's \"quoted\""
      {|concat("it's ", '"quoted"')|};
    q "attribute with single quotes inside double" "<a q=\"don't\"/>"
      {|<a q="don't"/>|};
    q "braces escaped in text" "<t>{not an expr}</t>" "<t>{{not an expr}}</t>";
    q "unary chains" "-3" "- + - + -3";
    q_syntax "empty enclosed expression is invalid (XQuery 1.0)" "<a>{}</a>";
    q "predicates on literals in parens" "2" "(1, 2, 3)[2]";
    q "numeric edge: big integers" "4611686018427387903"
      "4611686018427387903";
    s "xqse keyword-as-function shadowing" "done"
      {|declare function local:set($x) { $x };
        { declare $r := local:set("done"); return value $r; }|};
  ]

let decompose_roundtrip_prop =
  [
    prop "random leaf edits survive the full SDO round trip" ~count:25
      QCheck.(pair (int_range 1 3) (small_list (int_range 0 2)))
      (fun (cid_n, edits) ->
        let env = F.make ~customers:3 () in
        let cid = Printf.sprintf "C%d" cid_n in
        let dg = F.get_profile_by_id env cid in
        QCheck.assume (List.length (Sdo.roots dg) = 1);
        (* apply a random series of edits to mapped top-level leaves *)
        let leaves = [| "LAST_NAME"; "FIRST_NAME" |] in
        let expected = Hashtbl.create 4 in
        List.iteri
          (fun i which ->
            let leaf = leaves.(which mod Array.length leaves) in
            let v = Printf.sprintf "v%d_%d" i which in
            Sdo.set_leaf dg 1 [ (leaf, 1) ] v;
            Hashtbl.replace expected leaf v)
          edits;
        let r = Aldsp.Dataspace.submit env.F.ds env.F.svc dg in
        let ok_commit = r.Aldsp.Dataspace.sr_committed in
        let dg2 = F.get_profile_by_id env cid in
        ok_commit
        && Hashtbl.fold
             (fun leaf v acc -> acc && Sdo.get_leaf dg2 1 [ (leaf, 1) ] = v)
             expected true);
    prop "random nested status edits round trip" ~count:20
      QCheck.(int_range 1 3)
      (fun cid_n ->
        let env = F.make ~customers:3 ~max_orders:3 () in
        let cid = Printf.sprintf "C%d" cid_n in
        let dg = F.get_profile_by_id env cid in
        QCheck.assume (List.length (Sdo.roots dg) = 1);
        let order_count =
          List.length
            (R.Table.select env.F.orders (R.Pred.eq "CID" (R.Value.Text cid)))
        in
        QCheck.assume (order_count > 0);
        let path = Sdo.path_of_string (Printf.sprintf "Orders/ORDERS[%d]/STATUS" order_count) in
        Sdo.set_leaf dg 1 path "ROUNDTRIP";
        let r = Aldsp.Dataspace.submit env.F.ds env.F.svc dg in
        let dg2 = F.get_profile_by_id env cid in
        r.Aldsp.Dataspace.sr_committed
        && Sdo.get_leaf dg2 1 path = "ROUNDTRIP");
  ]

(* Every failure the library raises to its callers is an [Item.Error]
   with a code; the one other exception an interface may declare is the
   XDM kernel's internal cast failure, which never leaves the library.
   Reads the interfaces under lib/ (the build directory's copy when run
   by dune test, the source tree when run from the repository root). *)
let failure_type_tests =
  [
    case "lib's interfaces declare only Item.Error and Atomic.Cast_error"
      (fun () ->
        let root =
          match List.find_opt Sys.file_exists [ "../lib"; "lib" ] with
          | Some r -> r
          | None -> Alcotest.fail "lib/ not found"
        in
        let rec interfaces dir =
          List.concat_map
            (fun name ->
              let path = Filename.concat dir name in
              if Sys.is_directory path then interfaces path
              else if Filename.check_suffix name ".mli" then [ path ]
              else [])
            (List.sort compare (Array.to_list (Sys.readdir dir)))
        in
        let declared path =
          In_channel.with_open_text path In_channel.input_lines
          |> List.filter_map (fun line ->
                 match String.split_on_char ' ' (String.trim line) with
                 | "exception" :: name :: _ ->
                   Some (Filename.basename path ^ " " ^ name)
                 | _ -> None)
        in
        Alcotest.(check (list string))
          "declared exceptions"
          [ "atomic.mli Cast_error"; "item.mli Error" ]
          (List.sort compare (List.concat_map declared (interfaces root))));
  ]

let suites =
  [
    ("robustness.stress", stress_tests);
    ("robustness.failure-types", failure_type_tests);
    ("robustness.error-positions", error_position_tests);
    ("robustness.adversarial-syntax", adversarial_syntax_tests);
    ("robustness.sdo-roundtrip", decompose_roundtrip_prop);
  ]
