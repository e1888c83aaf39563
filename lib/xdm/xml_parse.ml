exception Parse_error of { line : int; col : int; message : string }

type state = {
  src : string;
  mutable pos : int;
  (* namespace scopes: innermost first; each is (prefix, uri) *)
  mutable ns : (string * string) list list;
}

let line_col st =
  let line = ref 1 and col = ref 1 in
  for i = 0 to min (st.pos - 1) (String.length st.src - 1) do
    if st.src.[i] = '\n' then begin
      incr line;
      col := 1
    end
    else incr col
  done;
  (!line, !col)

let fail st msg =
  let line, col = line_col st in
  raise (Parse_error { line; col; message = msg })

let eof st = st.pos >= String.length st.src
let peek st = if eof st then '\000' else st.src.[st.pos]

let peek2 st =
  if st.pos + 1 >= String.length st.src then '\000' else st.src.[st.pos + 1]

let advance st = st.pos <- st.pos + 1

(* does [s] occur in [src] at [pos + i], from its [i]th character on? *)
let rec matches_at src pos s i =
  i = String.length s || (src.[pos + i] = s.[i] && matches_at src pos s (i + 1))

let looking_at st s =
  st.pos + String.length s <= String.length st.src && matches_at st.src st.pos s 0

let expect st s =
  if looking_at st s then st.pos <- st.pos + String.length s
  else fail st (Printf.sprintf "expected %S" s)

let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r'
let skip_ws st = while (not (eof st)) && is_ws (peek st) do advance st done

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || Char.code c >= 128

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let read_ncname st =
  if not (is_name_start (peek st)) then fail st "expected a name";
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do advance st done;
  String.sub st.src start (st.pos - start)

(* Returns (prefix option, local). *)
let read_qname_raw st =
  let n1 = read_ncname st in
  if peek st = ':' && is_name_start (peek2 st) then begin
    advance st;
    let n2 = read_ncname st in
    (Some n1, n2)
  end
  else (None, n1)

let lookup_ns st prefix =
  let rec go = function
    | [] -> None
    | scope :: rest -> (
      match List.assoc_opt prefix scope with Some u -> Some u | None -> go rest)
  in
  go st.ns

let resolve_elem_name st (prefix, local) =
  match prefix with
  | Some "xml" -> Qname.make ~prefix:"xml" ~uri:Qname.xml_ns local
  | Some p -> (
    match lookup_ns st p with
    | Some uri -> Qname.make ~prefix:p ~uri local
    | None -> fail st (Printf.sprintf "undeclared namespace prefix %S" p))
  | None -> (
    match lookup_ns st "" with
    | Some uri when uri <> "" -> Qname.make ~uri local
    | _ -> Qname.local local)

let resolve_attr_name st (prefix, local) =
  (* unprefixed attributes are in no namespace *)
  match prefix with
  | Some "xml" -> Qname.make ~prefix:"xml" ~uri:Qname.xml_ns local
  | Some p -> (
    match lookup_ns st p with
    | Some uri -> Qname.make ~prefix:p ~uri local
    | None -> fail st (Printf.sprintf "undeclared namespace prefix %S" p))
  | None -> Qname.local local

let read_reference st buf =
  (* at '&' *)
  advance st;
  if peek st = '#' then begin
    advance st;
    let hex = peek st = 'x' in
    if hex then advance st;
    let start = st.pos in
    while peek st <> ';' && not (eof st) do advance st done;
    let digits = String.sub st.src start (st.pos - start) in
    expect st ";";
    let code =
      try int_of_string (if hex then "0x" ^ digits else digits)
      with _ -> fail st "invalid character reference"
    in
    if code < 128 then Buffer.add_char buf (Char.chr code)
    else begin
      (* UTF-8 encode *)
      if code < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
      else if code < 0x10000 then begin
        Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
        Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
    end
  end
  else begin
    let name = read_ncname st in
    expect st ";";
    match name with
    | "lt" -> Buffer.add_char buf '<'
    | "gt" -> Buffer.add_char buf '>'
    | "amp" -> Buffer.add_char buf '&'
    | "quot" -> Buffer.add_char buf '"'
    | "apos" -> Buffer.add_char buf '\''
    | _ -> fail st (Printf.sprintf "unknown entity &%s;" name)
  end

let read_attr_value st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then fail st "expected attribute value";
  advance st;
  let buf = Buffer.create 16 in
  let rec go () =
    if eof st then fail st "unterminated attribute value"
    else if peek st = quote then advance st
    else if peek st = '&' then begin
      read_reference st buf;
      go ()
    end
    else begin
      Buffer.add_char buf (peek st);
      advance st;
      go ()
    end
  in
  go ();
  Buffer.contents buf

(* character data up to the next markup or reference, in one piece *)
let read_text_run st buf =
  let start = st.pos in
  while (not (eof st)) && peek st <> '<' && peek st <> '&' do advance st done;
  Buffer.add_substring buf st.src start (st.pos - start)

let skip_misc st =
  let continue = ref true in
  while !continue do
    skip_ws st;
    if looking_at st "<?" then begin
      (* XML declaration or PI at top level: skip *)
      while (not (eof st)) && not (looking_at st "?>") do advance st done;
      expect st "?>"
    end
    else if looking_at st "<!--" then begin
      st.pos <- st.pos + 4;
      while (not (eof st)) && not (looking_at st "-->") do advance st done;
      expect st "-->"
    end
    else if looking_at st "<!DOCTYPE" then begin
      (* skip to matching '>' (no internal subset support) *)
      while (not (eof st)) && peek st <> '>' do advance st done;
      expect st ">"
    end
    else continue := false
  done

let rec parse_element st =
  expect st "<";
  let raw_name = read_qname_raw st in
  (* First pass over attributes to collect namespace declarations. *)
  let raw_attrs = ref [] in
  let ns_decls = ref [] in
  let rec attrs () =
    skip_ws st;
    if peek st = '/' || peek st = '>' then ()
    else begin
      let an = read_qname_raw st in
      skip_ws st;
      expect st "=";
      skip_ws st;
      let v = read_attr_value st in
      (match an with
      | None, "xmlns" -> ns_decls := ("", v) :: !ns_decls
      | Some "xmlns", p -> ns_decls := (p, v) :: !ns_decls
      | _ -> raw_attrs := (an, v) :: !raw_attrs);
      attrs ()
    end
  in
  attrs ();
  st.ns <- List.rev !ns_decls :: st.ns;
  let name = resolve_elem_name st raw_name in
  let attrs =
    List.rev_map (fun (an, v) -> (resolve_attr_name st an, v)) !raw_attrs
  in
  let el = Node.element ~attrs name [] in
  if peek st = '/' then begin
    expect st "/>";
    st.ns <- List.tl st.ns;
    el
  end
  else begin
    expect st ">";
    parse_content st el;
    expect st "</";
    let close = read_qname_raw st in
    skip_ws st;
    expect st ">";
    let close_q = resolve_elem_name st close in
    if not (Qname.equal close_q name) then
      fail st
        (Printf.sprintf "mismatched end tag </%s> for <%s>"
           (Qname.to_string close_q) (Qname.to_string name));
    st.ns <- List.tl st.ns;
    el
  end

(* The children are gathered newest first and set once, at the end tag. *)
and parse_content st el =
  let buf = Buffer.create 16 in
  let kids = ref [] in
  let add n = kids := n :: !kids in
  let flush_text () =
    if Buffer.length buf > 0 then begin
      add (Node.text (Buffer.contents buf));
      Buffer.clear buf
    end
  in
  let rec go () =
    if eof st then fail st "unexpected end of input inside element"
    else if looking_at st "</" then begin
      flush_text ();
      Node.insert_children el ~pos:`Last (List.rev !kids)
    end
    else if looking_at st "<!--" then begin
      flush_text ();
      st.pos <- st.pos + 4;
      let start = st.pos in
      while (not (eof st)) && not (looking_at st "-->") do advance st done;
      let c = String.sub st.src start (st.pos - start) in
      expect st "-->";
      add (Node.comment c);
      go ()
    end
    else if looking_at st "<![CDATA[" then begin
      st.pos <- st.pos + 9;
      let start = st.pos in
      while (not (eof st)) && not (looking_at st "]]>") do advance st done;
      Buffer.add_string buf (String.sub st.src start (st.pos - start));
      expect st "]]>";
      go ()
    end
    else if looking_at st "<?" then begin
      flush_text ();
      st.pos <- st.pos + 2;
      let target = read_ncname st in
      skip_ws st;
      let start = st.pos in
      while (not (eof st)) && not (looking_at st "?>") do advance st done;
      let data = String.sub st.src start (st.pos - start) in
      expect st "?>";
      add (Node.processing_instruction target data);
      go ()
    end
    else if peek st = '<' then begin
      flush_text ();
      add (parse_element st);
      go ()
    end
    else if peek st = '&' then begin
      read_reference st buf;
      go ()
    end
    else begin
      read_text_run st buf;
      go ()
    end
  in
  go ()

let parse src =
  let st = { src; pos = 0; ns = [ [] ] } in
  skip_misc st;
  if eof st || peek st <> '<' then fail st "expected a root element";
  let root = parse_element st in
  skip_misc st;
  if not (eof st) then fail st "trailing content after root element";
  Node.document [ root ]

let parse_fragment src =
  let st = { src; pos = 0; ns = [ [] ] } in
  (* wrap in a dummy element-like loop: reuse parse_content on a holder *)
  let holder = Node.element (Qname.local "fragment-holder") [] in
  let rec go () =
    if eof st then ()
    else if looking_at st "</" then fail st "unexpected end tag in fragment"
    else begin
      parse_content_fragment st holder;
      go ()
    end
  and parse_content_fragment st el =
    (* like parse_content but stops at eof instead of "</" *)
    let buf = Buffer.create 16 in
    let flush_text () =
      if Buffer.length buf > 0 then begin
        Node.append_child el (Node.text (Buffer.contents buf));
        Buffer.clear buf
      end
    in
    let rec loop () =
      if eof st then flush_text ()
      else if looking_at st "</" then fail st "unexpected end tag in fragment"
      else if looking_at st "<!--" then begin
        flush_text ();
        st.pos <- st.pos + 4;
        let start = st.pos in
        while (not (eof st)) && not (looking_at st "-->") do advance st done;
        let c = String.sub st.src start (st.pos - start) in
        expect st "-->";
        Node.append_child el (Node.comment c);
        loop ()
      end
      else if peek st = '<' then begin
        flush_text ();
        Node.append_child el (parse_element st);
        loop ()
      end
      else if peek st = '&' then begin
        read_reference st buf;
        loop ()
      end
      else begin
        read_text_run st buf;
        loop ()
      end
    in
    loop ()
  in
  go ();
  let nodes = Node.children holder in
  List.iter Node.detach nodes;
  nodes
