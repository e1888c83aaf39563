let fodc0006 = Qname.err "FODC0006"

type state = {
  src : string;
  mutable pos : int;
  mutable ns : (string * string) list;
      (* namespace bindings in scope, innermost first: (prefix, uri). An
         element that declares none shares its parent's list. *)
  buf : Buffer.t;  (* text and attribute values that hold references *)
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

let error st msg =
  let line, col = line_col st in
  Item.Error
    { code = fodc0006; message = Printf.sprintf "%d:%d: %s" line col msg;
      items = [] }

let fail st msg = raise (error st msg)

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

let skip_ncname st =
  if not (is_name_start (peek st)) then fail st "expected a name";
  while (not (eof st)) && is_name_char (peek st) do advance st done

let read_ncname st =
  let start = st.pos in
  skip_ncname st;
  String.sub st.src start (st.pos - start)

(* Skip a lexical QName and return the position of its colon, or -1
   when it has no prefix. Nothing is allocated: names are resolved from
   their span of the source. *)
let skip_qname st =
  skip_ncname st;
  if peek st = ':' && is_name_start (peek2 st) then begin
    let colon = st.pos in
    advance st;
    skip_ncname st;
    colon
  end
  else -1

(* is [src.[start .. stop - 1]] the string [s]? *)
let span_is src start stop s =
  stop - start = String.length s && matches_at src start s 0

(* do the [n] characters of [src] from [a] and from [b] agree? *)
let rec spans_equal src a b n =
  n = 0 || (src.[a] = src.[b] && spans_equal src (a + 1) (b + 1) (n - 1))

(* the binding of the prefix spelled [src.[start .. stop - 1]] *)
let unbound = ("", "")

let rec find_binding src start stop = function
  | [] -> unbound
  | ((p, _) as b) :: rest ->
    if span_is src start stop p then b else find_binding src start stop rest

(* a prefixed name [start .. colon - 1] : [colon + 1 .. stop - 1] *)
let resolve_prefixed st start colon stop =
  let local = String.sub st.src (colon + 1) (stop - colon - 1) in
  if span_is st.src start colon "xml" then
    Qname.make ~prefix:"xml" ~uri:Qname.xml_ns local
  else
    let ((p, uri) as b) = find_binding st.src start colon st.ns in
    if b == unbound then
      fail st
        (Printf.sprintf "undeclared namespace prefix %S"
           (String.sub st.src start (colon - start)))
    else Qname.make ~prefix:p ~uri local

(* an unprefixed element name is in the default namespace *)
let resolve_elem_name st start colon stop =
  if colon >= 0 then resolve_prefixed st start colon stop
  else
    let local = String.sub st.src start (stop - start) in
    match find_binding st.src 0 0 st.ns with
    | (_, uri) as b when b != unbound && uri <> "" -> Qname.make ~uri local
    | _ -> Qname.local local

(* unprefixed attributes are in no namespace *)
let resolve_attr_name st start colon stop =
  if colon >= 0 then resolve_prefixed st start colon stop
  else Qname.local (String.sub st.src start (stop - start))

let add_utf8 buf code =
  if code < 128 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
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

(* at '&': decode one reference into [st.buf] *)
let read_reference st =
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
    add_utf8 st.buf code
  end
  else begin
    let name = read_ncname st in
    expect st ";";
    match name with
    | "lt" -> Buffer.add_char st.buf '<'
    | "gt" -> Buffer.add_char st.buf '>'
    | "amp" -> Buffer.add_char st.buf '&'
    | "quot" -> Buffer.add_char st.buf '"'
    | "apos" -> Buffer.add_char st.buf '\''
    | _ -> fail st (Printf.sprintf "unknown entity &%s;" name)
  end

(* to the next '<' or '&' *)
let skip_run st =
  while (not (eof st)) && peek st <> '<' && peek st <> '&' do advance st done

(* the rest of an attribute value that holds a reference, into [st.buf] *)
let rec read_attr_rest st quote =
  if eof st then fail st "unterminated attribute value"
  else if peek st = quote then advance st
  else if peek st = '&' then begin
    read_reference st;
    read_attr_rest st quote
  end
  else begin
    Buffer.add_char st.buf (peek st);
    advance st;
    read_attr_rest st quote
  end

let read_attr_value st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then fail st "expected attribute value";
  advance st;
  let start = st.pos in
  while (not (eof st)) && peek st <> quote && peek st <> '&' do advance st done;
  if eof st then fail st "unterminated attribute value"
  else if peek st = quote then begin
    advance st;
    String.sub st.src start (st.pos - 1 - start)
  end
  else begin
    Buffer.clear st.buf;
    Buffer.add_substring st.buf st.src start (st.pos - start);
    read_attr_rest st quote;
    Buffer.contents st.buf
  end

(* at "<![CDATA[": its content, into [st.buf] *)
let read_cdata st =
  st.pos <- st.pos + 9;
  let start = st.pos in
  while (not (eof st)) && not (looking_at st "]]>") do advance st done;
  Buffer.add_substring st.buf st.src start (st.pos - start);
  expect st "]]>"

let looking_at_cdata st = looking_at st "<![CDATA["

(* the rest of a text that holds a reference or a CDATA section *)
let rec read_text_rest st =
  if eof st then ()
  else if peek st = '&' then begin
    read_reference st;
    read_text_rest st
  end
  else if looking_at_cdata st then begin
    read_cdata st;
    read_text_rest st
  end
  else if peek st = '<' then ()
  else begin
    let start = st.pos in
    skip_run st;
    Buffer.add_substring st.buf st.src start (st.pos - start);
    read_text_rest st
  end

(* Character data up to the next markup other than CDATA: references
   decoded and CDATA sections merged into one string. A run with
   neither is one [String.sub]. *)
let read_text st =
  let start = st.pos in
  skip_run st;
  if eof st || (peek st = '<' && not (looking_at_cdata st)) then
    String.sub st.src start (st.pos - start)
  else begin
    Buffer.clear st.buf;
    Buffer.add_substring st.buf st.src start (st.pos - start);
    read_text_rest st;
    Buffer.contents st.buf
  end

(* at "<!--" *)
let read_comment st =
  st.pos <- st.pos + 4;
  let start = st.pos in
  while (not (eof st)) && not (looking_at st "-->") do advance st done;
  let c = String.sub st.src start (st.pos - start) in
  expect st "-->";
  Node.comment c

(* at "<?" *)
let read_pi st =
  st.pos <- st.pos + 2;
  let target = read_ncname st in
  skip_ws st;
  let start = st.pos in
  while (not (eof st)) && not (looking_at st "?>") do advance st done;
  let data = String.sub st.src start (st.pos - start) in
  expect st "?>";
  Node.processing_instruction target data

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

(* does [l] bind [prefix] before it reaches [outer]? *)
let rec declared_since outer prefix l =
  l != outer
  &&
  match l with
  | [] -> false
  | (p, _) :: rest -> String.equal p prefix || declared_since outer prefix rest

(* a namespace declaration of the element whose parent's bindings are
   [outer]: the first one of a prefix on an element wins *)
let declare st outer prefix uri =
  if not (declared_since outer prefix st.ns) then
    st.ns <- (prefix, uri) :: st.ns

type raw_attr = { a_start : int; a_colon : int; a_stop : int; a_value : string }

(* Read the attributes of a start tag, up to its '/' or '>'. Namespace
   declarations go straight into [st.ns]; the other attributes are
   returned newest first, their names unresolved until every
   declaration of the element is known. *)
let rec read_attributes st outer acc =
  skip_ws st;
  if peek st = '/' || peek st = '>' then acc
  else begin
    let start = st.pos in
    let colon = skip_qname st in
    let stop = st.pos in
    skip_ws st;
    expect st "=";
    skip_ws st;
    let v = read_attr_value st in
    if colon < 0 && span_is st.src start stop "xmlns" then begin
      declare st outer "" v;
      read_attributes st outer acc
    end
    else if colon >= 0 && span_is st.src start colon "xmlns" then begin
      declare st outer (String.sub st.src (colon + 1) (stop - colon - 1)) v;
      read_attributes st outer acc
    end
    else
      read_attributes st outer
        ({ a_start = start; a_colon = colon; a_stop = stop; a_value = v } :: acc)
  end

(* resolve newest first, as declared order comes back out *)
let rec resolve_attrs st acc = function
  | [] -> acc
  | a :: rest ->
    resolve_attrs st
      ((resolve_attr_name st a.a_start a.a_colon a.a_stop, a.a_value) :: acc)
      rest

let rec parse_element st =
  expect st "<";
  let start = st.pos in
  let colon = skip_qname st in
  let stop = st.pos in
  let outer = st.ns in
  let raw = read_attributes st outer [] in
  let name = resolve_elem_name st start colon stop in
  let attrs = resolve_attrs st [] raw in
  let el = Node.element ~attrs name [] in
  if peek st = '/' then begin
    expect st "/>";
    st.ns <- outer;
    el
  end
  else begin
    expect st ">";
    let kids = content st ~fragment:false in
    expect st "</";
    let estart = st.pos in
    let ecolon = skip_qname st in
    let estop = st.pos in
    skip_ws st;
    expect st ">";
    (* an end tag spelled as its start tag names the same element *)
    if
      not
        (estop - estart = stop - start
        && spans_equal st.src start estart (stop - start))
    then begin
      let close_q = resolve_elem_name st estart ecolon estop in
      if not (Qname.equal close_q name) then
        fail st
          (Printf.sprintf "mismatched end tag </%s> for <%s>"
             (Qname.to_string close_q) (Qname.to_string name))
    end;
    st.ns <- outer;
    Node.insert_children el ~pos:`Last kids;
    el
  end

(* The nodes up to the end tag (or, in a fragment, the end of input),
   in order. Each text node is read whole, across references and CDATA
   sections. *)
and[@tail_mod_cons] content st ~fragment =
  if eof st then
    if fragment then []
    else raise (error st "unexpected end of input inside element")
  else if peek st <> '<' || looking_at_cdata st then
    match read_text st with
    | "" -> content st ~fragment
    | s -> Node.text s :: content st ~fragment
  else if looking_at st "</" then
    if fragment then raise (error st "unexpected end tag in fragment")
    else []
  else if looking_at st "<!--" then
    let c = read_comment st in
    c :: content st ~fragment
  else if looking_at st "<?" then
    let pi = read_pi st in
    pi :: content st ~fragment
  else
    let el = parse_element st in
    el :: content st ~fragment

let init src = { src; pos = 0; ns = []; buf = Buffer.create 16 }

let parse src =
  let st = init src in
  skip_misc st;
  if eof st || peek st <> '<' then fail st "expected a root element";
  let root = parse_element st in
  skip_misc st;
  if not (eof st) then fail st "trailing content after root element";
  Node.document [ root ]

let parse_fragment src = content (init src) ~fragment:true
