(* Everything is written straight into one buffer. A value with nothing
   to escape is copied as it is; names are written from their QName's
   parts, so no string is built per name, attribute or element. *)

let escape_entity ~quot = function
  | '&' -> "&amp;"
  | '<' -> "&lt;"
  | '>' -> "&gt;"
  | '"' when quot -> "&quot;"
  | _ -> ""

(* append [s.[start ..]] escaped, in runs between the characters that
   need an entity *)
let rec add_escaped_from buf ~quot s start i =
  if i = String.length s then Buffer.add_substring buf s start (i - start)
  else
    match escape_entity ~quot (String.unsafe_get s i) with
    | "" -> add_escaped_from buf ~quot s start (i + 1)
    | entity ->
      Buffer.add_substring buf s start (i - start);
      Buffer.add_string buf entity;
      add_escaped_from buf ~quot s (i + 1) (i + 1)

let add_escaped buf ~quot s = add_escaped_from buf ~quot s 0 0

let escape_general ~quot s =
  let buf = Buffer.create (String.length s + 8) in
  add_escaped buf ~quot s;
  Buffer.contents buf

let escape_text s = escape_general ~quot:false s
let escape_attr s = escape_general ~quot:true s

(* Namespace bindings in scope, innermost first: (prefix, uri). The
   declarations an element makes sit in front of its parent's bindings,
   so a walk over the element's own declarations stops at the parent's
   list. *)
type scope = (string * string) list

let initial_scope = [ ("xml", Qname.xml_ns) ]

(* how [prefix] is bound in [l], looking no further than [stop] *)
type binding = Unbound | Same | Other

let rec binding l stop prefix uri =
  if l == stop then Unbound
  else
    match l with
    | [] -> Unbound
    | (p, u) :: rest ->
      if String.equal p prefix then if String.equal u uri then Same else Other
      else binding rest stop prefix uri

(* the first synthesized prefix, ns1, ns2, ..., not bound to another URI *)
let rec synthesize decls uri i =
  let p = "ns" ^ string_of_int i in
  if binding decls [] p uri <> Other then p else synthesize decls uri (i + 1)

type t = {
  buf : Buffer.t;
  indent : bool;
  mutable prefixes : string array;
      (* while a start tag is written: the prefix chosen for the
         element's name (slot 0) and for each attribute *)
  mutable open_elements : (Qname.t * string * scope) list;
      (* elements opened by [start_element]: name, prefix, bindings *)
  mutable start_open : bool;  (* the innermost one's start tag lacks its '>' *)
}

let make ~indent =
  {
    buf = Buffer.create 256;
    indent;
    prefixes = Array.make 8 "";
    open_elements = [];
    start_open = false;
  }

let create () = make ~indent:false

(* Choose the prefix for [qn] on an element whose parent's bindings are
   [outer] and whose own declarations so far, in front of [outer], make
   [decls]; store it in slot [i] and return [decls] with any declaration
   the name needs. A no-namespace element undeclares a default
   namespace; an attribute in a namespace needs a non-empty prefix, and
   gets a synthesized one when it has none of its own. *)
let choose w i ~is_attr outer decls (qn : Qname.t) =
  let uri = qn.uri in
  if uri = "" then begin
    w.prefixes.(i) <- "";
    if (not is_attr) && binding decls [] "" "" = Other then ("", "") :: decls
    else decls
  end
  else if uri = Qname.xml_ns then begin
    w.prefixes.(i) <- "xml";
    decls
  end
  else
    let preferred = match qn.prefix with Some p -> p | None -> "" in
    if binding decls [] preferred uri = Same && not (is_attr && preferred = "")
    then begin
      w.prefixes.(i) <- preferred;
      decls
    end
    else
      let prefix =
        if preferred <> "" && binding decls outer preferred uri <> Other then
          preferred
        else if (not is_attr) && preferred = "" then ""
        else synthesize decls uri 1
      in
      w.prefixes.(i) <- prefix;
      if binding decls outer prefix uri = Same then decls
      else (prefix, uri) :: decls

let add_name buf prefix (qn : Qname.t) =
  if prefix <> "" then begin
    Buffer.add_string buf prefix;
    Buffer.add_char buf ':'
  end;
  Buffer.add_string buf qn.local

let end_tag buf prefix qn =
  Buffer.add_string buf "</";
  add_name buf prefix qn;
  Buffer.add_char buf '>'

let add_attr buf prefix qn value =
  Buffer.add_char buf ' ';
  add_name buf prefix qn;
  Buffer.add_string buf "=\"";
  add_escaped buf ~quot:true value;
  Buffer.add_char buf '"'

(* the declarations in front of [outer], oldest first *)
let rec add_decls buf decls outer =
  if decls != outer then
    match decls with
    | [] -> ()
    | (p, u) :: rest ->
      add_decls buf rest outer;
      if p = "" then Buffer.add_string buf " xmlns=\""
      else begin
        Buffer.add_string buf " xmlns:";
        Buffer.add_string buf p;
        Buffer.add_string buf "=\""
      end;
      add_escaped buf ~quot:true u;
      Buffer.add_char buf '"'

let attr_name a = Option.get (Node.name a)

let rec has_attr (qn : Qname.t) = function
  | [] -> false
  | a :: rest -> Qname.equal (attr_name a) qn || has_attr qn rest

let rec choose_attrs w i outer decls = function
  | [] -> decls
  | a :: rest ->
    choose_attrs w (i + 1) outer
      (choose w i ~is_attr:true outer decls (attr_name a))
      rest

(* the attributes, with [extra]'s value in place of the one of its name *)
let rec add_attrs w i extra = function
  | [] -> ()
  | a :: rest ->
    let qn = attr_name a in
    let value =
      match extra with
      | Some (en, ev) when Qname.equal qn en -> ev
      | _ -> Node.text_content a
    in
    add_attr w.buf w.prefixes.(i) qn value;
    add_attrs w (i + 1) extra rest

(* Write [<name decls attrs] for an element named [qn] with attribute
   nodes [attrs] and, last unless one of [attrs] has its name, the
   attribute [extra]. Returns the element's bindings; the prefix of its
   name is left in slot 0. *)
let start_tag w outer qn attrs extra =
  let extra_slot = 1 + List.length attrs in
  if Array.length w.prefixes <= extra_slot then
    w.prefixes <- Array.make (2 * (extra_slot + 1)) "";
  let decls = choose w 0 ~is_attr:false outer outer qn in
  let decls = choose_attrs w 1 outer decls attrs in
  let appended =
    match extra with
    | Some (en, _) when not (has_attr en attrs) -> Some en
    | _ -> None
  in
  let decls =
    match appended with
    | Some en -> choose w extra_slot ~is_attr:true outer decls en
    | None -> decls
  in
  let buf = w.buf in
  Buffer.add_char buf '<';
  add_name buf w.prefixes.(0) qn;
  add_decls buf decls outer;
  add_attrs w 1 extra attrs;
  (match (appended, extra) with
  | Some en, Some (_, ev) -> add_attr buf w.prefixes.(extra_slot) en ev
  | _ -> ());
  decls

let add_spaces buf n =
  for _ = 1 to n do
    Buffer.add_char buf ' '
  done

let rec no_text = function
  | [] -> true
  | c :: rest -> Node.kind c <> Node.Text && no_text rest

(* An unbuilt row's children, from its cells, as [element] below writes
   the children it would build: each an element without attributes whose
   one child is its text, or with none. All of them are elements, so
   they indent. *)
let rec row_columns w scope depth n i =
  if i < Node.row_width n then begin
    let buf = w.buf in
    if w.indent then begin
      Buffer.add_char buf '\n';
      add_spaces buf (depth * 2)
    end;
    let qn = Node.row_column n i in
    ignore (start_tag w scope qn [] None : scope);
    if Node.row_has_text n i then begin
      let prefix = w.prefixes.(0) in
      Buffer.add_char buf '>';
      add_escaped buf ~quot:false (Node.row_text n i);
      end_tag buf prefix qn
    end
    else Buffer.add_string buf "/>";
    row_columns w scope depth n (i + 1)
  end

let rec write w scope depth n =
  let buf = w.buf in
  match Node.kind n with
  | Node.Text -> add_escaped buf ~quot:false (Node.text_content n)
  | Node.Comment ->
    Buffer.add_string buf "<!--";
    Buffer.add_string buf (Node.text_content n);
    Buffer.add_string buf "-->"
  | Node.Processing_instruction ->
    Buffer.add_string buf "<?";
    (match Node.name n with
    | Some q -> Buffer.add_string buf q.Qname.local
    | None -> ());
    Buffer.add_char buf ' ';
    Buffer.add_string buf (Node.text_content n);
    Buffer.add_string buf "?>"
  | Node.Attribute ->
    Buffer.add_string buf (Qname.to_string (attr_name n));
    Buffer.add_string buf "=\"";
    add_escaped buf ~quot:true (Node.text_content n);
    Buffer.add_char buf '"'
  | Node.Document -> write_all w scope depth (Node.children n)
  | Node.Element -> element w scope depth n None

and write_all w scope depth = function
  | [] -> ()
  | c :: rest ->
    write w scope depth c;
    write_all w scope depth rest

and write_indented w scope depth = function
  | [] -> ()
  | c :: rest ->
    Buffer.add_char w.buf '\n';
    add_spaces w.buf (depth * 2);
    write w scope depth c;
    write_indented w scope depth rest

and element w outer depth n extra =
  let qn = Option.get (Node.name n) in
  let scope = start_tag w outer qn (Node.attributes n) extra in
  let prefix = w.prefixes.(0) in
  let buf = w.buf in
  if Node.unbuilt_row n then
    if Node.row_width n = 0 then Buffer.add_string buf "/>"
    else begin
      Buffer.add_char buf '>';
      row_columns w scope (depth + 1) n 0;
      if w.indent then begin
        Buffer.add_char buf '\n';
        add_spaces buf (depth * 2)
      end;
      end_tag buf prefix qn
    end
  else
    match Node.children n with
    | [] -> Buffer.add_string buf "/>"
    | children ->
      Buffer.add_char buf '>';
      if w.indent && no_text children then begin
        write_indented w scope (depth + 1) children;
        Buffer.add_char buf '\n';
        add_spaces buf (depth * 2)
      end
      else write_all w scope (depth + 1) children;
      end_tag buf prefix qn

let to_string ?(indent = false) n =
  let w = make ~indent in
  write w initial_scope 0 n;
  Buffer.contents w.buf

let seq_to_string ?(indent = false) seq =
  let w = make ~indent in
  let rec go prev_atomic = function
    | [] -> ()
    | Item.Atomic a :: rest ->
      if prev_atomic then Buffer.add_char w.buf ' ';
      add_escaped w.buf ~quot:false (Atomic.to_string a);
      go true rest
    | Item.Node n :: rest ->
      write w initial_scope 0 n;
      go false rest
  in
  go false seq;
  Buffer.contents w.buf

(* ---- the writer's own elements ---- *)

let scope w =
  match w.open_elements with (_, _, s) :: _ -> s | [] -> initial_scope

let close_start w =
  if w.start_open then begin
    Buffer.add_char w.buf '>';
    w.start_open <- false
  end

let start_element ?attr w qn =
  close_start w;
  let decls = start_tag w (scope w) qn [] attr in
  w.open_elements <- (qn, w.prefixes.(0), decls) :: w.open_elements;
  w.start_open <- true

let end_element w =
  match w.open_elements with
  | [] -> invalid_arg "Xml_serialize.end_element: no open element"
  | (qn, prefix, _) :: rest ->
    w.open_elements <- rest;
    if w.start_open then begin
      Buffer.add_string w.buf "/>";
      w.start_open <- false
    end
    else end_tag w.buf prefix qn

let text w s =
  close_start w;
  add_escaped w.buf ~quot:false s

let node ?attr w n =
  close_start w;
  let depth = List.length w.open_elements in
  match (attr, Node.kind n) with
  | None, _ -> write w (scope w) depth n
  | Some _, Node.Element -> element w (scope w) depth n attr
  | Some _, _ -> invalid_arg "Xml_serialize.node: an attribute needs an element"

let contents w = Buffer.contents w.buf
