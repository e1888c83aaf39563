type token =
  | INT of string
  | DEC of string
  | DBL of string
  | STR of string
  | NAME of string option * string
  | NS_WILDCARD of string
  | LOCAL_WILDCARD of string
  | LPAR
  | RPAR
  | LBRACKET
  | RBRACKET
  | LBRACE
  | RBRACE
  | COMMA
  | SEMI
  | ASSIGN
  | DOLLAR
  | AT
  | DOT
  | DOTDOT
  | SLASH
  | SLASHSLASH
  | STAR
  | PLUS
  | MINUS
  | PIPE
  | EQUALS
  | NOTEQUALS
  | LT
  | LE
  | GT
  | GE
  | LTLT
  | GTGT
  | QMARK
  | AXIS_SEP
  | EOF

type buffered = { tok : token; start : int; stop : int }

type t = {
  src : string;
  mutable cursor : int;  (* next unlexed char *)
  mutable buf : buffered list;  (* lookahead buffer, oldest first *)
}

let create src = { src; cursor = 0; buf = [] }
let source t = t.src

let line_col t pos =
  let line = ref 1 and col = ref 1 in
  for i = 0 to min (pos - 1) (String.length t.src - 1) do
    if t.src.[i] = '\n' then begin
      incr line;
      col := 1
    end
    else incr col
  done;
  (!line, !col)

let xpst0003 = Xdm.Qname.err "XPST0003"

let error_at t code pos msg =
  let line, col = line_col t pos in
  Xdm.Item.raise_error code (Printf.sprintf "%d:%d: %s" line col msg)

let fail t pos msg = error_at t xpst0003 pos msg

let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || Char.code c >= 128

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let is_digit c = c >= '0' && c <= '9'

let at t i = if i >= String.length t.src then '\000' else t.src.[i]

(* Skip whitespace and (possibly nested) comments starting at [i]. *)
let rec skip_ignorable t i =
  if i < String.length t.src && is_ws t.src.[i] then skip_ignorable t (i + 1)
  else if at t i = '(' && at t (i + 1) = ':' then begin
    let rec comment depth i =
      if i >= String.length t.src then fail t i "unterminated comment"
      else if at t i = '(' && at t (i + 1) = ':' then comment (depth + 1) (i + 2)
      else if at t i = ':' && at t (i + 1) = ')' then
        if depth = 1 then i + 2 else comment (depth - 1) (i + 2)
      else comment depth (i + 1)
    in
    skip_ignorable t (comment 1 (i + 2))
  end
  else i

let lex_string t i =
  let quote = t.src.[i] in
  let buf = Buffer.create 16 in
  let rec go i =
    if i >= String.length t.src then fail t i "unterminated string literal"
    else if t.src.[i] = quote then
      if at t (i + 1) = quote then begin
        Buffer.add_char buf quote;
        go (i + 2)
      end
      else (STR (Buffer.contents buf), i + 1)
    else if t.src.[i] = '&' then begin
      (* predefined/char entity *)
      let j = ref (i + 1) in
      while at t !j <> ';' && !j < String.length t.src do incr j done;
      let name = String.sub t.src (i + 1) (!j - i - 1) in
      let add s = Buffer.add_string buf s in
      (match name with
      | "lt" -> add "<"
      | "gt" -> add ">"
      | "amp" -> add "&"
      | "quot" -> add "\""
      | "apos" -> add "'"
      | _ when String.length name > 1 && name.[0] = '#' ->
        let code =
          try
            if name.[1] = 'x' then
              int_of_string ("0x" ^ String.sub name 2 (String.length name - 2))
            else int_of_string (String.sub name 1 (String.length name - 1))
          with _ -> fail t i "invalid character reference"
        in
        if code < 128 then Buffer.add_char buf (Char.chr code)
        else add (Printf.sprintf "&#%d;" code)
      | _ -> fail t i (Printf.sprintf "unknown entity &%s;" name));
      go (!j + 1)
    end
    else begin
      Buffer.add_char buf t.src.[i];
      go (i + 1)
    end
  in
  go (i + 1)

let lex_number t i =
  let n = String.length t.src in
  let j = ref i in
  while !j < n && is_digit t.src.[!j] do incr j done;
  let has_dot = at t !j = '.' && at t (!j + 1) <> '.' in
  if has_dot then begin
    incr j;
    while !j < n && is_digit t.src.[!j] do incr j done
  end;
  let has_exp = (at t !j = 'e' || at t !j = 'E')
                && (is_digit (at t (!j + 1))
                   || ((at t (!j + 1) = '+' || at t (!j + 1) = '-')
                      && is_digit (at t (!j + 2))))
  in
  if has_exp then begin
    incr j;
    if at t !j = '+' || at t !j = '-' then incr j;
    while !j < n && is_digit t.src.[!j] do incr j done
  end;
  let text = String.sub t.src i (!j - i) in
  let tok =
    if has_exp then DBL text else if has_dot then DEC text else INT text
  in
  (tok, !j)

let lex_name t i =
  let n = String.length t.src in
  let j = ref i in
  while !j < n && is_name_char t.src.[!j] do incr j done;
  let name1 = String.sub t.src i (!j - i) in
  (* QName: name ':' name with no intervening space, and not '::' *)
  if at t !j = ':' && at t (!j + 1) <> ':' && at t (!j + 1) <> '=' then
    if is_name_start (at t (!j + 1)) then begin
      let k = ref (!j + 1) in
      while !k < n && is_name_char t.src.[!k] do incr k done;
      (NAME (Some name1, String.sub t.src (!j + 1) (!k - !j - 1)), !k)
    end
    else if at t (!j + 1) = '*' then (NS_WILDCARD name1, !j + 2)
    else (NAME (None, name1), !j)
  else (NAME (None, name1), !j)

let lex_one t i =
  let i = skip_ignorable t i in
  if i >= String.length t.src then { tok = EOF; start = i; stop = i }
  else
    let c = t.src.[i] in
    let two tok = { tok; start = i; stop = i + 2 } in
    let one tok = { tok; start = i; stop = i + 1 } in
    match c with
    | '"' | '\'' ->
      let tok, stop = lex_string t i in
      { tok; start = i; stop }
    | '(' -> one LPAR
    | ')' -> one RPAR
    | '[' -> one LBRACKET
    | ']' -> one RBRACKET
    | '{' -> one LBRACE
    | '}' -> one RBRACE
    | ',' -> one COMMA
    | ';' -> one SEMI
    | '$' -> one DOLLAR
    | '@' -> one AT
    | '?' -> one QMARK
    | '+' -> one PLUS
    | '-' -> one MINUS
    | '|' -> one PIPE
    | '=' -> one EQUALS
    | '!' ->
      if at t (i + 1) = '=' then two NOTEQUALS
      else fail t i "unexpected character '!'"
    | '<' ->
      if at t (i + 1) = '<' then two LTLT
      else if at t (i + 1) = '=' then two LE
      else one LT
    | '>' ->
      if at t (i + 1) = '>' then two GTGT
      else if at t (i + 1) = '=' then two GE
      else one GT
    | ':' ->
      if at t (i + 1) = '=' then two ASSIGN
      else if at t (i + 1) = ':' then two AXIS_SEP
      else fail t i "unexpected character ':'"
    | '/' -> if at t (i + 1) = '/' then two SLASHSLASH else one SLASH
    | '.' ->
      if at t (i + 1) = '.' then two DOTDOT
      else if is_digit (at t (i + 1)) then begin
        let tok, stop = lex_number t i in
        { tok; start = i; stop }
      end
      else one DOT
    | '*' ->
      if at t (i + 1) = ':' && at t (i + 2) = '*' then
        (* the '*:*' name test (used by XQSE catch clauses) *)
        { tok = LOCAL_WILDCARD "*"; start = i; stop = i + 3 }
      else if at t (i + 1) = ':' && is_name_start (at t (i + 2)) then begin
        let j = ref (i + 2) in
        while !j < String.length t.src && is_name_char t.src.[!j] do incr j done;
        { tok = LOCAL_WILDCARD (String.sub t.src (i + 2) (!j - i - 2));
          start = i;
          stop = !j }
      end
      else one STAR
    | c when is_digit c ->
      let tok, stop = lex_number t i in
      { tok; start = i; stop }
    | c when is_name_start c ->
      let tok, stop = lex_name t i in
      { tok; start = i; stop }
    | c -> fail t i (Printf.sprintf "unexpected character %C" c)

let fill t n =
  while List.length t.buf < n do
    let b = lex_one t t.cursor in
    t.cursor <- b.stop;
    t.buf <- t.buf @ [ b ]
  done

let peek t =
  fill t 1;
  (List.hd t.buf).tok

let peek2 t =
  fill t 2;
  (List.nth t.buf 1).tok

let next t =
  fill t 1;
  match t.buf with
  | b :: rest ->
    t.buf <- rest;
    b.tok
  | [] -> assert false

let token_start t =
  fill t 1;
  (List.hd t.buf).start

let pos t = match t.buf with b :: _ -> b.start | [] -> t.cursor

let seek t p =
  t.buf <- [];
  t.cursor <- p

(* Raw mode: operate directly on the cursor; caller must have drained or
   seeked past the buffer. *)
let sync t =
  match t.buf with
  | b :: _ ->
    t.cursor <- b.start;
    t.buf <- []
  | [] -> ()

let raw_peek t =
  sync t;
  at t t.cursor

let raw_next t =
  sync t;
  let c = at t t.cursor in
  if c <> '\000' then t.cursor <- t.cursor + 1;
  c

let raw_looking_at t s =
  sync t;
  let n = String.length s in
  t.cursor + n <= String.length t.src && String.sub t.src t.cursor n = s

let raw_skip_ws t =
  sync t;
  while t.cursor < String.length t.src && is_ws t.src.[t.cursor] do
    t.cursor <- t.cursor + 1
  done

let raw_ncname t =
  sync t;
  if not (is_name_start (at t t.cursor)) then
    fail t t.cursor "expected a name";
  let start = t.cursor in
  while t.cursor < String.length t.src && is_name_char t.src.[t.cursor] do
    t.cursor <- t.cursor + 1
  done;
  String.sub t.src start (t.cursor - start)

let raw_expect t s =
  if raw_looking_at t s then t.cursor <- t.cursor + String.length s
  else fail t t.cursor (Printf.sprintf "expected %S" s)
