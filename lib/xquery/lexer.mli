(** Tokenizer for XQuery/XQSE source.

    Keywords are contextual in XQuery, so names are returned as {!NAME}
    tokens and the parser matches keywords itself. Direct XML
    constructors are character-level syntax: the parser rewinds to a
    token's start offset ({!token_start}, {!seek}) and reads raw
    characters with the [raw_*] functions. *)

type token =
  | INT of string
  | DEC of string
  | DBL of string
  | STR of string  (** string literal, quotes stripped, escapes expanded *)
  | NAME of string option * string  (** lexical QName: prefix, local *)
  | NS_WILDCARD of string  (** [prefix:*] *)
  | LOCAL_WILDCARD of string  (** [*:local] *)
  | LPAR
  | RPAR
  | LBRACKET
  | RBRACKET
  | LBRACE
  | RBRACE
  | COMMA
  | SEMI
  | ASSIGN  (** [:=] *)
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
  | NOTEQUALS  (** [!=] *)
  | LT
  | LE
  | GT
  | GE
  | LTLT  (** [<<] *)
  | GTGT  (** [>>] *)
  | QMARK
  | AXIS_SEP  (** [::] *)
  | EOF

type t

val create : string -> t
val source : t -> string

val peek : t -> token
val peek2 : t -> token
(** One token of extra lookahead. *)

val next : t -> token
(** Consume and return the current token. *)

val token_start : t -> int
(** Source offset where the current (peeked) token begins. *)

val pos : t -> int
val seek : t -> int -> unit
(** Discard buffered tokens and move the cursor (used to re-lex after
    backtracking and to enter raw mode). *)

val error_at : t -> Xdm.Qname.t -> int -> string -> 'a
(** [error_at t code pos msg] raises [Xdm.Item.Error] [code] with the
    text ["line:col: msg"], the line and column of source offset [pos]. *)

val fail : t -> int -> string -> 'a
(** [error_at] with [err:XPST0003]: how every lexical and syntax error
    is raised. *)

(** {1 Raw character mode (direct constructors)} *)

val raw_peek : t -> char
(** ['\000'] at end of input. *)

val raw_next : t -> char
val raw_looking_at : t -> string -> bool
val raw_skip_ws : t -> unit
val raw_ncname : t -> string
(** Raises [err:XPST0003] if no name starts here. *)

val raw_expect : t -> string -> unit
