(** Recursive-descent parser for the XQuery subset.

    QNames are resolved against the static context during parsing (so
    namespace declarations in prologs and direct constructors are handled
    here, not at evaluation time). The parser state and the individual
    entry points are exposed so the XQSE parser can extend the grammar
    with statements while reusing all expression productions. *)

exception Syntax_error of { line : int; col : int; message : string }

type t
(** Parser state: a lexer plus the static context being built. *)

val create : Context.static -> string -> t
val static : t -> Context.static

(** {1 Whole-unit entry points} *)

val parse_expression : Context.static -> string -> Ast.expr
(** Parse a single expression (no prolog) and require end of input. *)

(** {1 Token helpers (for the XQSE parser)} *)

val peek : t -> Lexer.token
val peek2 : t -> Lexer.token
val advance : t -> unit
val fail : t -> string -> 'a
val expect_tok : t -> Lexer.token -> string -> unit
val at_keyword : t -> string -> bool
(** Is the current token the NCName [kw]? *)

val at_keyword2 : t -> string -> string -> bool
(** Are the next two tokens the NCNames [k1 k2]? *)

val eat_keyword : t -> string -> unit
(** Consume the NCName [kw] or fail. *)

val try_keyword : t -> string -> bool
(** Consume the NCName [kw] if present. *)

val expect_eof : t -> unit

(** {1 Grammar productions} *)

val parse_qname_lexical : t -> string option * string
(** Next token as a lexical QName (no resolution). *)

val parse_elem_qname : t -> Xdm.Qname.t
(** Resolve with the default element namespace. *)

val parse_fun_qname : t -> Xdm.Qname.t
val parse_var_qname : t -> Xdm.Qname.t
(** Parse [$name] (consumes the dollar). *)

val parse_sequence_type : t -> Xdm.Seqtype.t
val parse_expr : t -> Ast.expr
(** Comma-separated expression. *)

val parse_expr_single : t -> Ast.expr
val parse_enclosed_expr : t -> Ast.expr
(** [{ Expr }] *)

val parse_param_list : t -> (Xdm.Qname.t * Xdm.Seqtype.t option) list
(** [( $a as T, $b )] including parentheses; empty list for [()]. *)

type prolog_step =
  | No_item  (** next tokens do not start a prolog item *)
  | Consumed  (** a declaration was handled by side effect (namespaces) *)
  | Item of Ast.prolog_item

val try_parse_prolog_item : t -> prolog_step
(** Handles [declare namespace], [declare default element/function
    namespace], [declare boundary-space], [declare option],
    [import module], [declare variable] and [declare function]. Leaves
    [declare (readonly)? procedure] and [declare xqse function] for the
    XQSE parser ({!No_item}). Consumes the trailing separator [;]. *)
