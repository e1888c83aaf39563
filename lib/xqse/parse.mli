(** Parser for XQSE programs.

    XQSE "loosely wraps" XQuery (paper section III): the prolog gains
    procedure declarations, the query body may be a Block, and all
    expression positions reuse the XQuery grammar unchanged. This parser
    delegates every expression production to {!Xquery.Parser}. *)

val parse_program : Xquery.Context.static -> string -> Stmt.program
(** Parse a complete XQSE program (prolog + optional query body).
    Raises [Xdm.Item.Error] [err:XPST0003] on bad syntax. *)

val parse_block : Xquery.Parser.t -> Stmt.block
(** Parse a [{ ... }] block (entry point reused by tests). *)

val parse_statement : Xquery.Parser.t -> Stmt.statement * bool
(** Parse one statement; the boolean reports whether it is a "simple"
    statement (which requires a following [;] inside a block). *)
