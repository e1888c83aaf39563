(** Row ↔ XML mapping: the natural "XML view" of relational rows that
    physical data services expose (paper section II.A).

    A row of table [T] maps to [<T><COL1>v</COL1>…</T>] with row and
    column elements in no namespace (so Figure-3-style unprefixed child
    steps work); NULL columns are omitted. *)

open Xdm

val row_to_xml : Relational.Table.t -> Relational.Table.row -> Node.t
(** A {!Node.row} element: it keeps the row's non-NULL values as text
    ([Relational.Value.to_string]) and builds its column children only
    when something navigates into it, so a read that only takes
    [fn:data($row/COL)] never builds them. [row_to_xml tbl] builds the
    table's row and column QNames once, at partial application: apply
    it once per table and map many rows with the result. A row with no
    NULL is made on the table's {!Node.layout}, so it boxes no name. *)

val xml_to_pairs :
  Relational.Table.t -> Node.t -> (string * Relational.Value.t) list
(** Read the column/value pairs present in a row element (ignoring child
    elements that are not columns of the table; absent columns are
    omitted, empty elements of text type map to empty strings).
    @raise Failure on values that do not parse as the column type. *)

val column_reader :
  Relational.Table.t -> string -> Node.t -> Relational.Value.t option
(** [column_reader tbl col] reads column [col] of a row element as
    {!xml_to_pairs} would: [Some v] for the column's child, [None] when
    there is none. An unbuilt row element of [tbl] (named after it) is
    read from its cell, without building its children or parsing its
    other columns; any other node goes through {!xml_to_pairs}. Apply it
    once per column and read many rows with the result.
    @raise Invalid_argument if [tbl] has no column [col]. *)

val xml_to_row : Relational.Table.t -> Node.t -> Relational.Table.row
(** Like {!xml_to_pairs} but positional, with [Null] for absent
    columns. *)

val pk_pred_of_xml : Relational.Table.t -> Node.t -> Relational.Pred.t
(** Primary-key equality predicate from a row element.
    @raise Failure if a key column is missing. *)

val shape_of_table : Relational.Table.t -> Schema.element_decl
(** The XML Schema element declaration describing the row shape. *)

val simple_type_of_col : Relational.Value.col_type -> Qname.t
