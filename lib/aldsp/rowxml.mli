(** Row ↔ XML mapping: the natural "XML view" of relational rows that
    physical data services expose (paper section II.A).

    A row of table [T] maps to [<T><COL1>v</COL1>…</T>] with row and
    column elements in no namespace (so Figure-3-style unprefixed child
    steps work); NULL columns are omitted. *)

open Xdm

val row_to_xml : Relational.Table.t -> Relational.Table.row -> Node.t
(** [row_to_xml tbl] builds the table's row and column QNames once, at
    partial application: apply it once per table and map many rows with
    the result. *)

val xml_to_pairs :
  Relational.Table.t -> Node.t -> (string * Relational.Value.t) list
(** Read the column/value pairs present in a row element (ignoring child
    elements that are not columns of the table; absent columns are
    omitted, empty elements of text type map to empty strings).
    @raise Failure on values that do not parse as the column type. *)

val xml_to_row : Relational.Table.t -> Node.t -> Relational.Table.row
(** Like {!xml_to_pairs} but positional, with [Null] for absent
    columns. *)

val pk_pred_of_xml : Relational.Table.t -> Node.t -> Relational.Pred.t
(** Primary-key equality predicate from a row element.
    @raise Failure if a key column is missing. *)

val shape_of_table : Relational.Table.t -> Schema.element_decl
(** The XML Schema element declaration describing the row shape. *)

val simple_type_of_col : Relational.Value.col_type -> Qname.t
