(** XML serialization of {!Node.t} trees.

    Namespace declarations are synthesized from the QNames in the tree:
    each element declares the prefixes its own name and attribute names
    need that are not already in scope. A no-namespace element under a
    default namespace undeclares it ([xmlns=""]), and an attribute in a
    namespace without a prefix of its own gets a synthesized one
    ([ns1], [ns2], ...).

    Output is written straight into one buffer: a value with nothing to
    escape is copied as it is, and no string is built per name or
    attribute. An unbuilt row element ({!Node.unbuilt_row}), a table
    row or a view row, is written from its name and cells, with the
    same declarations and indentation as the element its children make,
    and is left unbuilt: serializing builds no node. *)

val to_string : ?indent:bool -> Node.t -> string
(** Serialize one node. Documents serialize their children; attribute
    nodes serialize as [name="value"]. [indent] pretty-prints
    element-only content (default [false]). *)

val seq_to_string : ?indent:bool -> Item.seq -> string
(** Serialize a sequence per the XQuery serialization rules: adjacent
    atomic values are separated by single spaces, nodes serialized in
    place. *)

val escape_text : string -> string
(** Escape ampersand, less-than and greater-than for character data. *)

val escape_attr : string -> string
(** Escape ampersand, less-than, greater-than and double-quote for
    attribute values. *)

(** {1 Writers}

    A writer appends to one buffer. Besides whole nodes it writes
    elements of its own, so a caller can wrap existing nodes in
    elements without building those elements or re-parenting the nodes:
    the output is what {!to_string} gives for the tree the calls
    describe, declarations included. *)

type t

val create : unit -> t
(** An empty writer, without indentation. *)

val start_element : ?attr:Qname.t * string -> t -> Qname.t -> unit
(** Open an element with at most one attribute. It serializes as an
    empty element ([<name/>]) when it is closed before anything is
    written into it. *)

val end_element : t -> unit
(** Close the innermost open element.
    @raise Invalid_argument if none is open. *)

val text : t -> string -> unit
(** Character data, escaped; even [""] makes the enclosing element
    non-empty, as an empty text node child would. *)

val node : ?attr:Qname.t * string -> t -> Node.t -> unit
(** Serialize a node in the scope of the open elements. [attr] is
    written as the element's last attribute, or in place of the value of
    the attribute of its name when the element has one, as
    {!Node.set_attribute} on a copy would; the node itself is not
    changed.
    @raise Invalid_argument if [attr] is given and the node is not an
    element. *)

val contents : t -> string
(** Everything written so far. *)
