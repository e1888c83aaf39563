(** A namespace-aware XML parser producing {!Node.t} trees.

    Supports elements, attributes, namespace declarations ([xmlns],
    [xmlns:p]), character data, the five predefined entities plus
    numeric character references, CDATA sections, comments, processing
    instructions, and skips the XML declaration and DOCTYPE. *)

exception Parse_error of { line : int; col : int; message : string }

val parse : string -> Node.t
(** Parse a complete document; returns a document node.
    @raise Parse_error on malformed input. *)

val parse_fragment : string -> Node.t list
(** Parse mixed content (possibly several top-level elements and text
    runs), read as an element's content is; returns the nodes without
    a document wrapper or parent. *)
