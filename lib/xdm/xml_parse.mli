(** A namespace-aware XML parser producing {!Node.t} trees.

    Supports elements, attributes, namespace declarations ([xmlns],
    [xmlns:p]), character data, the five predefined entities plus
    numeric character references, CDATA sections, comments, processing
    instructions, and skips the XML declaration and DOCTYPE. *)

val parse : string -> Node.t
(** Parse a complete document; returns a document node. Malformed input
    raises [Item.Error] [err:FODC0006] with the text
    ["line:col: message"]. *)

val parse_fragment : string -> Node.t list
(** Parse mixed content (possibly several top-level elements and text
    runs), read as an element's content is; returns the nodes without
    a document wrapper or parent. Raises as {!parse} does. *)
