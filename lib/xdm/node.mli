(** Mutable XML node trees with node identity and document order.

    Nodes are mutable because the XQuery Update Facility subset and the
    SDO layer modify trees in place. Every node carries a unique id used
    for identity ([is]) and for stable ordering of nodes from different
    trees.

    A {e row element} ({!row}) is an element made from a source row. It
    keeps the row's cells and builds its column children only when
    something navigates into it; every accessor sees the element those
    children make. A {e view row} ({!view_row}) is a row element that
    projects another row's cells under names of its own, as a
    data-service view's row block does. *)

type t

type kind =
  | Document
  | Element
  | Attribute
  | Text
  | Comment
  | Processing_instruction

(** {1 Construction} *)

val document : t list -> t
val element : ?attrs:(Qname.t * string) list -> Qname.t -> t list -> t
val attribute : Qname.t -> string -> t
val text : string -> t
val comment : string -> t
val processing_instruction : string -> string -> t

type tag
(** An element name, boxed once: the elements made from one tag share
    its box, so making one allocates nothing for its name. *)

val tag : Qname.t -> tag

val element_of_tag : tag -> t list -> t
(** [element_of_tag (tag name) children] is [element name children]. *)

val row : Qname.t -> Qname.t array -> string array -> t
(** [row name columns cells] is a row element: it reads as
    [element name [element columns.(i) [text cells.(i)]; ...]], with
    the children built on first use. The two arrays hold one entry per
    present column, so a NULL column has neither. Built children are
    published with one compare-and-set, so domains that navigate a
    shared row at once all see the same children. [columns] and [cells]
    must not be mutated afterwards.
    @raise Invalid_argument if the arrays differ in length or two
    columns share a name. *)

type layout
(** A row layout: a row element's name and its columns' names, each
    boxed once. The rows made on one layout, and the children they
    build, share those boxes. *)

val layout : Qname.t -> Qname.t array -> layout
(** @raise Invalid_argument if two columns share a name: a row's
    columns are named apart, so each name reads one cell. *)

val row_of_layout : layout -> string array -> t
(** [row_of_layout (layout name columns) cells] is [row name columns
    cells], without boxing a name per row or per child.
    @raise Invalid_argument if [cells] does not hold one cell per column. *)

val row_layout : t -> layout
(** The layout a row element was made on: every row made on one layout
    and every copy of such a row shares it, so a column resolved against
    it once holds for all of them.
    @raise Invalid_argument if [n] is not a row element. *)

val layout_column : layout -> Qname.t -> int
(** The position of the named column in the layout, or [-1]. *)

val view_row : layout -> t -> int array -> t
(** [view_row l src columns] is a {e view row}: the element
    [<name>{<leaf_i>{fn:data($src/column_i)}</leaf_i>}...</name>] that
    a constructor projecting one row builds, where [l] is
    [layout name leaves] and [columns.(i)] is column_i's position in
    [src]'s layout, or [-1] when [src] has no such column. Leaf [i]
    reads [src]'s cell, and is an empty element ([<leaf_i/>], no child)
    when the column is absent; an empty leaf of a view row [src] gives
    a leaf with an empty text child, as [fn:data] of an empty element
    is [""]. Its children are built on first use, as {!row}'s; it
    shares [l] and never builds [src]. [src] must be an unbuilt row
    element.
    @raise Invalid_argument if [columns] does not hold one position per
    leaf or [src] is not a row element. *)

(** {1 Accessors} *)

val kind : t -> kind
(** A row element is an [Element]. *)

val id : t -> int
(** Creation id: unique across domains, increasing in creation order
    within a domain. A row element's children are created, and take
    their ids, when they are first built. *)

val name : t -> Qname.t option
(** Element/attribute name; PI target as a local QName; [None] otherwise. *)

val parent : t -> t option
val children : t -> t list
(** Child nodes of documents and elements (attributes excluded). Builds
    a row element's children. *)

val attributes : t -> t list
(** Attribute nodes of an element, in insertion order. *)

val attribute_value : t -> Qname.t -> string option
(** Value of the named attribute of an element. *)

val text_content : t -> string
(** Content of a text or comment node, PI data, attribute value.
    @raise Invalid_argument on documents and elements. *)

val string_value : t -> string
(** XDM string value: concatenated descendant text for documents and
    elements, the stored string otherwise. An element or document with
    no children, or with one text child, returns [""] or that child's
    string without building a new one; an unbuilt row element
    concatenates its cells without building its children. *)

val typed_value : t -> Atomic.t list
(** XDM typed value: [xs:untypedAtomic] of the string value for elements,
    documents, attributes and text; empty for comments and PIs. *)

val root : t -> t
(** Topmost ancestor (the node itself when parentless). *)

val unbuilt_row : t -> bool
(** A row element whose children have not been built yet. Its {!cell}s
    are then exactly what its children would read. *)

val cell : t -> Qname.t -> string option
(** [cell n q] is the string value of row element [n]'s child [q], read
    from its cell: the cell {!row} was given, [""] for a view row's
    empty leaf, or [None] when [n] has no such column (it is NULL). It
    reads the cells, never the children, so it is what the children
    read only while {!unbuilt_row} holds: a built row's children may
    have been changed since.
    @raise Invalid_argument if [n] is not a row element. *)

(** {2 An unbuilt row's children, read from its cells}

    What a writer needs to write an unbuilt row element without
    building it; each reads what child [i] would hold.
    @raise Invalid_argument if [n] is not a row element. *)

val row_width : t -> int
(** The number of children. *)

val row_column : t -> int -> Qname.t
(** Child [i]'s name. *)

val row_has_text : t -> int -> bool
(** Whether child [i] has a text child: false only for a view row's
    empty leaf. *)

val row_text : t -> int -> string
(** Child [i]'s text ([""] when it has none). *)

(** {1 Axes} *)

val descendants : t -> t list
(** Descendant nodes in document order, excluding self and attributes. *)

val descendant_or_self : t -> t list
val ancestors : t -> t list
(** Ancestors, nearest first. *)

val following_siblings : t -> t list
val preceding_siblings : t -> t list
(** Nearest first (reverse document order). *)

(** {1 Mutation} *)

val append_child : t -> t -> unit
(** [append_child parent child] detaches [child] from any previous parent
    and appends it. @raise Invalid_argument if [parent] cannot have
    children or [child] is an attribute. *)

val insert_children : t -> pos:[ `First | `Last ] -> t list -> unit
val insert_sibling : t -> pos:[ `Before | `After ] -> t list -> unit
val set_attribute : t -> Qname.t -> string -> unit
(** Sets or replaces an attribute of an element. *)

val remove_attribute : t -> Qname.t -> unit
val detach : t -> unit
(** Removes the node from its parent, if any. *)

val set_text : t -> string -> unit
(** Replaces the content of a text/comment/attribute node. *)

val rename : t -> Qname.t -> unit
(** Renames an element, attribute or PI. *)

val replace_children_with_text : t -> string -> unit
(** Used by XUF [replace value of]: drops an element's children and
    installs a single text node (or nothing for the empty string). *)

(** {1 Comparison and copying} *)

val is_same : t -> t -> bool
(** Node identity. *)

val doc_order : t -> t -> int
(** Document order; nodes from different trees are ordered by root id so
    the order is stable and total. Two children (or two attributes) of
    one parent are ordered by a scan of that parent's list, without
    building their paths from the root. *)

val deep_copy : t -> t
(** Structural copy with fresh node identities and no parent. The copy of
    an unbuilt row element is an unbuilt row element over the same
    cells; the original stays unbuilt. *)

val deep_equal : t -> t -> bool
(** [fn:deep-equal] node equality: same kind, name and, recursively,
    equal attributes (as a set) and children (comments and PIs are
    ignored inside elements). *)

val pp : Format.formatter -> t -> unit
(** Debug printer (name/kind only, not full serialization). *)
