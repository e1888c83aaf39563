(** Mutable XML node trees with node identity and document order.

    Nodes are mutable because the XQuery Update Facility subset and the
    SDO layer modify trees in place. Every node carries a unique id used
    for identity ([is]) and for stable ordering of nodes from different
    trees. *)

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

(** {1 Accessors} *)

val kind : t -> kind
val id : t -> int
(** Creation id: unique across domains, increasing in creation order
    within a domain. *)

val name : t -> Qname.t option
(** Element/attribute name; PI target as a local QName; [None] otherwise. *)

val parent : t -> t option
val children : t -> t list
(** Child nodes of documents and elements (attributes excluded). *)

val attributes : t -> t list
(** Attribute nodes of an element, in insertion order. *)

val attribute_value : t -> Qname.t -> string option
(** Value of the named attribute of an element. *)

val text_content : t -> string
(** Content of a text or comment node, PI data, attribute value.
    @raise Invalid_argument on documents and elements. *)

val string_value : t -> string
(** XDM string value: concatenated descendant text for documents and
    elements, the stored string otherwise. *)

val typed_value : t -> Atomic.t list
(** XDM typed value: [xs:untypedAtomic] of the string value for elements,
    documents, attributes and text; empty for comments and PIs. *)

val root : t -> t
(** Topmost ancestor (the node itself when parentless). *)

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
    the order is stable and total. *)

val deep_copy : t -> t
(** Structural copy with fresh node identities and no parent. *)

val deep_equal : t -> t -> bool
(** [fn:deep-equal] node equality: same kind, name and, recursively,
    equal attributes (as a set) and children (comments and PIs are
    ignored inside elements). *)

val pp : Format.formatter -> t -> unit
(** Debug printer (name/kind only, not full serialization). *)
