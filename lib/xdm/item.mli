(** Items and sequences — the values XQuery expressions evaluate to —
    plus the dynamic-error exception shared by the whole stack. *)

type t = Atomic of Atomic.t | Node of Node.t

type seq = t list
(** A sequence of items. The empty list is the empty sequence; there are
    no nested sequences. *)

exception Error of { code : Qname.t; message : string; items : seq }
(** The XQuery dynamic/type error, carrying an [err:*] (or user) QName
    code, a message and the optional diagnostic items of [fn:error]. *)

val raise_error : ?items:seq -> Qname.t -> string -> 'a
(** Raise {!Error}. *)

val type_error : string -> 'a
(** Raise [err:XPTY0004]. *)

(** {1 Constructors} *)

val of_atom : Atomic.t -> seq
val of_node : Node.t -> seq
val str : string -> seq
val int : int -> seq
val bool : bool -> seq
val empty : seq

(** {1 Observers} *)

val string_value : t -> string
val atomize : seq -> Atomic.t list
(** XDM atomization: nodes become their typed values. *)

val effective_boolean_value : seq -> bool
(** The EBV rules: empty is false; a sequence starting with a node is
    true; singleton booleans/strings/numbers by their own rule.
    @raise Error [err:FORG0006] otherwise. *)

val one_atom : seq -> Atomic.t
(** Atomize and require exactly one atomic value.
    @raise Error [err:XPTY0004] otherwise. *)

val one_atom_opt : seq -> Atomic.t option
(** Atomize and require zero or one atomic value. *)

val one_node : seq -> Node.t
(** Require a single node item. @raise Error [err:XPTY0004] otherwise. *)

val nodes_only : seq -> Node.t list
(** Require all items to be nodes. @raise Error [err:XPTY0018]. *)

val string_of_item : t -> string
(** Like [fn:string] on one item. *)

val doc_sort : seq -> seq
(** Sort node items in document order and remove duplicates (by node
    identity). @raise Error [err:XPTY0018] if any item is atomic. The
    empty sequence, one node, and nodes already in strictly ascending
    document order come back as the same list, unsorted and
    unallocated. *)

val deep_equal : seq -> seq -> bool
(** [fn:deep-equal] over sequences. *)

val pp : Format.formatter -> t -> unit
val pp_seq : Format.formatter -> seq -> unit
