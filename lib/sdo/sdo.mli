(** Service Data Objects: disconnected datagraphs with change summaries.

    Reproduces the ALDSP SDO programming model of Figure 4: a client
    reads data-service objects into a datagraph, mutates them offline
    (every mutation records the previous value in the change summary),
    and submits the datagraph back; the server decomposes the change
    summary into source updates.

    Wire format (after Figure 4):
    {[
      <sdo:datagraph xmlns:sdo="commonj.sdo">
        <changeSummary>
          <cus:CustomerProfile sdo:ref="#/sdo:datagraph/cus:CustomerProfile[1]">
            <LAST_NAME>Carrey</LAST_NAME>      <!-- OLD value -->
          </cus:CustomerProfile>
          <sdo:deleted sdo:ref="#/sdo:datagraph/cus:CustomerProfile[2]">
            ...full old object...
          </sdo:deleted>
          <sdo:created sdo:ref="#/sdo:datagraph/cus:CustomerProfile[3]"/>
        </changeSummary>
        <cus:CustomerProfile>...current object 1...</cus:CustomerProfile>
        <cus:CustomerProfile>...current object 3 (new)...</cus:CustomerProfile>
      </sdo:datagraph>
    ]} *)

open Xdm

val sdo_ns : string
(** ["commonj.sdo"] *)

type path = (string * int) list
(** Steps of (child element local name, 1-based occurrence index among
    same-named siblings), e.g. [[("Orders",1);("ORDER",2);("STATUS",1)]]. *)

val path_of_string : string -> path
(** Parse ["Orders/ORDER[2]/STATUS"]; a missing index means [1]. *)

val path_to_string : path -> string

type leaf_change = { leaf_path : path; old_value : string }

type element_delete = { deleted_path : path; deleted_old : Node.t }
(** A nested element (e.g. one CREDIT_CARD) removed from an object. *)

type element_insert = { inserted_parent : path; inserted_node : Node.t }

type object_change = {
  mutable leaves : leaf_change list;
  mutable element_deletes : element_delete list;
  mutable element_inserts : element_insert list;
}

type change =
  | Modified of int * object_change  (** root index (1-based) *)
  | Created of int  (** root index of a newly added object *)
  | Deleted of int * Node.t  (** original root index, full old object *)

type t
(** A datagraph. *)

val create : Node.t list -> t
(** Wrap data-service results (the nodes are deep-copied: the client's
    graph is disconnected from server data). *)

val roots : t -> Node.t list
(** Current (live) objects, in order. Deleted objects are not included. *)

val root : t -> int -> Node.t
(** Live object by original 1-based index.
    @raise Invalid_argument if deleted or out of range. *)

val changes : t -> change list
(** In first-touch order. *)

val is_dirty : t -> bool

(** {1 Client-side mutation API} *)

val get_leaf : t -> int -> path -> string
val set_leaf : t -> int -> path -> string -> unit
(** Change a leaf element's text; the first change of each leaf records
    its old value in the change summary. *)

val delete_element : t -> int -> path -> unit
(** Remove a nested element (records the full old element). *)

val insert_element : t -> int -> path -> Node.t -> unit
(** Append a new element under the parent path. *)

val add_object : t -> Node.t -> unit
(** Add a brand-new root object (recorded as a create). *)

val delete_object : t -> int -> unit
(** Delete a root object (recorded with its full old content). *)

(** {1 Wire format} *)

val serialize : t -> string
(** The wire form. The datagraph is left as it is: its objects are
    written where they stand, with no copy, no parent and no [sdo:idx]
    attribute of their own, even when serialization raises. *)

val parse : string -> t
(** Round-trips {!serialize}. The objects, deleted objects and deleted
    elements are the parsed nodes themselves, detached from the parsed
    document rather than copied.
    Raises [Xdm.Item.Error] [err:FODC0006] on malformed XML and
    [Failure] on a malformed datagraph. *)
