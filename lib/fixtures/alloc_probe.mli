(** Minor words allocated by one request on the Figure 3 read path (and
    by a by-id read serialized as XML), by one navigation per customer
    row, by one Figure 4 cycle and by the
    cycle's wire round trip: the figures the experiment report's ALLOC
    section prints and the tier-1 allocation gate bounds.

    Each request runs on a {!Customer_profile} dataspace the way a pool
    worker runs it: a read compiles through the plan cache of a session
    fork and runs inside a snapshot of the three tables. The counted run
    follows {!warmups} runs of the same request, and is counted with
    [Gc.minor_words] on the calling domain. For a given build and OCaml
    version the counts are deterministic. Every minor collection stops
    all of OCaml 5's domains, so these words are what one request costs
    the whole server pool. *)

type t = {
  by_id : int;
      (** [profile:getProfileById] of {!by_id_customer}, at
          {!read_customers} customers *)
  by_id_serialized : int;
      (** that by-id read, then [Xml_serialize.seq_to_string] of its
          result: what a client that reads the profile as XML costs *)
  get_profile : int;
      (** [count(profile:getProfile())] at {!read_customers} customers *)
  nav : int;
      (** [count(for $c in customer:CUSTOMER() return
          customer:getORDERS($c))] at {!read_customers} customers: one
          navigation call per customer row *)
  cycle : int;
      (** one Figure 4 cycle on {!cycle_customer} at {!cycle_customers}
          customers with the result cache on: get the profile, change
          its LAST_NAME and its first card's BRAND, submit *)
  wire : int;
      (** [Sdo.serialize], then [Sdo.parse], of that cycle's changed
          datagraph: the wire round trip every submit makes *)
}

val read_customers : int
(** 20, as the profile-read benchmark workload. *)

val cycle_customers : int
(** 10, as the write-mix benchmark workload. *)

val by_id_customer : string
(** ["C7"]. *)

val cycle_customer : string
(** ["007"], the Figure 4 protagonist. *)

val warmups : int
(** 3 untimed runs before the counted one. *)

val measure : unit -> t
(** Build the two dataspaces and measure the six counts. *)
