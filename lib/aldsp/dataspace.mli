(** The dataspace: ALDSP's deployment unit. Owns the XQSE session,
    introspects physical sources into data services (paper section II.A),
    hosts logical data services, and serves the SDO read/submit cycle of
    Figure 4 (including lineage-driven update decomposition, optimistic
    concurrency, XA execution, and update overrides). *)

open Xdm

type t

val create :
  ?optimize:bool -> ?instr:Instr.t -> ?resilience:Resilience.Control.t ->
  unit -> t
(** [instr] (default {!Instr.disabled}) is shared with the XQSE session
    and propagated to every database and web service at registration:
    submits run in a [submit] span and report [sdo.submits],
    [sql.generated] (planned statements) and [sdo.statements] (executed
    ones); the sources report [sql.executed], [rows.scanned]/[.fetched]
    and [ws.calls]/[ws.faults].

    [resilience] (default: a fresh control with no plan and pass-through
    policies) governs every source call the dataspace makes; registered
    databases and web services are attached to it, putting them on its
    virtual clock and under its fault plan. *)

val session : t -> Xqse.Session.t

val instr : t -> Instr.t
(** The handle given to {!create}. *)

val resilience : t -> Resilience.Control.t
(** The resilience control guarding this dataspace's source calls: set
    per-source policies ({!Resilience.Control.set_policy}), mark sources
    degradable ({!Resilience.Control.set_degradable}), install a fault
    plan, or inspect breakers and the degradation report. Guard
    failures surface to queries as XQSE-catchable errors with stable
    codes: [err:RESX0001] (timeout), [err:RESX0002] (circuit open),
    [err:RESX0003] (retries exhausted), [err:RESX0004] (unhandled
    injected source fault on a read path). *)

val find_service : t -> string -> Data_service.t option
val database : t -> string -> Relational.Database.t
(** @raise Not_found for unknown databases. *)

val databases : t -> Relational.Database.t list
(** Every registered database, sorted by name (for the console's
    per-table MVCC report). *)

val describe : t -> string
(** Design-view dump of every service (Figures 1-2 stand-in). *)

(** {1 Source registration (introspection)} *)

val register_database : t -> Relational.Database.t -> Data_service.t list
(** Introspect a relational database: one entity data service per table
    (read function, create/update/delete procedures, and navigation
    functions for each foreign key, both directions). Functions live in
    namespace [ld:<db>/<TABLE>]; a prefix equal to the lowercased table
    name is pre-declared in the session. *)

val register_web_service : t -> Webservice.t -> Data_service.t
(** Introspect a web service (WSDL-style metadata): a library data
    service with one function per operation. Faults surface as XQuery
    errors with code [{service-ns}Fault] so XQSE try/catch can handle
    them. *)

(** {1 Logical services} *)

val create_entity_service :
  t ->
  name:string ->
  namespace:string ->
  shape:Schema.element_decl ->
  methods:(string * Data_service.method_kind) list ->
  ?primary_read:string ->
  ?dependencies:string list ->
  ?generate_cud:bool ->
  string ->
  Data_service.t
(** [create_entity_service ds ~name ~namespace ~shape ~methods source]
    deploys a logical entity data service whose methods are the XQuery
    functions / XQSE procedures declared in [source] (an XQSE library
    program). [methods] classifies declared method local names;
    [primary_read] defaults to the first [Read_function].

    When [generate_cud] is [true] (the default) and the primary read
    function's lineage is analyzable, [create<Shape>], [update<Shape>]
    and [delete<Shape>] procedures are generated automatically (paper
    section III.D.1): create inserts the object's rows into all mapped
    sources and returns [<Shape_KEY>] elements; update rewrites every
    mapped row field-wise by primary key; delete removes the object's
    rows, children first. A navigation function [get<Row>] is also
    generated per nested block, probing the {e current} source rows
    related to an instance (paper II.A). *)

val lineage_of : t -> Data_service.t -> (Lineage.block, string) result
(** The (cached) lineage of the service's primary read function. Logical
    services may compose over other logical services' read functions;
    lineage then composes through the inner service's lineage (cycles
    are rejected). *)

val explain : t -> Data_service.t -> meth:string -> (string, string) result
(** Optimizer report for one read method: pass counters plus the
    rewritten query printed back as XQuery. *)

val infer_shape : t -> Data_service.t -> (Xdm.Schema.element_decl, string) result
(** Reverse-engineer the service's XML shape from its primary read
    lineage (element names, simple types from the source columns,
    optionality from nullability, repetition for nested blocks). *)

val catalog_ns : string
(** Namespace of the built-in catalog: [catalog:services()] returns one
    [<Service>] element per data service (name, kind, origin, methods,
    dependencies) — the Figure 1 design view as queryable data. *)

val resil_ns : string
(** Namespace of the built-in resilience report: [resil:degradations()]
    returns one [<Degradation source code at>] element per degraded
    read, oldest first (prefix [resil] is pre-declared). *)

(** {1 Result cache}

    A lineage-invalidated cache for pure data-service reads
    ({!Cache}): calls to physical reads/navigations and to effect-free
    logical read methods are keyed on (function, arguments, session
    fingerprint) and served from materialized prior results; a
    committed submit evicts exactly the entries whose lineage touches
    the tables it wrote. Degraded reads are never admitted. *)

val enable_result_cache : ?cap:int -> t -> Cache.handle
(** Switch the result cache on (idempotent — returns the existing
    handle when already enabled) and install it into the dataspace's
    session, so subsequent reads are served through it and
    {!Xqse.Session.with_config} forks of the session share its store.
    [cap] (default 256) bounds the entry count. Enable after source and
    service registration: cacheability verdicts are memoized. *)

val result_cache : t -> Cache.handle option

val footprint_of : t -> Qname.t -> int -> Cache.footprint option
(** The admission verdict for calls to [(name, arity)]: [Some tables]
    when cacheable (pure read with known lineage), [None] otherwise.
    Exposed for the cache test suites and the differential oracle. *)

(** {1 Client API (Figure 4)} *)

val call : t -> Qname.t -> Item.seq list -> Item.seq
(** Invoke any data-service method by QName. *)

val get : t -> Data_service.t -> meth:string -> Item.seq list -> Sdo.t
(** Invoke a read method and wrap the resulting objects in a datagraph. *)

type submit_result = {
  sr_committed : bool;
  sr_statements : int;
  sr_sql : string list;  (** the decomposed statements, with databases *)
  sr_reason : string option;
}

val submit :
  t ->
  Data_service.t ->
  ?policy:Occ.policy ->
  ?validate:bool ->
  Sdo.t ->
  submit_result
(** Submit a changed datagraph back through the service: the graph is
    serialized and re-parsed (the Figure 4 wire round trip), the change
    summary decomposed against the primary read function's lineage, and
    the statements executed in one XA transaction. Default policy:
    {!Occ.Updated_values}. With [validate] (default off), every
    submitted object is first checked against the service shape.

    Submits are strict, never degraded: when a breaker is open for any
    source the service depends on (or any database the plan targets),
    the submit fails up front with [err:RESX0002] before a single
    statement runs.
    @raise Decompose.Not_updatable when a change cannot be mapped or
    validation fails. *)

(** {1 Update overrides} *)

type update_request = {
  ur_service : Data_service.t;
  ur_datagraph : Sdo.t;
  ur_policy : Occ.policy;
}

type override = t -> update_request -> default:(unit -> submit_result) -> submit_result
(** The ALDSP 2.5 "Java update override" analog: takes over update
    processing for a service, optionally delegating to the default
    decomposition. *)

val set_override : t -> Data_service.t -> override option -> unit

val set_xqse_override : t -> Data_service.t -> Qname.t -> unit
(** Install an XQSE procedure as the service's update override — the
    paper's central motivation: custom update handling written in XQSE
    instead of Java. On submit, the procedure is called with the
    submitted datagraph as one [sdo:datagraph] element and takes over
    update processing entirely; errors it raises propagate to the
    caller. *)
