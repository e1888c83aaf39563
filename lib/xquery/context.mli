(** Static and dynamic evaluation contexts and the function registry.

    The registry is shared between the XQuery engine and the XQSE
    interpreter: XQSE readonly procedures are registered here as
    functions, and data-service methods are registered as external
    functions by the ALDSP layer. *)

open Xdm

module Qmap : Map.S with type key = Qname.t

(** {1 Static context} *)

type static = {
  mutable namespaces : (string * string) list;  (** prefix → URI *)
  mutable default_elem_ns : string;
  mutable default_fun_ns : string;
}

val default_static : unit -> static
(** Fresh static context with the [xs], [fn], [err], [local] and [xml]
    prefixes predeclared and [fn] as the default function namespace. *)

val declare_ns : static -> string -> string -> unit
val lookup_ns : static -> string -> string option

val resolve_qname : static -> element:bool -> string option * string -> Qname.t
(** Resolve a lexical QName. Unprefixed names use the default element
    namespace when [element] is [true] and no namespace otherwise.
    @raise Xdm.Item.Error [err:XPST0081] on an undeclared prefix. *)

val resolve_fname : static -> string option * string -> Qname.t
(** Resolve a function name (unprefixed names use the default function
    namespace). *)

(** {1 Functions} *)

type dynamic

type func_impl =
  | Builtin of (dynamic -> Item.seq list -> Item.seq)
  | User of Ast.function_decl
  | External of (Item.seq list -> Item.seq)
      (** may have side effects; used for data-service calls *)
  | External_cursor of (Item.seq list -> Item.t Cursor.t)
      (** pull-based external: the result surfaces as a cursor so
          streaming consumers can stop early; eager callers drain it *)

type func = {
  fn_name : Qname.t;
  fn_arity : int;
  fn_params : Seqtype.t option list;
  fn_return : Seqtype.t option;
  fn_impl : func_impl;
  fn_purity : (bool * bool * bool) option;
      (** (effects, fallible, constructs) verdict supplied at
          registration for externals analyzed elsewhere (XQSE read-only
          procedure bodies); [None] = unknown, treated as impure *)
  fn_keyed : keyed_read option;
      (** set on relational table reads (arity 0): the read can also
          select its rows by a text column, so the compiled filter
          [T()[COL eq K]] runs as a keyed read (DESIGN.md §13) *)
}

and keyed_read = {
  kr_columns : string list;
      (** the columns a keyed read may select on: the table's text
          columns, whose row elements compare as strings *)
  kr_open : unit -> table_read;
      (** the read's one guarded source call — the same open the plain
          scan makes, degradation and brownout included *)
}

and table_read = {
  tr_empty : bool;  (** the opened version holds no rows *)
  tr_rows : (string * string) option -> Item.t Cursor.t;
      (** [tr_rows None] is every row of the opened version, [tr_rows
          (Some (col, key))] the rows whose text column [col] holds
          exactly [key], in the same order *)
  tr_release : unit -> unit;  (** close the read without reading it *)
}
(** An opened table read, pinned to one version: consume it with
    exactly one call of [tr_rows] or [tr_release]. *)

type registry

val create_registry : unit -> registry

val copy_registry : registry -> registry
(** Shallow copy: further registrations do not affect the original. *)

val copy_static : static -> static
(** A copy whose namespace declarations do not affect the original. *)

val register : registry -> func -> unit
(** @raise Xdm.Item.Error [err:XQST0034] on duplicate name/arity. *)

val register_user : registry -> Ast.function_decl -> unit
(** Register a [declare function] declaration.
    @raise Xdm.Item.Error [err:XQST0034] on duplicate name/arity. *)

val unregister : registry -> Qname.t -> int -> unit
(** Remove the function of that name/arity if present (no-op otherwise) —
    for re-homing a registration whose closure must capture a different
    runtime (see [Xqse.Interp.fork_runtime]). *)

val register_builtin :
  registry ->
  Qname.t ->
  int ->
  (dynamic -> Item.seq list -> Item.seq) ->
  unit

val register_external :
  registry ->
  ?purity:bool * bool * bool ->
  ?params:Seqtype.t option list ->
  ?return:Seqtype.t ->
  Qname.t ->
  int ->
  (Item.seq list -> Item.seq) ->
  unit

val register_external_cursor :
  registry ->
  ?purity:bool * bool * bool ->
  ?keyed:keyed_read ->
  ?params:Seqtype.t option list ->
  ?return:Seqtype.t ->
  Qname.t ->
  int ->
  (Item.seq list -> Item.t Cursor.t) ->
  unit

val find : registry -> Qname.t -> int -> func option
val fold : registry -> init:'a -> f:('a -> func -> 'a) -> 'a

val set_globals : registry -> Item.seq Qmap.t -> unit
(** Install the module-level variable bindings that user-defined function
    bodies observe. *)

val globals : registry -> Item.seq Qmap.t

(** {1 Dynamic context} *)

type dynamic_fields = {
  registry : registry;
  vars : Item.seq Qmap.t;
  ctx_item : Item.t option;
  ctx_pos : int;
  ctx_size : int;
  pul : Update.t ref;  (** accumulates updating-expression primitives *)
  updating_ok : bool;  (** whether updating expressions are allowed *)
  docs : (string, Node.t) Hashtbl.t;  (** fn:doc registry *)
  collections : (string, Node.t list) Hashtbl.t;  (** fn:collection *)
  trace : string -> unit;
  depth : int;  (** recursion guard *)
  instr : Instr.t;  (** streaming/materialization counters *)
  cache : Cache.bound option;
      (** result-cache view bound to the session's config fingerprint;
          [None] disables caching *)
}

val fields : dynamic -> dynamic_fields

val make_dynamic :
  ?trace:(string -> unit) ->
  ?instr:Instr.t ->
  ?cache:Cache.bound ->
  registry ->
  dynamic

val with_vars : dynamic -> Item.seq Qmap.t -> dynamic
val bind : dynamic -> Qname.t -> Item.seq -> dynamic
val bind_many : dynamic -> (Qname.t * Item.seq) list -> dynamic
val lookup_var : dynamic -> Qname.t -> Item.seq option
val with_focus : dynamic -> Item.t -> pos:int -> size:int -> dynamic
val no_focus : dynamic -> dynamic
val with_updating : dynamic -> bool -> dynamic
val deeper : dynamic -> dynamic
(** @raise Xdm.Item.Error when recursion exceeds the engine limit. *)

val register_doc : dynamic -> string -> Node.t -> unit
val register_collection : dynamic -> string -> Node.t list -> unit
(** The empty URI names the default collection. *)
