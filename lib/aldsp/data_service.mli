(** The data-service model (paper section II.A): entity data services
    (service-enabled business objects with a shape and read / write /
    navigation methods) and library data services (functions and
    procedures only). *)

open Xdm

type method_kind =
  | Read_function  (** fetches instances of the service's objects *)
  | Navigation_function of string
      (** traverses to instances of the named related data service *)
  | Create_procedure
  | Update_procedure
  | Delete_procedure
  | Library_function
  | Library_procedure

val kind_to_string : method_kind -> string

type ds_method = {
  m_name : Qname.t;
  m_kind : method_kind;
  m_arity : int;
  m_doc : string;
}

type origin =
  | Physical_relational of { db : string; table : string }
  | Physical_webservice of { service : string }
  | Logical  (** composed from other data services via XQuery/XQSE *)

type kind =
  | Entity of { shape : Schema.element_decl }
  | Library

type t = {
  ds_name : string;
  ds_namespace : string;  (** the namespace its methods live in *)
  ds_kind : kind;
  ds_origin : origin;
  mutable ds_methods : ds_method list;
  mutable ds_primary_read : Qname.t option;
      (** the read function whose lineage drives update decomposition *)
  mutable ds_dependencies : string list;
      (** names of data services this one was composed from *)
}

val make :
  name:string ->
  namespace:string ->
  kind:kind ->
  origin:origin ->
  t

val add_method : t -> ds_method -> unit
val shape : t -> Schema.element_decl option

val describe : t -> string
(** A textual "design view" of the service — name, shape root, methods by
    category, dependencies — standing in for Figure 1. *)
