open Xdm

type method_kind =
  | Read_function
  | Navigation_function of string
  | Create_procedure
  | Update_procedure
  | Delete_procedure
  | Library_function
  | Library_procedure

let kind_to_string = function
  | Read_function -> "read"
  | Navigation_function target -> "navigation -> " ^ target
  | Create_procedure -> "create"
  | Update_procedure -> "update"
  | Delete_procedure -> "delete"
  | Library_function -> "library function"
  | Library_procedure -> "library procedure"

type ds_method = {
  m_name : Qname.t;
  m_kind : method_kind;
  m_arity : int;
  m_doc : string;
}

type origin =
  | Physical_relational of { db : string; table : string }
  | Physical_webservice of { service : string }
  | Logical

type kind = Entity of { shape : Schema.element_decl } | Library

type t = {
  ds_name : string;
  ds_namespace : string;
  ds_kind : kind;
  ds_origin : origin;
  mutable ds_methods : ds_method list;
  mutable ds_primary_read : Qname.t option;
  mutable ds_dependencies : string list;
}

let make ~name ~namespace ~kind ~origin =
  {
    ds_name = name;
    ds_namespace = namespace;
    ds_kind = kind;
    ds_origin = origin;
    ds_methods = [];
    ds_primary_read = None;
    ds_dependencies = [];
  }

let add_method t m =
  t.ds_methods <- t.ds_methods @ [ m ];
  (* the first read function becomes the primary read by default
     (paper section II.C) *)
  match (m.m_kind, t.ds_primary_read) with
  | Read_function, None -> t.ds_primary_read <- Some m.m_name
  | _ -> ()

let shape t =
  match t.ds_kind with Entity { shape } -> Some shape | Library -> None

let describe t =
  let buf = Buffer.create 256 in
  let origin =
    match t.ds_origin with
    | Physical_relational { db; table } ->
      Printf.sprintf "physical (relational %s.%s)" db table
    | Physical_webservice { service } ->
      Printf.sprintf "physical (web service %s)" service
    | Logical -> "logical"
  in
  Printf.bprintf buf "data service %s  [%s, %s]\n" t.ds_name
    (match t.ds_kind with Entity _ -> "entity" | Library -> "library")
    origin;
  Printf.bprintf buf "  namespace: %s\n" t.ds_namespace;
  (match t.ds_kind with
  | Entity { shape } ->
    Printf.bprintf buf "  shape: element %s\n"
      (Qname.to_string shape.Schema.name)
  | Library -> ());
  (match t.ds_primary_read with
  | Some q -> Printf.bprintf buf "  primary read: %s\n" (Qname.to_string q)
  | None -> ());
  Printf.bprintf buf "  methods:\n";
  List.iter
    (fun m ->
      Printf.bprintf buf "    %-12s %s/%d  (%s)\n"
        (kind_to_string m.m_kind)
        (Qname.to_string m.m_name) m.m_arity m.m_doc)
    t.ds_methods;
  if t.ds_dependencies <> [] then
    Printf.bprintf buf "  depends on: %s\n"
      (String.concat ", " t.ds_dependencies);
  Buffer.contents buf
