open Xdm

module Qmap = Map.Make (struct
  type t = Qname.t

  let compare = Qname.compare
end)

type static = {
  mutable namespaces : (string * string) list;
  mutable default_elem_ns : string;
  mutable default_fun_ns : string;
}

let default_static () =
  {
    namespaces =
      [
        ("xs", Qname.xs_ns);
        ("fn", Qname.fn_ns);
        ("err", Qname.err_ns);
        ("local", Qname.local_default_ns);
        ("xml", Qname.xml_ns);
      ];
    default_elem_ns = "";
    default_fun_ns = Qname.fn_ns;
  }

let declare_ns st prefix uri =
  st.namespaces <- (prefix, uri) :: st.namespaces

let lookup_ns st prefix = List.assoc_opt prefix st.namespaces

let resolve_qname st ~element (prefix, local) =
  match prefix with
  | Some p -> (
    match lookup_ns st p with
    | Some uri -> Qname.make ~prefix:p ~uri local
    | None ->
      Item.raise_error (Qname.err "XPST0081")
        (Printf.sprintf "undeclared namespace prefix %S" p))
  | None ->
    if element && st.default_elem_ns <> "" then
      Qname.make ~uri:st.default_elem_ns local
    else Qname.local local

let resolve_fname st (prefix, local) =
  match prefix with
  | Some _ -> resolve_qname st ~element:false (prefix, local)
  | None -> Qname.make ~uri:st.default_fun_ns local

type dynamic = { f : dynamic_fields }

and func_impl =
  | Builtin of (dynamic -> Item.seq list -> Item.seq)
  | User of Ast.function_decl
  | External of (Item.seq list -> Item.seq)
  | External_cursor of (Item.seq list -> Item.t Cursor.t)

and func = {
  fn_name : Qname.t;
  fn_arity : int;
  fn_params : Seqtype.t option list;
  fn_return : Seqtype.t option;
  fn_impl : func_impl;
  fn_purity : (bool * bool * bool) option;
      (* (effects, fallible, constructs) supplied at registration for
         externals whose body was analyzed elsewhere (XQSE read-only
         procedures); [None] = unknown, treated as impure *)
  fn_keyed : keyed_read option;
}

and keyed_read = { kr_columns : string list; kr_open : unit -> table_read }

and table_read = {
  tr_empty : bool;
  tr_rows : (string * string) option -> Item.t Cursor.t;
  tr_release : unit -> unit;
}

and registry = {
  mutable table : func list Qmap.t;
  mutable globals : Item.seq Qmap.t;
      (* module-level variable bindings visible to user function bodies *)
}

and dynamic_fields = {
  registry : registry;
  vars : Item.seq Qmap.t;
  ctx_item : Item.t option;
  ctx_pos : int;
  ctx_size : int;
  pul : Update.t ref;
  updating_ok : bool;
  docs : (string, Node.t) Hashtbl.t;
  collections : (string, Node.t list) Hashtbl.t;
  trace : string -> unit;
  depth : int;
  instr : Instr.t;
  cache : Cache.bound option;
      (* result-cache view bound to the session's config fingerprint;
         [None] = caching disabled, calls run untouched *)
}

let create_registry () = { table = Qmap.empty; globals = Qmap.empty }
let copy_registry r = { table = r.table; globals = r.globals }

let copy_static st =
  {
    namespaces = st.namespaces;
    default_elem_ns = st.default_elem_ns;
    default_fun_ns = st.default_fun_ns;
  }
let set_globals r g = r.globals <- g
let globals r = r.globals

let find r name arity =
  match Qmap.find_opt name r.table with
  | None -> None
  | Some fs -> List.find_opt (fun f -> f.fn_arity = arity) fs

let unregister r name arity =
  r.table <-
    Qmap.update name
      (function
        | None -> None
        | Some fs -> (
          match List.filter (fun f -> f.fn_arity <> arity) fs with
          | [] -> None
          | fs -> Some fs))
      r.table

let register r f =
  (match find r f.fn_name f.fn_arity with
  | Some _ ->
    Item.raise_error (Qname.err "XQST0034")
      (Printf.sprintf "function %s/%d is already declared"
         (Qname.to_string f.fn_name) f.fn_arity)
  | None -> ());
  r.table <-
    Qmap.update f.fn_name
      (function None -> Some [ f ] | Some fs -> Some (f :: fs))
      r.table

let register_user r (decl : Ast.function_decl) =
  register r
    {
      fn_name = decl.Ast.fd_name;
      fn_arity = List.length decl.Ast.fd_params;
      fn_params = List.map snd decl.Ast.fd_params;
      fn_return = decl.Ast.fd_return;
      fn_impl = User decl;
      fn_purity = None;
      fn_keyed = None;
    }

let register_builtin r name arity impl =
  register r
    {
      fn_name = name;
      fn_arity = arity;
      fn_params = List.init arity (fun _ -> None);
      fn_return = None;
      fn_impl = Builtin impl;
      fn_purity = None;
      fn_keyed = None;
    }

let register_external r ?purity ?params ?return name arity impl =
  register r
    {
      fn_name = name;
      fn_arity = arity;
      fn_params =
        (match params with
        | Some ps -> ps
        | None -> List.init arity (fun _ -> None));
      fn_return = return;
      fn_impl = External impl;
      fn_purity = purity;
      fn_keyed = None;
    }

let register_external_cursor r ?purity ?keyed ?params ?return name arity
    impl =
  register r
    {
      fn_name = name;
      fn_arity = arity;
      fn_params =
        (match params with
        | Some ps -> ps
        | None -> List.init arity (fun _ -> None));
      fn_return = return;
      fn_impl = External_cursor impl;
      fn_purity = purity;
      fn_keyed = keyed;
    }

let fold r ~init ~f =
  Qmap.fold (fun _ fs acc -> List.fold_left f acc fs) r.table init

let fields d = d.f

let make_dynamic ?(trace = fun _ -> ()) ?(instr = Instr.disabled) ?cache
    registry =
  {
    f =
      {
        registry;
        vars = Qmap.empty;
        ctx_item = None;
        ctx_pos = 0;
        ctx_size = 0;
        pul = ref [];
        updating_ok = false;
        docs = Hashtbl.create 8;
        collections = Hashtbl.create 8;
        trace;
        depth = 0;
        instr;
        cache;
      };
  }

let with_vars d vars = { f = { d.f with vars } }
let bind d name v = { f = { d.f with vars = Qmap.add name v d.f.vars } }

let bind_many d bindings =
  List.fold_left (fun d (n, v) -> bind d n v) d bindings

let lookup_var d name = Qmap.find_opt name d.f.vars

let with_focus d item ~pos ~size =
  { f = { d.f with ctx_item = Some item; ctx_pos = pos; ctx_size = size } }

let no_focus d = { f = { d.f with ctx_item = None; ctx_pos = 0; ctx_size = 0 } }
let with_updating d b = { f = { d.f with updating_ok = b } }

let max_depth = 4096

let deeper d =
  if d.f.depth >= max_depth then
    Item.raise_error (Qname.err "XQDY0900")
      "maximum recursion depth exceeded"
  else { f = { d.f with depth = d.f.depth + 1 } }

let register_doc d uri node = Hashtbl.replace d.f.docs uri node

let register_collection d uri nodes =
  Hashtbl.replace d.f.collections uri nodes
