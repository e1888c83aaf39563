open Xdm
module R = Relational

let log_src = Logs.Src.create "aldsp.dataspace" ~doc:"ALDSP dataspace events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type update_request = {
  ur_service : Data_service.t;
  ur_datagraph : Sdo.t;
  ur_policy : Occ.policy;
}

type submit_result = {
  sr_committed : bool;
  sr_statements : int;
  sr_sql : string list;
  sr_reason : string option;
}

type t = {
  sess : Xqse.Session.t;
  resil : Resilience.Control.t;
  mutable svcs : Data_service.t list;
  dbs : (string, R.Database.t) Hashtbl.t;
  source_fns : (string * string, Lineage.source_fn) Hashtbl.t;
      (* keyed by (uri, local) — prefixes are not significant *)
  lineage_cache : (string, (Lineage.block, string) result) Hashtbl.t;
  read_sources : (string, string) Hashtbl.t;  (* service -> raw XQSE source *)
  overrides : (string, override) Hashtbl.t;
  lineage_in_progress : (string, unit) Hashtbl.t;  (* cycle guard *)
  mutable ds_cache : Cache.handle option;
      (* the result cache for pure data-service reads; [None] = off *)
  cacheable_memo : (string * string * int, Cache.footprint option) Hashtbl.t;
      (* memoized cacheability/footprint per (uri, local, arity); reset
         when caching is (re-)enabled *)
}

and override =
  t -> update_request -> default:(unit -> submit_result) -> submit_result

let catalog_ns = "urn:aldsp:catalog"
let resil_ns = "urn:aldsp:resilience"

(* the dataspace catalog as queryable XML — the Figure 1 "design view"
   exposed to ad-hoc queries *)
let catalog_xml svcs =
  List.map
    (fun (svc : Data_service.t) ->
      let methods =
        List.map
          (fun (m : Data_service.ds_method) ->
            Node.element
              ~attrs:
                [
                  (Qname.local "kind", Data_service.kind_to_string m.Data_service.m_kind);
                  (Qname.local "name", m.Data_service.m_name.Qname.local);
                  (Qname.local "arity", string_of_int m.Data_service.m_arity);
                ]
              (Qname.local "Method")
              (if m.Data_service.m_doc = "" then []
               else [ Node.text m.Data_service.m_doc ]))
          svc.Data_service.ds_methods
      in
      let deps =
        List.map
          (fun d -> Node.element (Qname.local "DependsOn") [ Node.text d ])
          svc.Data_service.ds_dependencies
      in
      Item.Node
        (Node.element
           ~attrs:
             [
               (Qname.local "name", svc.Data_service.ds_name);
               ( Qname.local "kind",
                 match svc.Data_service.ds_kind with
                 | Data_service.Entity _ -> "entity"
                 | Data_service.Library -> "library" );
               ( Qname.local "origin",
                 match svc.Data_service.ds_origin with
                 | Data_service.Physical_relational _ -> "relational"
                 | Data_service.Physical_webservice _ -> "webservice"
                 | Data_service.Logical -> "logical" );
               (Qname.local "namespace", svc.Data_service.ds_namespace);
             ]
           (Qname.make ~uri:catalog_ns "Service")
           (methods @ deps)))
    svcs

let create ?(optimize = true) ?(instr = Instr.disabled) ?resilience () =
  let resil =
    match resilience with
    | Some r ->
      Resilience.Control.set_instr r instr;
      r
    | None -> Resilience.Control.create ~instr ()
  in
  let t =
    {
      sess =
        Xqse.Session.create
          ~config:{ Xqse.Session.default_config with optimize; instr }
          ();
      resil;
      svcs = [];
      dbs = Hashtbl.create 4;
      source_fns = Hashtbl.create 32;
      lineage_cache = Hashtbl.create 8;
      read_sources = Hashtbl.create 8;
      overrides = Hashtbl.create 4;
      lineage_in_progress = Hashtbl.create 4;
      ds_cache = None;
      cacheable_memo = Hashtbl.create 32;
    }
  in
  Xqse.Session.declare_namespace t.sess "catalog" catalog_ns;
  Xqse.Session.register_function t.sess
    (Qname.make ~uri:catalog_ns "services")
    0
    (fun _ -> catalog_xml t.svcs);
  (* the degradation report as queryable XML: which sources were served
     degraded, when (virtual ms), and why *)
  Xqse.Session.declare_namespace t.sess "resil" resil_ns;
  Xqse.Session.register_function t.sess
    (Qname.make ~uri:resil_ns "degradations")
    0
    (fun _ ->
      List.map
        (fun (d : Resilience.Control.degradation) ->
          Item.Node
            (Node.element
               ~attrs:
                 [
                   (Qname.local "source", d.Resilience.Control.dg_source);
                   (Qname.local "code", d.Resilience.Control.dg_code);
                   ( Qname.local "at",
                     Printf.sprintf "%.0f" d.Resilience.Control.dg_at );
                 ]
               (Qname.make ~uri:resil_ns "Degradation")
               [ Node.text d.Resilience.Control.dg_message ]))
        (Resilience.Control.degradations resil));
  (* every query entry (Session.run / call) pins an MVCC snapshot of
     all registered source tables, so a query's reads — including
     cross-table and cross-database joins — resolve against one
     consistent version cut regardless of concurrent submits. The table
     list is read at query start, so later register_database calls are
     covered. *)
  Xqse.Session.set_snapshot_scope t.sess
    (Some
       {
         Xqse.Session.scope =
           (fun f ->
             let tables =
               Hashtbl.fold
                 (fun _ db acc -> R.Database.tables db @ acc)
                 t.dbs []
             in
             R.Table.with_snapshot tables f);
       });
  t

let session t = t.sess
let instr t = Xqse.Session.instr t.sess

let databases t =
  List.sort
    (fun a b -> String.compare (R.Database.name a) (R.Database.name b))
    (Hashtbl.fold (fun _ db acc -> db :: acc) t.dbs [])
let resilience t = t.resil
let find_service t name = List.find_opt (fun s -> s.Data_service.ds_name = name) t.svcs
let database t name =
  match Hashtbl.find_opt t.dbs name with
  | Some db -> db
  | None -> raise Not_found

let describe t =
  String.concat "\n" (List.map Data_service.describe t.svcs)

let lookup_table t ~db ~table = R.Database.table (database t db) table

(* ------------------------------------------------------------------ *)
(* Result cache plumbing                                               *)
(* ------------------------------------------------------------------ *)

(* the verdict vouched for every source read registration: effect-free
   (a read mutates nothing observable), fallible (sources fail, chaos
   injects), constructing (each call builds fresh row/response XML) *)
let source_read_purity = (false, true, true)

(* every (db, table) pair a lineage block was derived from, nested
   blocks included — the invalidation footprint of a cached result *)
let rec block_tables (b : Lineage.block) acc =
  List.fold_left
    (fun acc (c : Lineage.child) -> block_tables c.Lineage.c_block acc)
    ((b.Lineage.b_db, b.Lineage.b_table) :: acc)
    b.Lineage.b_children

let lineage_tables blk = List.sort_uniq compare (block_tables blk [])

let invalidate_cache_tables t tables =
  match t.ds_cache with
  | Some h when tables <> [] ->
    ignore (Cache.invalidate h ~instr:(instr t) tables : int)
  | _ -> ()

let flush_cache t =
  match t.ds_cache with Some h -> Cache.flush h | None -> ()

(* the exact write set of a decomposition plan: the tables its
   statements touch, nothing more — so a submit decomposed onto ORDER
   leaves CUSTOMER-only cache entries alone *)
let plan_tables (plan : Decompose.plan) =
  List.sort_uniq compare
    (List.map
       (fun (s : Decompose.step) ->
         ( s.Decompose.step_db,
           match s.Decompose.step_dml with
           | R.Database.Insert { table; _ }
           | R.Database.Update { table; _ }
           | R.Database.Delete { table; _ } -> table ))
       plan)

(* wrap a write procedure so the tables it targets are evicted whatever
   happens: without a surrounding transaction a mid-list failure leaves
   the rows already written, so the eviction must not depend on a clean
   exit *)
let invalidating t tables impl args =
  Fun.protect ~finally:(fun () -> invalidate_cache_tables t tables)
    (fun () -> impl args)

(* ------------------------------------------------------------------ *)
(* The source-call boundary                                            *)
(* ------------------------------------------------------------------ *)

(* Every call into a registered source goes through [Control.guard]
   here, so policies (timeout, retry, breaker) apply uniformly; guard
   failures surface as XQSE-catchable errors with stable codes in the
   err: namespace. *)

let raise_resil_error ~source code message =
  Item.raise_error
    (Qname.err (Resilience.Control.code_name code))
    (Printf.sprintf "%s: %s" source message)

(* a statement-ish call (exec, ws invoke): native faults keep their
   legacy wrapping via [on_native] *)
let guarded t ~source ~on_native f =
  try Resilience.Control.guard t.resil ~source f with
  | Resilience.Control.Error { source; code; message } ->
    raise_resil_error ~source code message
  | e -> on_native e

(* Overload brownout: while the server's pressure signal is asserted,
   a degradable source degrades *proactively* — the call is skipped
   outright, saving its full service cost, and the degradation is noted
   exactly like a fault-driven degrade. The note moves the degradation
   epoch, so the PR 8 result cache refuses admission to anything
   evaluated under brownout (warm entries admitted before the brownout
   keep serving — they short-circuit above this boundary). *)
let browned_out t ~source =
  Resilience.Control.in_brownout t.resil
  && Resilience.Control.is_degradable t.resil ~source

let note_brownout t ~source =
  Log.info (fun m -> m "browned-out read of %s skipped" source);
  Resilience.Control.note_degraded t.resil ~source ~code:"BROWNOUT"
    ~message:"read degraded proactively under overload pressure"

(* degradable sources degrade to [empty ()] plus a degradation report
   instead of failing the read *)
let degrade_on_error t ~source ~empty call =
  if not (Resilience.Control.is_degradable t.resil ~source) then call ()
  else if browned_out t ~source then begin
    note_brownout t ~source;
    empty ()
  end
  else
    try call ()
    with Item.Error { code; message; _ } ->
      Log.info (fun m ->
          m "degraded read of %s: %s %s" source (Qname.to_string code) message);
      Resilience.Control.note_degraded t.resil ~source ~code:code.Qname.local
        ~message;
      empty ()

(* A query-path read: the guard and the degrade decision wrap the *open*
   — the read check plus cursor (or opened table read) construction —
   so exactly one guarded call happens per read invocation; row pulls
   then stream outside the guard (they cannot fail: the cursors below
   snapshot their rows at open). Leftover injected faults get their own
   stable code RESX0004 (source fault, no retry policy); a degraded
   read yields [empty ()]: the empty cursor, or a table read with no
   rows. *)
let guarded_read t ~source ~empty f =
  degrade_on_error t ~source ~empty (fun () ->
      try Resilience.Control.guard t.resil ~source f with
      | Resilience.Control.Error { source; code; message } ->
        raise_resil_error ~source code message
      | R.Database.Db_error msg -> Item.raise_error (Qname.err "RESX0004") msg)

(* ------------------------------------------------------------------ *)
(* Relational introspection                                            *)
(* ------------------------------------------------------------------ *)

let table_ns db_name table_name = Printf.sprintf "ld:%s/%s" db_name table_name

(* one row element per pull; the row-to-XML mapping is total, so the
   mapped cursor keeps the scan/select cursor's purity (rows are
   snapshotted at open) and streaming consumers may abandon it early *)
let rows_to_cursor tbl rows =
  Cursor.map ~total:true
    (fun row -> Item.Node (Rowxml.row_to_xml tbl row))
    rows

(* A table read opened by its guarded call: the version is pinned once,
   and the consumer then reads all of it or only the rows whose text
   column holds a key (the keyed read behind [T()[COL eq K]]). *)
let table_read tbl r =
  {
    Xquery.Context.tr_empty = R.Table.read_is_empty r;
    tr_rows =
      (function
      | None -> rows_to_cursor tbl (R.Table.read_scan r)
      | Some (col, key) ->
        rows_to_cursor tbl
          (R.Table.read_select r (R.Pred.eq col (R.Value.Text key))));
    tr_release = (fun () -> R.Table.close_read r);
  }

(* what a degraded or browned-out open yields: no rows *)
let no_rows () =
  {
    Xquery.Context.tr_empty = true;
    tr_rows = (fun _ -> Cursor.empty ());
    tr_release = ignore;
  }

let one_table_arg what args =
  match args with
  | [ seq ] -> Item.nodes_only seq
  | _ -> Item.type_error (what ^ ": expected one argument")

let elem_seqtype ?(occ = Seqtype.Star) name =
  Seqtype.Typed (Seqtype.Element_type (Some (Qname.local name)), occ)

let register_database t db =
  let db_name = R.Database.name db in
  if Hashtbl.mem t.dbs db_name then
    invalid_arg (Printf.sprintf "database %s is already registered" db_name);
  R.Database.set_instr db (instr t);
  Resilience.Control.attach t.resil (R.Database.faults db);
  Hashtbl.replace t.dbs db_name db;
  let new_services =
    List.map
      (fun tbl ->
        let schema = R.Table.schema tbl in
        let tname = schema.R.Table.tbl_name in
        let ns = table_ns db_name tname in
        Xqse.Session.declare_namespace t.sess (String.lowercase_ascii tname) ns;
        let svc =
          Data_service.make ~name:(db_name ^ "/" ^ tname) ~namespace:ns
            ~kind:(Data_service.Entity { shape = Rowxml.shape_of_table tbl })
            ~origin:(Data_service.Physical_relational { db = db_name; table = tname })
        in
        let fn local = Qname.make ~uri:ns local in
        (* --- read function:  t:TABLE() as element(TABLE)* --- *)
        let read_name = fn tname in
        let open_read () =
          guarded_read t ~source:db_name ~empty:no_rows (fun () ->
              R.Database.read_check db;
              table_read tbl (R.Table.open_read tbl))
        in
        let text_columns =
          List.filter_map
            (fun (c : R.Table.column) ->
              if c.R.Table.col_type = R.Value.T_text then Some c.R.Table.col_name
              else None)
            schema.R.Table.columns
        in
        Xqse.Session.register_function_cursor t.sess read_name 0
          ~purity:source_read_purity
          ~keyed:
            { Xquery.Context.kr_columns = text_columns; kr_open = open_read }
          (fun _ -> (open_read ()).Xquery.Context.tr_rows None);
        Hashtbl.replace t.source_fns (read_name.Qname.uri, read_name.Qname.local)
          (Lineage.Read_fn { db = db_name; table = tname });
        Data_service.add_method svc
          {
            Data_service.m_name = read_name;
            m_kind = Data_service.Read_function;
            m_arity = 0;
            m_doc = Printf.sprintf "all rows of %s.%s" db_name tname;
          };
        (* --- create procedure --- *)
        let create_name = fn ("create" ^ tname) in
        Xqse.Session.register_procedure t.sess create_name 1
          ~params:[ (Qname.local "rows", Some (elem_seqtype tname)) ]
          ~return:(elem_seqtype (tname ^ "_KEY"))
          (invalidating t [ (db_name, tname) ] (fun args ->
            let rows = one_table_arg ("create" ^ tname) args in
            List.map
              (fun node ->
                let pairs = Rowxml.xml_to_pairs tbl node in
                let pairs =
                  List.filter (fun (_, v) -> v <> R.Value.Null) pairs
                in
                ignore
                  (guarded t ~source:db_name
                     ~on_native:(function
                       | R.Database.Db_error msg ->
                         Item.raise_error (Qname.make ~uri:ns "CreateError") msg
                       | e -> raise e)
                     (fun () ->
                       R.Database.exec db
                         (R.Database.Insert
                            {
                              table = tname;
                              columns = List.map fst pairs;
                              values = List.map snd pairs;
                            })));
                let key_el =
                  Node.element
                    (Qname.local (tname ^ "_KEY"))
                    (List.map
                       (fun k ->
                         Node.element (Qname.local k)
                           [
                             Node.text
                               (match List.assoc_opt k pairs with
                               | Some v -> R.Value.to_string v
                               | None -> "");
                           ])
                       schema.R.Table.primary_key)
                in
                Item.Node key_el)
              rows));
        Data_service.add_method svc
          {
            Data_service.m_name = create_name;
            m_kind = Data_service.Create_procedure;
            m_arity = 1;
            m_doc = "insert rows";
          };
        (* --- update procedure --- *)
        let update_name = fn ("update" ^ tname) in
        Xqse.Session.register_procedure t.sess update_name 1
          ~params:[ (Qname.local "rows", Some (elem_seqtype tname)) ]
          (invalidating t [ (db_name, tname) ] (fun args ->
            let rows = one_table_arg ("update" ^ tname) args in
            List.iter
              (fun node ->
                let pairs = Rowxml.xml_to_pairs tbl node in
                let where =
                  try Rowxml.pk_pred_of_xml tbl node
                  with Failure msg ->
                    Item.raise_error (Qname.make ~uri:ns "UpdateError") msg
                in
                let set =
                  List.filter
                    (fun (c, _) -> not (List.mem c schema.R.Table.primary_key))
                    pairs
                in
                ignore
                  (guarded t ~source:db_name
                     ~on_native:(function
                       | R.Database.Db_error msg ->
                         Item.raise_error (Qname.make ~uri:ns "UpdateError") msg
                       | e -> raise e)
                     (fun () ->
                       R.Database.exec db
                         (R.Database.Update { table = tname; set; where }))))
              rows;
            []));
        Data_service.add_method svc
          {
            Data_service.m_name = update_name;
            m_kind = Data_service.Update_procedure;
            m_arity = 1;
            m_doc = "update rows by primary key";
          };
        (* --- delete procedure --- *)
        let delete_name = fn ("delete" ^ tname) in
        Xqse.Session.register_procedure t.sess delete_name 1
          ~params:[ (Qname.local "rows", Some (elem_seqtype tname)) ]
          (invalidating t [ (db_name, tname) ] (fun args ->
            let rows = one_table_arg ("delete" ^ tname) args in
            List.iter
              (fun node ->
                let where =
                  try Rowxml.pk_pred_of_xml tbl node
                  with Failure msg ->
                    Item.raise_error (Qname.make ~uri:ns "DeleteError") msg
                in
                ignore
                  (guarded t ~source:db_name
                     ~on_native:(function
                       | R.Database.Db_error msg ->
                         Item.raise_error (Qname.make ~uri:ns "DeleteError") msg
                       | e -> raise e)
                     (fun () ->
                       R.Database.exec db
                         (R.Database.Delete { table = tname; where }))))
              rows;
            []));
        Data_service.add_method svc
          {
            Data_service.m_name = delete_name;
            m_kind = Data_service.Delete_procedure;
            m_arity = 1;
            m_doc = "delete rows by primary key";
          };
        svc)
      (R.Database.tables db)
  in
  (* navigation functions from foreign keys (both directions) *)
  List.iter
    (fun tbl ->
      let schema = R.Table.schema tbl in
      let child_name = schema.R.Table.tbl_name in
      List.iter
        (fun (fk : R.Table.foreign_key) ->
          let parent_name = fk.R.Table.fk_ref_table in
          let parent_tbl = R.Database.table db parent_name in
          (* navigation functions probe the child by its FK columns, so
             introspection builds a hash index over them *)
          R.Table.create_index tbl fk.R.Table.fk_columns;
          let parent_svc =
            List.find
              (fun s -> s.Data_service.ds_name = db_name ^ "/" ^ parent_name)
              new_services
          and child_svc =
            List.find
              (fun s -> s.Data_service.ds_name = db_name ^ "/" ^ child_name)
              new_services
          in
          (* parent -> children:  cus:getORDER($customer) *)
          let nav_name =
            Qname.make ~uri:(table_ns db_name parent_name) ("get" ^ child_name)
          in
          Xqse.Session.register_function_cursor t.sess nav_name 1
            ~purity:source_read_purity (fun args ->
              match args with
              | [ [ Item.Node parent_row ] ] ->
                let pred =
                  R.Pred.conj
                    (List.map2
                       (fun ccol pcol ->
                         let pairs = Rowxml.xml_to_pairs parent_tbl parent_row in
                         match List.assoc_opt pcol pairs with
                         | Some v -> R.Pred.eq ccol v
                         | None -> R.Pred.False)
                       fk.R.Table.fk_columns fk.R.Table.fk_ref_columns)
                in
                guarded_read t ~source:db_name ~empty:Cursor.empty (fun () ->
                    R.Database.read_check db;
                    rows_to_cursor tbl (R.Table.select_cursor tbl pred))
              | _ ->
                Item.type_error
                  (Printf.sprintf "%s expects one %s row"
                     (Qname.to_string nav_name) parent_name));
          Hashtbl.replace t.source_fns (nav_name.Qname.uri, nav_name.Qname.local)
            (Lineage.Nav_fn
               {
                 db = db_name;
                 table = child_name;
                 parent_table = parent_name;
                 link = List.combine fk.R.Table.fk_columns fk.R.Table.fk_ref_columns;
               });
          Data_service.add_method parent_svc
            {
              Data_service.m_name = nav_name;
              m_kind = Data_service.Navigation_function (db_name ^ "/" ^ child_name);
              m_arity = 1;
              m_doc =
                Printf.sprintf "rows of %s referencing this %s row" child_name
                  parent_name;
            };
          (* child -> parent:  ord:getCUSTOMER($order) *)
          let nav_back =
            Qname.make ~uri:(table_ns db_name child_name) ("get" ^ parent_name)
          in
          Xqse.Session.register_function_cursor t.sess nav_back 1
            ~purity:source_read_purity (fun args ->
              match args with
              | [ [ Item.Node child_row ] ] ->
                let pairs = Rowxml.xml_to_pairs tbl child_row in
                let pred =
                  R.Pred.conj
                    (List.map2
                       (fun ccol pcol ->
                         match List.assoc_opt ccol pairs with
                         | Some v -> R.Pred.eq pcol v
                         | None -> R.Pred.False)
                       fk.R.Table.fk_columns fk.R.Table.fk_ref_columns)
                in
                guarded_read t ~source:db_name ~empty:Cursor.empty (fun () ->
                    R.Database.read_check db;
                    rows_to_cursor parent_tbl (R.Table.select_cursor parent_tbl pred))
              | _ ->
                Item.type_error
                  (Printf.sprintf "%s expects one %s row"
                     (Qname.to_string nav_back) child_name));
          Hashtbl.replace t.source_fns (nav_back.Qname.uri, nav_back.Qname.local)
            (Lineage.Nav_fn
               {
                 db = db_name;
                 table = parent_name;
                 parent_table = child_name;
                 link = List.combine fk.R.Table.fk_ref_columns fk.R.Table.fk_columns;
               });
          Data_service.add_method child_svc
            {
              Data_service.m_name = nav_back;
              m_kind = Data_service.Navigation_function (db_name ^ "/" ^ parent_name);
              m_arity = 1;
              m_doc =
                Printf.sprintf "the %s row this %s row references" parent_name
                  child_name;
            })
        schema.R.Table.foreign_keys)
    (R.Database.tables db);
  t.svcs <- t.svcs @ new_services;
  new_services

(* ------------------------------------------------------------------ *)
(* Web-service introspection                                           *)
(* ------------------------------------------------------------------ *)

let register_web_service t ws =
  Webservice.set_instr ws (instr t);
  Resilience.Control.attach t.resil (Webservice.faults ws);
  let ns = Webservice.namespace ws in
  let ws_name = Webservice.name ws in
  let svc =
    Data_service.make ~name:ws_name ~namespace:ns
      ~kind:Data_service.Library
      ~origin:(Data_service.Physical_webservice { service = ws_name })
  in
  List.iter
    (fun (op : Webservice.operation) ->
      let fname = Qname.make ~uri:ns op.Webservice.op_name in
      Xqse.Session.register_function t.sess fname 1 ~purity:source_read_purity
        (fun args ->
          match args with
          | [ [ Item.Node request ] ] ->
            degrade_on_error t ~source:ws_name
              ~empty:(fun () -> [])
              (fun () ->
                guarded t ~source:ws_name
                  ~on_native:(function
                    | Webservice.Fault { service; operation; message } ->
                      Item.raise_error
                        (Qname.make ~uri:ns "Fault")
                        (Printf.sprintf "%s.%s: %s" service operation message)
                    | e -> raise e)
                  (fun () ->
                    [
                      Item.Node
                        (Webservice.invoke ws op.Webservice.op_name request);
                    ]))
          | _ ->
            Item.type_error
              (Printf.sprintf "%s expects one request element"
                 (Qname.to_string fname)));
      Data_service.add_method svc
        {
          Data_service.m_name = fname;
          m_kind = Data_service.Library_function;
          m_arity = 1;
          m_doc = op.Webservice.op_doc;
        })
    (Webservice.operations ws);
  t.svcs <- t.svcs @ [ svc ];
  svc

(* ------------------------------------------------------------------ *)
(* Logical services                                                    *)
(* ------------------------------------------------------------------ *)

let rec lineage_of t svc =
  let name = svc.Data_service.ds_name in
  match Hashtbl.find_opt t.lineage_cache name with
  | Some r -> r
  | None when Hashtbl.mem t.lineage_in_progress name ->
    Error "recursive data-service composition"
  | None ->
    Hashtbl.replace t.lineage_in_progress name ();
    let result =
      match svc.Data_service.ds_primary_read with
      | None -> Error "the data service has no primary read function"
      | Some read_fn -> (
        match svc.Data_service.ds_origin with
        | Data_service.Physical_relational { db; table } ->
          (* physical services are their own lineage *)
          let tbl = lookup_table t ~db ~table in
          let schema = R.Table.schema tbl in
          Ok
            {
              Lineage.b_row_elem = table;
              b_db = db;
              b_table = table;
              b_fields =
                List.map
                  (fun (c : R.Table.column) ->
                    {
                      Lineage.f_elem = c.R.Table.col_name;
                      f_column = c.R.Table.col_name;
                    })
                  schema.R.Table.columns;
              b_opaque = [];
              b_children = [];
              b_layout =
                List.map
                  (fun (c : R.Table.column) -> c.R.Table.col_name)
                  schema.R.Table.columns;
            }
        | Data_service.Physical_webservice _ ->
          Error "web-service data services are not updatable via lineage"
        | Data_service.Logical -> (
          match Hashtbl.find_opt t.read_sources name with
          | None -> Error "the service has no stored read source"
          | Some source -> (
            (* re-parse to get the un-optimized AST of the primary read *)
            let prog = Xqse.Session.parse t.sess source in
            match
              List.find_opt
                (fun (f : Xquery.Ast.function_decl) ->
                  Qname.equal f.Xquery.Ast.fd_name read_fn)
                prog.Xqse.Stmt.prog_functions
            with
            | None ->
              Error
                (Printf.sprintf "primary read function %s not found in source"
                   (Qname.to_string read_fn))
            | Some decl -> (
              match decl.Xquery.Ast.fd_body with
              | None -> Error "primary read function is external"
              | Some body ->
                Lineage.analyze ~resolve:(resolve_source_fn t name) body))))
    in
    Hashtbl.remove t.lineage_in_progress name;
    Hashtbl.replace t.lineage_cache name result;
    result

(* physical read/navigation functions, or the primary read function of
   another logical service (composition) *)
and resolve_source_fn t current_name (q : Qname.t) =
  match Hashtbl.find_opt t.source_fns (q.Qname.uri, q.Qname.local) with
  | Some sf -> Some sf
  | None -> (
    let owner =
      List.find_opt
        (fun s ->
          s.Data_service.ds_origin = Data_service.Logical
          && s.Data_service.ds_name <> current_name
          &&
          match s.Data_service.ds_primary_read with
          | Some pr -> Qname.equal pr q
          | None -> false)
        t.svcs
    in
    match owner with
    | Some inner -> (
      match lineage_of t inner with
      | Ok blk -> Some (Lineage.Logical_fn blk)
      | Error _ -> None)
    | None -> None)

(* ------------------------------------------------------------------ *)
(* Result-cache admission metadata                                     *)
(* ------------------------------------------------------------------ *)

(* Is a call to (name, arity) cacheable, and over which tables? The
   admission policy, in decreasing specificity:

   - physical reads and navigations (the [source_fns] table) are pure by
     construction and footprint exactly the table they scan;
   - a logical service's [Read_function] methods qualify when the purity
     analysis finds the function effect-free *and* the service's lineage
     is analyzable — the footprint is every table the lineage touches;
   - everything else (CUD procedures, library/web-service functions,
     catalog and resilience introspection, user helpers) is refused.

   Web-service operations are deliberately uncacheable on their own: a
   ws response has no table footprint, so nothing would ever evict it.
   They still appear *inside* cached logical reads — coherently, because
   the simulated services are deterministic and a degraded response
   blocks admission via the epoch guard. *)
let footprint_of t (q : Qname.t) arity =
  let key = (q.Qname.uri, q.Qname.local, arity) in
  match Hashtbl.find_opt t.cacheable_memo key with
  | Some r -> r
  | None ->
    let result =
      match Hashtbl.find_opt t.source_fns (q.Qname.uri, q.Qname.local) with
      | Some (Lineage.Read_fn { db; table }) -> Some [ (db, table) ]
      | Some (Lineage.Nav_fn { db; table; _ }) -> Some [ (db, table) ]
      | Some (Lineage.Logical_fn blk) -> Some (lineage_tables blk)
      | None -> (
        let owner =
          List.find_opt
            (fun (s : Data_service.t) ->
              s.Data_service.ds_namespace = q.Qname.uri
              && List.exists
                   (fun (m : Data_service.ds_method) ->
                     m.Data_service.m_name.Qname.local = q.Qname.local
                     && m.Data_service.m_kind = Data_service.Read_function)
                   s.Data_service.ds_methods)
            t.svcs
        in
        match owner with
        | None -> None
        | Some svc -> (
          match
            Xquery.Purity.lookup (Xqse.Session.purity_env t.sess) q arity
          with
          | Some v when not v.Xquery.Purity.effects -> (
            match lineage_of t svc with
            | Ok blk -> (
              match lineage_tables blk with [] -> None | fp -> Some fp)
            | Error _ -> None)
          | _ -> None))
    in
    Hashtbl.replace t.cacheable_memo key result;
    result

let enable_result_cache ?cap t =
  match t.ds_cache with
  | Some h -> h
  | None ->
    Hashtbl.reset t.cacheable_memo;
    let h =
      Cache.create ?cap
        {
          Cache.m_footprint = (fun q arity -> footprint_of t q arity);
          m_epoch = (fun () -> Resilience.Control.degradation_count t.resil);
          m_version =
            (fun (db, table) ->
              (* the caller's read view (ambient snapshot when pinned,
                 else published head, -1 for an uncommitted working
                 store): the cache keys entries by it, so a reader on
                 an older snapshot never shares an entry with one at
                 head — and admission re-reads it to notice a publish
                 that landed while the result was being computed *)
              match Hashtbl.find_opt t.dbs db with
              | None -> -1
              | Some d -> (
                match R.Database.table d table with
                | tbl -> R.Table.view_version tbl
                | exception _ -> -1));
        }
    in
    t.ds_cache <- Some h;
    Xqse.Session.set_result_cache t.sess (Some h);
    h

let result_cache t = t.ds_cache

let rec create_entity_service t ~name ~namespace ~shape ~methods ?primary_read
    ?(dependencies = []) ?(generate_cud = true) source =
  Xqse.Session.load_library t.sess source;
  let svc =
    Data_service.make ~name ~namespace
      ~kind:(Data_service.Entity { shape })
      ~origin:Data_service.Logical
  in
  List.iter
    (fun (local, kind) ->
      Data_service.add_method svc
        {
          Data_service.m_name = Qname.make ~uri:namespace local;
          m_kind = kind;
          m_arity = 0;
          m_doc = "";
        })
    methods;
  (match primary_read with
  | Some local ->
    svc.Data_service.ds_primary_read <- Some (Qname.make ~uri:namespace local)
  | None -> ());
  svc.Data_service.ds_dependencies <- dependencies;
  Hashtbl.replace t.read_sources name source;
  t.svcs <- t.svcs @ [ svc ];
  if generate_cud then generate_cud_methods t svc;
  svc

(* Auto-generate create/update/delete methods for a logical service
   whose primary read lineage is analyzable (paper III.D.1). Silently
   skipped when the lineage cannot be reverse-engineered. *)
and generate_cud_methods t svc =
  match lineage_of t svc with
  | Error _ -> ()
  | Ok lineage ->
    let ns = svc.Data_service.ds_namespace in
    let shape_local = lineage.Lineage.b_row_elem in
    let lookup = fun ~db ~table -> lookup_table t ~db ~table in
    let instance_arg what args =
      match args with
      | [ seq ] -> Item.nodes_only seq
      | _ -> Item.type_error (what ^ ": expected one argument")
    in
    let run_plan what plan =
      let outcome = Decompose.execute ~db_of:(fun n -> database t n) plan in
      if not outcome.Decompose.committed then
        Item.raise_error
          (Qname.make ~uri:ns (what ^ "Error"))
          (Option.value ~default:"update aborted" outcome.Decompose.reason)
      else invalidate_cache_tables t (plan_tables plan)
    in
    let key_elem node =
      (* <Shape_KEY> with the primary-key leaf elements of the root row *)
      let tbl = lookup ~db:lineage.Lineage.b_db ~table:lineage.Lineage.b_table in
      let pks = (R.Table.schema tbl).R.Table.primary_key in
      let leaves =
        List.filter_map
          (fun col ->
            List.find_opt
              (fun (f : Lineage.field) -> f.Lineage.f_column = col)
              lineage.Lineage.b_fields
            |> Option.map (fun (f : Lineage.field) ->
                   let v =
                     match
                       List.find_opt
                         (fun c ->
                           match Node.name c with
                           | Some q -> q.Qname.local = f.Lineage.f_elem
                           | None -> false)
                         (List.filter
                            (fun c -> Node.kind c = Node.Element)
                            (Node.children node))
                     with
                     | Some el -> Node.string_value el
                     | None -> ""
                   in
                   Node.element (Qname.local f.Lineage.f_elem) [ Node.text v ]))
          pks
      in
      Node.element (Qname.make ~uri:ns (shape_local ^ "_KEY")) leaves
    in
    let create_name = Qname.make ~uri:ns ("create" ^ shape_local) in
    Xqse.Session.register_procedure t.sess create_name 1 (fun args ->
        let objs = instance_arg ("create" ^ shape_local) args in
        List.map
          (fun node ->
            run_plan "Create"
              (Decompose.plan_create_object ~lookup_table:lookup ~lineage node);
            Item.Node (key_elem node))
          objs);
    Data_service.add_method svc
      {
        Data_service.m_name = create_name;
        m_kind = Data_service.Create_procedure;
        m_arity = 1;
        m_doc = "auto-generated from the primary read lineage";
      };
    let update_name = Qname.make ~uri:ns ("update" ^ shape_local) in
    Xqse.Session.register_procedure t.sess update_name 1 (fun args ->
        let objs = instance_arg ("update" ^ shape_local) args in
        List.iter
          (fun node ->
            run_plan "Update"
              (Decompose.plan_replace_object ~lookup_table:lookup ~lineage node))
          objs;
        []);
    Data_service.add_method svc
      {
        Data_service.m_name = update_name;
        m_kind = Data_service.Update_procedure;
        m_arity = 1;
        m_doc = "auto-generated from the primary read lineage";
      };
    let delete_name = Qname.make ~uri:ns ("delete" ^ shape_local) in
    Xqse.Session.register_procedure t.sess delete_name 1 (fun args ->
        let objs = instance_arg ("delete" ^ shape_local) args in
        List.iter
          (fun node ->
            run_plan "Delete"
              (Decompose.plan_delete_object ~lookup_table:lookup
                 ~policy:Occ.Updated_values ~lineage node))
          objs;
        []);
    Data_service.add_method svc
      {
        Data_service.m_name = delete_name;
        m_kind = Data_service.Delete_procedure;
        m_arity = 1;
        m_doc = "auto-generated from the primary read lineage";
      };
    (* navigation functions for each nested block: from one service
       instance to the *current* related source rows (paper II.A:
       "traversal from one instance object ... to one or more instances
       from a related data service") *)
    List.iter
      (fun (c : Lineage.child) ->
        let child_blk = c.Lineage.c_block in
        let nav_name =
          Qname.make ~uri:ns ("get" ^ child_blk.Lineage.b_row_elem)
        in
        let field_value obj elem =
          List.find_map
            (fun ch ->
              match Node.name ch with
              | Some q when q.Qname.local = elem && Node.kind ch = Node.Element
                -> Some (Node.string_value ch)
              | _ -> None)
            (Node.children obj)
        in
        Xqse.Session.register_function t.sess nav_name 1
          ~purity:source_read_purity (fun args ->
            match args with
            | [ [ Item.Node obj ] ] ->
              let tbl =
                lookup ~db:child_blk.Lineage.b_db
                  ~table:child_blk.Lineage.b_table
              in
              let cols = (R.Table.schema tbl).R.Table.columns in
              let pred =
                R.Pred.conj
                  (List.map
                     (fun (ccol, pcol) ->
                       (* the parent column value is read from the
                          instance through the root block's fields *)
                       let pelem =
                         match
                           List.find_opt
                             (fun (f : Lineage.field) ->
                               f.Lineage.f_column = pcol)
                             lineage.Lineage.b_fields
                         with
                         | Some f -> f.Lineage.f_elem
                         | None -> pcol
                       in
                       match field_value obj pelem with
                       | Some s -> (
                         match
                           List.find_opt
                             (fun (col : R.Table.column) ->
                               col.R.Table.col_name = ccol)
                             cols
                         with
                         | Some col ->
                           R.Pred.eq ccol
                             (R.Value.of_string col.R.Table.col_type s)
                         | None -> R.Pred.False)
                       | None -> R.Pred.False)
                     c.Lineage.c_link)
              in
              List.map
                (fun row -> Item.Node (Rowxml.row_to_xml tbl row))
                (R.Table.select tbl pred)
            | _ ->
              Item.type_error
                (Printf.sprintf "%s expects one %s instance"
                   (Qname.to_string nav_name) shape_local));
        Data_service.add_method svc
          {
            Data_service.m_name = nav_name;
            m_kind =
              Data_service.Navigation_function
                (child_blk.Lineage.b_db ^ "/" ^ child_blk.Lineage.b_table);
            m_arity = 1;
            m_doc = "auto-generated navigation to current source rows";
          })
      lineage.Lineage.b_children

(* ------------------------------------------------------------------ *)
(* Client API                                                          *)
(* ------------------------------------------------------------------ *)

let call t name args = Xqse.Session.call t.sess name args

let get t svc ~meth args =
  let name = Qname.make ~uri:svc.Data_service.ds_namespace meth in
  let result = call t name args in
  Sdo.create (Item.nodes_only result)

let set_override t svc o =
  match o with
  | Some f -> Hashtbl.replace t.overrides svc.Data_service.ds_name f
  | None -> Hashtbl.remove t.overrides svc.Data_service.ds_name

let default_submit t svc policy dg =
  Instr.span (instr t) "submit"
    ~attrs:[ ("service", svc.Data_service.ds_name) ]
  @@ fun () ->
  Instr.bump (instr t) Instr.K.sdo_submits;
  (* a submit whose request budget already died fails before planning,
     the wire round-trip, or any statement — cheap refusal, and the
     only deadline check a submit ever makes: once execution reaches
     XA prepare the commit path runs exempt (never kill a write
     mid-commit) *)
  (match Resilience.Deadline.current () with
  | Some d when Resilience.Deadline.expired d ->
    raise_resil_error ~source:svc.Data_service.ds_name
      Resilience.Control.Deadline_exceeded
      (Printf.sprintf "request budget of %.0fms exhausted before submit"
         (Resilience.Deadline.budget_ms d))
  | None | Some _ -> ());
  (* strict admission: a submit is never served degraded. If any source
     this service depends on has an open breaker, fail now — before any
     statement runs anywhere — with the stable code. *)
  let strict source =
    try Resilience.Control.check_strict t.resil ~source
    with Resilience.Control.Error { source; code; message } ->
      Log.info (fun m ->
          m "submit %s rejected strictly: %s %s" svc.Data_service.ds_name
            source message);
      raise_resil_error ~source code message
  in
  let dep_source d =
    match String.index_opt d '/' with
    | Some i -> String.sub d 0 i
    | None -> d
  in
  List.iter strict
    (List.sort_uniq compare
       (List.map dep_source svc.Data_service.ds_dependencies));
  (* wire round trip: client serializes, server parses (Figure 4) *)
  let dg = Sdo.parse (Sdo.serialize dg) in
  Log.debug (fun m ->
      m "submit %s: %d change(s), policy %s" svc.Data_service.ds_name
        (List.length (Sdo.changes dg))
        (Occ.to_string policy));
  match lineage_of t svc with
  | Error msg ->
    Log.warn (fun m ->
        m "submit %s rejected: no usable lineage (%s)"
          svc.Data_service.ds_name msg);
    raise (Decompose.Not_updatable ("no usable lineage: " ^ msg))
  | Ok lineage ->
    let plan =
      Decompose.plan
        ~lookup_table:(fun ~db ~table -> lookup_table t ~db ~table)
        ~policy ~lineage dg
    in
    (* ... and the databases the plan actually targets, which may be a
       subset or superset of the declared dependencies *)
    List.iter strict
      (List.sort_uniq compare
         (List.map (fun s -> s.Decompose.step_db) plan));
    let sql = Decompose.plan_to_strings plan in
    Instr.bump (instr t) ~n:(List.length sql) Instr.K.sql_generated;
    List.iter (fun stmt -> Log.debug (fun m -> m "plan: %s" stmt)) sql;
    let outcome = Decompose.execute ~db_of:(fun n -> database t n) plan in
    Instr.bump (instr t) ~n:outcome.Decompose.statements Instr.K.sdo_statements;
    (* evict after the commit, never before: a read racing the submit
       may cache the pre-image until the data actually changes, but once
       the commit lands the write set's entries must be gone *)
    if outcome.Decompose.committed then
      invalidate_cache_tables t (plan_tables plan);
    (match outcome.Decompose.reason with
    | Some reason when not outcome.Decompose.committed ->
      Log.info (fun m ->
          m "submit %s aborted: %s" svc.Data_service.ds_name reason)
    | _ ->
      Log.debug (fun m ->
          m "submit %s committed %d statement(s)" svc.Data_service.ds_name
            outcome.Decompose.statements));
    {
      sr_committed = outcome.Decompose.committed;
      sr_statements = outcome.Decompose.statements;
      sr_sql = sql;
      sr_reason = outcome.Decompose.reason;
    }

let validate_against_shape svc dg =
  match Data_service.shape svc with
  | None -> ()
  | Some decl ->
    let schema = Schema.make ~target_ns:svc.Data_service.ds_namespace [ decl ] in
    List.iter
      (fun root ->
        match Schema.validate schema root with
        | Ok () -> ()
        | Error violations ->
          raise
            (Decompose.Not_updatable
               (Printf.sprintf "submitted object violates the service shape: %s"
                  (String.concat "; "
                     (List.map
                        (fun v -> v.Schema.path ^ ": " ^ v.Schema.message)
                        violations)))))
      (Sdo.roots dg)

let submit t svc ?(policy = Occ.Updated_values) ?(validate = false) dg =
  if validate then validate_against_shape svc dg;
  match Hashtbl.find_opt t.overrides svc.Data_service.ds_name with
  | Some f ->
    let r =
      f t
        { ur_service = svc; ur_datagraph = dg; ur_policy = policy }
        ~default:(fun () -> default_submit t svc policy dg)
    in
    (* an override's write set is opaque — its writes through registered
       CUD procedures self-invalidate, but a custom closure may have
       touched anything: evict the service's whole lineage footprint,
       or drop everything when the lineage is unknown *)
    if r.sr_committed then begin
      match lineage_of t svc with
      | Ok blk -> invalidate_cache_tables t (lineage_tables blk)
      | Error _ -> flush_cache t
    end;
    r
  | None -> default_submit t svc policy dg

(* explain: per-method optimizer report — re-parse the service source,
   optimize the method body under the purity environment and callee
   bodies the library load used, report the pass counters and the
   rewritten query text *)
let explain t svc ~meth =
  match Hashtbl.find_opt t.read_sources svc.Data_service.ds_name with
  | None -> Error "the service has no stored read source"
  | Some source -> (
    let prog = Xqse.Session.parse t.sess source in
    match
      List.find_opt
        (fun (f : Xquery.Ast.function_decl) ->
          f.Xquery.Ast.fd_name.Qname.local = meth)
        prog.Xqse.Stmt.prog_functions
    with
    | None -> Error (Printf.sprintf "method %s not found in the source" meth)
    | Some decl -> (
      match decl.Xquery.Ast.fd_body with
      | None -> Error "the method is external"
      | Some body ->
        let env =
          Xquery.Purity.extend
            (Xqse.Session.purity_env t.sess)
            prog.Xqse.Stmt.prog_functions
        in
        let optimized, stats = Xquery.Optimizer.optimize_with_stats ~env body in
        Ok
          (Printf.sprintf
             "method %s: folded=%d inlined=%d joins=%d pushed=%d\n%s" meth
             stats.Xquery.Optimizer.folded stats.Xquery.Optimizer.inlined
             stats.Xquery.Optimizer.joins stats.Xquery.Optimizer.pushed
             (Xquery.Pretty.expr optimized))))

(* infer the service shape (its XML Schema element declaration) from the
   primary read lineage — "introspect and reverse-engineer" (III.D.1) *)
let infer_shape t svc =
  match lineage_of t svc with
  | Error m -> Error m
  | Ok lineage ->
    let col_type blk col =
      let tbl = lookup_table t ~db:blk.Lineage.b_db ~table:blk.Lineage.b_table in
      match
        List.find_opt
          (fun (c : R.Table.column) -> c.R.Table.col_name = col)
          (R.Table.schema tbl).R.Table.columns
      with
      | Some c ->
        (Rowxml.simple_type_of_col c.R.Table.col_type, c.R.Table.nullable)
      | None -> (Qname.xs "string", true)
    in
    let rec type_of_block blk =
      (* one particle per layout entry, preserving constructed order *)
      let particles =
        List.filter_map
          (fun name ->
            if name = "(anonymous)" then None
            else
              match Lineage.find_field blk name with
              | Some f ->
                let ty, nullable = col_type blk f.Lineage.f_column in
                Some
                  (Schema.particle
                     ~min:(if nullable then 0 else 1)
                     (Qname.local name) (Schema.simple ty))
              | None -> (
                match Lineage.find_child blk name with
                | Some c -> (
                  let rows =
                    Schema.particle ~min:0 ~max:None
                      (Qname.local c.Lineage.c_block.Lineage.b_row_elem)
                      (type_of_block c.Lineage.c_block)
                  in
                  match c.Lineage.c_wrapper with
                  | Some w ->
                    Some (Schema.particle (Qname.local w) (Schema.complex [ rows ]))
                  | None -> Some rows)
                | None ->
                  Some
                    (Schema.particle ~min:0 (Qname.local name)
                       (Schema.simple (Qname.xs "string")))))
          blk.Lineage.b_layout
      in
      Schema.complex particles
    in
    Ok
      {
        Schema.name =
          Qname.make ~uri:svc.Data_service.ds_namespace
            lineage.Lineage.b_row_elem;
        type_def = type_of_block lineage;
      }

let set_xqse_override t svc proc_name =
  set_override t svc
    (Some
       (fun t req ~default:_ ->
         (* hand the wire-form datagraph to the XQSE procedure; it takes
            over update processing entirely (the ALDSP 2.5 Java override
            pattern, now writable in XQSE — the paper's motivation) *)
         let wire = Sdo.serialize req.ur_datagraph in
         let doc = Xml_parse.parse wire in
         let root =
           match
             List.find_opt
               (fun c -> Node.kind c = Node.Element)
               (Node.children doc)
           with
           | Some el -> el
           | None -> failwith "empty datagraph"
         in
         let result = call t proc_name [ [ Item.Node root ] ] in
         {
           sr_committed = true;
           sr_statements = List.length result;
           sr_sql = [];
           sr_reason = None;
         }))
