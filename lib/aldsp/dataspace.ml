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
  row_cursors : (string, R.Table.row Cursor.t -> Item.t Cursor.t) Hashtbl.t;
      (* "db/TABLE" -> the table's row-element mapping, made once at
         registration: the table's read and navigations share it, and so
         share one row layout *)
  mutable db_sources : (string * Resilience.Control.source) list;
      (* every registered database's source, resolved at registration,
         in name order: what a plan's admission checks *)
  dependency_sources : (string, Resilience.Control.source list) Hashtbl.t;
      (* service -> the sources it depends on, resolved when it is
         created, in name order *)
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
      row_cursors = Hashtbl.create 8;
      db_sources = [];
      dependency_sources = Hashtbl.create 8;
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

(* Every call into a registered source goes through [Control.call] on
   the source's guard state, resolved once at registration, so policies
   (timeout, retry, breaker) apply uniformly without a lock per call;
   the guard's refusals arrive as XQSE-catchable errors with stable
   codes in the err: namespace. Sources raise every failure as an
   [Item.Error] already: a database read's reaches callers as it is, an
   injected fault no policy absorbed as [err:RESX0004]. A statement's
   and a web-service call's failures are re-coded, decided once, at
   registration: a [native] map gives them the code callers see and
   leaves every other exception alone. *)

(* a statement's failure, relational or injected: the procedure's own
   error, e.g. [{ns}CreateError], with the database's text *)
let statement_failure error = function
  | Item.Error { code; message; _ }
    when Qname.equal code R.Table.sqlx0001
         || Qname.equal code Resilience.Faults.resx0004 ->
    Item.Error { code = error; message; items = [] }
  | e -> e

(* One guarded source call: [f x] under the guard, its failure re-coded
   by [native]. A statement makes it as is — a write is never degraded — and
   a read through [guarded_read]. [f] and [native] are registration-time
   values, so nothing here allocates a closure. *)
let guarded_statement t src ~native f x =
  try Resilience.Control.call t.resil src f x with e -> raise (native e)

(* Overload brownout: while the server's pressure signal is asserted,
   a degradable source degrades *proactively* — the call is skipped
   outright, saving its full service cost, and the degradation is noted
   exactly like a fault-driven degrade. The note moves the degradation
   epoch, so the PR 8 result cache refuses admission to anything
   evaluated under brownout (warm entries admitted before the brownout
   keep serving — they short-circuit above this boundary). *)
let note_brownout t ~source =
  Log.info (fun m -> m "browned-out read of %s skipped" source);
  Resilience.Control.note_degraded t.resil ~source ~code:"BROWNOUT"
    ~message:"read degraded proactively under overload pressure"

(* A query-path read: the guard and the degrade decision wrap the *open*
   — the read check plus cursor (or opened table read) construction, or
   the web-service invoke — so exactly one guarded call happens per read
   invocation; row pulls then stream outside the guard (they cannot
   fail: the cursors snapshot their rows at open). A degradable source
   degrades to [empty ()] plus a degradation report instead of failing:
   the empty cursor, a table read with no rows, no response. *)
let guarded_read t src ~native ~empty f x =
  if not (Resilience.Control.degradable src) then
    guarded_statement t src ~native f x
  else if Resilience.Control.in_brownout t.resil then begin
    note_brownout t ~source:(Resilience.Control.source_name src);
    empty ()
  end
  else
    try guarded_statement t src ~native f x
    with Item.Error { code; message; _ } ->
      let source = Resilience.Control.source_name src in
      Log.info (fun m ->
          m "degraded read of %s: %s %s" source (Qname.to_string code) message);
      Resilience.Control.note_degraded t.resil ~source ~code:code.Qname.local
        ~message;
      empty ()

(* Strict admission of a write: the source's breaker must admit a
   call, or the write fails here with [err:RESX0002]. *)
let admit t ~name src =
  try Resilience.Control.check_strict t.resil src
  with Item.Error { message; _ } as e ->
    Log.info (fun m -> m "%s rejected strictly: %s" name message);
    raise e

let rec admit_all t ~name = function
  | [] -> ()
  | src :: rest ->
    admit t ~name src;
    admit_all t ~name rest

let rec plan_touches db = function
  | [] -> false
  | (s : Decompose.step) :: rest ->
    String.equal s.Decompose.step_db db || plan_touches db rest

(* the registered databases a plan touches, each once, in name order *)
let rec admit_plan t ~name plan = function
  | [] -> ()
  | (db, src) :: rest ->
    if plan_touches db plan then admit t ~name src;
    admit_plan t ~name plan rest

(* the source a dependency names: "db1/CUSTOMER" is db1's *)
let dependency_source d =
  match String.index_opt d '/' with Some i -> String.sub d 0 i | None -> d

(* The one executor of decomposition plans, for SDO submits and the
   generated create/update/delete alike. Admission comes first, so a
   refused plan runs no statement anywhere: an expired request deadline
   refuses it, then an open breaker on any source the service depends
   on. [make_plan] runs next (a submit's wire round trip and planning),
   then the databases the plan targets, which may be a subset or
   superset of the dependencies, must admit it too: a write is never
   served degraded. The plan then runs as one XA transaction, and the
   write set's cache entries go after the commit, never before — a read
   racing the write may cache the pre-image until the data actually
   changes, but once the commit lands the entries are gone. *)
let execute_plan t (svc : Data_service.t) make_plan =
  let name = svc.Data_service.ds_name in
  Resilience.Deadline.check ~source:name (Resilience.Deadline.current ());
  admit_all t ~name
    (try Hashtbl.find t.dependency_sources name with Not_found -> []);
  let plan = make_plan () in
  admit_plan t ~name plan t.db_sources;
  let outcome = Decompose.execute ~db_of:(fun n -> database t n) plan in
  if outcome.Decompose.committed then
    invalidate_cache_tables t (plan_tables plan);
  {
    sr_committed = outcome.Decompose.committed;
    sr_statements = outcome.Decompose.statements;
    sr_sql = Decompose.plan_to_strings plan;
    sr_reason = outcome.Decompose.reason;
  }

(* ------------------------------------------------------------------ *)
(* Relational introspection                                            *)
(* ------------------------------------------------------------------ *)

let table_ns db_name table_name = Printf.sprintf "ld:%s/%s" db_name table_name

(* [row_cursor tbl rows]: one row element per pull. The row-to-XML
   mapping is total, so the mapped cursor keeps the scan/select cursor's
   purity (rows are snapshotted at open) and streaming consumers may
   abandon it early. Apply it to the table once, at registration: the
   mapping's QNames are built then. *)
let row_cursor tbl =
  let to_xml = Rowxml.row_to_xml tbl in
  let item row = Item.Node (to_xml row) in
  fun rows -> Cursor.map ~total:true item rows

(* A table read opened by its guarded call: the version is pinned once,
   and the consumer then reads all of it or only the rows whose text
   column holds a key (the keyed read behind [T()[COL eq K]]). *)
let table_read rows r =
  {
    Xquery.Context.tr_empty = R.Table.read_is_empty r;
    tr_rows =
      (function
      | None -> rows (R.Table.read_scan r)
      | Some (col, key) ->
        rows (R.Table.read_select r (R.Pred.eq col (R.Value.Text key))));
    tr_release = (fun () -> R.Table.close_read r);
  }

(* what a degraded or browned-out open yields: no rows *)
let no_rows () =
  {
    Xquery.Context.tr_empty = true;
    tr_rows = (fun _ -> Cursor.empty ());
    tr_release = ignore;
  }

let nodes_arg what args =
  match args with
  | [ seq ] -> Item.nodes_only seq
  | _ -> Item.type_error (what ^ ": expected one argument")

let elem_seqtype ?(occ = Seqtype.Star) name =
  Seqtype.Typed (Seqtype.Element_type (Some (Qname.local name)), occ)

(* A navigation function's predicate on the rows it selects: each
   column [to_cols] equals the matching [from_cols] column of the row
   element passed in (a row of [from_tbl]), or [False] when that column
   is absent. The row's columns are read with {!Rowxml.column_reader},
   so an unbuilt row gives its cells without building its children. *)
let link_pred from_tbl from_cols to_cols =
  let reads =
    List.map2
      (fun from_col to_col -> (Rowxml.column_reader from_tbl from_col, to_col))
      from_cols to_cols
  in
  let eq row (read, to_col) =
    match read row with Some v -> R.Pred.eq to_col v | None -> R.Pred.False
  in
  match reads with
  | [ one ] -> fun row -> eq row one
  | _ -> fun row -> R.Pred.conj (List.map (eq row) reads)

(* One navigation function [name]: from the node passed in to the rows
   of [tbl], a table of [db], that [pred node] selects — the rows a
   foreign key links to a row, in either direction, or the current
   source rows under a logical service instance ([pred] gives [False]
   when the node lacks the key). A navigation is a read like any other:
   one guarded cursor open on [db]'s source per call. *)
let register_navigation t svc db tbl ~name ~expects ~doc pred =
  let db_name = R.Database.name db in
  let src = Resilience.Control.source t.resil db_name in
  let rows = Hashtbl.find t.row_cursors (db_name ^ "/" ^ R.Table.name tbl) in
  let select p =
    R.Database.read_check db;
    rows (R.Table.select_cursor tbl p)
  in
  Xqse.Session.register_function_cursor t.sess name 1
    ~purity:source_read_purity (function
    | [ [ Item.Node node ] ] ->
      guarded_read t src ~native:Fun.id ~empty:Cursor.empty select
        (pred node)
    | _ ->
      Item.type_error
        (Printf.sprintf "%s expects one %s" (Qname.to_string name) expects));
  Data_service.add_method svc
    {
      Data_service.m_name = name;
      m_kind =
        Data_service.Navigation_function (db_name ^ "/" ^ R.Table.name tbl);
      m_arity = 1;
      m_doc = doc;
    }

let register_database t db =
  let db_name = R.Database.name db in
  if Hashtbl.mem t.dbs db_name then
    invalid_arg (Printf.sprintf "database %s is already registered" db_name);
  R.Database.set_instr db (instr t);
  Resilience.Control.attach t.resil (R.Database.faults db);
  let src = Resilience.Control.source t.resil db_name in
  let exec = R.Database.exec db in
  Hashtbl.replace t.dbs db_name db;
  t.db_sources <-
    List.sort (fun (a, _) (b, _) -> String.compare a b)
      ((db_name, src) :: t.db_sources);
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
        let rows = row_cursor tbl in
        Hashtbl.replace t.row_cursors (db_name ^ "/" ^ tname) rows;
        let open_table () =
          R.Database.read_check db;
          table_read rows (R.Table.open_read tbl)
        in
        let open_read () =
          guarded_read t src ~native:Fun.id ~empty:no_rows open_table ()
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
        (* --- create/update/delete procedures: one guarded statement
           per row element; [statement error node] is the row's
           statement and what the call returns for it, and a failed
           statement raises the procedure's [error], e.g.
           [{ns}CreateError] --- *)
        let statement_procedure verb kind ?return ~doc statement =
          let name = fn (verb ^ tname) in
          let error =
            Qname.make ~uri:ns (String.capitalize_ascii verb ^ "Error")
          in
          let native = statement_failure error in
          Xqse.Session.register_procedure t.sess name 1
            ~params:[ (Qname.local "rows", Some (elem_seqtype tname)) ]
            ?return
            (invalidating t [ (db_name, tname) ] (fun args ->
                 List.concat_map
                   (fun node ->
                     let dml, result = statement error node in
                     ignore (guarded_statement t src ~native exec dml : int);
                     result)
                   (nodes_arg (verb ^ tname) args)));
          Data_service.add_method svc
            {
              Data_service.m_name = name;
              m_kind = kind;
              m_arity = 1;
              m_doc = doc;
            }
        in
        let pk = schema.R.Table.primary_key in
        let pk_where error node =
          try Rowxml.pk_pred_of_xml tbl node
          with Failure msg -> Item.raise_error error msg
        in
        statement_procedure "create" Data_service.Create_procedure
          ~return:(elem_seqtype (tname ^ "_KEY"))
          ~doc:"insert rows"
          (fun _ node ->
            let pairs =
              List.filter
                (fun (_, v) -> v <> R.Value.Null)
                (Rowxml.xml_to_pairs tbl node)
            in
            let key =
              List.map
                (fun k ->
                  Node.element (Qname.local k)
                    [
                      Node.text
                        (match List.assoc_opt k pairs with
                        | Some v -> R.Value.to_string v
                        | None -> "");
                    ])
                pk
            in
            ( R.Database.Insert
                {
                  table = tname;
                  columns = List.map fst pairs;
                  values = List.map snd pairs;
                },
              [ Item.Node (Node.element (Qname.local (tname ^ "_KEY")) key) ]
            ));
        statement_procedure "update" Data_service.Update_procedure
          ~doc:"update rows by primary key" (fun error node ->
            let pairs = Rowxml.xml_to_pairs tbl node in
            let where = pk_where error node in
            let set = List.filter (fun (c, _) -> not (List.mem c pk)) pairs in
            (R.Database.Update { table = tname; set; where }, []));
        statement_procedure "delete" Data_service.Delete_procedure
          ~doc:"delete rows by primary key" (fun error node ->
            ( R.Database.Delete { table = tname; where = pk_where error node },
              [] ));
        svc)
      (R.Database.tables db)
  in
  (* navigation functions from foreign keys (both directions) *)
  List.iter
    (fun tbl ->
      let child_name = R.Table.name tbl in
      List.iter
        (fun (fk : R.Table.foreign_key) ->
          let parent_name = fk.R.Table.fk_ref_table in
          let parent_tbl = R.Database.table db parent_name in
          (* navigation functions probe the child by its FK columns, so
             introspection builds a hash index over them *)
          R.Table.create_index tbl fk.R.Table.fk_columns;
          (* from a row of [from_tbl] to the rows of [to_tbl] whose
             [to_cols] equal its [from_cols] *)
          let navigation from_tbl from_cols to_tbl to_cols ~doc =
            let from = R.Table.name from_tbl and target = R.Table.name to_tbl in
            let name =
              Qname.make ~uri:(table_ns db_name from) ("get" ^ target)
            in
            register_navigation t
              (List.find
                 (fun s -> s.Data_service.ds_name = db_name ^ "/" ^ from)
                 new_services)
              db to_tbl ~name ~expects:(from ^ " row") ~doc
              (link_pred from_tbl from_cols to_cols);
            Hashtbl.replace t.source_fns (name.Qname.uri, name.Qname.local)
              (Lineage.Nav_fn
                 {
                   db = db_name;
                   table = target;
                   parent_table = from;
                   link = List.combine to_cols from_cols;
                 })
          in
          (* parent -> children:  cus:getORDERS($customer) *)
          navigation parent_tbl fk.R.Table.fk_ref_columns tbl
            fk.R.Table.fk_columns
            ~doc:
              (Printf.sprintf "rows of %s referencing this %s row" child_name
                 parent_name);
          (* child -> parent:  ord:getCUSTOMER($order) *)
          navigation tbl fk.R.Table.fk_columns parent_tbl
            fk.R.Table.fk_ref_columns
            ~doc:
              (Printf.sprintf "the %s row this %s row references" parent_name
                 child_name))
        (R.Table.schema tbl).R.Table.foreign_keys)
    (R.Database.tables db);
  t.svcs <- t.svcs @ new_services;
  new_services

(* ------------------------------------------------------------------ *)
(* Web-service introspection                                           *)
(* ------------------------------------------------------------------ *)

(* what a degraded or browned-out invoke yields *)
let no_response () = []

let register_web_service t ws =
  Webservice.set_instr ws (instr t);
  Resilience.Control.attach t.resil (Webservice.faults ws);
  let ns = Webservice.namespace ws in
  let ws_name = Webservice.name ws in
  let src = Resilience.Control.source t.resil ws_name in
  (* an injected fault no policy absorbed: the service's own
     [{ns}Fault], with the fault's "Service.op: message" text *)
  let native = function
    | Item.Error { code; message; _ }
      when Qname.equal code Resilience.Faults.resx0004 ->
      Item.Error { code = Webservice.fault_code ws; message; items = [] }
    | e -> e
  in
  let svc =
    Data_service.make ~name:ws_name ~namespace:ns
      ~kind:Data_service.Library
      ~origin:(Data_service.Physical_webservice { service = ws_name })
  in
  List.iter
    (fun (op : Webservice.operation) ->
      let fname = Qname.make ~uri:ns op.Webservice.op_name in
      let invoke request =
        [ Item.Node (Webservice.invoke ws op.Webservice.op_name request) ]
      in
      Xqse.Session.register_function t.sess fname 1 ~purity:source_read_purity
        (fun args ->
          match args with
          | [ [ Item.Node request ] ] ->
            guarded_read t src ~native ~empty:no_response invoke request
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

   - physical reads (the [source_fns] table) are pure by construction
     and footprint exactly the table they scan;
   - navigation functions bypass the cache. A navigation is one index
     probe, cheaper than its entry: the key serializes the parent row,
     the result is copied on store and on every hit, and a miss takes
     the store lock twice. Its entry is keyed by the whole parent row
     but evicted only by writes to the child table, so every write of
     the parent row strands one entry, which each submit's eviction
     sweep then walks under the store lock. The data-service calls that
     navigate stay cached, so their hits still skip every navigation;
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
      | Some (Lineage.Nav_fn _) -> None
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

(* Auto-generate create/update/delete methods for a logical service
   whose primary read lineage is analyzable (paper III.D.1), and a
   navigation function per nested block. Silently skipped when the
   lineage cannot be reverse-engineered. *)
let generate_methods t svc =
  match lineage_of t svc with
  | Error _ -> ()
  | Ok lineage ->
    let ns = svc.Data_service.ds_namespace in
    let shape_local = lineage.Lineage.b_row_elem in
    let lookup ~db ~table = lookup_table t ~db ~table in
    (* the instance element carrying a lineage field, by element name *)
    let field_value obj elem =
      List.find_map
        (fun ch ->
          match Node.name ch with
          | Some q when q.Qname.local = elem && Node.kind ch = Node.Element ->
            Some (Node.string_value ch)
          | _ -> None)
        (Node.children obj)
    in
    let key_elem node =
      (* <Shape_KEY> with the primary-key leaf elements of the root row *)
      let tbl =
        lookup ~db:lineage.Lineage.b_db ~table:lineage.Lineage.b_table
      in
      let pks = (R.Table.schema tbl).R.Table.primary_key in
      let leaves =
        List.filter_map
          (fun col ->
            List.find_opt
              (fun (f : Lineage.field) -> f.Lineage.f_column = col)
              lineage.Lineage.b_fields
            |> Option.map (fun (f : Lineage.field) ->
                   let v =
                     Option.value ~default:""
                       (field_value node f.Lineage.f_elem)
                   in
                   Node.element (Qname.local f.Lineage.f_elem) [ Node.text v ]))
          pks
      in
      Node.element (Qname.make ~uri:ns (shape_local ^ "_KEY")) leaves
    in
    (* one procedure per verb: each instance element's plan runs through
       the plan executor; an aborted plan raises [{ns}<Verb>Error] *)
    let procedure verb kind plan_of ~result =
      let name = Qname.make ~uri:ns (verb ^ shape_local) in
      let error =
        Qname.make ~uri:ns (String.capitalize_ascii verb ^ "Error")
      in
      Xqse.Session.register_procedure t.sess name 1 (fun args ->
          List.concat_map
            (fun node ->
              let r = execute_plan t svc (fun () -> plan_of node) in
              if not r.sr_committed then
                Item.raise_error error
                  (Option.value ~default:"update aborted" r.sr_reason);
              result node)
            (nodes_arg (verb ^ shape_local) args));
      Data_service.add_method svc
        {
          Data_service.m_name = name;
          m_kind = kind;
          m_arity = 1;
          m_doc = "auto-generated from the primary read lineage";
        }
    in
    procedure "create" Data_service.Create_procedure
      (Decompose.plan_create_object ~lookup_table:lookup ~lineage)
      ~result:(fun node -> [ Item.Node (key_elem node) ]);
    procedure "update" Data_service.Update_procedure
      (Decompose.plan_replace_object ~lookup_table:lookup ~lineage)
      ~result:(fun _ -> []);
    procedure "delete" Data_service.Delete_procedure
      (Decompose.plan_delete_object ~lookup_table:lookup
         ~policy:Occ.Updated_values ~lineage)
      ~result:(fun _ -> []);
    (* navigation functions for each nested block: from one service
       instance to the *current* related source rows (paper II.A:
       "traversal from one instance object ... to one or more instances
       from a related data service"). The key is read from the
       instance through the root block's fields. *)
    List.iter
      (fun (c : Lineage.child) ->
        let child_blk = c.Lineage.c_block in
        let db = database t child_blk.Lineage.b_db in
        let tbl = R.Database.table db child_blk.Lineage.b_table in
        let cols = (R.Table.schema tbl).R.Table.columns in
        let links =
          List.map
            (fun (ccol, pcol) ->
              let pelem =
                match
                  List.find_opt
                    (fun (f : Lineage.field) -> f.Lineage.f_column = pcol)
                    lineage.Lineage.b_fields
                with
                | Some f -> f.Lineage.f_elem
                | None -> pcol
              in
              let col_type =
                List.find_map
                  (fun (col : R.Table.column) ->
                    if col.R.Table.col_name = ccol then
                      Some col.R.Table.col_type
                    else None)
                  cols
              in
              (ccol, pelem, col_type))
            c.Lineage.c_link
        in
        let pred obj =
          R.Pred.conj
            (List.map
               (fun (ccol, pelem, col_type) ->
                 match (field_value obj pelem, col_type) with
                 | Some s, Some ty -> R.Pred.eq ccol (R.Value.of_string ty s)
                 | _ -> R.Pred.False)
               links)
        in
        register_navigation t svc db tbl
          ~name:(Qname.make ~uri:ns ("get" ^ child_blk.Lineage.b_row_elem))
          ~expects:(shape_local ^ " instance")
          ~doc:"auto-generated navigation to current source rows" pred)
      lineage.Lineage.b_children

let create_entity_service t ~name ~namespace ~shape ~methods ?primary_read
    ?(dependencies = []) source =
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
  Hashtbl.replace t.dependency_sources name
    (List.map
       (Resilience.Control.source t.resil)
       (List.sort_uniq String.compare (List.map dependency_source dependencies)));
  Hashtbl.replace t.read_sources name source;
  t.svcs <- t.svcs @ [ svc ];
  generate_methods t svc;
  svc

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
  (* admission (the deadline, the dependencies' breakers) comes before
     the wire round trip: a refused submit costs nothing. Once execution
     reaches XA prepare the commit path runs exempt (never kill a write
     mid-commit). *)
  let r =
    execute_plan t svc (fun () ->
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
          Decompose.not_updatable ("no usable lineage: " ^ msg)
        | Ok lineage ->
          Decompose.plan
            ~lookup_table:(fun ~db ~table -> lookup_table t ~db ~table)
            ~policy ~lineage dg)
  in
  Instr.bump (instr t) ~n:(List.length r.sr_sql) Instr.K.sql_generated;
  List.iter (fun stmt -> Log.debug (fun m -> m "plan: %s" stmt)) r.sr_sql;
  Instr.bump (instr t) ~n:r.sr_statements Instr.K.sdo_statements;
  (match r.sr_reason with
  | Some reason when not r.sr_committed ->
    Log.info (fun m ->
        m "submit %s aborted: %s" svc.Data_service.ds_name reason)
  | _ ->
    Log.debug (fun m ->
        m "submit %s committed %d statement(s)" svc.Data_service.ds_name
          r.sr_statements));
  r

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
          Decompose.not_updatable
            (Printf.sprintf "submitted object violates the service shape: %s"
               (String.concat "; "
                  (List.map
                     (fun v -> v.Schema.path ^ ": " ^ v.Schema.message)
                     violations))))
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
