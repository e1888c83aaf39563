type dml =
  | Insert of { table : string; columns : string list; values : Value.t list }
  | Update of { table : string; set : (string * Value.t) list; where : Pred.t }
  | Delete of { table : string; where : Pred.t }

let dml_to_sql = function
  | Insert { table; columns; values } ->
    Printf.sprintf "INSERT INTO %s (%s) VALUES (%s)" table
      (String.concat ", " columns)
      (String.concat ", " (List.map Value.sql_literal values))
  | Update { table; set; where } ->
    Printf.sprintf "UPDATE %s SET %s WHERE %s" table
      (String.concat ", "
         (List.map
            (fun (c, v) -> Printf.sprintf "%s = %s" c (Value.sql_literal v))
            set))
      (Pred.to_sql where)
  | Delete { table; where } ->
    Printf.sprintf "DELETE FROM %s WHERE %s" table (Pred.to_sql where)

type t = {
  db_name : string;
  tbls : (string, Table.t) Hashtbl.t;
  mutable order : string list;  (* table creation order *)
  log_lock : Mutex.t;  (* guards [log]: every domain appends to it *)
  log : string Queue.t;  (* the newest [log_bound], oldest first *)
  faults : Resilience.Faults.t;  (* all failure injection lives here *)
  mutable instr : Instr.t;
}

(* An open transaction: the tables it has written, each tagged with
   whether the transaction acquired the write lock itself (a
   coordinator like Decompose pre-acquires ordered locksets, in which
   case the lock is not ours to release). *)
type tx = { mutable written : (Table.t * bool) list }

(* The calling domain's open transactions, one per database. A
   transaction belongs to the domain that began it, as a table's write
   lock and ambient snapshot do, so submits on two domains whose
   locksets are disjoint tables of one database run their XA rounds
   side by side. *)
let open_txs : (t * tx) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let current_tx t = List.assq_opt t !(Domain.DLS.get open_txs)

let close_tx t =
  let txs = Domain.DLS.get open_txs in
  txs := List.filter (fun (d, _) -> d != t) !txs

let create name =
  {
    db_name = name;
    tbls = Hashtbl.create 8;
    order = [];
    log_lock = Mutex.create ();
    log = Queue.create ();
    faults = Resilience.Faults.create ~source:name ();
    instr = Instr.disabled;
  }

let name t = t.db_name

let set_instr t i =
  t.instr <- i;
  Hashtbl.iter (fun _ tbl -> Table.set_instr tbl i) t.tbls

let add_table t schema =
  if Hashtbl.mem t.tbls schema.Table.tbl_name then
    Table.violation "table %s already exists" schema.Table.tbl_name;
  let table = Table.create schema in
  Table.set_instr table t.instr;
  Hashtbl.replace t.tbls schema.Table.tbl_name table;
  t.order <- t.order @ [ schema.Table.tbl_name ];
  table

let find_table t name = Hashtbl.find_opt t.tbls name

let table t name =
  match Hashtbl.find_opt t.tbls name with
  | Some tbl -> tbl
  | None -> Table.violation "%s: unknown table %s" t.db_name name

let tables t = List.map (fun n -> Hashtbl.find t.tbls n) t.order

(* A server executes statements for as long as it runs, so the log
   keeps only the newest ones: an unbounded log grows the heap by every
   statement ever run. *)
let log_bound = 1000

let append_log t entry =
  Mutex.protect t.log_lock (fun () ->
      Queue.push entry t.log;
      if Queue.length t.log > log_bound then ignore (Queue.take t.log : string))

let sql_log t =
  Mutex.protect t.log_lock (fun () -> List.of_seq (Queue.to_seq t.log))

let clear_log t = Mutex.protect t.log_lock (fun () -> Queue.clear t.log)
let log_size t = Mutex.protect t.log_lock (fun () -> Queue.length t.log)

(* A statement's target table joins the open transaction on first
   write: lock it (unless a coordinator already holds it for us) so the
   changes accumulate in the table's working store until commit. Locks
   are taken lazily in statement order — concurrent multi-table writers
   must pre-acquire their locksets in the global (db, table) order, as
   {!Decompose.execute} does. *)
let ensure_tx_table tx tbl =
  if not (List.exists (fun (tb, _) -> tb == tbl) tx.written) then begin
    let owned = not (Table.holds_write tbl) in
    if owned then Table.lock_write tbl;
    tx.written <- (tbl, owned) :: tx.written
  end

let faults t = t.faults

(* an injected fault: [err:RESX0004], prefixed with the db name *)
let injected t message =
  Instr.bump t.instr Instr.K.resil_injected;
  Resilience.Faults.fail (Printf.sprintf "%s: %s" t.db_name message)

let consult t kind =
  match Resilience.Faults.on_call t.faults kind with
  | Some message -> injected t message
  | None -> ()

let read_check t = consult t Resilience.Faults.Read

(* FK checks: inserts must reference existing rows; deletes must not be
   referenced. *)
let check_fk_insert t tbl row =
  List.iter
    (fun fk ->
      let ref_tbl = table t fk.Table.fk_ref_table in
      let vals = List.map (fun c -> Table.get row tbl c) fk.Table.fk_columns in
      if not (List.exists (Value.equal Value.Null) vals) then begin
        let pred =
          Pred.conj (List.map2 Pred.eq fk.Table.fk_ref_columns vals)
        in
        if Table.select ref_tbl pred = [] then
          Table.violation "%s: foreign key violation on %s(%s) -> %s(%s)"
            t.db_name (Table.name tbl)
            (String.concat "," fk.Table.fk_columns)
            fk.Table.fk_ref_table
            (String.concat "," fk.Table.fk_ref_columns)
      end)
    (Table.schema tbl).Table.foreign_keys

let check_fk_delete t tbl rows =
  (* any other table referencing this one must not point at these rows *)
  Hashtbl.iter
    (fun _ other ->
      List.iter
        (fun fk ->
          if fk.Table.fk_ref_table = Table.name tbl then
            List.iter
              (fun row ->
                let vals =
                  List.map (fun c -> Table.get row tbl c) fk.Table.fk_ref_columns
                in
                let pred =
                  Pred.conj (List.map2 Pred.eq fk.Table.fk_columns vals)
                in
                if Table.select other pred <> [] then
                  Table.violation
                    "%s: cannot delete from %s: row referenced by %s"
                    t.db_name (Table.name tbl) (Table.name other))
              rows)
        (Table.schema other).Table.foreign_keys)
    t.tbls

let exec t dml =
  consult t Resilience.Faults.Statement;
  Instr.bump t.instr Instr.K.sql_executed;
  let sql = dml_to_sql dml in
  let tn =
    match dml with
    | Insert { table; _ } | Update { table; _ } | Delete { table; _ } -> table
  in
  let tbl = table t tn in
  let run () =
    match dml with
    | Insert { table = tn; columns; values } ->
      if List.length columns <> List.length values then
        Table.violation "%s: INSERT arity mismatch" tn;
      let row = Table.insert_named tbl (List.combine columns values) in
      check_fk_insert t tbl row;
      1
    | Update { set; where; _ } ->
      let _olds, news = Table.update_rows tbl where set in
      List.length news
    | Delete { where; _ } ->
      let victims = Table.select tbl where in
      check_fk_delete t tbl victims;
      let removed = Table.delete_rows tbl where in
      List.length removed
  in
  let affected =
    match current_tx t with
    | Some tx ->
      (* changes accumulate in the table's working store until commit *)
      ensure_tx_table tx tbl;
      run ()
    | None ->
      if Table.holds_write tbl then
        (* a caller-held lock coordinates publication *)
        run ()
      else begin
        (* single-statement transaction: lock, apply, publish on
           success — a mid-statement failure (FK violation included)
           leaves the published version untouched *)
        Table.lock_write tbl;
        Fun.protect
          ~finally:(fun () -> Table.unlock_write tbl)
          (fun () ->
            match run () with
            | n ->
              Table.commit_write tbl;
              n
            | exception e ->
              Table.discard_write tbl;
              raise e)
      end
  in
  append_log t sql;
  affected

let in_tx t = current_tx t <> None

let begin_tx t =
  if in_tx t then Table.violation "%s: transaction already open" t.db_name;
  let txs = Domain.DLS.get open_txs in
  txs := (t, { written = [] }) :: !txs

let commit t =
  match current_tx t with
  | None -> Table.violation "%s: no open transaction" t.db_name
  | Some tx -> (
    (* an injected commit fault leaves the transaction open — working
       stores and locks intact: a prepared participant stays prepared
       and the coordinator may retry *)
    match Resilience.Faults.on_commit t.faults with
    | Some message -> injected t message
    | None ->
      (* publish every written table's new version atomically with
         respect to snapshot capture (the lock is reentrant, so an XA
         coordinator can hold it across all participants) *)
      Table.publish_all (fun () ->
          List.iter (fun (tb, _) -> Table.commit_write tb) tx.written);
      List.iter
        (fun (tb, owned) -> if owned then Table.unlock_write tb)
        tx.written;
      close_tx t)

let rollback t =
  match current_tx t with
  | None -> Table.violation "%s: no open transaction" t.db_name
  | Some tx ->
    List.iter
      (fun (tb, owned) ->
        Table.discard_write tb;
        if owned then Table.unlock_write tb)
      tx.written;
    close_tx t;
    append_log t (Printf.sprintf "ROLLBACK -- %s" t.db_name)

let prepare_fault t =
  match Resilience.Faults.on_prepare t.faults with
  | Some _ as reason ->
    Instr.bump t.instr Instr.K.resil_injected;
    reason
  | None -> None
