open Xdm
module R = Relational

type step = { step_db : string; step_dml : R.Database.dml }
type plan = step list

let sdox0001 = Qname.err "SDOX0001"
let not_updatable message = Item.raise_error sdox0001 message
let fail fmt = Printf.ksprintf not_updatable fmt

(* ---------------- node navigation helpers ---------------- *)

let child_elements node =
  List.filter (fun c -> Node.kind c = Node.Element) (Node.children node)

let named_children node name =
  List.filter
    (fun c ->
      match Node.name c with
      | Some q -> q.Qname.local = name
      | None -> false)
    (child_elements node)

let nth_child node name idx =
  match List.nth_opt (named_children node name) (idx - 1) with
  | Some c -> c
  | None -> fail "no element %s[%d] in the submitted object" name idx

(* ---------------- reading row values ---------------- *)

(* read-time values of a lineage row: one entry per mapped field, Null
   when the element is absent *)
let row_values ~lookup_table (blk : Lineage.block) row_node =
  let tbl = lookup_table ~db:blk.Lineage.b_db ~table:blk.Lineage.b_table in
  let schema = R.Table.schema tbl in
  let col_type col =
    match
      List.find_opt
        (fun (c : R.Table.column) -> c.R.Table.col_name = col)
        schema.R.Table.columns
    with
    | Some c -> c.R.Table.col_type
    | None ->
      fail "lineage maps %s to unknown column %s.%s" blk.Lineage.b_row_elem
        blk.Lineage.b_table col
  in
  List.map
    (fun (f : Lineage.field) ->
      let v =
        match named_children row_node f.Lineage.f_elem with
        | el :: _ ->
          let s = Node.string_value el in
          if s = "" && col_type f.Lineage.f_column <> R.Value.T_text then
            R.Value.Null
          else (
            try R.Value.of_string (col_type f.Lineage.f_column) s
            with Failure m -> fail "%s" m)
        | [] -> R.Value.Null
      in
      (f.Lineage.f_column, v))
    blk.Lineage.b_fields

let value_of_leaf ~lookup_table (blk : Lineage.block) col s =
  let tbl = lookup_table ~db:blk.Lineage.b_db ~table:blk.Lineage.b_table in
  let schema = R.Table.schema tbl in
  match
    List.find_opt
      (fun (c : R.Table.column) -> c.R.Table.col_name = col)
      schema.R.Table.columns
  with
  | Some c ->
    if s = "" && c.R.Table.col_type <> R.Value.T_text then R.Value.Null
    else (
      try R.Value.of_string c.R.Table.col_type s
      with Failure m -> fail "%s" m)
  | None -> fail "unknown column %s.%s" blk.Lineage.b_table col

let pk_columns ~lookup_table (blk : Lineage.block) =
  let tbl = lookup_table ~db:blk.Lineage.b_db ~table:blk.Lineage.b_table in
  (R.Table.schema tbl).R.Table.primary_key

let pk_pred ~lookup_table blk read_values =
  R.Pred.conj
    (List.map
       (fun k ->
         match List.assoc_opt k read_values with
         | Some R.Value.Null | None ->
           fail
             "cannot locate source row: primary key column %s of %s is not \
              part of the data service shape"
             k blk.Lineage.b_table
         | Some v -> R.Pred.eq k v)
       (pk_columns ~lookup_table blk))

(* ---------------- locating changes in the lineage ---------------- *)

type located_leaf = {
  ll_block : Lineage.block;
  ll_row : Node.t;  (** current row element (new values) *)
  ll_column : string;
}

(* Walk a change path through the lineage, tracking the current block and
   row element. *)
let rec locate_leaf (blk : Lineage.block) row (path : Sdo.path) =
  match path with
  | [] -> fail "empty change path"
  | [ (leaf, _idx) ] -> (
    match Lineage.find_field blk leaf with
    | Some f ->
      { ll_block = blk; ll_row = row; ll_column = f.Lineage.f_column }
    | None ->
      if List.mem leaf blk.Lineage.b_opaque then
        fail
          "element %s of %s is computed (e.g. from a web service) and \
           cannot be updated"
          leaf blk.Lineage.b_row_elem
      else fail "element %s of %s is not mapped to any source column" leaf
             blk.Lineage.b_row_elem)
  | (name, idx) :: rest -> (
    match Lineage.find_child blk name with
    | Some c -> (
      match c.Lineage.c_wrapper with
      | Some _ -> (
        (* step into the wrapper, then the row element *)
        let wrapper_node = nth_child row name idx in
        match rest with
        | (row_name, row_idx) :: rest'
          when row_name = c.Lineage.c_block.Lineage.b_row_elem ->
          locate_leaf c.Lineage.c_block
            (nth_child wrapper_node row_name row_idx)
            rest'
        | _ -> fail "change path enters wrapper %s but not a %s row" name
                 c.Lineage.c_block.Lineage.b_row_elem)
      | None ->
        locate_leaf c.Lineage.c_block (nth_child row name idx) rest)
    | None -> fail "element %s of %s is not part of the lineage" name
                blk.Lineage.b_row_elem)

(* the block a path of element names leads to (for deletes, where the
   node is gone from the current object) *)
let rec block_of_names (blk : Lineage.block) = function
  | [] -> blk
  | name :: rest -> (
    match Lineage.find_child blk name with
    | Some c -> (
      match c.Lineage.c_wrapper with
      | Some _ -> (
        match rest with
        | row_name :: rest' when row_name = c.Lineage.c_block.Lineage.b_row_elem
          -> block_of_names c.Lineage.c_block rest'
        | _ ->
          fail "path enters wrapper %s but not a %s row" name
            c.Lineage.c_block.Lineage.b_row_elem)
      | None -> block_of_names c.Lineage.c_block rest)
    | None -> fail "element %s is not part of the lineage" name)

(* parent row + child entry for an insert under [parent_path] *)
let locate_insert (blk : Lineage.block) row parent_path child_name =
  let rec go blk row = function
    | [] -> (
      match Lineage.find_child blk child_name with
      | Some c -> (blk, row, c)
      | None ->
        fail "cannot insert %s: not a nested block of %s" child_name
          blk.Lineage.b_row_elem)
    | [ (name, _idx) ] when
        (match Lineage.find_child blk name with
        | Some { Lineage.c_wrapper = Some _; _ } -> true
        | _ -> false) -> (
      (* final wrapper step *)
      match Lineage.find_child blk name with
      | Some c when c.Lineage.c_block.Lineage.b_row_elem = child_name ->
        (blk, row, c)
      | Some _ -> fail "wrapper %s does not hold %s rows" name child_name
      | None -> assert false)
    | (name, idx) :: rest -> (
      match Lineage.find_child blk name with
      | Some c -> (
        match c.Lineage.c_wrapper with
        | Some _ -> (
          let wrapper_node = nth_child row name idx in
          match rest with
          | (row_name, row_idx) :: rest'
            when row_name = c.Lineage.c_block.Lineage.b_row_elem ->
            go c.Lineage.c_block (nth_child wrapper_node row_name row_idx) rest'
          | _ ->
            fail "insert path enters wrapper %s but not a %s row" name
              c.Lineage.c_block.Lineage.b_row_elem)
        | None -> go c.Lineage.c_block (nth_child row name idx) rest)
      | None -> fail "element %s is not part of the lineage" name)
  in
  go blk row parent_path

(* ---------------- statement generation ---------------- *)

let insert_dml ~lookup_table (blk : Lineage.block)
    ~(link : (string * string) list) ~parent_values node =
  let values = row_values ~lookup_table blk node in
  (* drop Nulls (absent elements), then add missing link columns from the
     parent row *)
  let present = List.filter (fun (_, v) -> v <> R.Value.Null) values in
  let present =
    List.fold_left
      (fun acc (ccol, pcol) ->
        if List.mem_assoc ccol acc then acc
        else
          match List.assoc_opt pcol parent_values with
          | Some v when v <> R.Value.Null -> (ccol, v) :: acc
          | _ -> acc)
      present link
  in
  {
    step_db = blk.Lineage.b_db;
    step_dml =
      R.Database.Insert
        {
          table = blk.Lineage.b_table;
          columns = List.map fst present;
          values = List.map snd present;
        };
  }

(* all inserts for a full (created) object: root row then children *)
let rec insert_object ~lookup_table (blk : Lineage.block)
    ~(link : (string * string) list) ~parent_values node =
  let me = insert_dml ~lookup_table blk ~link ~parent_values node in
  let my_values = row_values ~lookup_table blk node in
  let kids =
    List.concat_map
      (fun (c : Lineage.child) ->
        let rows =
          match c.Lineage.c_wrapper with
          | Some w ->
            List.concat_map
              (fun wrapper ->
                named_children wrapper c.Lineage.c_block.Lineage.b_row_elem)
              (named_children node w)
          | None -> named_children node c.Lineage.c_block.Lineage.b_row_elem
        in
        List.concat_map
          (fun rownode ->
            insert_object ~lookup_table c.Lineage.c_block ~link:c.Lineage.c_link
              ~parent_values:my_values rownode)
          rows)
      blk.Lineage.b_children
  in
  me :: kids

let delete_dml ~lookup_table ~policy (blk : Lineage.block) old_node =
  let old_values = row_values ~lookup_table blk old_node in
  let where =
    R.Pred.And
      ( pk_pred ~lookup_table blk old_values,
        Occ.condition policy ~read_values:old_values ~changed_columns:[] )
  in
  {
    step_db = blk.Lineage.b_db;
    step_dml = R.Database.Delete { table = blk.Lineage.b_table; where };
  }

(* deletes for a full object: children first, then the root row *)
let rec delete_object ~lookup_table ~policy (blk : Lineage.block) old_node =
  let kids =
    List.concat_map
      (fun (c : Lineage.child) ->
        let rows =
          match c.Lineage.c_wrapper with
          | Some w ->
            List.concat_map
              (fun wrapper ->
                named_children wrapper c.Lineage.c_block.Lineage.b_row_elem)
              (named_children old_node w)
          | None ->
            named_children old_node c.Lineage.c_block.Lineage.b_row_elem
        in
        List.concat_map
          (fun rownode ->
            delete_object ~lookup_table ~policy c.Lineage.c_block rownode)
          rows)
      blk.Lineage.b_children
  in
  kids @ [ delete_dml ~lookup_table ~policy blk old_node ]

(* ---------------- whole-object planners ---------------- *)

let plan_create_object ~lookup_table ~lineage node =
  insert_object ~lookup_table lineage ~link:[] ~parent_values:[] node

let plan_delete_object ~lookup_table ~policy ~lineage node =
  delete_object ~lookup_table ~policy lineage node

let rec replace_rows ~lookup_table (blk : Lineage.block) node =
  let values = row_values ~lookup_table blk node in
  let pks = pk_columns ~lookup_table blk in
  let set = List.filter (fun (c, _) -> not (List.mem c pks)) values in
  let me =
    if set = [] then []
    else
      [
        {
          step_db = blk.Lineage.b_db;
          step_dml =
            R.Database.Update
              {
                table = blk.Lineage.b_table;
                set;
                where = pk_pred ~lookup_table blk values;
              };
        };
      ]
  in
  let kids =
    List.concat_map
      (fun (c : Lineage.child) ->
        let rows =
          match c.Lineage.c_wrapper with
          | Some w ->
            List.concat_map
              (fun wrapper ->
                named_children wrapper c.Lineage.c_block.Lineage.b_row_elem)
              (named_children node w)
          | None -> named_children node c.Lineage.c_block.Lineage.b_row_elem
        in
        List.concat_map
          (fun rownode -> replace_rows ~lookup_table c.Lineage.c_block rownode)
          rows)
      blk.Lineage.b_children
  in
  me @ kids

let plan_replace_object ~lookup_table ~lineage node =
  replace_rows ~lookup_table lineage node

(* ---------------- the planner ---------------- *)

let plan ~lookup_table ~policy ~lineage (dg : Sdo.t) =
  let steps = ref [] in
  let emit s = steps := s :: !steps in
  List.iter
    (fun change ->
      match change with
      | Sdo.Created i ->
        let node = Sdo.root dg i in
        List.iter emit
          (insert_object ~lookup_table lineage ~link:[] ~parent_values:[] node)
      | Sdo.Deleted (_i, old) ->
        List.iter emit (delete_object ~lookup_table ~policy lineage old)
      | Sdo.Modified (i, oc) ->
        let obj = Sdo.root dg i in
        (* group leaf changes by target row (node identity) *)
        let groups : (Node.t * (located_leaf * string) list ref) list ref =
          ref []
        in
        List.iter
          (fun (lc : Sdo.leaf_change) ->
            let located = locate_leaf lineage obj lc.Sdo.leaf_path in
            let group =
              match
                List.find_opt
                  (fun (row, _) -> Node.is_same row located.ll_row)
                  !groups
              with
              | Some (_, g) -> g
              | None ->
                let g = ref [] in
                groups := !groups @ [ (located.ll_row, g) ];
                g
            in
            group := !group @ [ (located, lc.Sdo.old_value) ])
          oc.Sdo.leaves;
        List.iter
          (fun (row, group) ->
            let blk = (fst (List.hd !group)).ll_block in
            let current = row_values ~lookup_table blk row in
            (* reconstruct read-time values: changed columns use the old
               value from the change summary *)
            let changed_cols =
              List.map (fun (l, _) -> l.ll_column) !group
            in
            let read_values =
              List.map
                (fun (col, v) ->
                  match
                    List.find_opt (fun (l, _) -> l.ll_column = col) !group
                  with
                  | Some (l, old_s) ->
                    (col, value_of_leaf ~lookup_table blk l.ll_column old_s)
                  | None -> (col, v))
                current
            in
            let set =
              List.map
                (fun (l, _) ->
                  ( l.ll_column,
                    match List.assoc_opt l.ll_column current with
                    | Some v -> v
                    | None -> R.Value.Null ))
                !group
            in
            let where =
              R.Pred.And
                ( pk_pred ~lookup_table blk read_values,
                  Occ.condition policy ~read_values
                    ~changed_columns:changed_cols )
            in
            emit
              {
                step_db = blk.Lineage.b_db;
                step_dml =
                  R.Database.Update
                    { table = blk.Lineage.b_table; set; where };
              })
          !groups;
        (* nested element deletes *)
        List.iter
          (fun (d : Sdo.element_delete) ->
            let names = List.map fst d.Sdo.deleted_path in
            let blk = block_of_names lineage names in
            emit (delete_dml ~lookup_table ~policy blk d.Sdo.deleted_old))
          oc.Sdo.element_deletes;
        (* nested element inserts *)
        List.iter
          (fun (ins : Sdo.element_insert) ->
            let child_name =
              match Node.name ins.Sdo.inserted_node with
              | Some q -> q.Qname.local
              | None -> fail "inserted node is not an element"
            in
            let parent_blk, parent_row, child =
              locate_insert lineage obj ins.Sdo.inserted_parent child_name
            in
            let parent_values =
              row_values ~lookup_table parent_blk parent_row
            in
            emit
              (insert_dml ~lookup_table child.Lineage.c_block
                 ~link:child.Lineage.c_link ~parent_values
                 ins.Sdo.inserted_node))
          oc.Sdo.element_inserts)
    (Sdo.changes dg);
  List.rev !steps

let plan_to_strings plan =
  List.map
    (fun s -> Printf.sprintf "%s: %s" s.step_db (R.Database.dml_to_sql s.step_dml))
    plan

type outcome = {
  committed : bool;
  statements : int;
  reason : string option;
}

(* The write lockset of a plan: every (db, table) the plan writes, plus
   the FK neighbors whose state the statements' constraint checks read —
   tables referenced by an inserting table (the insert validates the
   parent row exists) and tables referencing a deleting table (the
   delete validates nothing points at the victims). Locking the
   neighbors makes those checks race-free without serializing against
   writers of unrelated tables. Unknown tables are skipped — the
   executor will produce the proper statement error. *)
let lockset ~db_of plan =
  let add acc key = if List.mem key acc then acc else key :: acc in
  let tbl_opt dbn tn =
    match db_of dbn with
    | db -> R.Database.find_table db tn
    | exception _ -> None
  in
  let locks =
    List.fold_left
      (fun acc s ->
        let tn =
          match s.step_dml with
          | R.Database.Insert { table; _ }
          | R.Database.Update { table; _ }
          | R.Database.Delete { table; _ } -> table
        in
        match tbl_opt s.step_db tn with
        | None -> acc
        | Some tbl -> (
          let acc = add acc (s.step_db, tn) in
          match s.step_dml with
          | R.Database.Insert _ ->
            List.fold_left
              (fun acc (fk : R.Table.foreign_key) ->
                match tbl_opt s.step_db fk.R.Table.fk_ref_table with
                | Some _ -> add acc (s.step_db, fk.R.Table.fk_ref_table)
                | None -> acc)
              acc
              (R.Table.schema tbl).R.Table.foreign_keys
          | R.Database.Delete _ ->
            List.fold_left
              (fun acc other ->
                if
                  List.exists
                    (fun (fk : R.Table.foreign_key) ->
                      fk.R.Table.fk_ref_table = tn)
                    (R.Table.schema other).R.Table.foreign_keys
                then add acc (s.step_db, R.Table.name other)
                else acc)
              acc
              (R.Database.tables (db_of s.step_db))
          | R.Database.Update _ -> acc))
      [] plan
  in
  (* the deadlock-avoiding total order: sorted by (db name, table name) *)
  List.sort compare locks

let execute ~db_of plan =
  if plan = [] then { committed = true; statements = 0; reason = None }
  else begin
    let db_names =
      List.sort_uniq String.compare (List.map (fun s -> s.step_db) plan)
    in
    let dbs = List.map db_of db_names in
    (* acquire the per-table write locks in the global order before the
       XA round begins; every concurrent submit sorts its lockset the
       same way, so two submits can never hold-and-wait in a cycle.
       Disjoint locksets proceed in parallel. *)
    let lock_tbls =
      List.filter_map
        (fun (dbn, tn) -> R.Database.find_table (db_of dbn) tn)
        (lockset ~db_of plan)
    in
    List.iter R.Table.lock_write lock_tbls;
    Fun.protect
      ~finally:(fun () -> List.iter R.Table.unlock_write (List.rev lock_tbls))
    @@ fun () ->
    let count = ref 0 in
    match
      R.Xa.run dbs (fun () ->
          List.iter
            (fun s ->
              let db = db_of s.step_db in
              let affected = R.Database.exec db s.step_dml in
              (match s.step_dml with
              | R.Database.Update { table; _ } when affected = 0 ->
                R.Table.violation
                  "optimistic concurrency conflict: %s row in %s was changed \
                   or removed by another client"
                  table s.step_db
              | R.Database.Delete { table; _ } when affected = 0 ->
                R.Table.violation
                  "optimistic concurrency conflict: %s row in %s was already \
                   changed or removed"
                  table s.step_db
              | _ -> ());
              incr count)
            plan)
    with
    | Ok () -> { committed = true; statements = !count; reason = None }
    | Error reason -> { committed = false; statements = 0; reason = Some reason }
  end
