(* The relational substrate: values, predicates, tables, databases,
   transactions and two-phase commit. *)

open Util
open Core.Relational

let col name col_type nullable = { Table.col_name = name; col_type; nullable }

let people_schema =
  {
    Table.tbl_name = "PEOPLE";
    columns =
      [
        col "ID" Value.T_int false;
        col "NAME" Value.T_text false;
        col "AGE" Value.T_int true;
      ];
    primary_key = [ "ID" ];
    foreign_keys = [];
  }

let pets_schema =
  {
    Table.tbl_name = "PETS";
    columns =
      [
        col "PID" Value.T_int false;
        col "OWNER" Value.T_int false;
        col "KIND" Value.T_text true;
      ];
    primary_key = [ "PID" ];
    foreign_keys =
      [
        {
          Table.fk_columns = [ "OWNER" ];
          fk_ref_table = "PEOPLE";
          fk_ref_columns = [ "ID" ];
        };
      ];
  }

let mk_db () =
  let db = Database.create "testdb" in
  let people = Database.add_table db people_schema in
  let pets = Database.add_table db pets_schema in
  Table.insert people [| Value.Int 1; Text "Ann"; Int 34 |];
  Table.insert people [| Value.Int 2; Text "Bob"; Null |];
  Table.insert pets [| Value.Int 10; Int 1; Text "cat" |];
  (db, people, pets)

let value_tests =
  [
    case "equality across int and float" (fun () ->
        check_bool "eq" true (Value.equal (Value.Int 2) (Value.Float 2.0)));
    case "null equals null (total)" (fun () ->
        check_bool "eq" true (Value.equal Value.Null Value.Null));
    case "sql literal quoting" (fun () ->
        check_string "text" "'O''Brien'" (Value.sql_literal (Value.Text "O'Brien"));
        check_string "null" "NULL" (Value.sql_literal Value.Null);
        check_string "date" "DATE '2007-01-01'" (Value.sql_literal (Value.Date "2007-01-01")));
    case "of_string parses typed values" (fun () ->
        check_bool "int" true (Value.of_string Value.T_int " 42 " = Value.Int 42);
        check_bool "bool" true (Value.of_string Value.T_bool "true" = Value.Bool true);
        check_bool "raises" true
          (match Value.of_string Value.T_int "x" with
          | _ -> false
          | exception Failure _ -> true));
    case "matches_type: null matches everything" (fun () ->
        check_bool "null" true (Value.matches_type Value.Null Value.T_date);
        check_bool "int as float" true (Value.matches_type (Value.Int 1) Value.T_float);
        check_bool "text as int" false (Value.matches_type (Value.Text "1") Value.T_int));
  ]

let pred_tests =
  [
    case "comparison with null is false" (fun () ->
        let get _ = Value.Null in
        check_bool "eq" false (Pred.eval ~get (Pred.eq "X" (Value.Int 1)));
        check_bool "is_null" true (Pred.eval ~get (Pred.Is_null "X")));
    case "conj of empty list is true" (fun () ->
        check_bool "true" true (Pred.eval ~get:(fun _ -> Value.Null) (Pred.conj [])));
    case "and/or/not" (fun () ->
        let get = function "A" -> Value.Int 1 | _ -> Value.Int 2 in
        let p =
          Pred.And
            ( Pred.eq "A" (Value.Int 1),
              Pred.Or (Pred.eq "B" (Value.Int 9), Pred.Not (Pred.eq "B" (Value.Int 9))) )
        in
        check_bool "combo" true (Pred.eval ~get p));
    case "in list" (fun () ->
        let get _ = Value.Text "b" in
        check_bool "in" true
          (Pred.eval ~get (Pred.In ("X", [ Value.Text "a"; Value.Text "b" ]))));
    case "to_sql rendering" (fun () ->
        check_string "sql" "(A = 1 AND B <> 'x')"
          (Pred.to_sql
             (Pred.And (Pred.eq "A" (Value.Int 1), Pred.Cmp (Pred.Ne, "B", Value.Text "x")))));
  ]

let table_tests =
  [
    case "insert and scan in pk order" (fun () ->
        let _, people, _ = mk_db () in
        check_int "rows" 2 (Table.row_count people);
        let ids = List.map (fun r -> Table.get r people "ID") (Table.scan people) in
        check_bool "order" true (ids = [ Value.Int 1; Value.Int 2 ]));
    case "duplicate primary key rejected" (fun () ->
        let _, people, _ = mk_db () in
        check_bool "raises" true
          (match Table.insert people [| Value.Int 1; Text "Dup"; Null |] with
          | () -> false
          | exception Table.Constraint_violation _ -> true));
    case "null in non-nullable column rejected" (fun () ->
        let _, people, _ = mk_db () in
        check_bool "raises" true
          (match Table.insert people [| Value.Int 3; Null; Null |] with
          | () -> false
          | exception Table.Constraint_violation _ -> true));
    case "type mismatch rejected" (fun () ->
        let _, people, _ = mk_db () in
        check_bool "raises" true
          (match Table.insert people [| Value.Int 3; Text "C"; Text "old" |] with
          | () -> false
          | exception Table.Constraint_violation _ -> true));
    case "insert_named fills nullable columns" (fun () ->
        let _, people, _ = mk_db () in
        let row = Table.insert_named people [ ("ID", Value.Int 5); ("NAME", Value.Text "Eve") ] in
        check_bool "age null" true (Table.get row people "AGE" = Value.Null));
    case "insert_named rejects unknown columns" (fun () ->
        let _, people, _ = mk_db () in
        check_bool "raises" true
          (match Table.insert_named people [ ("ID", Value.Int 6); ("NAME", Value.Text "x"); ("SHOE", Value.Int 44) ] with
          | _ -> false
          | exception Table.Constraint_violation _ -> true));
    case "select with predicate" (fun () ->
        let _, people, _ = mk_db () in
        check_int "matches" 1
          (List.length (Table.select people (Pred.Cmp (Pred.Gt, "AGE", Value.Int 30)))));
    case "update_rows returns old and new" (fun () ->
        let _, people, _ = mk_db () in
        let olds, news = Table.update_rows people (Pred.eq "ID" (Value.Int 1)) [ ("AGE", Value.Int 35) ] in
        check_int "olds" 1 (List.length olds);
        check_bool "old age" true (Table.get (List.hd olds) people "AGE" = Value.Int 34);
        check_bool "new age" true (Table.get (List.hd news) people "AGE" = Value.Int 35));
    case "update of pk re-keys the row" (fun () ->
        let _, people, _ = mk_db () in
        ignore (Table.update_rows people (Pred.eq "ID" (Value.Int 2)) [ ("ID", Value.Int 9) ]);
        check_bool "found" true (Table.find_pk people [ Value.Int 9 ] <> None);
        check_bool "gone" true (Table.find_pk people [ Value.Int 2 ] = None));
    case "pk collision during update restores state" (fun () ->
        let _, people, _ = mk_db () in
        (match Table.update_rows people (Pred.eq "ID" (Value.Int 2)) [ ("ID", Value.Int 1) ] with
        | _ -> Alcotest.fail "expected constraint violation"
        | exception Table.Constraint_violation _ -> ());
        check_int "rows preserved" 2 (Table.row_count people));
    case "delete_rows" (fun () ->
        let _, people, _ = mk_db () in
        let gone = Table.delete_rows people (Pred.eq "NAME" (Value.Text "Bob")) in
        check_int "deleted" 1 (List.length gone);
        check_int "left" 1 (Table.row_count people));
  ]

let database_tests =
  [
    case "exec insert logs SQL" (fun () ->
        let db, _, _ = mk_db () in
        Database.clear_log db;
        let n =
          Database.exec db
            (Database.Insert
               { table = "PEOPLE"; columns = [ "ID"; "NAME" ]; values = [ Value.Int 7; Value.Text "Gil" ] })
        in
        check_int "affected" 1 n;
        check_bool "logged" true
          (Database.sql_log db = [ "INSERT INTO PEOPLE (ID, NAME) VALUES (7, 'Gil')" ]));
    case "exec update affected count" (fun () ->
        let db, _, _ = mk_db () in
        let n =
          Database.exec db
            (Database.Update { table = "PEOPLE"; set = [ ("AGE", Value.Int 1) ]; where = Pred.True })
        in
        check_int "affected" 2 n);
    case "conditioned update misses" (fun () ->
        let db, _, _ = mk_db () in
        let n =
          Database.exec db
            (Database.Update
               { table = "PEOPLE"; set = [ ("AGE", Value.Int 1) ];
                 where = Pred.eq "NAME" (Value.Text "Zeb") })
        in
        check_int "affected" 0 n);
    case "fk violation on insert" (fun () ->
        let db, _, _ = mk_db () in
        check_bool "raises" true
          (match
             Database.exec db
               (Database.Insert
                  { table = "PETS"; columns = [ "PID"; "OWNER" ]; values = [ Value.Int 11; Value.Int 99 ] })
           with
          | _ -> false
          | exception Database.Db_error _ -> true));
    case "fk blocks delete of referenced row" (fun () ->
        let db, _, _ = mk_db () in
        check_bool "raises" true
          (match
             Database.exec db
               (Database.Delete { table = "PEOPLE"; where = Pred.eq "ID" (Value.Int 1) })
           with
          | _ -> false
          | exception Database.Db_error _ -> true));
    case "delete of unreferenced row fine" (fun () ->
        let db, _, _ = mk_db () in
        check_int "affected" 1
          (Database.exec db
             (Database.Delete { table = "PEOPLE"; where = Pred.eq "ID" (Value.Int 2) })));
    case "rollback undoes inserts, updates and deletes" (fun () ->
        let db, people, _ = mk_db () in
        Database.begin_tx db;
        ignore (Database.exec db
            (Database.Insert { table = "PEOPLE"; columns = [ "ID"; "NAME" ]; values = [ Value.Int 8; Value.Text "H" ] }));
        ignore (Database.exec db
            (Database.Update { table = "PEOPLE"; set = [ ("NAME", Value.Text "Annie") ]; where = Pred.eq "ID" (Value.Int 1) }));
        ignore (Database.exec db
            (Database.Delete { table = "PEOPLE"; where = Pred.eq "ID" (Value.Int 2) }));
        Database.rollback db;
        check_int "rows back" 2 (Table.row_count people);
        check_bool "name back" true
          (match Table.find_pk people [ Value.Int 1 ] with
          | Some row -> Table.get row people "NAME" = Value.Text "Ann"
          | None -> false);
        check_bool "deleted back" true (Table.find_pk people [ Value.Int 2 ] <> None));
    case "commit keeps changes" (fun () ->
        let db, people, _ = mk_db () in
        Database.begin_tx db;
        ignore (Database.exec db
            (Database.Insert { table = "PEOPLE"; columns = [ "ID"; "NAME" ]; values = [ Value.Int 8; Value.Text "H" ] }));
        Database.commit db;
        check_int "rows" 3 (Table.row_count people));
    case "nested begin rejected" (fun () ->
        let db, _, _ = mk_db () in
        Database.begin_tx db;
        check_bool "raises" true
          (match Database.begin_tx db with
          | () -> false
          | exception Database.Db_error _ -> true));
    case "statement failure injection" (fun () ->
        let db, _, _ = mk_db () in
        Core.Resilience.Faults.set_fail_after (Database.faults db) (Some 1);
        ignore (Database.exec db
            (Database.Delete { table = "PETS"; where = Pred.True }));
        check_bool "raises" true
          (match Database.exec db (Database.Delete { table = "PETS"; where = Pred.True }) with
          | _ -> false
          | exception Database.Db_error _ -> true));
    prop "insert then delete is the identity on row count"
      QCheck.(small_list (int_range 100 200))
      (fun ids ->
        let db = Database.create "p" in
        let t = Database.add_table db people_schema in
        let before = Table.row_count t in
        let unique = List.sort_uniq compare ids in
        List.iter
          (fun id -> ignore (Database.exec db
               (Database.Insert { table = "PEOPLE"; columns = [ "ID"; "NAME" ]; values = [ Value.Int id; Value.Text "x" ] })))
          unique;
        List.iter
          (fun id -> ignore (Database.exec db
               (Database.Delete { table = "PEOPLE"; where = Pred.eq "ID" (Value.Int id) })))
          unique;
        Table.row_count t = before);
  ]

let xa_tests =
  let two_dbs () =
    let a = Database.create "a" in
    let ta = Database.add_table a people_schema in
    let b = Database.create "b" in
    let tb = Database.add_table b people_schema in
    (a, ta, b, tb)
  in
  let ins db id =
    ignore (Database.exec db
        (Database.Insert { table = "PEOPLE"; columns = [ "ID"; "NAME" ]; values = [ Value.Int id; Value.Text "x" ] }))
  in
  [
    case "successful 2pc commits both" (fun () ->
        let a, ta, b, tb = two_dbs () in
        (match Xa.run [ a; b ] (fun () -> ins a 1; ins b 2) with
        | Ok () -> ()
        | Error m -> Alcotest.fail m);
        check_int "a" 1 (Table.row_count ta);
        check_int "b" 1 (Table.row_count tb));
    case "prepare failure rolls back both" (fun () ->
        let a, ta, b, tb = two_dbs () in
        Core.Resilience.Faults.set_fail_on_prepare (Database.faults b) true;
        (match Xa.run [ a; b ] (fun () -> ins a 1; ins b 2) with
        | Ok () -> Alcotest.fail "expected abort"
        | Error _ -> ());
        check_int "a" 0 (Table.row_count ta);
        check_int "b" 0 (Table.row_count tb));
    case "statement failure during work aborts all" (fun () ->
        let a, ta, b, tb = two_dbs () in
        Core.Resilience.Faults.set_fail_after (Database.faults b) (Some 0);
        (match Xa.run [ a; b ] (fun () -> ins a 1; ins b 2) with
        | Ok () -> Alcotest.fail "expected abort"
        | Error _ -> ());
        check_int "a" 0 (Table.row_count ta);
        check_int "b" 0 (Table.row_count tb));
    case "trace records the protocol phases" (fun () ->
        let a, _, b, _ = two_dbs () in
        let _, trace = Xa.run_traced [ a; b ] (fun () -> ins a 1) in
        check_bool "shape" true
          (trace
          = [ Xa.Begin "a"; Xa.Begin "b"; Xa.Prepare_ok "a"; Xa.Prepare_ok "b";
              Xa.Commit "a"; Xa.Commit "b" ]));
    case "trace on prepare failure shows rollbacks" (fun () ->
        let a, _, b, _ = two_dbs () in
        Core.Resilience.Faults.set_fail_on_prepare (Database.faults a) true;
        let _, trace = Xa.run_traced [ a; b ] (fun () -> ins b 1) in
        check_bool "has rollback" true
          (List.mem (Xa.Rollback "a") trace && List.mem (Xa.Rollback "b") trace);
        check_bool "no commit" true
          (not (List.exists (function Xa.Commit _ -> true | _ -> false) trace)));
    case "exceptions from work propagate after rollback" (fun () ->
        let a, ta, b, _ = two_dbs () in
        (match Xa.run [ a; b ] (fun () -> ins a 1; failwith "boom") with
        | _ -> Alcotest.fail "expected exception"
        | exception Failure m -> check_string "msg" "boom" m);
        check_int "rolled back" 0 (Table.row_count ta);
        check_bool "tx closed" true (not (Database.in_tx a) && not (Database.in_tx b)));
    prop "atomicity under random prepare-fault patterns"
      ~count:50
      QCheck.(pair bool bool)
      (fun (fa, fb) ->
        let a, ta, b, tb = two_dbs () in
        Core.Resilience.Faults.set_fail_on_prepare (Database.faults a) fa;
        Core.Resilience.Faults.set_fail_on_prepare (Database.faults b) fb;
        let result = Xa.run [ a; b ] (fun () -> ins a 1; ins b 2) in
        let counts = (Table.row_count ta, Table.row_count tb) in
        match result with
        | Ok () -> (not fa) && (not fb) && counts = (1, 1)
        | Error _ -> (fa || fb) && counts = (0, 0));
  ]

(* The MVCC version lifecycle at the table grain: cursors pin the
   version current when they opened, superseded versions collect as
   soon as nothing pins them, and transactions publish exactly one new
   version per written table. *)
let mvcc_tests =
  [
    case "a cursor pins its version across commits; exhausting collects it"
      (fun () ->
        let db, people, _ = mk_db () in
        let instr = Core.Instr.create () in
        Core.Instr.preregister instr;
        Core.Instr.enable instr;
        Database.set_instr db instr;
        let v0 = Table.current_version people in
        let cur = Table.scan_cursor people in
        let first = Option.get (Xdm.Cursor.next cur) in
        (* five commits supersede the pinned version five times over;
           only the cursor's version and the head stay live — the
           intermediate versions collect at the moment each is
           superseded *)
        for i = 1 to 5 do
          ignore
            (Database.exec db
               (Update
                  {
                    table = "PEOPLE";
                    set = [ ("AGE", Value.Int (40 + i)) ];
                    where = Pred.eq "ID" (Value.Int 1);
                  }))
        done;
        check_int "head moved five versions" (v0 + 5)
          (Table.current_version people);
        check_int "live versions bounded to pinned + head" 2
          (Table.live_versions people);
        (* the cursor still walks its pinned version: Ann's age is the
           original 34, not any of the five committed updates *)
        check_bool "pinned row unchanged" true
          (Table.get first people "AGE" = Value.Int 34);
        let rec drain () =
          match Xdm.Cursor.next cur with Some _ -> drain () | None -> ()
        in
        drain ();
        check_int "exhausting the cursor collects its version" 1
          (Table.live_versions people);
        let c name =
          Option.value ~default:0
            (List.assoc_opt name (Core.Instr.stats instr).Core.Instr.counters)
        in
        check_bool "collections counted" true
          (c Core.Instr.K.mvcc_versions_collected >= 5);
        (* the gauge tracks published versions only — the birth version
           predates the publish lifecycle, so all five publishes have
           been matched by five collections and the gauge is back to 0 *)
        check_int "live gauge balanced after the drain" 0
          (c Core.Instr.K.mvcc_versions_live));
    case "rollback discards the working store and publishes nothing"
      (fun () ->
        let db, people, _ = mk_db () in
        let v0 = Table.current_version people in
        Database.begin_tx db;
        ignore
          (Database.exec db
             (Insert
                {
                  table = "PEOPLE";
                  columns = [ "ID"; "NAME" ];
                  values = [ Value.Int 9; Value.Text "Zoe" ];
                }));
        Database.rollback db;
        check_int "no version published" v0 (Table.current_version people);
        check_int "row count untouched" 2 (Table.row_count people);
        check_bool "write lock released" true
          (fst (Table.lock_info people) = None));
    case "a transaction publishes one version per written table" (fun () ->
        let db, people, _ = mk_db () in
        let v0 = Table.current_version people in
        Database.begin_tx db;
        for i = 0 to 2 do
          ignore
            (Database.exec db
               (Insert
                  {
                    table = "PEOPLE";
                    columns = [ "ID"; "NAME" ];
                    values = [ Value.Int (20 + i); Value.Text "New" ];
                  }))
        done;
        check_int "nothing published before commit" v0
          (Table.current_version people);
        Database.commit db;
        check_int "three statements, one version" (v0 + 1)
          (Table.current_version people);
        check_int "no stray live versions" 1 (Table.live_versions people));
    case "an auto-commit statement that fails publishes nothing" (fun () ->
        let db, _, pets = mk_db () in
        let v0 = Table.current_version pets in
        (match
           Database.exec db
             (Insert
                {
                  table = "PETS";
                  columns = [ "PID"; "OWNER" ];
                  values = [ Value.Int 77; Value.Int 99 ];
                })
         with
        | _ -> Alcotest.fail "fk violation not raised"
        | exception Database.Db_error _ -> ());
        check_int "no version published" v0 (Table.current_version pets);
        check_int "the violating row is not there" 1 (Table.row_count pets);
        check_bool "write lock released" true
          (fst (Table.lock_info pets) = None));
  ]

(* Primary-key point lookups: equalities on every primary-key column
   read the row from the version's row map, so [rows.scanned] counts
   one row, through [select] and [select_cursor] alike — and the
   result is what a full scan filtered by the predicate returns, also
   inside a snapshot pinned before a concurrent update of that row. *)
let pk_lookup_tests =
  let counted () =
    let db = Database.create "pkdb" in
    let instr = Core.Instr.create () in
    Core.Instr.preregister instr;
    Core.Instr.enable instr;
    Database.set_instr db instr;
    let scanned f =
      let c () =
        Option.value ~default:0
          (List.assoc_opt Core.Instr.K.rows_scanned
             (Core.Instr.stats instr).Core.Instr.counters)
      in
      let before = c () in
      let r = f () in
      (r, c () - before)
    in
    (db, scanned)
  in
  let drain cur =
    let rec go acc =
      match Xdm.Cursor.next cur with Some r -> go (r :: acc) | None -> List.rev acc
    in
    go []
  in
  (* both read paths against the filtered full scan, with the number of
     rows each examined *)
  let check_reads scanned t pred ~examined =
    let expect =
      List.filter (fun row -> Pred.eval ~get:(Table.get row t) pred) (Table.scan t)
    in
    let via_select, n = scanned (fun () -> Table.select t pred) in
    let via_cursor, m = scanned (fun () -> drain (Table.select_cursor t pred)) in
    let what = Pred.to_sql pred in
    check_bool (what ^ ": select = filtered scan") true (via_select = expect);
    check_bool (what ^ ": select_cursor = filtered scan") true (via_cursor = expect);
    check_int (what ^ ": rows examined by select") examined n;
    check_int (what ^ ": rows examined by select_cursor") examined m;
    expect
  in
  [
    case "a primary-key equality examines one row" (fun () ->
        let db, scanned = counted () in
        let t =
          Database.add_table db
            {
              Table.tbl_name = "C";
              columns = [ col "CID" Value.T_text false; col "NAME" Value.T_text false ];
              primary_key = [ "CID" ];
              foreign_keys = [];
            }
        in
        for i = 1 to 20 do
          Table.insert t
            [| Value.Text (Printf.sprintf "C%d" i); Text (Printf.sprintf "n%d" i) |]
        done;
        let key = Pred.eq "CID" (Value.Text "C7") in
        check_int "one row" 1 (List.length (check_reads scanned t key ~examined:1));
        ignore
          (check_reads scanned t ~examined:1
             (Pred.And (Pred.eq "NAME" (Value.Text "n8"), key)));
        ignore (check_reads scanned t (Pred.eq "CID" (Value.Text "C99")) ~examined:0);
        (* a snapshot pinned before a concurrent update of the row reads
           the pinned row, still by one lookup *)
        let pinned =
          Table.with_snapshot [ t ] (fun () ->
              let before = Table.select t key in
              Domain.join
                (Domain.spawn (fun () ->
                     ignore
                       (Database.exec db
                          (Update
                             {
                               table = "C";
                               set = [ ("NAME", Value.Text "changed") ];
                               where = key;
                             }))));
              let during = check_reads scanned t key ~examined:1 in
              check_bool "the pinned read ignores the update" true (during = before);
              during)
        in
        let after = check_reads scanned t key ~examined:1 in
        check_bool "the update is visible after the snapshot" true
          (after <> pinned
          && List.map (fun row -> Table.get row t "NAME") after
             = [ Value.Text "changed" ]));
    case "a numeric key on a DOUBLE primary key still scans" (fun () ->
        (* Int 3 equals Float 3.0 under the predicate but not in the row
           map, so the lookup would miss the row *)
        let db, scanned = counted () in
        let t =
          Database.add_table db
            {
              Table.tbl_name = "D";
              columns = [ col "K" Value.T_float false ];
              primary_key = [ "K" ];
              foreign_keys = [];
            }
        in
        List.iter (fun v -> Table.insert t [| v |]) [ Value.Float 3.0; Float 4.5 ];
        check_int "the row is found" 1
          (List.length
             (check_reads scanned t (Pred.eq "K" (Value.Int 3)) ~examined:2)));
  ]

let suites =
  [
    ("relational.value", value_tests);
    ("relational.pred", pred_tests);
    ("relational.table", table_tests);
    ("relational.mvcc", mvcc_tests);
    ("relational.pk-lookup", pk_lookup_tests);
    ("relational.database", database_tests);
    ("relational.xa", xa_tests);
  ]
