type column = { col_name : string; col_type : Value.col_type; nullable : bool }

type foreign_key = {
  fk_columns : string list;
  fk_ref_table : string;
  fk_ref_columns : string list;
}

type schema = {
  tbl_name : string;
  columns : column list;
  primary_key : string list;
  foreign_keys : foreign_key list;
}

type row = Value.t array

exception Constraint_violation of string

(* Persistent row store keyed on the primary key. Polymorphic compare
   on [Value.t list] gives the same key identity the old Hashtbl store
   had and the same ascending-pk iteration order the old sorted scan
   produced. *)
module PkMap = Map.Make (struct
  type t = Value.t list

  let compare = compare
end)

(* The versioned store: rows plus the secondary indexes (key values ->
   pk list). Indexes live inside the store so a reader pinned to an
   older version keeps a consistent plan. All maps are persistent —
   versions share structure, so publishing one copies nothing. *)
type store = {
  s_rows : row PkMap.t;
  s_sec : (string list * Value.t list list PkMap.t) list;
}

type version = {
  v_id : int;
  v_store : store;
  (* pk-sorted row array, built on first scan of this version. Atomic
     so concurrent first scans race benignly (both build, one wins). *)
  v_scan : row array option Atomic.t;
}

(* per-version GC accounting: a version is collected when it has been
   superseded by a newer publish and nothing (snapshot or cursor) pins
   it anymore *)
type vmeta = { mutable pins : int; mutable superseded : bool }

type t = {
  schema : schema;
  indices : (string, int) Hashtbl.t;
  uid : int;  (* process-unique id, the ambient-snapshot key *)
  m : Mutex.t;  (* guards writer/waiters/vmeta/published swap *)
  cond : Condition.t;
  mutable writer : int option;  (* holder Domain.id *)
  mutable waiters : int;
  mutable published : version;
  mutable working : store option;  (* holder-private, uncommitted *)
  mutable next_vid : int;
  vmeta : (int, vmeta) Hashtbl.t;
  mutable instr : Instr.t;
}

let next_uid = Atomic.make 0
let self_id () = (Domain.self () :> int)

let create schema =
  if schema.primary_key = [] then
    invalid_arg
      (Printf.sprintf "table %s must have a primary key" schema.tbl_name);
  let indices = Hashtbl.create 8 in
  List.iteri
    (fun i c -> Hashtbl.replace indices c.col_name i)
    schema.columns;
  List.iter
    (fun k ->
      if not (Hashtbl.mem indices k) then
        invalid_arg
          (Printf.sprintf "table %s: unknown primary key column %s"
             schema.tbl_name k))
    schema.primary_key;
  let v0 =
    { v_id = 0; v_store = { s_rows = PkMap.empty; s_sec = [] };
      v_scan = Atomic.make None }
  in
  let vmeta = Hashtbl.create 4 in
  Hashtbl.replace vmeta 0 { pins = 0; superseded = false };
  {
    schema;
    indices;
    uid = Atomic.fetch_and_add next_uid 1;
    m = Mutex.create ();
    cond = Condition.create ();
    writer = None;
    waiters = 0;
    published = v0;
    working = None;
    next_vid = 1;
    vmeta;
    instr = Instr.disabled;
  }

let schema t = t.schema
let name t = t.schema.tbl_name
let set_instr t i = t.instr <- i

let col_index t col =
  match Hashtbl.find_opt t.indices col with
  | Some i -> i
  | None -> raise Not_found

let get row t col = row.(col_index t col)
let pk_of_row t row = List.map (fun k -> get row t k) t.schema.primary_key

(* ---- the global publish lock (reentrant) ----

   Multi-table commits publish every new version inside it, and
   snapshot capture reads the published heads inside it, so a captured
   version vector can never straddle a commit. *)

let pub_m = Mutex.create ()
let pub_cond = Condition.create ()
let pub_holder = ref (-1)
let pub_depth = ref 0

let publish_all f =
  let self = self_id () in
  Mutex.lock pub_m;
  if !pub_holder = self then incr pub_depth
  else begin
    while !pub_depth > 0 do
      Condition.wait pub_cond pub_m
    done;
    pub_holder := self;
    pub_depth := 1
  end;
  Mutex.unlock pub_m;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock pub_m;
      decr pub_depth;
      if !pub_depth = 0 then begin
        pub_holder := -1;
        Condition.broadcast pub_cond
      end;
      Mutex.unlock pub_m)
    f

(* ---- version pinning and collection (all under t.m) ---- *)

let collect_locked t vid =
  Hashtbl.remove t.vmeta vid;
  Instr.bump t.instr ~n:(-1) Instr.K.mvcc_versions_live;
  Instr.bump t.instr Instr.K.mvcc_versions_collected

let pin_locked t v =
  match Hashtbl.find_opt t.vmeta v.v_id with
  | Some m -> m.pins <- m.pins + 1
  | None -> ()

let pin t v =
  Mutex.lock t.m;
  pin_locked t v;
  Mutex.unlock t.m

let unpin t v =
  Mutex.lock t.m;
  (match Hashtbl.find_opt t.vmeta v.v_id with
  | Some m ->
    m.pins <- m.pins - 1;
    if m.pins <= 0 && m.superseded then collect_locked t v.v_id
  | None -> ());
  Mutex.unlock t.m

(* pin the published head, atomically with respect to publish swaps *)
let pin_published t =
  Mutex.lock t.m;
  let v = t.published in
  pin_locked t v;
  Mutex.unlock t.m;
  v

(* ---- ambient snapshots (domain-local) ---- *)

type snapshot = { sn_entries : (int, t * version) Hashtbl.t }

let ambient_key : snapshot option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let snapshot tables =
  publish_all (fun () ->
      let h = Hashtbl.create 16 in
      List.iter
        (fun t ->
          if not (Hashtbl.mem h t.uid) then
            Hashtbl.add h t.uid (t, pin_published t))
        tables;
      { sn_entries = h })

let release snap =
  Hashtbl.iter (fun _ (t, v) -> unpin t v) snap.sn_entries

let with_snapshot tables f =
  let slot = Domain.DLS.get ambient_key in
  match !slot with
  | Some _ -> f ()  (* nested query: reuse the outer snapshot *)
  | None ->
    let snap = snapshot tables in
    slot := Some snap;
    Fun.protect
      ~finally:(fun () ->
        slot := None;
        release snap)
      f

(* ---- write locking ---- *)

let lock_write t =
  Mutex.lock t.m;
  if t.writer <> None then Instr.bump t.instr Instr.K.mvcc_lock_contended;
  t.waiters <- t.waiters + 1;
  while t.writer <> None do
    Condition.wait t.cond t.m
  done;
  t.waiters <- t.waiters - 1;
  t.writer <- Some (self_id ());
  Mutex.unlock t.m;
  Instr.bump t.instr Instr.K.mvcc_lock_acquired

let holds_write t = t.writer = Some (self_id ())

let unlock_write t =
  Mutex.lock t.m;
  t.working <- None;
  t.writer <- None;
  Condition.broadcast t.cond;
  Mutex.unlock t.m

let discard_write t = t.working <- None

let commit_write t =
  if not (holds_write t) then
    invalid_arg (t.schema.tbl_name ^ ": commit_write without the write lock");
  match t.working with
  | None -> ()
  | Some s when s == t.published.v_store -> t.working <- None
  | Some s ->
    publish_all (fun () ->
        Mutex.lock t.m;
        let old = t.published in
        let vid = t.next_vid in
        t.next_vid <- vid + 1;
        let v = { v_id = vid; v_store = s; v_scan = Atomic.make None } in
        Hashtbl.replace t.vmeta vid { pins = 0; superseded = false };
        Instr.bump t.instr Instr.K.mvcc_versions_live;
        t.published <- v;
        t.working <- None;
        (match Hashtbl.find_opt t.vmeta old.v_id with
        | Some m ->
          m.superseded <- true;
          if m.pins <= 0 then collect_locked t old.v_id
        | None -> ());
        Mutex.unlock t.m;
        (* read-your-own-writes: if this domain's ambient snapshot pins
           the table, advance its pin to the version just published *)
        match !(Domain.DLS.get ambient_key) with
        | Some snap -> (
          match Hashtbl.find_opt snap.sn_entries t.uid with
          | Some (_, oldpin) ->
            pin t v;
            Hashtbl.replace snap.sn_entries t.uid (t, v);
            unpin t oldpin
          | None -> ())
        | None -> ())

(* ---- read views ----

   Priority: a domain holding the write lock sees its own working store
   (read-your-own-writes for FK checks and multi-statement submits);
   otherwise the ambient snapshot's pinned version if one is installed;
   otherwise the published head. *)

let view t =
  if holds_write t then
    match t.working with Some s -> s | None -> t.published.v_store
  else
    match !(Domain.DLS.get ambient_key) with
    | Some snap -> (
      match Hashtbl.find_opt snap.sn_entries t.uid with
      | Some (_, v) -> v.v_store
      | None -> t.published.v_store)
    | None -> t.published.v_store

(* the version identity of [view]: what the current domain's reads
   resolve to. A held write lock with a working store is an uncommitted
   view with no version yet — report -1 so version-keyed consumers (the
   result cache) bypass rather than tag uncommitted data with a
   published version. *)
let view_version t =
  if holds_write t then
    match t.working with Some _ -> -1 | None -> t.published.v_id
  else
    match !(Domain.DLS.get ambient_key) with
    | Some snap -> (
      match Hashtbl.find_opt snap.sn_entries t.uid with
      | Some (_, v) -> v.v_id
      | None -> t.published.v_id)
    | None -> t.published.v_id

let snapshot_find_pk snap t pk =
  let s =
    match Hashtbl.find_opt snap.sn_entries t.uid with
    | Some (_, v) -> v.v_store
    | None -> t.published.v_store
  in
  PkMap.find_opt pk s.s_rows

let row_count t = PkMap.cardinal (view t).s_rows
let find_pk t pk = PkMap.find_opt pk (view t).s_rows

(* ---- mutation plumbing ----

   [mutate t f] applies the pure store transform [f]. Under a held
   write lock (a Database transaction or a pre-locked XA submit) the
   result becomes the working store, published later by
   [commit_write]. Otherwise the statement auto-commits: lock, apply,
   publish, unlock — a failing transform leaves the table untouched. *)

let mutate t f =
  if holds_write t then begin
    let s = match t.working with Some s -> s | None -> t.published.v_store in
    let s', r = f s in
    t.working <- Some s';
    r
  end
  else begin
    lock_write t;
    Fun.protect
      ~finally:(fun () -> unlock_write t)
      (fun () ->
        let s', r = f t.published.v_store in
        t.working <- Some s';
        commit_write t;
        r)
  end

let check_row t row =
  if Array.length row <> List.length t.schema.columns then
    raise
      (Constraint_violation
         (Printf.sprintf "%s: row arity %d does not match schema arity %d"
            t.schema.tbl_name (Array.length row)
            (List.length t.schema.columns)));
  List.iteri
    (fun i c ->
      let v = row.(i) in
      if v = Value.Null && not c.nullable then
        raise
          (Constraint_violation
             (Printf.sprintf "%s.%s: NULL in non-nullable column"
                t.schema.tbl_name c.col_name));
      if not (Value.matches_type v c.col_type) then
        raise
          (Constraint_violation
             (Printf.sprintf "%s.%s: value %s does not match type %s"
                t.schema.tbl_name c.col_name (Value.sql_literal v)
                (Value.type_name c.col_type))))
    t.schema.columns

(* ---- secondary index maintenance (persistent) ---- *)

let index_key t cols row = List.map (fun c -> get row t c) cols

let sec_add t row sec =
  let pk = pk_of_row t row in
  List.map
    (fun (cols, m) ->
      let key = index_key t cols row in
      let l = match PkMap.find_opt key m with Some l -> l | None -> [] in
      (cols, PkMap.add key (pk :: l) m))
    sec

let sec_remove t row sec =
  let pk = pk_of_row t row in
  List.map
    (fun (cols, m) ->
      let key = index_key t cols row in
      match PkMap.find_opt key m with
      | Some l -> (
        match List.filter (fun p -> p <> pk) l with
        | [] -> (cols, PkMap.remove key m)
        | l' -> (cols, PkMap.add key l' m))
      | None -> (cols, m))
    sec

let store_add t s row =
  {
    s_rows = PkMap.add (pk_of_row t row) row s.s_rows;
    s_sec = sec_add t row s.s_sec;
  }

let store_remove t s row =
  {
    s_rows = PkMap.remove (pk_of_row t row) s.s_rows;
    s_sec = sec_remove t row s.s_sec;
  }

let create_index t cols =
  List.iter
    (fun c ->
      if not (Hashtbl.mem t.indices c) then
        invalid_arg
          (Printf.sprintf "%s: unknown index column %s" t.schema.tbl_name c))
    cols;
  mutate t (fun s ->
      if List.exists (fun (cs, _) -> cs = cols) s.s_sec then (s, ())
      else begin
        let m =
          PkMap.fold
            (fun pk row m ->
              let key = index_key t cols row in
              let l =
                match PkMap.find_opt key m with Some l -> l | None -> []
              in
              PkMap.add key (pk :: l) m)
            s.s_rows PkMap.empty
        in
        ({ s with s_sec = (cols, m) :: s.s_sec }, ())
      end)

let drop_indexes t = mutate t (fun s -> ({ s with s_sec = [] }, ()))
let indexed_columns t = List.map fst (view t).s_sec

let store_insert t s row =
  check_row t row;
  let pk = pk_of_row t row in
  if List.exists (Value.equal Value.Null) pk then
    raise
      (Constraint_violation
         (Printf.sprintf "%s: NULL in primary key" t.schema.tbl_name));
  if PkMap.mem pk s.s_rows then
    raise
      (Constraint_violation
         (Printf.sprintf "%s: duplicate primary key (%s)" t.schema.tbl_name
            (String.concat ", " (List.map Value.to_string pk))));
  store_add t s row

let insert t row = mutate t (fun s -> (store_insert t s row, ()))

let insert_named t pairs =
  let row =
    Array.of_list
      (List.map
         (fun c ->
           match List.assoc_opt c.col_name pairs with
           | Some v -> v
           | None -> Value.Null)
         t.schema.columns)
  in
  List.iter
    (fun (col, _) ->
      if not (Hashtbl.mem t.indices col) then
        raise
          (Constraint_violation
             (Printf.sprintf "%s: unknown column %s" t.schema.tbl_name col)))
    pairs;
  insert t row;
  row

(* ---- reads ---- *)

let scan_array v =
  match Atomic.get v.v_scan with
  | Some a -> a
  | None ->
    let a = Array.of_seq (Seq.map snd (PkMap.to_seq v.v_store.s_rows)) in
    Atomic.set v.v_scan (Some a);
    a

let store_rows s = List.map snd (PkMap.bindings s.s_rows)

let scan t =
  let rows = store_rows (view t) in
  Instr.bump t.instr ~n:(List.length rows) Instr.K.rows_scanned;
  Instr.bump t.instr ~n:(List.length rows) Instr.K.rows_fetched;
  rows

(* Resolve the read view for a cursor: a writer scanning its own
   working store materializes it (rare — only mid-transaction reads);
   every other open pins the resolved version so GC leaves it alone
   until the cursor is done, and the cursor walks the version's row
   array directly — no per-open row copy. *)
type cursor_view = Cv_store of store | Cv_version of version

let cursor_view t =
  if holds_write t && t.working <> None then Cv_store (Option.get t.working)
  else
    match !(Domain.DLS.get ambient_key) with
    | Some snap -> (
      match Hashtbl.find_opt snap.sn_entries t.uid with
      | Some (_, v) ->
        pin t v;
        Cv_version v
      | None -> Cv_version (pin_published t))
    | None -> Cv_version (pin_published t)

(* An opened read: the view resolved (and pinned) once, so a caller can
   look at it before choosing to scan it or select from it. Exactly one
   of [read_scan], [read_select] or [close_read] consumes it; the first
   two hand the pin to the cursor they return. *)
type read = { r_table : t; r_view : cursor_view }

let open_read t = { r_table = t; r_view = cursor_view t }

let read_is_empty r =
  match r.r_view with
  | Cv_store s -> PkMap.is_empty s.s_rows
  | Cv_version v -> PkMap.is_empty v.v_store.s_rows

let close_read r =
  match r.r_view with Cv_version v -> unpin r.r_table v | Cv_store _ -> ()

let read_scan r =
  let t = r.r_table in
  match r.r_view with
  | Cv_store s ->
    let rest = ref (store_rows s) in
    Xdm.Cursor.make ~pure:true ~instr:t.instr (fun () ->
        match !rest with
        | [] -> None
        | row :: tl ->
          rest := tl;
          Instr.bump t.instr Instr.K.rows_scanned;
          Instr.bump t.instr Instr.K.rows_fetched;
          Some row)
  | Cv_version v ->
    let arr = scan_array v in
    let i = ref 0 in
    Xdm.Cursor.make ~pure:true ~instr:t.instr
      ~cleanup:(fun () -> unpin t v)
      (fun () ->
        if !i >= Array.length arr then None
        else begin
          let row = arr.(!i) in
          incr i;
          Instr.bump t.instr Instr.K.rows_scanned;
          Instr.bump t.instr Instr.K.rows_fetched;
          Some row
        end)

let scan_cursor t = read_scan (open_read t)

(* columns constrained by equality in a conjunctive prefix of the
   predicate *)
let rec eq_bindings = function
  | Pred.Cmp (Pred.Eq, col, v) -> [ (col, v) ]
  | Pred.And (a, b) -> eq_bindings a @ eq_bindings b
  | _ -> []

(* Does [Pred.eval]'s equality with [v] on column [col] hold only for a
   structurally equal value? Then a map lookup on [v] finds exactly the
   rows the predicate accepts. Not so for numbers on a DOUBLE column,
   which may hold Int 3 and Float 3.0 alike. *)
let exact_key t col v =
  match v with
  | Value.Int _ ->
    (List.nth t.schema.columns (col_index t col)).col_type = Value.T_int
  | Value.Float _ | Value.Null -> false
  | Value.Text _ | Value.Bool _ | Value.Date _ -> true

(* The one row named by equalities on every primary-key column, read
   from the version's row map; None when they do not cover the key. *)
let pk_lookup t s eqs =
  let key =
    List.map
      (fun c ->
        match List.assoc_opt c eqs with
        | Some v when exact_key t c v -> Some v
        | _ -> None)
      t.schema.primary_key
  in
  if List.for_all Option.is_some key then
    Some (Option.to_list (PkMap.find_opt (List.map Option.get key) s.s_rows))
  else None

(* candidate rows — a primary-key lookup, else an index probe — or None
   when neither covers the predicate *)
let probe t s pred =
  let eqs = eq_bindings pred in
  match pk_lookup t s eqs with
  | Some _ as rows -> rows
  | None ->
  List.find_map
    (fun (cols, m) ->
      match
        List.fold_left
          (fun acc c ->
            match (acc, List.assoc_opt c eqs) with
            | Some key, Some v -> Some (v :: key)
            | _ -> None)
          (Some []) (List.rev cols)
      with
      | Some key -> (
        match PkMap.find_opt key m with
        | Some pks ->
          Some
            (List.sort
               (fun a b -> compare (pk_of_row t a) (pk_of_row t b))
               (List.filter_map
                  (fun pk -> PkMap.find_opt pk s.s_rows)
                  pks))
        | None -> Some [])
      | None -> None)
    s.s_sec

let store_select t s pred =
  let result =
    match probe t s pred with
    | Some rows ->
      (* primary-key lookup or index probe: only the candidates are examined *)
      Instr.bump t.instr ~n:(List.length rows) Instr.K.rows_scanned;
      List.filter (fun row -> Pred.eval ~get:(fun c -> get row t c) pred) rows
    | None ->
      Instr.bump t.instr ~n:(PkMap.cardinal s.s_rows) Instr.K.rows_scanned;
      List.filter
        (fun row -> Pred.eval ~get:(fun c -> get row t c) pred)
        (store_rows s)
  in
  Instr.bump t.instr ~n:(List.length result) Instr.K.rows_fetched;
  result

let select t pred = store_select t (view t) pred

(* Cursor variant of [select]: the plan choice (index probe vs full
   scan) happens at open against the pinned version; each pull examines
   candidates until one satisfies the predicate, bumping [rows.scanned]
   per candidate examined and [rows.fetched] per row produced. *)
let read_select r pred =
  let t = r.r_table in
  (* pulls are pure only when the predicate cannot raise mid-stream,
     i.e. every column it mentions resolves against the schema *)
  let rec cols = function
    | Pred.True | Pred.False -> []
    | Pred.Cmp (_, c, _) | Pred.In (c, _) | Pred.Is_null c -> [ c ]
    | Pred.And (a, b) | Pred.Or (a, b) -> cols a @ cols b
    | Pred.Not a -> cols a
  in
  let pure = List.for_all (fun c -> Hashtbl.mem t.indices c) (cols pred) in
  let pull_of_list rest () =
    let rec go () =
      match !rest with
      | [] -> None
      | row :: tl ->
        rest := tl;
        Instr.bump t.instr Instr.K.rows_scanned;
        if Pred.eval ~get:(fun c -> get row t c) pred then begin
          Instr.bump t.instr Instr.K.rows_fetched;
          Some row
        end
        else go ()
    in
    go ()
  in
  match r.r_view with
  | Cv_store s ->
    let rest =
      ref (match probe t s pred with Some rows -> rows | None -> store_rows s)
    in
    Xdm.Cursor.make ~pure ~instr:t.instr (pull_of_list rest)
  | Cv_version v -> (
    let cleanup () = unpin t v in
    match probe t v.v_store pred with
    | Some rows ->
      let rest = ref rows in
      Xdm.Cursor.make ~pure ~instr:t.instr ~cleanup (pull_of_list rest)
    | None ->
      (* full scan: walk the version's row array in place *)
      let arr = scan_array v in
      let i = ref 0 in
      let rec pull () =
        if !i >= Array.length arr then None
        else begin
          let row = arr.(!i) in
          incr i;
          Instr.bump t.instr Instr.K.rows_scanned;
          if Pred.eval ~get:(fun c -> get row t c) pred then begin
            Instr.bump t.instr Instr.K.rows_fetched;
            Some row
          end
          else pull ()
        end
      in
      Xdm.Cursor.make ~pure ~instr:t.instr ~cleanup pull)

let select_cursor t pred = read_select (open_read t) pred

(* ---- writes ---- *)

let store_update t s pred set =
  List.iter
    (fun (col, _) ->
      if not (Hashtbl.mem t.indices col) then
        raise
          (Constraint_violation
             (Printf.sprintf "%s: unknown column %s" t.schema.tbl_name col)))
    set;
  let matching = store_select t s pred in
  let olds = List.map Array.copy matching in
  let news =
    List.map
      (fun row ->
        let updated = Array.copy row in
        List.iter (fun (col, v) -> updated.(col_index t col) <- v) set;
        check_row t updated;
        updated)
      matching
  in
  (* validate the re-keying up front so a collision leaves the store
     untouched *)
  let old_pks = List.map (pk_of_row t) matching in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun row ->
      let pk = pk_of_row t row in
      if List.exists (Value.equal Value.Null) pk then
        raise
          (Constraint_violation
             (Printf.sprintf "%s: NULL in primary key" t.schema.tbl_name));
      if Hashtbl.mem seen pk then
        raise
          (Constraint_violation
             (Printf.sprintf "%s: duplicate primary key after update"
                t.schema.tbl_name));
      Hashtbl.add seen pk ();
      if (not (List.mem pk old_pks)) && PkMap.mem pk s.s_rows then
        raise
          (Constraint_violation
             (Printf.sprintf "%s: primary key update collides with row (%s)"
                t.schema.tbl_name
                (String.concat ", " (List.map Value.to_string pk)))))
    news;
  let s = List.fold_left (fun s row -> store_remove t s row) s matching in
  let s = List.fold_left (fun s row -> store_add t s row) s news in
  (s, (olds, news))

let update_rows t pred set = mutate t (fun s -> store_update t s pred set)

let delete_rows t pred =
  mutate t (fun s ->
      let matching = store_select t s pred in
      let s =
        List.fold_left (fun s row -> store_remove t s row) s matching
      in
      (s, matching))

let clear t =
  mutate t (fun s ->
      ( {
          s_rows = PkMap.empty;
          s_sec = List.map (fun (cols, _) -> (cols, PkMap.empty)) s.s_sec;
        },
        () ))

(* ---- introspection ---- *)

let current_version t = t.published.v_id
let live_versions t = Hashtbl.length t.vmeta

let lock_info t =
  Mutex.lock t.m;
  let r = (t.writer, t.waiters) in
  Mutex.unlock t.m;
  r
