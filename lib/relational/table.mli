(** Tables: schemas with primary/foreign keys and a multi-versioned
    (MVCC) in-memory row store. Constraint and type checking happen
    here; transaction scoping and SQL logging live in {!Database}.

    Every committed state of a table is an immutable {e version}
    (persistent maps, so versions share structure and publishing one is
    cheap). Readers resolve rows against the version that is current
    for them — the table's published head, or the version pinned by an
    ambient {!snapshot} captured at query start — so reads never block
    on writers and never observe a half-applied changeset. Writers take
    the table's write lock, accumulate changes in a private working
    store, and {e publish} a new version at commit; publication happens
    under a global (reentrant) publish lock so multi-table commits
    become visible atomically with respect to snapshot capture. *)

type column = { col_name : string; col_type : Value.col_type; nullable : bool }

type foreign_key = {
  fk_columns : string list;
  fk_ref_table : string;
  fk_ref_columns : string list;
}

type schema = {
  tbl_name : string;
  columns : column list;
  primary_key : string list;  (** nonempty *)
  foreign_keys : foreign_key list;
}

type row = Value.t array
(** One value per schema column, in order. *)

type t

exception Constraint_violation of string

val create : schema -> t
val schema : t -> schema
val name : t -> string

val set_instr : t -> Instr.t -> unit
(** Attach an instrumentation handle (default {!Instr.disabled}):
    {!scan} and {!select} report [rows.scanned] (rows examined — all of
    them on a scan, only the candidates of a primary-key lookup or
    index probe) and
    [rows.fetched] (rows returned); the MVCC machinery reports
    [mvcc.versions.live]/[mvcc.versions.collected] and
    [mvcc.lock.acquired]/[mvcc.lock.contended]. Usually propagated from
    {!Database.set_instr}. *)

val col_index : t -> string -> int
(** @raise Not_found for unknown columns. *)

val get : row -> t -> string -> Value.t
val pk_of_row : t -> row -> Value.t list
val row_count : t -> int

val insert : t -> row -> unit
(** @raise Constraint_violation on duplicate key, type mismatch, or NULL
    in a non-nullable column. Outside a held write lock the statement
    auto-commits (lock, apply, publish, unlock); under a held lock it
    accumulates in the working store until {!commit_write}. *)

val insert_named : t -> (string * Value.t) list -> row
(** Build a row from column/value pairs (missing nullable columns become
    [Null]) and insert it; returns the stored row. *)

val find_pk : t -> Value.t list -> row option
val scan : t -> row list
(** All rows, in primary-key order (deterministic). *)

val select : t -> Pred.t -> row list

val scan_cursor : t -> row Xdm.Cursor.t
(** Pull-based {!scan}: the cursor holds a pointer to the pinned
    immutable version current at open (no per-scan row copy) and
    [rows.scanned]/[rows.fetched] count actual pulls, so early-exit
    consumers touch only what they read. The version stays pinned —
    exempt from garbage collection — until the cursor is exhausted,
    closed or abandoned. The cursor is pure. *)

val select_cursor : t -> Pred.t -> row Xdm.Cursor.t
(** Pull-based {!select} with the same plan choice (primary-key
    lookup, index probe or scan);
    [rows.scanned] counts candidates examined per pull, [rows.fetched]
    rows produced. Pins its version like {!scan_cursor}. *)

type read
(** A read view opened once: {!scan_cursor} and {!select_cursor} are an
    {!open_read} followed at once by {!read_scan} or {!read_select}.
    Opening first lets a caller look at the pinned view (is it empty?)
    before it decides how to read it — every decision then sees the
    same version. *)

val open_read : t -> read
(** Resolve the calling domain's read view and pin it, exactly as a
    cursor open does. Consume the result with exactly one of
    {!read_scan}, {!read_select} or {!close_read}. *)

val read_is_empty : read -> bool
(** Does the opened view hold no rows? Bumps no counter. *)

val read_scan : read -> row Xdm.Cursor.t
(** {!scan_cursor} over the opened view; the cursor takes over the pin. *)

val read_select : read -> Pred.t -> row Xdm.Cursor.t
(** {!select_cursor} over the opened view; the cursor takes over the
    pin. *)

val close_read : read -> unit
(** Release the opened view without reading it. *)

val update_rows : t -> Pred.t -> (string * Value.t) list -> row list * row list
(** [update_rows t where set] applies [set] to matching rows;
    returns [(old_copies, new_rows)].
    @raise Constraint_violation if a primary-key column is modified to a
    conflicting value or types mismatch. *)

val delete_rows : t -> Pred.t -> row list
(** Remove matching rows; returns the removed rows. *)

val clear : t -> unit

(** {1 Secondary indexes} *)

val create_index : t -> string list -> unit
(** Build (or keep) a hash index over the column list; {!select} uses it
    when the predicate constrains all indexed columns by equality, and
    all mutation paths maintain it. Indexes are part of the versioned
    store, so a reader pinned to an older version keeps its plan.
    @raise Invalid_argument on unknown columns. *)

val drop_indexes : t -> unit
val indexed_columns : t -> string list list

(** {1 Write locking}

    One writer per table. Coordinated writers (XA submits) pre-acquire
    their whole lockset in a deadlock-avoiding total order — sorted by
    [(database name, table name)] — before beginning work; see
    {!Decompose.execute}. Single-statement writers auto-commit. *)

val lock_write : t -> unit
(** Block until this domain holds the table's write lock. Bumps
    [mvcc.lock.acquired]; bumps [mvcc.lock.contended] when the lock was
    held by another domain on arrival. Not reentrant. *)

val unlock_write : t -> unit
(** Release the write lock (discarding any unpublished working store). *)

val holds_write : t -> bool
(** Does the current domain hold this table's write lock? *)

val commit_write : t -> unit
(** Publish the working store as a new version (no-op when nothing
    changed). Requires the write lock. The superseded version is
    garbage-collected once no snapshot or cursor pins it. *)

val discard_write : t -> unit
(** Drop the working store: uncommitted changes vanish. *)

val publish_all : (unit -> 'a) -> 'a
(** Run [f] holding the global publish lock (reentrant). Multi-table
    commits run their {!commit_write} calls inside it so the new
    versions become visible atomically: a concurrent {!snapshot} sees
    either all of them or none. *)

(** {1 Snapshots}

    A snapshot pins the published version of a set of tables,
    atomically with respect to {!publish_all} — the captured version
    vector can never straddle a multi-table commit. Reads performed
    while an ambient snapshot is installed resolve against the pinned
    versions, except that a domain holding a table's write lock always
    sees its own working store (read-your-own-writes), and publishing a
    version re-pins the publisher's own ambient entry to it. *)

type snapshot

val snapshot : t list -> snapshot
(** Capture and pin the published versions of [tables] (O(1) per table —
    no rows are copied). *)

val release : snapshot -> unit
(** Unpin; superseded versions with no remaining pins are collected. *)

val with_snapshot : t list -> (unit -> 'a) -> 'a
(** Install a fresh snapshot as the domain's ambient read context for
    the duration of [f]; reentrant — when an ambient snapshot is
    already installed, [f] runs under it unchanged. *)

val snapshot_find_pk : snapshot -> t -> Value.t list -> row option
(** Read a row from the version the snapshot pinned for [t] (the
    published head if [t] was not captured) — for checking cross-table
    invariants against one consistent cut regardless of the caller's
    ambient state. *)

(** {1 Introspection} *)

val current_version : t -> int
(** Id of the published version (0 for a freshly created table). *)

val view_version : t -> int
(** The version identity of the calling domain's read view: the
    ambient snapshot's pinned version when one covers [t], else the
    published head — or [-1] when this domain holds the write lock
    with uncommitted changes (a view with no version yet; the result
    cache bypasses on it rather than mislabel uncommitted data). *)

val live_versions : t -> int
(** Number of versions not yet collected (>= 1: the published head). *)

val lock_info : t -> int option * int
(** [(holder, waiters)]: the domain id holding the write lock, if any,
    and how many domains are blocked waiting for it. *)
