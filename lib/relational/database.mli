(** A named database: tables, DML execution with SQL logging, local
    transactions over the tables' MVCC working stores, foreign-key
    enforcement, and the failure-injection hooks used by the XA tests
    and benches.

    Every failure is an [Xdm.Item.Error]: a genuine one carries
    {!Table.sqlx0001} and a ["db: …"] text, and an injected fault
    carries [err:RESX0004] ({!Resilience.Faults.fail}) with the text
    ["db: <fault>"]. *)

type dml =
  | Insert of { table : string; columns : string list; values : Value.t list }
  | Update of { table : string; set : (string * Value.t) list; where : Pred.t }
  | Delete of { table : string; where : Pred.t }

val dml_to_sql : dml -> string

type t

val create : string -> t
val name : t -> string

val set_instr : t -> Instr.t -> unit
(** Attach an instrumentation handle (default {!Instr.disabled}) and
    propagate it to every table, current and future: {!exec} reports
    [sql.executed], tables report [rows.scanned]/[rows.fetched]. *)

val add_table : t -> Table.schema -> Table.t
val table : t -> string -> Table.t
(** Raises [err:SQLX0001] for unknown tables. *)

val find_table : t -> string -> Table.t option

val tables : t -> Table.t list

(** {1 DML} *)

val exec : t -> dml -> int
(** Execute one statement: returns the number of affected rows, appends
    the SQL text to the log, and enforces foreign keys. Inside a
    transaction the changes accumulate in the target table's working
    store (the statement locks the table on first write); outside one
    the statement runs as its own lock–apply–publish transaction, so a
    failure leaves the published version untouched.
    Raises [err:SQLX0001] on a constraint, key, foreign-key or arity
    violation, and [err:RESX0004] when an injected fault fires. *)

val read_check : t -> unit
(** Consult the fault state for a query-path read (the dataspace calls
    this before serving a scan). Plan-scheduled transients and hard-down
    windows fire here; the ad-hoc one-shots do not. Raises
    [err:RESX0004] when an injected fault fires. *)

val log_bound : int
(** How many statements the log keeps: 1,000. *)

val sql_log : t -> string list
(** The newest {!log_bound} SQL statements executed, by every domain,
    oldest first. *)

val clear_log : t -> unit

val log_size : t -> int
(** The length of {!sql_log}, at most {!log_bound}. *)

(** {1 Transactions}

    A transaction belongs to the domain that began it: {!exec},
    {!commit}, {!rollback} and {!in_tx} see the calling domain's open
    transaction on the database, so domains whose writes touch disjoint
    tables of one database can each have one open at once. *)

val begin_tx : t -> unit
(** Open a transaction for the calling domain.
    Raises [err:SQLX0001] if the calling domain already has one open. *)

val commit : t -> unit
(** Publish every written table's new version (atomically with respect
    to snapshot capture) and release the locks this transaction took.
    Raises [err:SQLX0001] when no transaction is open. An injected
    commit fault raises [err:RESX0004] but leaves the transaction open:
    a prepared participant stays prepared, so the XA coordinator can
    retry the commit. *)

val rollback : t -> unit
val in_tx : t -> bool

(** {1 Failure injection}

    All injection state lives in a {!Resilience.Faults.t} owned by the
    database. *)

val faults : t -> Resilience.Faults.t
(** The database's fault handle — attach it to a
    [Resilience.Control.t] to put the source under a chaos plan. *)

val prepare_fault : t -> string option
(** Consult the fault state for an XA prepare round (sticky flag or
    plan schedule); [Some reason] means this participant fails to
    prepare. Used by the XA coordinator. *)
