(** Update decomposition (paper section II.C).

    Turns an SDO change summary into per-source SQL statements using the
    primary read function's lineage, conditions them per the optimistic
    concurrency policy, and executes them atomically across the affected
    databases with XA two-phase commit.

    Unaffected sources see no statements at all; unchanged columns are
    not written. *)

type step = { step_db : string; step_dml : Relational.Database.dml }

type plan = step list

val sdox0001 : Xdm.Qname.t
(** [err:SDOX0001]: a change the lineage cannot map to a source row — a
    computed (opaque) leaf, an unmapped element, a value that does not
    fit its column — or a submit with no usable lineage. *)

val not_updatable : string -> 'a
(** Raise [Xdm.Item.Error] [err:SDOX0001] with this text. *)

val plan :
  lookup_table:(db:string -> table:string -> Relational.Table.t) ->
  policy:Occ.policy ->
  lineage:Lineage.block ->
  Sdo.t ->
  plan
(** Build the statement plan for a submitted datagraph. Raises
    [err:SDOX0001] on unmappable changes; an empty change summary
    yields an empty plan. *)

val plan_to_strings : plan -> string list
(** The generated SQL, with its target database: ["db1: UPDATE …"]. *)

(** {1 Whole-object planners}

    Used by the auto-generated create/update/delete methods of logical
    data services (paper section III.D.1: "ALDSP 3.0 will automatically
    generate create, update, and delete methods … for logical data
    services whose read logic it can introspect and reverse-engineer"). *)

val plan_create_object :
  lookup_table:(db:string -> table:string -> Relational.Table.t) ->
  lineage:Lineage.block ->
  Xdm.Node.t ->
  plan
(** INSERTs for the object's root row and, recursively, its nested rows
    (parent-link columns filled from the enclosing row when absent). *)

val plan_delete_object :
  lookup_table:(db:string -> table:string -> Relational.Table.t) ->
  policy:Occ.policy ->
  lineage:Lineage.block ->
  Xdm.Node.t ->
  plan
(** DELETEs, children before parents, conditioned per the policy. *)

val plan_replace_object :
  lookup_table:(db:string -> table:string -> Relational.Table.t) ->
  lineage:Lineage.block ->
  Xdm.Node.t ->
  plan
(** Field-wise UPDATE by primary key of every mapped row of the object
    (all mapped non-key columns are written, absent elements as NULL).
    Rows added to or removed from the instance are not reconciled — use
    the SDO change-summary path for structural changes. *)

type outcome = {
  committed : bool;
  statements : int;  (** statements executed (0 when rolled back) *)
  reason : string option;  (** rollback reason *)
}

val lockset :
  db_of:(string -> Relational.Database.t) ->
  plan ->
  (string * string) list
(** The per-table write locks the plan must hold: every (db, table) it
    writes plus the FK neighbors its constraint checks read — parents
    of inserting tables, referencing tables of deleting tables — sorted
    in the deadlock-avoiding total order (db name, then table name). *)

val execute : db_of:(string -> Relational.Database.t) -> plan -> outcome
(** Acquire the plan's {!lockset} in order, then run the plan inside
    one XA transaction across the involved databases; the new table
    versions publish atomically at commit and the locks are released.
    Submits with disjoint locksets execute concurrently. A conditioned
    UPDATE/DELETE that affects no row is an optimistic-concurrency
    conflict ([err:SQLX0001]): the transaction aborts, every source
    rolls back, and the conflict's text is the outcome's [reason]. *)
