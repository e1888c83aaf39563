(** XA-style two-phase commit across several databases.

    ALDSP runs an update call as one atomic transaction across all
    affected relational sources when they can participate in 2PC (paper
    section II.C). The coordinator begins a local transaction on every
    participant, runs the work, then prepares each participant (which may
    fail via injection) and commits all or rolls back all.

    The prepare and commit phases run {!Resilience.Deadline.exempt}:
    once the first participant votes, the round reaches its
    commit-or-rollback decision regardless of the requesting client's
    end-to-end deadline — a write is never killed mid-commit. *)

type outcome =
  | Committed
  | Aborted of string  (** rollback reason *)

val run : Database.t list -> (unit -> 'a) -> ('a, string) result
(** [run participants work] — on success every participant is committed
    and [Ok result] returned. When [work] raises an [Xdm.Item.Error] (a
    statement failure, an injected fault) or a participant fails to
    prepare, every participant is rolled back and [Error reason]
    returned, the reason being the error's text; any other exception
    from [work] propagates after the rollback. *)

type trace_event =
  | Begin of string
  | Prepare_ok of string
  | Prepare_failed of string
  | Commit of string
  | Rollback of string

val run_traced :
  Database.t list -> (unit -> 'a) -> ('a, string) result * trace_event list
(** Like {!run} but also returns the coordinator's event trace (for tests
    and the XA bench). Every participant votes in the prepare phase —
    each emits a [Prepare_ok]/[Prepare_failed] event before the
    coordinator decides — and injected commit faults ([err:RESX0004])
    are retried so a fully prepared round always commits everywhere. *)
