(** Lineage-invalidated result cache for pure data-service reads.

    A {!handle} wraps one domain-safe {!Store.t} (mutex-protected map
    from call key to materialized result) plus the dataspace-supplied
    {!meta} closures that decide what is cacheable and whether the
    world was degraded while a result was produced. Sessions {!bind}
    the handle with their config fingerprint to get a {!bound} view
    whose every key embeds the fingerprint — two sessions with
    different generations or evaluation flags can share the store
    without ever sharing an entry.

    Coherence rests on three guards:

    - {b admission}: only calls the dataspace vouches for (pure
      data-service read functions with known lineage) enter; everything
      else runs through untouched and counts as [cache.bypass].
    - {b version}: the caller's MVCC view of every footprint table —
      the ambient snapshot's pinned version when one is installed, else
      the published head — is part of the entry key, so a hit is
      coherent by construction: a reader pinned to an older snapshot
      never serves (or pollutes) an entry computed at head, and vice
      versa. A view with no version yet (the domain holds a write lock
      with uncommitted changes, reported as a negative version)
      bypasses the cache entirely. Admission additionally re-reads the
      vector under the store lock (atomic with {!invalidate}'s sweep),
      so on the unpinned path a submit that publishes to one of the
      result's own tables mid-evaluation silently discards the
      (possibly pre-image) result, while submits to unrelated tables
      cost nothing.
    - {b epoch}: a result computed while the degradation log grew is
      refused admission, so a degraded (partially sourced) read can
      never be replayed as the cached truth.

    Node-typed results are deep-copied both into and out of the store:
    XDM nodes are mutable, and a cached tree must never alias one a
    consumer can update. *)

type footprint = (string * string) list
(** The (database, table) pairs a cached result was derived from. *)

type meta = {
  m_footprint : Xdm.Qname.t -> int -> footprint option;
      (** [m_footprint name arity] is [Some fp] when calls to the
          function are cacheable — pure, lineage-known — with [fp] the
          source tables the result depends on, [None] otherwise. *)
  m_epoch : unit -> int;
      (** Monotone degradation epoch; a result is only admitted when
          the epoch did not move while it was being computed. *)
  m_version : string * string -> int;
      (** [m_version (db, table)] is the MVCC version of the calling
          domain's read view ({!Relational.Table.view_version}): the
          ambient snapshot's pinned version when one covers the table,
          else the published head, or negative when the domain holds
          the table's write lock with uncommitted changes. The vector
          over the footprint is part of the entry key; admission also
          re-reads it under the store lock. Return a negative constant
          for unknown tables (forces bypass). *)
}

(** The shared store: call key -> materialized result + footprint. *)
module Store : sig
  type t

  val create : ?cap:int -> unit -> t
  (** [cap] (default 256) bounds the entry count; inserting into a
      full store flushes it wholesale, like the plan cache. *)

  val generation : t -> int
  (** Monotone count of {!invalidate} calls — an observability clock
      (the console prints it); admission is guarded by table versions,
      not by this counter. *)

  val size : t -> int
  val flush : t -> unit

  val invalidate : t -> footprint -> int
  (** Bump the generation, then evict exactly the entries whose
      footprint intersects the written tables. Returns the number of
      entries evicted. *)
end

type handle
(** A store plus the dataspace's cacheability metadata. *)

val create : ?cap:int -> meta -> handle
val store : handle -> Store.t

val invalidate : handle -> ?instr:Instr.t -> footprint -> int
(** {!Store.invalidate} on the handle's store, bumping [cache.evict]
    once per evicted entry on [instr]. *)

val flush : handle -> unit

type bound
(** A handle bound to one session's config fingerprint and
    instrumentation — the view evaluation threads through the dynamic
    context. *)

val bind : handle -> fingerprint:string -> instr:Instr.t -> bound

val bypass : bound -> unit
(** Count one call that ran without consulting the cache on
    [cache.bypass]: a source read consumed as a stream, or a keyed
    table read ({!through} counts its own bypasses). *)

val through :
  bound -> Xdm.Qname.t -> Xdm.Item.seq list -> (unit -> Xdm.Item.seq) ->
  Xdm.Item.seq
(** [through b name args run] serves the call from the cache when a
    coherent entry exists ([cache.hit]), otherwise runs [run] and
    admits the result when the admission guards allow ([cache.miss],
    or [cache.bypass] when the call is uncacheable or admission is
    refused). *)
