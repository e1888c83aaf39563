(* The result cache. Same discipline as the plan cache (DESIGN §14):
   a mutex-protected table, capacity handled by wholesale flush, and
   inserts guarded against mid-flight writes. The footprint index is
   the cache's own ingredient: every entry carries the (db, table)
   pairs its value was derived from, so an SDO submit evicts exactly
   the entries it could have changed.

   Coherence is keyed to MVCC table versions, not a global generation:
   every entry's key embeds the version vector of its footprint tables
   as seen by the reader's view (ambient snapshot or published head),
   so readers at different versions never share an entry, and a miss
   only admits its result (under the store lock, atomic with any
   concurrent invalidate sweep) if that vector still stands. A submit
   to unrelated tables mid-evaluation no longer costs the admission —
   only a publish to a table the result was actually derived from
   does. The generation counter remains as a monotone invalidation
   clock for observability. *)

type footprint = (string * string) list

type meta = {
  m_footprint : Xdm.Qname.t -> int -> footprint option;
  m_epoch : unit -> int;
  m_version : string * string -> int;
}

module Store = struct
  type entry = { e_value : Xdm.Item.seq; e_footprint : footprint }

  type t = {
    lock : Mutex.t;
    entries : (string, entry) Hashtbl.t;
    generation : int Atomic.t;
    cap : int;
  }

  let create ?(cap = 256) () =
    {
      lock = Mutex.create ();
      entries = Hashtbl.create 64;
      generation = Atomic.make 0;
      cap;
    }

  let generation t = Atomic.get t.generation

  let size t =
    Mutex.protect t.lock (fun () -> Hashtbl.length t.entries)

  let flush t =
    Mutex.protect t.lock (fun () -> Hashtbl.reset t.entries)

  let find t key =
    Mutex.protect t.lock (fun () ->
        Option.map (fun e -> e.e_value) (Hashtbl.find_opt t.entries key))

  (* Insert only if [verify] still holds under the store lock — the
     caller passes a closure re-reading the published versions of the
     footprint tables, so a publish that landed mid-evaluation (whose
     invalidate sweep may already have run and missed this entry)
     refuses the possibly-pre-image value. Running [verify] under the
     lock makes check-and-insert atomic with respect to the sweep.
     Capacity overflow flushes wholesale — that is housekeeping, not
     invalidation, and is not an evict. *)
  let add t ~verify ~key ~footprint value =
    Mutex.protect t.lock (fun () ->
        if verify () then begin
          if
            Hashtbl.length t.entries >= t.cap
            && not (Hashtbl.mem t.entries key)
          then Hashtbl.reset t.entries;
          Hashtbl.replace t.entries key { e_value = value; e_footprint = footprint };
          true
        end
        else false)

  let touches written fp =
    List.exists (fun src -> List.mem src written) fp

  let invalidate t written =
    (* the generation is an observability clock now: admission is
       guarded by the footprint tables' published versions (which the
       triggering submit bumped before this sweep runs), not by this
       counter *)
    Atomic.incr t.generation;
    Mutex.protect t.lock (fun () ->
        let doomed =
          Hashtbl.fold
            (fun k e acc -> if touches written e.e_footprint then k :: acc else acc)
            t.entries []
        in
        List.iter (Hashtbl.remove t.entries) doomed;
        List.length doomed)
end

type handle = { h_store : Store.t; h_meta : meta }

let create ?cap meta = { h_store = Store.create ?cap (); h_meta = meta }
let store h = h.h_store

let invalidate h ?(instr = Instr.disabled) written =
  let n = Store.invalidate h.h_store written in
  for _ = 1 to n do
    Instr.bump instr Instr.K.cache_evict
  done;
  n

let flush h = Store.flush h.h_store

type bound = { b_handle : handle; b_fp : string; b_instr : Instr.t }

let bind h ~fingerprint ~instr = { b_handle = h; b_fp = fingerprint; b_instr = instr }

(* ---- keying ---- *)

(* The key must distinguish values that XQuery distinguishes: atomics
   carry their type name next to their lexical form (xs:string "1" vs
   xs:integer 1), nodes serialize structurally. The fingerprint prefix
   keeps differently-configured sessions on disjoint keys even when
   they share the store. *)
let item_key buf item =
  match item with
  | Xdm.Item.Atomic a ->
    Buffer.add_string buf "a:";
    Buffer.add_string buf (Xdm.Qname.to_string (Xdm.Atomic.type_name a));
    Buffer.add_char buf '=';
    Buffer.add_string buf (Xdm.Atomic.to_string a)
  | Xdm.Item.Node n ->
    Buffer.add_string buf "n:";
    Buffer.add_string buf (Xdm.Xml_serialize.to_string n)

let key b name args =
  let buf = Buffer.create 128 in
  Buffer.add_string buf b.b_fp;
  Buffer.add_char buf '|';
  Buffer.add_string buf (Xdm.Qname.to_string name);
  Buffer.add_char buf '/';
  Buffer.add_string buf (string_of_int (List.length args));
  List.iter
    (fun arg ->
      Buffer.add_char buf '|';
      List.iter
        (fun item ->
          item_key buf item;
          Buffer.add_char buf ';')
        arg)
    args;
  Buffer.contents buf

(* XDM nodes are mutable (XUF updates them in place): a value crossing
   the cache boundary in either direction is deep-copied so a cached
   tree never aliases one the consumer can rename/insert into. *)
let detach seq =
  List.map
    (function
      | Xdm.Item.Node n -> Xdm.Item.Node (Xdm.Node.deep_copy n)
      | atomic -> atomic)
    seq

let bypass b = Instr.bump b.b_instr Instr.K.cache_bypass

let through b name args run =
  match b.b_handle.h_meta.m_footprint name (List.length args) with
  | None ->
    bypass b;
    run ()
  | Some footprint -> (
    (* the version vector of the caller's read view over the footprint
       tables. It goes into the key, so a hit is coherent by
       construction: a reader pinned to an older snapshot can neither
       serve nor admit an entry for a different cut, and two MVCC
       readers at different versions never share an entry — the tear
       the old version-blind keys allowed. *)
    let versions =
      List.map (fun src -> (src, b.b_handle.h_meta.m_version src)) footprint
    in
    if List.exists (fun (_, v) -> v < 0) versions then begin
      (* an uncommitted view (this domain holds a write lock with
         pending changes): no version to key by, stay out of the cache *)
      bypass b;
      run ()
    end
    else
      let store = b.b_handle.h_store in
      let k =
        key b name args ^ "|v:"
        ^ String.concat "," (List.map (fun (_, v) -> string_of_int v) versions)
      in
      match Store.find store k with
      | Some value ->
        Instr.bump b.b_instr Instr.K.cache_hit;
        detach value
      | None ->
        Instr.bump b.b_instr Instr.K.cache_miss;
        (* within one query the ambient snapshot pins the view, so the
           vector cannot move mid-run; the re-check under the store lock
           guards the unpinned paths (direct session use, no dataspace) *)
        let verify () =
          List.for_all
            (fun (src, v) -> b.b_handle.h_meta.m_version src = v)
            versions
        in
        let e0 = b.b_handle.h_meta.m_epoch () in
        let value = run () in
        if b.b_handle.h_meta.m_epoch () = e0 then
          ignore (Store.add store ~verify ~key:k ~footprint (detach value))
        else
          (* the degradation log grew while this ran: the value may be a
             partial read and must not become the cached truth *)
          bypass b;
        value)
