type sink =
  | Null
  | Text of (string -> unit)
  | Json of (string -> unit)

type open_span = {
  sp_id : int;
  sp_parent : int;
  sp_depth : int;
  sp_name : string;
  sp_attrs : (string * string) list;
  sp_start : float;  (* absolute ms *)
}

(* Domain safety: a handle is shared by every component of a session —
   and, under the server, by every worker domain running against the
   shared dataspace. Counters and timers are atomics so concurrent bumps
   never lose increments; the name->cell tables and first-seen order
   lists are guarded by a per-handle mutex (cell *lookup* takes the lock,
   the increment itself is lock-free on the atomic). The span stack is
   inherently per-control-flow, so it lives in domain-local storage keyed
   by handle id: two domains tracing through one handle each see their
   own stack and can never corrupt the other's nesting. *)
type t = {
  mutable on : bool;
  mutable sink : sink;
  id : int;  (* key into each domain's local span-stack table *)
  lock : Mutex.t;
  counters : (string, int Atomic.t) Hashtbl.t;
  mutable counter_order : string list;  (* reverse first-seen *)
  timers : (string, float Atomic.t) Hashtbl.t;
  mutable timer_order : string list;  (* reverse first-seen *)
  next_span : int Atomic.t;
  epoch : float;  (* absolute ms at creation; span start times are relative *)
  locked : bool;  (* the shared [disabled] handle must stay off *)
}

let now_ms () = Unix.gettimeofday () *. 1000.
let next_id = Atomic.make 0

let make ~locked sink =
  {
    on = false;
    sink;
    id = Atomic.fetch_and_add next_id 1;
    lock = Mutex.create ();
    counters = Hashtbl.create 32;
    counter_order = [];
    timers = Hashtbl.create 16;
    timer_order = [];
    next_span = Atomic.make 0;
    epoch = now_ms ();
    locked;
  }

let create ?(sink = Null) () = make ~locked:false sink
let disabled = make ~locked:true Null

let enable t =
  if t.locked then
    invalid_arg "Instr.enable: the shared disabled handle cannot be enabled";
  t.on <- true

let disable t = t.on <- false
let enabled t = t.on
let set_sink t sink = t.sink <- sink
let sink t = t.sink
let noting t = t.on && (match t.sink with Null -> false | Text _ | Json _ -> true)

let counter t name =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.counters name with
      | Some r -> r
      | None ->
        let r = Atomic.make 0 in
        Hashtbl.replace t.counters name r;
        t.counter_order <- name :: t.counter_order;
        r)

let timer t name =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.timers name with
      | Some r -> r
      | None ->
        let r = Atomic.make 0. in
        Hashtbl.replace t.timers name r;
        t.timer_order <- name :: t.timer_order;
        r)

let rec atomic_add_float a d =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. d)) then atomic_add_float a d

let bump t ?(n = 1) name =
  if t.on then ignore (Atomic.fetch_and_add (counter t name) n)

(* Accumulate an externally-measured duration into a named timer — for
   spans whose clock is not this process's wall clock (e.g. a request's
   consumed deadline budget, part virtual, part wall). *)
let add_ms t name ms = if t.on then atomic_add_float (timer t name) ms

(* ---- span stacks (domain-local) ---- *)

let stacks_key : (int, open_span list ref) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let stack t =
  let tbl = Domain.DLS.get stacks_key in
  match Hashtbl.find_opt tbl t.id with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.replace tbl t.id r;
    r

(* ---- emission ---- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 32 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let depth t = List.length !(stack t)

let note t msg =
  if t.on then
    match t.sink with
    | Null -> ()
    | Text out -> out (String.make (2 * depth t) ' ' ^ msg)
    | Json out ->
      out
        (Printf.sprintf {|{"type":"note","depth":%d,"text":"%s"}|} (depth t)
           (json_escape msg))

let emit_span t sp dur =
  match t.sink with
  | Null -> ()
  | Text out ->
    let attrs =
      match sp.sp_attrs with
      | [] -> ""
      | l ->
        " " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) l)
    in
    out
      (Printf.sprintf "%s%s%s (%.3fms)"
         (String.make (2 * sp.sp_depth) ' ')
         sp.sp_name attrs dur)
  | Json out ->
    let attrs =
      String.concat ","
        (List.map
           (fun (k, v) ->
             Printf.sprintf {|"%s":"%s"|} (json_escape k) (json_escape v))
           sp.sp_attrs)
    in
    out
      (Printf.sprintf
         {|{"type":"span","id":%d,"parent":%d,"depth":%d,"name":"%s","attrs":{%s},"start_ms":%.3f,"dur_ms":%.3f}|}
         sp.sp_id sp.sp_parent sp.sp_depth (json_escape sp.sp_name) attrs
         (sp.sp_start -. t.epoch) dur)

let span t ?(attrs = []) name f =
  if not t.on then f ()
  else begin
    let st = stack t in
    let sp =
      {
        sp_id = 1 + Atomic.fetch_and_add t.next_span 1;
        sp_parent = (match !st with [] -> 0 | s :: _ -> s.sp_id);
        sp_depth = List.length !st;
        sp_name = name;
        sp_attrs = attrs;
        sp_start = now_ms ();
      }
    in
    st := sp :: !st;
    let finish () =
      let dur = now_ms () -. sp.sp_start in
      (st := (match !st with _ :: rest -> rest | [] -> []));
      atomic_add_float (timer t name) dur;
      emit_span t sp dur
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Accumulate wall-clock into a named timer without opening a span: for
   hot, frequently-entered phases (one optimizer pass per fixpoint
   iteration) where a span per entry would drown the trace. *)
let time t name f =
  if not t.on then f ()
  else begin
    let start = now_ms () in
    let finish () = atomic_add_float (timer t name) (now_ms () -. start) in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* ---- snapshots ---- *)

type stats = {
  counters : (string * int) list;
  timers : (string * float) list;
}

let stats (t : t) =
  Mutex.protect t.lock (fun () ->
      {
        counters =
          List.rev_map
            (fun n -> (n, Atomic.get (Hashtbl.find t.counters n)))
            t.counter_order;
        timers =
          List.rev_map
            (fun n -> (n, Atomic.get (Hashtbl.find t.timers n)))
            t.timer_order;
      })

let since t (before : stats) =
  let cur = stats t in
  {
    counters =
      List.map
        (fun (n, v) ->
          (n, v - (match List.assoc_opt n before.counters with
                   | Some b -> b
                   | None -> 0)))
        cur.counters;
    timers =
      List.map
        (fun (n, v) ->
          (n, v -. (match List.assoc_opt n before.timers with
                    | Some b -> b
                    | None -> 0.)))
        cur.timers;
  }

let add_stats (a : stats) (b : stats) =
  let union names extra =
    names @ List.filter (fun n -> not (List.mem n names)) extra
  in
  let cnames = union (List.map fst a.counters) (List.map fst b.counters) in
  let tnames = union (List.map fst a.timers) (List.map fst b.timers) in
  let get0 l n = match List.assoc_opt n l with Some v -> v | None -> 0 in
  let get0f l n = match List.assoc_opt n l with Some v -> v | None -> 0. in
  {
    counters =
      List.map (fun n -> (n, get0 a.counters n + get0 b.counters n)) cnames;
    timers =
      List.map (fun n -> (n, get0f a.timers n +. get0f b.timers n)) tnames;
  }

let reset (t : t) =
  Mutex.protect t.lock (fun () ->
      Hashtbl.iter (fun _ r -> Atomic.set r 0) t.counters;
      Hashtbl.iter (fun _ r -> Atomic.set r 0.) t.timers)

let render ?(times = true) (s : stats) =
  let rows =
    List.map (fun (n, v) -> (n, string_of_int v)) s.counters
    @
    if times then
      List.map
        (fun (n, v) -> ("time." ^ n ^ ".ms", Printf.sprintf "%.3f" v))
        s.timers
    else []
  in
  let width =
    List.fold_left (fun w (n, _) -> max w (String.length n)) 0 rows
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun (n, v) -> Printf.bprintf buf "%-*s %10s\n" width n v)
    rows;
  Buffer.contents buf

module K = struct
  let queries_compiled = "queries.compiled"

  (* plan cache: [queries.compiled] counts only *successful* compiles;
     cache hits skip the compile span entirely, so hit + miss = lookups
     and miss >= queries.compiled (a failed parse is a miss that never
     becomes a compiled plan). [invalidate] counts cached entries
     flushed by a registry-changing install. [unit.built] counts
     compilation units: one per session generation that compiles. *)
  let plan_cache_hit = "plan.cache.hit"
  let plan_cache_miss = "plan.cache.miss"
  let plan_cache_invalidate = "plan.cache.invalidate"
  let plan_unit_built = "plan.unit.built"
  let optimizer_folded = "optimizer.folded"
  let optimizer_inlined = "optimizer.inlined"
  let optimizer_inlined_pure = "optimizer.inlined.pure"
  let optimizer_joins = "optimizer.joins"
  let optimizer_pushed = "optimizer.pushed"
  let optimizer_pushed_shifted = "optimizer.pushed.shifted"

  (* per-pass optimizer timers, accumulated via [time] and rendered as
     [time.<name>.ms] rows *)
  let t_optimizer_fold = "optimizer.fold"
  let t_optimizer_normalize = "optimizer.normalize"
  let t_optimizer_inline = "optimizer.inline"
  let t_optimizer_join = "optimizer.join"
  let t_optimizer_push = "optimizer.push"
  let sql_generated = "sql.generated"
  let sql_executed = "sql.executed"
  let rows_scanned = "rows.scanned"
  let rows_fetched = "rows.fetched"
  let ws_calls = "ws.calls"
  let ws_faults = "ws.faults"
  let xqse_statements = "xqse.statements"
  let sdo_submits = "sdo.submits"
  let sdo_statements = "sdo.statements"

  (* source resilience: retries/timeouts at the dataspace source-call
     boundary, circuit-breaker activity, degraded reads, and the faults
     the chaos plan actually injected into the sources *)
  let resil_retries = "resil.retries"
  let resil_timeouts = "resil.timeouts"
  let resil_trips = "resil.breaker.trips"
  let resil_rejected = "resil.breaker.rejected"
  let resil_degraded = "resil.degraded"
  let resil_injected = "resil.faults.injected"

  (* streaming sequence core: items pulled from live producer cursors,
     items copied out at materialization boundaries, and abandons that
     actually skipped a provably-pure remainder *)
  let stream_pulled = "stream.pulled"
  let stream_materialized = "stream.materialized"
  let stream_early_exits = "stream.early_exits"

  (* concurrent query server: jobs completed by the worker pool, jobs
     that raised, and submits serialized behind the write lock *)
  let server_jobs = "server.jobs"
  let server_errors = "server.errors"
  let server_submits = "server.submits"

  (* MVCC storage: live table versions (gauge: +1 at publish, -1 at
     collection), versions collected after their last unpin, write
     locks acquired, and acquisitions that found the lock held *)
  let mvcc_versions_live = "mvcc.versions.live"
  let mvcc_versions_collected = "mvcc.versions.collected"
  let mvcc_lock_acquired = "mvcc.lock.acquired"
  let mvcc_lock_contended = "mvcc.lock.contended"

  (* overload protection: requests shed at admission (RESX0006),
     requests whose end-to-end budget expired (RESX0005), and brownout
     transitions of the pressure signal; [t_deadline_budget] accumulates
     the budget each deadlined request actually consumed (virtual +
     wall ms, via [add_ms]) *)
  let overload_shed = "overload.shed"
  let overload_expired = "overload.expired"
  let overload_brownout_entered = "overload.brownout.entered"
  let overload_brownout_exited = "overload.brownout.exited"
  let t_deadline_budget = "deadline.budget"

  (* result cache: [hit]s are served from a materialized prior result,
     [miss]es run the function and (when still coherent) admit it,
     [evict] counts entries removed by lineage-driven invalidation (a
     wholesale capacity flush is not an evict), and [bypass] counts
     uncacheable or admission-refused calls — impure/unknown functions,
     results produced under a degradation, or a store generation that
     moved mid-evaluation *)
  let cache_hit = "cache.hit"
  let cache_miss = "cache.miss"
  let cache_evict = "cache.evict"
  let cache_bypass = "cache.bypass"
end

let preregister t =
  List.iter
    (fun k -> ignore (counter t k))
    [
      K.queries_compiled;
      K.plan_cache_hit;
      K.plan_cache_miss;
      K.plan_cache_invalidate;
      K.plan_unit_built;
      K.optimizer_folded;
      K.optimizer_inlined;
      K.optimizer_inlined_pure;
      K.optimizer_joins;
      K.optimizer_pushed;
      K.optimizer_pushed_shifted;
      K.sql_generated;
      K.sql_executed;
      K.rows_scanned;
      K.rows_fetched;
      K.ws_calls;
      K.ws_faults;
      K.xqse_statements;
      K.sdo_submits;
      K.sdo_statements;
      K.resil_retries;
      K.resil_timeouts;
      K.resil_trips;
      K.resil_rejected;
      K.resil_degraded;
      K.resil_injected;
      K.stream_pulled;
      K.stream_materialized;
      K.stream_early_exits;
      K.server_jobs;
      K.server_errors;
      K.server_submits;
      K.mvcc_versions_live;
      K.mvcc_versions_collected;
      K.mvcc_lock_acquired;
      K.mvcc_lock_contended;
      K.overload_shed;
      K.overload_expired;
      K.overload_brownout_entered;
      K.overload_brownout_exited;
      K.cache_hit;
      K.cache_miss;
      K.cache_evict;
      K.cache_bypass;
    ];
  (* the per-pass timers too, so the stats table has a stable shape even
     for runs where a pass never fired *)
  List.iter
    (fun k -> ignore (timer t k))
    [
      K.t_optimizer_fold;
      K.t_optimizer_normalize;
      K.t_optimizer_inline;
      K.t_optimizer_join;
      K.t_optimizer_push;
      K.t_deadline_budget;
    ]
