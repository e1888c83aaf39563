(* The repository benchmark harness.

     main.exe --workload profile-read --seed 1 --seconds 30 --trace 0

   Builds the CustomerProfile dataspace, generates seeded request lists
   and drives them through [Server.Pool.run] with at most two worker
   domains. With [--trace 0] it reports the end-to-end metrics (tracing
   off); with [--trace 1] it reports the per-layer metrics from a traced
   run and writes the request spans it recorded. Every run checks the
   program's outputs; on any violation it reports [correct: false] and
   exits 1. The last line of stdout is the JSON result. *)

open Core
module FC = Fixtures.Customer_profile
module R = Relational
module Pool = Server.Pool

let now = Unix.gettimeofday
let ms a b = (b -. a) *. 1000.

(* --- the system under test -------------------------------------------- *)

type sut = {
  spec : Spec.t;
  fc : FC.env;
  instr : Instr.t;
  tables : R.Table.t list;
  keys : Gen.keys;
}

let customer_ids (spec : Spec.t) =
  "007" :: List.init spec.Spec.customers (fun i -> Printf.sprintf "C%d" (i + 1))

let text_of = function R.Value.Text s -> s | v -> R.Value.to_string v

(* a customer's cards, lowest CCID first — the profile's CREDIT_CARD[1]
   is the first of them *)
let cards fc cid =
  List.filter
    (fun row -> text_of (R.Table.get row fc.FC.credit_card "CID") = cid)
    (R.Table.scan fc.FC.credit_card)

(* Reads must keep a fixed reference result while submits run, so no
   customer a submit rewrites is ever read whole. write-mix splits its
   customers: every other card holder takes submits, everyone else is
   read. The submit probe of the other two workloads rewrites customer
   007, the Figure 4 protagonist; profile-read fetches C1..Cn by id, and
   adhoc-query reads only counts and sums, which a submit leaves alone. *)
let keys_of (spec : Spec.t) fc =
  let ids = customer_ids spec in
  match spec.Spec.mix with
  | Spec.Profile_read ->
    { Gen.read_ids = Array.of_list (List.tl ids); submit_ids = [| "007" |] }
  | Spec.Adhoc_query -> { Gen.read_ids = Array.of_list ids; submit_ids = [| "007" |] }
  | Spec.Write_mix ->
    let holders = List.filter (fun cid -> cards fc cid <> []) ids in
    let writers = List.filteri (fun i _ -> i mod 2 = 0) holders in
    {
      Gen.read_ids = Array.of_list (List.filter (fun c -> not (List.mem c writers)) ids);
      submit_ids = Array.of_list writers;
    }

let build spec =
  let instr = Instr.create () in
  let fc =
    FC.make ~customers:spec.Spec.customers ~seed:Spec.data_seed ~instr ()
  in
  if spec.Spec.cache then ignore (Aldsp.Dataspace.enable_result_cache fc.FC.ds);
  {
    spec;
    fc;
    instr;
    tables = [ fc.FC.customer; fc.FC.orders; fc.FC.credit_card ];
    keys = keys_of spec fc;
  }

let session sut = Aldsp.Dataspace.session sut.fc.FC.ds

(* set-up as a user pays it: build the dataspace and compile the
   workload's texts once on a fresh session fork, in seconds at the
   reference speed. Each set-up starts from the same GC state, with no
   garbage of earlier work to collect. *)
let setup spec =
  Speed.start ();
  for _ = 1 to 3 do Speed.sample () done;
  Gc.full_major ();
  let t0 = now () in
  let sut = build spec in
  let s = session sut in
  let fork = Xqse.Session.with_config s (Xqse.Session.config s) in
  List.iter
    (fun t -> ignore (Xqse.Session.compile_cached fork t))
    (Gen.warm_texts spec sut.keys);
  let t = now () -. t0 in
  for _ = 1 to 3 do Speed.sample () done;
  (t *. Speed.finish (), sut)

(* --- output checks ------------------------------------------------------ *)

let violations = ref []
let violations_m = Mutex.create ()

let violation fmt =
  Printf.ksprintf
    (fun s -> Mutex.protect violations_m (fun () -> violations := s :: !violations))
    fmt

let serialize v = Xdm.Xml_serialize.seq_to_string v

(* reference results, computed once at setup on the template session *)
let references sut =
  let refs = Hashtbl.create 256 in
  List.iter
    (fun t -> Hashtbl.replace refs t (serialize (Xqse.Session.eval (session sut) t)))
    (Gen.warm_texts sut.spec sut.keys);
  refs

let expected refs ~ref_text ~plus =
  match Hashtbl.find_opt refs ref_text with
  | None -> None
  | Some r when plus = 0 -> Some r
  | Some r -> Option.map (fun b -> string_of_int (b + plus)) (int_of_string_opt r)

(* after a run drains: every touched customer shows a matched
   (LAST_NAME, BRAND) pair written by one of its latest committed cycles,
   and no table keeps a superseded version or a lock *)
let drain_checks sut touched =
  Hashtbl.iter
    (fun cid commits ->
      let tags = List.map snd commits in
      let last =
        match R.Table.find_pk sut.fc.FC.customer [ R.Value.Text cid ] with
        | Some row -> text_of (R.Table.get row sut.fc.FC.customer "LAST_NAME")
        | None -> "<missing>"
      in
      let brand =
        match cards sut.fc cid with
        | row :: _ -> text_of (R.Table.get row sut.fc.FC.credit_card "CC_BRAND")
        | [] -> "<no card>"
      in
      let matched =
        List.exists
          (fun tag ->
            last = Printf.sprintf "L%d" tag && brand = Printf.sprintf "B%d" tag)
          tags
      in
      if not matched then
        violation "customer %s ends with unmatched pair (%s, %s)" cid last brand)
    touched;
  List.iter
    (fun t ->
      let live = R.Table.live_versions t in
      if live <> 1 then violation "table %s keeps %d live versions" (R.Table.name t) live;
      match R.Table.lock_info t with
      | None, 0 -> ()
      | holder, waiters ->
        violation "table %s lock: holder %s, %d waiters" (R.Table.name t)
          (match holder with Some d -> string_of_int d | None -> "none")
          waiters)
    sut.tables

(* --- request execution ---------------------------------------------------- *)

type outcome = Skipped | Done | Failed of string

(* all-float, so stored flat: the GC never scans it and setting a field
   allocates nothing *)
type times = {
  mutable t_start : float;
  mutable t_end : float;
  mutable compile_ms : float;
  mutable pin_us : float;
  mutable run_ms : float;
  mutable get_ms : float;  (** summed over attempts *)
  mutable ser_ms : float;
}

(* one executed request; a request a time-bounded loop skips keeps the
   shared [skipped] slot, so an unused tail of a list costs no memory *)
type slot = {
  mutable outcome : outcome;
  tm : times;
  mutable items : int;
  mutable wire_bytes : int;
  mutable submit_ms : float list;  (** one per attempt *)
  mutable attempts : int;
  mutable executed : int;  (** statements the committed submit executed *)
  mutable spans : Trace.span list;
}

let fresh_slot () =
  {
    outcome = Done;
    tm =
      {
        t_start = 0.;
        t_end = 0.;
        compile_ms = 0.;
        pin_us = 0.;
        run_ms = 0.;
        get_ms = 0.;
        ser_ms = 0.;
      };
    items = 0;
    wire_bytes = 0;
    submit_ms = [];
    attempts = 0;
    executed = 0;
    spans = [];
  }

let skipped = { (fresh_slot ()) with outcome = Skipped }

let span slot ~traced ~req ?(parent = "request") name t0 t1 =
  if traced then slot.spans <- { Trace.req; name; parent; t0; t1 } :: slot.spans

let exec_query sut refs ~traced ~req slot ~text ~ref_text ~plus sess =
  let t0 = now () in
  let c = Xqse.Session.compile_cached sess text in
  let t1 = now () in
  let tp = ref t1 in
  (* the outer snapshot scope is reentrant: Session.run reuses it, so the
     pin is only moved out where the harness can time it *)
  let v =
    R.Table.with_snapshot sut.tables (fun () ->
        tp := now ();
        Xqse.Session.run c)
  in
  let t2 = now () in
  let got = serialize v in
  slot.tm.compile_ms <- ms t0 t1;
  slot.tm.pin_us <- (!tp -. t1) *. 1e6;
  slot.tm.run_ms <- ms !tp t2;
  slot.items <- List.length v;
  span slot ~traced ~req "xqse.compile" t0 t1;
  span slot ~traced ~req "relational.snapshot_pin" t1 !tp;
  span slot ~traced ~req "xqse.run" !tp t2;
  match expected refs ~ref_text ~plus with
  | Some want when want = got -> ()
  | Some want ->
    violation "request %d: result %S differs from reference %S" req
      (String.sub got 0 (min 80 (String.length got)))
      (String.sub want 0 (min 80 (String.length want)))
  | None -> violation "request %d: no reference for its text" req

let exec_cycle sut ~traced ~req slot ~cid ~tag =
  let ds = sut.fc.FC.ds and svc = sut.fc.FC.svc in
  let arg = [ [ Xdm.Item.Atomic (Xdm.Atomic.String cid) ] ] in
  let rec attempt k =
    let ta = now () in
    let dg = Aldsp.Dataspace.get ds svc ~meth:"getProfileById" arg in
    let tb = now () in
    Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] (Printf.sprintf "L%d" tag);
    Sdo.set_leaf dg 1
      [ ("CreditCards", 1); ("CREDIT_CARD", 1); ("BRAND", 1) ]
      (Printf.sprintf "B%d" tag);
    let tc =
      if traced then begin
        (* the wire form Dataspace.submit round-trips, timed apart *)
        let wire = Sdo.serialize dg in
        slot.wire_bytes <- slot.wire_bytes + String.length wire;
        now ()
      end
      else tb
    in
    let r = Aldsp.Dataspace.submit ds svc dg in
    let td = now () in
    slot.tm.get_ms <- slot.tm.get_ms +. ms ta tb;
    slot.tm.ser_ms <- slot.tm.ser_ms +. ms tb tc;
    slot.submit_ms <- ms tc td :: slot.submit_ms;
    slot.attempts <- k;
    span slot ~traced ~req "aldsp.get" ta tb;
    span slot ~traced ~req "sdo.serialize" tb tc;
    span slot ~traced ~req "aldsp.submit" tc td;
    if r.Aldsp.Dataspace.sr_committed then
      slot.executed <- r.Aldsp.Dataspace.sr_statements
    else if k < Spec.max_attempts then attempt (k + 1)
    else
      failwith
        (Printf.sprintf "submit for %s not committed after %d attempts (%s)" cid k
           (Option.value r.Aldsp.Dataspace.sr_reason ~default:"no reason"))
  in
  attempt 1

let describe_exn = function
  | Xdm.Item.Error { code; message; _ } ->
    Printf.sprintf "%s: %s" (Xdm.Qname.to_string code) message
  | e -> Printexc.to_string e

(* --- segments ----------------------------------------------------------------- *)

type segment = {
  reqs : Gen.req array;
  slots : slot array;
  open_loop : bool;
  t_zero : float;  (** Unix time [Pool.run] started: arrival offset 0 *)
  wall_s : float;  (** first measured start to last measured end *)
  speed : float;
      (** [Speed.finish] of the segment: each time it reports is
          multiplied by it, each rate divided *)
  delta : Instr.stats;  (** counters over the measured requests *)
}

let executed seg i =
  match seg.slots.(i).outcome with Done | Failed _ -> true | Skipped -> false

let indices seg p =
  List.filter (fun i -> executed seg i && p seg.reqs.(i)) (List.init (Array.length seg.reqs) Fun.id)

(* the Unix time an open-loop request is due, [t_zero] the pool's start *)
let due t_zero (r : Gen.req) = t_zero +. ((Spec.warmup_ms +. r.Gen.arrival_ms) /. 1000.)
let scheduled seg i = due seg.t_zero seg.reqs.(i)

(* latency from the scheduled arrival (open loop) or from the start
   (closed loop), at the reference speed; a failed request counts as
   infinitely late *)
let latency seg i =
  let s = seg.slots.(i) in
  match s.outcome with
  | Failed _ -> infinity
  | _ -> seg.speed *. ms (if seg.open_loop then scheduled seg i else s.tm.t_start) s.tm.t_end

let all _ = true
let is_kind k (r : Gen.req) = r.Gen.kind = k
let is_query (r : Gen.req) = match r.Gen.body with Gen.Query _ -> true | Gen.Cycle _ -> false
let is_cycle r = not (is_query r)

let served seg =
  float_of_int (List.length (List.filter (fun i -> seg.slots.(i).outcome = Done) (indices seg all)))

(* successful requests per second as measured, and at the reference
   speed *)
let rate seg = Stats.ratio (served seg) seg.wall_s
let capacity seg = rate seg /. seg.speed

(* what the run keeps of every finished segment: request counts, and
   for each customer committed cycles touched, the (end time, tag) of
   its four latest commits. The final pair was written by one of them:
   commits to one customer serialize, and only two commits near in time
   can end in the other order. Request order is no guide — a cycle that
   retries stays in flight while later ones commit. *)
let attempted = ref 0
let failed = ref 0
let touched : (string, (float * int) list) Hashtbl.t = Hashtbl.create 16

let tally seg =
  List.iter
    (fun i ->
      incr attempted;
      match (seg.reqs.(i).Gen.body, seg.slots.(i).outcome) with
      | _, Failed _ -> incr failed
      | Gen.Cycle { cid; tag }, Done ->
        let commits = Option.value (Hashtbl.find_opt touched cid) ~default:[] in
        let latest =
          List.sort
            (fun (a, _) (b, _) -> Float.compare b a)
            ((seg.slots.(i).tm.t_end, tag) :: commits)
        in
        Hashtbl.replace touched cid (List.filteri (fun k _ -> k < 4) latest)
      | _ -> ())
    (indices seg all)

(* One [Pool.run]. Each worker first runs a warm-up job: the warm-ups
   meet at a barrier (so every worker gets one), compile the workload's
   texts into that worker's fresh plan cache — [Pool.run] forks new,
   empty per-worker sessions on every call — and wait until all are
   done, when the last one snapshots the counters. Measured requests
   follow; [limit_s] bounds a closed loop in time (requests starting
   after the limit are skipped and never counted). A [sampled]
   one-worker segment takes the host-speed samples its times are scaled
   by; any other segment is scaled by the last sampled one. *)
let req_id ~stream i = (stream * 1_000_000) + i

let run_segment sut refs ~workers ~traced ~open_loop ?(sampled = false) ?limit_s ~stream reqs =
  (* every segment starts from the same GC state: no garbage left over
     from the previous one for its requests to collect *)
  Gc.full_major ();
  let n = Array.length reqs in
  let slots = Array.make n skipped in
  let texts = Gen.warm_texts sut.spec sut.keys in
  let arrived = Atomic.make 0 and warmed = Atomic.make 0 in
  let released = Atomic.make false in
  let before = ref (Instr.stats sut.instr) and released_at = ref 0. in
  let warm sess =
    Atomic.incr arrived;
    while Atomic.get arrived < workers do Domain.cpu_relax () done;
    List.iter (fun t -> ignore (Xqse.Session.compile_cached sess t)) texts;
    if Atomic.fetch_and_add warmed 1 = workers - 1 then begin
      before := Instr.stats sut.instr;
      released_at := now ();
      Atomic.set released true
    end;
    while not (Atomic.get released) do Domain.cpu_relax () done
  in
  let deadline = Atomic.make None in
  let t_zero = ref 0. in
  let job i (r : Gen.req) sess =
    let req = req_id ~stream i in
    let t = now () in
    (match limit_s with
    | Some s -> (
      match Atomic.get deadline with
      | None as cur -> ignore (Atomic.compare_and_set deadline cur (Some (t +. s)))
      | Some _ -> ())
    | None -> ());
    match Atomic.get deadline with
    | Some d when t > d -> ()
    | _ ->
      let slot = fresh_slot () in
      slots.(i) <- slot;
      slot.tm.t_start <- t;
      (try
         (match r.Gen.body with
         | Gen.Query { text; ref_text; plus } ->
           exec_query sut refs ~traced ~req slot ~text ~ref_text ~plus sess
         | Gen.Cycle { cid; tag } -> exec_cycle sut ~traced ~req slot ~cid ~tag);
         slot.outcome <- Done
       with e -> slot.outcome <- Failed (describe_exn e));
      slot.tm.t_end <- now ();
      (* a one-worker segment (run on this domain) reads the host's
         speed between requests, in an open loop only where it would
         wait for the next arrival anyway *)
      if sampled && workers = 1 then
        Speed.idle ~until:(if open_loop && i + 1 < n then due !t_zero reqs.(i + 1) else infinity)
  in
  let warmups =
    List.init workers (fun _ ->
        {
          Pool.j_kind = Pool.Read;
          j_label = "warmup";
          j_arrival_ms = 0.;
          j_deadline_ms = None;
          j_run = warm;
        })
  in
  let measured =
    List.mapi
      (fun i (r : Gen.req) ->
        {
          Pool.j_kind = r.Gen.kind;
          j_label = r.Gen.shape;
          j_arrival_ms = (if open_loop then Spec.warmup_ms +. r.Gen.arrival_ms else 0.);
          j_deadline_ms = None;
          j_run = job i r;
        })
      (Array.to_list reqs)
  in
  if traced then Instr.enable sut.instr;
  (* the pool takes its clock origin right after this, with nothing
     between but allocating its per-job arrays *)
  Speed.start ();
  t_zero := now ();
  ignore (Pool.run ~workers ~session:(session sut) (warmups @ measured) : Pool.report);
  let delta = Instr.since sut.instr !before in
  Instr.disable sut.instr;
  let speed = Speed.finish () in
  let seg = { reqs; slots; open_loop; t_zero = !t_zero; wall_s = 0.; speed; delta } in
  let ran = indices seg all in
  let fold f init = List.fold_left (fun acc i -> f acc slots.(i)) init ran in
  let first = fold (fun acc s -> Float.min acc s.tm.t_start) infinity in
  let last = fold (fun acc s -> Float.max acc s.tm.t_end) neg_infinity in
  let seg = { seg with wall_s = (if ran = [] then 0. else last -. first) } in
  if open_loop && ran <> [] && !released_at > scheduled seg 0 then
    Printf.eprintf "warning: warm-up ran %.1f ms past the first arrival\n"
      (ms (scheduled seg 0) !released_at);
  List.iter
    (fun i ->
      let s = slots.(i) and req = req_id ~stream i in
      (match s.outcome with
      | Failed msg -> violation "request %d (%s) failed: %s" i reqs.(i).Gen.shape msg
      | _ -> ());
      (* the root span runs from the scheduled arrival; its first child
         is the time the request waited for a worker *)
      let arrival = if open_loop then scheduled seg i else s.tm.t_start in
      span s ~traced ~req "server.queue" arrival s.tm.t_start;
      span s ~traced ~req ~parent:"" "request" arrival s.tm.t_end)
    ran;
  tally seg;
  seg

(* --- metrics ---------------------------------------------------------------- *)

let counter seg name =
  float_of_int (Option.value (List.assoc_opt name seg.delta.Instr.counters) ~default:0)

(* every time below is at the reference speed: a timer, a timed slot
   field or a latency is scaled by its segment's [speed] *)
let timer seg name =
  seg.speed *. Option.value (List.assoc_opt name seg.delta.Instr.timers) ~default:0.

let lat seg p = Array.of_list (List.map (latency seg) (indices seg p))
let field seg p f = Array.of_list (List.map (fun i -> f seg.slots.(i)) (indices seg p))
let timed seg p f = Array.map (fun v -> v *. seg.speed) (field seg p f)
let sum a = Array.fold_left ( +. ) 0. a

(* the heap the system under test keeps, in MB: every word reachable
   from it (data, versions, sessions and their plan caches, counters),
   and nothing of the harness's. [Gc.stat]'s live words are no measure
   here: on OCaml 5.1 they fell below the empty process's once worker
   domains had allocated and exited. The result cache is flushed first:
   how many of its (bounded) entries are filled at a given instant is
   scheduling, not memory the program keeps. *)
let live_heap_mb sut =
  Option.iter Cache.flush (Aldsp.Dataspace.result_cache sut.fc.FC.ds);
  float_of_int (Obj.reachable_words (Obj.repr sut) * (Sys.word_size / 8)) /. 1048576.

(* The end-to-end rounds. Each round runs set-ups, an open loop, the
   submit probe (workloads whose mix has no submits) and a closed loop;
   rounds spread every kind of work over the whole run. Latencies are
   pooled over the rounds, and a round keeps only those samples: its
   segments are garbage before the next one starts. Submit latency comes
   from the mix where it has submits, from the probe otherwise. *)
let end_to_end spec sut refs ~secs ~first_setup ~open_list ~closed_list ~probe =
  let round_s = secs /. float_of_int Spec.rounds in
  let setups = ref [ first_setup ] in
  let lats = ref [] and reads = ref [] and submits = ref [] in
  let done_ = ref 0. and busy_s = ref 0. and heap = ref nan in
  for r = 1 to Spec.rounds do
    for _ = 1 to Spec.setups_per_round do
      setups := fst (setup spec) :: !setups
    done;
    let stream = 10 * r in
    let openl =
      run_segment sut refs ~workers:1 ~traced:false ~open_loop:true ~sampled:true ~stream
        (open_list ~stream (0.5 *. round_s))
    in
    let p =
      probe ~traced:false ~stream:(stream + 1) ~count:(spec.Spec.probe_submits / Spec.rounds)
    in
    (* after a fixed amount of work: the closed loops' request counts
       vary with the machine's speed, and the SQL logs grow by a string
       per statement executed *)
    if r = 1 then heap := live_heap_mb sut;
    let closed =
      run_segment sut refs ~workers:2 ~traced:false ~open_loop:false
        ~limit_s:(0.5 *. round_s) ~stream:(stream + 2)
        (closed_list ~stream:(stream + 2) (0.5 *. round_s))
    in
    lats := lat openl all :: !lats;
    reads := lat openl (is_kind Pool.Read) :: !reads;
    submits := (match p with Some p -> lat p all | None -> lat openl is_cycle) :: !submits;
    done_ := !done_ +. served closed;
    busy_s := !busy_s +. (closed.wall_s *. closed.speed);
    Printf.printf "round %d: speed %.3f, capacity %.1f, open-loop p50 %.4g ms\n" r openl.speed
      (capacity closed)
      (Stats.percentile (List.hd !lats) 50.)
  done;
  let pct samples q = Stats.percentile (Array.concat samples) q in
  [
    ("setup_s", Stats.median (Array.of_list !setups));
    ("capacity_qps", Stats.ratio !done_ !busy_s);
    ("p50_ms", pct !lats 50.);
    ("p90_ms", pct !lats 90.);
    ("read_p90_ms", pct !reads 90.);
    ("submit_p50_ms", pct !submits 50.);
    ("submit_p90_ms", pct !submits 90.);
    ("heap_live_mb", !heap);
  ]

let per_layer sut ~c1 ~c2 ~a ~b ~probe =
  let reqs = float_of_int (List.length (indices a all)) in
  let per_req name = Stats.ratio (counter a name) reqs in
  (* submits are measured where several can race: in the 2-worker pass
     (write-mix), or in the serial probe of the other workloads *)
  let cyc = match probe with Some p -> p | None -> b in
  let cycles = indices cyc is_cycle in
  let attempts = float_of_int (List.fold_left (fun acc i -> acc + cyc.slots.(i).attempts) 0 cycles) in
  let per_attempt v = Stats.ratio v attempts in
  let submit_ms =
    Array.of_list
      (List.concat_map (fun i -> List.map (fun t -> t *. cyc.speed) cyc.slots.(i).submit_ms) cycles)
  in
  let queue_wait =
    Array.of_list
      (List.map (fun i -> a.speed *. ms (scheduled a i) a.slots.(i).tm.t_start) (indices a all))
  in
  let compiled = counter a Instr.K.queries_compiled in
  let hits = counter a Instr.K.cache_hit and misses = counter a Instr.K.cache_miss in
  let bypass = counter a Instr.K.cache_bypass in
  let plan_hit = counter a Instr.K.plan_cache_hit in
  let plan_miss = counter a Instr.K.plan_cache_miss in
  [
    ("server.queue_wait_p50_ms", Stats.percentile queue_wait 50.);
    ("server.queue_wait_p99_ms", Stats.percentile queue_wait 99.);
    (* ratios of rates measured close together: as measured, since
       two-worker segments take no speed samples of their own *)
    ("server.parallel_efficiency", Stats.ratio (rate c2) (2. *. rate c1));
    ("xqse.compile_ms", Stats.mean (timed a is_query (fun s -> s.tm.compile_ms)));
    ("xqse.plan_hit_ratio", Stats.ratio plan_hit (plan_hit +. plan_miss));
    ("xqse.run_ms", Stats.mean (timed a is_query (fun s -> s.tm.run_ms)));
    ("xqse.statements_per_req", per_req Instr.K.xqse_statements);
    ( "xquery.optimizer_ms_per_compile",
      Stats.ratio
        (sum
           (Array.map (timer a)
              Instr.K.
                [|
                  t_optimizer_fold; t_optimizer_normalize; t_optimizer_inline;
                  t_optimizer_join; t_optimizer_push;
                |]))
        compiled );
    ( "xquery.rewrites_per_compile",
      Stats.ratio
        (sum
           (Array.map (counter a)
              Instr.K.[| optimizer_folded; optimizer_inlined; optimizer_joins; optimizer_pushed |]))
        compiled );
    ("xquery.stream_pulled_per_req", per_req Instr.K.stream_pulled);
    ("xquery.materialized_per_req", per_req Instr.K.stream_materialized);
    ("cache.hit_ratio", Stats.ratio hits (hits +. misses));
    ( "cache.evict_per_submit",
      Stats.ratio (counter a Instr.K.cache_evict) (float_of_int (List.length (indices a is_cycle))) );
    ("cache.bypass_ratio", Stats.ratio bypass (hits +. misses +. bypass));
    ("aldsp.get_ms", per_attempt (sum (timed cyc is_cycle (fun s -> s.tm.get_ms))));
    ("aldsp.submit_p50_ms", Stats.percentile submit_ms 50.);
    ("aldsp.submit_p99_ms", Stats.percentile submit_ms 99.);
    ("aldsp.attempts_per_commit", Stats.ratio attempts (float_of_int (List.length cycles)));
    ("aldsp.statements_per_submit", per_attempt (counter cyc Instr.K.sql_generated));
    ("sdo.serialize_ms", per_attempt (sum (timed cyc is_cycle (fun s -> s.tm.ser_ms))));
    ( "sdo.wire_bytes_per_submit",
      per_attempt (sum (field cyc is_cycle (fun s -> float_of_int s.wire_bytes))) );
    ("relational.rows_scanned_per_req", per_req Instr.K.rows_scanned);
    ("relational.rows_fetched_per_req", per_req Instr.K.rows_fetched);
    ( "relational.rows_scanned_per_item",
      Stats.ratio (counter a Instr.K.rows_scanned)
        (sum (field a is_query (fun s -> float_of_int s.items))) );
    ("relational.snapshot_pin_us", Stats.mean (timed a is_query (fun s -> s.tm.pin_us)));
    ( "relational.sql_executed_per_submit",
      per_attempt (sum (field cyc is_cycle (fun s -> float_of_int s.executed))) );
    ( "relational.lock_contended_ratio",
      Stats.ratio (counter cyc Instr.K.mvcc_lock_contended) (counter cyc Instr.K.mvcc_lock_acquired) );
    ( "relational.versions_live_end",
      float_of_int (List.fold_left (fun acc t -> acc + R.Table.live_versions t) 0 sut.tables) );
    ("webservice.calls_per_req", per_req Instr.K.ws_calls);
    ("resilience.guard_ms_per_req", Stats.ratio (timer a "resil.guard") reqs);
    ("resilience.retries_per_req", per_req Instr.K.resil_retries);
    ("instr.overhead_pct", (Stats.ratio (rate c2) (rate b) -. 1.) *. 100.);
  ]

(* source counters that must repeat exactly between two traced passes
   over the same requests (plan-cache counts are left out: which worker
   draws a text first is scheduling) *)
let gated =
  Instr.K.
    [ rows_scanned; rows_fetched; ws_calls; stream_pulled; stream_materialized; stream_early_exits ]

(* --- output ------------------------------------------------------------------ *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (json_number v) unit)
          metrics))

let write_spans (spec : Spec.t) ~seed segs =
  let dir = Filename.concat "perfbench" "out" in
  List.iter
    (fun d -> try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    [ "perfbench"; dir ];
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.spans.jsonl" spec.Spec.name seed) in
  let spans = List.concat_map (fun seg -> List.concat_map (fun s -> List.rev s.spans) (Array.to_list seg.slots)) segs in
  Trace.write path spans;
  Printf.printf "spans: %d written to %s\n" (List.length spans) path

(* --- main ---------------------------------------------------------------------- *)

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--self-test]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  let self_test = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME profile-read | adhoc-query | write-mix");
      ("--seed", Arg.Set_int seed, "N request-list seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--self-test", Arg.Set self_test, " run the harness self-tests only");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  (match Selftest.run () with
  | [] -> ()
  | failures ->
    List.iter prerr_endline failures;
    exit 2);
  if !self_test then begin
    print_endline "self-tests passed";
    exit 0
  end;
  let spec =
    match Spec.find !workload with
    | Some s when !trace = 0 || !trace = 1 -> s
    | _ ->
      prerr_endline usage;
      exit 2
  in
  let secs = float_of_int (max 1 !seconds) and seed = !seed in
  let traced = !trace = 1 in
  (* the system the run measures; the end-to-end rounds set up more,
     throwaway copies *)
  let first_setup_s, sut = setup spec in
  let refs = references sut in
  let closed_list ~stream s =
    Gen.requests spec sut.keys ~seed ~stream ~open_loop:false
      ~count:(int_of_float (spec.Spec.list_qps *. s) + 1)
  in
  let open_list ~stream s =
    Gen.requests spec sut.keys ~seed ~stream ~open_loop:true
      ~count:(int_of_float (spec.Spec.rate_qps *. s) + 1)
  in
  let probe ~traced ~stream ~count =
    if count = 0 then None
    else
      Some
        (run_segment sut refs ~workers:1 ~traced ~open_loop:false ~sampled:true ~stream
           (Gen.probe sut.keys ~seed ~stream ~count))
  in
  let metrics, units =
    if not traced then
      ( end_to_end spec sut refs ~secs ~first_setup:first_setup_s ~open_list ~closed_list ~probe,
        Spec.end_to_end )
    else begin
      let c1 =
        run_segment sut refs ~workers:1 ~traced:false ~open_loop:false ~limit_s:(0.15 *. secs)
          ~stream:101 (closed_list ~stream:101 (0.15 *. secs))
      in
      let c2 =
        run_segment sut refs ~workers:2 ~traced:false ~open_loop:false ~limit_s:(0.15 *. secs)
          ~stream:102 (closed_list ~stream:102 (0.15 *. secs))
      in
      let reqs = open_list ~stream:103 (0.45 *. secs) in
      let a =
        run_segment sut refs ~workers:1 ~traced:true ~open_loop:true ~sampled:true ~stream:103 reqs
      in
      let b = run_segment sut refs ~workers:2 ~traced:true ~open_loop:false ~stream:104 reqs in
      let p = probe ~traced:true ~stream:105 ~count:spec.Spec.probe_submits in
      if not spec.Spec.cache then
        List.iter
          (fun name ->
            let va = counter a name and vb = counter b name in
            Printf.printf "gate: %-22s %.0f / %.0f\n" name va vb;
            if va <> vb then
              violation "counter gate: %s is %.0f in one traced pass, %.0f in the other" name va vb)
          gated;
      write_spans spec ~seed ([ a ] @ Option.to_list p);
      (per_layer sut ~c1 ~c2 ~a ~b ~probe:p, Spec.per_layer)
    end
  in
  drain_checks sut touched;
  let attempted = !attempted and failed = !failed in
  Printf.printf "reference: %.4f ms mean over %d samples (nominal %.2f)\n"
    (Speed.run_mean_ms ()) !Speed.run_count Speed.nominal_ms;
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.assoc_opt name metrics with
        | Some v -> (name, unit, v)
        | None ->
          violation "metric %s not measured" name;
          (name, unit, nan))
      units
  in
  List.iter
    (fun (name, unit, v) -> Printf.printf "%s %-36s %14.4f %s\n" spec.Spec.name name v unit)
    metrics;
  Printf.printf "%s %-36s %14.4f ratio (%d of %d requests)\n" spec.Spec.name "error_rate"
    (Stats.ratio (float_of_int failed) (float_of_int attempted)) failed attempted;
  let bad = List.rev !violations in
  List.iteri (fun i v -> if i < 20 then prerr_endline ("violation: " ^ v)) bad;
  print_endline (result_line ~correct:(bad = []) ~attempted ~failed metrics);
  exit (if bad = [] then 0 else 1)
