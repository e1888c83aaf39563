type kind = Read | Script | Submit

let kind_name = function
  | Read -> "read"
  | Script -> "script"
  | Submit -> "submit"

type job = {
  j_kind : kind;
  j_label : string;
  j_arrival_ms : float;
  j_deadline_ms : float option;
  j_run : Xqse.Session.t -> unit;
}

type latency = {
  l_p50 : float;
  l_p95 : float;
  l_p99 : float;
  l_max : float;
  l_mean : float;
}

type window = { w_from_ms : float; w_jobs : int; w_latency : latency }

type shed_policy = {
  sp_queue_bound : int option;
  sp_delay_target_ms : float option;
}

type brownout = {
  b_enter_ms : float;
  b_exit_ms : float;
  b_apply : bool -> unit;
}

type overload = {
  o_deadline_ms : float option;
  o_shed : shed_policy option;
  o_brownout : brownout option;
  o_clock : Resilience.Clock.t option;
}

let no_overload =
  { o_deadline_ms = None; o_shed = None; o_brownout = None; o_clock = None }

type report = {
  r_workers : int;
  r_jobs : int;
  r_ok : int;
  r_accepted : int;
  r_shed : int;
  r_expired : int;
  r_errors : (string * string) list;
  r_error_kinds : (string * int) list;
  r_wall_ms : float;
  r_qps : float;
  r_goodput : float;
  r_latency : latency;
  r_accepted_latency : latency;
  r_by_kind : (string * int) list;
  r_kind_latency : (string * latency) list;
  r_kind_words : (string * float) list;
  r_trajectory : window list;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else begin
    let rank = int_of_float (ceil (q /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let latency_of samples =
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let mean =
    if n = 0 then 0. else Array.fold_left ( +. ) 0. sorted /. float_of_int n
  in
  {
    l_p50 = percentile sorted 50.;
    l_p95 = percentile sorted 95.;
    l_p99 = percentile sorted 99.;
    l_max = (if n = 0 then 0. else sorted.(n - 1));
    l_mean = mean;
  }

(* bucket open-loop latencies by scheduled arrival: the percentile
   trajectory over time is what a sustained-rate run is actually for —
   a closed-loop summary hides a growing backlog behind one number *)
let trajectory ~window_ms jobs lat =
  if window_ms <= 0. || Array.length jobs = 0 then []
  else begin
    let last =
      Array.fold_left (fun acc j -> Float.max acc j.j_arrival_ms) 0. jobs
    in
    let windows = 1 + int_of_float (last /. window_ms) in
    List.filter_map
      (fun w ->
        let lo = float_of_int w *. window_ms in
        let hi = lo +. window_ms in
        let samples =
          Array.to_seq jobs
          |> Seq.mapi (fun i j -> (j.j_arrival_ms, lat.(i)))
          |> Seq.filter (fun (a, _) -> a >= lo && a < hi)
          |> Seq.map snd |> Array.of_seq
        in
        if Array.length samples = 0 then None
        else
          Some
            {
              w_from_ms = lo;
              w_jobs = Array.length samples;
              w_latency = latency_of samples;
            })
      (List.init windows Fun.id)
  end

let max_reported_errors = 32

(* stable-code classification of a job failure: RESX000x codes (the
   resilience layer raises them in the err: namespace) by local name;
   every other coded error reports its code's QName — [err:] codes by
   prefix, others (a data service's [CreateError], a user's [fn:error]
   code) in {uri}local form, since prefixes are not part of a name's
   identity *)
let error_kind = function
  | Xdm.Item.Error { code = { Xdm.Qname.uri; local; _ }; _ }
    when uri = Xdm.Qname.err_ns ->
    if String.length local >= 4 && String.sub local 0 4 = "RESX" then local
    else "err:" ^ local
  | Xdm.Item.Error { code; _ } ->
    Xdm.Qname.to_string { code with Xdm.Qname.prefix = None }
  | _ -> "other"

(* human-readable failure text for the report: structured errors print
   their code and message, everything else falls back to Printexc *)
let error_message = function
  | Xdm.Item.Error { code; message; _ } ->
    Printf.sprintf "%s: %s" (Xdm.Qname.to_string code) message
  | e -> Printexc.to_string e

(* queueing-delay EWMA — the pool's pressure signal. One shared cell,
   updated at every dequeue; crossing [b_enter_ms] switches brownout on,
   falling below [b_exit_ms] switches it off (hysteresis: exit below
   enter, so the signal doesn't flap around one threshold). *)
type pressure = {
  pr_lock : Mutex.t;
  mutable pr_ewma : float;
  mutable pr_primed : bool;
  mutable pr_active : bool;
}

let ewma_alpha = 0.2

let observe_pressure pr bo delay_ms =
  match bo with
  | None -> ()
  | Some bo ->
    let transition =
      Mutex.protect pr.pr_lock (fun () ->
          pr.pr_ewma <-
            (if pr.pr_primed then
               (ewma_alpha *. delay_ms) +. ((1. -. ewma_alpha) *. pr.pr_ewma)
             else delay_ms);
          pr.pr_primed <- true;
          if (not pr.pr_active) && pr.pr_ewma > bo.b_enter_ms then begin
            pr.pr_active <- true;
            Some true
          end
          else if pr.pr_active && pr.pr_ewma < bo.b_exit_ms then begin
            pr.pr_active <- false;
            Some false
          end
          else None)
    in
    (match transition with Some on -> bo.b_apply on | None -> ())

let run ?(workers = 1) ?(window_ms = 250.) ?(overload = no_overload) ~session
    jobs =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let workers = max 1 workers in
  let instr = Xqse.Session.instr session in
  (* per-job slots: each index is written by exactly one worker *)
  let lat = Array.make n 0. in
  let words = Array.make n 0. in
  let ok = Array.make n false in
  let accepted = Array.make n false in
  let shed = Array.make n false in
  let expired = Array.make n false in
  let err_m = Mutex.create () in
  let errors = ref [] in
  let kinds : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let next = Stdlib.Atomic.make 0 in
  let open_loop = Array.exists (fun j -> j.j_arrival_ms > 0.) jobs in
  let pressure =
    { pr_lock = Mutex.create (); pr_ewma = 0.; pr_primed = false;
      pr_active = false }
  in
  let record_failure label kind msg =
    Mutex.protect err_m (fun () ->
        Hashtbl.replace kinds kind
          (1 + Option.value (Hashtbl.find_opt kinds kind) ~default:0);
        if List.length !errors < max_reported_errors then
          errors := (label, msg) :: !errors)
  in
  (* fork the worker sessions up front, on this domain: forking reads
     the template's registry and module tables, and doing it before any
     worker runs keeps that a single-threaded affair *)
  let sessions =
    if workers = 1 then [| session |]
    else begin
      let cfg = Xqse.Session.config session in
      Array.init workers (fun _ -> Xqse.Session.with_config session cfg)
    end
  in
  let t0 = Unix.gettimeofday () in
  (* admission backlog of job [i] at run-relative [now_ms]: how many of
     the jobs from [i] on have already arrived (arrivals are generated
     nondecreasing, so the scan stops at the first future arrival; cost
     is O(backlog), which is exactly what a real queue-length probe
     costs) *)
  let backlog_from i now_ms =
    let rec count k =
      if k < n && jobs.(k).j_arrival_ms <= now_ms then count (k + 1) else k - i
    in
    count i
  in
  let worker wsess =
    let rec loop () =
      let i = Stdlib.Atomic.fetch_and_add next 1 in
      if i < n then begin
        let j = jobs.(i) in
        let arrive = t0 +. (j.j_arrival_ms /. 1000.) in
        let rec wait () =
          let now = Unix.gettimeofday () in
          if now < arrive then begin
            Unix.sleepf (Float.min 0.002 (arrive -. now));
            wait ()
          end
        in
        if open_loop then wait ();
        (* open loop: latency from the scheduled arrival, so a backlog
           shows up as latency; closed loop: pure service time *)
        let now = Unix.gettimeofday () in
        let start = if open_loop then arrive else now in
        let qdelay_ms = if open_loop then (now -. arrive) *. 1000. else 0. in
        observe_pressure pressure overload.o_brownout qdelay_ms;
        Instr.bump instr Instr.K.server_jobs;
        let budget =
          match j.j_deadline_ms with
          | Some _ as b -> b
          | None -> overload.o_deadline_ms
        in
        (* admission: a request whose whole budget died in the queue is
           expired (RESX0005); an over-bound or over-delay-target queue
           sheds from the head (RESX0006). Both cost ~zero service time:
           the job body never runs. *)
        let verdict =
          match budget with
          | Some b when qdelay_ms >= b -> `Expired b
          | _ -> (
            match overload.o_shed with
            | None -> `Admit
            | Some sp ->
              let over_bound =
                match sp.sp_queue_bound with
                | Some bound ->
                  backlog_from i ((now -. t0) *. 1000.) > bound
                | None -> false
              in
              let over_target =
                match sp.sp_delay_target_ms with
                | Some target -> qdelay_ms > target
                | None -> false
              in
              if over_bound then
                `Shed
                  (Printf.sprintf "queue depth over bound %d"
                     (Option.get sp.sp_queue_bound))
              else if over_target then
                `Shed
                  (Printf.sprintf
                     "queueing delay %.1fms over target %.0fms" qdelay_ms
                     (Option.get sp.sp_delay_target_ms))
              else `Admit)
        in
        (match verdict with
        | `Expired b ->
          expired.(i) <- true;
          Instr.bump instr Instr.K.overload_expired;
          record_failure j.j_label "RESX0005"
            (Printf.sprintf
               "err:RESX0005 deadline of %.0fms exhausted after %.1fms in \
                queue"
               b qdelay_ms)
        | `Shed why ->
          shed.(i) <- true;
          Instr.bump instr Instr.K.overload_shed;
          record_failure j.j_label "RESX0006"
            (Printf.sprintf "err:RESX0006 shed at admission: %s" why)
        | `Admit ->
          accepted.(i) <- true;
          (* no pool-level lock: reads run against pinned MVCC snapshots
             and submits take per-table write locks below (publication is
             atomic at commit), so the pool never serializes jobs — a
             submit in flight no longer excludes every reader *)
          let run_job () =
            (match j.j_kind with
            | Submit -> Instr.bump instr Instr.K.server_submits
            | Read | Script -> ());
            (* minor words are counted per domain: this worker's alone *)
            let w0 = Gc.minor_words () in
            Fun.protect
              ~finally:(fun () -> words.(i) <- Gc.minor_words () -. w0)
              (fun () -> j.j_run wsess)
          in
          let run_deadlined () =
            match budget with
            | None -> run_job ()
            | Some b ->
              (* the queue already spent [qdelay_ms] of the budget; the
                 service gets what is left, on the hybrid virtual+wall
                 clock, and the consumed span lands in the
                 [deadline.budget] timer *)
              let d =
                Resilience.Deadline.start ?clock:overload.o_clock
                  ~budget_ms:(b -. qdelay_ms) ()
              in
              Fun.protect
                ~finally:(fun () ->
                  Instr.add_ms instr Instr.K.t_deadline_budget
                    (qdelay_ms +. Resilience.Deadline.elapsed_ms d))
                (fun () -> Resilience.Deadline.with_deadline d run_job)
          in
          (try
             run_deadlined ();
             ok.(i) <- true
           with e ->
             Instr.bump instr Instr.K.server_errors;
             record_failure j.j_label (error_kind e) (error_message e)));
        lat.(i) <- (Unix.gettimeofday () -. start) *. 1000.;
        loop ()
      end
    in
    loop ()
  in
  if workers = 1 then worker sessions.(0)
  else
    Array.map (fun s -> Domain.spawn (fun () -> worker s)) sessions
    |> Array.iter Domain.join;
  (* the run is over, the queue is empty: pressure has cleared by
     definition, so a still-active brownout restores on the way out *)
  (match overload.o_brownout with
  | Some bo when pressure.pr_active ->
    pressure.pr_active <- false;
    bo.b_apply false
  | _ -> ());
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let count a = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 a in
  let by_kind =
    List.map
      (fun k ->
        ( kind_name k,
          Array.fold_left
            (fun acc j -> if j.j_kind = k then acc + 1 else acc)
            0 jobs ))
      [ Read; Script; Submit ]
  in
  let mask m =
    Array.of_seq
      (Seq.filter_map
         (fun i -> if m.(i) then Some lat.(i) else None)
         (Seq.init n Fun.id))
  in
  let n_ok = count ok in
  let of_kind k = Array.mapi (fun i a -> a && jobs.(i).j_kind = k) accepted in
  {
    r_workers = workers;
    r_jobs = n;
    r_ok = n_ok;
    r_accepted = count accepted;
    r_shed = count shed;
    r_expired = count expired;
    r_errors = List.rev !errors;
    r_error_kinds =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds []);
    r_wall_ms = wall_ms;
    r_qps = (if wall_ms > 0. then float_of_int n /. (wall_ms /. 1000.) else 0.);
    r_goodput =
      (if wall_ms > 0. then float_of_int n_ok /. (wall_ms /. 1000.) else 0.);
    r_latency = latency_of lat;
    r_accepted_latency = latency_of (mask accepted);
    r_by_kind = by_kind;
    r_kind_latency =
      List.filter_map
        (fun k ->
          let samples = mask (of_kind k) in
          if Array.length samples = 0 then None
          else Some (kind_name k, latency_of samples))
        [ Read; Script; Submit ];
    r_kind_words =
      List.filter_map
        (fun k ->
          let m = of_kind k in
          let ran = count m in
          if ran = 0 then None
          else
            let total = ref 0. in
            Array.iteri (fun i w -> if m.(i) then total := !total +. w) words;
            Some (kind_name k, !total /. float_of_int ran))
        [ Read; Script; Submit ];
    r_trajectory = (if open_loop then trajectory ~window_ms jobs lat else []);
  }
