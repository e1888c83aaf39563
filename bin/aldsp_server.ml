(* aldsp-server — drive the CustomerProfile dataspace with a pool of
   concurrent worker domains under a seeded open-loop workload.

     aldsp-server --workers 4 --jobs 200          # closed-loop burst
     aldsp-server --rate 500 --jobs 1000          # open loop, 500 jobs/s
     aldsp-server --chaos-seed 7 --stats          # under a fault plan
     aldsp-server --cache --stats                 # with the result cache
     aldsp-server --deadline-ms 250 --shed \
                  --overload-factor 3             # overload, shedding on
     aldsp-server --smoke                         # CI smoke contract *)

open Core

let parse_mix s =
  match String.split_on_char ':' s with
  | [ r; w; u ] -> (
    match (int_of_string_opt r, int_of_string_opt w, int_of_string_opt u) with
    | Some m_reads, Some m_scripts, Some m_submits
      when m_reads >= 0 && m_scripts >= 0 && m_submits >= 0
           && m_reads + m_scripts + m_submits > 0 ->
      Some { Server.Workload.m_reads; m_scripts; m_submits }
    | _ -> None)
  | _ -> None

let parse_brownout s =
  match String.split_on_char ':' s with
  | [ a; b ] -> (
    match (float_of_string_opt a, float_of_string_opt b) with
    | Some enter, Some exit_ when enter > 0. && exit_ >= 0. && exit_ < enter ->
      Some (enter, exit_)
    | _ -> None)
  | _ -> None

let build_env ~customers ~instr ~chaos () =
  let resilience =
    match chaos with
    | None -> None
    | Some (seed, profile) ->
      let ctl =
        Resilience.Control.create
          ~plan:(Resilience.Plan.make ~seed ~profile ())
          ~instr ()
      in
      List.iter
        (fun source ->
          Resilience.Control.set_policy ctl ~source
            (Resilience.Policy.make ~max_retries:2 ~backoff_ms:5. ~jitter_ms:2.
               ()))
        [ "db1"; "db2" ];
      Resilience.Control.set_policy ctl ~source:"CreditRatingService"
        (Resilience.Policy.make ~max_retries:2 ~backoff_ms:5. ~jitter_ms:2.
           ~breaker:Resilience.Breaker.default_config ());
      Resilience.Control.set_degradable ctl ~source:"CreditRatingService";
      Some ctl
  in
  Fixtures.Customer_profile.make ~customers ~instr ?resilience ()

(* the cross-database pair every submit rewrites together — matched
   suffixes (or the seeded baseline) prove zero partial commits, the
   same invariant the chaos harness pins *)
let value_at tbl pk col =
  match Relational.Table.find_pk tbl pk with
  | Some row -> Relational.Table.get row tbl col
  | None -> Relational.Value.Null

let text = function Relational.Value.Text s -> s | v -> Relational.Value.to_string v

let source_pair env =
  ( text
      (value_at env.Fixtures.Customer_profile.customer
         [ Relational.Value.Text "007" ] "LAST_NAME"),
    text
      (value_at env.Fixtures.Customer_profile.credit_card
         [ Relational.Value.Int 900001 ] "CC_BRAND") )

let pair_consistent ~baseline (ln, br) =
  let suffix ~prefix s =
    let pl = String.length prefix in
    if String.length s > pl && String.sub s 0 pl = prefix then
      Some (String.sub s pl (String.length s - pl))
    else None
  in
  baseline = (ln, br)
  ||
  match (suffix ~prefix:"Name" ln, suffix ~prefix:"BRAND" br) with
  | Some k1, Some k2 -> k1 = k2
  | _ -> false

(* measure single-worker closed-loop capacity on a throwaway env (same
   mix and io cost, no chaos), so --overload-factor can offer a
   calibrated multiple of it *)
let measure_capacity ~mix ~io_ms ~submit_io_ms ~customers ~seed ~jobs =
  let instr = Instr.create () in
  let env = build_env ~customers ~instr ~chaos:None () in
  let session = Aldsp.Dataspace.session env.Fixtures.Customer_profile.ds in
  let work =
    Server.Workload.jobs ~mix ?io_ms ?submit_io_ms ~customers ~seed:(seed + 1)
      ~count:(min 80 (max 40 jobs)) env
  in
  (Server.Pool.run ~workers:1 ~session work).Server.Pool.r_qps

let main workers jobs rate io_ms submit_io_ms seed customers mix chaos_seed
    chaos_profile cache stats smoke deadline_ms queue_bound shed brownout
    overload_factor read_p99_bound =
  match (parse_mix mix, Option.map parse_brownout brownout) with
  | None, _ ->
    `Error (false, Printf.sprintf "bad --mix %S (want READS:SCRIPTS:SUBMITS)" mix)
  | _, Some None ->
    `Error
      ( false,
        Printf.sprintf "bad --brownout %S (want ENTER:EXIT ms, EXIT < ENTER)"
          (Option.value brownout ~default:"") )
  | Some mix, brownout ->
    let brownout = Option.join brownout in
    let instr = Instr.create () in
    Instr.preregister instr;
    Instr.enable instr;
    let chaos =
      match chaos_seed with
      | None -> None
      | Some s ->
        Some (s, Option.value chaos_profile ~default:Resilience.Plan.Light)
    in
    let env = build_env ~customers ~instr ~chaos () in
    if cache then
      ignore
        (Aldsp.Dataspace.enable_result_cache env.Fixtures.Customer_profile.ds);
    let session = Aldsp.Dataspace.session env.Fixtures.Customer_profile.ds in
    let ctl = Aldsp.Dataspace.resilience env.Fixtures.Customer_profile.ds in
    (* brownout needs something to degrade; without a chaos policy set,
       mark the credit-rating service degradable (the PR 4 degraded
       getProfile shape) *)
    if brownout <> None && chaos = None then
      Resilience.Control.set_degradable ctl ~source:"CreditRatingService";
    let capacity, rate =
      match overload_factor with
      | Some f when f > 0. ->
        let cap =
          measure_capacity ~mix ~io_ms ~submit_io_ms ~customers ~seed ~jobs
        in
        (Some cap, Some (f *. cap))
      | _ -> (None, rate)
    in
    (match (capacity, rate) with
    | Some cap, Some r ->
      Printf.printf "capacity %.0f qps measured (1 worker) -> offering %.0f\n"
        cap r
    | _ -> ());
    let overload_on =
      deadline_ms <> None || queue_bound <> None || shed <> None
      || brownout <> None
    in
    let overload =
      {
        Server.Pool.o_deadline_ms = deadline_ms;
        o_shed =
          (match (queue_bound, shed) with
          | None, None -> None
          | sp_queue_bound, sp_delay_target_ms ->
            Some { Server.Pool.sp_queue_bound; sp_delay_target_ms });
        o_brownout =
          Option.map
            (fun (b_enter_ms, b_exit_ms) ->
              {
                Server.Pool.b_enter_ms;
                b_exit_ms;
                b_apply = Resilience.Control.set_brownout ctl;
              })
            brownout;
        o_clock = Some (Resilience.Control.clock ctl);
      }
    in
    let baseline = source_pair env in
    let work =
      Server.Workload.jobs ~mix ?rate ?io_ms ?submit_io_ms ~customers ~seed
        ~count:jobs env
    in
    let rp = Server.Pool.run ~workers ~overload ~session work in
    let open Server.Pool in
    let c name =
      Option.value ~default:0
        (List.assoc_opt name (Instr.stats instr).Instr.counters)
    in
    Printf.printf "workers  %d\n" rp.r_workers;
    Printf.printf "jobs     %d (%s)\n" rp.r_jobs
      (String.concat ", "
         (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) rp.r_by_kind));
    Printf.printf "ok       %d\n" rp.r_ok;
    Printf.printf "errors   %d\n" (rp.r_jobs - rp.r_ok);
    Printf.printf "wall     %.1f ms\n" rp.r_wall_ms;
    Printf.printf "qps      %.0f\n" rp.r_qps;
    Printf.printf "latency  p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  max %.2f ms\n"
      rp.r_latency.l_p50 rp.r_latency.l_p95 rp.r_latency.l_p99
      rp.r_latency.l_max;
    (* per-kind breakdown — the MVCC headline is read p99 staying flat
       while a submit stream runs; one kind alone would just repeat the
       aggregate line *)
    if List.length rp.r_kind_latency > 1 then
      List.iter
        (fun (k, l) ->
          Printf.printf
            "%-8s p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  max %.2f ms\n" k
            l.l_p50 l.l_p95 l.l_p99 l.l_max)
        rp.r_kind_latency;
    if overload_on then begin
      Printf.printf "overload accepted %d  shed %d  expired %d  goodput %.0f qps\n"
        rp.r_accepted rp.r_shed rp.r_expired rp.r_goodput;
      Printf.printf
        "accepted p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  max %.2f ms\n"
        rp.r_accepted_latency.l_p50 rp.r_accepted_latency.l_p95
        rp.r_accepted_latency.l_p99 rp.r_accepted_latency.l_max;
      if brownout <> None then
        Printf.printf "brownout entered %d  exited %d  degraded reads %d\n"
          (c Instr.K.overload_brownout_entered)
          (c Instr.K.overload_brownout_exited)
          (c Instr.K.resil_degraded)
    end;
    if rp.r_error_kinds <> [] then
      Printf.printf "kinds    %s\n"
        (String.concat "  "
           (List.map
              (fun (k, n) -> Printf.sprintf "%s %d" k n)
              rp.r_error_kinds));
    List.iter
      (fun w ->
        Printf.printf
          "window   +%-6.0fms jobs %-4d p50 %.2f ms  p95 %.2f ms  p99 %.2f ms\n"
          w.w_from_ms w.w_jobs w.w_latency.l_p50 w.w_latency.l_p95
          w.w_latency.l_p99)
      rp.r_trajectory;
    if cache then begin
      let hits = c Instr.K.cache_hit and misses = c Instr.K.cache_miss in
      let rate =
        if hits + misses = 0 then 0.
        else 100. *. float_of_int hits /. float_of_int (hits + misses)
      in
      Printf.printf "cache    hit %d  miss %d  evict %d  bypass %d  (%.0f%% hits)\n"
        hits misses (c Instr.K.cache_evict) (c Instr.K.cache_bypass) rate
    end;
    List.iter
      (fun (label, msg) -> Printf.printf "error    %s: %s\n" label msg)
      rp.r_errors;
    if stats then begin
      Printf.printf "words    %s (minor words per job)\n"
        (String.concat "  "
           (List.map
              (fun (k, w) -> Printf.sprintf "%s %.0f" k w)
              rp.r_kind_words));
      let st = Instr.stats instr in
      print_newline ();
      print_string (Instr.render st)
    end;
    if smoke then begin
      (* the smoke contract: always positive throughput and a matched
         cross-database pair (zero partial commits). Without overload
         features every job must succeed; with them, every *accepted*
         job must succeed (chaos runs excepted — faults legitimately
         fail accepted jobs) and the accepted p99 must stay within the
         configured deadline. *)
      let failures = ref [] in
      let expect what b = if not b then failures := what :: !failures in
      let failed kind = List.assoc_opt kind rp.r_error_kinds in
      expect "zero throughput" (rp.r_qps > 0.);
      (* every failure carries its code: an uncoded one is a programming
         error, and under a chaos plan, where every source runs a retry
         policy, an err:RESX0004 is an injected fault that escaped it *)
      expect "failures without a code" (failed "other" = None);
      if chaos <> None then
        expect "injected faults escaped their retry policy"
          (failed "RESX0004" = None);
      expect "partial commit: cross-database pair torn"
        (pair_consistent ~baseline (source_pair env));
      (match read_p99_bound with
      | Some bound ->
        (* the MVCC contract: a submit stream with heavy write-side I/O
           (--submit-io-ms) must not drag reader tail latency up to
           submit latency the way the retired pool-wide lock did *)
        let read_p99 =
          match List.assoc_opt "read" rp.r_kind_latency with
          | Some l -> l.l_p99
          | None -> 0.
        in
        expect
          (Printf.sprintf "read p99 %.1fms over the %.0fms bound" read_p99
             bound)
          (read_p99 <= bound)
      | None -> ());
      if overload_on then begin
        expect "goodput is zero" (rp.r_goodput > 0.);
        if chaos = None then
          expect "accepted jobs failed" (rp.r_ok = rp.r_accepted);
        match deadline_ms with
        | Some d ->
          expect
            (Printf.sprintf "accepted p99 %.1fms over the %.0fms deadline"
               rp.r_accepted_latency.l_p99 d)
            (rp.r_accepted_latency.l_p99 <= d)
        | None -> ()
      end
      else if chaos = None then expect "errors present" (rp.r_ok = rp.r_jobs);
      match !failures with
      | [] ->
        print_endline "smoke: OK";
        `Ok ()
      | fs -> `Error (false, "smoke failed: " ^ String.concat "; " fs)
    end
    else `Ok ()

open Cmdliner

let workers =
  let doc = "Worker domains in the pool ($(docv) = 1 runs sequentially)." in
  Arg.(value & opt int 2 & info [ "w"; "workers" ] ~docv:"N" ~doc)

let jobs =
  let doc = "Total jobs to run." in
  Arg.(value & opt int 100 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let rate =
  let doc =
    "Open-loop arrival rate in jobs per second (Poisson arrivals); omitted, \
     workers pull jobs back-to-back (closed loop)."
  in
  Arg.(value & opt (some float) None & info [ "rate" ] ~docv:"QPS" ~doc)

let io_ms =
  let doc =
    "Simulated source round-trip per job in milliseconds (a real sleep): the \
     wire latency remote sources would add, giving workers I/O to overlap."
  in
  Arg.(value & opt (some float) None & info [ "io-ms" ] ~docv:"MS" ~doc)

let submit_io_ms =
  let doc =
    "Simulated round-trip for submit jobs only, overriding --io-ms for them: \
     a writer stream with heavier wire time than reads — under the per-table \
     MVCC locks it slows only conflicting submits, never readers."
  in
  Arg.(value & opt (some float) None & info [ "submit-io-ms" ] ~docv:"MS" ~doc)

let seed =
  let doc = "Workload seed: the job mix, targets and arrivals replay from it." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let customers =
  let doc = "Customers in the synthetic dataspace." in
  Arg.(value & opt int 5 & info [ "customers" ] ~docv:"N" ~doc)

let mix =
  let doc = "Workload mix as READS:SCRIPTS:SUBMITS weights." in
  Arg.(value & opt string "6:3:1" & info [ "mix" ] ~docv:"R:S:U" ~doc)

let chaos_seed =
  let doc = "Run the sources under a deterministic fault plan seeded with $(docv)." in
  Arg.(value & opt (some int) None & info [ "chaos-seed" ] ~docv:"SEED" ~doc)

let chaos_profile =
  let profile_conv =
    let parse s =
      match Resilience.Plan.profile_of_string s with
      | Some p -> Ok p
      | None ->
        Error (`Msg (Printf.sprintf "unknown profile %S (calm|light|heavy)" s))
    in
    Arg.conv
      ( parse,
        fun fmt p ->
          Format.pp_print_string fmt (Resilience.Plan.profile_to_string p) )
  in
  let doc = "Fault-plan intensity: $(b,calm), $(b,light) or $(b,heavy)." in
  Arg.(
    value
    & opt (some profile_conv) None
    & info [ "chaos-profile" ] ~docv:"PROFILE" ~doc)

let cache =
  let doc =
    "Enable the lineage-invalidated result cache: pure reads are served from \
     materialized prior results and submits evict exactly the entries whose \
     lineage touches the written tables."
  in
  Arg.(value & flag & info [ "cache" ] ~doc)

let stats =
  let doc =
    "Print the mean minor words each job kind allocated, then the cumulative \
     instrumentation counters, after the run."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let smoke =
  let doc =
    "CI smoke contract: exit non-zero unless throughput is positive, the \
     cross-database pair is matched (zero partial commits), every failure \
     carries a code (none is reported as other; under --chaos-seed none is \
     RESX0004, an injected fault that escaped its retry policy), and — with \
     overload protection armed — every accepted job succeeded with accepted \
     p99 within the deadline."
  in
  Arg.(value & flag & info [ "smoke" ] ~doc)

let deadline_ms =
  let doc =
    "End-to-end request deadline in milliseconds: a request whose budget dies \
     in the queue fails fast with err:RESX0005, and the remaining budget caps \
     every source call below (min with each policy timeout)."
  in
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let queue_bound =
  let doc =
    "Bound the admission queue: when more than $(docv) arrived jobs are \
     waiting, requests are shed with err:RESX0006."
  in
  Arg.(value & opt (some int) None & info [ "queue-bound" ] ~docv:"N" ~doc)

let shed =
  let doc =
    "CoDel-style load shedding: drop requests with err:RESX0006 while the \
     queueing delay exceeds $(docv) ms (default 50 when the flag is given \
     bare)."
  in
  Arg.(
    value
    & opt ~vopt:(Some 50.) (some float) None
    & info [ "shed" ] ~docv:"MS" ~doc)

let brownout =
  let doc =
    "Brownout degradation: when the queueing-delay EWMA crosses ENTER ms, \
     degradable reads degrade proactively (served without the degradable \
     source, preferring warm cache hits) until the EWMA falls below EXIT ms. \
     Bare flag = 40:10."
  in
  Arg.(
    value
    & opt ~vopt:(Some "40:10") (some string) None
    & info [ "brownout" ] ~docv:"ENTER:EXIT" ~doc)

let overload_factor =
  let doc =
    "Offer $(docv) times the measured single-worker closed-loop capacity as \
     the open-loop arrival rate (overrides --rate): a calibrated overload for \
     smoke tests — 3.0 is a 3x storm."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "overload-factor" ] ~docv:"F" ~doc)

let read_p99_bound =
  let doc =
    "With --smoke: fail unless read-job p99 stays at or under $(docv) ms. \
     Paired with --submit-io-ms it pins the MVCC payoff — a background \
     writer stream must not inflate reader tail latency."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "read-p99-bound" ] ~docv:"MS" ~doc)

let cmd =
  let doc = "concurrent load against the demo ALDSP dataspace" in
  Cmd.v
    (Cmd.info "aldsp-server" ~version:"1.0.0" ~doc)
    Term.(
      ret
        (const main $ workers $ jobs $ rate $ io_ms $ submit_io_ms $ seed
       $ customers $ mix $ chaos_seed $ chaos_profile $ cache $ stats $ smoke
       $ deadline_ms $ queue_bound $ shed $ brownout $ overload_factor
       $ read_p99_bound))

let () = exit (Cmd.eval cmd)
