(* The three workloads and every constant that shapes them. Rates are
   fixed here (and quoted in BENCHMARK.json), never derived from a
   capacity measured in the same run: a recalibrated rate would move
   with the code under test and hide the very latency change the open
   loop exists to show. *)

type mix = Profile_read | Adhoc_query | Write_mix

type t = {
  name : string;
  mix : mix;
  customers : int;  (** [Fixtures.Customer_profile.make ~customers] *)
  cache : bool;  (** data-service result cache on *)
  rate_qps : float;  (** open-loop Poisson arrival rate *)
  list_qps : float;
      (** sizes closed-loop request lists, above the expected throughput;
          a list that runs dry only shortens its segment, whose capacity
          is still completed requests over elapsed time *)
  probe_submits : int;
      (** serial Figure 4 cycles per run, measured after each round's
          open loop, for workloads whose mix has no submits *)
}

(* 20 customers rather than the 50 first tried: a by-id read builds
   every profile, and at 50 a round held too few requests for a steady
   tail (README, "Sizing profile-read") *)
let profile_read =
  {
    name = "profile-read";
    mix = Profile_read;
    customers = 20;
    cache = false;
    rate_qps = 50.;
    list_qps = 1000.;
    probe_submits = 1000;
  }

let adhoc_query =
  {
    name = "adhoc-query";
    mix = Adhoc_query;
    customers = 5;
    cache = false;
    rate_qps = 300.;
    list_qps = 6000.;
    probe_submits = 2500;
  }

let write_mix =
  {
    name = "write-mix";
    mix = Write_mix;
    customers = 10;
    cache = true;
    rate_qps = 150.;
    list_qps = 3000.;
    probe_submits = 0;
  }

(* fixture data seed: fixed, so every [--seed] runs over the same tables
   and only the request lists vary *)
let data_seed = 42

let all = [ profile_read; adhoc_query; write_mix ]
let find name = List.find_opt (fun s -> s.name = name) all

(* OCC retry bound of one Figure 4 cycle: a submit that has not
   committed after this many get/change/submit attempts is a failure.
   The conflicts of one cycle are not independent — a rival that just
   committed the same customer is likely to be on it again — and with
   a bound of 10, about one write-mix run in ten lost a cycle in its
   2-worker closed loops. *)
let max_attempts = 30

(* open-loop arrivals start this long after the pool starts, leaving the
   per-worker plan-cache warm-up room to finish first *)
let warmup_ms = 150.

(* measurement rounds per end-to-end run (latency samples and closed
   loop time are pooled over them), and set-ups per round (set-up time
   is the median over all of them) *)
let rounds = 10
let setups_per_round = 4

(* every metric the harness reports, with its unit, in output order:
   end-to-end ones with tracing off, per-layer ones in the traced run *)
let end_to_end =
  [
    ("setup_s", "s");
    ("capacity_qps", "1/s");
    ("p50_ms", "ms");
    ("p90_ms", "ms");
    ("read_p90_ms", "ms");
    ("submit_p50_ms", "ms");
    ("submit_p90_ms", "ms");
    ("heap_live_mb", "MB");
  ]

let per_layer =
  [
    ("server.queue_wait_p50_ms", "ms");
    ("server.queue_wait_p99_ms", "ms");
    ("server.parallel_efficiency", "ratio");
    ("xqse.compile_ms", "ms");
    ("xqse.plan_hit_ratio", "ratio");
    ("xqse.run_ms", "ms");
    ("xqse.statements_per_req", "count");
    ("xquery.optimizer_ms_per_compile", "ms");
    ("xquery.rewrites_per_compile", "count");
    ("xquery.stream_pulled_per_req", "count");
    ("xquery.materialized_per_req", "count");
    ("cache.hit_ratio", "ratio");
    ("cache.evict_per_submit", "count");
    ("cache.bypass_ratio", "ratio");
    ("aldsp.get_ms", "ms");
    ("aldsp.submit_p50_ms", "ms");
    ("aldsp.submit_p99_ms", "ms");
    ("aldsp.attempts_per_commit", "ratio");
    ("aldsp.statements_per_submit", "count");
    ("sdo.serialize_ms", "ms");
    ("sdo.wire_bytes_per_submit", "bytes");
    ("relational.rows_scanned_per_req", "count");
    ("relational.rows_fetched_per_req", "count");
    ("relational.rows_scanned_per_item", "count");
    ("relational.snapshot_pin_us", "us");
    ("relational.sql_executed_per_submit", "count");
    ("relational.lock_contended_ratio", "ratio");
    ("relational.versions_live_end", "count");
    ("webservice.calls_per_req", "count");
    ("resilience.guard_ms_per_req", "ms");
    ("resilience.retries_per_req", "count");
    ("instr.overhead_pct", "%");
  ]
