(* The host's speed, read from a fixed reference computation.

   The 2-vCPU virtual machine the benchmark was sized on runs the same
   code up to twice as slowly at some times as at others: bursts of a
   few milliseconds in which other tenants share the physical cores,
   whose share of the time drifts over seconds and minutes (steal time
   shows little of it). No run length averages a drift of minutes away.
   So the harness times a fixed computation while it measures — in the
   gaps where the open loop's worker would wait for the next arrival
   anyway, between the serial probe's cycles, around each set-up — and
   scales every time a segment reports to the speed at which that
   computation takes [nominal_ms] (a rate divides by the same factor).
   The reference allocates and sorts small tuples holding strings, like
   the program's own evaluation: over 90 seconds in 3-second buckets,
   the program's time for a fixed set of profile reads spread 0.26
   (interquartile range over median) and its ratio to the reference
   0.04. A program change leaves the reference nearly alone, so it moves
   the scaled figure in full; a change to the GC settings would move
   both. Samples are taken on the main domain only, while no other
   worker runs. *)

let work () =
  let l = ref [] in
  for i = 1 to 2000 do
    l := (i, string_of_int i) :: !l
  done;
  ignore (Sys.opaque_identity (List.length (List.sort compare !l)))

(* the reference's mean time in an open loop at the sizing machine's
   fast speed *)
let nominal_ms = 0.55

(* an idle sample is taken only where the next arrival is at least
   [gap_s] away, so it delays no request, and at most every [every_s] *)
let gap_s = 0.004
let every_s = 0.01

(* samples since [start], over the whole run, and the latest [window]
   of them *)
let count = ref 0
let total_ms = ref 0.
let run_count = ref 0
let run_total_ms = ref 0.
let window = Array.make 200 0.
let last = ref 0.

let sample () =
  let t = Unix.gettimeofday () in
  work ();
  last := Unix.gettimeofday ();
  let d = (!last -. t) *. 1000. in
  incr count;
  total_ms := !total_ms +. d;
  window.(!run_count mod Array.length window) <- d;
  incr run_count;
  run_total_ms := !run_total_ms +. d

let idle ~until =
  let t = Unix.gettimeofday () in
  if until -. t > gap_s && t -. !last > every_s then sample ()

let start () =
  count := 0;
  total_ms := 0.

(* The factor of the samples since [start]: a mean, since the measured
   work met the slow bursts in their share of the time, too. A segment
   without samples (a two-worker closed loop) takes the factor of the
   latest 200 samples, about five seconds of open loop: its throughput
   tracks the host's share of slow time over seconds, not the
   milliseconds around the probe that may have run just before it. *)
let finish () =
  let n = min !run_count (Array.length window) in
  if !count > 0 then nominal_ms /. (!total_ms /. float_of_int !count)
  else if n > 0 then nominal_ms /. (Array.fold_left ( +. ) 0. (Array.sub window 0 n) /. float_of_int n)
  else 1.

let run_mean_ms () = Stats.ratio !run_total_ms (float_of_int !run_count)
