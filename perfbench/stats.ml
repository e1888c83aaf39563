(* Order statistics over latency samples. A failed request is recorded
   as [infinity], so it counts as missing every latency limit: a
   percentile that reaches a failure is infinite. *)

(* nearest-rank percentile of an unsorted sample array; [nan] when empty *)
let percentile samples q =
  if Array.length samples = 0 then nan
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    Server.Pool.percentile sorted q
  end

let median samples = percentile samples 50.

let mean samples =
  let n = Array.length samples in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. samples /. float_of_int n

(* [num / den], 0 when nothing was counted *)
let ratio num den = if den = 0. then 0. else num /. den
