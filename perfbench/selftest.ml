(* Self-tests of the harness, run at the start of every benchmark run
   (and alone with [--self-test]). Each returns the failures it found. *)

let keys =
  {
    Gen.read_ids = [| "007"; "C1"; "C2"; "C3" |];
    submit_ids = [| "007"; "C2" |];
  }

let lists spec ~seed =
  List.map
    (fun open_loop -> Gen.requests spec keys ~seed ~stream:1 ~count:200 ~open_loop)
    [ false; true ]
  @ [ Gen.probe keys ~seed ~stream:2 ~count:50 ]

let check name ok = if ok then [] else [ "self-test failed: " ^ name ]

let determinism () =
  List.concat_map
    (fun (spec : Spec.t) ->
      check (spec.Spec.name ^ ": same seed, same request lists")
        (lists spec ~seed:7 = lists spec ~seed:7)
      @ check (spec.Spec.name ^ ": another seed, another request list")
          (lists spec ~seed:7 <> lists spec ~seed:8))
    Spec.all

let percentiles () =
  check "a failure (+inf) reaches the top percentile"
    (Stats.percentile [| 1.; 2.; infinity |] 99. = infinity)
  @ check "one failure in a hundred leaves p50 finite and makes p100 infinite"
      (let a = Array.init 100 (fun i -> if i = 42 then infinity else float_of_int i) in
       Stats.percentile a 50. = 50. && Stats.percentile a 100. = infinity)
  @ check "nearest rank" (Stats.percentile [| 3.; 1.; 2.; 4. |] 50. = 2.)

let valid_name s =
  s <> ""
  && String.for_all
       (fun c ->
         match c with
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let names () =
  let all = List.map fst (Spec.end_to_end @ Spec.per_layer) in
  List.concat_map (fun n -> check ("metric name " ^ n ^ " matches [A-Za-z0-9_.-]+") (valid_name n)) all
  @ check "metric names are unique"
      (List.length (List.sort_uniq compare all) = List.length all)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* the committed BENCHMARK.json quotes every rate and every metric name *)
let benchmark_json () =
  let path = "BENCHMARK.json" in
  if not (Sys.file_exists path) then []
  else begin
    let text = In_channel.with_open_bin path In_channel.input_all in
    List.concat_map
      (fun (spec : Spec.t) ->
        let rate = Printf.sprintf "open loop at %.0f req/s" spec.Spec.rate_qps in
        check (Printf.sprintf "BENCHMARK.json quotes %s for %s" rate spec.Spec.name)
          (contains text rate))
      Spec.all
    @ List.concat_map
        (fun (n, _) -> check ("BENCHMARK.json lists " ^ n) (contains text (Printf.sprintf "%S" n)))
        (Spec.end_to_end @ Spec.per_layer)
  end

let run () = determinism () @ percentiles () @ names () @ benchmark_json ()
