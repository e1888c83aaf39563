(* Full-corpus differential soundness check, meant for CI's nightly job
   (the in-tree test suite runs the same corpus at its default size on
   every push; this tool makes the size and seed cheap to crank up).

   Every generated program is evaluated through a fresh session of its
   own and through one session shared by the whole corpus, each with
   the optimizer on and off, and — per EVAL — through closure-compiled
   plans (which stream where the purity gates allow) and/or through the
   eager reference walker (plans off): 8 layers under "both". A program
   that leaks state into a shared session diverges from its fresh run.
   The compiled shared layers also replay every program from the warm
   plan cache, so cold compile, warm cache hit and the reference walker
   must all agree. Any disagreement in outcome (serialized result, or
   dynamic error code) is reported and fails the run.

   Usage: corpus_check [SIZE] [SEED] [EVAL]
     defaults: 500 20260806 both
     EVAL: compiled | interpreted | both
     (CORPUS_EVAL in the environment sets the default) *)

open Core

let outcome f src =
  match f src with
  | v -> Ok v
  | exception Xdm.Item.Error { code; _ } -> Error (Xdm.Qname.to_string code)

let show = function
  | Ok s -> Printf.sprintf "result %S" s
  | Error c -> Printf.sprintf "error %s" c

let () =
  let size =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 500
  in
  let seed =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 20260806
  in
  let eval =
    if Array.length Sys.argv > 3 then Sys.argv.(3)
    else Option.value (Sys.getenv_opt "CORPUS_EVAL") ~default:"both"
  in
  let plan_variants =
    match eval with
    | "compiled" -> [ true ]
    | "interpreted" -> [ false ]
    | "both" -> [ true; false ]
    | m ->
      Printf.eprintf
        "unknown eval %S (expected compiled | interpreted | both)\n" m;
      exit 2
  in
  let corpus = Fixtures.Gen_xquery.corpus ~seed size in
  let session optimize plans =
    Xqse.Session.create
      ~config:{ Xqse.Session.default_config with optimize; plans }
      ()
  in
  let fresh optimize plans src =
    Xqse.Session.eval_to_string (session optimize plans) src
  in
  (* one shared session per layer beside the fresh ones: program
     declarations compile against copies, so corpus programs must not
     leak into each other — and on the compiled axis the shared session
     doubles as the warm-cache replay (the second evaluation of a
     program must hit its cached plan) *)
  let layers =
    List.concat_map
      (fun plans ->
        let t = if plans then "compiled" else "interpreted" in
        let warm s src =
          let cold = Xqse.Session.eval_to_string s src in
          if not plans then cold
          else begin
            let warm = Xqse.Session.eval_to_string s src in
            if warm <> cold then
              failwith
                (Printf.sprintf
                   "warm plan-cache replay diverged on %s: cold %S, warm %S"
                   src cold warm);
            warm
          end
        in
        [
          (Printf.sprintf "optimized fresh session, %s" t, fresh true plans);
          (Printf.sprintf "unoptimized fresh session, %s" t, fresh false plans);
          ( Printf.sprintf "optimized shared session, %s" t,
            warm (session true plans) );
          ( Printf.sprintf "unoptimized shared session, %s" t,
            warm (session false plans) );
        ])
      plan_variants
  in
  let reference_layer = fresh false (List.hd plan_variants) in
  let failures = ref 0 in
  List.iteri
    (fun i src ->
      let reference = outcome reference_layer src in
      List.iter
        (fun (layer, f) ->
          let got = outcome f src in
          if got <> reference then begin
            incr failures;
            Printf.printf
              "DIVERGENCE at program %d (%s):\n%s\n  reference: %s\n  %s: %s\n"
              i layer src (show reference) layer (show got)
          end)
        layers)
    corpus;
  if !failures = 0 then
    Printf.printf
      "corpus check passed: %d programs, seed %d, %d modes agree\n" size seed
      (List.length layers)
  else begin
    Printf.printf "corpus check FAILED: %d divergences over %d programs\n"
      !failures size;
    exit 1
  end
