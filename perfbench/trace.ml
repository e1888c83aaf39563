(* The harness's own spans, recorded around its calls into each layer's
   public functions. Spans stay in memory, one list per request slot
   (each slot is written by the one worker that runs the request, so no
   lock is needed), and are written out as JSON lines when the run ends.
   Spans of one request share its id; [parent] names the enclosing span. *)

type span = {
  req : int;
  name : string;
  parent : string;
  t0 : float;  (** Unix time, seconds *)
  t1 : float;
}

let to_json epoch s =
  Printf.sprintf
    {|{"req":%d,"span":"%s","parent":"%s","start_us":%.1f,"end_us":%.1f}|}
    s.req s.name s.parent
    ((s.t0 -. epoch) *. 1e6)
    ((s.t1 -. epoch) *. 1e6)

let write path spans =
  let epoch =
    List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc (to_json epoch s);
          output_char oc '\n')
        spans)
