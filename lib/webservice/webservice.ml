open Xdm

type operation = {
  op_name : string;
  op_input : Qname.t;
  op_output : Qname.t;
  op_doc : string;
  op_handler : Node.t -> Node.t;
}

exception Fault of { service : string; operation : string; message : string }

type t = {
  ws_name : string;
  ws_ns : string;
  mutable ops : operation list;
  mutable calls : int;
  mutable latency_ms : float;
  mutable total_latency : float;
  faults : Resilience.Faults.t;  (* all failure injection lives here *)
  mutable instr : Instr.t;
}

let create ~name ~namespace =
  {
    ws_name = name;
    ws_ns = namespace;
    ops = [];
    calls = 0;
    latency_ms = 0.;
    total_latency = 0.;
    faults = Resilience.Faults.create ~source:name ();
    instr = Instr.disabled;
  }

let name t = t.ws_name
let namespace t = t.ws_ns
let set_instr t i = t.instr <- i
let faults t = t.faults

let add_operation t op =
  if List.exists (fun o -> o.op_name = op.op_name) t.ops then
    invalid_arg (Printf.sprintf "operation %s already exists" op.op_name);
  t.ops <- t.ops @ [ op ]

let operations t = t.ops
let find_operation t name = List.find_opt (fun o -> o.op_name = name) t.ops

let fault t op msg =
  raise (Fault { service = t.ws_name; operation = op; message = msg })

let invoke t op_name request =
  (* every invoke is a call, whatever happens to it — unknown operations
     and validation faults must not make calls and faults disagree *)
  t.calls <- t.calls + 1;
  Instr.bump t.instr Instr.K.ws_calls;
  try
    (* injected faults model the wire/service failing: they fire before
       the operation is even resolved *)
    let v = Resilience.Faults.on_call t.faults Resilience.Faults.Statement in
    (match v.Resilience.Faults.v_fault with
    | Some f ->
      Instr.bump t.instr Instr.K.resil_injected;
      fault t op_name f.Resilience.Faults.f_message
    | None -> ());
    match find_operation t op_name with
    | None -> fault t op_name "unknown operation"
    | Some op ->
      (match Node.name request with
      | Some qn when Qname.equal qn op.op_input -> ()
      | Some qn ->
        fault t op_name
          (Printf.sprintf "expected request element %s, got %s"
             (Qname.to_string op.op_input) (Qname.to_string qn))
      | None -> fault t op_name "request is not an element");
      (* the request reaches the handler: only now does simulated
         latency accrue (base per-call latency plus any injected spike,
         the latter already charged to the virtual clock) *)
      t.total_latency <- t.total_latency +. t.latency_ms
                         +. v.Resilience.Faults.v_latency;
      Resilience.Clock.advance (Resilience.Faults.clock t.faults) t.latency_ms;
      let response =
        try op.op_handler request
        with
        | Fault _ as f -> raise f
        | e -> fault t op_name (Printexc.to_string e)
      in
      (match Node.name response with
      | Some qn when Qname.equal qn op.op_output -> ()
      | _ ->
        fault t op_name
          (Printf.sprintf "handler returned a non-%s element"
             (Qname.to_string op.op_output)));
      response
  with Fault _ as f ->
    Instr.bump t.instr Instr.K.ws_faults;
    raise f

let call_count t = t.calls
let reset_call_count t = t.calls <- 0

let set_latency t ms = t.latency_ms <- ms
let total_latency t = t.total_latency

let wsdl_summary t =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "service %s (targetNamespace=%s)\n" t.ws_name t.ws_ns;
  List.iter
    (fun op ->
      Printf.bprintf buf "  operation %s : %s -> %s  (%s)\n" op.op_name
        (Qname.to_string op.op_input)
        (Qname.to_string op.op_output)
        op.op_doc)
    t.ops;
  Buffer.contents buf
