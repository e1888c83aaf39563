open Xdm

type operation = {
  op_name : string;
  op_input : Qname.t;
  op_output : Qname.t;
  op_doc : string;
  op_handler : Node.t -> Node.t;
}

type t = {
  ws_name : string;
  ws_ns : string;
  ws_fault : Qname.t;  (* {ns}Fault, the code of the service's failures *)
  mutable ops : operation list;
  faults : Resilience.Faults.t;  (* all failure injection lives here *)
  mutable instr : Instr.t;
}

let create ~name ~namespace =
  {
    ws_name = name;
    ws_ns = namespace;
    ws_fault = Qname.make ~uri:namespace "Fault";
    ops = [];
    faults = Resilience.Faults.create ~source:name ();
    instr = Instr.disabled;
  }

let name t = t.ws_name
let namespace t = t.ws_ns
let fault_code t = t.ws_fault
let set_instr t i = t.instr <- i
let faults t = t.faults

let add_operation t op =
  if List.exists (fun o -> o.op_name = op.op_name) t.ops then
    invalid_arg (Printf.sprintf "operation %s already exists" op.op_name);
  t.ops <- t.ops @ [ op ]

let operations t = t.ops
let find_operation t name = List.find_opt (fun o -> o.op_name = name) t.ops

let text t op msg = Printf.sprintf "%s.%s: %s" t.ws_name op msg
let fault t op msg = Item.raise_error t.ws_fault (text t op msg)

let invoke t op_name request =
  (* every invoke is a call, whatever happens to it — unknown operations
     and validation faults must not make calls and faults disagree *)
  Instr.bump t.instr Instr.K.ws_calls;
  try
    (* injected faults model the wire/service failing: they fire before
       the operation is even resolved *)
    (match Resilience.Faults.on_call t.faults Resilience.Faults.Statement with
    | Some message ->
      Instr.bump t.instr Instr.K.resil_injected;
      Resilience.Faults.fail (text t op_name message)
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
      let response =
        try op.op_handler request
        with
        | Item.Error { code; _ } as e when Qname.equal code t.ws_fault -> raise e
        | e -> fault t op_name (Printexc.to_string e)
      in
      (match Node.name response with
      | Some qn when Qname.equal qn op.op_output -> ()
      | _ ->
        fault t op_name
          (Printf.sprintf "handler returned a non-%s element"
             (Qname.to_string op.op_output)));
      response
  with Item.Error _ as e ->
    Instr.bump t.instr Instr.K.ws_faults;
    raise e

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
