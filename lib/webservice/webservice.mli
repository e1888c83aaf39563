(** Simulated document-style web services.

    Stands in for the WSDL-described functional sources of ALDSP (e.g.
    the credit-rating service of Figures 2-3): operations with typed
    XML input/output, invoked in-process, with fault injection for the
    error-handling use cases. *)

open Xdm

type operation = {
  op_name : string;
  op_input : Qname.t;  (** expected root element of the request *)
  op_output : Qname.t;  (** root element of the response *)
  op_doc : string;  (** human-readable description (WSDL documentation) *)
  op_handler : Node.t -> Node.t;
}

type t

val create : name:string -> namespace:string -> t
val name : t -> string
val namespace : t -> string

val fault_code : t -> Qname.t
(** [{ns}Fault] in the service's namespace: the code of every failure
    {!invoke} raises except an injected fault. *)

val set_instr : t -> Instr.t -> unit
(** Attach an instrumentation handle (default {!Instr.disabled}):
    {!invoke} reports [ws.calls], the service's one call count, and
    every failure it raises — injected and handler faults included —
    reports [ws.faults]. *)

val add_operation : t -> operation -> unit
val operations : t -> operation list
(** In registration order — the introspectable "WSDL" of the service. *)

val find_operation : t -> string -> operation option

val invoke : t -> string -> Node.t -> Node.t
(** Call an operation with a request element. Every invoke counts as a
    call (unknown operations and validation faults included); injected
    faults fire before the operation is resolved. Every failure is an
    [Xdm.Item.Error] with the text ["Service.op: message"]: an injected
    fault carries [err:RESX0004] ({!Resilience.Faults.fail}); an
    unknown operation, a wrong request element, a wrong response
    element and a handler failure carry {!fault_code}. A handler's own
    {!fault_code} error passes through unchanged; anything else it
    raises becomes one, its text the exception's. *)

(** {1 Fault injection}

    All injection state lives in a {!Resilience.Faults.t} owned by the
    service. *)

val faults : t -> Resilience.Faults.t
(** The service's fault handle — attach it to a [Resilience.Control.t]
    to put the source under a chaos plan. *)

val wsdl_summary : t -> string
(** A WSDL-like textual description of the service (used by the examples
    to show what introspection sees). *)
