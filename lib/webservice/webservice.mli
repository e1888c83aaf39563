(** Simulated document-style web services.

    Stands in for the WSDL-described functional sources of ALDSP (e.g.
    the credit-rating service of Figures 2-3): operations with typed
    XML input/output, invoked in-process, with call counting, simulated
    latency accounting and fault injection for the error-handling use
    cases. *)

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

val set_instr : t -> Instr.t -> unit
(** Attach an instrumentation handle (default {!Instr.disabled}):
    {!invoke} reports [ws.calls], and every raised {!Fault} — including
    injected and handler faults — reports [ws.faults]. *)

val add_operation : t -> operation -> unit
val operations : t -> operation list
(** In registration order — the introspectable "WSDL" of the service. *)

val find_operation : t -> string -> operation option

exception Fault of { service : string; operation : string; message : string }

val invoke : t -> string -> Node.t -> Node.t
(** Call an operation with a request element. Every invoke counts as a
    call (unknown operations and validation faults included); injected
    faults fire before the operation is resolved; simulated latency
    accrues only when the request actually reaches the handler.
    @raise Fault on injected faults, unknown operations, wrong request
    elements, and handler-raised faults. *)

(** {1 Accounting and fault injection}

    All injection state lives in a {!Resilience.Faults.t} owned by the
    service. *)

val faults : t -> Resilience.Faults.t
(** The service's fault handle — attach it to a [Resilience.Control.t]
    to put the source under a chaos plan. *)

val call_count : t -> int
val reset_call_count : t -> unit

val set_latency : t -> float -> unit
(** Simulated per-call latency in milliseconds, accumulated in
    {!total_latency} (no real sleeping) and charged to the fault
    handle's virtual clock. *)

val total_latency : t -> float

val wsdl_summary : t -> string
(** A WSDL-like textual description of the service (used by the examples
    to show what introspection sees). *)
