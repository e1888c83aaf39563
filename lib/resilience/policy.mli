(** Per-source resilience policy enforced by {!Control.call} at the
    dataspace's source-call boundary. *)

type t = {
  timeout_ms : float option;
      (** per-attempt deadline in virtual ms; a call whose charged
          latency exceeds it fails with [RESX0001] (no retry — the
          work may have happened, only the client gave up) *)
  max_retries : int;
      (** how many times an injected transient failure is retried *)
  backoff_ms : float;       (** base backoff before the first retry *)
  backoff_factor : float;   (** exponential multiplier per retry *)
  jitter_ms : float;        (** seeded-random extra wait in [0, jitter) *)
  breaker : Breaker.config option;
}

val default : t
(** Transparent pass-through: no timeout, zero retries, no breaker.
    Sources without an explicit policy behave exactly as before. *)

val make :
  ?timeout_ms:float ->
  ?max_retries:int ->
  ?backoff_ms:float ->
  ?backoff_factor:float ->
  ?jitter_ms:float ->
  ?breaker:Breaker.config ->
  unit ->
  t

val backoff : t -> attempt:int -> float
(** [backoff_ms *. backoff_factor ** attempt] (attempt is 0-based). *)

val describe : t -> string
