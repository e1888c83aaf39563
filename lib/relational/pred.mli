(** Row predicates: the [WHERE] clauses of generated statements. *)

type op = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | True
  | False
  | Cmp of op * string * Value.t  (** column op literal *)
  | In of string * Value.t list
  | Is_null of string
  | And of t * t
  | Or of t * t
  | Not of t

val eq : string -> Value.t -> t
val conj : t list -> t
(** Conjunction of a list ([True] when empty). *)

val eval : get:(string -> Value.t) -> t -> bool
(** Evaluate against a row accessor. SQL three-valued logic is
    approximated: comparisons with [Null] are false (use {!Is_null}). *)

val test : column:(string -> 'r -> Value.t) -> t -> 'r -> bool
(** [test ~column p] is [fun r -> eval ~get:(fun c -> column c r) p],
    with [column] applied to each column of [p] once, before any row is
    tested: resolve the columns once, then test many rows. *)

val to_sql : t -> string
val pp : Format.formatter -> t -> unit
