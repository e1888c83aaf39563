type op = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | True
  | False
  | Cmp of op * string * Value.t
  | In of string * Value.t list
  | Is_null of string
  | And of t * t
  | Or of t * t
  | Not of t

let eq col v = Cmp (Eq, col, v)

let conj = function
  | [] -> True
  | p :: rest -> List.fold_left (fun acc q -> And (acc, q)) p rest

let rec test ~column p =
  match p with
  | True -> fun _ -> true
  | False -> fun _ -> false
  | Cmp (op, col, v) -> (
    let get = column col in
    fun r ->
      match (get r, v) with
      | Value.Null, _ | _, Value.Null -> false
      | actual, _ -> (
        let c = Value.compare actual v in
        match op with
        | Eq -> c = 0
        | Ne -> c <> 0
        | Lt -> c < 0
        | Le -> c <= 0
        | Gt -> c > 0
        | Ge -> c >= 0))
  | In (col, vs) ->
    let get = column col in
    fun r ->
      let actual = get r in
      actual <> Value.Null && List.exists (Value.equal actual) vs
  | Is_null col ->
    let get = column col in
    fun r -> get r = Value.Null
  | And (a, b) ->
    let ta = test ~column a and tb = test ~column b in
    fun r -> ta r && tb r
  | Or (a, b) ->
    let ta = test ~column a and tb = test ~column b in
    fun r -> ta r || tb r
  | Not a ->
    let ta = test ~column a in
    fun r -> not (ta r)

let eval ~get p = test ~column:(fun col () -> get col) p ()

let op_sql = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec to_sql = function
  | True -> "1=1"
  | False -> "1=0"
  | Cmp (op, col, v) ->
    Printf.sprintf "%s %s %s" col (op_sql op) (Value.sql_literal v)
  | In (col, vs) ->
    Printf.sprintf "%s IN (%s)" col
      (String.concat ", " (List.map Value.sql_literal vs))
  | Is_null col -> col ^ " IS NULL"
  | And (a, b) -> Printf.sprintf "(%s AND %s)" (to_sql a) (to_sql b)
  | Or (a, b) -> Printf.sprintf "(%s OR %s)" (to_sql a) (to_sql b)
  | Not a -> Printf.sprintf "NOT (%s)" (to_sql a)

let pp ppf p = Format.pp_print_string ppf (to_sql p)
