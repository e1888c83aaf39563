(** Purity/effect analysis over the XQuery AST.

    Every optimizer rewrite that moves, duplicates, drops or reorders an
    expression needs to know what evaluating that expression can *do*
    besides produce a value. This module computes a small conservative
    verdict per expression:

    - [effects]: evaluation may have an observable side effect — write a
      trace line, touch a backend (relational, web service), create
      fresh nodes whose identity escapes, or apply updates. Effectful
      expressions must be evaluated exactly as written: never moved,
      duplicated or dropped.
    - [fallible]: evaluation may raise a dynamic error. Error-free
      ("total") expressions can be evaluated more or fewer times than
      written, or reordered past other totals, without changing which
      error (if any) a program raises.
    - [constructs]: evaluation creates new nodes. Node constructors are
      pure and total, but each evaluation yields a *distinct* node
      (observable through [is], [<<], [|]), so a constructing expression
      must keep its evaluation count even when it is otherwise total.

    The lattice is three independent booleans ordered by implication;
    [join] is pointwise "or" and every rule is monotone, so the fixpoint
    over user function bodies below terminates.

    Policy for the environment ({!env_for}):
    - Builtins get verdicts from the table in {!builtin_verdict}, which
      must classify every function [Builtins.register_all] installs
      (enforced by the test suite). Only [fn:trace] is effectful; most
      builtins are fallible because they enforce argument cardinality
      or value restrictions dynamically.
    - External functions are impure — they reach outside the engine —
      unless their registration vouches for a verdict ([fn_purity]):
      the ALDSP layer registers every source read (relational table
      reads, navigation functions, web-service operations, data-service
      methods) as effect-free, fallible and constructing, and XQSE
      read-only procedures carry the verdict of their statement body.
    - User [declare function] bodies are analyzed by an optimistic
      fixpoint on [effects]/[constructs], but are *always* fallible:
      recursion is depth-limited dynamically (err:XQDY0900), so even a
      function whose body contains no fallible expression can raise.
      The environment keeps their declarations too: the optimizer
      unfolds view functions from them. *)

open Xdm

type verdict = { effects : bool; fallible : bool; constructs : bool }

let total = { effects = false; fallible = false; constructs = false }
let fallible = { total with fallible = true }
let impure = { effects = true; fallible = true; constructs = true }

let join a b =
  {
    effects = a.effects || b.effects;
    fallible = a.fallible || b.fallible;
    constructs = a.constructs || b.constructs;
  }

(* ------------------------------------------------------------------ *)
(* Builtin effect table                                                *)
(* ------------------------------------------------------------------ *)

(* fn-namespace functions whose evaluation can neither raise nor have
   effects (given already-evaluated arguments), with their registered
   arities. Everything here either ignores its arguments' values (count,
   empty, exists, reverse, unordered) or returns a constant (true, false,
   current-*: the reproduction pins the clock, see builtins.ml). Arities
   the registry never installs get no verdict — an unknown-function call
   must stay impure even if its name looks total. *)
let fn_total =
  [ ("true", [ 0 ]); ("false", [ 0 ]); ("count", [ 1 ]); ("empty", [ 1 ]);
    ("exists", [ 1 ]); ("head", [ 1 ]); ("tail", [ 1 ]); ("reverse", [ 1 ]);
    ("unordered", [ 1 ]);
    ("current-date", [ 0 ]); ("current-dateTime", [ 0 ]);
    ("current-time", [ 0 ]) ]

(* Every other fn-namespace builtin, with its registered arities. These
   are all pure but fallible: they enforce cardinality (one_atom_opt
   raises on a multi-item argument), types, or value restrictions
   dynamically. fn:trace is the only effectful builtin and is listed
   separately below. *)
let fn_fallible =
  [ ("data", [ 1 ]); ("string", [ 0; 1 ]); ("number", [ 0; 1 ]);
    ("boolean", [ 1 ]); ("not", [ 1 ]); ("error", [ 0; 1; 2; 3 ]);
    ("concat", [ 2; 3; 4; 5; 6; 7; 8 ]); ("string-join", [ 2 ]);
    ("substring", [ 2; 3 ]); ("string-length", [ 0; 1 ]);
    ("upper-case", [ 1 ]); ("lower-case", [ 1 ]); ("contains", [ 2 ]);
    ("starts-with", [ 2 ]); ("ends-with", [ 2 ]);
    ("substring-before", [ 2 ]); ("substring-after", [ 2 ]);
    ("normalize-space", [ 0; 1 ]); ("translate", [ 3 ]);
    ("codepoints-to-string", [ 1 ]); ("string-to-codepoints", [ 1 ]);
    ("matches", [ 2; 3 ]); ("replace", [ 3 ]); ("tokenize", [ 2 ]);
    ("abs", [ 1 ]); ("floor", [ 1 ]); ("ceiling", [ 1 ]); ("round", [ 1 ]);
    ("distinct-values", [ 1 ]); ("subsequence", [ 2; 3 ]);
    ("insert-before", [ 3 ]); ("remove", [ 2 ]); ("index-of", [ 2 ]);
    ("exactly-one", [ 1 ]); ("zero-or-one", [ 1 ]); ("one-or-more", [ 1 ]);
    ("deep-equal", [ 2 ]); ("sum", [ 1 ]); ("avg", [ 1 ]); ("max", [ 1 ]);
    ("min", [ 1 ]); ("position", [ 0 ]); ("last", [ 0 ]);
    ("name", [ 0; 1 ]); ("local-name", [ 1 ]); ("namespace-uri", [ 1 ]);
    ("node-name", [ 1 ]); ("root", [ 0; 1 ]); ("doc", [ 1 ]);
    ("doc-available", [ 1 ]); ("collection", [ 0; 1 ]); ("QName", [ 2 ]);
    ("local-name-from-QName", [ 1 ]); ("namespace-uri-from-QName", [ 1 ]);
    ("compare", [ 2 ]); ("codepoint-equal", [ 2 ]);
    ("round-half-to-even", [ 1 ]); ("encode-for-uri", [ 1 ]);
    ("year-from-date", [ 1 ]); ("month-from-date", [ 1 ]);
    ("day-from-date", [ 1 ]); ("year-from-dateTime", [ 1 ]);
    ("month-from-dateTime", [ 1 ]); ("day-from-dateTime", [ 1 ]);
    ("hours-from-time", [ 1 ]); ("minutes-from-time", [ 1 ]);
    ("hours-from-dateTime", [ 1 ]); ("minutes-from-dateTime", [ 1 ]);
    ("seconds-from-time", [ 1 ]); ("years-from-duration", [ 1 ]);
    ("months-from-duration", [ 1 ]); ("days-from-duration", [ 1 ]);
    ("hours-from-duration", [ 1 ]); ("minutes-from-duration", [ 1 ]);
    ("seconds-from-duration", [ 1 ]) ]

(* the xs constructor functions installed by builtins.ml (arity 1,
   cast_to can raise FORG0001) *)
let xs_constructors =
  [ "string"; "boolean"; "integer"; "int"; "long"; "decimal"; "double";
    "float"; "date"; "dateTime"; "time"; "anyURI"; "untypedAtomic"; "QName";
    "duration"; "yearMonthDuration"; "dayTimeDuration" ]

let builtin_verdict (q : Qname.t) arity =
  if String.equal q.Qname.uri Qname.fn_ns then
    if q.Qname.local = "trace" && (arity = 1 || arity = 2) then
      Some { effects = true; fallible = true; constructs = false }
    else begin
      match List.find_opt (fun (n, _) -> n = q.Qname.local) fn_total with
      | Some (_, arities) ->
        if List.mem arity arities then Some total else None
      | None ->
        Option.map
          (fun (_, arities) ->
            if List.mem arity arities then fallible else impure)
          (List.find_opt (fun (n, _) -> n = q.Qname.local) fn_fallible)
    end
  else if String.equal q.Qname.uri Qname.xs_ns then
    if arity = 1 && List.mem q.Qname.local xs_constructors then Some fallible
    else None
  else None

(* ------------------------------------------------------------------ *)
(* Boolean-valued expressions                                          *)
(* ------------------------------------------------------------------ *)

let fn_boolean_returning =
  [ "true"; "false"; "not"; "boolean"; "empty"; "exists"; "contains";
    "starts-with"; "ends-with"; "deep-equal"; "matches"; "doc-available" ]

(** [boolean_valued e]: is [e]'s value — when it produces one — always a
    single [xs:boolean] (or the empty sequence)? For such expressions the
    effective boolean value and a filter-predicate test coincide (the
    numeric-predicate positional rule never applies), so a [where] over
    [e] can move into predicate position unchanged. Conservative: [false]
    means "unknown". *)
let rec boolean_valued e =
  match e with
  | Ast.Literal (Atomic.Boolean _) -> true
  | Ast.Value_cmp _ | Ast.General_cmp _ | Ast.Quantified _
  | Ast.Instance_of _ | Ast.Castable_as _ | Ast.And _ | Ast.Or _
  | Ast.Node_is _ | Ast.Node_before _ | Ast.Node_after _ -> true
  | Ast.Seq_expr [ e ] -> boolean_valued e
  | Ast.If_expr (_, t, f) -> boolean_valued t && boolean_valued f
  | Ast.Call (q, _) ->
    String.equal q.Qname.uri Qname.fn_ns
    && List.mem q.Qname.local fn_boolean_returning
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The analysis                                                        *)
(* ------------------------------------------------------------------ *)

module Fmap = Map.Make (struct
  type t = Qname.t * int

  let compare (a, i) (b, j) =
    match Qname.compare a b with 0 -> Int.compare i j | c -> c
end)

(* verdicts by name and arity, plus the declarations of the user
   functions among them — the bodies the optimizer may unfold *)
type env = { verdicts : verdict Fmap.t; users : Ast.function_decl Fmap.t }

let empty_env = { verdicts = Fmap.empty; users = Fmap.empty }

let lookup env q arity =
  match Fmap.find_opt (q, arity) env.verdicts with
  | Some v -> Some v
  | None -> builtin_verdict q arity

let user_function env q arity = Fmap.find_opt (q, arity) env.users

(** [analyze env e] computes [e]'s verdict under the function-verdict
    environment [env]. Unknown functions are impure. *)
let rec analyze (env : env) e : verdict =
  let children e =
    Ast.fold_subexprs (fun acc sub -> join acc (analyze env sub)) total e
  in
  match e with
  | Ast.Literal _ | Ast.Var _ | Ast.Context_item | Ast.Root_expr -> total
  (* value-transparent composites: the verdict is exactly the children's *)
  | Ast.Seq_expr _ | Ast.Typeswitch _ | Ast.Instance_of _ -> children e
  (* and/or/if/quantified evaluate a condition through the effective
     boolean value, which raises FORG0006 unless the operand is known
     boolean-or-empty *)
  | Ast.And (a, b) | Ast.Or (a, b) ->
    let v = join (analyze env a) (analyze env b) in
    if boolean_valued a && boolean_valued b then v
    else { v with fallible = true }
  | Ast.If_expr (c, t, f) ->
    let v = join (analyze env c) (join (analyze env t) (analyze env f)) in
    if boolean_valued c then v else { v with fallible = true }
  | Ast.Quantified (_, bindings, body) ->
    let v = children e in
    (* the body goes through the EBV; a type on an in-binding is checked
       dynamically *)
    if
      boolean_valued body
      && not (List.exists (fun (_, t, _) -> t <> None) bindings)
    then v
    else { v with fallible = true }
  | Ast.Flwor (clauses, _) ->
    let v = children e in
    let clause_fallible = function
      | Ast.Where_clause c -> not (boolean_valued c)
      | Ast.Order_clause _ -> true (* order keys are compared dynamically *)
      | Ast.Join_clause _ -> true (* key atomization can raise *)
      | Ast.For_clause bs ->
        List.exists (fun b -> b.Ast.for_type <> None) bs
      | Ast.Let_clause bs ->
        List.exists (fun b -> b.Ast.let_type <> None) bs
    in
    if List.exists clause_fallible clauses then { v with fallible = true }
    else v
  | Ast.Call (q, args) ->
    let va =
      List.fold_left (fun acc a -> join acc (analyze env a)) total args
    in
    (match lookup env q (List.length args) with
    | Some v -> join va v
    | None -> impure)
  (* node constructors: pure, total (content errors come from the child
     expressions, already joined), but each evaluation makes new nodes *)
  | Ast.Elem_ctor _ | Ast.Comp_text _ | Ast.Comp_doc _ | Ast.Comp_comment _
    ->
    { (children e) with constructs = true }
  | Ast.Comp_elem (ns, _) | Ast.Comp_attr (ns, _) | Ast.Comp_pi (ns, _) ->
    let v = { (children e) with constructs = true } in
    (* a computed name is cast to xs:QName/NCName dynamically *)
    (match ns with
    | Ast.Static_name _ -> v
    | Ast.Dynamic_name _ -> { v with fallible = true })
  (* update expressions apply primitives to existing nodes *)
  | Ast.Insert _ | Ast.Delete _ | Ast.Replace _ | Ast.Rename _ -> impure
  (* transform: the updates apply to the private copies, so nothing
     escapes — but target checks make it fallible, and the copies are
     fresh nodes *)
  | Ast.Transform _ ->
    { (children e) with fallible = true; constructs = true }
  (* everything else can raise: arithmetic, comparisons and range cast
     their operands; paths/steps/filters require node inputs; casts and
     treats are checks by definition *)
  | Ast.Arith _ | Ast.Neg _ | Ast.Range _ | Ast.Value_cmp _
  | Ast.General_cmp _ | Ast.Node_is _ | Ast.Node_before _ | Ast.Node_after _
  | Ast.Union _ | Ast.Intersect _ | Ast.Except _ | Ast.Treat_as _
  | Ast.Castable_as _ | Ast.Cast_as _ | Ast.Path _ | Ast.Step _
  | Ast.Filter _ ->
    { (children e) with fallible = true }

let is_pure env e = not (analyze env e).effects

let is_total env e =
  let v = analyze env e in
  (not v.effects) && not v.fallible

(* ------------------------------------------------------------------ *)
(* Environment construction                                            *)
(* ------------------------------------------------------------------ *)

(* Each decl body starts from the optimistic seed (no effects or
   constructs until the fixpoint proves otherwise; always fallible, for
   the bounded recursion depth) and replaces a [base] entry under its
   key; a body-less decl is impure. A key keeps the first body seen: two
   bodies under one key would make the fixpoint flip between their
   verdicts forever whenever they disagree. The fixpoint then ascends
   over the decls' bodies only, every [base] verdict fixed; [analyze] is
   monotone in the environment and the lattice is finite, so it
   terminates. *)
let extend base (decls : Ast.function_decl list) : env =
  let verdicts, users, todo =
    List.fold_left
      (fun ((verdicts, users, todo) as acc) (d : Ast.function_decl) ->
        let key = (d.Ast.fd_name, List.length d.Ast.fd_params) in
        if Fmap.mem key todo then acc
        else
          match d.Ast.fd_body with
          | Some _ ->
            ( Fmap.add key { total with fallible = true } verdicts,
              Fmap.add key d users,
              Fmap.add key d todo )
          | None -> (Fmap.add key impure verdicts, Fmap.remove key users, todo))
      (base.verdicts, base.users, Fmap.empty)
      decls
  in
  let rec fix verdicts =
    let changed = ref false in
    let verdicts =
      Fmap.fold
        (fun key (d : Ast.function_decl) verdicts ->
          let v =
            analyze { empty_env with verdicts } (Option.get d.Ast.fd_body)
          in
          let v = { v with fallible = true } in
          if v <> Fmap.find key verdicts then changed := true;
          Fmap.add key v verdicts)
        todo verdicts
    in
    if !changed then fix verdicts else verdicts
  in
  { verdicts = fix verdicts; users }

let env_for ~registry (decls : Ast.function_decl list) : env =
  let verdicts, user_decls =
    Context.fold registry ~init:(Fmap.empty, []) ~f:(fun (env, ds) f ->
        let key = (f.Context.fn_name, f.Context.fn_arity) in
        match f.Context.fn_impl with
        | Context.Builtin _ -> (
          (* [lookup] falls back to the table, so only a builtin the
             table does not describe needs an entry *)
          match builtin_verdict f.Context.fn_name f.Context.fn_arity with
          | Some _ when not f.Context.fn_side_effects -> (env, ds)
          | _ -> (Fmap.add key impure env, ds))
        | Context.External _ | Context.External_cursor _ ->
          (* externals are opaque here, but XQSE read-only procedures
             arrive with a verdict computed from their statement body
             at declaration time (see Interp.declare_procedure) *)
          let v =
            match f.Context.fn_purity with
            | Some (effects, fallible, constructs)
              when not f.Context.fn_side_effects ->
              { effects; fallible; constructs }
            | _ -> impure
          in
          (Fmap.add key v env, ds)
        | Context.User d -> (env, d :: ds))
  in
  extend (extend { verdicts; users = Fmap.empty } user_decls) decls
