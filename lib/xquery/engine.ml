open Xdm

type t = {
  st : Context.static;
  reg : Context.registry;
  optimize : bool;
  instr : Instr.t;
}

let create ~optimize ~instr =
  {
    st = Context.default_static ();
    reg = Builtins.standard_registry ();
    optimize;
    instr;
  }

(* An independent engine seeded from [t]: copies of the static context
   and registry (persistent maps — O(1) and fully decoupled).
   Registrations on either side are invisible to the other;
   [Session.with_config] forks workers through this so domains never
   share engine-level mutable state. *)
let fork ~optimize ~instr t =
  {
    st = Context.copy_static t.st;
    reg = Context.copy_registry t.reg;
    optimize;
    instr;
  }

let static t = t.st
let registry t = t.reg
let optimizing t = t.optimize
let instr t = t.instr

(* Optimize one expression, reporting into the instrumentation handle:
   the per-pass rewrite counters always, and one note per rewrite when a
   sink is attached ([where] names the enclosing declaration). The log
   closure is only built when notes will actually be emitted, so the
   optimizer never forces its lazy log strings under a [Null] sink. *)
let optimize_expr t ?where ?env e =
  if not t.optimize then e
  else begin
    let i = t.instr in
    let log =
      if Instr.noting i then
        Some
          (fun m ->
            Instr.note i
              (match where with
              | Some w -> Printf.sprintf "[%s] %s" w m
              | None -> m))
      else None
    in
    let e', st = Optimizer.optimize_with_stats ?log ?env ~instr:i e in
    Instr.bump i ~n:st.Optimizer.folded Instr.K.optimizer_folded;
    Instr.bump i ~n:st.Optimizer.inlined Instr.K.optimizer_inlined;
    Instr.bump i ~n:st.Optimizer.inlined_pure Instr.K.optimizer_inlined_pure;
    Instr.bump i ~n:st.Optimizer.joins Instr.K.optimizer_joins;
    Instr.bump i ~n:st.Optimizer.pushed Instr.K.optimizer_pushed;
    Instr.bump i ~n:st.Optimizer.pushed_shifted
      Instr.K.optimizer_pushed_shifted;
    e'
  end

(* The purity environment for a compilation: the engine's registry plus
   the program's own not-yet-registered function declarations, so a call
   from one declared function to another (or to itself) still analyzes
   precisely instead of defaulting to impure. Built even when the
   optimizer is off: the streaming evaluator gates on the same verdicts,
   and must gate identically in optimized and unoptimized sessions. *)
let purity_env t decls = Purity.env_for ~registry:t.reg decls

(* The (effects, fallible, constructs) closure a compiler gates its
   streaming arms on, over a compile-time purity environment. *)
let purity_fn env e =
  let v = Purity.analyze env e in
  (v.Purity.effects, v.Purity.fallible, v.Purity.constructs)

let supplied ctx name =
  match Context.lookup_var ctx name with
  | Some v -> v
  | None ->
    Item.raise_error (Qname.err "XPDY0002")
      (Printf.sprintf "external variable $%s was not supplied a value"
         (Qname.to_string name))

(* Module variable declarations in order, each bound for the ones after
   it: the initializer's value — a plan compiled by [cc], or the
   reference walker when plans are off — or, without an initializer,
   [missing]'s value for the name; either is checked against the
   declared type. The final bindings become the registry's globals,
   which user function bodies see. *)
let declare_variables ~plans cc ?(missing = supplied) ctx decls =
  let ctx =
    List.fold_left
      (fun ctx vd ->
        let v =
          match vd.Ast.vd_value with
          | Some e -> if plans then Eval.compile cc e ctx else Eval.eval ctx e
          | None -> missing ctx vd.Ast.vd_name
        in
        let v =
          match vd.Ast.vd_type with
          | Some ty ->
            Seqtype.check
              ~what:(Printf.sprintf "$%s" (Qname.to_string vd.Ast.vd_name))
              ty v
          | None -> v
        in
        Context.bind ctx vd.Ast.vd_name v)
      ctx decls
  in
  let f = Context.fields ctx in
  Context.set_globals f.Context.registry f.Context.vars;
  ctx
