open Xdm

type compiled_entry = {
  e_fingerprint : int * bool * bool * bool;
      (* (generation, optimize, streaming, plans) under which the entry
         was compiled; a mismatch at lookup is a miss *)
  e_compiled : compiled_rec;
}

and t = {
  st : Context.static;
  reg : Context.registry;
  mutable optimize : bool;
  mutable streaming : bool;
  mutable plans : bool;
  mutable instr : Instr.t;
  generation : int Stdlib.Atomic.t;
      (* bumped on every static-context change (function/namespace
         registration) so cached plans compiled against the old context
         can never be replayed; atomic so a registration racing a warm
         lookup on another domain is globally ordered against it *)
  cache_lock : Mutex.t;  (* guards [cache] (lookups, inserts, flushes) *)
  cache : (string, compiled_entry) Hashtbl.t;  (* query text → plan *)
  docs : (string * Node.t) list ref;
  colls : (string * Node.t list) list ref;
}

and compiled_rec = {
  c_engine : t;
  c_registry : Context.registry;
  c_vars : Ast.var_decl list;  (* in declaration order *)
  c_body : Ast.expr;
  c_compiler : Eval.compiler;
      (* over [c_registry] and the program's purity environment; the
         body and the variable initializers compile through it *)
  c_plan : Eval.plan Lazy.t;
      (* the closure-compiled body; forced inside the compile span when
         plans are enabled so the compile/run span split stays honest *)
}

(* Bounded cache: a workload of unbounded distinct query texts must not
   retain every plan forever. Overflow flushes wholesale — eviction
   policy is not worth the bookkeeping at this scale, and a flush is not
   an invalidation (the static context did not change), so it does not
   count on [plan.cache.invalidate]. *)
let cache_cap = 256

let create ?(optimize = true) ?(streaming = true) ?(instr = Instr.disabled) ()
    =
  {
    st = Context.default_static ();
    reg = Builtins.standard_registry ();
    optimize;
    streaming;
    plans = true;
    instr;
    generation = Stdlib.Atomic.make 0;
    cache_lock = Mutex.create ();
    cache = Hashtbl.create 32;
    docs = ref [];
    colls = ref [];
  }

let with_registry ?(optimize = true) ?(streaming = true)
    ?(instr = Instr.disabled) st reg =
  {
    st;
    reg;
    optimize;
    streaming;
    plans = true;
    instr;
    generation = Stdlib.Atomic.make 0;
    cache_lock = Mutex.create ();
    cache = Hashtbl.create 32;
    docs = ref [];
    colls = ref [];
  }

(* An independent engine seeded from [t]: copies of the static context,
   registry (persistent maps — O(1) and fully decoupled), documents and
   collections, with a fresh plan cache. Registrations on either side
   are invisible to the other; [Session.with_config] forks workers
   through this so domains never share engine-level mutable state. *)
let fork ?optimize ?streaming ?plans ?instr t =
  {
    st =
      {
        Context.namespaces = t.st.Context.namespaces;
        default_elem_ns = t.st.Context.default_elem_ns;
        default_fun_ns = t.st.Context.default_fun_ns;
      };
    reg = Context.copy_registry t.reg;
    optimize = Option.value optimize ~default:t.optimize;
    streaming = Option.value streaming ~default:t.streaming;
    plans = Option.value plans ~default:t.plans;
    instr = (match instr with Some i -> i | None -> t.instr);
    generation = Stdlib.Atomic.make (Stdlib.Atomic.get t.generation);
    cache_lock = Mutex.create ();
    cache = Hashtbl.create 32;
    docs = ref !(t.docs);
    colls = ref !(t.colls);
  }

let static t = t.st
let registry t = t.reg
let optimizing t = t.optimize
let set_optimizing t b = t.optimize <- b
let streaming t = t.streaming
let set_streaming t b = t.streaming <- b
let plans t = t.plans
let set_plans t b = t.plans <- b
let generation t = Stdlib.Atomic.get t.generation
let instr t = t.instr
let set_instr t i = t.instr <- i

(* Any change to what queries compile against — registered functions,
   namespace bindings — makes every cached plan stale. The generation
   bump also covers plans cached outside the engine (Xqse.Session keys
   its own cache on the engine generation). The bump happens before the
   flush: a concurrent lookup either sees the old generation (and its
   entry, which was valid under it) or the new one (and misses). *)
let invalidate_plans t =
  Stdlib.Atomic.incr t.generation;
  Mutex.protect t.cache_lock (fun () ->
      let n = Hashtbl.length t.cache in
      if n > 0 then begin
        Instr.bump t.instr ~n Instr.K.plan_cache_invalidate;
        Hashtbl.reset t.cache
      end)

(* Mutate-then-bump: the registry/static change lands before the
   generation moves, so a compile racing the registration either
   fingerprints the old generation (its entry — fresh or stale — is
   invalidated by the bump at its next lookup) or the new one (in which
   case the bump, and therefore the mutation, happened before its
   registry snapshot). Bump-first would allow the inverse: a stale
   registry snapshot cached under the new generation. *)
let declare_namespace t prefix uri =
  Context.declare_ns t.st prefix uri;
  invalidate_plans t

let register_external t ?side_effects ?purity name arity impl =
  Context.register_external t.reg ?side_effects ?purity name arity impl;
  invalidate_plans t

let register_external_cursor t ?side_effects ?purity ?keyed name arity impl =
  Context.register_external_cursor t.reg ?side_effects ?purity ?keyed name
    arity impl;
  invalidate_plans t

let register_doc t uri node = t.docs := (uri, node) :: !(t.docs)
let register_collection t uri nodes = t.colls := (uri, nodes) :: !(t.colls)

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
   the module's own not-yet-registered function declarations, so a call
   from one declared function to another (or to itself) still analyzes
   precisely instead of defaulting to impure. Built even when the
   optimizer is off: the streaming evaluator gates on the same verdicts,
   and must gate identically in optimized and unoptimized engines. *)
let purity_env t decls = Purity.env_for ~registry:t.reg decls

type compiled = compiled_rec

(* The (effects, fallible, constructs) closure a compiler gates its
   streaming arms on, over a compile-time purity environment. *)
let purity_fn env e =
  let v = Purity.analyze env e in
  (v.Purity.effects, v.Purity.fallible, v.Purity.constructs)

(* Plan-cache fingerprint: the generation plus every flag that changes
   what a compile produces. Captured at the moment the registry is
   copied (see [compile_fp]) so an entry is cached under exactly the
   context it was compiled against. *)
let fingerprint t = (Stdlib.Atomic.get t.generation, t.optimize, t.streaming, t.plans)

(* [compile_fp] additionally returns the fingerprint observed when the
   registry was snapshotted: if a registration lands mid-compile, the
   returned fingerprint is stale against the engine's current one and
   the caller must not cache the plan (it was compiled against the
   pre-registration registry). *)
let compile_fp t src =
  Instr.span t.instr "compile" (fun () ->
      (* parse against a copy of the static context so per-query namespace
         declarations do not leak into the engine *)
      let st =
        {
          Context.namespaces = t.st.Context.namespaces;
          default_elem_ns = t.st.Context.default_elem_ns;
          default_fun_ns = t.st.Context.default_fun_ns;
        }
      in
      let m = Parser.parse_module st src in
      let fp = fingerprint t in
      let reg = Context.copy_registry t.reg in
      (* collect the module's function declarations first: the purity
         environment must see all of them (mutual recursion) before any
         body is optimized *)
      let decls =
        List.filter_map
          (function Ast.P_function d -> Some d | _ -> None)
          m.Ast.prolog
      in
      let env = purity_env t decls in
      let vars = ref [] in
      List.iter
        (fun item ->
          match item with
          | Ast.P_function decl ->
            let decl =
              {
                decl with
                Ast.fd_body =
                  Option.map
                    (optimize_expr t ~env
                       ~where:(Qname.to_string decl.Ast.fd_name))
                    decl.Ast.fd_body;
              }
            in
            Context.register_user reg decl
          | Ast.P_variable vd -> vars := vd :: !vars
          | Ast.P_import _ ->
            (* module resolution is a session-level concern (Xqse.Session);
               the prefix was already declared by the parser *)
            ())
        m.Ast.prolog;
      let body = optimize_expr t ~env m.Ast.body in
      let cc = Eval.compiler ~purity:(purity_fn env) reg in
      let c =
        {
          c_engine = t;
          c_registry = reg;
          c_vars = List.rev !vars;
          c_body = body;
          c_compiler = cc;
          c_plan = lazy (Eval.compile cc body);
        }
      in
      (* closure-compile inside the compile span so [run] measures pure
         execution; skipped when the engine executes via the tree walker *)
      if t.plans then ignore (Lazy.force c.c_plan : Eval.plan);
      (* successful compiles only: a parse or static error above must
         not count (the span still reports its duration) *)
      Instr.bump t.instr Instr.K.queries_compiled;
      (fp, c))

let compile t src = snd (compile_fp t src)

type run_opts = {
  context_item : Item.t option;
  vars : (Qname.t * Item.seq) list;
  trace : (string -> unit) option;
}

let default_run_opts = { context_item = None; vars = []; trace = None }

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

let run ?(opts = default_run_opts) c =
  let i = c.c_engine.instr in
  Instr.span i "run" (fun () ->
      let trace =
        match opts.trace with
        | Some f -> f
        | None -> fun m -> Instr.note i ("trace: " ^ m)
      in
      let ctx =
        Context.make_dynamic ~trace ~instr:i ~streaming:c.c_engine.streaming
          c.c_registry
      in
      List.iter
        (fun (uri, doc) -> Context.register_doc ctx uri doc)
        (List.rev !(c.c_engine.docs));
      List.iter
        (fun (uri, nodes) -> Context.register_collection ctx uri nodes)
        (List.rev !(c.c_engine.colls));
      let ctx = Context.bind_many ctx opts.vars in
      let plans = c.c_engine.plans in
      let ctx = declare_variables ~plans c.c_compiler ctx c.c_vars in
      let ctx =
        match opts.context_item with
        | Some item -> Context.with_focus ctx item ~pos:1 ~size:1
        | None -> ctx
      in
      if plans then (Lazy.force c.c_plan) ctx else Eval.eval ctx c.c_body)

(* Plan cache around [compile]: keyed on the query text, guarded by the
   fingerprint (generation + flags) the entry was compiled under. The
   entry is inserted under the fingerprint captured when the compile
   snapshotted the registry, and only if the engine's fingerprint is
   {e still} that value at insert time — a registration racing the
   compile (same domain via a re-entrant callback, or another domain)
   bumps the generation first, the insert is skipped, and the stale
   plan is returned once but never cached. A failed compile counts as
   a miss but never as a compiled query. *)
let compile_cached t src =
  let cached =
    Mutex.protect t.cache_lock (fun () -> Hashtbl.find_opt t.cache src)
  in
  match cached with
  | Some e when t.plans && e.e_fingerprint = fingerprint t ->
    Instr.bump t.instr Instr.K.plan_cache_hit;
    e.e_compiled
  | _ when not t.plans -> compile t src
  | _ ->
    Instr.bump t.instr Instr.K.plan_cache_miss;
    let fp, c = compile_fp t src in
    Mutex.protect t.cache_lock (fun () ->
        if fp = fingerprint t then begin
          if Hashtbl.length t.cache >= cache_cap then Hashtbl.reset t.cache;
          Hashtbl.replace t.cache src { e_fingerprint = fp; e_compiled = c }
        end);
    c

let eval_string ?opts t src = run ?opts (compile_cached t src)

let eval_to_string ?opts t src =
  Xml_serialize.seq_to_string (eval_string ?opts t src)
