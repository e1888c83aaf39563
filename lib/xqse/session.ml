open Xdm
module Ctx = Xquery.Context

type config = { optimize : bool; plans : bool; instr : Instr.t }

let default_config = { optimize = true; plans = true; instr = Instr.disabled }

(* An ambient read-context wrapper installed by the data layer: the
   dataspace registers a scope that pins a consistent snapshot of every
   source table for the duration of a query (see
   [Relational.Table.with_snapshot]). Polymorphic so it wraps both
   value- and cursor-producing entry points. *)
type snapshot_scope = { scope : 'a. (unit -> 'a) -> 'a }

type t = {
  static : Ctx.static;  (* the namespaces programs parse against *)
  optimize : bool;
  rt : Interp.runtime;
      (* the function registry, procedures, documents, the plans flag
         and the instrumentation handle *)
  mutable trace : string -> unit;
  mutable snapshot_scope : snapshot_scope option;
  modules : (string, string) Hashtbl.t;  (* module uri -> source *)
  loaded_modules : (string, unit) Hashtbl.t;
  generation : int Stdlib.Atomic.t;
      (* moved on every change to what programs compile against or read
         (registrations, library loads, documents); the plan cache and
         the result-cache keys carry it. The flags need no such guard:
         they are fixed when the session is built. *)
  cache_lock : Mutex.t;  (* guards [cache] and [unit] *)
  cache : (string, cache_entry) Hashtbl.t;  (* program text → plan *)
  mutable unit : cunit option;
      (* the compilation unit of the latest generation that compiled *)
  mutable result_cache : Cache.handle option;
      (* data-service result cache (lib/cache); [None] = caching off *)
}

(* What every program compiled in one generation shares: the registry's
   purity verdicts (one fixpoint) and a compiler holding the body of
   every registry user function, compiled. Immutable once built:
   program compilers only read it (see [Eval.compiler ~base]). *)
and cunit = {
  u_generation : int;  (* read before the registry the unit compiled *)
  u_env : Xquery.Purity.env;
  u_compiler : Xquery.Eval.compiler;
}

and compiled = {
  c_session : t;
  c_registry : Ctx.registry;
  c_runtime : Interp.runtime;
  c_vars : Xquery.Ast.var_decl list;
  c_body : Stmt.query_body option;
  c_plan : cplan Lazy.t;
      (* the closure-compiled body; forced inside the compile span when
         plans are enabled so the compile/run span split stays honest *)
}

and cplan =
  | CP_none
  | CP_expr of Xquery.Eval.plan
  | CP_block of Interp.cblock

and cache_entry = {
  ce_generation : int;  (* the generation the entry was compiled under *)
  ce_compiled : compiled;
}

(* Bounded cache: a workload of unbounded distinct program texts must
   not retain every plan forever. Overflow flushes wholesale — eviction
   policy is not worth the bookkeeping at this scale, and a flush is not
   an invalidation (the static context did not change), so it does not
   count on [plan.cache.invalidate]. *)
let cache_cap = 256

let registry s = Interp.registry s.rt
let instr s = Interp.instr s.rt
let plans s = Interp.plans s.rt
let generation s = Stdlib.Atomic.get s.generation

(* Generations are drawn from one process-wide counter, so two sessions
   share a value only when one is a fork of the other and neither has
   registered anything since the fork: sessions over one result-cache
   store then share a key prefix only while their registries agree. *)
let next_generation = Stdlib.Atomic.make 0
let fresh_generation () = Stdlib.Atomic.fetch_and_add next_generation 1

(* Result-cache binding: the store is shared, the keys are not — every
   key is prefixed with the session's *current* generation and its
   flags, so a registration or a flag difference moves a session onto
   fresh keys while identically-configured forks keep sharing. *)
let fingerprint_string s =
  Printf.sprintf "%d.%b.%b" (generation s) s.optimize (plans s)

let cache_bound s =
  Option.map
    (fun h -> Cache.bind h ~fingerprint:(fingerprint_string s) ~instr:(instr s))
    s.result_cache

let set_result_cache s h =
  s.result_cache <- h;
  Interp.set_cache s.rt (fun () -> cache_bound s)

(* The (effects, fallible, constructs) closure a compiler gates its
   streaming arms on, over a compile-time purity environment. *)
let purity_fn env e =
  let v = Xquery.Purity.analyze env e in
  (v.Xquery.Purity.effects, v.Xquery.Purity.fallible, v.Xquery.Purity.constructs)

(* The unit of the current generation, built by the first compile or
   call that needs it, under the lock, so it is built once and published
   whole. The generation is read before the registry is copied: a
   registration landing in between (mutate, then bump) leaves the unit
   newer than its tag, never older, and the next lookup rebuilds it. *)
let compilation_unit s =
  Mutex.protect s.cache_lock (fun () ->
      let gen = generation s in
      match s.unit with
      | Some u when u.u_generation = gen -> u
      | _ ->
        let reg = Ctx.copy_registry (registry s) in
        (* the verdicts gate the compiled streaming arms even when the
           optimizer is off, so both settings gate identically *)
        let env = Xquery.Purity.env_for ~registry:reg [] in
        let cc = Xquery.Eval.compiler ~purity:(purity_fn env) reg in
        Xquery.Eval.compile_functions cc;
        let u = { u_generation = gen; u_env = env; u_compiler = cc } in
        s.unit <- Some u;
        Instr.bump (instr s) Instr.K.plan_unit_built;
        u)

let purity_env s = (compilation_unit s).u_env

(* The session record over a static context and a runtime. The
   runtime's result-cache view closes over this record — the one every
   registration moves the generation of — so it is installed only once
   the record is final. *)
let assemble ~static ~optimize ~trace rt ~modules ~loaded_modules ~generation
    ~snapshot_scope ~result_cache =
  let s =
    {
      static;
      optimize;
      rt;
      trace;
      snapshot_scope;
      modules;
      loaded_modules;
      generation = Stdlib.Atomic.make generation;
      cache_lock = Mutex.create ();
      cache = Hashtbl.create 32;
      unit = None;
      result_cache = None;
    }
  in
  set_result_cache s result_cache;
  (* the runtime's procedures compile against the current unit *)
  Interp.set_compiler rt (fun () ->
      let u = compilation_unit s in
      Xquery.Eval.compiler ~base:u.u_compiler ~purity:(purity_fn u.u_env)
        (registry s));
  s

(* The default fn:trace destination is a note in the instrumentation
   trace (a no-op while the handle is disabled). *)
let create ?(config = default_config) () =
  let trace m = Instr.note config.instr ("trace: " ^ m) in
  let rt =
    Interp.create_runtime ~trace ~instr:config.instr ~plans:config.plans
      (Xquery.Builtins.standard_registry ())
  in
  assemble ~static:(Ctx.default_static ()) ~optimize:config.optimize ~trace
    rt ~modules:(Hashtbl.create 8) ~loaded_modules:(Hashtbl.create 8)
    ~generation:(fresh_generation ()) ~snapshot_scope:None ~result_cache:None

let config s = { optimize = s.optimize; plans = plans s; instr = instr s }

(* Fork: an independent session over copies of everything the source
   accreted (namespaces, registrations, procedures, loaded libraries,
   modules, documents), configured by [cfg]; the trace, result cache and
   snapshot scope carry over. Shares no mutable state with the source —
   each side's registrations, plan caches and globals evolve
   independently (the static context and registry are persistent maps,
   so the copies are O(1)) — so per-worker sessions forked off one
   prepared template are safe to drive from separate domains while the
   template's external functions (e.g. a dataspace's reads) execute
   against the shared backing sources. *)
let with_config s (cfg : config) =
  let rt =
    Interp.fork_runtime ~trace:s.trace ~instr:cfg.instr ~plans:cfg.plans s.rt
      (Ctx.copy_registry (registry s))
  in
  assemble ~static:(Ctx.copy_static s.static) ~optimize:cfg.optimize
    ~trace:s.trace rt ~modules:(Hashtbl.copy s.modules)
    ~loaded_modules:(Hashtbl.copy s.loaded_modules) ~generation:(generation s)
    ~snapshot_scope:s.snapshot_scope ~result_cache:s.result_cache

(* Any change to what programs compile against makes every cached
   program plan stale: move the generation to a fresh value, drop the
   session runtime's compiled procedure bodies, and flush the cache
   (counting the flushed entries). *)
let invalidate_plans s =
  Stdlib.Atomic.set s.generation (fresh_generation ());
  Interp.invalidate_plans s.rt;
  Mutex.protect s.cache_lock (fun () ->
      let n = Hashtbl.length s.cache in
      if n > 0 then begin
        Instr.bump (instr s) ~n Instr.K.plan_cache_invalidate;
        Hashtbl.reset s.cache
      end)

let set_trace s f =
  s.trace <- f;
  Interp.set_trace s.rt f

(* Mutate-then-invalidate: every registration lands before the
   generation moves, so a compile racing it either sees the old
   generation (and its entry is invalidated by the bump at the next
   lookup) or the new one (in which case the change, too, happened
   before its registry snapshot). Bump-first would allow the inverse: a
   stale registry snapshot cached under the new generation. *)
let declare_namespace s prefix uri =
  Ctx.declare_ns s.static prefix uri;
  invalidate_plans s

let register_function s ?side_effects ?purity name arity impl =
  Ctx.register_external (registry s) ?side_effects ?purity name arity impl;
  invalidate_plans s

let register_function_cursor s ?side_effects ?purity ?keyed name arity impl =
  Ctx.register_external_cursor (registry s) ?side_effects ?purity ?keyed name
    arity impl;
  invalidate_plans s

(* Documents change what a query reads, not what it compiles to; the
   bump moves the result-cache keys off reads of the old document. *)
let register_doc s uri node =
  Interp.register_doc s.rt uri node;
  invalidate_plans s

let register_collection s uri nodes =
  Interp.register_collection s.rt uri nodes;
  invalidate_plans s

let register_procedure s ?(readonly = false) ?params ?return name arity impl =
  let params =
    match params with
    | Some ps -> ps
    | None -> List.init arity (fun i -> (Qname.local (Printf.sprintf "p%d" i), None))
  in
  Interp.declare_procedure s.rt
    {
      Interp.p_name = name;
      p_params = params;
      p_return = return;
      p_readonly = readonly;
      p_impl = Interp.P_external impl;
    };
  invalidate_plans s

(* ------------------------------------------------------------------ *)
(* Statement-level optimization: optimize the XQuery expressions inside
   statements (the paper's point: declarative fragments keep their
   optimizations). [opt] is the expression-level rewriter — the plain
   optimizer during compilation, a stats/log-collecting wrapper for
   {!explain}. *)

let rec optimize_value_stmt opt = function
  | Stmt.V_expr e -> Stmt.V_expr (opt e)
  | Stmt.V_proc_block b -> Stmt.V_proc_block (optimize_block opt b)

and optimize_block opt (b : Stmt.block) =
  {
    Stmt.decls =
      List.map
        (fun d ->
          {
            d with
            Stmt.bd_init = Option.map (optimize_value_stmt opt) d.Stmt.bd_init;
          })
        b.Stmt.decls;
    stmts = List.map (optimize_stmt opt) b.Stmt.stmts;
  }

and optimize_stmt opt (s : Stmt.statement) =
  match s with
  | Stmt.Block b -> Stmt.Block (optimize_block opt b)
  | Stmt.Set (v, vs) -> Stmt.Set (v, optimize_value_stmt opt vs)
  | Stmt.Return_value vs -> Stmt.Return_value (optimize_value_stmt opt vs)
  | Stmt.Expr_stmt vs -> Stmt.Expr_stmt (optimize_value_stmt opt vs)
  | Stmt.While (e, b) -> Stmt.While (opt e, optimize_block opt b)
  | Stmt.Iterate { var; pos; source; body } ->
    Stmt.Iterate
      {
        var;
        pos;
        source = optimize_value_stmt opt source;
        body = optimize_block opt body;
      }
  | Stmt.If (c, t, e) ->
    Stmt.If (opt c, optimize_stmt opt t, Option.map (optimize_stmt opt) e)
  | Stmt.Try (b, clauses) ->
    Stmt.Try
      ( optimize_block opt b,
        List.map
          (fun c -> { c with Stmt.cc_body = optimize_block opt c.Stmt.cc_body })
          clauses )
  | Stmt.Continue | Stmt.Break -> s
  | Stmt.Update e -> Stmt.Update (opt e)

(* ------------------------------------------------------------------ *)

(* Optimize one expression (the identity when optimization is off),
   reporting into the instrumentation handle: the per-pass rewrite
   counters always, and one note per rewrite when a sink is attached
   ([where] names the enclosing declaration). The log closure is only
   built when notes will actually be emitted, so the optimizer never
   forces its lazy log strings under a [Null] sink. *)
let optimize_expr s ?where ~env e =
  if not s.optimize then e
  else begin
    let i = instr s in
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
    let e', st = Xquery.Optimizer.optimize_with_stats ?log ~env ~instr:i e in
    Instr.bump i ~n:st.Xquery.Optimizer.folded Instr.K.optimizer_folded;
    Instr.bump i ~n:st.Xquery.Optimizer.inlined Instr.K.optimizer_inlined;
    Instr.bump i ~n:st.Xquery.Optimizer.inlined_pure
      Instr.K.optimizer_inlined_pure;
    Instr.bump i ~n:st.Xquery.Optimizer.joins Instr.K.optimizer_joins;
    Instr.bump i ~n:st.Xquery.Optimizer.pushed Instr.K.optimizer_pushed;
    Instr.bump i ~n:st.Xquery.Optimizer.pushed_shifted
      Instr.K.optimizer_pushed_shifted;
    e'
  end

let supplied ctx name =
  match Ctx.lookup_var ctx name with
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
let declare_variables s cc ?(missing = supplied) ctx decls =
  let ctx =
    List.fold_left
      (fun ctx vd ->
        let v =
          match vd.Xquery.Ast.vd_value with
          | Some e ->
            if plans s then Xquery.Eval.compile cc e ctx
            else Xquery.Eval.eval ctx e
          | None -> missing ctx vd.Xquery.Ast.vd_name
        in
        let v =
          match vd.Xquery.Ast.vd_type with
          | Some ty ->
            Seqtype.check
              ~what:
                (Printf.sprintf "$%s" (Qname.to_string vd.Xquery.Ast.vd_name))
              ty v
          | None -> v
        in
        Ctx.bind ctx vd.Xquery.Ast.vd_name v)
      ctx decls
  in
  let f = Ctx.fields ctx in
  Ctx.set_globals f.Ctx.registry f.Ctx.vars;
  ctx

(* [env] holds the verdicts of the registry extended by the program's own
   functions, so declaration bodies that call each other (or procedures
   calling declared functions) analyze precisely. *)
let install_declarations s ~env reg rt (prog : Stmt.program) =
  (* [optimize_expr] is the identity when optimization is off; [where]
     attributes every rewrite note to its enclosing declaration *)
  let opt_in name e = optimize_expr s ~where:(Qname.to_string name) ~env e in
  List.iter
    (fun (decl : Xquery.Ast.function_decl) ->
      let decl =
        {
          decl with
          Xquery.Ast.fd_body =
            Option.map (opt_in decl.Xquery.Ast.fd_name) decl.Xquery.Ast.fd_body;
        }
      in
      Ctx.register_user reg decl)
    prog.Stmt.prog_functions;
  List.iter
    (fun pd ->
      let body =
        match pd.Stmt.pd_body with
        | Some b ->
          Interp.P_block (optimize_block (opt_in pd.Stmt.pd_name) b)
        | None ->
          Item.raise_error (Qname.err "XPST0017")
            (Printf.sprintf
               "external procedure %s must be registered by the host"
               (Qname.to_string pd.Stmt.pd_name))
      in
      Interp.declare_procedure rt
        {
          Interp.p_name = pd.Stmt.pd_name;
          p_params = pd.Stmt.pd_params;
          p_return = pd.Stmt.pd_return;
          p_readonly = pd.Stmt.pd_readonly;
          p_impl = body;
        })
    prog.Stmt.prog_procs

(* parse against a copy of the static context so a program's own
   namespace declarations do not leak into the session *)
let parse s src = Parse.parse_program (Ctx.copy_static s.static) src

(* resolve [import module] declarations against the registered module
   library; each module loads once per session (recursively) *)
let rec resolve_imports s prog =
  List.iter
    (fun (_prefix, uri) ->
      if not (Hashtbl.mem s.loaded_modules uri) then
        match Hashtbl.find_opt s.modules uri with
        | Some src ->
          Hashtbl.replace s.loaded_modules uri ();
          load_library s src
        | None ->
          Item.raise_error (Qname.err "XQST0059")
            (Printf.sprintf "no module registered for namespace %S" uri))
    prog.Stmt.prog_imports

and load_library s src =
  let prog = parse s src in
  (match prog.Stmt.prog_body with
  | Some _ ->
    Item.raise_error (Qname.err "XQSE0002")
      "a library program must not have a query body"
  | None -> ());
  resolve_imports s prog;
  (* invalidate *after* the install (mutate-then-bump, like every other
     registration). When this runs mid-compile (an import resolving
     lazily), the caller reads the generation after import resolution,
     so the bumped generation is what gets cached. *)
  let reg = registry s in
  (* a registration, not a compile: the registry is solved here without
     building a unit the install is about to make stale *)
  install_declarations s
    ~env:(Xquery.Purity.env_for ~registry:reg prog.Stmt.prog_functions)
    reg s.rt prog;
  invalidate_plans s;
  (* library variable declarations evaluate now and persist as globals;
     after the invalidation, so an initializer calling a just-installed
     readonly procedure compiles against the post-install registry (and
     its unit) *)
  if prog.Stmt.prog_variables <> [] then begin
    let ctx = Ctx.make_dynamic ~trace:s.trace ~instr:(instr s) reg in
    let cc = Interp.compiler s.rt in
    let missing _ name =
      Item.raise_error (Qname.err "XPDY0002")
        (Printf.sprintf "library variable $%s must have a value"
           (Qname.to_string name))
    in
    ignore
      (declare_variables s cc ~missing
         (Ctx.with_vars ctx (Ctx.globals reg))
         prog.Stmt.prog_variables
        : Ctx.dynamic)
  end

let register_module s uri src =
  Hashtbl.replace s.modules uri src;
  invalidate_plans s

(* Returns the generation observed when the registry was snapshotted —
   after import resolution (a mid-compile library load bumps it first,
   so the entry caches under the post-load context it actually compiled
   against), before the registry copy and the unit (a registration
   landing later moves the generation, maybe into a newer unit, and the
   caller skips the insert). *)
let compile_gen s src =
  Instr.span (instr s) "compile" (fun () ->
      let prog = parse s src in
      resolve_imports s prog;
      let gen = generation s in
      let reg = Ctx.copy_registry (registry s) in
      let u = compilation_unit s in
      let rt =
        Interp.create_runtime ~trace:s.trace ~parent:s.rt ~instr:(instr s)
          ~plans:(plans s) reg
      in
      let env = Xquery.Purity.extend u.u_env prog.Stmt.prog_functions in
      install_declarations s ~env reg rt prog;
      (* registry functions come compiled from the unit; statement-level
         expressions gate streaming on the same verdicts as the body *)
      let cc =
        Xquery.Eval.compiler ~base:u.u_compiler ~purity:(purity_fn env) reg
      in
      Interp.set_compiler rt (fun () -> cc);
      let opt e = optimize_expr s ~env e in
      let body =
        Option.map
          (function
            | Stmt.Q_expr e -> Stmt.Q_expr (opt e)
            | Stmt.Q_block b -> Stmt.Q_block (optimize_block opt b))
          prog.Stmt.prog_body
      in
      let c =
        {
          c_session = s;
          c_registry = reg;
          c_runtime = rt;
          c_vars = prog.Stmt.prog_variables;
          c_body = body;
          c_plan =
            lazy
              (match body with
              | None -> CP_none
              | Some (Stmt.Q_expr e) ->
                CP_expr (Xquery.Eval.compile (Interp.compiler rt) e)
              | Some (Stmt.Q_block b) -> CP_block (Interp.compile_block rt b));
        }
      in
      (* closure-compile inside the compile span so [run] measures pure
         execution; skipped when execution goes through the tree walker *)
      if plans s then ignore (Lazy.force c.c_plan : cplan);
      (* successful compiles only: a parse or static error above must
         not count (the span still reports its duration) *)
      Instr.bump (instr s) Instr.K.queries_compiled;
      (gen, c))

let compile s src = snd (compile_gen s src)

(* Plan cache around [compile]: keyed on the program text, guarded by
   the generation the entry was compiled under; the insert is skipped
   when a registration raced the compile (the generation moved after the
   registry snapshot), so a stale plan is returned at most once and
   never cached. A failed compile counts as a miss but never as a
   compiled query; the cache is bypassed entirely when plans are off. *)
let compile_cached s src =
  if not (plans s) then compile s src
  else
    match
      Mutex.protect s.cache_lock (fun () -> Hashtbl.find_opt s.cache src)
    with
    | Some e when e.ce_generation = generation s ->
      Instr.bump (instr s) Instr.K.plan_cache_hit;
      e.ce_compiled
    | _ ->
      Instr.bump (instr s) Instr.K.plan_cache_miss;
      let gen, c = compile_gen s src in
      Mutex.protect s.cache_lock (fun () ->
          if gen = generation s then begin
            if Hashtbl.length s.cache >= cache_cap then Hashtbl.reset s.cache;
            Hashtbl.replace s.cache src { ce_generation = gen; ce_compiled = c }
          end);
      c

type exec_opts = {
  context_item : Item.t option;
  vars : (Qname.t * Item.seq) list;
  trace : (string -> unit) option;
}

let default_exec_opts = { context_item = None; vars = []; trace = None }

(* An expired ambient request deadline fails the program before any
   statement runs, with the same stable code the resilience guard uses
   at the source boundary — so a request whose budget died between
   admission and execution costs nothing and is XQSE-catchable. *)
let check_deadline () =
  match Resilience.Deadline.current () with
  | Some d when Resilience.Deadline.expired d ->
    Item.raise_error (Qname.err "RESX0005")
      (Printf.sprintf
         "request budget of %.0fms exhausted before execution (%.0fms \
          elapsed)"
         (Resilience.Deadline.budget_ms d)
         (Resilience.Deadline.elapsed_ms d))
  | None | Some _ -> ()

let set_snapshot_scope s scope = s.snapshot_scope <- scope

(* every query entry point runs inside the installed snapshot scope so
   all its source reads resolve against one consistent version cut;
   nested entries reuse the outer snapshot (the scope is reentrant) *)
let in_scope s f =
  match s.snapshot_scope with None -> f () | Some { scope } -> scope f

let run ?(opts = default_exec_opts) c =
  let s = c.c_session in
  check_deadline ();
  in_scope s @@ fun () ->
  Instr.span (instr s) "run" (fun () ->
  let vars = opts.vars in
  (* route statement-level fn:trace of this program to the same sink *)
  Interp.set_trace c.c_runtime
    (match opts.trace with Some f -> f | None -> s.trace);
  let plans = plans s in
  (* module variable declarations, over the session's persistent
     globals *)
  let ctx = Interp.context c.c_runtime in
  let ctx = Ctx.with_vars ctx (Ctx.globals c.c_registry) in
  let ctx = Ctx.bind_many ctx vars in
  let ctx = declare_variables s (Interp.compiler c.c_runtime) ctx c.c_vars in
  match c.c_body with
  | None -> []
  | Some (Stmt.Q_expr e) -> (
    let ctx =
      match opts.context_item with
      | Some item -> Ctx.with_focus ctx item ~pos:1 ~size:1
      | None -> ctx
    in
    match (if plans then Lazy.force c.c_plan else CP_none) with
    | CP_expr p -> p ctx
    | _ -> Xquery.Eval.eval ctx e)
  | Some (Stmt.Q_block b) -> (
    match (if plans then Lazy.force c.c_plan else CP_none) with
    | CP_block cb -> Interp.run_block c.c_runtime ~vars cb
    | _ -> Interp.exec_block c.c_runtime ~vars b))

let eval ?opts s src = run ?opts (compile_cached s src)

let eval_to_string ?opts s src =
  Xml_serialize.seq_to_string (eval ?opts s src)

type exec_result = { r_value : Item.seq; r_stats : Instr.stats }

let exec ?(opts = default_exec_opts) s src =
  let i = instr s in
  let before = Instr.stats i in
  let v = Instr.span i "query" (fun () -> run ~opts (compile_cached s src)) in
  { r_value = v; r_stats = Instr.since i before }

(* ------------------------------------------------------------------ *)
(* Explain: optimize a program while recording what the optimizer did,
   without touching the session's registries. Mirrors [compile] /
   [install_declarations]: function and procedure bodies plus the query
   body are optimized; variable declarations are left as written. *)

type explain = {
  ex_program : string;
  ex_stats : Xquery.Optimizer.stats;
  ex_log : string list;
}

let explain s src =
  let prog = parse s src in
  let log = ref [] in
  let total = ref Xquery.Optimizer.zero_stats in
  (* same purity environment as a real compilation of this program *)
  let env =
    Xquery.Purity.extend (compilation_unit s).u_env prog.Stmt.prog_functions
  in
  (* [where] (the enclosing function/procedure) prefixes each rewrite
     line, so multi-declaration programs attribute every rewrite; the
     query body stays unprefixed *)
  let opt_in where e =
    let e', st =
      Xquery.Optimizer.optimize_with_stats ~env
        ~log:(fun m ->
          log :=
            (match where with
            | Some w -> Printf.sprintf "[%s] %s" w m
            | None -> m)
            :: !log)
        e
    in
    total := Xquery.Optimizer.add_stats !total st;
    e'
  in
  let opt e = opt_in None e in
  let prog =
    {
      prog with
      Stmt.prog_functions =
        List.map
          (fun fd ->
            {
              fd with
              Xquery.Ast.fd_body =
                Option.map
                  (opt_in (Some (Qname.to_string fd.Xquery.Ast.fd_name)))
                  fd.Xquery.Ast.fd_body;
            })
          prog.Stmt.prog_functions;
      prog_procs =
        List.map
          (fun pd ->
            {
              pd with
              Stmt.pd_body =
                Option.map
                  (optimize_block
                     (opt_in (Some (Qname.to_string pd.Stmt.pd_name))))
                  pd.Stmt.pd_body;
            })
          prog.Stmt.prog_procs;
      prog_body =
        Option.map
          (function
            | Stmt.Q_expr e -> Stmt.Q_expr (opt e)
            | Stmt.Q_block b -> Stmt.Q_block (optimize_block opt b))
          prog.Stmt.prog_body;
    }
  in
  { ex_program = Pretty.program prog; ex_stats = !total; ex_log = List.rev !log }

(* A function call runs the unit's compiled body: every user function
   of the unit's registry is already compiled there, so resolving the
   callee writes nothing, and workers sharing one session may call
   concurrently. *)
let call s name args =
  in_scope s @@ fun () ->
  match Interp.find_procedure s.rt name (List.length args) with
  | Some _ -> Interp.call_procedure s.rt name args
  | None ->
    let ctx = Interp.context s.rt in
    if plans s then
      Xquery.Eval.compile_call (compilation_unit s).u_compiler name
        (List.length args) ctx args
    else Xquery.Eval.call ctx name args
