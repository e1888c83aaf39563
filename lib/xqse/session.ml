open Xdm
module Ctx = Xquery.Context

type config = {
  optimize : bool;
  streaming : bool;
  plans : bool;
  instr : Instr.t;
  trace : (string -> unit) option;
  result_cache : Cache.handle option;
      (* shared result-cache store; identically-configured forks land on
         the same keys and share entries, differently-configured ones
         get disjoint keys via the fingerprint prefix *)
}

let default_config =
  {
    optimize = true;
    streaming = true;
    plans = true;
    instr = Instr.disabled;
    trace = None;
    result_cache = None;
  }

(* An ambient read-context wrapper installed by the data layer: the
   dataspace registers a scope that pins a consistent snapshot of every
   source table for the duration of a query (see
   [Relational.Table.with_snapshot]). Polymorphic so it wraps both
   value- and cursor-producing entry points. *)
type snapshot_scope = { scope : 'a. (unit -> 'a) -> 'a }

type t = {
  eng : Xquery.Engine.t;
  rt : Interp.runtime;
  mutable trace : string -> unit;
  mutable snapshot_scope : snapshot_scope option;
  modules : (string, string) Hashtbl.t;  (* module uri -> source *)
  loaded_modules : (string, unit) Hashtbl.t;
  s_generation : int Stdlib.Atomic.t;
      (* bumped on every session-level static-context change (procedure
         or module registration, library load); part of the plan-cache
         fingerprint alongside the engine's generation *)
  cache_lock : Mutex.t;  (* guards [cache] and [calls] *)
  cache : (string, cache_entry) Hashtbl.t;  (* program text → plan *)
  calls :
    ( string * string * int,
      fingerprint * (Ctx.dynamic -> Item.seq list -> Item.seq) )
    Hashtbl.t;
      (* (uri, local, arity) → the compiled callee {!call} runs *)
  mutable result_cache : Cache.handle option;
      (* data-service result cache (lib/cache); [None] = caching off *)
}

and compiled = {
  c_session : t;
  c_registry : Ctx.registry;
  c_runtime : Interp.runtime;
  c_vars : Xquery.Ast.var_decl list;
  c_body : Stmt.query_body option;
  c_env : Xquery.Purity.env;  (* for the evaluator's streaming gates *)
  c_plan : cplan Lazy.t;
      (* the closure-compiled body; forced inside the compile span when
         plans are enabled so the compile/run span split stays honest *)
}

and cplan =
  | CP_none
  | CP_expr of Xquery.Eval.plan
  | CP_block of Interp.cblock

and cache_entry = {
  ce_fingerprint : fingerprint;
  ce_compiled : compiled;
}

and fingerprint = int * int * bool * bool * bool
(* (engine generation, session generation, optimize, streaming, plans)
   an entry was compiled under; any mismatch is a miss *)

(* Same bound and flush-wholesale policy as the engine's cache; an
   overflow flush is not an invalidation (no context change), so it does
   not count on [plan.cache.invalidate]. *)
let cache_cap = 256

let with_engine eng =
  let instr = Xquery.Engine.instr eng in
  (* default fn:trace destination: a note in the instrumentation trace
     (a no-op while the handle is disabled) *)
  let trace m = Instr.note instr ("trace: " ^ m) in
  let rt = Interp.create_runtime ~trace ~instr (Xquery.Engine.registry eng) in
  {
    eng;
    rt;
    trace;
    snapshot_scope = None;
    modules = Hashtbl.create 8;
    loaded_modules = Hashtbl.create 8;
    s_generation = Stdlib.Atomic.make 0;
    cache_lock = Mutex.create ();
    cache = Hashtbl.create 32;
    calls = Hashtbl.create 8;
    result_cache = None;
  }

let instr_of s = Xquery.Engine.instr s.eng

(* Result-cache binding: the store is shared, the keys are not — every
   key is prefixed with the session's *current* fingerprint, so a
   registration (either generation) or a flag difference moves a session
   onto fresh keys while identically-configured forks keep sharing. *)
let fingerprint_string s =
  Printf.sprintf "%d.%d.%b.%b.%b"
    (Xquery.Engine.generation s.eng)
    (Stdlib.Atomic.get s.s_generation)
    (Xquery.Engine.optimizing s.eng)
    (Xquery.Engine.streaming s.eng)
    (Xquery.Engine.plans s.eng)

let cache_bound s =
  Option.map
    (fun h ->
      Cache.bind h ~fingerprint:(fingerprint_string s) ~instr:(instr_of s))
    s.result_cache

let set_result_cache s h =
  s.result_cache <- h;
  Interp.set_cache s.rt (fun () -> cache_bound s)

let result_cache s = s.result_cache

let create ?optimize ?instr ?config () =
  let cfg = Option.value config ~default:default_config in
  (* the legacy labelled arguments override the record so existing
     [create ~optimize ~instr ()] call sites keep their meaning *)
  let cfg =
    match optimize with Some b -> { cfg with optimize = b } | None -> cfg
  in
  let cfg = match instr with Some i -> { cfg with instr = i } | None -> cfg in
  let eng =
    Xquery.Engine.create ~optimize:cfg.optimize ~streaming:cfg.streaming
      ~instr:cfg.instr ()
  in
  Xquery.Engine.set_plans eng cfg.plans;
  let s = with_engine eng in
  Interp.set_streaming s.rt cfg.streaming;
  Interp.set_plans s.rt cfg.plans;
  (match cfg.trace with
  | Some f ->
    s.trace <- f;
    Interp.set_trace s.rt f
  | None -> ());
  set_result_cache s cfg.result_cache;
  s

let engine s = s.eng
let runtime s = s.rt
let instr s = Xquery.Engine.instr s.eng
let streaming s = Xquery.Engine.streaming s.eng

let config s =
  {
    optimize = Xquery.Engine.optimizing s.eng;
    streaming = Xquery.Engine.streaming s.eng;
    plans = Xquery.Engine.plans s.eng;
    instr = Xquery.Engine.instr s.eng;
    trace = Some s.trace;
    result_cache = s.result_cache;
  }

(* The PR 7 mutator shims are gone: a session whose flags never move
   underneath it can be handed to a worker without aliasing surprises,
   and every caller migrated to the immutable config long ago. The
   stubs stay one release so an out-of-tree caller gets a pointed
   message instead of an unbound-value error. *)
let removed name =
  invalid_arg
    (Printf.sprintf
       "Xqse.Session.%s was removed: set the flag in the config record at \
        create, or fork a reconfigured session with with_config"
       name)

let set_streaming _ _ = (removed "set_streaming" : unit)
let set_plans _ _ = (removed "set_plans" : unit)

(* Fork: an independent session over copies of everything the source
   accreted (registrations, procedures, loaded libraries, modules,
   documents), configured by [cfg]. Shares no mutable state with the
   source — each side's registrations, plan caches and globals evolve
   independently — so per-worker sessions forked off one prepared
   template are safe to drive from separate domains while the template's
   external functions (e.g. a dataspace's reads) execute against the
   shared backing sources. *)
let with_config s (cfg : config) =
  let eng =
    Xquery.Engine.fork ~optimize:cfg.optimize ~streaming:cfg.streaming
      ~plans:cfg.plans ~instr:cfg.instr s.eng
  in
  let trace =
    match cfg.trace with
    | Some f -> f
    | None -> fun m -> Instr.note cfg.instr ("trace: " ^ m)
  in
  let rt =
    Interp.fork_runtime ~trace ~instr:cfg.instr s.rt
      (Xquery.Engine.registry eng)
  in
  Interp.set_streaming rt cfg.streaming;
  Interp.set_plans rt cfg.plans;
  let fork =
    {
      eng;
      rt;
      trace;
      snapshot_scope = s.snapshot_scope;
      modules = Hashtbl.copy s.modules;
      loaded_modules = Hashtbl.copy s.loaded_modules;
      s_generation = Stdlib.Atomic.make (Stdlib.Atomic.get s.s_generation);
      cache_lock = Mutex.create ();
      cache = Hashtbl.create 32;
      calls = Hashtbl.create 8;
      result_cache = None;
    }
  in
  set_result_cache fork cfg.result_cache;
  fork

(* Any session-level change to what programs compile against makes every
   cached program plan stale: bump the generation, drop the session
   runtime's compiled procedure bodies, and flush the cache (counting
   the flushed entries, like the engine does). *)
let invalidate_plans s =
  Stdlib.Atomic.incr s.s_generation;
  Interp.invalidate_plans s.rt;
  Mutex.protect s.cache_lock (fun () ->
      Hashtbl.reset s.calls;
      let n = Hashtbl.length s.cache in
      if n > 0 then begin
        Instr.bump (instr s) ~n Instr.K.plan_cache_invalidate;
        Hashtbl.reset s.cache
      end)

let declare_namespace s prefix uri = Xquery.Engine.declare_namespace s.eng prefix uri

let set_trace s f =
  s.trace <- f;
  Interp.set_trace s.rt f

(* Mutate-then-invalidate (like the engine's registrations): the change
   lands before the generations move, so a compile racing it can never
   cache a pre-change snapshot under the post-change fingerprint. *)
let register_function s ?side_effects ?purity name arity impl =
  Xquery.Engine.register_external s.eng ?side_effects ?purity name arity impl;
  invalidate_plans s

let register_function_cursor s ?side_effects ?purity ?keyed name arity impl =
  Xquery.Engine.register_external_cursor s.eng ?side_effects ?purity ?keyed name
    arity impl;
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
  invalidate_plans s;
  (* a readonly procedure also registers as a function in the registry
     shared with the engine (and with sibling sessions over the same
     engine) — their cached plans must go stale too *)
  Xquery.Engine.invalidate_plans s.eng

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

let install_declarations s reg rt (prog : Stmt.program) =
  (* [Engine.optimize_expr] is the identity when optimization is off;
     [where] attributes every rewrite note to its enclosing declaration.
     The purity environment is built against the target registry plus
     the program's own functions, so declaration bodies that call each
     other (or procedures calling declared functions) analyze precisely.
     Returned so [compile] can reuse it for the query body. *)
  let env = Xquery.Engine.purity_env s.eng prog.Stmt.prog_functions in
  let opt_in name e =
    Xquery.Engine.optimize_expr s.eng ~where:(Qname.to_string name) ~env e
  in
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
    prog.Stmt.prog_procs;
  env

let fresh_static s =
  let st = Xquery.Engine.static s.eng in
  {
    Ctx.namespaces = st.Ctx.namespaces;
    default_elem_ns = st.Ctx.default_elem_ns;
    default_fun_ns = st.Ctx.default_fun_ns;
  }

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
  let prog = Parse.parse_program (fresh_static s) src in
  (match prog.Stmt.prog_body with
  | Some _ ->
    Item.raise_error (Qname.err "XQSE0002")
      "a library program must not have a query body"
  | None -> ());
  resolve_imports s prog;
  (* a library installs functions straight into the engine's registry,
     bypassing [Engine.register_external] — invalidate both cache layers
     explicitly, *after* the install (mutate-then-bump, like every other
     registration). When this runs mid-compile (an import resolving
     lazily), the caller captures its fingerprint after import
     resolution, so the bumped generations are what gets cached. *)
  ignore
    (install_declarations s (Xquery.Engine.registry s.eng) s.rt prog
      : Xquery.Purity.env);
  invalidate_plans s;
  Xquery.Engine.invalidate_plans s.eng;
  (* library variable declarations evaluate now and persist as globals;
     after the invalidation, so an initializer calling a just-installed
     readonly procedure compiles against the post-install registry *)
  if prog.Stmt.prog_variables <> [] then begin
    let reg = Xquery.Engine.registry s.eng in
    let ctx = Ctx.make_dynamic ~trace:s.trace ~instr:(instr s) reg in
    let ctx = Ctx.with_vars ctx (Ctx.globals reg) in
    let ctx =
      List.fold_left
        (fun ctx vd ->
          let v =
            match vd.Xquery.Ast.vd_value with
            | Some e -> Xquery.Eval.eval ctx e
            | None ->
              Item.raise_error (Qname.err "XPDY0002")
                (Printf.sprintf
                   "library variable $%s must have a value"
                   (Qname.to_string vd.Xquery.Ast.vd_name))
          in
          let v =
            match vd.Xquery.Ast.vd_type with
            | Some ty ->
              Seqtype.check
                ~what:(Printf.sprintf "$%s" (Qname.to_string vd.Xquery.Ast.vd_name))
                ty v
            | None -> v
          in
          Ctx.bind ctx vd.Xquery.Ast.vd_name v)
        ctx prog.Stmt.prog_variables
    in
    Ctx.set_globals reg (Ctx.fields ctx).Ctx.vars
  end

let register_module s uri src =
  Hashtbl.replace s.modules uri src;
  invalidate_plans s

(* Plan-cache fingerprint, mirroring the engine's: both generations plus
   every flag that changes what a compile produces. *)
let fingerprint s =
  ( Xquery.Engine.generation s.eng,
    Stdlib.Atomic.get s.s_generation,
    Xquery.Engine.optimizing s.eng,
    Xquery.Engine.streaming s.eng,
    Xquery.Engine.plans s.eng )

(* Returns the fingerprint observed when the registry was snapshotted —
   after import resolution (a mid-compile library load bumps both
   generations first, so the entry caches under the post-load context it
   actually compiled against), before the registry copy (a registration
   landing later invalidates the fingerprint and the caller skips the
   insert). *)
let compile_fp s src =
  Instr.span (instr s) "compile" (fun () ->
      let prog = Parse.parse_program (fresh_static s) src in
      resolve_imports s prog;
      let fp = fingerprint s in
      let reg = Ctx.copy_registry (Xquery.Engine.registry s.eng) in
      let rt = Interp.create_runtime ~trace:s.trace ~parent:s.rt reg in
      let env = install_declarations s reg rt prog in
      (* statement-level expression evaluation gates streaming on the
         same compile-time verdicts as the engine would *)
      Interp.set_purity rt (Xquery.Engine.purity_fn env);
      let opt e = Xquery.Engine.optimize_expr s.eng ~env e in
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
          c_env = env;
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
      if Xquery.Engine.plans s.eng then ignore (Lazy.force c.c_plan : cplan);
      (* successful compiles only: a parse or static error above must
         not count (the span still reports its duration) *)
      Instr.bump (instr s) Instr.K.queries_compiled;
      (fp, c))

let compile s src = snd (compile_fp s src)

(* Plan cache around [compile], mirroring the engine's: keyed on the
   program text, guarded by the fingerprint the entry was compiled
   under; the insert is skipped when a registration raced the compile
   (the fingerprint moved after the registry snapshot), so a stale plan
   is returned at most once and never cached. A failed compile counts
   as a miss but never as a compiled query; the cache is bypassed
   entirely when plans are off. *)
let compile_cached s src =
  let cached =
    Mutex.protect s.cache_lock (fun () -> Hashtbl.find_opt s.cache src)
  in
  match cached with
  | Some e when Xquery.Engine.plans s.eng && e.ce_fingerprint = fingerprint s
    ->
    Instr.bump (instr s) Instr.K.plan_cache_hit;
    e.ce_compiled
  | _ when not (Xquery.Engine.plans s.eng) -> compile s src
  | _ ->
    Instr.bump (instr s) Instr.K.plan_cache_miss;
    let fp, c = compile_fp s src in
    Mutex.protect s.cache_lock (fun () ->
        if fp = fingerprint s then begin
          if Hashtbl.length s.cache >= cache_cap then Hashtbl.reset s.cache;
          Hashtbl.replace s.cache src { ce_fingerprint = fp; ce_compiled = c }
        end);
    c

type exec_opts = {
  vars : (Qname.t * Item.seq) list;
  trace : (string -> unit) option;
}

let default_exec_opts = { vars = []; trace = None }

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
  let trace = match opts.trace with Some f -> f | None -> s.trace in
  (* route statement-level fn:trace of this program to the same sink,
     and pick up the engine's current streaming and plan modes *)
  Interp.set_trace c.c_runtime trace;
  Interp.set_streaming c.c_runtime (Xquery.Engine.streaming s.eng);
  Interp.set_plans c.c_runtime (Xquery.Engine.plans s.eng);
  (* evaluate module variable declarations in order, over the session's
     persistent globals *)
  let ctx =
    Ctx.make_dynamic ~trace ~instr:(instr s)
      ~streaming:(Xquery.Engine.streaming s.eng)
      ~purity:(Xquery.Engine.purity_fn c.c_env) ?cache:(cache_bound s)
      c.c_registry
  in
  let ctx = Ctx.with_vars ctx (Ctx.globals c.c_registry) in
  let ctx = Ctx.bind_many ctx vars in
  let ctx =
    List.fold_left
      (fun ctx vd ->
        let v =
          match vd.Xquery.Ast.vd_value with
          | Some e -> Xquery.Eval.eval ctx e
          | None -> (
            match Ctx.lookup_var ctx vd.Xquery.Ast.vd_name with
            | Some v -> v
            | None ->
              Item.raise_error (Qname.err "XPDY0002")
                (Printf.sprintf
                   "external variable $%s was not supplied a value"
                   (Qname.to_string vd.Xquery.Ast.vd_name)))
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
      ctx c.c_vars
  in
  Ctx.set_globals c.c_registry (Ctx.fields ctx).Ctx.vars;
  let plans = Xquery.Engine.plans s.eng in
  match c.c_body with
  | None -> []
  | Some (Stmt.Q_expr e) -> (
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
  let prog = Parse.parse_program (fresh_static s) src in
  let log = ref [] in
  let total = ref Xquery.Optimizer.zero_stats in
  (* same purity environment as a real compilation of this program *)
  let env = Xquery.Engine.purity_env s.eng prog.Stmt.prog_functions in
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

(* The compiled callee of [call], memoized per (name, arity) under the
   fingerprint it was compiled against, like a cached program plan. A
   plan is compiled outside the lock (two racing callers both compile,
   one entry wins) and only read once built, so workers sharing one
   session may run it concurrently. *)
let compiled_callee s name arity =
  let key = (name.Qname.uri, name.Qname.local, arity) in
  let fp = fingerprint s in
  match
    Mutex.protect s.cache_lock (fun () -> Hashtbl.find_opt s.calls key)
  with
  | Some (fp', f) when fp' = fp -> f
  | _ ->
    let reg = Xquery.Engine.registry s.eng in
    let purity = Xquery.Engine.purity_fn (Xquery.Engine.purity_env s.eng []) in
    let f = Xquery.Eval.compile_call (Xquery.Eval.compiler ~purity reg) name arity in
    Mutex.protect s.cache_lock (fun () -> Hashtbl.replace s.calls key (fp, f));
    f

let call s name args =
  in_scope s @@ fun () ->
  match Interp.find_procedure s.rt name (List.length args) with
  | Some _ -> Interp.call_procedure s.rt name args
  | None ->
    let ctx =
      Ctx.make_dynamic ~trace:s.trace ~instr:(instr s)
        ~streaming:(Xquery.Engine.streaming s.eng) ?cache:(cache_bound s)
        (Xquery.Engine.registry s.eng)
    in
    if Xquery.Engine.plans s.eng then
      compiled_callee s name (List.length args) ctx args
    else Xquery.Eval.call ctx name args
