open Xdm
module Qmap = Xquery.Context.Qmap

type procedure = {
  p_name : Qname.t;
  p_params : (Qname.t * Seqtype.t option) list;
  p_return : Seqtype.t option;
  p_readonly : bool;
  p_impl : impl;
}

and impl = P_block of Stmt.block | P_external of (Item.seq list -> Item.seq)

type runtime = {
  reg : Xquery.Context.registry;
  procs : (string * string * int, procedure) Hashtbl.t;
      (* keyed by (uri, local, arity) — prefixes are not significant *)
  parent : runtime option;
  trace : (string -> unit) ref;
      (* the fn:trace sink; a sub-runtime shares its parent's cell *)
  instr : Instr.t;
  plans : bool;
  docs : (string * Node.t) list ref;
  collections : (string * Node.t list) list ref;
      (* fn:doc / fn:collection bindings of every evaluation context
         under this runtime; a sub-runtime shares its parent's *)
  mutable cache : unit -> Cache.bound option;
      (* result-cache view supplier, re-invoked per evaluation context
         so every key carries the session's *current* fingerprint; the
         session installs it, sub-runtimes inherit it *)
  mutable build_compiler : unit -> Xquery.Eval.compiler;
      (* how [comp] is built: the session installs one that layers a
         compiler over [reg] on its compilation unit, with the unit's
         purity verdicts (a program's runtime: the program's verdicts);
         conservative (all-true verdicts, no unit) until then *)
  mutable comp : Xquery.Eval.compiler option;
      (* the compiler every block and procedure under this runtime
         compiles through, with the verdicts its streaming arms gate on;
         built on first use, dropped on [invalidate_plans] *)
  mutable cblocks : (Stmt.block * cblock) list;
      (* compiled procedure/program bodies, keyed on block identity *)
}

(* A frame holds the assignable block variables of one block (value ref
   plus declared type). The paper specifies that only block-declared
   variables may be assigned. *)
and frame = (Qname.t * (Item.seq ref * Seqtype.t option)) list ref

and state = {
  rt : runtime;
  frames : frame list;  (* innermost first *)
  bindings : Item.seq Qmap.t;  (* read-only: params, iterate vars *)
  ctx0 : Xquery.Context.dynamic;
      (* base dynamic context, built once per block/procedure run; the
         compiled path derives every expression's context from it
         instead of paying [make_dynamic] per expression *)
}

and outcome =
  | Normal
  | Returned of Item.seq
  | Broke
  | Continued

and cblock = state -> outcome

let create_runtime ?(trace = fun _ -> ()) ?parent ~instr ~plans reg =
  let cache =
    match parent with Some p -> p.cache | None -> fun () -> None
  in
  {
    reg;
    procs = Hashtbl.create 16;
    parent;
    trace = (match parent with Some p -> p.trace | None -> ref trace);
    instr;
    plans;
    docs = (match parent with Some p -> p.docs | None -> ref []);
    collections =
      (match parent with Some p -> p.collections | None -> ref []);
    cache;
    build_compiler = (fun () -> Xquery.Eval.compiler reg);
    comp = None;
    cblocks = [];
  }

let registry rt = rt.reg
let trace rt = !(rt.trace)
let set_trace rt f = rt.trace := f
let instr rt = rt.instr
let plans rt = rt.plans
let set_cache rt f = rt.cache <- f

let register_doc rt uri node =
  rt.docs := (uri, node) :: List.remove_assoc uri !(rt.docs)

let register_collection rt uri nodes =
  rt.collections := (uri, nodes) :: List.remove_assoc uri !(rt.collections)

let rec register_all register ctx = function
  | [] -> ()
  | (uri, v) :: rest ->
    register ctx uri v;
    register_all register ctx rest

(* The dynamic context every evaluation under [rt] starts from. Binding
   the documents allocates nothing, so a runtime without any pays only
   the two empty-list checks. *)
let context rt =
  let ctx =
    Xquery.Context.make_dynamic ~trace:!(rt.trace) ~instr:rt.instr
      ?cache:(rt.cache ()) rt.reg
  in
  register_all Xquery.Context.register_doc ctx !(rt.docs);
  register_all Xquery.Context.register_collection ctx !(rt.collections);
  ctx

(* Drop every compiled plan held by this runtime. The session calls this
   whenever the registry underneath changes (function or procedure
   registration, module/library load) — the same events that flush its
   query-plan cache. *)
let invalidate_plans rt =
  rt.comp <- None;
  rt.cblocks <- []

let set_compiler rt f =
  rt.build_compiler <- f;
  invalidate_plans rt

(* The runtime's compiler, built on first use: for the session runtime,
   after the registration that dropped the last one, so it layers on the
   compilation unit of the generation it compiles in. *)
let compiler_of rt =
  match rt.comp with
  | Some cc -> cc
  | None ->
    let cc = rt.build_compiler () in
    rt.comp <- Some cc;
    cc

let compiler = compiler_of

let rec find_procedure rt (name : Qname.t) arity =
  match Hashtbl.find_opt rt.procs (name.Qname.uri, name.Qname.local, arity) with
  | Some p -> Some p
  | None -> (
    match rt.parent with
    | Some parent -> find_procedure parent name arity
    | None -> None)

(* ------------------------------------------------------------------ *)
(* Execution state                                                      *)
(* ------------------------------------------------------------------ *)

let make_state rt bindings = { rt; frames = []; bindings; ctx0 = context rt }

let push_frame st = { st with frames = ref [] :: st.frames }

let declare_var st ?ty name v =
  match st.frames with
  | [] -> invalid_arg "Interp.declare_var: no frame"
  | frame :: _ -> frame := (name, (ref v, ty)) :: !frame

let find_entry st name =
  let rec go = function
    | [] -> None
    | frame :: rest -> (
      match List.find_opt (fun (n, _) -> Qname.equal n name) !frame with
      | Some (_, entry) -> Some entry
      | None -> go rest)
  in
  go st.frames

(* Snapshot of all variables in scope, for expression evaluation. *)
let scope_vars st =
  let m = st.bindings in
  (* outer frames first so inner frames win *)
  List.fold_left
    (fun m frame ->
      List.fold_left (fun m (n, (r, _)) -> Qmap.add n !r m) m (List.rev !frame))
    m (List.rev st.frames)

let eval_ctx st =
  let ctx = context st.rt in
  let globals = Xquery.Context.globals st.rt.reg in
  let vars =
    Qmap.union (fun _ _inner v -> Some v) globals (scope_vars st)
  in
  Xquery.Context.with_vars ctx vars

let eval_expr st e = Xquery.Eval.eval (eval_ctx st) e

(* Compiled-path variant of [eval_ctx]: same variable snapshot, but the
   dynamic context is derived from the per-run base instead of being
   rebuilt from scratch for every expression. *)
let compiled_ctx st =
  let globals = Xquery.Context.globals st.rt.reg in
  let vars =
    Qmap.union (fun _ _inner v -> Some v) globals (scope_vars st)
  in
  Xquery.Context.with_vars st.ctx0 vars

(* Compile-time image of the frame stack. Frames are fully static: only
   a block's [declare]s create entries, and a block's declarations all
   run before its statements, so at every program point the compiler
   knows exactly which names each live frame holds (newest first, the
   runtime cons order). That turns a variable reference into a
   (frame depth, position) slot — no name comparison at run time. *)
type scope = Qname.t list list

let resolve_slot (scope : scope) name =
  let rec frames fi = function
    | [] -> None
    | entries :: rest ->
      let rec pos pi = function
        | [] -> frames (fi + 1) rest
        | n :: tl ->
          if Qname.equal n name then Some (fi, pi) else pos (pi + 1) tl
      in
      pos 0 entries
  in
  frames 0 scope

let slot_entry st fi pi =
  let frame = List.nth st.frames fi in
  snd (List.nth !frame pi)

(* Fast path for tiny statement expressions — loop tests and
   counter/accumulator updates like [$i + 1] or [$i le $n]. Variables
   and literals combined by arithmetic or value comparison evaluate
   directly against the execution state (no context, no scope-map
   snapshot) through the same scalar kernels the evaluator uses, so
   values and errors are identical. Lookup precedence mirrors
   [eval_ctx]'s map: block frames (innermost first) over read-only
   bindings over module globals. *)
let rec simple_plan scope (e : Xquery.Ast.expr) :
    (state -> Item.seq) option =
  match e with
  | Xquery.Ast.Literal a ->
    let v = [ Item.Atomic a ] in
    Some (fun _ -> v)
  | Xquery.Ast.Var q -> (
    match resolve_slot scope q with
    | Some (fi, pi) ->
      Some
        (fun st ->
          let r, _ = slot_entry st fi pi in
          !r)
    | None ->
      (* in no frame, statically — read-only bindings, then globals *)
      Some
        (fun st ->
          match Qmap.find_opt q st.bindings with
          | Some v -> v
          | None -> (
            match Qmap.find_opt q (Xquery.Context.globals st.rt.reg) with
            | Some v -> v
            | None ->
              Item.raise_error (Qname.err "XPST0008")
                (Printf.sprintf "undefined variable $%s"
                   (Qname.to_string q)))))
  | Xquery.Ast.Arith (op, a, b) -> (
    match (simple_plan scope a, simple_plan scope b) with
    | Some pa, Some pb ->
      Some
        (fun st ->
          let va = pa st in
          let vb = pb st in
          Xquery.Eval.arith_seq op va vb)
    | _ -> None)
  | Xquery.Ast.Value_cmp (op, a, b) -> (
    match (simple_plan scope a, simple_plan scope b) with
    | Some pa, Some pb ->
      Some
        (fun st ->
          let va = pa st in
          let vb = pb st in
          Xquery.Eval.value_cmp_seq op va vb)
    | _ -> None)
  | _ -> None

let expr_plan rt scope (e : Xquery.Ast.expr) : state -> Item.seq =
  match simple_plan scope e with
  | Some p -> p
  | None ->
    let plan = Xquery.Eval.compile (compiler_of rt) e in
    fun st -> plan (compiled_ctx st)

(* Purity verdict of a statement block: a statement's verdict joins the
   verdicts of every embedded expression ([purity] returns the
   compile-time [(effects, fallible, constructs)] triple of one
   expression); [update] statements are effectful by definition. Blocks
   are always considered fallible — sequence-type checks on parameters,
   results and [set] targets can raise regardless of the body. *)
let block_verdict ~purity (b : Stmt.block) =
  let effects = ref false in
  let constructs = ref false in
  let note e =
    let ef, _fallible, co = purity e in
    if ef then effects := true;
    if co then constructs := true
  in
  let rec vstmt = function
    | Stmt.V_expr e -> note e
    | Stmt.V_proc_block b -> block b
  and stmt = function
    | Stmt.Block b -> block b
    | Stmt.Set (_, v) -> vstmt v
    | Stmt.Return_value v | Stmt.Expr_stmt v -> vstmt v
    | Stmt.While (e, b) ->
      note e;
      block b
    | Stmt.Iterate { source; body; _ } ->
      vstmt source;
      block body
    | Stmt.If (c, t, e) ->
      note c;
      stmt t;
      Option.iter stmt e
    | Stmt.Try (b, clauses) ->
      block b;
      List.iter (fun c -> block c.Stmt.cc_body) clauses
    | Stmt.Continue | Stmt.Break -> ()
    | Stmt.Update e ->
      effects := true;
      note e
  and block b =
    List.iter (fun d -> Option.iter vstmt d.Stmt.bd_init) b.Stmt.decls;
    List.iter stmt b.Stmt.stmts
  in
  block b;
  (!effects, true, !constructs)

(* ------------------------------------------------------------------ *)
(* Statements                                                           *)
(* ------------------------------------------------------------------ *)

(* what a procedure body, an in-place block or a query body returns: a
   [break()] or [continue()] that reached it ran outside any loop *)
let finish = function
  | Returned v -> v
  | Normal -> []
  | Broke -> Item.raise_error (Qname.err "XQSE0003") "break() outside a loop"
  | Continued ->
    Item.raise_error (Qname.err "XQSE0003") "continue() outside a loop"

let rec exec_value_stmt st (v : Stmt.value_stmt) : Item.seq =
  match v with
  | Stmt.V_expr (Xquery.Ast.Call (name, args) as e) -> (
    (* a call resolves to a procedure when one is declared, else it is an
       ordinary expression (paper III.B.8) *)
    match find_procedure st.rt name (List.length args) with
    | Some proc ->
      let arg_vals = List.map (eval_expr st) args in
      run_procedure st.rt proc arg_vals
    | None -> eval_expr st e)
  | Stmt.V_expr e -> eval_expr st e
  | Stmt.V_proc_block block ->
    (* in-place procedure: fresh assignable scope; enclosing variables
       remain visible read-only *)
    let st' = { st with frames = []; bindings = scope_vars st } in
    finish (exec_block_stmts (push_frame st') block)

and exec_stmt st (s : Stmt.statement) : outcome =
  Instr.bump st.rt.instr Instr.K.xqse_statements;
  match s with
  | Stmt.Block b -> exec_block_stmts (push_frame st) b
  | Stmt.Set (name, v) -> (
    match find_entry st name with
    | None ->
      Item.raise_error (Qname.err "XQSE0001")
        (Printf.sprintf
           "cannot assign to $%s: only block-declared variables may be \
            assigned"
           (Qname.to_string name))
    | Some (r, ty) ->
      (* on error the variable keeps its previous value (III.B.6) *)
      let value = exec_value_stmt st v in
      let value =
        match ty with
        | Some ty ->
          Seqtype.check ~what:(Printf.sprintf "$%s" (Qname.to_string name)) ty
            value
        | None -> value
      in
      r := value;
      Normal)
  | Stmt.Return_value v -> Returned (exec_value_stmt st v)
  | Stmt.Expr_stmt v ->
    ignore (exec_value_stmt st v);
    Normal
  | Stmt.While (test, body) ->
    let rec loop () =
      if Item.effective_boolean_value (eval_expr st test) then
        match exec_block_stmts (push_frame st) body with
        | Normal | Continued -> loop ()
        | Broke -> Normal
        | Returned v -> Returned v
      else Normal
    in
    loop ()
  | Stmt.Iterate { var; pos; source; body } ->
    (* the eager model: the whole binding sequence (all its effects and
       errors) is evaluated before any body statement runs *)
    let rec loop i = function
      | [] -> Normal
      | item :: rest -> (
        let bindings = Qmap.add var [ item ] st.bindings in
        let bindings =
          match pos with
          | Some pv -> Qmap.add pv [ Item.Atomic (Atomic.Integer i) ] bindings
          | None -> bindings
        in
        match exec_block_stmts (push_frame { st with bindings }) body with
        | Normal | Continued -> loop (i + 1) rest
        | Broke -> Normal
        | Returned v -> Returned v)
    in
    loop 1 (exec_value_stmt st source)
  | Stmt.If (cond, then_, else_) ->
    if Item.effective_boolean_value (eval_expr st cond) then
      exec_stmt st then_
    else (
      match else_ with Some s -> exec_stmt st s | None -> Normal)
  | Stmt.Try (body, clauses) -> (
    match exec_block_stmts (push_frame st) body with
    | outcome -> outcome
    | exception Item.Error { code; message; items } -> (
      match
        List.find_opt
          (fun c -> Stmt.nametest_matches c.Stmt.cc_test code)
          clauses
      with
      | None -> raise (Item.Error { code; message; items })
      | Some clause ->
        (* bind up to three variables: error QName, message, diagnostics
           (paper III.B.13) *)
        let values =
          [
            [ Item.Atomic (Atomic.QName code) ];
            [ Item.Atomic (Atomic.String message) ];
            items;
          ]
        in
        let bindings =
          List.fold_left2
            (fun m v value -> Qmap.add v value m)
            st.bindings clause.Stmt.cc_vars
            (List.filteri
               (fun i _ -> i < List.length clause.Stmt.cc_vars)
               values)
        in
        exec_block_stmts (push_frame { st with bindings }) clause.Stmt.cc_body))
  | Stmt.Continue -> Continued
  | Stmt.Break -> Broke
  | Stmt.Update e ->
    (* one snapshot: evaluate the updating expression, then apply its
       pending update list (paper III.C.14) *)
    let pul = Xquery.Eval.eval_updating (eval_ctx st) e in
    Xquery.Update.apply pul;
    Normal

and exec_block_stmts st (b : Stmt.block) : outcome =
  (* execute declarations in order, then statements in order (III.B.5) *)
  List.iter
    (fun d ->
      let v =
        match d.Stmt.bd_init with
        | Some init -> exec_value_stmt st init
        | None -> []
        (* the paper's own while example reads a declared-but-
           uninitialized variable, so uninitialized variables hold the
           empty sequence here; see DESIGN.md *)
      in
      let v =
        match d.Stmt.bd_type with
        | Some ty when d.Stmt.bd_init <> None ->
          Seqtype.check
            ~what:(Printf.sprintf "$%s" (Qname.to_string d.Stmt.bd_var))
            ty v
        | _ -> v
      in
      declare_var st ?ty:d.Stmt.bd_type d.Stmt.bd_var v)
    b.Stmt.decls;
  let rec go = function
    | [] -> Normal
    | s :: rest -> (
      match exec_stmt st s with Normal -> go rest | out -> out)
  in
  go b.Stmt.stmts

(* ------------------------------------------------------------------ *)
(* Compiled statements                                                  *)
(* ------------------------------------------------------------------ *)

(* Mirror of the exec_* functions above as a compile stage: each
   statement form is walked once, its embedded expressions are closure-
   compiled (through {!Xquery.Eval.compile} or the [simple_plan] fast
   path), and execution is a closure over the state. Observable behavior
   — values, effects, errors, statement counts, evaluation order —
   matches the interpreted path statement for statement; the
   differential corpus compares the two. *)

and cvalue_of rt scope (v : Stmt.value_stmt) : state -> Item.seq =
  match v with
  | Stmt.V_expr (Xquery.Ast.Call (name, args) as e) ->
    (* procedure-over-function resolution stays a run-time check: a
       procedure declared after this block compiled must still win *)
    let cargs = List.map (expr_plan rt scope) args in
    let cplan = expr_plan rt scope e in
    let arity = List.length args in
    fun st -> (
      match find_procedure st.rt name arity with
      | Some proc ->
        run_procedure st.rt proc (List.map (fun p -> p st) cargs)
      | None -> cplan st)
  | Stmt.V_expr e -> expr_plan rt scope e
  | Stmt.V_proc_block block ->
    (* the block body runs over a fresh (empty) frame stack *)
    let cb = cblock_plan rt [] block in
    fun st ->
      let st' = { st with frames = []; bindings = scope_vars st } in
      finish (cb st')

and cvalue_cur_of rt scope (v : Stmt.value_stmt) :
    state -> Item.t Cursor.t =
  match v with
  | Stmt.V_expr (Xquery.Ast.Call (name, args) as e) ->
    let cv = cvalue_of rt scope v in
    let ccur = Xquery.Eval.compile_cur (compiler_of rt) e in
    let arity = List.length args in
    fun st ->
      if find_procedure st.rt name arity <> None then
        Cursor.of_list (cv st)
      else ccur (compiled_ctx st)
  | Stmt.V_expr e ->
    let ccur = Xquery.Eval.compile_cur (compiler_of rt) e in
    fun st -> ccur (compiled_ctx st)
  | Stmt.V_proc_block _ ->
    let cv = cvalue_of rt scope v in
    fun st -> Cursor.of_list (cv st)

and cstmt_of rt scope (s : Stmt.statement) : cblock =
  let k : cblock =
    match s with
    | Stmt.Block b -> cblock_plan rt scope b
    | Stmt.Set (name, v) -> (
      match resolve_slot scope name with
      | None ->
        (* statically in no frame: the interpreted path raises before
           evaluating the value, so don't compile in an evaluation *)
        fun _ ->
          Item.raise_error (Qname.err "XQSE0001")
            (Printf.sprintf
               "cannot assign to $%s: only block-declared variables may be \
                assigned"
               (Qname.to_string name))
      | Some (fi, pi) ->
        let cv = cvalue_of rt scope v in
        fun st ->
          let r, ty = slot_entry st fi pi in
          let value = cv st in
          let value =
            match ty with
            | Some ty ->
              Seqtype.check
                ~what:(Printf.sprintf "$%s" (Qname.to_string name))
                ty value
            | None -> value
          in
          r := value;
          Normal)
    | Stmt.Return_value v ->
      let cv = cvalue_of rt scope v in
      fun st -> Returned (cv st)
    | Stmt.Expr_stmt v ->
      let cv = cvalue_of rt scope v in
      fun st ->
        ignore (cv st);
        Normal
    | Stmt.While (test, body) ->
      let ctest = expr_plan rt scope test in
      let cbody = cblock_plan rt scope body in
      fun st ->
        let rec loop () =
          if Item.effective_boolean_value (ctest st) then
            match cbody st with
            | Normal | Continued -> loop ()
            | Broke -> Normal
            | Returned v -> Returned v
          else Normal
        in
        loop ()
    | Stmt.Iterate { var; pos; source; body } ->
      let csrc = cvalue_cur_of rt scope source in
      (* the loop variables land in [bindings], not a frame, so the
         body's frame image is unchanged *)
      let cbody = cblock_plan rt scope body in
      (* A constructing body forbids lazy driving: node allocation order
         decides cross-tree document order, and interleaving the body's
         constructions with per-pull construction in the source (row
         elements) would order them differently than the eager model,
         which finishes the whole binding sequence first. The verdict
         is fixed at compile time, by the verdicts of the runtime's
         compiler. *)
      let _, _, body_constructs =
        block_verdict ~purity:(Xquery.Eval.verdict (compiler_of rt)) body
      in
      fun st ->
        let run_body i item =
          let bindings = Qmap.add var [ item ] st.bindings in
          let bindings =
            match pos with
            | Some pv ->
              Qmap.add pv [ Item.Atomic (Atomic.Integer i) ] bindings
            | None -> bindings
          in
          cbody { st with bindings }
        in
        let cur = csrc st in
        if Cursor.is_pure cur && not body_constructs then
          (* pure source: remaining pulls cannot raise or have effects,
             so driving one binding at a time is indistinguishable from
             the eager loop — except that [break]/[return] abandon the
             rest *)
          let rec loop i =
            match Cursor.next cur with
            | None -> Normal
            | Some item -> (
              match run_body i item with
              | Normal | Continued -> loop (i + 1)
              | Broke ->
                Cursor.abandon cur;
                Normal
              | Returned v ->
                Cursor.abandon cur;
                Returned v
              | exception e ->
                Cursor.abandon cur;
                raise e)
          in
          loop 1
        else begin
          (* impure source: materialize to keep the eager ordering *)
          let binding_seq = Cursor.to_list ~instr:st.rt.instr cur in
          let rec loop i = function
            | [] -> Normal
            | item :: rest -> (
              match run_body i item with
              | Normal | Continued -> loop (i + 1) rest
              | Broke -> Normal
              | Returned v -> Returned v)
          in
          loop 1 binding_seq
        end
    | Stmt.If (cond, then_, else_) ->
      let ccond = expr_plan rt scope cond in
      let cthen = cstmt_of rt scope then_ in
      let celse = Option.map (cstmt_of rt scope) else_ in
      fun st ->
        if Item.effective_boolean_value (ccond st) then cthen st
        else (match celse with Some c -> c st | None -> Normal)
    | Stmt.Try (body, clauses) ->
      let cbody = cblock_plan rt scope body in
      let cclauses =
        List.map
          (fun c -> (c, cblock_plan rt scope c.Stmt.cc_body))
          clauses
      in
      fun st -> (
        match cbody st with
        | outcome -> outcome
        | exception Item.Error { code; message; items } -> (
          match
            List.find_opt
              (fun (c, _) -> Stmt.nametest_matches c.Stmt.cc_test code)
              cclauses
          with
          | None -> raise (Item.Error { code; message; items })
          | Some (clause, cb) ->
            let values =
              [
                [ Item.Atomic (Atomic.QName code) ];
                [ Item.Atomic (Atomic.String message) ];
                items;
              ]
            in
            let bindings =
              List.fold_left2
                (fun m v value -> Qmap.add v value m)
                st.bindings clause.Stmt.cc_vars
                (List.filteri
                   (fun i _ -> i < List.length clause.Stmt.cc_vars)
                   values)
            in
            cb { st with bindings }))
    | Stmt.Continue -> fun _ -> Continued
    | Stmt.Break -> fun _ -> Broke
    | Stmt.Update e ->
      let cu = Xquery.Eval.compile_updating (compiler_of rt) e in
      fun st ->
        Xquery.Update.apply (cu (compiled_ctx st));
        Normal
  in
  fun st ->
    Instr.bump st.rt.instr Instr.K.xqse_statements;
    k st

and cbody_of rt outer (b : Stmt.block) : cblock =
  let has_frame = b.Stmt.decls <> [] in
  (* Declarations see the frame mid-construction: each init compiles
     against the entries declared so far (newest first — the runtime
     cons order, so slot positions line up even for shadowing
     redeclarations). Statements see the completed frame. *)
  let rev_cdecls, head =
    List.fold_left
      (fun (acc, head) d ->
        let scope = if has_frame then head :: outer else outer in
        let cinit =
          Option.map (cvalue_of rt scope) d.Stmt.bd_init
        in
        let cd st =
          let v = match cinit with Some ci -> ci st | None -> [] in
          let v =
            match (d.Stmt.bd_type, cinit) with
            | Some ty, Some _ ->
              Seqtype.check
                ~what:
                  (Printf.sprintf "$%s" (Qname.to_string d.Stmt.bd_var))
                ty v
            | _ -> v
          in
          declare_var st ?ty:d.Stmt.bd_type d.Stmt.bd_var v
        in
        (cd :: acc, d.Stmt.bd_var :: head))
      ([], []) b.Stmt.decls
  in
  let cdecls = List.rev rev_cdecls in
  let scope = if has_frame then head :: outer else outer in
  let cstmts = List.map (cstmt_of rt scope) b.Stmt.stmts in
  fun st ->
    List.iter (fun cd -> cd st) cdecls;
    let rec go = function
      | [] -> Normal
      | cs :: rest -> (match cs st with Normal -> go rest | out -> out)
    in
    go cstmts

and cblock_plan rt outer (b : Stmt.block) : cblock =
  let body = cbody_of rt outer b in
  (* a block with no declarations never touches its frame — skip it
     (and [cbody_of] correspondingly omits the frame image) *)
  if b.Stmt.decls = [] then body else fun st -> body (push_frame st)

and cached_cblock rt (b : Stmt.block) : cblock =
  match List.assq_opt b rt.cblocks with
  | Some cb -> cb
  | None ->
    (* top-level entry: procedure bodies and program blocks start on an
       empty frame stack (see [make_state]) *)
    let cb = cblock_plan rt [] b in
    rt.cblocks <- (b, cb) :: rt.cblocks;
    cb

and run_procedure rt proc arg_vals : Item.seq =
  let what = Qname.to_string proc.p_name in
  if List.length arg_vals <> List.length proc.p_params then
    Item.type_error
      (Printf.sprintf "procedure %s expects %d argument(s), got %d" what
         (List.length proc.p_params) (List.length arg_vals));
  let checked =
    List.map2
      (fun (pname, pty) v ->
        let v =
          match pty with
          | Some ty ->
            Seqtype.check
              ~what:
                (Printf.sprintf "argument $%s of %s" (Qname.to_string pname)
                   what)
              ty v
          | None -> v
        in
        (pname, v))
      proc.p_params arg_vals
  in
  let result =
    match proc.p_impl with
    | P_external f -> f (List.map snd checked)
    | P_block body -> (
      let bindings =
        List.fold_left
          (fun m (n, v) -> Qmap.add n v m)
          Qmap.empty checked
      in
      let st = make_state rt bindings in
      finish
        (if rt.plans then (cached_cblock rt body) st
         else exec_block_stmts (push_frame st) body))
  in
  match proc.p_return with
  | Some ty ->
    Seqtype.check ~what:(Printf.sprintf "result of %s" what) ty result
  | None -> result

let call_procedure rt name arg_vals =
  match find_procedure rt name (List.length arg_vals) with
  | Some proc -> run_procedure rt proc arg_vals
  | None ->
    Item.raise_error (Qname.err "XPST0017")
      (Printf.sprintf "unknown procedure %s/%d" (Qname.to_string name)
         (List.length arg_vals))

let procedure_verdict env (b : Stmt.block) =
  block_verdict b
    ~purity:(fun e ->
      let v = Xquery.Purity.analyze env e in
      (v.Xquery.Purity.effects, v.Xquery.Purity.fallible, v.Xquery.Purity.constructs))

let declare_procedure ?purity rt proc =
  let key =
    (proc.p_name.Qname.uri, proc.p_name.Qname.local, List.length proc.p_params)
  in
  if Hashtbl.mem rt.procs key then
    Item.raise_error (Qname.err "XQST0034")
      (Printf.sprintf "procedure %s/%d is already declared"
         (Qname.to_string proc.p_name)
         (List.length proc.p_params));
  Hashtbl.add rt.procs key proc;
  if proc.p_readonly then
    (* a readonly procedure is callable as a function from XQuery; its
       body's purity verdict rides along so the analyzer can classify it *)
    Xquery.Context.register_external rt.reg ?purity proc.p_name
      (List.length proc.p_params)
      (fun args -> run_procedure rt proc args)

(* Flatten the runtime chain's procedures (innermost declaration wins)
   into a fresh parentless runtime over [reg]. The fork shares no
   mutable state with the source — its own documents, compilation unit
   and compiled-block memos — so a worker domain can run against it while
   the source keeps serving. Readonly procedures re-home their function
   registration in [reg]: the entry copied in from the source's registry
   closes over the *source* runtime (and would race on its plan memos),
   so it is replaced by one closing over the fork, with the verdict the
   source registered. *)
let fork_runtime ~instr ~plans src reg =
  let fresh =
    {
      reg;
      procs = Hashtbl.create 16;
      parent = None;
      trace = ref !(src.trace);
      instr;
      plans;
      docs = ref !(src.docs);
      collections = ref !(src.collections);
      cache = (fun () -> None);
      build_compiler = (fun () -> Xquery.Eval.compiler reg);
      comp = None;
      cblocks = [];
    }
  in
  let rec collect rt =
    Hashtbl.iter
      (fun key p ->
        if not (Hashtbl.mem fresh.procs key) then Hashtbl.add fresh.procs key p)
      rt.procs;
    Option.iter collect rt.parent
  in
  collect src;
  Hashtbl.iter
    (fun _ p ->
      if p.p_readonly then begin
        let arity = List.length p.p_params in
        let purity =
          Option.bind (Xquery.Context.find reg p.p_name arity) (fun f ->
              f.Xquery.Context.fn_purity)
        in
        Xquery.Context.unregister reg p.p_name arity;
        Xquery.Context.register_external reg ?purity p.p_name arity
          (fun args -> run_procedure fresh p args)
      end)
    fresh.procs;
  fresh

let exec_block rt ?(vars = []) block =
  let bindings =
    List.fold_left (fun m (n, v) -> Qmap.add n v m) Qmap.empty vars
  in
  let st = make_state rt bindings in
  finish
    (if rt.plans then (cached_cblock rt block) st
     else exec_block_stmts (push_frame st) block)

let compile_block rt block : cblock = cblock_plan rt [] block

let run_block rt ?(vars = []) (cb : cblock) =
  let bindings =
    List.fold_left (fun m (n, v) -> Qmap.add n v m) Qmap.empty vars
  in
  finish (cb (make_state rt bindings))
