module P = Xquery.Parser
module L = Xquery.Lexer

(* An expression is updating when it contains an XUF updating form
   anywhere outside a self-contained [copy … modify … return]. The
   update statement (Stmt.Update) is recognized by this predicate. *)
let rec is_updating_expr (e : Xquery.Ast.expr) =
  match e with
  | Xquery.Ast.Insert _ | Xquery.Ast.Delete _ | Xquery.Ast.Replace _
  | Xquery.Ast.Rename _ -> true
  | Xquery.Ast.Transform _ -> false
  | e ->
    Xquery.Ast.fold_subexprs
      (fun acc sub -> acc || is_updating_expr sub)
      false e

(* A value statement: 'procedure { ... }' or an XQuery ExprSingle. *)
let rec parse_value_stmt p =
  if P.at_keyword p "procedure" && P.peek2 p = L.LBRACE then begin
    P.advance p;
    Stmt.V_proc_block (parse_block p)
  end
  else Stmt.V_expr (P.parse_expr_single p)

and parse_block_decl p =
  (* 'declare' already consumed; $v (as T)? (:= value)? (, ...)* *)
  let decls = ref [] in
  let rec one () =
    let v = P.parse_var_qname p in
    let ty =
      if P.at_keyword p "as" then begin
        P.advance p;
        Some (P.parse_sequence_type p)
      end
      else None
    in
    let init =
      if P.peek p = L.ASSIGN then begin
        P.advance p;
        Some (parse_value_stmt p)
      end
      else None
    in
    decls := { Stmt.bd_var = v; bd_type = ty; bd_init = init } :: !decls;
    if P.peek p = L.COMMA then begin
      P.advance p;
      one ()
    end
  in
  one ();
  List.rev !decls

and parse_block p =
  P.expect_tok p L.LBRACE "'{'";
  let decls = ref [] in
  while P.at_keyword p "declare" && P.peek2 p = L.DOLLAR do
    P.advance p;
    decls := !decls @ parse_block_decl p;
    P.expect_tok p L.SEMI "';'"
  done;
  let stmts = ref [] in
  while P.peek p <> L.RBRACE do
    let stmt, simple = parse_statement p in
    stmts := stmt :: !stmts;
    if simple then P.expect_tok p L.SEMI "';' after statement"
    else if P.peek p = L.SEMI then P.advance p
  done;
  P.expect_tok p L.RBRACE "'}'";
  { Stmt.decls = !decls; stmts = List.rev !stmts }

and parse_catch_nametest p =
  match P.peek p with
  | L.STAR ->
    P.advance p;
    Stmt.Nt_any
  | L.LOCAL_WILDCARD "*" ->
    P.advance p;
    Stmt.Nt_any
  | L.LOCAL_WILDCARD local ->
    P.advance p;
    Stmt.Nt_local local
  | L.NS_WILDCARD prefix ->
    P.advance p;
    Stmt.Nt_ns (P.namespace p prefix)
  | L.NAME _ ->
    let lex = P.parse_qname_lexical p in
    Stmt.Nt_name (Xquery.Context.resolve_qname (P.static p) ~element:false lex)
  | t -> ignore t; P.fail p "expected a name test in catch clause"

and parse_catch_clause p =
  P.eat_keyword p "catch";
  P.expect_tok p L.LPAR "'('";
  let test = parse_catch_nametest p in
  let vars = ref [] in
  if P.at_keyword p "into" then begin
    P.advance p;
    let rec go () =
      vars := P.parse_var_qname p :: !vars;
      if P.peek p = L.COMMA && List.length !vars < 3 then begin
        P.advance p;
        go ()
      end
    in
    go ()
  end;
  P.expect_tok p L.RPAR "')'";
  let body = parse_block p in
  { Stmt.cc_test = test; cc_vars = List.rev !vars; cc_body = body }

and parse_statement p : Stmt.statement * bool =
  match P.peek p with
  | L.LBRACE -> (Stmt.Block (parse_block p), false)
  | L.NAME (None, "set") when P.peek2 p = L.DOLLAR ->
    P.advance p;
    let v = P.parse_var_qname p in
    P.expect_tok p L.ASSIGN "':='";
    (Stmt.Set (v, parse_value_stmt p), true)
  | L.NAME (None, "return") when P.at_keyword2 p "return" "value" ->
    P.advance p;
    P.advance p;
    (Stmt.Return_value (parse_value_stmt p), true)
  | L.NAME (None, "while") when P.peek2 p = L.LPAR ->
    P.advance p;
    P.expect_tok p L.LPAR "'('";
    let test = P.parse_expr p in
    P.expect_tok p L.RPAR "')'";
    (Stmt.While (test, parse_block p), false)
  | L.NAME (None, "iterate") when P.peek2 p = L.DOLLAR ->
    P.advance p;
    let var = P.parse_var_qname p in
    let pos =
      if P.at_keyword p "at" then begin
        P.advance p;
        Some (P.parse_var_qname p)
      end
      else None
    in
    P.eat_keyword p "over";
    let source = parse_value_stmt p in
    (Stmt.Iterate { var; pos; source; body = parse_block p }, false)
  | L.NAME (None, "if") when P.peek2 p = L.LPAR ->
    P.advance p;
    P.expect_tok p L.LPAR "'('";
    let cond = P.parse_expr p in
    P.expect_tok p L.RPAR "')'";
    P.eat_keyword p "then";
    let then_, _ = parse_statement p in
    let else_ =
      if P.at_keyword p "else" then begin
        P.advance p;
        let s, _ = parse_statement p in
        Some s
      end
      else None
    in
    (Stmt.If (cond, then_, else_), true)
  | L.NAME (None, "try") when P.peek2 p = L.LBRACE ->
    P.advance p;
    let body = parse_block p in
    let clauses = ref [ parse_catch_clause p ] in
    while P.at_keyword p "catch" do
      clauses := parse_catch_clause p :: !clauses
    done;
    (Stmt.Try (body, List.rev !clauses), false)
  | L.NAME (None, "continue") when P.peek2 p = L.LPAR ->
    P.advance p;
    P.expect_tok p L.LPAR "'('";
    P.expect_tok p L.RPAR "')'";
    (Stmt.Continue, true)
  | L.NAME (None, "break") when P.peek2 p = L.LPAR ->
    P.advance p;
    P.expect_tok p L.LPAR "'('";
    P.expect_tok p L.RPAR "')'";
    (Stmt.Break, true)
  | _ ->
    (* expression statement: an update statement when the expression is
       updating, otherwise a procedure call / value statement *)
    let e = P.parse_expr_single p in
    if is_updating_expr e then (Stmt.Update e, true)
    else (Stmt.Expr_stmt (Stmt.V_expr e), true)

(* ------------------------------------------------------------------ *)
(* Programs                                                             *)
(* ------------------------------------------------------------------ *)

let parse_procedure_decl p ~readonly =
  (* 'declare' ('readonly')? 'procedure' consumed by caller up to
     'procedure'; we are positioned at the name *)
  let name = P.parse_fun_qname p in
  let params = P.parse_param_list p in
  let ret =
    if P.at_keyword p "as" then begin
      P.advance p;
      Some (P.parse_sequence_type p)
    end
    else None
  in
  let body =
    if P.peek p = L.LBRACE then Some (parse_block p)
    else begin
      P.eat_keyword p "external";
      None
    end
  in
  P.expect_tok p L.SEMI "';'";
  {
    Stmt.pd_name = name;
    pd_params = params;
    pd_return = ret;
    pd_readonly = readonly;
    pd_body = body;
  }

let parse_program st src =
  let p = P.create st src in
  let procs = ref [] in
  let functions = ref [] in
  let variables = ref [] in
  let imports = ref [] in
  let rec prolog () =
    if P.at_keyword p "declare" then begin
      match P.peek2 p with
      | L.NAME (None, "procedure") ->
        P.advance p;
        P.advance p;
        procs := parse_procedure_decl p ~readonly:false :: !procs;
        prolog ()
      | L.NAME (None, "readonly") ->
        P.advance p;
        P.advance p;
        P.eat_keyword p "procedure";
        procs := parse_procedure_decl p ~readonly:true :: !procs;
        prolog ()
      | L.NAME (None, "xqse") ->
        (* 'declare xqse function' — ALDSP 3.0 alternate syntax for a
           readonly procedure *)
        P.advance p;
        P.advance p;
        P.eat_keyword p "function";
        procs := parse_procedure_decl p ~readonly:true :: !procs;
        prolog ()
      | _ -> xquery_prolog ()
    end
    else xquery_prolog ()
  and xquery_prolog () =
    match P.try_parse_prolog_item p with
    | P.No_item -> ()
    | P.Consumed -> prolog ()
    | P.Item (Xquery.Ast.P_function f) ->
      functions := f :: !functions;
      prolog ()
    | P.Item (Xquery.Ast.P_variable v) ->
      variables := v :: !variables;
      prolog ()
    | P.Item (Xquery.Ast.P_import { prefix; uri }) ->
      imports := (prefix, uri) :: !imports;
      prolog ()
  in
  prolog ();
  let body =
    match P.peek p with
    | L.EOF -> None
    | L.LBRACE -> Some (Stmt.Q_block (parse_block p))
    | _ -> Some (Stmt.Q_expr (P.parse_expr p))
  in
  P.expect_eof p;
  {
    Stmt.prog_procs = List.rev !procs;
    prog_functions = List.rev !functions;
    prog_variables = List.rev !variables;
    prog_imports = List.rev !imports;
    prog_body = body;
  }
