open Xdm

exception Syntax_error of { line : int; col : int; message : string }

type t = { lx : Lexer.t; st : Context.static }

let create st src = { lx = Lexer.create src; st }
let static p = p.st

let fail p msg =
  let line, col = Lexer.line_col p.lx (Lexer.pos p.lx) in
  raise (Syntax_error { line; col; message = msg })

let peek p = Lexer.peek p.lx
let peek2 p = Lexer.peek2 p.lx
let advance p = ignore (Lexer.next p.lx)

let tok_desc = function
  | Lexer.EOF -> "end of input"
  | Lexer.NAME (None, n) -> Printf.sprintf "%S" n
  | Lexer.NAME (Some pfx, n) -> Printf.sprintf "%S" (pfx ^ ":" ^ n)
  | Lexer.STR s -> Printf.sprintf "string %S" s
  | Lexer.INT s | Lexer.DEC s | Lexer.DBL s -> Printf.sprintf "number %s" s
  | Lexer.LPAR -> "'('"
  | Lexer.RPAR -> "')'"
  | Lexer.LBRACE -> "'{'"
  | Lexer.RBRACE -> "'}'"
  | Lexer.LBRACKET -> "'['"
  | Lexer.RBRACKET -> "']'"
  | Lexer.COMMA -> "','"
  | Lexer.SEMI -> "';'"
  | Lexer.ASSIGN -> "':='"
  | Lexer.DOLLAR -> "'$'"
  | Lexer.AT -> "'@'"
  | Lexer.DOT -> "'.'"
  | Lexer.DOTDOT -> "'..'"
  | Lexer.SLASH -> "'/'"
  | Lexer.SLASHSLASH -> "'//'"
  | Lexer.STAR -> "'*'"
  | Lexer.PLUS -> "'+'"
  | Lexer.MINUS -> "'-'"
  | Lexer.PIPE -> "'|'"
  | Lexer.EQUALS -> "'='"
  | Lexer.NOTEQUALS -> "'!='"
  | Lexer.LT -> "'<'"
  | Lexer.LE -> "'<='"
  | Lexer.GT -> "'>'"
  | Lexer.GE -> "'>='"
  | Lexer.LTLT -> "'<<'"
  | Lexer.GTGT -> "'>>'"
  | Lexer.QMARK -> "'?'"
  | Lexer.AXIS_SEP -> "'::'"
  | Lexer.NS_WILDCARD pfx -> Printf.sprintf "'%s:*'" pfx
  | Lexer.LOCAL_WILDCARD l -> Printf.sprintf "'*:%s'" l

let expect_tok p tok what =
  if peek p = tok then advance p
  else fail p (Printf.sprintf "expected %s, found %s" what (tok_desc (peek p)))

let at_keyword p kw =
  match peek p with Lexer.NAME (None, n) -> n = kw | _ -> false

let at_keyword2 p k1 k2 =
  at_keyword p k1
  && match peek2 p with Lexer.NAME (None, n) -> n = k2 | _ -> false

let eat_keyword p kw =
  if at_keyword p kw then advance p
  else fail p (Printf.sprintf "expected %S, found %s" kw (tok_desc (peek p)))

let try_keyword p kw =
  if at_keyword p kw then begin
    advance p;
    true
  end
  else false

let expect_eof p =
  if peek p <> Lexer.EOF then
    fail p (Printf.sprintf "unexpected %s after end of query" (tok_desc (peek p)))

let parse_qname_lexical p =
  match peek p with
  | Lexer.NAME (pfx, local) ->
    advance p;
    (pfx, local)
  | t -> fail p (Printf.sprintf "expected a name, found %s" (tok_desc t))

let resolve_elem p lex =
  try Context.resolve_qname p.st ~element:true lex
  with Item.Error { message; _ } -> fail p message

let resolve_other p lex =
  try Context.resolve_qname p.st ~element:false lex
  with Item.Error { message; _ } -> fail p message

let resolve_fun p lex =
  try Context.resolve_fname p.st lex
  with Item.Error { message; _ } -> fail p message

let parse_elem_qname p = resolve_elem p (parse_qname_lexical p)
let parse_fun_qname p = resolve_fun p (parse_qname_lexical p)

let parse_var_qname p =
  expect_tok p Lexer.DOLLAR "'$'";
  resolve_other p (parse_qname_lexical p)

(* ------------------------------------------------------------------ *)
(* Sequence types                                                      *)
(* ------------------------------------------------------------------ *)

let parse_occurrence p =
  match peek p with
  | Lexer.QMARK ->
    advance p;
    Seqtype.Opt
  | Lexer.STAR ->
    advance p;
    Seqtype.Star
  | Lexer.PLUS ->
    advance p;
    Seqtype.Plus
  | _ -> Seqtype.One

let parse_kind_test_name p =
  (* inside element(...) / attribute(...): name, *, or nothing *)
  match peek p with
  | Lexer.RPAR -> None
  | Lexer.STAR ->
    advance p;
    None
  | Lexer.NAME _ ->
    let qn = parse_elem_qname p in
    (* optional ", TypeName" — parsed and ignored *)
    if peek p = Lexer.COMMA then begin
      advance p;
      ignore (parse_qname_lexical p)
    end;
    Some qn
  | t -> fail p (Printf.sprintf "expected a name or '*', found %s" (tok_desc t))

let parse_item_type p : Seqtype.item_type option =
  (* Returns None for empty-sequence() which is handled by the caller. *)
  match peek p with
  | Lexer.NAME (None, kw) when peek2 p = Lexer.LPAR -> (
    match kw with
    | "item" ->
      advance p;
      advance p;
      expect_tok p Lexer.RPAR "')'";
      Some Seqtype.Any_item
    | "node" ->
      advance p;
      advance p;
      expect_tok p Lexer.RPAR "')'";
      Some Seqtype.Any_node
    | "text" ->
      advance p;
      advance p;
      expect_tok p Lexer.RPAR "')'";
      Some Seqtype.Text_type
    | "comment" ->
      advance p;
      advance p;
      expect_tok p Lexer.RPAR "')'";
      Some Seqtype.Comment_type
    | "processing-instruction" ->
      advance p;
      advance p;
      (match peek p with
      | Lexer.NAME _ -> ignore (parse_qname_lexical p)
      | Lexer.STR _ -> advance p
      | _ -> ());
      expect_tok p Lexer.RPAR "')'";
      Some Seqtype.Pi_type
    | "document-node" ->
      advance p;
      advance p;
      (* optional element(...) inside: parse and discard *)
      (if at_keyword p "element" && peek2 p = Lexer.LPAR then begin
         advance p;
         advance p;
         ignore (parse_kind_test_name p);
         expect_tok p Lexer.RPAR "')'"
       end);
      expect_tok p Lexer.RPAR "')'";
      Some Seqtype.Document_type
    | "element" ->
      advance p;
      advance p;
      let n = parse_kind_test_name p in
      expect_tok p Lexer.RPAR "')'";
      Some (Seqtype.Element_type n)
    | "attribute" ->
      advance p;
      advance p;
      let n = parse_kind_test_name p in
      expect_tok p Lexer.RPAR "')'";
      Some (Seqtype.Attribute_type n)
    | "empty-sequence" ->
      advance p;
      advance p;
      expect_tok p Lexer.RPAR "')'";
      None
    | _ -> fail p (Printf.sprintf "unknown kind test %S" kw))
  | Lexer.NAME _ ->
    let qn = resolve_other p (parse_qname_lexical p) in
    Some (Seqtype.Atomic_type qn)
  | t -> fail p (Printf.sprintf "expected a sequence type, found %s" (tok_desc t))

let parse_sequence_type p =
  match parse_item_type p with
  | None -> Seqtype.Empty_sequence
  | Some it ->
    let occ = parse_occurrence p in
    Seqtype.Typed (it, occ)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let reserved_fun_names =
  [
    "if"; "typeswitch"; "item"; "node"; "text"; "comment";
    "processing-instruction"; "document-node"; "element"; "attribute";
    "empty-sequence";
  ]

let rec parse_expr p =
  let e1 = parse_expr_single p in
  if peek p = Lexer.COMMA then begin
    let items = ref [ e1 ] in
    while peek p = Lexer.COMMA do
      advance p;
      items := parse_expr_single p :: !items
    done;
    Ast.Seq_expr (List.rev !items)
  end
  else e1

and parse_expr_single p =
  match peek p with
  | Lexer.NAME (None, "for") when peek2 p = Lexer.DOLLAR -> parse_flwor p
  | Lexer.NAME (None, "let") when peek2 p = Lexer.DOLLAR -> parse_flwor p
  | Lexer.NAME (None, ("some" | "every")) when peek2 p = Lexer.DOLLAR ->
    parse_quantified p
  | Lexer.NAME (None, "if") when peek2 p = Lexer.LPAR -> parse_if p
  | Lexer.NAME (None, "typeswitch") when peek2 p = Lexer.LPAR ->
    parse_typeswitch p
  | Lexer.NAME (None, "insert")
    when (match peek2 p with
         | Lexer.NAME (None, ("node" | "nodes")) -> true
         | _ -> false) -> parse_insert p
  | Lexer.NAME (None, "delete")
    when (match peek2 p with
         | Lexer.NAME (None, ("node" | "nodes")) -> true
         | _ -> false) -> parse_delete p
  | Lexer.NAME (None, "replace")
    when (match peek2 p with
         | Lexer.NAME (None, ("node" | "value")) -> true
         | _ -> false) -> parse_replace p
  | Lexer.NAME (None, "rename")
    when (match peek2 p with
         | Lexer.NAME (None, "node") -> true
         | _ -> false) -> parse_rename p
  | Lexer.NAME (None, "copy") when peek2 p = Lexer.DOLLAR -> parse_transform p
  | _ -> parse_or p

and parse_flwor p =
  let clauses = ref [] in
  let rec head () =
    if at_keyword p "for" && peek2 p = Lexer.DOLLAR then begin
      advance p;
      let bindings = ref [] in
      let rec one () =
        let v = parse_var_qname p in
        let ty =
          if at_keyword p "as" then begin
            advance p;
            Some (parse_sequence_type p)
          end
          else None
        in
        let posv =
          if at_keyword p "at" then begin
            advance p;
            Some (parse_var_qname p)
          end
          else None
        in
        eat_keyword p "in";
        let e = parse_expr_single p in
        bindings :=
          { Ast.for_var = v; for_pos = posv; for_type = ty; for_expr = e }
          :: !bindings;
        if peek p = Lexer.COMMA then begin
          advance p;
          one ()
        end
      in
      one ();
      clauses := Ast.For_clause (List.rev !bindings) :: !clauses;
      head ()
    end
    else if at_keyword p "let" && peek2 p = Lexer.DOLLAR then begin
      advance p;
      let bindings = ref [] in
      let rec one () =
        let v = parse_var_qname p in
        let ty =
          if at_keyword p "as" then begin
            advance p;
            Some (parse_sequence_type p)
          end
          else None
        in
        expect_tok p Lexer.ASSIGN "':='";
        let e = parse_expr_single p in
        bindings :=
          { Ast.let_var = v; let_type = ty; let_expr = e } :: !bindings;
        if peek p = Lexer.COMMA then begin
          advance p;
          one ()
        end
      in
      one ();
      clauses := Ast.Let_clause (List.rev !bindings) :: !clauses;
      head ()
    end
  in
  head ();
  if at_keyword p "where" then begin
    advance p;
    clauses := Ast.Where_clause (parse_expr_single p) :: !clauses
  end;
  let stable = at_keyword2 p "stable" "order" in
  if stable then advance p;
  if at_keyword2 p "order" "by" then begin
    advance p;
    advance p;
    let specs = ref [] in
    let rec one () =
      let key = parse_expr_single p in
      let descending =
        if try_keyword p "descending" then true
        else begin
          ignore (try_keyword p "ascending");
          false
        end
      in
      let empty_least =
        if try_keyword p "empty" then
          if try_keyword p "least" then true
          else begin
            eat_keyword p "greatest";
            false
          end
        else true
      in
      specs := { Ast.key; descending; empty_least } :: !specs;
      if peek p = Lexer.COMMA then begin
        advance p;
        one ()
      end
    in
    one ();
    clauses := Ast.Order_clause (stable, List.rev !specs) :: !clauses
  end;
  eat_keyword p "return";
  let ret = parse_expr_single p in
  Ast.Flwor (List.rev !clauses, ret)

and parse_quantified p =
  let quant =
    if at_keyword p "some" then Ast.Some_q
    else Ast.Every_q
  in
  advance p;
  let bindings = ref [] in
  let rec one () =
    let v = parse_var_qname p in
    let ty =
      if at_keyword p "as" then begin
        advance p;
        Some (parse_sequence_type p)
      end
      else None
    in
    eat_keyword p "in";
    let e = parse_expr_single p in
    bindings := (v, ty, e) :: !bindings;
    if peek p = Lexer.COMMA then begin
      advance p;
      one ()
    end
  in
  one ();
  eat_keyword p "satisfies";
  let body = parse_expr_single p in
  Ast.Quantified (quant, List.rev !bindings, body)

and parse_typeswitch p =
  eat_keyword p "typeswitch";
  expect_tok p Lexer.LPAR "'('";
  let operand = parse_expr p in
  expect_tok p Lexer.RPAR "')'";
  let cases = ref [] in
  while at_keyword p "case" do
    advance p;
    let var =
      if peek p = Lexer.DOLLAR then begin
        let v = parse_var_qname p in
        eat_keyword p "as";
        Some v
      end
      else None
    in
    let ty = parse_sequence_type p in
    eat_keyword p "return";
    let ret = parse_expr_single p in
    cases := { Ast.case_var = var; case_type = ty; case_return = ret } :: !cases
  done;
  if !cases = [] then fail p "typeswitch requires at least one case clause";
  eat_keyword p "default";
  let dvar =
    if peek p = Lexer.DOLLAR then Some (parse_var_qname p) else None
  in
  eat_keyword p "return";
  let default = parse_expr_single p in
  Ast.Typeswitch (operand, List.rev !cases, (dvar, default))

and parse_if p =
  eat_keyword p "if";
  expect_tok p Lexer.LPAR "'('";
  let cond = parse_expr p in
  expect_tok p Lexer.RPAR "')'";
  eat_keyword p "then";
  let then_ = parse_expr_single p in
  eat_keyword p "else";
  let else_ = parse_expr_single p in
  Ast.If_expr (cond, then_, else_)

(* XUF expressions ---------------------------------------------------- *)

and parse_insert p =
  eat_keyword p "insert";
  advance p (* node|nodes *);
  let source = parse_expr_single p in
  let pos =
    if try_keyword p "into" then Ast.Into
    else if at_keyword p "as" then begin
      advance p;
      let pos =
        if try_keyword p "first" then Ast.Into_first
        else begin
          eat_keyword p "last";
          Ast.Into_last
        end
      in
      eat_keyword p "into";
      pos
    end
    else if try_keyword p "before" then Ast.Before
    else if try_keyword p "after" then Ast.After
    else fail p "expected 'into', 'as first into', 'as last into', 'before' or 'after'"
  in
  let target = parse_expr_single p in
  Ast.Insert (pos, source, target)

and parse_delete p =
  eat_keyword p "delete";
  advance p (* node|nodes *);
  Ast.Delete (parse_expr_single p)

and parse_replace p =
  eat_keyword p "replace";
  let value_of = try_keyword p "value" in
  if value_of then eat_keyword p "of";
  eat_keyword p "node";
  let target = parse_expr_single p in
  eat_keyword p "with";
  let source = parse_expr_single p in
  Ast.Replace { value_of; target; source }

and parse_rename p =
  eat_keyword p "rename";
  eat_keyword p "node";
  let target = parse_expr_single p in
  eat_keyword p "as";
  let name =
    match peek p with
    | Lexer.NAME _ -> Ast.Static_name (parse_elem_qname p)
    | Lexer.LBRACE -> Ast.Dynamic_name (parse_enclosed_expr p)
    | _ -> Ast.Dynamic_name (parse_expr_single p)
  in
  Ast.Rename (target, name)

and parse_transform p =
  eat_keyword p "copy";
  let copies = ref [] in
  let rec one () =
    let v = parse_var_qname p in
    expect_tok p Lexer.ASSIGN "':='";
    let e = parse_expr_single p in
    copies := (v, e) :: !copies;
    if peek p = Lexer.COMMA then begin
      advance p;
      one ()
    end
  in
  one ();
  eat_keyword p "modify";
  let modify = parse_expr_single p in
  eat_keyword p "return";
  let ret = parse_expr_single p in
  Ast.Transform (List.rev !copies, modify, ret)

(* Operator ladder ---------------------------------------------------- *)

and parse_or p =
  let e = ref (parse_and p) in
  while at_keyword p "or" do
    advance p;
    e := Ast.Or (!e, parse_and p)
  done;
  !e

and parse_and p =
  let e = ref (parse_comparison p) in
  while at_keyword p "and" do
    advance p;
    e := Ast.And (!e, parse_comparison p)
  done;
  !e

and parse_comparison p =
  let e = parse_range p in
  let general op =
    advance p;
    Ast.General_cmp (op, e, parse_range p)
  in
  let value op =
    advance p;
    Ast.Value_cmp (op, e, parse_range p)
  in
  match peek p with
  | Lexer.EQUALS -> general Ast.Eq
  | Lexer.NOTEQUALS -> general Ast.Ne
  | Lexer.LT -> general Ast.Lt
  | Lexer.LE -> general Ast.Le
  | Lexer.GT -> general Ast.Gt
  | Lexer.GE -> general Ast.Ge
  | Lexer.NAME (None, "eq") -> value Ast.Eq
  | Lexer.NAME (None, "ne") -> value Ast.Ne
  | Lexer.NAME (None, "lt") -> value Ast.Lt
  | Lexer.NAME (None, "le") -> value Ast.Le
  | Lexer.NAME (None, "gt") -> value Ast.Gt
  | Lexer.NAME (None, "ge") -> value Ast.Ge
  | Lexer.NAME (None, "is") ->
    advance p;
    Ast.Node_is (e, parse_range p)
  | Lexer.LTLT ->
    advance p;
    Ast.Node_before (e, parse_range p)
  | Lexer.GTGT ->
    advance p;
    Ast.Node_after (e, parse_range p)
  | _ -> e

and parse_range p =
  let e = parse_additive p in
  if at_keyword p "to" then begin
    advance p;
    Ast.Range (e, parse_additive p)
  end
  else e

and parse_additive p =
  let e = ref (parse_multiplicative p) in
  let rec go () =
    match peek p with
    | Lexer.PLUS ->
      advance p;
      e := Ast.Arith (Atomic.Add, !e, parse_multiplicative p);
      go ()
    | Lexer.MINUS ->
      advance p;
      e := Ast.Arith (Atomic.Sub, !e, parse_multiplicative p);
      go ()
    | _ -> ()
  in
  go ();
  !e

and parse_multiplicative p =
  let e = ref (parse_union p) in
  let rec go () =
    match peek p with
    | Lexer.STAR ->
      advance p;
      e := Ast.Arith (Atomic.Mul, !e, parse_union p);
      go ()
    | Lexer.NAME (None, "div") ->
      advance p;
      e := Ast.Arith (Atomic.Div, !e, parse_union p);
      go ()
    | Lexer.NAME (None, "idiv") ->
      advance p;
      e := Ast.Arith (Atomic.Idiv, !e, parse_union p);
      go ()
    | Lexer.NAME (None, "mod") ->
      advance p;
      e := Ast.Arith (Atomic.Mod, !e, parse_union p);
      go ()
    | _ -> ()
  in
  go ();
  !e

and parse_union p =
  let e = ref (parse_intersect p) in
  let rec go () =
    match peek p with
    | Lexer.PIPE ->
      advance p;
      e := Ast.Union (!e, parse_intersect p);
      go ()
    | Lexer.NAME (None, "union") ->
      advance p;
      e := Ast.Union (!e, parse_intersect p);
      go ()
    | _ -> ()
  in
  go ();
  !e

and parse_intersect p =
  let e = ref (parse_instance_of p) in
  let rec go () =
    if at_keyword p "intersect" then begin
      advance p;
      e := Ast.Intersect (!e, parse_instance_of p);
      go ()
    end
    else if at_keyword p "except" then begin
      advance p;
      e := Ast.Except (!e, parse_instance_of p);
      go ()
    end
  in
  go ();
  !e

and parse_instance_of p =
  let e = parse_treat p in
  if at_keyword2 p "instance" "of" then begin
    advance p;
    advance p;
    Ast.Instance_of (e, parse_sequence_type p)
  end
  else e

and parse_treat p =
  let e = parse_castable p in
  if at_keyword2 p "treat" "as" then begin
    advance p;
    advance p;
    Ast.Treat_as (e, parse_sequence_type p)
  end
  else e

and parse_castable p =
  let e = parse_cast p in
  if at_keyword2 p "castable" "as" then begin
    advance p;
    advance p;
    let qn = resolve_other p (parse_qname_lexical p) in
    let opt = peek p = Lexer.QMARK in
    if opt then advance p;
    Ast.Castable_as (e, qn, opt)
  end
  else e

and parse_cast p =
  let e = parse_unary p in
  if at_keyword2 p "cast" "as" then begin
    advance p;
    advance p;
    let qn = resolve_other p (parse_qname_lexical p) in
    let opt = peek p = Lexer.QMARK in
    if opt then advance p;
    Ast.Cast_as (e, qn, opt)
  end
  else e

and parse_unary p =
  match peek p with
  | Lexer.MINUS ->
    advance p;
    Ast.Neg (parse_unary p)
  | Lexer.PLUS ->
    advance p;
    parse_unary p
  | _ -> parse_path p

(* Paths --------------------------------------------------------------- *)

and can_start_step p =
  match peek p with
  | Lexer.NAME _ | Lexer.NS_WILDCARD _ | Lexer.LOCAL_WILDCARD _ | Lexer.STAR
  | Lexer.AT | Lexer.DOT | Lexer.DOTDOT | Lexer.DOLLAR | Lexer.LPAR
  | Lexer.STR _ | Lexer.INT _ | Lexer.DEC _ | Lexer.DBL _ | Lexer.LT -> true
  | _ -> false

and parse_path p =
  match peek p with
  | Lexer.SLASH ->
    advance p;
    if can_start_step p then parse_relative_path p Ast.Root_expr
    else Ast.Root_expr
  | Lexer.SLASHSLASH ->
    advance p;
    let start =
      Ast.Path (Ast.Root_expr, Ast.Step (Ast.Descendant_or_self, Ast.Kind_node, []))
    in
    parse_relative_path_step p start
  | _ ->
    let first = parse_step p in
    parse_relative_path_tail p first

and parse_relative_path p start =
  let step = parse_step p in
  parse_relative_path_tail p (Ast.Path (start, step))

and parse_relative_path_step p start =
  (* after '//' we must parse at least one step *)
  let step = parse_step p in
  parse_relative_path_tail p (Ast.Path (start, step))

and parse_relative_path_tail p acc =
  match peek p with
  | Lexer.SLASH ->
    advance p;
    let step = parse_step p in
    parse_relative_path_tail p (Ast.Path (acc, step))
  | Lexer.SLASHSLASH ->
    advance p;
    let acc =
      Ast.Path (acc, Ast.Step (Ast.Descendant_or_self, Ast.Kind_node, []))
    in
    let step = parse_step p in
    parse_relative_path_tail p (Ast.Path (acc, step))
  | _ -> acc

and axis_of_name = function
  | "child" -> Some Ast.Child
  | "descendant" -> Some Ast.Descendant
  | "attribute" -> Some Ast.Attribute_axis
  | "self" -> Some Ast.Self
  | "descendant-or-self" -> Some Ast.Descendant_or_self
  | "parent" -> Some Ast.Parent
  | "following-sibling" -> Some Ast.Following_sibling
  | "preceding-sibling" -> Some Ast.Preceding_sibling
  | "ancestor" -> Some Ast.Ancestor
  | "ancestor-or-self" -> Some Ast.Ancestor_or_self
  | "following" -> Some Ast.Following
  | "preceding" -> Some Ast.Preceding
  | _ -> None

and parse_predicates p =
  let preds = ref [] in
  while peek p = Lexer.LBRACKET do
    advance p;
    preds := parse_expr p :: !preds;
    expect_tok p Lexer.RBRACKET "']'"
  done;
  List.rev !preds

and parse_nodetest p ~attr_axis =
  match peek p with
  | Lexer.STAR ->
    advance p;
    Ast.Any_name
  | Lexer.NS_WILDCARD pfx -> (
    advance p;
    match Context.lookup_ns p.st pfx with
    | Some uri -> Ast.Ns_wildcard uri
    | None -> fail p (Printf.sprintf "undeclared namespace prefix %S" pfx))
  | Lexer.LOCAL_WILDCARD local ->
    advance p;
    Ast.Local_wildcard local
  | Lexer.NAME (None, kw) when peek2 p = Lexer.LPAR && List.mem kw reserved_fun_names -> (
    match kw with
    | "node" ->
      advance p;
      advance p;
      expect_tok p Lexer.RPAR "')'";
      Ast.Kind_node
    | "text" ->
      advance p;
      advance p;
      expect_tok p Lexer.RPAR "')'";
      Ast.Kind_text
    | "comment" ->
      advance p;
      advance p;
      expect_tok p Lexer.RPAR "')'";
      Ast.Kind_comment
    | "processing-instruction" ->
      advance p;
      advance p;
      let target =
        match peek p with
        | Lexer.NAME (None, n) ->
          advance p;
          Some n
        | Lexer.STR s ->
          advance p;
          Some s
        | _ -> None
      in
      expect_tok p Lexer.RPAR "')'";
      Ast.Kind_pi target
    | "element" ->
      advance p;
      advance p;
      let n = parse_kind_test_name p in
      expect_tok p Lexer.RPAR "')'";
      Ast.Kind_element n
    | "attribute" ->
      advance p;
      advance p;
      let n = parse_kind_test_name p in
      expect_tok p Lexer.RPAR "')'";
      Ast.Kind_attribute n
    | "document-node" ->
      advance p;
      advance p;
      expect_tok p Lexer.RPAR "')'";
      Ast.Kind_document
    | _ -> fail p (Printf.sprintf "%S is not a valid node test" kw))
  | Lexer.NAME _ ->
    let lex = parse_qname_lexical p in
    let qn = if attr_axis then resolve_other p lex else resolve_elem p lex in
    Ast.Name_test qn
  | t -> fail p (Printf.sprintf "expected a node test, found %s" (tok_desc t))

and parse_step p =
  match peek p with
  | Lexer.AT ->
    advance p;
    let nt = parse_nodetest p ~attr_axis:true in
    Ast.Step (Ast.Attribute_axis, nt, parse_predicates p)
  | Lexer.DOTDOT ->
    advance p;
    Ast.Step (Ast.Parent, Ast.Kind_node, parse_predicates p)
  | Lexer.NAME (None, name) when peek2 p = Lexer.AXIS_SEP -> (
    match axis_of_name name with
    | Some axis ->
      advance p;
      advance p;
      let nt = parse_nodetest p ~attr_axis:(axis = Ast.Attribute_axis) in
      Ast.Step (axis, nt, parse_predicates p)
    | None -> fail p (Printf.sprintf "unknown axis %S" name))
  | Lexer.NS_WILDCARD _ | Lexer.LOCAL_WILDCARD _ | Lexer.STAR ->
    let nt = parse_nodetest p ~attr_axis:false in
    Ast.Step (Ast.Child, nt, parse_predicates p)
  | Lexer.NAME (None, kw)
    when peek2 p = Lexer.LPAR && List.mem kw reserved_fun_names
         && kw <> "if" && kw <> "typeswitch" && kw <> "empty-sequence"
         && kw <> "item" ->
    let nt = parse_nodetest p ~attr_axis:false in
    Ast.Step (Ast.Child, nt, parse_predicates p)
  (* computed-constructor keywords are primaries, not name tests *)
  | Lexer.NAME (None, ("element" | "attribute" | "processing-instruction"))
    when (match peek2 p with
         | Lexer.NAME _ | Lexer.LBRACE -> true
         | _ -> false) ->
    let prim = parse_primary p in
    let preds = parse_predicates p in
    if preds = [] then prim else Ast.Filter (prim, preds)
  | Lexer.NAME
      (None, ("text" | "document" | "comment" | "ordered" | "unordered"))
    when peek2 p = Lexer.LBRACE ->
    let prim = parse_primary p in
    let preds = parse_predicates p in
    if preds = [] then prim else Ast.Filter (prim, preds)
  | Lexer.NAME _ when peek2 p <> Lexer.LPAR ->
    let nt = parse_nodetest p ~attr_axis:false in
    Ast.Step (Ast.Child, nt, parse_predicates p)
  | _ ->
    (* FilterExpr: primary with predicates *)
    let prim = parse_primary p in
    let preds = parse_predicates p in
    if preds = [] then prim else Ast.Filter (prim, preds)

(* Primary expressions -------------------------------------------------- *)

and parse_primary p =
  match peek p with
  | Lexer.INT s ->
    advance p;
    Ast.Literal (Atomic.Integer (int_of_string s))
  | Lexer.DEC s ->
    advance p;
    Ast.Literal (Atomic.Decimal (float_of_string s))
  | Lexer.DBL s ->
    advance p;
    Ast.Literal (Atomic.Double (float_of_string s))
  | Lexer.STR s ->
    advance p;
    Ast.Literal (Atomic.String s)
  | Lexer.DOLLAR ->
    let v = parse_var_qname p in
    Ast.Var v
  | Lexer.DOT ->
    advance p;
    Ast.Context_item
  | Lexer.LPAR ->
    advance p;
    if peek p = Lexer.RPAR then begin
      advance p;
      Ast.Seq_expr []
    end
    else begin
      let e = parse_expr p in
      expect_tok p Lexer.RPAR "')'";
      e
    end
  | Lexer.LT -> parse_direct_constructor p
  | Lexer.NAME (None, ("ordered" | "unordered")) when peek2 p = Lexer.LBRACE ->
    advance p;
    parse_enclosed_expr p
  | Lexer.NAME (None, "element")
    when (match peek2 p with
         | Lexer.NAME _ | Lexer.LBRACE -> true
         | _ -> false) -> parse_computed_element p
  | Lexer.NAME (None, "attribute")
    when (match peek2 p with
         | Lexer.NAME _ | Lexer.LBRACE -> true
         | _ -> false) -> parse_computed_attribute p
  | Lexer.NAME (None, "text") when peek2 p = Lexer.LBRACE ->
    advance p;
    Ast.Comp_text (parse_enclosed_expr p)
  | Lexer.NAME (None, "document") when peek2 p = Lexer.LBRACE ->
    advance p;
    Ast.Comp_doc (parse_enclosed_expr p)
  | Lexer.NAME (None, "comment") when peek2 p = Lexer.LBRACE ->
    advance p;
    Ast.Comp_comment (parse_enclosed_expr p)
  | Lexer.NAME (None, "processing-instruction")
    when (match peek2 p with
         | Lexer.NAME _ | Lexer.LBRACE -> true
         | _ -> false) ->
    advance p;
    let name =
      match peek p with
      | Lexer.NAME (None, n) ->
        advance p;
        Ast.Static_name (Qname.local n)
      | _ -> Ast.Dynamic_name (parse_enclosed_expr p)
    in
    Ast.Comp_pi (name, parse_enclosed_expr p)
  | Lexer.NAME (None, kw) when peek2 p = Lexer.LPAR && List.mem kw reserved_fun_names
    -> fail p (Printf.sprintf "%S cannot be used as a function name" kw)
  | Lexer.NAME _ when peek2 p = Lexer.LPAR -> parse_function_call p
  | t -> fail p (Printf.sprintf "unexpected %s" (tok_desc t))

and parse_function_call p =
  let name = parse_fun_qname p in
  expect_tok p Lexer.LPAR "'('";
  let args = ref [] in
  if peek p <> Lexer.RPAR then begin
    let rec go () =
      args := parse_expr_single p :: !args;
      if peek p = Lexer.COMMA then begin
        advance p;
        go ()
      end
    in
    go ()
  end;
  expect_tok p Lexer.RPAR "')'";
  match (name, List.rev !args) with
  | ( { Qname.uri; local = "QName"; _ },
      [ Ast.Literal (Atomic.String s) ] )
    when uri = Qname.xs_ns && String.contains s ':' ->
    (* a prefixed literal xs:QName constructor resolves against the
       in-scope namespaces here, where they are still known *)
    let i = String.index s ':' in
    let prefix = String.sub s 0 i in
    let local = String.sub s (i + 1) (String.length s - i - 1) in
    (match Context.lookup_ns p.st prefix with
    | Some ns_uri ->
      Ast.Literal (Atomic.QName (Qname.make ~prefix ~uri:ns_uri local))
    | None -> fail p (Printf.sprintf "undeclared namespace prefix %S" prefix))
  | name, args -> Ast.Call (name, args)

and parse_enclosed_expr p =
  expect_tok p Lexer.LBRACE "'{'";
  let e = if peek p = Lexer.RBRACE then Ast.Seq_expr [] else parse_expr p in
  expect_tok p Lexer.RBRACE "'}'";
  e

and parse_computed_element p =
  eat_keyword p "element";
  let name =
    match peek p with
    | Lexer.NAME _ -> Ast.Static_name (parse_elem_qname p)
    | _ -> Ast.Dynamic_name (parse_enclosed_expr p)
  in
  Ast.Comp_elem (name, parse_enclosed_expr p)

and parse_computed_attribute p =
  eat_keyword p "attribute";
  let name =
    match peek p with
    | Lexer.NAME _ -> Ast.Static_name (resolve_other p (parse_qname_lexical p))
    | _ -> Ast.Dynamic_name (parse_enclosed_expr p)
  in
  Ast.Comp_attr (name, parse_enclosed_expr p)

(* Direct constructors (raw character mode) ----------------------------- *)

and parse_direct_constructor p =
  (* current token is LT; rewind the lexer to the '<' and read raw *)
  Lexer.seek p.lx (Lexer.token_start p.lx);
  if Lexer.raw_looking_at p.lx "<!--" then begin
    ignore (Lexer.raw_next p.lx);
    ignore (Lexer.raw_next p.lx);
    ignore (Lexer.raw_next p.lx);
    ignore (Lexer.raw_next p.lx);
    let buf = Buffer.create 16 in
    while not (Lexer.raw_looking_at p.lx "-->") do
      let c = Lexer.raw_next p.lx in
      if c = '\000' then fail p "unterminated comment constructor";
      Buffer.add_char buf c
    done;
    Lexer.raw_expect p.lx "-->";
    Ast.Comp_comment (Ast.Literal (Atomic.String (Buffer.contents buf)))
  end
  else if Lexer.raw_looking_at p.lx "<?" then begin
    ignore (Lexer.raw_next p.lx);
    ignore (Lexer.raw_next p.lx);
    let target = Lexer.raw_ncname p.lx in
    Lexer.raw_skip_ws p.lx;
    let buf = Buffer.create 16 in
    while not (Lexer.raw_looking_at p.lx "?>") do
      let c = Lexer.raw_next p.lx in
      if c = '\000' then fail p "unterminated processing-instruction constructor";
      Buffer.add_char buf c
    done;
    Lexer.raw_expect p.lx "?>";
    Ast.Comp_pi
      ( Ast.Static_name (Qname.local target),
        Ast.Literal (Atomic.String (Buffer.contents buf)) )
  end
  else parse_direct_element p

and raw_qname p =
  let n1 = Lexer.raw_ncname p.lx in
  if Lexer.raw_looking_at p.lx ":" then begin
    ignore (Lexer.raw_next p.lx);
    let n2 = Lexer.raw_ncname p.lx in
    (Some n1, n2)
  end
  else (None, n1)

and parse_direct_element p =
  Lexer.raw_expect p.lx "<";
  let raw_name = raw_qname p in
  (* scan attributes; namespace declarations extend the static context
     for the scope of this constructor *)
  let saved_ns = p.st.Context.namespaces in
  let saved_default = p.st.Context.default_elem_ns in
  let raw_attrs = ref [] in
  let rec attrs () =
    Lexer.raw_skip_ws p.lx;
    if Lexer.raw_looking_at p.lx "/>" || Lexer.raw_looking_at p.lx ">" then ()
    else begin
      let an = raw_qname p in
      Lexer.raw_skip_ws p.lx;
      Lexer.raw_expect p.lx "=";
      Lexer.raw_skip_ws p.lx;
      let parts = parse_attr_value p in
      let literal_ns_value parts =
        match parts with
        | [] -> ""
        | [ Ast.Attr_str u ] -> u
        | _ -> fail p "namespace declaration value must be a literal"
      in
      (match an with
      | None, "xmlns" ->
        p.st.Context.default_elem_ns <- literal_ns_value parts
      | Some "xmlns", prefix ->
        Context.declare_ns p.st prefix (literal_ns_value parts)
      | _ -> raw_attrs := (an, parts) :: !raw_attrs);
      attrs ()
    end
  in
  attrs ();
  let name = resolve_elem p raw_name in
  let attrs =
    List.rev_map (fun (an, parts) -> (resolve_other p an, parts)) !raw_attrs
  in
  let finish contents =
    p.st.Context.namespaces <- saved_ns;
    p.st.Context.default_elem_ns <- saved_default;
    Ast.Elem_ctor (name, attrs, contents)
  in
  if Lexer.raw_looking_at p.lx "/>" then begin
    Lexer.raw_expect p.lx "/>";
    finish []
  end
  else begin
    Lexer.raw_expect p.lx ">";
    let contents = parse_element_content p in
    Lexer.raw_expect p.lx "</";
    let close = raw_qname p in
    Lexer.raw_skip_ws p.lx;
    Lexer.raw_expect p.lx ">";
    let close_q = resolve_elem p close in
    if not (Qname.equal close_q name) then
      fail p
        (Printf.sprintf "mismatched end tag </%s> for <%s>"
           (Qname.to_string close_q) (Qname.to_string name));
    finish contents
  end

and parse_attr_value p =
  let quote = Lexer.raw_next p.lx in
  if quote <> '"' && quote <> '\'' then fail p "expected attribute value";
  let parts = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      parts := Ast.Attr_str (Buffer.contents buf) :: !parts;
      Buffer.clear buf
    end
  in
  let rec go () =
    let c = Lexer.raw_peek p.lx in
    if c = '\000' then fail p "unterminated attribute value"
    else if c = quote then begin
      (* doubled quote is an escape; a single quote ends the value *)
      ignore (Lexer.raw_next p.lx);
      if Lexer.raw_peek p.lx = quote then begin
        Buffer.add_char buf quote;
        ignore (Lexer.raw_next p.lx);
        go ()
      end
    end
    else if c = '{' then begin
      ignore (Lexer.raw_next p.lx);
      if Lexer.raw_peek p.lx = '{' then begin
        ignore (Lexer.raw_next p.lx);
        Buffer.add_char buf '{';
        go ()
      end
      else begin
        flush ();
        let e = parse_expr p in
        expect_tok p Lexer.RBRACE "'}'";
        parts := Ast.Attr_expr e :: !parts;
        go ()
      end
    end
    else if c = '}' then begin
      ignore (Lexer.raw_next p.lx);
      if Lexer.raw_peek p.lx = '}' then begin
        ignore (Lexer.raw_next p.lx);
        Buffer.add_char buf '}';
        go ()
      end
      else fail p "'}' must be escaped as '}}' in attribute values"
    end
    else if c = '&' then begin
      parse_entity_into p buf;
      go ()
    end
    else begin
      Buffer.add_char buf (Lexer.raw_next p.lx);
      go ()
    end
  in
  go ();
  flush ();
  List.rev !parts

and parse_entity_into p buf =
  (* at '&' in raw mode *)
  ignore (Lexer.raw_next p.lx);
  let name = ref "" in
  if Lexer.raw_peek p.lx = '#' then begin
    ignore (Lexer.raw_next p.lx);
    let hex = Lexer.raw_peek p.lx = 'x' in
    if hex then ignore (Lexer.raw_next p.lx);
    let digits = Buffer.create 8 in
    while Lexer.raw_peek p.lx <> ';' && Lexer.raw_peek p.lx <> '\000' do
      Buffer.add_char digits (Lexer.raw_next p.lx)
    done;
    Lexer.raw_expect p.lx ";";
    let code =
      try
        int_of_string
          (if hex then "0x" ^ Buffer.contents digits else Buffer.contents digits)
      with _ -> fail p "invalid character reference"
    in
    if code < 128 then Buffer.add_char buf (Char.chr code)
    else Buffer.add_string buf (Printf.sprintf "&#%d;" code)
  end
  else begin
    while Lexer.raw_peek p.lx <> ';' && Lexer.raw_peek p.lx <> '\000' do
      name := !name ^ String.make 1 (Lexer.raw_next p.lx)
    done;
    Lexer.raw_expect p.lx ";";
    match !name with
    | "lt" -> Buffer.add_char buf '<'
    | "gt" -> Buffer.add_char buf '>'
    | "amp" -> Buffer.add_char buf '&'
    | "quot" -> Buffer.add_char buf '"'
    | "apos" -> Buffer.add_char buf '\''
    | n -> fail p (Printf.sprintf "unknown entity &%s;" n)
  end

and parse_element_content p =
  let parts = ref [] in
  let buf = Buffer.create 16 in
  let buf_has_entity = ref false in
  let flush () =
    if Buffer.length buf > 0 then begin
      let s = Buffer.contents buf in
      let ws_only = String.for_all (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r') s in
      (* boundary-space strip (the default): drop whitespace-only runs
         unless they contain character/entity references *)
      if not (ws_only && not !buf_has_entity) then
        parts := Ast.Content_text s :: !parts;
      Buffer.clear buf;
      buf_has_entity := false
    end
  in
  let rec go () =
    if Lexer.raw_looking_at p.lx "</" then flush ()
    else
      match Lexer.raw_peek p.lx with
      | '\000' -> fail p "unterminated element constructor"
      | '<' ->
        if Lexer.raw_looking_at p.lx "<![CDATA[" then begin
          Lexer.raw_expect p.lx "<![CDATA[";
          while not (Lexer.raw_looking_at p.lx "]]>") do
            let c = Lexer.raw_next p.lx in
            if c = '\000' then fail p "unterminated CDATA section";
            Buffer.add_char buf c
          done;
          Lexer.raw_expect p.lx "]]>";
          buf_has_entity := true;
          go ()
        end
        else begin
          flush ();
          let node = parse_direct_constructor_raw p in
          parts := Ast.Content_node node :: !parts;
          go ()
        end
      | '{' ->
        ignore (Lexer.raw_next p.lx);
        if Lexer.raw_peek p.lx = '{' then begin
          ignore (Lexer.raw_next p.lx);
          Buffer.add_char buf '{';
          go ()
        end
        else begin
          flush ();
          let e = parse_expr p in
          expect_tok p Lexer.RBRACE "'}'";
          parts := Ast.Content_expr e :: !parts;
          go ()
        end
      | '}' ->
        ignore (Lexer.raw_next p.lx);
        if Lexer.raw_peek p.lx = '}' then begin
          ignore (Lexer.raw_next p.lx);
          Buffer.add_char buf '}';
          go ()
        end
        else fail p "'}' must be escaped as '}}' in element content"
      | '&' ->
        parse_entity_into p buf;
        buf_has_entity := true;
        go ()
      | _ ->
        Buffer.add_char buf (Lexer.raw_next p.lx);
        go ()
  in
  go ();
  List.rev !parts

and parse_direct_constructor_raw p =
  (* like parse_direct_constructor but we're already in raw mode at '<' *)
  if Lexer.raw_looking_at p.lx "<!--" then begin
    Lexer.raw_expect p.lx "<!--";
    let buf = Buffer.create 16 in
    while not (Lexer.raw_looking_at p.lx "-->") do
      let c = Lexer.raw_next p.lx in
      if c = '\000' then fail p "unterminated comment constructor";
      Buffer.add_char buf c
    done;
    Lexer.raw_expect p.lx "-->";
    Ast.Comp_comment (Ast.Literal (Atomic.String (Buffer.contents buf)))
  end
  else if Lexer.raw_looking_at p.lx "<?" then begin
    Lexer.raw_expect p.lx "<?";
    let target = Lexer.raw_ncname p.lx in
    Lexer.raw_skip_ws p.lx;
    let buf = Buffer.create 16 in
    while not (Lexer.raw_looking_at p.lx "?>") do
      let c = Lexer.raw_next p.lx in
      if c = '\000' then fail p "unterminated processing-instruction";
      Buffer.add_char buf c
    done;
    Lexer.raw_expect p.lx "?>";
    Ast.Comp_pi
      ( Ast.Static_name (Qname.local target),
        Ast.Literal (Atomic.String (Buffer.contents buf)) )
  end
  else parse_direct_element p

(* ------------------------------------------------------------------ *)
(* Prolog                                                               *)
(* ------------------------------------------------------------------ *)

let parse_string_literal p =
  match peek p with
  | Lexer.STR s ->
    advance p;
    s
  | t -> fail p (Printf.sprintf "expected a string literal, found %s" (tok_desc t))

let parse_param_list p =
  expect_tok p Lexer.LPAR "'('";
  let params = ref [] in
  if peek p <> Lexer.RPAR then begin
    let rec go () =
      let v = parse_var_qname p in
      let ty =
        if at_keyword p "as" then begin
          advance p;
          Some (parse_sequence_type p)
        end
        else None
      in
      params := (v, ty) :: !params;
      if peek p = Lexer.COMMA then begin
        advance p;
        go ()
      end
    in
    go ()
  end;
  expect_tok p Lexer.RPAR "')'";
  List.rev !params

type prolog_step = No_item | Consumed | Item of Ast.prolog_item

let expect_semi p = expect_tok p Lexer.SEMI "';'"

let try_parse_prolog_item p =
  if at_keyword p "import" then begin
    advance p;
    (* import module namespace p = "uri" (at "loc")? ; *)
    (* import schema ... ; — accepted and recorded as a namespace decl *)
    let kind =
      if try_keyword p "module" then `Module
      else begin
        eat_keyword p "schema";
        `Schema
      end
    in
    let item =
      if try_keyword p "namespace" then begin
        let prefix =
          match parse_qname_lexical p with
          | None, n -> n
          | Some _, _ -> fail p "namespace prefix must be an NCName"
        in
        expect_tok p Lexer.EQUALS "'='";
        let uri = parse_string_literal p in
        Context.declare_ns p.st prefix uri;
        if kind = `Module then
          Item (Ast.P_import { prefix = Some prefix; uri })
        else Consumed
      end
      else begin
        let uri = parse_string_literal p in
        if kind = `Module then Item (Ast.P_import { prefix = None; uri })
        else Consumed
      end
    in
    if try_keyword p "at" then ignore (parse_string_literal p);
    expect_semi p;
    item
  end
  else if at_keyword p "declare" then begin
    match peek2 p with
    | Lexer.NAME (None, "namespace") ->
      advance p;
      advance p;
      let prefix =
        match parse_qname_lexical p with
        | None, n -> n
        | Some _, _ -> fail p "namespace prefix must be an NCName"
      in
      expect_tok p Lexer.EQUALS "'='";
      let uri = parse_string_literal p in
      Context.declare_ns p.st prefix uri;
      expect_semi p;
      Consumed
    | Lexer.NAME (None, "default") ->
      advance p;
      advance p;
      if try_keyword p "element" then begin
        eat_keyword p "namespace";
        p.st.Context.default_elem_ns <- parse_string_literal p
      end
      else if try_keyword p "function" then begin
        eat_keyword p "namespace";
        p.st.Context.default_fun_ns <- parse_string_literal p
      end
      else if try_keyword p "collation" then ignore (parse_string_literal p)
      else if try_keyword p "order" then begin
        (* declare default order empty greatest|least *)
        eat_keyword p "empty";
        if not (try_keyword p "greatest") then eat_keyword p "least"
      end
      else fail p "expected 'element', 'function', 'collation' or 'order'";
      expect_semi p;
      Consumed
    | Lexer.NAME (None, "boundary-space") ->
      advance p;
      advance p;
      if not (try_keyword p "strip") then eat_keyword p "preserve";
      expect_semi p;
      Consumed
    | Lexer.NAME (None, ("ordering" | "construction" | "copy-namespaces")) ->
      advance p;
      advance p;
      (* accepted, values ignored: skip tokens to ';' *)
      while peek p <> Lexer.SEMI && peek p <> Lexer.EOF do advance p done;
      expect_semi p;
      Consumed
    | Lexer.NAME (None, "option") ->
      advance p;
      advance p;
      ignore (parse_qname_lexical p);
      ignore (parse_string_literal p);
      expect_semi p;
      Consumed
    | Lexer.NAME (None, "variable") ->
      advance p;
      advance p;
      let name = parse_var_qname p in
      let ty =
        if at_keyword p "as" then begin
          advance p;
          Some (parse_sequence_type p)
        end
        else None
      in
      let value =
        if peek p = Lexer.ASSIGN then begin
          advance p;
          Some (parse_expr_single p)
        end
        else begin
          eat_keyword p "external";
          None
        end
      in
      expect_semi p;
      Item (Ast.P_variable { vd_name = name; vd_type = ty; vd_value = value })
    | Lexer.NAME (None, "function") ->
      advance p;
      advance p;
      let name = parse_fun_qname p in
      let params = parse_param_list p in
      let ret =
        if at_keyword p "as" then begin
          advance p;
          Some (parse_sequence_type p)
        end
        else None
      in
      let body =
        if peek p = Lexer.LBRACE then Some (parse_enclosed_expr p)
        else begin
          eat_keyword p "external";
          None
        end
      in
      expect_semi p;
      Item
        (Ast.P_function
           { fd_name = name; fd_params = params; fd_return = ret; fd_body = body })
    | _ -> No_item
  end
  else No_item

let parse_expression st src =
  let p = create st src in
  let e = parse_expr p in
  expect_eof p;
  e
