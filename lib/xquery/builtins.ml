open Xdm

let err code msg = Item.raise_error (Qname.err code) msg

let arg n args =
  match List.nth_opt args n with
  | Some v -> v
  | None -> err "XPTY0004" "missing function argument"

let string_arg args n =
  match Item.one_atom_opt (arg n args) with
  | None -> ""
  | Some a -> Atomic.to_string a

let opt_string_arg args n =
  match Item.one_atom_opt (arg n args) with
  | None -> None
  | Some a -> Some (Atomic.to_string a)

let int_arg args n =
  match Item.one_atom (arg n args) with
  | Atomic.Integer i -> i
  | a -> (
    try
      match Atomic.cast_to a (Qname.xs "integer") with
      | Atomic.Integer i -> i
      | _ -> err "XPTY0004" "expected an integer"
    with Atomic.Cast_error m -> err "XPTY0004" m)

let double_arg args n =
  match Item.one_atom_opt (arg n args) with
  | None -> None
  | Some a -> (
    try Some (Atomic.to_double a) with Atomic.Cast_error m -> err "XPTY0004" m)

(* The fn:subsequence window rule, shared with the streaming schedule
   (Eval.streaming_subsequence) so it keeps exactly the items this
   builtin keeps. Per F&O, positions are tested in xs:double arithmetic: the
   item at 1-based position [p] survives iff [p >= fn:round(start)] and,
   when a length is given, [p < fn:round(start) + fn:round(length)].
   fn:round is half-toward-+INF — [Float.floor (x +. 0.5)], not
   [Float.round], which differs at negative halves — and NaN anywhere
   makes every comparison false (an empty result), so positions are
   never converted to int: no NaN/infinity/overflow undefined
   behavior. *)
let round_half_up x = Float.floor (x +. 0.5)

let subsequence_window start len =
  let s = round_half_up start in
  let e =
    match len with None -> Float.infinity | Some l -> s +. round_half_up l
  in
  (s, e)

let subsequence_keep (s, e) p =
  let p = float_of_int p in
  p >= s && p < e

(* XPath regex flavor is close enough to PCRE for the supported flags. *)
let compile_regex pattern flags =
  let opts = ref [] in
  String.iter
    (fun c ->
      match c with
      | 'i' -> opts := `CASELESS :: !opts
      | 's' -> opts := `DOTALL :: !opts
      | 'm' -> opts := `MULTILINE :: !opts
      | 'x' -> () (* extended mode is accepted but not significant here *)
      | c -> err "FORX0001" (Printf.sprintf "invalid regex flag %C" c))
    flags;
  try Re.Pcre.re ~flags:!opts pattern |> Re.compile
  with _ -> err "FORX0002" (Printf.sprintf "invalid regular expression %S" pattern)

let numeric_unary f = fun _ctx args ->
  match Item.one_atom_opt (arg 0 args) with
  | None -> []
  | Some a -> (
    match a with
    | Atomic.Integer _ -> [ Item.Atomic a ]
    | Atomic.Decimal d -> [ Item.Atomic (Atomic.Decimal (f d)) ]
    | Atomic.Double d -> [ Item.Atomic (Atomic.Double (f d)) ]
    | Atomic.Untyped s -> (
      try [ Item.Atomic (Atomic.Double (f (float_of_string (String.trim s)))) ]
      with _ -> err "FORG0001" (Printf.sprintf "invalid number %S" s))
    | a ->
      err "XPTY0004"
        (Printf.sprintf "expected a number, got %s"
           (Qname.to_string (Atomic.type_name a))))

let aggregate_nums args =
  List.map
    (fun a ->
      match a with
      | Atomic.Integer _ | Atomic.Decimal _ | Atomic.Double _ -> a
      | Atomic.Untyped s -> (
        try Atomic.Double (float_of_string (String.trim s))
        with _ -> err "FORG0001" (Printf.sprintf "invalid number %S" s))
      | a ->
        err "XPTY0004"
          (Printf.sprintf "aggregate over non-numeric value %s"
             (Qname.to_string (Atomic.type_name a))))
    (Item.atomize (arg 0 args))

let register_all reg =
  let fn name arity impl = Context.register_builtin reg (Qname.fn name) arity impl in
  (* ------------- accessors and general ------------- *)
  fn "data" 1 (fun _ args -> List.map (fun a -> Item.Atomic a) (Item.atomize (arg 0 args)));
  fn "string" 0 (fun ctx _ ->
      match (Context.fields ctx).ctx_item with
      | Some item -> Item.str (Item.string_of_item item)
      | None -> err "XPDY0002" "the context item is not defined");
  fn "string" 1 (fun _ args ->
      match arg 0 args with
      | [] -> Item.str ""
      | [ item ] -> Item.str (Item.string_of_item item)
      | _ -> err "XPTY0004" "fn:string expects at most one item");
  fn "number" 0 (fun ctx _ ->
      match (Context.fields ctx).ctx_item with
      | Some item -> (
        try [ Item.Atomic (Atomic.Double (float_of_string (String.trim (Item.string_of_item item)))) ]
        with _ -> [ Item.Atomic (Atomic.Double Float.nan) ])
      | None -> err "XPDY0002" "the context item is not defined");
  fn "number" 1 (fun _ args ->
      match Item.one_atom_opt (arg 0 args) with
      | None -> [ Item.Atomic (Atomic.Double Float.nan) ]
      | Some a -> (
        try [ Item.Atomic (Atomic.Double (Atomic.to_double a)) ]
        with Atomic.Cast_error _ -> (
          try
            [ Item.Atomic
                (Atomic.Double (float_of_string (String.trim (Atomic.to_string a)))) ]
          with _ -> [ Item.Atomic (Atomic.Double Float.nan) ])));
  fn "boolean" 1 (fun _ args -> Item.bool (Item.effective_boolean_value (arg 0 args)));
  fn "not" 1 (fun _ args -> Item.bool (not (Item.effective_boolean_value (arg 0 args))));
  fn "true" 0 (fun _ _ -> Item.bool true);
  fn "false" 0 (fun _ _ -> Item.bool false);
  (* ------------- errors and tracing ------------- *)
  fn "error" 0 (fun _ _ -> Item.raise_error (Qname.err "FOER0000") "fn:error called");
  fn "error" 1 (fun _ args ->
      match Item.one_atom_opt (arg 0 args) with
      | Some (Atomic.QName q) -> Item.raise_error q "fn:error called"
      | None -> Item.raise_error (Qname.err "FOER0000") "fn:error called"
      | Some _ -> err "XPTY0004" "fn:error expects an xs:QName");
  fn "error" 2 (fun _ args ->
      let q =
        match Item.one_atom_opt (arg 0 args) with
        | Some (Atomic.QName q) -> q
        | None -> Qname.err "FOER0000"
        | Some _ -> err "XPTY0004" "fn:error expects an xs:QName"
      in
      Item.raise_error q (string_arg args 1));
  fn "error" 3 (fun _ args ->
      let q =
        match Item.one_atom_opt (arg 0 args) with
        | Some (Atomic.QName q) -> q
        | None -> Qname.err "FOER0000"
        | Some _ -> err "XPTY0004" "fn:error expects an xs:QName"
      in
      let msg =
        match Item.one_atom_opt (arg 1 args) with
        | Some a -> Atomic.to_string a
        | None -> ""
      in
      Item.raise_error ~items:(arg 2 args) q msg);
  fn "trace" 1 (fun ctx args ->
      let v = arg 0 args in
      (Context.fields ctx).trace (Xml_serialize.seq_to_string v);
      v);
  fn "trace" 2 (fun ctx args ->
      let v = arg 0 args in
      let label =
        match Item.one_atom_opt (arg 1 args) with
        | Some a -> Atomic.to_string a
        | None -> ""
      in
      (Context.fields ctx).trace (label ^ ": " ^ Xml_serialize.seq_to_string v);
      v);
  (* ------------- strings ------------- *)
  fn "concat" 2 (fun _ args ->
      Item.str (String.concat "" (List.map (fun v ->
          match Item.one_atom_opt v with None -> "" | Some a -> Atomic.to_string a) args)));
  for arity = 3 to 8 do
    fn "concat" arity (fun _ args ->
        Item.str (String.concat "" (List.map (fun v ->
            match Item.one_atom_opt v with None -> "" | Some a -> Atomic.to_string a) args)))
  done;
  fn "string-join" 2 (fun _ args ->
      let sep = string_arg args 1 in
      Item.str
        (String.concat sep (List.map Atomic.to_string (Item.atomize (arg 0 args)))));
  fn "substring" 2 (fun _ args ->
      let s = string_arg args 0 in
      match double_arg args 1 with
      | None -> Item.str ""
      | Some start ->
        let start = int_of_float (Float.round start) in
        let n = String.length s in
        let from = max 0 (start - 1) in
        if from >= n then Item.str ""
        else Item.str (String.sub s from (n - from)));
  fn "substring" 3 (fun _ args ->
      let s = string_arg args 0 in
      match (double_arg args 1, double_arg args 2) with
      | None, _ | _, None -> Item.str ""
      | Some start, Some len ->
        if Float.is_nan start || Float.is_nan len then Item.str ""
        else
          let start = int_of_float (Float.round start) in
          let len = if len = Float.infinity then max_int else int_of_float (Float.round len) in
          let n = String.length s in
          let lo = max 1 start and hi = if len = max_int then max_int else start + len in
          let from = lo - 1 in
          let til = if hi = max_int then n else min n (hi - 1) in
          if from >= n || til <= from then Item.str ""
          else Item.str (String.sub s from (til - from)));
  fn "string-length" 0 (fun ctx _ ->
      match (Context.fields ctx).ctx_item with
      | Some item -> Item.int (String.length (Item.string_of_item item))
      | None -> err "XPDY0002" "the context item is not defined");
  fn "string-length" 1 (fun _ args -> Item.int (String.length (string_arg args 0)));
  fn "upper-case" 1 (fun _ args ->
      Item.str (String.uppercase_ascii (string_arg args 0)));
  fn "lower-case" 1 (fun _ args ->
      Item.str (String.lowercase_ascii (string_arg args 0)));
  fn "contains" 2 (fun _ args ->
      let s = string_arg args 0
      and sub = string_arg args 1 in
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      Item.bool (m = 0 || go 0));
  fn "starts-with" 2 (fun _ args ->
      let s = string_arg args 0
      and p = string_arg args 1 in
      Item.bool
        (String.length p <= String.length s
        && String.sub s 0 (String.length p) = p));
  fn "ends-with" 2 (fun _ args ->
      let s = string_arg args 0
      and p = string_arg args 1 in
      Item.bool
        (String.length p <= String.length s
        && String.sub s (String.length s - String.length p) (String.length p) = p));
  fn "substring-before" 2 (fun _ args ->
      let s = string_arg args 0
      and p = string_arg args 1 in
      if p = "" then Item.str ""
      else
        let n = String.length s and m = String.length p in
        let rec go i =
          if i + m > n then None
          else if String.sub s i m = p then Some i
          else go (i + 1)
        in
        (match go 0 with
        | Some i -> Item.str (String.sub s 0 i)
        | None -> Item.str ""));
  fn "substring-after" 2 (fun _ args ->
      let s = string_arg args 0
      and p = string_arg args 1 in
      if p = "" then Item.str s
      else
        let n = String.length s and m = String.length p in
        let rec go i =
          if i + m > n then None
          else if String.sub s i m = p then Some i
          else go (i + 1)
        in
        (match go 0 with
        | Some i -> Item.str (String.sub s (i + m) (n - i - m))
        | None -> Item.str ""));
  fn "normalize-space" 0 (fun ctx _ ->
      match (Context.fields ctx).ctx_item with
      | Some item ->
        Item.str
          (String.concat " "
             (List.filter (fun s -> s <> "")
                (String.split_on_char ' '
                   (String.map
                      (fun c -> if c = '\t' || c = '\n' || c = '\r' then ' ' else c)
                      (Item.string_of_item item)))))
      | None -> err "XPDY0002" "the context item is not defined");
  fn "normalize-space" 1 (fun _ args ->
      let s = string_arg args 0 in
      Item.str
        (String.concat " "
           (List.filter (fun s -> s <> "")
              (String.split_on_char ' '
                 (String.map
                    (fun c -> if c = '\t' || c = '\n' || c = '\r' then ' ' else c)
                    s)))));
  fn "translate" 3 (fun _ args ->
      let s = string_arg args 0
      and from = string_arg args 1
      and to_ = string_arg args 2 in
      let buf = Buffer.create (String.length s) in
      String.iter
        (fun c ->
          match String.index_opt from c with
          | Some i -> if i < String.length to_ then Buffer.add_char buf to_.[i]
          | None -> Buffer.add_char buf c)
        s;
      Item.str (Buffer.contents buf));
  fn "codepoints-to-string" 1 (fun _ args ->
      let atoms = Item.atomize (arg 0 args) in
      let buf = Buffer.create 16 in
      List.iter
        (fun a ->
          match a with
          | Atomic.Integer i when i >= 0 && i < 128 -> Buffer.add_char buf (Char.chr i)
          | Atomic.Integer _ -> ()
          | _ -> err "XPTY0004" "codepoints must be integers")
        atoms;
      Item.str (Buffer.contents buf));
  fn "string-to-codepoints" 1 (fun _ args ->
      let s = string_arg args 0 in
      List.init (String.length s) (fun i -> Item.Atomic (Atomic.Integer (Char.code s.[i]))));
  (* ------------- regex family ------------- *)
  fn "matches" 2 (fun _ args ->
      let s = string_arg args 0
      and p = string_arg args 1 in
      Item.bool (Re.execp (compile_regex p "") s));
  fn "matches" 3 (fun _ args ->
      let s = string_arg args 0
      and p = string_arg args 1
      and f = string_arg args 2 in
      Item.bool (Re.execp (compile_regex p f) s));
  fn "replace" 3 (fun _ args ->
      let s = string_arg args 0
      and p = string_arg args 1
      and r = string_arg args 2 in
      Item.str (Re.replace (compile_regex p "") ~f:(fun g ->
          (* expand $1..$9 in the replacement *)
          let buf = Buffer.create 16 in
          let n = String.length r in
          let i = ref 0 in
          while !i < n do
            (if r.[!i] = '$' && !i + 1 < n && r.[!i + 1] >= '0' && r.[!i + 1] <= '9'
             then begin
               let d = Char.code r.[!i + 1] - Char.code '0' in
               (try Buffer.add_string buf (Re.Group.get g d) with Not_found -> ());
               i := !i + 2
             end
             else if r.[!i] = '\\' && !i + 1 < n then begin
               Buffer.add_char buf r.[!i + 1];
               i := !i + 2
             end
             else begin
               Buffer.add_char buf r.[!i];
               incr i
             end)
          done;
          Buffer.contents buf) s));
  fn "tokenize" 2 (fun _ args ->
      let s = string_arg args 0
      and p = string_arg args 1 in
      if s = "" then []
      else begin
        (* fn:tokenize keeps empty tokens between adjacent separators *)
        let re = compile_regex p "" in
        let toks = ref [] in
        let buf = Buffer.create 16 in
        List.iter
          (function
            | `Text t -> Buffer.add_string buf t
            | `Delim _ ->
              toks := Buffer.contents buf :: !toks;
              Buffer.clear buf)
          (Re.split_full re s);
        toks := Buffer.contents buf :: !toks;
        List.rev_map (fun tok -> Item.Atomic (Atomic.String tok)) !toks
      end);
  (* ------------- numerics ------------- *)
  fn "abs" 1 (numeric_unary Float.abs |> fun f -> fun ctx args ->
      match Item.one_atom_opt (arg 0 args) with
      | Some (Atomic.Integer i) -> [ Item.Atomic (Atomic.Integer (abs i)) ]
      | _ -> f ctx args);
  fn "floor" 1 (fun ctx args ->
      match Item.one_atom_opt (arg 0 args) with
      | Some (Atomic.Integer _ as a) -> [ Item.Atomic a ]
      | _ -> (numeric_unary Float.floor) ctx args);
  fn "ceiling" 1 (fun ctx args ->
      match Item.one_atom_opt (arg 0 args) with
      | Some (Atomic.Integer _ as a) -> [ Item.Atomic a ]
      | _ -> (numeric_unary Float.ceil) ctx args);
  fn "round" 1 (fun ctx args ->
      match Item.one_atom_opt (arg 0 args) with
      | Some (Atomic.Integer _ as a) -> [ Item.Atomic a ]
      | _ -> (numeric_unary (fun f -> Float.floor (f +. 0.5))) ctx args);
  (* ------------- sequences ------------- *)
  fn "count" 1 (fun _ args -> Item.int (List.length (arg 0 args)));
  fn "empty" 1 (fun _ args -> Item.bool (arg 0 args = []));
  fn "exists" 1 (fun _ args -> Item.bool (arg 0 args <> []));
  fn "head" 1 (fun _ args ->
      match arg 0 args with [] -> [] | x :: _ -> [ x ]);
  fn "tail" 1 (fun _ args ->
      match arg 0 args with [] -> [] | _ :: tl -> tl);
  fn "distinct-values" 1 (fun _ args ->
      let atoms = Item.atomize (arg 0 args) in
      let seen = ref [] in
      List.filter_map
        (fun a ->
          let a = match a with Atomic.Untyped s -> Atomic.String s | a -> a in
          if List.exists (fun b -> Atomic.deep_equal a b) !seen then None
          else begin
            seen := a :: !seen;
            Some (Item.Atomic a)
          end)
        atoms);
  fn "reverse" 1 (fun _ args -> List.rev (arg 0 args));
  fn "subsequence" 2 (fun _ args ->
      match double_arg args 1 with
      | None -> []
      | Some start ->
        let w = subsequence_window start None in
        List.filteri (fun i _ -> subsequence_keep w (i + 1)) (arg 0 args));
  fn "subsequence" 3 (fun _ args ->
      match (double_arg args 1, double_arg args 2) with
      | None, _ | _, None -> []
      | Some start, Some len ->
        let w = subsequence_window start (Some len) in
        List.filteri (fun i _ -> subsequence_keep w (i + 1)) (arg 0 args));
  fn "insert-before" 3 (fun _ args ->
      let seq = arg 0 args and pos = int_arg args 1 and ins = arg 2 args in
      let pos = max 1 pos in
      let rec go i = function
        | [] -> ins
        | x :: rest when i = pos -> ins @ (x :: rest)
        | x :: rest -> x :: go (i + 1) rest
      in
      go 1 seq);
  fn "remove" 2 (fun _ args ->
      let seq = arg 0 args and pos = int_arg args 1 in
      List.filteri (fun i _ -> i + 1 <> pos) seq);
  fn "index-of" 2 (fun _ args ->
      let seq = Item.atomize (arg 0 args) in
      match Item.one_atom_opt (arg 1 args) with
      | None -> []
      | Some target ->
        let acc = ref [] in
        List.iteri
          (fun i a -> if Atomic.deep_equal a target then acc := i + 1 :: !acc)
          seq;
        List.rev_map (fun i -> Item.Atomic (Atomic.Integer i)) !acc);
  fn "exactly-one" 1 (fun _ args ->
      match arg 0 args with
      | [ x ] -> [ x ]
      | _ -> err "FORG0005" "fn:exactly-one called with a sequence not of length 1");
  fn "zero-or-one" 1 (fun _ args ->
      match arg 0 args with
      | ([] | [ _ ]) as v -> v
      | _ -> err "FORG0003" "fn:zero-or-one called with a longer sequence");
  fn "one-or-more" 1 (fun _ args ->
      match arg 0 args with
      | [] -> err "FORG0004" "fn:one-or-more called with an empty sequence"
      | v -> v);
  fn "deep-equal" 2 (fun _ args -> Item.bool (Item.deep_equal (arg 0 args) (arg 1 args)));
  fn "unordered" 1 (fun _ args -> arg 0 args);
  (* ------------- aggregates ------------- *)
  fn "sum" 1 (fun _ args ->
      match aggregate_nums args with
      | [] -> Item.int 0
      | first :: rest ->
        [ Item.Atomic
            (List.fold_left (fun acc a -> Atomic.arith Atomic.Add acc a) first rest) ]);
  fn "avg" 1 (fun _ args ->
      match aggregate_nums args with
      | [] -> []
      | nums ->
        let total =
          List.fold_left (fun acc a -> Atomic.arith Atomic.Add acc a)
            (List.hd nums) (List.tl nums)
        in
        [ Item.Atomic (Atomic.arith Atomic.Div total (Atomic.Integer (List.length nums))) ]);
  fn "max" 1 (fun _ args ->
      match Item.atomize (arg 0 args) with
      | [] -> []
      | atoms ->
        let norm = List.map (fun a -> match a with Atomic.Untyped s -> Atomic.String s | a -> a) atoms in
        [ Item.Atomic
            (List.fold_left
               (fun acc a ->
                 match Atomic.compare_values acc a with
                 | c -> if c >= 0 then acc else a
                 | exception Atomic.Cast_error m -> err "FORG0006" m)
               (List.hd norm) (List.tl norm)) ]);
  fn "min" 1 (fun _ args ->
      match Item.atomize (arg 0 args) with
      | [] -> []
      | atoms ->
        let norm = List.map (fun a -> match a with Atomic.Untyped s -> Atomic.String s | a -> a) atoms in
        [ Item.Atomic
            (List.fold_left
               (fun acc a ->
                 match Atomic.compare_values acc a with
                 | c -> if c <= 0 then acc else a
                 | exception Atomic.Cast_error m -> err "FORG0006" m)
               (List.hd norm) (List.tl norm)) ]);
  (* ------------- context ------------- *)
  fn "position" 0 (fun ctx _ ->
      let f = Context.fields ctx in
      if f.ctx_item = None then err "XPDY0002" "the context item is not defined"
      else Item.int f.ctx_pos);
  fn "last" 0 (fun ctx _ ->
      let f = Context.fields ctx in
      if f.ctx_item = None then err "XPDY0002" "the context item is not defined"
      else Item.int f.ctx_size);
  (* ------------- nodes ------------- *)
  fn "name" 0 (fun ctx _ ->
      match (Context.fields ctx).ctx_item with
      | Some (Item.Node n) -> (
        match Node.name n with
        | Some q -> Item.str (Qname.to_string q)
        | None -> Item.str "")
      | Some _ -> err "XPTY0004" "fn:name requires a node"
      | None -> err "XPDY0002" "the context item is not defined");
  fn "name" 1 (fun _ args ->
      match arg 0 args with
      | [] -> Item.str ""
      | [ Item.Node n ] -> (
        match Node.name n with
        | Some q -> Item.str (Qname.to_string q)
        | None -> Item.str "")
      | _ -> err "XPTY0004" "fn:name requires a node");
  fn "local-name" 1 (fun _ args ->
      match arg 0 args with
      | [] -> Item.str ""
      | [ Item.Node n ] -> (
        match Node.name n with
        | Some q -> Item.str q.Qname.local
        | None -> Item.str "")
      | _ -> err "XPTY0004" "fn:local-name requires a node");
  fn "namespace-uri" 1 (fun _ args ->
      match arg 0 args with
      | [] -> Item.str ""
      | [ Item.Node n ] -> (
        match Node.name n with
        | Some q -> Item.str q.Qname.uri
        | None -> Item.str "")
      | _ -> err "XPTY0004" "fn:namespace-uri requires a node");
  fn "node-name" 1 (fun _ args ->
      match arg 0 args with
      | [] -> []
      | [ Item.Node n ] -> (
        match Node.name n with
        | Some q -> [ Item.Atomic (Atomic.QName q) ]
        | None -> [])
      | _ -> err "XPTY0004" "fn:node-name requires a node");
  fn "root" 0 (fun ctx _ ->
      match (Context.fields ctx).ctx_item with
      | Some (Item.Node n) -> [ Item.Node (Node.root n) ]
      | Some _ -> err "XPTY0004" "fn:root requires a node"
      | None -> err "XPDY0002" "the context item is not defined");
  fn "root" 1 (fun _ args ->
      match arg 0 args with
      | [] -> []
      | [ Item.Node n ] -> [ Item.Node (Node.root n) ]
      | _ -> err "XPTY0004" "fn:root requires a node");
  fn "doc" 1 (fun ctx args ->
      match opt_string_arg args 0 with
      | None -> []
      | Some uri -> (
        match Hashtbl.find_opt (Context.fields ctx).docs uri with
        | Some doc -> [ Item.Node doc ]
        | None -> err "FODC0002" (Printf.sprintf "document %S not found" uri)));
  fn "doc-available" 1 (fun ctx args ->
      match opt_string_arg args 0 with
      | None -> Item.bool false
      | Some uri -> Item.bool (Hashtbl.mem (Context.fields ctx).docs uri));
  fn "collection" 0 (fun ctx _ ->
      match Hashtbl.find_opt (Context.fields ctx).collections "" with
      | Some nodes -> List.map (fun n -> Item.Node n) nodes
      | None -> err "FODC0002" "no default collection is registered");
  fn "collection" 1 (fun ctx args ->
      let uri = match opt_string_arg args 0 with Some u -> u | None -> "" in
      match Hashtbl.find_opt (Context.fields ctx).collections uri with
      | Some nodes -> List.map (fun n -> Item.Node n) nodes
      | None -> err "FODC0002" (Printf.sprintf "collection %S not found" uri));
  (* ------------- QNames ------------- *)
  fn "QName" 2 (fun _ args ->
      let uri = string_arg args 0
      and lex = string_arg args 1 in
      match String.index_opt lex ':' with
      | Some i ->
        let prefix = String.sub lex 0 i in
        let local = String.sub lex (i + 1) (String.length lex - i - 1) in
        [ Item.Atomic (Atomic.QName (Qname.make ~prefix ~uri local)) ]
      | None -> [ Item.Atomic (Atomic.QName (Qname.make ~uri lex)) ]);
  fn "local-name-from-QName" 1 (fun _ args ->
      match Item.one_atom_opt (arg 0 args) with
      | None -> []
      | Some (Atomic.QName q) -> Item.str q.Qname.local
      | Some _ -> err "XPTY0004" "expected an xs:QName");
  fn "namespace-uri-from-QName" 1 (fun _ args ->
      match Item.one_atom_opt (arg 0 args) with
      | None -> []
      | Some (Atomic.QName q) -> Item.str q.Qname.uri
      | Some _ -> err "XPTY0004" "expected an xs:QName");
  (* ------------- additional F&O functions ------------- *)
  fn "compare" 2 (fun _ args ->
      match (opt_string_arg args 0, opt_string_arg args 1) with
      | None, _ | _, None -> []
      | Some a, Some b -> Item.int (compare (String.compare a b) 0));
  fn "codepoint-equal" 2 (fun _ args ->
      match (opt_string_arg args 0, opt_string_arg args 1) with
      | None, _ | _, None -> []
      | Some a, Some b -> Item.bool (String.equal a b));
  fn "round-half-to-even" 1 (fun _ args ->
      match Item.one_atom_opt (arg 0 args) with
      | None -> []
      | Some (Atomic.Integer _ as a) -> [ Item.Atomic a ]
      | Some a ->
        let f = try Atomic.to_double a with Atomic.Cast_error m -> err "XPTY0004" m in
        let fl = Float.floor f and ce = Float.ceil f in
        let r =
          if f -. fl < ce -. f then fl
          else if f -. fl > ce -. f then ce
          else if Float.rem fl 2. = 0. then fl
          else ce
        in
        (match a with
        | Atomic.Double _ -> [ Item.Atomic (Atomic.Double r) ]
        | _ -> [ Item.Atomic (Atomic.Decimal r) ]));
  fn "encode-for-uri" 1 (fun _ args ->
      let s = string_arg args 0 in
      let buf = Buffer.create (String.length s) in
      String.iter
        (fun c ->
          match c with
          | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' | '.' | '~' ->
            Buffer.add_char buf c
          | c -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
        s;
      Item.str (Buffer.contents buf));
  (* ------------- dates, times and durations ------------- *)
  let date_part name extract =
    fn name 1 (fun _ args ->
        match Item.one_atom_opt (arg 0 args) with
        | None -> []
        | Some a -> (
          let lexical =
            match a with
            | Atomic.Date s | Atomic.DateTime s -> s
            | Atomic.Untyped s -> Atomic.to_string (Atomic.cast_to (Atomic.Untyped s) (Qname.xs "date"))
            | a ->
              err "XPTY0004"
                (Printf.sprintf "%s: expected a date, got %s" name
                   (Qname.to_string (Atomic.type_name a)))
          in
          try Item.int (extract lexical)
          with _ -> err "FORG0001" (Printf.sprintf "invalid date %S" lexical)))
  in
  date_part "year-from-date" (fun s -> int_of_string (String.sub s 0 4));
  date_part "month-from-date" (fun s -> int_of_string (String.sub s 5 2));
  date_part "day-from-date" (fun s -> int_of_string (String.sub s 8 2));
  date_part "year-from-dateTime" (fun s -> int_of_string (String.sub s 0 4));
  date_part "month-from-dateTime" (fun s -> int_of_string (String.sub s 5 2));
  date_part "day-from-dateTime" (fun s -> int_of_string (String.sub s 8 2));
  let time_part name offset =
    fn name 1 (fun _ args ->
        match Item.one_atom_opt (arg 0 args) with
        | None -> []
        | Some a -> (
          let lexical =
            match a with
            | Atomic.Time s -> s
            | Atomic.DateTime s when String.length s > 11 ->
              String.sub s 11 (String.length s - 11)
            | a ->
              err "XPTY0004"
                (Printf.sprintf "%s: expected a time, got %s" name
                   (Qname.to_string (Atomic.type_name a)))
          in
          try Item.int (int_of_string (String.sub lexical offset 2))
          with _ -> err "FORG0001" (Printf.sprintf "invalid time %S" lexical)))
  in
  time_part "hours-from-time" 0;
  time_part "minutes-from-time" 3;
  time_part "hours-from-dateTime" 0;
  time_part "minutes-from-dateTime" 3;
  fn "seconds-from-time" 1 (fun _ args ->
      match Item.one_atom_opt (arg 0 args) with
      | None -> []
      | Some (Atomic.Time s) ->
        [ Item.Atomic (Atomic.Decimal (float_of_string (String.sub s 6 (String.length s - 6)))) ]
      | Some _ -> err "XPTY0004" "seconds-from-time: expected a time");
  let dur_part name extract =
    fn name 1 (fun _ args ->
        match Item.one_atom_opt (arg 0 args) with
        | None -> []
        | Some (Atomic.Duration d) -> [ Item.Atomic (extract d) ]
        | Some a ->
          err "XPTY0004"
            (Printf.sprintf "%s: expected a duration, got %s" name
               (Qname.to_string (Atomic.type_name a))))
  in
  let trunc f = int_of_float (Float.trunc f) in
  dur_part "years-from-duration" (fun d -> Atomic.Integer (d.Atomic.d_months / 12));
  dur_part "months-from-duration" (fun d -> Atomic.Integer (d.Atomic.d_months mod 12));
  dur_part "days-from-duration" (fun d ->
      Atomic.Integer (trunc (d.Atomic.d_seconds /. 86400.)));
  dur_part "hours-from-duration" (fun d ->
      Atomic.Integer (trunc (Float.rem d.Atomic.d_seconds 86400. /. 3600.)));
  dur_part "minutes-from-duration" (fun d ->
      Atomic.Integer (trunc (Float.rem d.Atomic.d_seconds 3600. /. 60.)));
  dur_part "seconds-from-duration" (fun d ->
      Atomic.Decimal (Float.rem d.Atomic.d_seconds 60.));
  (* The current-* functions are deterministic: evaluation happens "in
     December 2007", the ALDSP 3.0 release date, so runs reproduce. *)
  fn "current-date" 0 (fun _ _ -> [ Item.Atomic (Atomic.Date "2007-12-12") ]);
  fn "current-dateTime" 0 (fun _ _ ->
      [ Item.Atomic (Atomic.DateTime "2007-12-12T12:00:00") ]);
  fn "current-time" 0 (fun _ _ -> [ Item.Atomic (Atomic.Time "12:00:00") ]);
  (* ------------- xs constructors ------------- *)
  List.iter
    (fun ty ->
      Context.register_builtin reg (Qname.xs ty) 1 (fun _ args ->
          match Item.one_atom_opt (arg 0 args) with
          | None -> []
          | Some a -> (
            try [ Item.Atomic (Atomic.cast_to a (Qname.xs ty)) ]
            with Atomic.Cast_error m -> err "FORG0001" m)))
    [
      "string"; "boolean"; "integer"; "int"; "long"; "decimal"; "double";
      "float"; "date"; "dateTime"; "time"; "anyURI"; "untypedAtomic"; "QName";
      "duration"; "yearMonthDuration"; "dayTimeDuration";
    ]

let standard_registry () =
  let reg = Context.create_registry () in
  register_all reg;
  reg
