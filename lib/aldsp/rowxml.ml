open Xdm
module R = Relational

let row_to_xml tbl =
  let schema = R.Table.schema tbl in
  let row_name = Qname.local schema.R.Table.tbl_name in
  let columns =
    Array.of_list
      (List.map
         (fun (c : R.Table.column) -> Qname.local c.R.Table.col_name)
         schema.R.Table.columns)
  in
  fun row ->
    let[@tail_mod_cons] rec children i =
      if i = Array.length columns then []
      else
        match row.(i) with
        | R.Value.Null -> children (i + 1)
        | v ->
          Node.element columns.(i) [ Node.text (R.Value.to_string v) ]
          :: children (i + 1)
    in
    Node.element row_name (children 0)

let col_of tbl name =
  List.find_opt
    (fun (c : R.Table.column) -> c.R.Table.col_name = name)
    (R.Table.schema tbl).R.Table.columns

let xml_to_pairs tbl node =
  List.filter_map
    (fun child ->
      if Node.kind child <> Node.Element then None
      else
        match Node.name child with
        | None -> None
        | Some qn -> (
          match col_of tbl qn.Qname.local with
          | None -> None
          | Some c ->
            let s = Node.string_value child in
            let v =
              if s = "" && c.R.Table.col_type <> R.Value.T_text then
                R.Value.Null
              else R.Value.of_string c.R.Table.col_type s
            in
            Some (c.R.Table.col_name, v)))
    (Node.children node)

let xml_to_row tbl node =
  let pairs = xml_to_pairs tbl node in
  Array.of_list
    (List.map
       (fun (c : R.Table.column) ->
         match List.assoc_opt c.R.Table.col_name pairs with
         | Some v -> v
         | None -> R.Value.Null)
       (R.Table.schema tbl).R.Table.columns)

let pk_pred_of_xml tbl node =
  let pairs = xml_to_pairs tbl node in
  R.Pred.conj
    (List.map
       (fun k ->
         match List.assoc_opt k pairs with
         | Some v -> R.Pred.eq k v
         | None ->
           failwith
             (Printf.sprintf "row element is missing primary key column %s" k))
       (R.Table.schema tbl).R.Table.primary_key)

let simple_type_of_col = function
  | R.Value.T_int -> Qname.xs "integer"
  | R.Value.T_float -> Qname.xs "double"
  | R.Value.T_text -> Qname.xs "string"
  | R.Value.T_bool -> Qname.xs "boolean"
  | R.Value.T_date -> Qname.xs "date"

let shape_of_table tbl =
  let schema = R.Table.schema tbl in
  let particles =
    List.map
      (fun (c : R.Table.column) ->
        Schema.particle
          ~min:(if c.R.Table.nullable then 0 else 1)
          (Qname.local c.R.Table.col_name)
          (Schema.simple (simple_type_of_col c.R.Table.col_type)))
      schema.R.Table.columns
  in
  {
    Schema.name = Qname.local schema.R.Table.tbl_name;
    type_def = Schema.complex particles;
  }
