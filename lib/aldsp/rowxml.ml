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
  let layout = Node.layout row_name columns in
  let is_null = function R.Value.Null -> true | _ -> false in
  fun row ->
    if not (Array.exists is_null row) then
      Node.row_of_layout layout (Array.map R.Value.to_string row)
    else begin
      (* NULL columns have no child: keep the others, in table order *)
      let present = ref [] in
      for i = Array.length row - 1 downto 0 do
        if not (is_null row.(i)) then present := i :: !present
      done;
      let present = Array.of_list !present in
      Node.row row_name
        (Array.map (fun i -> columns.(i)) present)
        (Array.map (fun i -> R.Value.to_string row.(i)) present)
    end

let col_of tbl name =
  List.find_opt
    (fun (c : R.Table.column) -> c.R.Table.col_name = name)
    (R.Table.schema tbl).R.Table.columns

(* a column child's text as the column's value *)
let parse_column (c : R.Table.column) s =
  if s = "" && c.R.Table.col_type <> R.Value.T_text then R.Value.Null
  else R.Value.of_string c.R.Table.col_type s

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
            Some (c.R.Table.col_name, parse_column c (Node.string_value child))))
    (Node.children node)

let column_reader tbl col =
  let c =
    match col_of tbl col with
    | Some c -> c
    | None -> invalid_arg ("Rowxml.column_reader: no column " ^ col)
  in
  let row_name = Qname.local (R.Table.schema tbl).R.Table.tbl_name
  and col_name = Qname.local col in
  fun node ->
    let own_row =
      Node.unbuilt_row node
      && match Node.name node with
         | Some q -> Qname.equal q row_name
         | None -> false
    in
    if own_row then
      Option.map (parse_column c) (Node.cell node col_name)
    else List.assoc_opt col (xml_to_pairs tbl node)

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
