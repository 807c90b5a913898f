type t = { schema : Schema.t; columns : Value.t array array }

let check_shape schema columns =
  let arity = Schema.arity schema in
  if Array.length columns <> arity then
    invalid_arg "Relation: column count does not match schema arity";
  if arity > 0 then begin
    let n = Array.length columns.(0) in
    Array.iter
      (fun col ->
        if Array.length col <> n then invalid_arg "Relation: ragged columns")
      columns;
    List.iteri
      (fun i (attr : Attribute.t) ->
        Array.iter
          (fun v ->
            if not (Value.matches attr.ty v) then
              invalid_arg
                (Printf.sprintf "Relation: value %s does not match type of %s"
                   (Value.to_string v) attr.name))
          columns.(i))
      (Schema.attributes schema)
  end

let of_columns schema columns =
  check_shape schema columns;
  { schema; columns }

let create schema rows =
  let arity = Schema.arity schema in
  List.iter
    (fun r ->
      if Array.length r <> arity then invalid_arg "Relation.create: row arity mismatch")
    rows;
  let n = List.length rows in
  let columns = Array.init arity (fun _ -> Array.make n Value.Null) in
  List.iteri (fun i r -> Array.iteri (fun j v -> columns.(j).(i) <- v) r) rows;
  of_columns schema columns

let schema t = t.schema

let cardinality t =
  if Array.length t.columns = 0 then 0 else Array.length t.columns.(0)

let column t name = t.columns.(Schema.index_of t.schema name)

let get t ~row name = (column t name).(row)

let row t i = Array.map (fun col -> col.(i)) t.columns

let rows t = List.init (cardinality t) (row t)

let iter_rows t f =
  for i = 0 to cardinality t - 1 do
    f i (row t i)
  done

let project t wanted =
  let schema = Schema.project t.schema wanted in
  let columns = Array.of_list (List.map (fun name -> column t name) wanted) in
  { schema; columns }

let filter t keep =
  let n = cardinality t in
  let selected = ref [] in
  for i = n - 1 downto 0 do
    if keep i (row t i) then selected := i :: !selected
  done;
  let idx = Array.of_list !selected in
  let columns = Array.map (fun col -> Array.map (fun i -> col.(i)) idx) t.columns in
  { schema = t.schema; columns }

let append_column t attr values =
  if cardinality t <> Array.length values && Schema.arity t.schema > 0 then
    invalid_arg "Relation.append_column: length mismatch";
  Array.iter
    (fun v ->
      if not (Value.matches (Attribute.ty attr) v) then
        invalid_arg
          (Printf.sprintf "Relation.append_column: value %s does not match type of %s"
             (Value.to_string v) (Attribute.name attr)))
    values;
  let schema = Schema.append t.schema attr in
  { schema; columns = Array.append t.columns [| values |] }

let with_tid ?(name = "tid") t =
  let n = cardinality t in
  let tid_col = Array.init n (fun i -> Value.Int i) in
  let schema = Schema.of_attributes (Attribute.int name :: Schema.attributes t.schema) in
  { schema; columns = Array.append [| tid_col |] t.columns }

let concat a b =
  if not (Schema.equal a.schema b.schema) then
    invalid_arg "Relation.concat: schema mismatch";
  { schema = a.schema;
    columns = Array.map2 (fun ca cb -> Array.append ca cb) a.columns b.columns }

let distinct t =
  let seen = Hashtbl.create (cardinality t * 2) in
  filter t (fun _ r ->
      let key = String.concat "\x00" (Array.to_list (Array.map Value.encode r)) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)

let plaintext_bytes t =
  Array.fold_left
    (fun acc col -> Array.fold_left (fun acc v -> acc + Value.size_bytes v) acc col)
    0 t.columns

let multiset t =
  let m = Hashtbl.create (cardinality t * 2) in
  iter_rows t (fun _ r ->
      let key = String.concat "\x00" (Array.to_list (Array.map Value.encode r)) in
      Hashtbl.replace m key (1 + Option.value (Hashtbl.find_opt m key) ~default:0));
  m

let equal_as_sets a b =
  if not (Schema.equal_modulo_order a.schema b.schema) then false
  else begin
    let order = List.sort String.compare (Schema.names a.schema) in
    let a = project a order and b = project b order in
    let ma = multiset a and mb = multiset b in
    Hashtbl.length ma = Hashtbl.length mb
    && Hashtbl.fold (fun k _ acc -> acc && Hashtbl.mem mb k) ma true
    (* Set semantics: multiplicities are intentionally ignored so that a
       reconstruction that deduplicates rows still counts as lossless. *)
  end

let pp ?(max_rows = 10) fmt t =
  Format.fprintf fmt "@[<v>%a@," Schema.pp t.schema;
  let n = cardinality t in
  let shown = min n max_rows in
  for i = 0 to shown - 1 do
    let cells = Array.to_list (Array.map Value.to_string (row t i)) in
    Format.fprintf fmt "| %s@," (String.concat " | " cells)
  done;
  if n > shown then Format.fprintf fmt "... (%d more rows)@," (n - shown);
  Format.fprintf fmt "@]"
