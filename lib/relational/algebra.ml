type predicate =
  | Eq of string * Value.t
  | Neq of string * Value.t
  | Lt of string * Value.t
  | Le of string * Value.t
  | Gt of string * Value.t
  | Ge of string * Value.t
  | Between of string * Value.t * Value.t
  | And of predicate * predicate
  | Or of predicate * predicate
  | Not of predicate

let predicate_attrs p =
  let rec go acc = function
    | Eq (a, _) | Neq (a, _) | Lt (a, _) | Le (a, _) | Gt (a, _) | Ge (a, _)
    | Between (a, _, _) ->
      a :: acc
    | And (p, q) | Or (p, q) -> go (go acc p) q
    | Not p -> go acc p
  in
  List.sort_uniq String.compare (go [] p)

let eval_predicate schema p row =
  let value a = row.(Schema.index_of schema a) in
  let rec go = function
    | Eq (a, v) -> Value.equal (value a) v
    | Neq (a, v) -> not (Value.equal (value a) v)
    | Lt (a, v) -> Value.compare (value a) v < 0
    | Le (a, v) -> Value.compare (value a) v <= 0
    | Gt (a, v) -> Value.compare (value a) v > 0
    | Ge (a, v) -> Value.compare (value a) v >= 0
    | Between (a, lo, hi) ->
      Value.compare (value a) lo >= 0 && Value.compare (value a) hi <= 0
    | And (p, q) -> go p && go q
    | Or (p, q) -> go p || go q
    | Not p -> not (go p)
  in
  go p

let select p r =
  let schema = Relation.schema r in
  Relation.filter r (fun _ row -> eval_predicate schema p row)

let equi_join ~on left right =
  let ls = Relation.schema left and rs = Relation.schema right in
  if not (Schema.mem ls on && Schema.mem rs on) then
    invalid_arg (Printf.sprintf "Algebra.equi_join: %S not shared" on);
  (* Rename right-side duplicates (other than the join attribute). *)
  let right_attrs =
    List.filter_map
      (fun (a : Attribute.t) ->
        if a.name = on then None
        else if Schema.mem ls a.name then Some { a with Attribute.name = a.name ^ "'" }
        else Some a)
      (Schema.attributes rs)
  in
  let out_schema = Schema.of_attributes (Schema.attributes ls @ right_attrs) in
  let index = Hashtbl.create (Relation.cardinality right * 2) in
  let r_on = Schema.index_of rs on in
  Relation.iter_rows right (fun _ row ->
      let key = Value.encode row.(r_on) in
      Hashtbl.add index key row);
  let l_on = Schema.index_of ls on in
  let out_rows = ref [] in
  Relation.iter_rows left (fun _ lrow ->
      let key = Value.encode lrow.(l_on) in
      List.iter
        (fun rrow ->
          let right_cells =
            List.filteri (fun i _ -> i <> r_on) (Array.to_list rrow)
          in
          out_rows := Array.append lrow (Array.of_list right_cells) :: !out_rows)
        (Hashtbl.find_all index key));
  Relation.create out_schema (List.rev !out_rows)

let natural_join left right =
  let ls = Relation.schema left and rs = Relation.schema right in
  let shared = List.filter (Schema.mem ls) (Schema.names rs) in
  if shared = [] then invalid_arg "Algebra.natural_join: no shared attributes";
  let right_only =
    List.filter (fun (a : Attribute.t) -> not (Schema.mem ls a.name)) (Schema.attributes rs)
  in
  let out_schema = Schema.of_attributes (Schema.attributes ls @ right_only) in
  let shared_idx_r = List.map (Schema.index_of rs) shared in
  let shared_idx_l = List.map (Schema.index_of ls) shared in
  let right_only_idx =
    List.map (fun (a : Attribute.t) -> Schema.index_of rs a.name) right_only
  in
  let key_of row idxs = String.concat "\x00" (List.map (fun i -> Value.encode row.(i)) idxs) in
  let index = Hashtbl.create (Relation.cardinality right * 2) in
  Relation.iter_rows right (fun _ row -> Hashtbl.add index (key_of row shared_idx_r) row);
  let out_rows = ref [] in
  Relation.iter_rows left (fun _ lrow ->
      List.iter
        (fun rrow ->
          let extra = List.map (fun i -> rrow.(i)) right_only_idx in
          out_rows := Array.append lrow (Array.of_list extra) :: !out_rows)
        (Hashtbl.find_all index (key_of lrow shared_idx_l)));
  Relation.create out_schema (List.rev !out_rows)

let count = Relation.cardinality

let sum_int name r =
  Array.fold_left
    (fun acc v -> match v with Value.Int i -> acc + i | _ -> acc)
    0 (Relation.column r name)

let group_count name r =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun v ->
      let k = Value.encode v in
      match Hashtbl.find_opt tbl k with
      | Some (v, n) -> Hashtbl.replace tbl k (v, n + 1)
      | None -> Hashtbl.add tbl k (v, 1))
    (Relation.column r name);
  Hashtbl.fold (fun _ pair acc -> pair :: acc) tbl []
  |> List.sort (fun (v1, n1) (v2, n2) ->
         match Int.compare n2 n1 with 0 -> Value.compare v1 v2 | c -> c)

let rec pp_predicate fmt = function
  | Eq (a, v) -> Format.fprintf fmt "%s = %a" a Value.pp v
  | Neq (a, v) -> Format.fprintf fmt "%s <> %a" a Value.pp v
  | Lt (a, v) -> Format.fprintf fmt "%s < %a" a Value.pp v
  | Le (a, v) -> Format.fprintf fmt "%s <= %a" a Value.pp v
  | Gt (a, v) -> Format.fprintf fmt "%s > %a" a Value.pp v
  | Ge (a, v) -> Format.fprintf fmt "%s >= %a" a Value.pp v
  | Between (a, lo, hi) ->
    Format.fprintf fmt "%s BETWEEN %a AND %a" a Value.pp lo Value.pp hi
  | And (p, q) -> Format.fprintf fmt "(%a AND %a)" pp_predicate p pp_predicate q
  | Or (p, q) -> Format.fprintf fmt "(%a OR %a)" pp_predicate p pp_predicate q
  | Not p -> Format.fprintf fmt "NOT %a" pp_predicate p
