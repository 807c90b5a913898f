open Snf_relational

type fragment = { value : Value.t; rep : Partition.t }

type t = {
  split_attr : string;
  fragments : fragment list;
  other : Partition.t option;
}

let relabel prefix rep =
  List.map
    (fun (l : Partition.leaf) -> { l with label = Printf.sprintf "%s/%s" prefix l.label })
    rep

let partition ?semantics ?(strategy = `Non_repeating) g policy ~split_on ~values =
  if not (Policy.mem policy split_on) then
    invalid_arg (Printf.sprintf "Horizontal.partition: unknown attribute %S" split_on);
  if not (Leakage.leq Leakage.Equality (Policy.permissible policy split_on)) then
    invalid_arg
      (Printf.sprintf
         "Horizontal.partition: %S must tolerate equality leakage to be a split key"
         split_on);
  let vertical ?fragment () =
    match strategy with
    | `Non_repeating -> Strategy.non_repeating ?semantics ?fragment g policy
    | `Max_repeating -> Strategy.max_repeating ?semantics ?fragment g policy
  in
  let fragments =
    List.mapi
      (fun i v ->
        { value = v;
          rep = relabel (Printf.sprintf "f%d" i) (vertical ~fragment:(split_on, v) ()) })
      values
  in
  { split_attr = split_on; fragments; other = Some (relabel "rest" (vertical ())) }

let is_snf ?semantics g policy t =
  List.for_all
    (fun f -> Audit.is_snf ?semantics ~fragment:(t.split_attr, f.value) g policy f.rep)
    t.fragments
  && (match t.other with
      | None -> true
      | Some rep -> Audit.is_snf ?semantics g policy rep)

let total_leaves t =
  List.fold_left (fun acc f -> acc + List.length f.rep) 0 t.fragments
  + match t.other with None -> 0 | Some rep -> List.length rep

let materialize r t =
  let schema = Relation.schema r in
  let idx = Schema.index_of schema t.split_attr in
  let covered = List.map (fun f -> Value.encode f.value) t.fragments in
  let fragment_rows f =
    Relation.filter r (fun _ row -> Value.equal row.(idx) f.value)
  in
  let residual_rows () =
    Relation.filter r (fun _ row -> not (List.mem (Value.encode row.(idx)) covered))
  in
  List.map
    (fun f -> (Some f.value, Partition.materialize (fragment_rows f) f.rep))
    t.fragments
  @
  match t.other with
  | None -> []
  | Some rep -> [ (None, Partition.materialize (residual_rows ()) rep) ]

let reconstruct pieces =
  match pieces with
  | [] -> invalid_arg "Horizontal.reconstruct: empty input"
  | _ ->
    let reconstructed =
      List.filter_map
        (fun (_, mats) ->
          match mats with
          | [] -> None
          | (_, first) :: _ when Relation.cardinality first = 0 -> None
          | mats -> Some (Partition.reconstruct mats))
        pieces
    in
    (match reconstructed with
     | [] -> invalid_arg "Horizontal.reconstruct: all fragments empty"
     | first :: rest ->
       let order = List.sort String.compare (Schema.names (Relation.schema first)) in
       List.fold_left
         (fun acc r -> Relation.concat acc (Relation.project r order))
         (Relation.project first order)
         rest)

let pp fmt t =
  Format.fprintf fmt "@[<v>horizontal on %s (%d fragments, %d leaves total)@," t.split_attr
    (List.length t.fragments) (total_leaves t);
  List.iter
    (fun f ->
      Format.fprintf fmt "  [%s = %a] %d leaves@," t.split_attr Value.pp f.value
        (List.length f.rep))
    t.fragments;
  (match t.other with
   | None -> ()
   | Some rep -> Format.fprintf fmt "  [otherwise] %d leaves@," (List.length rep));
  Format.fprintf fmt "@]"
