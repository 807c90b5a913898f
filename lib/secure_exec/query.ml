open Snf_relational

type pred =
  | Point of string * Value.t
  | Range of string * Value.t * Value.t

type t = { select : string list; where : pred list }

let point ~select where =
  if select = [] then invalid_arg "Query.point: empty projection";
  { select; where = List.map (fun (a, v) -> Point (a, v)) where }

let range ~select where =
  if select = [] then invalid_arg "Query.range: empty projection";
  { select; where = List.map (fun (a, lo, hi) -> Range (a, lo, hi)) where }

let pred_attr = function Point (a, _) -> a | Range (a, _, _) -> a

let way q =
  List.length (List.sort_uniq String.compare (List.map pred_attr q.where))

let to_algebra q =
  let pred_of = function
    | Point (a, v) -> Algebra.Eq (a, v)
    | Range (a, lo, hi) -> Algebra.Between (a, lo, hi)
  in
  match q.where with
  | [] -> None
  | p :: rest ->
    Some (List.fold_left (fun acc p -> Algebra.And (acc, pred_of p)) (pred_of p) rest)

let reference_answer r q =
  let filtered =
    match to_algebra q with None -> r | Some p -> Algebra.select p r
  in
  Relation.project filtered q.select

let pp fmt q =
  let pp_pred fmt = function
    | Point (a, v) -> Format.fprintf fmt "%s = %a" a Value.pp v
    | Range (a, lo, hi) ->
      Format.fprintf fmt "%s BETWEEN %a AND %a" a Value.pp lo Value.pp hi
  in
  Format.fprintf fmt "SELECT %s WHERE %a"
    (String.concat ", " q.select)
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " AND ") pp_pred)
    q.where
