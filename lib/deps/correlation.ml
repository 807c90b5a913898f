open Snf_relational

type table = {
  joint : (string * string, int) Hashtbl.t;
  left : (string, int) Hashtbl.t;
  right : (string, int) Hashtbl.t;
  total : int;
}

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0)

let contingency r a b =
  let ca = Relation.column r a and cb = Relation.column r b in
  let joint = Hashtbl.create 256 in
  let left = Hashtbl.create 64 in
  let right = Hashtbl.create 64 in
  let n = Relation.cardinality r in
  for i = 0 to n - 1 do
    let x = Value.encode ca.(i) and y = Value.encode cb.(i) in
    bump joint (x, y);
    bump left x;
    bump right y
  done;
  { joint; left; right; total = n }

let mutual_information t =
  if t.total = 0 then 0.0
  else begin
    let n = float_of_int t.total in
    Hashtbl.fold
      (fun (x, y) nxy acc ->
        let pxy = float_of_int nxy /. n in
        let px = float_of_int (Hashtbl.find t.left x) /. n in
        let py = float_of_int (Hashtbl.find t.right y) /. n in
        acc +. (pxy *. (Float.log (pxy /. (px *. py)) /. Float.log 2.0)))
      t.joint 0.0
  end

let chi_square t =
  if t.total = 0 then 0.0
  else begin
    let n = float_of_int t.total in
    (* Sum over all (x, y) cells with a non-zero expectation; absent joint
       cells contribute expected^2 / expected = expected. *)
    let observed_part =
      Hashtbl.fold
        (fun (x, y) nxy acc ->
          let expected =
            float_of_int (Hashtbl.find t.left x)
            *. float_of_int (Hashtbl.find t.right y)
            /. n
          in
          let d = float_of_int nxy -. expected in
          acc +. (d *. d /. expected) -. expected)
        t.joint 0.0
    in
    (* Add back the full sum of expectations (= n) to cover zero cells. *)
    observed_part +. n
  end

let cramers_v t =
  let ka = Hashtbl.length t.left and kb = Hashtbl.length t.right in
  let m = min (ka - 1) (kb - 1) in
  if m <= 0 || t.total = 0 then 0.0
  else Float.sqrt (chi_square t /. (float_of_int t.total *. float_of_int m))

let all_pairs ?(threshold = 0.3) r =
  let names = Schema.names (Relation.schema r) in
  let rec pairs = function
    | [] -> []
    | a :: rest -> List.map (fun b -> (a, b)) rest @ pairs rest
  in
  pairs names
  |> List.filter_map (fun (a, b) ->
         let v = cramers_v (contingency r a b) in
         if v >= threshold then Some (a, b, v) else None)
  |> List.sort (fun (_, _, v1) (_, _, v2) -> Float.compare v2 v1)
