open Snf_relational
module Dep_graph = Snf_deps.Dep_graph
module Leakage = Snf_core.Leakage
module Scheme = Snf_crypto.Scheme

type t = { owners : (string * System.owner) list }

let outsource ?semantics ?strategy ?mode ?(seed = 0x0d6) specs =
  let names = List.map (fun (n, _, _, _) -> n) specs in
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    invalid_arg "Multi.outsource: duplicate relation names";
  { owners =
      List.mapi
        (fun i (name, r, policy, graph) ->
          ( name,
            System.outsource ?semantics ?strategy ?graph ?mode ~seed:(seed + i)
              ~name r policy ))
        specs }

let owner db name =
  match List.assoc_opt name db.owners with
  | Some o -> o
  | None -> raise Not_found

(* --- cross-relation audit -------------------------------------------------- *)

let qualify rel attr = rel ^ "." ^ attr

let split_qualified q =
  match String.index_opt q '.' with
  | None -> None
  | Some i -> Some (String.sub q 0 i, String.sub q (i + 1) (String.length q - i - 1))

type cross_violation = {
  left : string * string;
  right : string * string;
  joint_kind : Leakage.kind;
}

(* The weakest (most revealing) scheme under which any leaf stores the
   attribute — what the adversary can observe about it at rest. *)
let observable_kind db rel attr =
  match List.assoc_opt rel db.owners with
  | None -> None
  | Some o ->
    let rep = o.System.plan.Snf_core.Normalizer.representation in
    let kinds =
      List.filter_map
        (fun l -> Option.map Leakage.of_scheme (Snf_core.Partition.scheme_in_leaf l attr))
        rep
    in
    (match kinds with [] -> None | ks -> Some (Leakage.join_all ks))

let cross_audit db g =
  let qualified = Snf_relational.Fd.Names.elements (Dep_graph.universe g) in
  let resolved =
    List.filter_map
      (fun q ->
        match split_qualified q with
        | Some (rel, attr) -> Some (q, rel, attr)
        | None -> None)
      qualified
  in
  let rec pairs = function
    | [] -> []
    | (q1, r1, a1) :: rest ->
      List.filter_map
        (fun (q2, r2, a2) ->
          if r1 = r2 then None (* intra-relation: Audit's job *)
          else if not (Dep_graph.dependent g q1 q2) then None
          else
            match (observable_kind db r1 a1, observable_kind db r2 a2) with
            | Some k1, Some k2 ->
              let joint = Leakage.join k1 k2 in
              if Leakage.equal_kind joint Leakage.Nothing
                 || Leakage.equal_kind k1 Leakage.Nothing
                 || Leakage.equal_kind k2 Leakage.Nothing
              then None
              else Some { left = (r1, a1); right = (r2, a2); joint_kind = joint }
            | _ -> None)
        rest
      @ pairs rest
  in
  pairs resolved

let is_cross_snf db g = cross_audit db g = []

(* --- secure cross-relation joins -------------------------------------------- *)

type join_spec = {
  left : string;
  right : string;
  on : string * string;
  select : (string * string) list;
  where : (string * Query.pred) list;
}

type join_trace = {
  left_trace : Executor.trace;
  right_trace : Executor.trace;
  join_comparisons : int;
  left_rows : int;
  right_rows : int;
  result_rows : int;
}

let side_query spec rel =
  let join_attr = if rel = spec.left then fst spec.on else snd spec.on in
  let projs =
    List.filter_map (fun (r, a) -> if r = rel then Some a else None) spec.select
  in
  let needed = List.sort_uniq String.compare (join_attr :: projs) in
  let preds = List.filter_map (fun (r, p) -> if r = rel then Some p else None) spec.where in
  { Query.select = needed; where = preds }

(* Oblivious value join of two enclave-resident intermediates: tagged
   entries sorted by (join key, side) through a bitonic network, equal-key
   runs expanded pairwise. *)
let oblivious_value_join ~counter left_keys right_keys =
  let entries =
    Array.append
      (Array.mapi (fun i k -> (k, 0, i)) left_keys)
      (Array.mapi (fun i k -> (k, 1, i)) right_keys)
  in
  Bitonic.sort ~counter
    ~cmp:(fun (k1, s1, _) (k2, s2, _) ->
      match String.compare k1 k2 with 0 -> Int.compare s1 s2 | c -> c)
    entries;
  let out = ref [] in
  let n = Array.length entries in
  let i = ref 0 in
  while !i < n do
    let key, _, _ = entries.(!i) in
    let j = ref !i in
    while !j < n && (let k, _, _ = entries.(!j) in k = key) do
      incr j
    done;
    let group = Array.sub entries !i (!j - !i) in
    let lefts = Array.to_list group |> List.filter_map (fun (_, s, r) -> if s = 0 then Some r else None) in
    let rights = Array.to_list group |> List.filter_map (fun (_, s, r) -> if s = 1 then Some r else None) in
    List.iter (fun l -> List.iter (fun r -> out := (l, r) :: !out) rights) lefts;
    i := !j
  done;
  List.rev !out

let output_schema spec (left_ans : Relation.t) (right_ans : Relation.t) =
  Schema.of_attributes
    (List.map
       (fun (rel, attr) ->
         let src = if rel = spec.left then left_ans else right_ans in
         let ty = (Schema.find_exn (Relation.schema src) attr).Attribute.ty in
         Attribute.make (qualify rel attr) ty)
       spec.select)

let assemble spec left_ans right_ans pairs =
  let schema = output_schema spec left_ans right_ans in
  let rows =
    List.map
      (fun (li, ri) ->
        Array.of_list
          (List.map
             (fun (rel, attr) ->
               if rel = spec.left then Relation.get left_ans ~row:li attr
               else Relation.get right_ans ~row:ri attr)
             spec.select))
      pairs
  in
  Relation.create schema rows

let check_spec db spec =
  if spec.left = spec.right then Error "self-joins are not supported"
  else if not (List.mem_assoc spec.left db.owners) then
    Error (Printf.sprintf "unknown relation %S" spec.left)
  else if not (List.mem_assoc spec.right db.owners) then
    Error (Printf.sprintf "unknown relation %S" spec.right)
  else if
    List.exists (fun (r, _) -> r <> spec.left && r <> spec.right) spec.select
    || List.exists (fun (r, _) -> r <> spec.left && r <> spec.right) spec.where
  then Error "projection/predicate references a relation outside the join"
  else if spec.select = [] then Error "empty projection"
  else Ok ()

let join ?mode db spec =
  match check_spec db spec with
  | Error e -> Error e
  | Ok () ->
    let run rel =
      Result.map
        (fun (ans, trace) -> (ans, trace))
        (System.query ?mode (owner db rel) (side_query spec rel))
    in
    (match (run spec.left, run spec.right) with
     | Error e, _ | _, Error e -> Error e
     | Ok (left_ans, lt), Ok (right_ans, rt) ->
       let counter = ref 0 in
       let keys side_ans attr =
         Array.map Value.encode (Relation.column side_ans attr)
       in
       let pairs =
         oblivious_value_join ~counter
           (keys left_ans (fst spec.on))
           (keys right_ans (snd spec.on))
       in
       let result = assemble spec left_ans right_ans pairs in
       Ok
         ( result,
           { left_trace = lt;
             right_trace = rt;
             join_comparisons = !counter;
             left_rows = Relation.cardinality left_ans;
             right_rows = Relation.cardinality right_ans;
             result_rows = Relation.cardinality result } ))

let reference_join db spec =
  let side rel =
    let o = owner db rel in
    Query.reference_answer o.System.plaintext (side_query spec rel)
  in
  let left_ans = side spec.left and right_ans = side spec.right in
  (* plain hash join on the join attributes *)
  let index = Hashtbl.create 64 in
  Array.iteri
    (fun i v -> Hashtbl.add index (Value.encode v) i)
    (Relation.column right_ans (snd spec.on));
  let pairs = ref [] in
  Array.iteri
    (fun li v ->
      List.iter (fun ri -> pairs := (li, ri) :: !pairs)
        (Hashtbl.find_all index (Value.encode v)))
    (Relation.column left_ans (fst spec.on));
  assemble spec left_ans right_ans (List.rev !pairs)

let bag r =
  Relation.rows r
  |> List.map (fun row ->
         String.concat "\x00" (List.map Value.encode (Array.to_list row)))
  |> List.sort String.compare

let verify_join ?mode db spec =
  match join ?mode db spec with
  | Error _ -> false
  | Ok (ans, _) -> bag ans = bag (reference_join db spec)
