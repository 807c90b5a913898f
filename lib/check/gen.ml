open Snf_relational
module Prng = Snf_crypto.Prng
module Scheme = Snf_crypto.Scheme
module Dep_graph = Snf_deps.Dep_graph
module Query = Snf_exec.Query

type spec = {
  seed : int;
  rows : int;
  clusters : int list;
  singles : int;
}

let clamp lo hi v = max lo (min hi v)

let normalize s =
  { seed = abs s.seed;
    rows = clamp 1 64 s.rows;
    clusters =
      (List.filteri (fun i _ -> i < 3) s.clusters |> List.map (clamp 2 5));
    singles = clamp 2 8 s.singles }

type instance = {
  spec : spec;
  name : string;
  relation : Relation.t;
  policy : Snf_core.Policy.t;
  graph : Dep_graph.t;
}

(* Weighted scheme draw: lean toward server-evaluable primitives so most
   attributes can carry predicates, but keep NDET/PHE in the mix to
   exercise client-side projection and the PHE encrypt/decrypt path. *)
let draw_scheme prng =
  match Prng.int prng 10 with
  | 0 | 1 | 2 -> Scheme.Det
  | 3 | 4 -> Scheme.Ope
  | 5 -> Scheme.Ore
  | 6 -> Scheme.Plain
  | 7 | 8 -> Scheme.Ndet
  | _ -> Scheme.Phe

let instance spec =
  let spec = normalize spec in
  let prng = Prng.create (spec.seed * 2654435761 + 0x5caff01d) in
  (* --- attribute layout -------------------------------------------------- *)
  let clusters =
    List.mapi
      (fun i size ->
        let root = Printf.sprintf "c%dr" i in
        let members = List.init (size - 1) (fun j -> Printf.sprintf "c%dm%d" i j) in
        (root, members))
      spec.clusters
  in
  let singles = List.init spec.singles (fun k -> Printf.sprintf "s%d" k) in
  let names =
    List.concat_map (fun (root, members) -> root :: members) clusters @ singles
  in
  (* --- schemes ----------------------------------------------------------- *)
  let scheme_of =
    let tbl = Hashtbl.create 16 in
    List.iter (fun a -> Hashtbl.add tbl a (draw_scheme prng)) names;
    (* Guarantee one point-indexable and one order-revealing column. *)
    Hashtbl.replace tbl "s0" Scheme.Det;
    Hashtbl.replace tbl "s1" Scheme.Ope;
    fun a -> Hashtbl.find tbl a
  in
  let policy = Snf_core.Policy.create (List.map (fun a -> (a, scheme_of a)) names) in
  (* --- values ------------------------------------------------------------ *)
  (* Root/singleton codes are skewed (Census categoricals are); members are
     deterministic affine functions of their cluster root — the planted FD. *)
  let card () = 2 + Prng.int prng 6 in
  let skewed prng card = if Prng.int prng 3 = 0 then 0 else Prng.int prng card in
  let columns = Hashtbl.create 16 in
  List.iter
    (fun (root, members) ->
      let root_card = card () in
      let root_vals = Array.init spec.rows (fun _ -> skewed prng root_card) in
      Hashtbl.add columns root root_vals;
      List.iter
        (fun m ->
          let a = 1 + Prng.int prng 5
          and b = Prng.int prng 7
          and c = card () in
          Hashtbl.add columns m (Array.map (fun r -> ((r * a) + b) mod c) root_vals))
        members)
    clusters;
  List.iter
    (fun s ->
      let c = card () in
      Hashtbl.add columns s (Array.init spec.rows (fun _ -> skewed prng c)))
    singles;
  let schema = Schema.of_attributes (List.map Attribute.int names) in
  let relation =
    Relation.of_columns schema
      (Array.of_list
         (List.map
            (fun a -> Array.map (fun i -> Value.Int i) (Hashtbl.find columns a))
            names))
  in
  (* --- planted dependence graph ------------------------------------------ *)
  let graph = ref (Dep_graph.create ~mode:Dep_graph.Optimistic names) in
  List.iter
    (fun (root, members) ->
      if members <> [] then graph := Dep_graph.add_fd !graph (Fd.make [ root ] members);
      let all = root :: members in
      List.iteri
        (fun i a ->
          List.iteri (fun j b -> if i < j then graph := Dep_graph.declare_dependent !graph a b) all)
        all)
    clusters;
  let cluster_of = Hashtbl.create 16 in
  List.iteri
    (fun i (root, members) ->
      List.iter (fun a -> Hashtbl.add cluster_of a i) (root :: members))
    clusters;
  let independent a b =
    match (Hashtbl.find_opt cluster_of a, Hashtbl.find_opt cluster_of b) with
    | Some i, Some j -> i <> j
    | _ -> true
  in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j && independent a b then
            graph := Dep_graph.declare_independent !graph a b)
        names)
    names;
  { spec;
    name = Printf.sprintf "chk%dx%d" spec.seed spec.rows;
    relation;
    policy;
    graph = !graph }

(* --- query workloads ------------------------------------------------------ *)

let value_pool inst attr =
  let col = Relation.column inst.relation attr in
  if Array.length col = 0 then [| Value.Int 0 |] else col

let queries ?(count = 25) ~seed inst =
  let prng = Prng.create (seed * 48271 + 0x9e3779b9) in
  let names = Schema.names (Relation.schema inst.relation) in
  let eq_attrs =
    List.filter
      (fun a -> Scheme.supports_equality_predicate (Snf_core.Policy.scheme_of inst.policy a))
      names
  and ord_attrs =
    List.filter
      (fun a -> Scheme.supports_range_predicate (Snf_core.Policy.scheme_of inst.policy a))
      names
  in
  let pick_distinct pool k =
    let arr = Array.of_list pool in
    Prng.shuffle prng arr;
    Array.to_list (Array.sub arr 0 (min k (Array.length arr)))
  in
  let select () =
    match pick_distinct names (1 + Prng.int prng 3) with
    | [] -> [ List.hd names ]
    | s -> s
  in
  let live_constant attr = Prng.pick prng (value_pool inst attr) in
  let miss_constant _attr = Value.Int (1000 + Prng.int prng 50) in
  let point_pred hit attr =
    (attr, if hit then live_constant attr else miss_constant attr)
  in
  let range_pred attr =
    match (live_constant attr, live_constant attr) with
    | Value.Int a, Value.Int b ->
      let lo = min a b and hi = max a b in
      (* occasionally a degenerate or whole-domain range *)
      (match Prng.int prng 4 with
       | 0 -> (attr, Value.Int lo, Value.Int lo)
       | 1 -> (attr, Value.Int 0, Value.Int 2000)
       | _ -> (attr, Value.Int lo, Value.Int hi))
    | _, _ -> (attr, Value.Int 0, Value.Int 2000)
  in
  let one i =
    let hit = Prng.int prng 5 <> 0 in
    match (Prng.int prng 6, eq_attrs, ord_attrs) with
    | 0, _, _ ->
      (* predicate-free full scan *)
      { Query.select = select (); where = [] }
    | (1 | 2), _ :: _, _ ->
      let way = 1 + Prng.int prng (min 3 (List.length eq_attrs)) in
      Query.point ~select:(select ())
        (List.map (point_pred hit) (pick_distinct eq_attrs way))
    | 3, _, o :: _ -> Query.range ~select:(select ()) [ range_pred o ]
    | 4, _ :: _, _ :: _ ->
      (* mixed conjunction: one point + one range, distinct attrs *)
      let e = Prng.pick prng (Array.of_list eq_attrs) in
      let o =
        match List.filter (( <> ) e) ord_attrs with
        | [] -> None
        | rest -> Some (Prng.pick prng (Array.of_list rest))
      in
      let a, v = point_pred hit e in
      let base = { Query.select = select (); where = [ Query.Point (a, v) ] } in
      (match o with
       | None -> base
       | Some o ->
         let a', lo, hi = range_pred o in
         { base with Query.where = base.Query.where @ [ Query.Range (a', lo, hi) ] })
    | _, _ :: _, _ ->
      Query.point ~select:(select ())
        (List.map (point_pred true) (pick_distinct eq_attrs 1))
    | _ ->
      ignore i;
      { Query.select = select (); where = [] }
  in
  List.init count one

(* --- qcheck integration --------------------------------------------------- *)

let spec_gen =
  let open QCheck2.Gen in
  let* rows = 1 -- 28 in
  let* nclusters = 0 -- 2 in
  let* clusters = list_repeat nclusters (2 -- 4) in
  let* singles = 2 -- 5 in
  let+ seed = 0 -- 0xFFFF in
  normalize { seed; rows; clusters; singles }

let spec_to_string s =
  Printf.sprintf "seed=%d rows=%d clusters=%s singles=%d" s.seed s.rows
    (if s.clusters = [] then "-"
     else String.concat "," (List.map string_of_int s.clusters))
    s.singles
