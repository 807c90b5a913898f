open Snf_relational
module Prng = Snf_crypto.Prng
module Dep_graph = Snf_deps.Dep_graph

type config = {
  rows : int;
  seed : int;
  cluster_sizes : int list;
  independent_attrs : int;
}

let default_config =
  { rows = 20_000;
    seed = 2013;
    cluster_sizes = [ 88; 33; 21; 13; 8; 5; 4; 4; 3; 3; 3; 2; 2; 2; 2 ];
    independent_attrs = 38 }

type t = {
  relation : Relation.t;
  graph : Dep_graph.t;
  clusters : string list list;
  independents : string list;
}

let cluster_prefix i =
  match i with
  | 0 -> "geo"
  | 1 -> "occ"
  | 2 -> "edu"
  | 3 -> "hh"
  | 4 -> "inc"
  | n -> Printf.sprintf "c%02d" n

let cluster_names config =
  List.mapi
    (fun ci size ->
      List.init size (fun j -> Printf.sprintf "%s_%02d" (cluster_prefix ci) j))
    config.cluster_sizes

let independent_names config =
  List.init config.independent_attrs (fun j -> Printf.sprintf "misc_%02d" j)

(* Every cluster member is an affine recode of the hidden root, giving the
   FD root -> member in the data and pairwise statistical dependence among
   members (the recode-family structure of real ACS columns). *)
type member_map = { mult : int; shift : int; codomain : int }

let apply_map m root = ((root * m.mult) + m.shift) mod m.codomain

let generate config =
  let prng = Prng.create config.seed in
  let clusters = cluster_names config in
  let independents = independent_names config in
  let names = List.concat clusters @ independents in
  let root_domain = 200 in
  let cluster_specs =
    List.map
      (fun members ->
        let maps =
          List.mapi
            (fun j _ ->
              if j = 0 then { mult = 1; shift = 0; codomain = root_domain }
              else
                { mult = 1 + Prng.int prng (root_domain - 1);
                  shift = Prng.int prng root_domain;
                  codomain = 5 + Prng.int prng 46 })
            members
        in
        let sampler = Prng.zipf_sampler prng ~s:1.07 root_domain in
        (members, maps, sampler))
      clusters
  in
  let independent_specs =
    List.map
      (fun name ->
        let domain = 10 + Prng.int prng 51 in
        (name, Prng.zipf_sampler prng ~s:1.07 domain))
      independents
  in
  (* Column-major fill. *)
  let n = config.rows in
  let columns = Hashtbl.create 256 in
  List.iter (fun a -> Hashtbl.add columns a (Array.make n Value.Null)) names;
  for row = 0 to n - 1 do
    List.iter
      (fun (members, maps, sampler) ->
        let root = sampler () in
        List.iter2
          (fun name m -> (Hashtbl.find columns name).(row) <- Value.Int (apply_map m root))
          members maps)
      cluster_specs;
    List.iter
      (fun (name, sampler) -> (Hashtbl.find columns name).(row) <- Value.Int (sampler ()))
      independent_specs
  done;
  let schema = Schema.of_attributes (List.map Attribute.int names) in
  let relation =
    Relation.of_columns schema
      (Array.of_list (List.map (fun a -> Hashtbl.find columns a) names))
  in
  (* Ground-truth dependence graph: complete within clusters (FD edges from
     the root plus declared sibling dependence), explicitly independent
     everywhere else, so the specification is complete in the paper's
     sense and the default mode is never consulted. *)
  let graph = ref (Dep_graph.create ~mode:Dep_graph.Optimistic names) in
  List.iter
    (fun members ->
      (match members with
       | root :: (_ :: _ as rest) ->
         graph := Dep_graph.add_fd !graph (Fd.make [ root ] rest)
       | _ -> ());
      let rec pairs = function
        | [] -> ()
        | a :: rest ->
          List.iter (fun b -> graph := Dep_graph.declare_dependent !graph a b) rest;
          pairs rest
      in
      pairs members)
    clusters;
  let cluster_of = Hashtbl.create 256 in
  List.iteri
    (fun ci members -> List.iter (fun a -> Hashtbl.add cluster_of a ci) members)
    clusters;
  let rec all_pairs = function
    | [] -> ()
    | a :: rest ->
      List.iter
        (fun b ->
          let ca = Hashtbl.find_opt cluster_of a and cb = Hashtbl.find_opt cluster_of b in
          let same_cluster = match (ca, cb) with Some x, Some y -> x = y | _ -> false in
          if not same_cluster then graph := Dep_graph.declare_independent !graph a b)
        rest;
      all_pairs rest
  in
  all_pairs names;
  { relation; graph = !graph; clusters; independents }
