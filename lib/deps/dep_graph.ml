open Snf_relational

type mode = Pessimistic | Optimistic

type evidence =
  | Functional of Fd.t
  | Correlated of float
  | Declared_dependent
  | Declared_independent

module Pair = struct
  type t = string * string

  let normalize (a, b) = if String.compare a b <= 0 then (a, b) else (b, a)

  let compare x y = Stdlib.compare (normalize x) (normalize y)
end

module Pair_map = Map.Make (Pair)

type t = {
  mode : mode;
  universe : Fd.Names.t;
  edges : evidence list Pair_map.t;
  fds : Fd.t list;
  (* (fragment attr, encoded fragment value) -> independent pairs there *)
  conditional : ((string * string) * (string * string)) list;
}

let create ?(mode = Optimistic) names =
  { mode;
    universe = Fd.Names.of_list names;
    edges = Pair_map.empty;
    fds = [];
    conditional = [] }

let mode t = t.mode
let universe t = t.universe

let check_attr t a =
  if not (Fd.Names.mem a t.universe) then
    invalid_arg (Printf.sprintf "Dep_graph: unknown attribute %S" a)

let add_evidence t a b e =
  check_attr t a;
  check_attr t b;
  if a = b then t
  else begin
    let key = Pair.normalize (a, b) in
    let existing = Option.value (Pair_map.find_opt key t.edges) ~default:[] in
    { t with edges = Pair_map.add key (e :: existing) t.edges }
  end

let declare_dependent t a b = add_evidence t a b Declared_dependent
let declare_independent t a b = add_evidence t a b Declared_independent

let add_fd t fd =
  let attrs = Fd.Names.elements (Fd.attrs fd) in
  List.iter (check_attr t) attrs;
  let t =
    Fd.Names.fold
      (fun l t -> Fd.Names.fold (fun r t -> add_evidence t l r (Functional fd)) fd.Fd.rhs t)
      fd.Fd.lhs t
  in
  { t with fds = fd :: t.fds }

let add_correlation t a b v = add_evidence t a b (Correlated v)

let fds t = t.fds

let evidence t a b =
  Option.value (Pair_map.find_opt (Pair.normalize (a, b)) t.edges) ~default:[]

let is_dependent_evidence = function
  | Functional _ | Correlated _ | Declared_dependent -> true
  | Declared_independent -> false

let dependent t a b =
  if a = b then true
  else
    match evidence t a b with
    | [] -> t.mode = Pessimistic
    | es ->
      (* Conflicting evidence resolves to dependent: the safe direction. *)
      List.exists is_dependent_evidence es

let decided t a b = a = b || evidence t a b <> []

let completeness t =
  let names = Fd.Names.elements t.universe in
  let total = ref 0 and explicit = ref 0 in
  let rec go = function
    | [] -> ()
    | a :: rest ->
      List.iter
        (fun b ->
          incr total;
          if evidence t a b <> [] then incr explicit)
        rest;
      go rest
  in
  go names;
  if !total = 0 then 1.0 else float_of_int !explicit /. float_of_int !total

let dependent_neighbors t a =
  Fd.Names.elements t.universe
  |> List.filter (fun b -> b <> a && dependent t a b)

let declare_conditional_independent t ~on:(attr, value) a b =
  check_attr t attr;
  check_attr t a;
  check_attr t b;
  { t with
    conditional = ((attr, Value.encode value), Pair.normalize (a, b)) :: t.conditional }

let dependent_in_fragment t ~on:(attr, value) a b =
  if a = b then true
  else begin
    let key = (attr, Value.encode value) in
    let pair = Pair.normalize (a, b) in
    let exempt = List.exists (fun (k, p) -> k = key && p = pair) t.conditional in
    (not exempt) && dependent t a b
  end

let explicit_pairs t =
  Pair_map.fold (fun (a, b) es acc -> (a, b, es) :: acc) t.edges []
  |> List.sort compare

let conditional_independences t =
  List.map (fun ((attr, enc), pair) -> ((attr, Value.decode enc), pair)) t.conditional

let restrict t subset =
  let universe = Fd.Names.inter t.universe subset in
  let edges =
    Pair_map.filter
      (fun (a, b) _ -> Fd.Names.mem a universe && Fd.Names.mem b universe)
      t.edges
  in
  let fds = List.filter (fun fd -> Fd.Names.subset (Fd.attrs fd) universe) t.fds in
  let conditional =
    List.filter
      (fun ((attr, _), (a, b)) ->
        Fd.Names.mem attr universe && Fd.Names.mem a universe && Fd.Names.mem b universe)
      t.conditional
  in
  { t with universe; edges; fds; conditional }

let of_relation ?(mode = Optimistic) ?(max_lhs = 1) ?correlation_threshold
    ?(exclude = fun _ -> false) r =
  let names = Schema.names (Relation.schema r) in
  let t = create ~mode names in
  let t =
    List.fold_left add_fd t (Fd_discovery.discover ~max_lhs ~exclude r)
  in
  match correlation_threshold with
  | None -> t
  | Some threshold ->
    List.fold_left
      (fun t (a, b, v) -> if exclude a || exclude b then t else add_correlation t a b v)
      t
      (Correlation.all_pairs ~threshold r)
