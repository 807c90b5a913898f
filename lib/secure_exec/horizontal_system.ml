open Snf_relational
module Horizontal = Snf_core.Horizontal

type segment = {
  condition : Value.t option;  (* None = residual *)
  owner : System.owner;
}

type t = { split_attr : string; segments : segment list }

let outsource ?(seed = 0x40f) ?master ~name r policy (h : Horizontal.t) =
  let schema = Relation.schema r in
  let idx = Schema.index_of schema h.Horizontal.split_attr in
  let covered = List.map (fun f -> Value.encode f.Horizontal.value) h.Horizontal.fragments in
  let rows_of = function
    | Some v -> Relation.filter r (fun _ row -> Value.equal row.(idx) v)
    | None ->
      Relation.filter r (fun _ row -> not (List.mem (Value.encode row.(idx)) covered))
  in
  let graph_for = Snf_deps.Dep_graph.create (Schema.names schema) in
  (* The per-segment plan is the horizontal plan's decision; segments only
     need a graph for bookkeeping, so an empty (optimistic) one is used —
     SNF was already established fragment-wise by Horizontal.is_snf. *)
  let make i condition rep =
    { condition;
      owner =
        System.outsource_prepared ~seed:(seed + i)
          ?master
          ~name:(Printf.sprintf "%s#%d" name i)
          ~graph:graph_for ~representation:rep (rows_of condition) policy }
  in
  let fragment_segments =
    List.mapi (fun i f -> make i (Some f.Horizontal.value) f.Horizontal.rep) h.Horizontal.fragments
  in
  let residual =
    match h.Horizontal.other with
    | None -> []
    | Some rep -> [ make (List.length h.Horizontal.fragments) None rep ]
  in
  { split_attr = h.Horizontal.split_attr; segments = fragment_segments @ residual }

let fragment_count t = List.length t.segments

let routed_to t (q : Query.t) =
  let pinned =
    List.find_map
      (function
        | Query.Point (a, v) when a = t.split_attr -> Some v
        | Query.Point _ | Query.Range _ -> None)
      q.Query.where
  in
  match pinned with
  | Some v
    when List.exists
           (fun s -> match s.condition with Some c -> Value.equal c v | None -> false)
           t.segments ->
    `Fragment v
  | Some _ | None -> `Fan_out

let query_segment ?mode s q = System.query ?mode s.owner q

let union_answers answers =
  let non_empty = List.filter (fun a -> Relation.cardinality a > 0) answers in
  match non_empty with
  | [] -> (match answers with a :: _ -> a | [] -> invalid_arg "no segments")
  | first :: rest ->
    List.fold_left
      (fun acc r -> Relation.concat acc (Relation.project r (Schema.names (Relation.schema acc))))
      first rest

let query ?mode t q =
  let targets =
    match routed_to t q with
    | `Fragment v ->
      List.filter
        (fun s -> match s.condition with Some c -> Value.equal c v | None -> false)
        t.segments
    | `Fan_out -> t.segments
  in
  let rec run acc_answers acc_traces = function
    | [] -> Ok (union_answers (List.rev acc_answers), List.rev acc_traces)
    | s :: rest -> (
      match query_segment ?mode s q with
      | Error e -> Error e
      | Ok (ans, trace) -> run (ans :: acc_answers) (trace :: acc_traces) rest)
  in
  run [] [] targets

let bag r =
  Relation.rows r
  |> List.map (fun row ->
         String.concat "\x00" (List.map Value.encode (Array.to_list row)))
  |> List.sort String.compare

let verify ?mode t q =
  match query ?mode t q with
  | Error _ -> false
  | Ok (ans, _) ->
    let full =
      List.map (fun s -> s.owner.System.plaintext) t.segments
      |> function
      | [] -> invalid_arg "no segments"
      | first :: rest -> List.fold_left Relation.concat first rest
    in
    bag ans = bag (Query.reference_answer full q)

let storage_bytes profile t =
  List.fold_left
    (fun acc s -> acc + System.storage_bytes profile s.owner)
    0 t.segments
