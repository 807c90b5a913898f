open Snf_relational
module Metrics = Snf_obs.Metrics
module Leakage = Snf_obs.Leakage

(* The server's view comes from the wire: each run is recorded and its
   SNFT rounds folded by [Leakage]. Cache and batch figures are deltas of
   the process counters from the snapshot taken at [create]; only volumes
   and reconstruction rows come from the answers and executor traces. *)
type t = {
  owner : System.owner;
  base : Metrics.snapshot;
  tokens : (Leakage.token, int) Hashtbl.t; (* token identity -> count *)
  co_access : (string * string, int) Hashtbl.t;
  mutable volumes : int list; (* newest first *)
  mutable queries : int;
  mutable reconstruction_rows : int;
  mutable wire_requests : int;
  mutable wire_bytes_up : int;
  mutable wire_bytes_down : int;
  mutable query_metrics : (string * int) list list; (* newest first *)
}

let create owner =
  { owner;
    base = Metrics.snapshot ();
    tokens = Hashtbl.create 64;
    co_access = Hashtbl.create 64;
    volumes = [];
    queries = 0;
    reconstruction_rows = 0;
    wire_requests = 0;
    wire_bytes_up = 0;
    wire_bytes_down = 0;
    query_metrics = [] }

let owner t = t.owner

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0)

(* Every pair of leaves a query window touched together. *)
let record_co_access t (v : Leakage.query_view) =
  let rec pairs = function
    | [] -> ()
    | a :: rest ->
      List.iter (fun b -> bump t.co_access (a, b)) rest;
      pairs rest
  in
  pairs v.Leakage.q_leaves

(* From the recorded rounds: every search token they carried (filter
   tokens and keyed index probes, which inside a batch run before any
   query window opens), one window per executed — hence answered —
   query, and the traffic. A batch moves the process counters once, for
   everyone: the whole delta is attached to the first answered query's
   [query_metrics] entry (the one the executor also charges the shared
   traffic to) and the rest get [], so summing per-query entries still
   reconciles with the process totals. A batch of one therefore records
   exactly its own delta. *)
let query_batch ?mode ?use_index t qs =
  let before = Metrics.snapshot () in
  let results, trace =
    System.record_wire_trace (fun () -> System.query_batch ?mode ?use_index t.owner qs)
  in
  let batch_delta = ref (Some (Metrics.counter_diff before (Metrics.snapshot ()))) in
  List.iter (bump t.tokens) (Leakage.tokens trace);
  List.iter (record_co_access t) (Leakage.queries trace);
  let p = Leakage.profile trace in
  t.wire_requests <- t.wire_requests + p.Leakage.p_rounds;
  t.wire_bytes_up <- t.wire_bytes_up + p.Leakage.p_bytes_up;
  t.wire_bytes_down <- t.wire_bytes_down + p.Leakage.p_bytes_down;
  List.iter
    (function
      | Error _ -> ()
      | Ok (ans, (trace : Executor.trace)) ->
        t.queries <- t.queries + 1;
        t.volumes <- Relation.cardinality ans :: t.volumes;
        t.reconstruction_rows <-
          t.reconstruction_rows + trace.Executor.rows_processed
          + trace.Executor.binning_retrieved;
        let entry = match !batch_delta with Some d -> batch_delta := None; d | None -> [] in
        t.query_metrics <- entry :: t.query_metrics)
    results;
  results

let query ?mode ?use_index t q = List.hd (query_batch ?mode ?use_index t [ q ])

type attr_report = {
  attr : string;
  tokens_issued : int;
  distinct_tokens : int;
}

type report = {
  queries : int;
  attrs : attr_report list;
  co_access : ((string * string) * int) list;
  result_volumes : int list;
  total_reconstruction_rows : int;
  wire_requests : int;
  wire_bytes_up : int;
  wire_bytes_down : int;
  index_hits : int;
  index_misses : int;
  tid_cache_hits : int;
  tid_cache_misses : int;
  crypto_memo_hits : int;
  crypto_memo_misses : int;
  batches : int;
  batch_queries : int;
  query_metrics : (string * int) list list;
}

let report t =
  let per_attr = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (tok : Leakage.token) count ->
      let attr = tok.Leakage.t_attr in
      let issued, distinct =
        Option.value (Hashtbl.find_opt per_attr attr) ~default:(0, 0)
      in
      Hashtbl.replace per_attr attr (issued + count, distinct + 1))
    t.tokens;
  let attrs =
    Hashtbl.fold
      (fun attr (tokens_issued, distinct_tokens) acc ->
        { attr; tokens_issued; distinct_tokens } :: acc)
      per_attr []
    |> List.sort (fun a b ->
           match Int.compare b.tokens_issued a.tokens_issued with
           | 0 -> String.compare a.attr b.attr
           | c -> c)
  in
  let moved = Metrics.counter_diff t.base (Metrics.snapshot ()) in
  let moved name = Option.value (List.assoc_opt name moved) ~default:0 in
  { queries = t.queries;
    attrs;
    co_access =
      Hashtbl.fold (fun pair n acc -> (pair, n) :: acc) t.co_access []
      |> List.sort (fun ((_, _), n1) ((_, _), n2) -> Int.compare n2 n1);
    result_volumes = List.rev t.volumes;
    total_reconstruction_rows = t.reconstruction_rows;
    wire_requests = t.wire_requests;
    wire_bytes_up = t.wire_bytes_up;
    wire_bytes_down = t.wire_bytes_down;
    index_hits = moved "exec.eq_index.hits";
    index_misses = moved "exec.eq_index.builds";
    tid_cache_hits = moved "exec.join.tid_cache.hits";
    tid_cache_misses = moved "exec.join.tid_cache.misses";
    crypto_memo_hits = moved "exec.mapping_cache.hits";
    crypto_memo_misses = moved "exec.mapping_cache.misses";
    batches = moved "exec.batch.count";
    batch_queries = moved "exec.batch.queries";
    query_metrics = List.rev t.query_metrics }

let pp_report fmt r =
  Format.fprintf fmt "@[<v>session: %d queries, %d rows through reconstruction@,"
    r.queries r.total_reconstruction_rows;
  List.iter
    (fun a ->
      Format.fprintf fmt "  %s: %d tokens (%d distinct constants)@," a.attr
        a.tokens_issued a.distinct_tokens)
    r.attrs;
  List.iter
    (fun ((l1, l2), n) -> Format.fprintf fmt "  co-accessed %s + %s: %d times@," l1 l2 n)
    r.co_access;
  if r.wire_requests > 0 then
    Format.fprintf fmt "  wire: %d requests, %d B up, %d B down@," r.wire_requests
      r.wire_bytes_up r.wire_bytes_down;
  if r.index_hits + r.index_misses > 0 then
    Format.fprintf fmt "  eq-index cache: %d hits, %d builds@," r.index_hits
      r.index_misses;
  if r.tid_cache_hits + r.tid_cache_misses > 0 then
    Format.fprintf fmt "  tid-decrypt cache: %d hits, %d misses@," r.tid_cache_hits
      r.tid_cache_misses;
  if r.crypto_memo_hits + r.crypto_memo_misses > 0 then
    Format.fprintf fmt "  crypto memo: %d hits, %d misses@," r.crypto_memo_hits
      r.crypto_memo_misses;
  if r.batches > 0 then
    Format.fprintf fmt "  batches: %d (%d queries)@," r.batches r.batch_queries;
  Format.fprintf fmt "@]"
