open Snf_relational
module Metrics = Snf_obs.Metrics

(* Same process-wide counters [Enc_relation.eq_index] bumps — registration
   is idempotent by name, so there is exactly one accounting source shared
   with the index ablation and the executor. *)
let m_idx_hits = Metrics.counter "exec.eq_index.hits"
let m_idx_builds = Metrics.counter "exec.eq_index.builds"
let m_tid_hits = Metrics.counter "exec.join.tid_cache.hits"
let m_tid_misses = Metrics.counter "exec.join.tid_cache.misses"
let m_map_hits = Metrics.counter "exec.mapping_cache.hits"
let m_map_misses = Metrics.counter "exec.mapping_cache.misses"
let m_batches = Metrics.counter "exec.batch.count"
let m_batch_queries = Metrics.counter "exec.batch.queries"

type t = {
  owner : System.owner;
  (* (attr, canonical token fingerprint) -> count *)
  tokens : (string * string, int) Hashtbl.t;
  co_access : (string * string, int) Hashtbl.t;
  mutable volumes : int list; (* newest first *)
  mutable queries : int;
  mutable reconstruction_rows : int;
  mutable wire_requests : int;
  mutable wire_bytes_up : int;
  mutable wire_bytes_down : int;
  (* Process counters are cumulative; the ledger reports deltas from its
     creation. *)
  idx_hits0 : int;
  idx_builds0 : int;
  tid_hits0 : int;
  tid_misses0 : int;
  map_hits0 : int;
  map_misses0 : int;
  batches0 : int;
  batch_queries0 : int;
  mutable query_metrics : (string * int) list list; (* newest first *)
}

let create owner =
  { owner;
    tokens = Hashtbl.create 64;
    co_access = Hashtbl.create 64;
    volumes = [];
    queries = 0;
    reconstruction_rows = 0;
    wire_requests = 0;
    wire_bytes_up = 0;
    wire_bytes_down = 0;
    idx_hits0 = Metrics.value m_idx_hits;
    idx_builds0 = Metrics.value m_idx_builds;
    tid_hits0 = Metrics.value m_tid_hits;
    tid_misses0 = Metrics.value m_tid_misses;
    map_hits0 = Metrics.value m_map_hits;
    map_misses0 = Metrics.value m_map_misses;
    batches0 = Metrics.value m_batches;
    batch_queries0 = Metrics.value m_batch_queries;
    query_metrics = [] }

let owner t = t.owner

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0)

(* The server-visible fingerprint of a predicate: the attribute plus the
   constant's encoding. For DET/OPE the token is deterministic, so equal
   constants produce equal fingerprints — exactly what the server sees. *)
let record_predicates t (q : Query.t) =
  List.iter
    (fun (p : Query.pred) ->
      let fingerprint =
        match p with
        | Query.Point (a, v) -> (a, "=" ^ Value.encode v)
        | Query.Range (a, lo, hi) -> (a, "[" ^ Value.encode lo ^ ";" ^ Value.encode hi)
      in
      bump t.tokens fingerprint)
    q.Query.where

let record_plan t (trace : Executor.trace) =
  let leaves = List.sort String.compare trace.Executor.plan.Planner.leaves in
  let rec pairs = function
    | [] -> ()
    | a :: rest ->
      List.iter (fun b -> bump t.co_access (a, b)) rest;
      pairs rest
  in
  pairs leaves

let record_answered t q ans (trace : Executor.trace) =
  t.queries <- t.queries + 1;
  record_predicates t q;
  record_plan t trace;
  t.volumes <- Relation.cardinality ans :: t.volumes;
  t.reconstruction_rows <-
    t.reconstruction_rows + trace.Executor.rows_processed
    + trace.Executor.binning_retrieved;
  t.wire_requests <- t.wire_requests + trace.Executor.wire_requests;
  t.wire_bytes_up <- t.wire_bytes_up + trace.Executor.wire_bytes_up;
  t.wire_bytes_down <- t.wire_bytes_down + trace.Executor.wire_bytes_down

(* A batch moves the process counters once, for everyone: the whole delta
   is attached to the first answered query's [query_metrics] entry (the one
   the executor also charges the shared traffic to) and the rest get [],
   so summing per-query entries still reconciles with the process totals.
   A batch of one therefore records exactly its own delta. *)
let query_batch ?mode ?use_index t qs =
  let before = Metrics.snapshot () in
  let results = System.query_batch ?mode ?use_index t.owner qs in
  let batch_delta = ref (Some (Metrics.counter_diff before (Metrics.snapshot ()))) in
  List.iter2
    (fun q result ->
      match result with
      | Error _ -> ()
      | Ok (ans, trace) ->
        record_answered t q ans trace;
        let entry = match !batch_delta with Some d -> batch_delta := None; d | None -> [] in
        t.query_metrics <- entry :: t.query_metrics)
    qs results;
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
  mapping_cache_hits : int;
  mapping_cache_misses : int;
  batches : int;
  batch_queries : int;
  query_metrics : (string * int) list list;
}

let report t =
  let per_attr = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (attr, _) count ->
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
    index_hits = Metrics.value m_idx_hits - t.idx_hits0;
    index_misses = Metrics.value m_idx_builds - t.idx_builds0;
    tid_cache_hits = Metrics.value m_tid_hits - t.tid_hits0;
    tid_cache_misses = Metrics.value m_tid_misses - t.tid_misses0;
    mapping_cache_hits = Metrics.value m_map_hits - t.map_hits0;
    mapping_cache_misses = Metrics.value m_map_misses - t.map_misses0;
    batches = Metrics.value m_batches - t.batches0;
    batch_queries = Metrics.value m_batch_queries - t.batch_queries0;
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
  if r.mapping_cache_hits + r.mapping_cache_misses > 0 then
    Format.fprintf fmt "  mapping cache: %d hits, %d misses@," r.mapping_cache_hits
      r.mapping_cache_misses;
  if r.batches > 0 then
    Format.fprintf fmt "  batches: %d (%d queries)@," r.batches r.batch_queries;
  Format.fprintf fmt "@]"
