(** Holistic dynamic-leakage accounting across a query session.

    The paper's subtitle promises {e holistic leakage accounting}; at rest
    that is the closure/audit machinery, but §II's dynamic leakages accrue
    {e per query}: every issued token tells the server which (encrypted)
    constant was searched, every executed plan reveals which leaves
    co-occur in queries, and every answer's cardinality leaks volume.
    This ledger wraps an owner and records exactly that adversary's view,
    so an owner can ask "what has the server learned from the workload so
    far?" and decide when to re-key or re-partition.

    The view is read from the wire. Each run is recorded with
    [Snf_obs.Wiretrace.record] and folded by [Snf_obs.Leakage]: the
    tokens are every search token the rounds carried
    ([Leakage.tokens]), the co-accessed leaves come from the per-query
    windows ([Leakage.queries]) and the traffic from the trace's
    profile. Cache and batch figures are
    deltas of the process counters from one snapshot taken at {!create}.
    Only result volumes and reconstruction rows come from the answers and
    the executor traces. [report] aggregates the session. *)

type t

val create : System.owner -> t

val owner : t -> System.owner

val query :
  ?mode:Executor.mode -> ?use_index:bool ->
  t -> Query.t -> (Snf_relational.Relation.t * Executor.trace, string) result
(** Execute and record: {!query_batch} of [[q]], which runs as
    {!System.query} would. Failed (unplannable) queries are not
    recorded. *)

val query_batch :
  ?mode:Executor.mode -> ?use_index:bool ->
  t -> Query.t list ->
  (Snf_relational.Relation.t * Executor.trace, string) result list
(** {!System.query_batch} under a wire recording, which nests inside
    any enclosing one: every answered query contributes its tokens, its
    window's co-accessed leaves, its volume and its reconstruction rows
    exactly as {!query} does, and the batch its round trips. Because
    the batch moves the process-wide counters as one unit,
    [query_metrics] gets the whole batch's delta on the first answered
    query's entry and [[]] for the rest — the same convention the
    executor uses for the batch's shared wire traffic — so per-entry
    sums still reconcile with process totals. *)

type attr_report = {
  attr : string;
  tokens_issued : int;
      (** search tokens the server received for [attr]: filter tokens
          and keyed index probes *)
  distinct_tokens : int;
    (** distinct token identities the server saw — equals the number of
        distinct plaintext constants for DET/OPE tokens sent the same
        way (scan or index probe) *)
}

type report = {
  queries : int;
  attrs : attr_report list;            (** sorted by tokens, descending *)
  co_access : ((string * string) * int) list;
    (** leaf pairs touched in the same query window, with counts — the
        linkage structure the workload reveals *)
  result_volumes : int list;           (** per query, in execution order *)
  total_reconstruction_rows : int;     (** rows through oblivious machinery *)
  wire_requests : int;
    (** round trips recorded while the ledger's queries ran — the
        session's traffic-shape leakage (excludes outsourcing/Install
        traffic) *)
  wire_bytes_up : int;                 (** serialized request bytes *)
  wire_bytes_down : int;               (** serialized response bytes *)
  index_hits : int;
    (** probe-side reads of a column's form ([Index_probe],
        [Q_store_stats]) since [create] — the delta of the process-wide
        ["exec.eq_index.hits"] counter (the same one [Enc_relation] bumps
        and the index ablation reads) *)
  index_misses : int;
    (** forms built since [create] (["exec.eq_index.builds"]): one per
        deterministic column of a store, leaf copy or paged-in leaf, on
        the server's first read of the column that needs its form *)
  tid_cache_hits : int;
    (** join tid-decrypt cache hits since [create] — delta of the
        process-wide ["exec.join.tid_cache.hits"] counter
        [Enc_relation.decrypt_tids_cached] bumps *)
  tid_cache_misses : int;              (** tid-decrypt cache misses (bulk
                                           decrypts actually performed) *)
  crypto_memo_hits : int;
    (** lookups the client's crypto memo answered since [create] —
        delta of the process-wide ["exec.mapping_cache.hits"] counter
        that [Enc_relation]'s OPE/ORE order parts (onion checks and
        tokens) and PHE cell decrypts bump, alone or batched *)
  crypto_memo_misses : int;            (** crypto-memo misses (crypto
                                           actually performed), from
                                           ["exec.mapping_cache.misses"] *)
  batches : int;
    (** batches of two or more executable queries since [create] —
        delta of the process-wide ["exec.batch.count"] counter. A lone
        query also sends its filters as a [Q_batch] (of one) but is
        not a batch and is not counted. *)
  batch_queries : int;                 (** queries carried by those batches *)
  query_metrics : (string * int) list list;
    (** per query, in execution order: every [Snf_obs] counter the query
        moved, with its delta (crypto ops, scans, comparisons, ...) *)
}

val report : t -> report

val pp_report : Format.formatter -> report -> unit
