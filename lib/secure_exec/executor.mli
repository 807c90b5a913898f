(** Secure query execution over an outsourced SNF representation
    (Algorithm 1, lines 5–12), as one pipeline.

    Roles, separated by module boundaries rather than processes:
    the {e server} evaluates predicate tokens on ciphertext columns and
    serves rows/bins; the {e enclave} (holding the client's keys, like the
    SGX deployment of §III-B) performs tid reconstruction obliviously; the
    {e client} mints tokens and decrypts the final answer. This module is
    the client half: everything the server does is reachable only through
    the serialized [Wire] messages carried by a [Server_api.conn], and
    column schemes come from the representation, never from server
    metadata.

    Every query, alone or in a batch, passes the same phases once: its
    planned leaves are resolved against the server's [Describe], tokens
    are minted (equality indexes probed under [use_index]), the server
    filters, the enclave reconstructs, the client decrypts, and one
    {!trace} record is built and published as [exec.query.*] counters.
    {!run_conn} is {!run_batch} of one query. Every executable query's
    filters ship in ONE [Wire.Q_batch] round trip, a lone query's as a
    batch of one, and the server walks each touched leaf once. One
    choice depends on the batch, and it is read from the batch itself,
    never from a knob: its query windows. With exactly one executable
    (planned) query, a single query window opens before [Describe]; no
    batch is announced and [exec.batch.*] do not move. With two or more,
    each query gets its own window inside a [batch.begin]/[batch.end]
    pair, opened after the shared fetch rounds, and
    [exec.batch.{count,queries}] tick.

    Every member resolves its own leaves, in plan order, exactly as a
    lone query does; reuse across members and across queries comes from
    the connection's tid-column memo, the client's tid cache and the
    client's per-column crypto memo ([Enc_relation.crypto_memo_cap]),
    which every query reads, alone or batched. Members share their
    fetch windows: after the filter round, every member that is not an
    [`Oram] or [`Binning] member over several leaves is reconstructed
    first, then one [Wire.Fetch_rows] per distinct (leaf, fetched
    attribute list) carries the ascending union of those members'
    slots, and each member reads its own rows from the shared windows.
    A lone query's windows are one per planned leaf that fetches
    anything, in plan order, so it crosses the wire as it would alone.

    Three reconstruction mechanisms ({!mode}); single-leaf plans need
    none:
    - [`Sort_merge] — oblivious sort-merge over full leaves: each leaf's
      tid order (slots sorted by tid through one bitonic network) is
      built once per key epoch and cached with its tid decrypts, and
      every query runs one lockstep pass over the orders, reading every
      rank and the selection mask bit at every slot the orders name
      ([Oblivious_join.lockstep]); leaves the pass cannot align raise
      [Integrity.Corruption];
    - [`Oram] — anchor-leaf selection, partner rows fetched through a
      Path ORAM the server builds and reads in one [Oram_fetch] per
      partner;
    - [`Binning of bin_size] — partner rows fetched by fixed-size keyed
      bins (PANDA-style), decoys included.

    All three return the same answer (tested against
    [Query.reference_answer]); they differ in the trace the server
    observes and the counters charged to the cost model. [`Oram] and
    [`Binning] run per query, anchored on that query's selections. *)

open Snf_relational

type mode = [ `Sort_merge | `Oram | `Binning of int ]

type trace = {
  plan : Planner.plan;
  decision : Planner.decision;  (** the planner's full verdict: estimate,
                                    rejected candidates, truncation notes,
                                    cache hit/miss — EXPLAIN's payload *)
  mode : mode;
  scanned_cells : int;          (** scan volume of the server's token
                                    ops: [row_count] each, whether the
                                    server scanned or answered an
                                    equality op from its index *)
  index_probes : int;           (** predicate work served by equality indexes *)
  comparisons : int;            (** enclave compare-exchanges; under
                                    sort-merge, those of the tid orders
                                    this query built — 0 when all were
                                    cached *)
  rows_processed : int;         (** rows through oblivious networks *)
  oram_bucket_touches : int;
  binning_retrieved : int;      (** rows fetched incl. decoys *)
  result_rows : int;
  wire_requests : int;          (** client→server messages this query *)
  wire_bytes_up : int;          (** serialized request bytes this query *)
  wire_bytes_down : int;        (** serialized response bytes this query *)
  estimated_seconds : float;    (** via [Cost_model.trace_seconds] *)
}

val run_conn :
  ?mode:mode ->
  ?planner:Planner.handle ->
  ?use_index:bool ->
  ?drop_tid:(int -> bool) ->
  Enc_relation.client ->
  Server_api.conn ->
  Snf_core.Partition.t ->
  Query.t ->
  (Relation.t * trace, string) result
(** Execute one query against a server connection: {!run_batch} of
    [[q]], so its filters cross in the single-query encoding. The
    trace's [wire_*] fields are the
    connection's traffic delta across the query (Describe through the
    last fetch).

    [mode] defaults to [`Sort_merge].

    [planner] (default [Planner.greedy]) chooses how queries are planned:
    the greedy cover heuristic or a cost-based handle
    ([System.cost_planner] / [Cost_model.planner] /
    [Planner.cost_based]). The resulting {!Planner.decision} is
    carried in the trace's [decision] field. The trace's
    [estimated_seconds] is priced with [Cost_model.default].

    With [use_index] (default false), point predicates over
    canonical-ciphertext columns are served from the server's equality
    index — §V-D "leakage as indexing"; index construction reveals
    nothing beyond the column's permissible equality leakage.

    [drop_tid] is the enclave-side tombstone filter: rows whose tid it
    selects are removed from every answer (how deletions work without
    re-encryption — see [Dynamic.delete]). Without one, no selected
    slot's tid is computed where the answer does not otherwise need it.

    The sort-merge path always memoises each leaf's tid decrypts and tid
    order through [Enc_relation.tid_order_cached], per leaf and key
    epoch. On a persistent connection that keeps working across queries
    because [Server_api.fetch_tids] returns the physically same array,
    without a round trip, while Describe announces the tid digest that
    array was checked against; a re-installed or changed column has
    another digest and is fetched, checked and decrypted afresh. To run
    a query's tid work cold, call [Enc_relation.bump_key_epoch] first.
    The tid cache is keyed by key epoch and physical identity, and the
    crypto memo's PHE table by ciphertext bytes, so re-encryption and
    tampered cells always miss, and answers are the same warm or cold.

    The answer's columns follow the query's projection order; row order
    is unspecified.

    Storage corruption — dropped or truncated leaves, tampered or
    relinked ciphertexts, stale index entries — raises the typed
    [Integrity.Corruption] rather than returning a wrong answer: leaf
    shapes are checked up front, index-served slots are bounds-checked
    and the query's own rows re-verified against the predicate after
    decryption (a window shared in a batch also holds other members'
    rows),
    every decrypt authenticates, and every decrypted tid must be the one
    its slot was written with (see [Enc_relation]). Use
    [System.query_checked] for a result-typed wrapper. *)

val run_batch :
  ?mode:mode ->
  ?planner:Planner.handle ->
  ?use_index:bool ->
  ?drop_tid:(int -> bool) ->
  Enc_relation.client ->
  Server_api.conn ->
  Snf_core.Partition.t ->
  Query.t list ->
  (Relation.t * trace, string) result list
(** Execute K queries as one pass, positionally: answers (and per-query
    planner errors) come back in request order, each with a full
    {!trace}, bag-identical to K {!run_conn} calls. Options as for
    {!run_conn}. A batch of one is {!run_conn}, on the wire and in every
    counter it moves.

    Trace accounting is exact: each trace carries its own minting and
    reconstruction traffic, the shared traffic (Describe, the filter
    round trip and the shared [Fetch_rows] rounds) is charged to the
    first executed query, and
    a tid order's comparisons are charged to the query that built it
    (later queries report zero). Summed traces therefore reconcile exactly
    with the global [exec.query.*] / [exec.wire.*] counter deltas —
    bit-identically for any SNF_DOMAINS.

    @raise Integrity.Corruption / [Invalid_argument] as {!run_conn};
    a failure aborts the whole batch. *)

val pp_trace : Format.formatter -> trace -> unit

val check_binned_slot :
  key:Snf_crypto.Prf.key -> universe:int -> Binning.schedule -> int -> unit
(** The [`Binning] path's cover check, run on every partner slot the
    enclave reads: the slot's bin ([Binning.assign]) must be one of the
    schedule's requested bins.
    @raise Invalid_argument ["Executor: partner slot outside the requested
    bins"] otherwise. *)
