(** Sharded scatter-gather execution: one logical store fanned across N
    inner backends behind a single [Server_api.conn].

    The coordinator partitions the store image row-wise at [Install]
    time (every leaf exists on every shard, possibly empty), routes each
    SNFM request to the owning shards, executes the per-shard legs —
    in-process legs on at most [Parallel.domain_count ()] lanes, so a
    one-domain coordinator runs them in turn on the calling domain; if
    any leg's connection is a socket ([Server_api.backend_name] is
    ["socket"]), one lane per leg, so the legs overlap on the wire
    whatever the domain count — and merges the per-shard answers back
    into the {e byte-identical} single-backend response. Every slot set
    a request names is split once into per-shard local slot arrays,
    keeping each slot's owner and position for the merge:

    {ul
    {- [Q_batch]: token ops are forwarded verbatim and [F_slots] sets
       split into shard-local slots; the local match masks scatter
       back into global positions and the scanned-cell counts add up, so
       every merged [R_batch] mask is bit-for-bit what one backend
       scanning the whole leaf would return.}
    {- [Index_probe]: every shard probes its part of the column's form
       (keeping the hit accounting uniform); local hits map to
       global slots and the union is sorted descending — the order a
       single backend answers in.}
    {- [Describe]: fanned out so every shard checks its stored shapes
       (a corrupt shard fails the Describe), then answered by the
       coordinator. Each leaf's tid digest is computed at [Install] from
       the full image, so it is the digest a single backend would
       describe.}
    {- [Fetch_rows] / [Fetch_tids]: positional reassembly of the owning
       shards' cells. A fetch goes only to the shards that own a
       requested slot, after the coordinator has checked the leaf, the
       slots and every attribute as a single backend would.}
    {- [Phe_sum] / [Group_sum]: per-shard Paillier partials combine in
       one [Paillier.sum] per answer (per group), the fold the server
       itself runs — modular multiplication is commutative and
       associative, and ciphertext bytes are canonical — with group
       lists merged on {!Enc_relation.canonical_key} in the same
       ascending order the server emits.}}

    Because the merged responses are byte-identical, everything above
    the connection — executor, oblivious join, caches, SNFT
    recorder — runs unchanged, and the differential harness can demand
    exact bag + counter + wire parity against a single backend.

    {b Leakage.} Each shard sees a strict sub-profile of the
    single-server leakage: the same token identities, but only its own
    rows' membership in each match set, plus its local row count. The
    coordinator (deployed as a router in the untrusted domain) sees
    exactly what a single server would have seen — no new leakage is
    minted; placement itself is computed only from server-visible
    canonical ciphertext bytes ({!Enc_relation.canonical_key}).

    {b Shard answers are checked.} Every shard's mask, tid column and
    fetched rows must cover exactly the rows placed on that shard, and
    its batch answer must have the batch's shape; anything else raises
    [Integrity.Corruption] (where ["store"]). An index slot outside a
    shard's rows is corruption where ["index"].

    {b Accounting.} Inner traffic crosses {!Server_api.exchange_raw},
    so boundary counters ([exec.wire.*], SNFT) count the outer
    connection exactly once; the coordinator accounts its fan-out in
    per-shard [exec.wire.shard<i>.{requests,bytes_up,bytes_down}]
    counters, flushed by [Parallel] as each pool leg finishes — totals
    are bit-identical for any [SNF_DOMAINS], and shard imbalance shows up
    per query in [Ledger] reports. Per-shard row placement is published
    in [exec.shard<i>.rows] gauges at install. *)

type policy =
  | Hash  (** placement by MD5 of the canonical key, modulo shard count *)
  | Skew
      (** skew-aware: value groups sorted by descending frequency, then
          greedily assigned to the least-loaded shard (LPT). The planted
          Zipf skew of the ACS workload is exactly what this absorbs:
          max shard load is bounded by [avg + largest group]. *)

val policy_name : policy -> string
val policy_of_string : string -> policy option

val assignment : policy -> shards:int -> Enc_relation.t -> (string * int array) list
(** Per leaf (stored order), the owner shard of every global slot.
    Deterministic: a pure function of the ciphertext image and the
    policy. Rows are fingerprinted by the {!Enc_relation.canonical_key}
    of the leaf's first canonical column (falling back to the NDET tid
    ciphertext when no column reveals equality), so one value group
    always lands on one shard. Exposed for tests and benches to measure
    imbalance without building connections. *)

val shard_loads : shards:int -> (string * int array) list -> int array
(** Rows per shard under an {!assignment}. *)

type t

val create :
  ?policy:policy ->
  connect:(int -> Server_api.conn) ->
  shards:int ->
  unit ->
  t
(** A coordinator over [shards] inner backends; [connect i] dials shard
    [i] (an in-process [Server_api.connect] or a socket
    [Snf_net.Client] connection — any mix). Connections are opened
    lazily on {!connect} and re-opened after a close, so a
    reconnect-and-retry after a shard failure is just close + connect.
    Default policy {!Hash}. @raise Invalid_argument if [shards < 1]. *)

val shard_count : t -> int
val policy : t -> policy

val connect : t -> Server_api.conn
(** The outer connection (backend name ["sharded"]). Closing it closes
    the inner shard connections. Transport exceptions from an inner
    connection (e.g. [Snf_net.Client.Disconnected]) pass through
    outer calls untouched, after all surviving shards' legs of the
    fan-out have completed. *)

val shard_stats : t -> Server_api.wire_stats array
(** Per-shard cumulative inner traffic (zeros when disconnected). The
    summed deltas reconcile bit-identically with the per-shard
    [exec.wire.shard<i>.*] counter movement. *)

val loads : t -> int array
(** Rows per shard of the currently installed store (zeros before any
    install). *)
