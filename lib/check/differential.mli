(** The differential conformance runner.

    Each generated instance is normalized into {e five} vertical
    representations — universal (strawman single leaf), atomic (one leaf
    per attribute), SNF ([Strategy.non_repeating]), max-repeating, and
    workload-aware (local search seeded from SNF, costed by planner joins
    over the instance's own workload) — and every generated query executes
    through the full encrypted path (token minting, server filtering,
    oblivious reconstruction, client decryption) in each one, rotating
    reconstruction modes and the equality index.

    Checked per execution: multiset equality with the plaintext
    {!Oracle}, cross-representation agreement, and internal consistency
    of the observability layer — the [exec.query.*] counter deltas must
    equal the returned trace field-for-field. Per instance it also runs a
    {!Snf_exec.Ledger} pass (report totals vs. the answers it recorded,
    and its wire traffic vs. the executor traces' wire fields, summed),
    a PHE group-sum differential when the schema drew a PHE column, and a
    horizontal-fragmentation pass (routed and fan-out) split on the
    guaranteed DET column [s0].

    {!soak} drives all of it plus the {!Fault} campaign from a single
    seed — the engine behind [snf_cli check] and the nightly soak job. *)

open Snf_exec

type failure = {
  spec : Gen.spec;      (** reproduces the instance *)
  rep : string;         (** representation label, ["horizontal"], ... *)
  mode : string;        (** reconstruction mode (+index) or check name *)
  query : Query.t option;
  kind : string;
      (** ["oracle"] | ["cross-rep"] | ["plan"] | ["corruption"] |
          ["counters"] | ["backend"] | ["socket"] | ["batch"] |
          ["cost-planner"] | ["ledger"] | ["group-sum"] | ["horizontal"] |
          ["fault-undetected"] *)
  detail : string;
}

val failure_to_string : failure -> string

type outcome = {
  queries_run : int;   (** distinct generated queries *)
  executions : int;    (** query × representation path executions *)
  failures : failure list;
}

val representations :
  ?workload:Query.t list ->
  Snf_deps.Dep_graph.t ->
  Snf_core.Policy.t ->
  (string * Snf_core.Partition.t) list
(** The five labelled representations. [workload] feeds the
    workload-aware cost (planner joins, unplannable = expensive);
    without it the cost falls back to total stored columns. *)

val run_instance :
  ?queries:int ->
  ?backend:[ `Mem | `Disk | `Rotate | `Socket | `Sharded of int ] ->
  ?batch:[ `Rotate | `Off | `Size of int ] ->
  ?planner:[ `Greedy | `Cost ] ->
  Gen.instance ->
  outcome
(** Default [queries] 25. Every check runs. An empty [failures] list is
    the conformance verdict. The differential pass runs every other pair
    of queries cold: before each of their executions, twin included,
    the owner's client drops its tid orders
    ([Snf_exec.Enc_relation.bump_key_epoch]; its crypto memo stays), so
    every run covers both building and reusing the tid orders — answers
    must be identical either way. A cold execution is tagged ["-cold"] in failure modes.

    [backend] (default [`Mem]) picks the server backend behind every
    owner. [`Disk] runs all five representations file-backed. [`Rotate]
    keeps the five on memory and additionally executes every query on a
    disk-backed twin of the SNF representation, checking backend
    invisibility per execution: equal answer bags, identical
    [exec.query.*] counter movement, and byte-identical wire traffic —
    disagreements are tagged ["backend"]. Disk stores live in private
    temp directories, removed before returning. [`Socket] applies the
    same twin discipline over a loopback [Snf_net] server (Unix-domain
    socket, 2 worker domains): every query re-executes against the
    networked SNF store and must match the in-process execution on
    answer bag, the five [exec.query.*] counter deltas, and the wire
    triple (requests, bytes up, bytes down — framing is not counted, so
    parity is exact); disagreements are tagged ["socket"]. The server is
    stopped and its socket path removed before returning. [`Sharded n]
    applies the same twin discipline to a [Backend_sharded] coordinator
    scatter-gathering over [n] in-process shards (skew-aware placement):
    bag, counter and outer-wire parity as above, plus a per-query
    reconciliation that the summed [exec.wire.shard<i>.*] counter
    movement equals the inner shard connections' own stats deltas,
    bit-identically — disagreements are tagged ["sharded"].

    [batch] (default [`Rotate]) re-runs the whole workload through
    [System.query_batch] on every representation, sliced into batches of
    size 1, 8 and the whole workload (reconstruction mode rotating per
    size); [`Size n] pins a single batch size, [`Off] skips the pass.
    Checked: batched answers agree with the oracle and across
    representations, and each batch's summed per-query traces reconcile
    exactly with the [exec.query.*] / [exec.wire.*] counter deltas it
    moved. Each size-1 chunk is also run first as the single query
    ([System.query_checked]), twice. The repeat starts warm and must
    match the first run's outcome and answer, send no [Fetch_tids], run
    0 comparisons over 0 network rows, and have the first run's SNFT
    trace (timestamps zeroed) and wire counts once the first run's
    [Fetch_tids] rounds are removed. The batch of one must then
    reproduce the repeat: the same outcome, the same trace record
    field-for-field except the planner's cache outcome ([d_cache], and
    the [d_enumerated] it implies), the same counter deltas except
    [time.*] series (the crypto memo's [exec.mapping_cache.*] included:
    both runs start warm, so both read the memo alike), and the same
    SNFT trace with timestamps zeroed. Each of these runs is recorded with
    [System.record_wire_trace], which nests, so the checks hold in full
    under an enclosing recording too. Disagreements are tagged
    ["batch"]. With a twin backend ([`Rotate], [`Socket],
    [`Sharded n]), every chunk also runs as one batch on the twin (a
    size-1 chunk after its single query, as on the mem owner): its
    answer bags and its traces' summed wire triple must equal the mem
    SNF owner's batch, tagged as the twin's single-query checks are.

    [planner] (default [`Greedy]) selects the planning handle for the
    differential and batched passes; [`Cost] builds a per-owner
    cost-based handle ([System.cost_planner], statistics refreshed at
    handle creation, outside every counter window) — the twin gets its
    own handle over its own connection. Counter checks additionally
    reconcile the [plan.cache.hit] / [plan.cache.miss] /
    [plan.candidates.enumerated] movement against each trace's planning
    decision under either handle. When the main pass runs greedy, a
    dedicated cost-planner pass re-executes every other query of the
    workload on every representation through [System.cost_planner] and
    requires bag-identical answers, a priced estimate on every decision,
    and exact planner-counter parity — disagreements are tagged
    ["cost-planner"]. *)

val run_spec :
  ?queries:int ->
  ?backend:[ `Mem | `Disk | `Rotate | `Socket | `Sharded of int ] ->
  ?batch:[ `Rotate | `Off | `Size of int ] ->
  ?planner:[ `Greedy | `Cost ] ->
  Gen.spec ->
  outcome
(** [run_instance (Gen.instance spec)]. *)

(** {1 Soak} *)

type report = {
  seed : int;
  instances : int;
  queries_run : int;
  executions : int;
  fault_applicable : int;
  fault_undetected : int;
  failures : failure list;  (** capped at 25; counts above are exact *)
  failure_count : int;
}

val soak :
  ?rows:int ->
  ?queries_per_instance:int ->
  ?with_faults:bool ->
  ?backend:[ `Mem | `Disk | `Rotate | `Socket | `Sharded of int ] ->
  ?batch:[ `Rotate | `Off | `Size of int ] ->
  ?planner:[ `Greedy | `Cost ] ->
  seed:int ->
  queries:int ->
  unit ->
  report
(** Keep generating fresh instances (at most [rows] rows each, default
    16) and running {!run_instance} ([queries_per_instance], default 25,
    queries each) until [queries] distinct queries have executed, with
    the {!Fault} campaign per instance unless [with_faults:false].
    [backend], [batch] and [planner] are passed to every
    {!run_instance} (defaults [`Mem], [`Rotate], [`Greedy]). *)

val passed : report -> bool
(** No differential failures and no applicable-but-undetected fault. *)

val report_to_json : report -> Snf_obs.Json.t

val pp_report : Format.formatter -> report -> unit
