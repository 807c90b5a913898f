(** Process-wide metrics: named counters, gauges, and log-scale histograms.

    Counters and histograms are {e domain-safe and deterministic}: updates
    land in a per-domain shard and [Snf_exec.Parallel]'s pool workers
    merge theirs into the global accumulator after every chunk, so totals
    are integer sums independent of [SNF_DOMAINS]. Registration is idempotent by name —
    any layer may call [counter "exec.eq_index.hits"] and obtain the same
    underlying counter (how [Enc_relation] and the index ablation share
    one accounting source; [Ledger] reads the same counters by name from
    {!snapshot}s).

    Metric names are dot-separated, [layer.subsystem.quantity]; the
    conventions live in DESIGN.md §Observability. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Find or register the counter [name].
    @raise Invalid_argument if [name] is registered with another kind. *)

val incr : counter -> unit
val add : counter -> int -> unit

val value : counter -> int
(** Current merged total (flushes the calling domain's shard first). *)

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
(** Last-write-wins; meant for main-domain configuration facts
    (pool sizes, domain counts), not for sharded accumulation. *)

val gauge_value : gauge -> float option

val histogram : string -> histogram

val observe : histogram -> int -> unit
(** Record one observation: bumps the log2 bucket of [v] (bucket index =
    bit length of [v], 0 for non-positive) and adds [v] to the running
    sum. *)

type hist = {
  count : int;           (** observations *)
  sum : int;             (** total of observed values *)
  buckets : (int * int) list;
      (** (bit-length bucket, observations), ascending, zeros omitted *)
}

type snapshot = {
  counters : (string * int) list;     (** sorted by name *)
  gauges : (string * float) list;     (** sorted by name; unset omitted *)
  histograms : (string * hist) list;  (** sorted by name *)
}

val snapshot : unit -> snapshot

val counter_diff : snapshot -> snapshot -> (string * int) list
(** [counter_diff before after]: counters that moved, with their deltas. *)

val counters_with_prefix : string -> (string * int) list -> (string * int) list
(** Restrict a counter list (a snapshot's [counters] or a
    {!counter_diff}) to names starting with [prefix] — how per-shard
    families like [exec.wire.shard] are collected for imbalance and
    reconciliation checks. *)

val flush : unit -> unit
(** Merge the calling domain's shard into the global accumulator.
    [Snf_exec.Parallel]'s pool workers call this after every chunk, before
    the chunk counts as finished; only code running its own [Domain]s
    outside [Parallel] needs it directly. *)

val reset : unit -> unit
(** Zero every counter, histogram, and gauge (registrations persist).
    Only the calling domain's shard and the global accumulator are
    cleared: exact when no other domain holds unflushed updates, which
    holds for [Parallel]'s workers between calls. *)
