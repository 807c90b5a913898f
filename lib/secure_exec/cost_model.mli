(** Translating oblivious-operation counters into estimated wall-clock
    time (the y-axis of Figure 3).

    The paper estimates query time "based on existing oblivious join
    algorithms" (Secure Yannakakis [52]); we do the same, explicitly: an
    oblivious sort-merge join over [N] padded rows costs the bitonic
    network's [O(N log² N)] compare-exchanges plus per-row enclave
    (de/re)encryption and server I/O. Default constants are calibrated to
    the ballpark of published enclave joins (tens of seconds for ~10⁵-row
    inputs), and can be overridden; only {e relative} shape is claimed. *)

type params = {
  compare_ns : float;      (** one in-enclave compare-exchange *)
  row_crypt_ns : float;    (** decrypt+re-encrypt one row crossing the enclave *)
  row_io_ns : float;       (** fetch one row from server storage *)
  scan_cell_ns : float;    (** one server-side ciphertext predicate eval *)
}

val default : params

val oblivious_join_seconds : params -> int -> int -> float
(** Estimated time of one oblivious sort-merge join of two inputs of the
    given sizes (bitonic comparator count on the padded union, plus crypt
    and I/O per row). *)

val chain_join_seconds : params -> int list -> float
(** A [k]-leaf reconstruction joined pairwise left-to-right, intermediate
    results conservatively kept at leaf size. *)

val scan_seconds : params -> rows:int -> predicate_cols:int -> float
(** Server-side filtering cost of one leaf. *)

val query_seconds :
  params -> rows:int -> plan:Planner.plan -> float
(** End-to-end estimate for one planned query over uniform leaf
    cardinality [rows]: predicate scans + the join chain. *)

val trace_seconds :
  params ->
  comparisons:int -> rows_processed:int -> scanned_cells:int -> retrieved_rows:int -> float
(** Estimate from {e measured} executor counters rather than plan shape.
    [retrieved_rows] are partner rows an anchor path fetched: the binning
    path's whole bins, the ORAM path's whole partner leaves. *)

val plan_seconds : ?params:params -> Statistics.t -> Planner.plan -> float
(** Price one candidate plan from server-visible statistics: full-leaf
    predicate scans, the oblivious-join chain over the leaves'
    selectivity-{e filtered} sizes in the plan's join order, and a wire
    term for the fetched cells scaled by the fetch phase's observed
    bytes-per-request EWMA. A pure function of the plan shape and the
    statistics (never of searched constants), so cost-based decisions
    are safely cacheable per query shape. *)

val planner : epoch:(unit -> int) -> Statistics.t -> Planner.handle
(** The cost-based planner handle: candidates priced by
    {!plan_seconds} with {!default} over the given statistics, searched
    within [Planner.cost_based]'s default bounds, plan cache stamped with
    [(epoch (), Statistics.version stats)] so key-epoch rotation or
    statistics drift forces re-planning. *)
