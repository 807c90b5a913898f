(** Ablation studies for the design choices DESIGN.md calls out.

    - {b semantics}: Marginal vs Strict leakage semantics — partition
      counts and workload cost (quantifies how much of the paper's
      partition structure comes from forbidding joint exposure).
    - {b horizontal}: vertical-only vs horizontal+vertical partitioning on
      a conditional-dependence workload (§IV-A).
    - {b workload}: workload-aware local search vs workload-oblivious
      non-repeating on a skewed query mix (§V-B).
    - {b modes}: measured counters of the three reconstruction mechanisms
      (sort-merge / ORAM / binning) on the same query set — the measured
      counterpart to Figure 3's model-based estimates. *)

val semantics : ?rows:int -> ?seed:int -> unit -> string

val horizontal : unit -> string

val workload : ?seed:int -> unit -> string

val modes : ?rows:int -> ?seed:int -> unit -> string

val index : ?rows:int -> ?seed:int -> unit -> string
(** §V-D "leakage as indexing": server predicate work with and without
    equality indexes over DET columns, same queries, same answers. *)

val index_checked : ?rows:int -> ?seed:int -> unit -> string * string list
(** {!index}'s table and the checks it failed, [[]] when none: each arm
    must answer every query as the plaintext oracle (as bags), and the
    scan arm must move no [exec.eq_index.*] counter. Each arm runs its
    queries twice, scan arm first: the count columns come from the first
    pass, the Wall time from the second, so neither arm's time includes
    cold client caches. *)

val dynamic : ?rows:int -> ?seed:int -> unit -> string
(** §V-B dynamic updates: per-insert encryption cost of the staged-delta
    design vs the full recast a naive implementation pays, plus
    post-insert query correctness. *)

val knowledge : ?seed:int -> unit -> string
(** §V-A "Acquisition of Knowledge": partition with an {e incomplete}
    dependence specification (a fraction of the true declarations dropped)
    under both default modes. Optimistic defaults under-partition and
    leave real (ground-truth-auditable) leakage; pessimistic defaults stay
    safe but over-partition — the safety/performance knob the paper asks
    about, quantified. *)
