(** Streaming, server-visible planner statistics.

    Everything in here reduces facts the honest-but-curious server
    already holds: per-leaf row counts ([Describe]), value-class
    histograms of canonically-encrypted columns
    ([Wire.Q_store_stats] — derived from the same equality indexes a
    probe would build), and the client's own per-phase wire-byte
    accounting ([Snf_obs.Metrics]'s [exec.wire.<phase>.*] counters).
    Feeding the planner from this module therefore adds {e zero}
    leakage: the adversary learns nothing from planning it could not
    compute itself from the store image and the traffic it carries.

    A {!t} carries a monotonic {!version} that advances only when the
    reduced statistics drift past a relative threshold (20%) or the
    leaf/attr population changes — the stamp the plan cache uses, so a
    stable store keeps its cached plans and a re-encrypted or
    re-installed one invalidates them. *)

type t

type attr_stats = { distinct : int; max_class : int }

type leaf_stats = { rows : int; attrs : (string * attr_stats) list }

val create : unit -> t
(** Empty statistics at version 0 (nothing ingested yet). *)

val ingest : t -> Wire.leaf_stats list -> unit
(** Reduce a server stats answer ([Server_api.store_stats]) into
    per-(leaf, attr) distinct/max-class counts. Bumps {!version} on the
    first ingest and whenever any row count or distinct count moves by
    more than 20% relative (or the leaf/attr sets change); an ingest of
    equivalent statistics leaves the version — and thus every cached
    plan — untouched. Thread-safe. *)

val observe_wire : t -> unit
(** Fold the current [exec.wire.<phase>.*] counters into per-phase
    bytes-per-request EWMAs (α = 0.25). Call sites sample at bind time
    and other quiet moments — never inside a query — so the planner's
    wire model cannot perturb per-query wire accounting. *)

val version : t -> int

val rows : t -> leaf:string -> int option

val distinct : t -> leaf:string -> attr:string -> int option
(** Number of value classes of a canonically-encrypted column, [None]
    when the leaf/attr is unknown or carries no equality structure. *)

val eq_selectivity : t -> leaf:string -> attr:string -> float
(** Estimated fraction of the leaf's rows an equality predicate on
    [attr] keeps: the worst-case class share [max_class / rows] when the
    histogram is known (honest about skew), [1.0] otherwise. Always in
    [(0, 1]]. *)

val wire_bytes_per_request : t -> phase:string -> float
(** Per-phase EWMA of bytes per request (both directions); a calibrated
    cold-start estimate before the first observation. *)
