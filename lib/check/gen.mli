(** Seeded random instances for the differential harness: schemas with
    planted FD clusters (small-scale [Snf_workload.Acs] structure),
    relations, and query workloads.

    Everything is a deterministic function of the {!spec}, so a failing
    run is reproduced by its spec alone; {!spec_gen} exposes the same
    space as a [QCheck2] generator whose integrated shrinking walks a
    failure down to a minimal (schema, query) pair. *)

open Snf_relational

type spec = {
  seed : int;          (** drives values, scheme assignment, constants *)
  rows : int;          (** clamped to [\[1, 64\]] *)
  clusters : int list; (** planted FD-cluster sizes, each clamped to [\[2, 5\]] *)
  singles : int;       (** independent attributes, clamped to [\[2, 8\]] *)
}

val normalize : spec -> spec
(** Apply the documented clamps (done by {!instance} as well). *)

type instance = {
  spec : spec;
  name : string;
  relation : Relation.t;
  policy : Snf_core.Policy.t;
  graph : Snf_deps.Dep_graph.t;  (** planted ground truth *)
}

val instance : spec -> instance
(** Attributes: per cluster [i] a root [c{i}r] and members [c{i}m{j}]
    (each member a deterministic function of the root — the planted FD),
    plus singletons [s{k}]. All values are small non-negative integer
    codes with skewed root distributions. Schemes are drawn per attribute
    with [s0] forced to DET and [s1] to OPE so every instance has a
    point-indexable and an order-revealing column. *)

val queries : ?count:int -> seed:int -> instance -> Snf_exec.Query.t list
(** [count] (default 25) queries mixing 1–3-way point conjunctions
    (constants drawn from live column values, plus deliberate misses),
    single-predicate and mixed ranges over order-revealing columns, and
    occasional predicate-free full scans. Every predicate is
    server-evaluable under the annotation, so the workload is plannable
    in every representation. *)

val spec_gen : spec QCheck2.Gen.t
(** Shrinks toward fewer rows, fewer/smaller clusters, fewer singletons
    and seed 0. *)

val spec_to_string : spec -> string
(** Render as a reproduction command fragment,
    e.g. ["seed=7 rows=12 clusters=3,2 singles=4"]. *)
