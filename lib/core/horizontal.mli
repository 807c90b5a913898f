(** Horizontal + vertical partitioning (§IV-A).

    A horizontal representation splits the rows of the relation into
    fragments by the value of one {e split attribute}, then partitions each
    fragment vertically on its own. The payoff comes from {e conditional
    independences}: two attributes dependent in general may be independent
    within a fragment (the paper's stockbroker example), letting that
    fragment keep them co-located where a vertical-only SNF would have to
    separate them.

    Fragment membership reveals which rows share a split-attribute value
    group, so the split attribute must tolerate at least equality leakage
    ([Policy.permissible >= Equality]) — enforced by [partition]. The
    original relation is reconstructed as the {e union} of the per-fragment
    reconstructions (joins inside each fragment, union across). *)

open Snf_relational

type fragment = {
  value : Value.t;       (** rows with [split_attr = value] *)
  rep : Partition.t;     (** the fragment's vertical representation *)
}

type t = {
  split_attr : string;
  fragments : fragment list;
  other : Partition.t option;
      (** representation for rows matching none of the fragment values;
          [None] when the fragment values are exhaustive *)
}

val partition :
  ?semantics:Semantics.t ->
  ?strategy:[ `Non_repeating | `Max_repeating ] ->
  Snf_deps.Dep_graph.t -> Policy.t ->
  split_on:string -> values:Value.t list -> t
(** Partition each fragment with the chosen vertical strategy (default
    non-repeating), judging dependence fragment-locally, and the residual
    rows with the unconditional graph.
    @raise Invalid_argument when the split attribute's annotation does not
    tolerate equality leakage, or names an unknown attribute. *)

val is_snf :
  ?semantics:Semantics.t -> Snf_deps.Dep_graph.t -> Policy.t -> t -> bool
(** Every fragment representation is in SNF under its fragment-conditional
    dependence, and the residual representation under the unconditional
    one. *)

val total_leaves : t -> int

val materialize : Relation.t -> t -> (Value.t option * (Partition.leaf * Relation.t) list) list
(** Split rows, then materialize each fragment's representation. The
    [Value.t option] is [Some v] for fragment [v], [None] for the
    residual. *)

val reconstruct : (Value.t option * (Partition.leaf * Relation.t) list) list -> Relation.t
(** Union of per-fragment joins. @raise Invalid_argument on empty input. *)

val pp : Format.formatter -> t -> unit
