(** Synthetic stand-in for the 2013 U.S. Census ACS dataset (§IV-B).

    The paper's experiments use the one-year ACS person file: 231
    attributes × 153,589 records, with abundant functional dependencies
    (geography hierarchies, industry/occupation recode families, coded
    categoricals) serving as inference channels. We cannot ship Census
    microdata, so this generator plants the same {e structure}:

    - attributes are organised into {b dependency clusters} whose members
      are all functions of a hidden cluster root (one large geography-like
      recode family of 88 attributes, several mid-size families, a tail of
      small ones) plus independent singletons — 231 attributes total;
    - values are small non-negative integer codes with Zipf-skewed root
      distributions (Census categoricals are heavily skewed);
    - the {b ground-truth dependence graph} (all intra-cluster pairs
      dependent, cross-cluster pairs independent) is returned alongside
      the data, mirroring a completed DEPENDENCYINFERENCE step; a
      scaled-down test validates that FD/correlation mining recovers it.

    Everything is deterministic in the seed. *)

open Snf_relational

type config = {
  rows : int;
  seed : int;
  cluster_sizes : int list; (** sizes of the planted dependency clusters *)
  independent_attrs : int;  (** singleton attributes *)
}

val default_config : config
(** 20,000 rows (scale knob for the paper's 153,589), seed 2013, clusters
    [88; 33; 21; 13; 8; 5; 4; 4; 3; 3; 3; 2; 2; 2; 2] and 38 singletons:
    231 attributes. *)

type t = {
  relation : Relation.t;
  graph : Snf_deps.Dep_graph.t;   (** planted ground truth *)
  clusters : string list list;    (** attribute names per cluster *)
  independents : string list;
}

val generate : config -> t
