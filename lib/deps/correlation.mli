(** Statistical association between columns.

    Beyond exact functional dependencies, the paper's inference model
    admits "general correlations" as leakage channels (§I, citing the
    inference attacks of Naveed et al. and Bindschaedler et al.). This
    module estimates association strength between two categorical columns
    from their empirical joint distribution:

    - {b mutual information} (in bits),
    - {b Pearson chi-square} statistic, and
    - {b Cramér's V} — chi-square normalized to [\[0, 1\]], the measure the
      dependency graph thresholds on. *)

open Snf_relational

type table
(** A contingency table of two columns. *)

val contingency : Relation.t -> string -> string -> table

val mutual_information : table -> float
(** Empirical MI in bits; 0 for independent columns. *)

val chi_square : table -> float

val cramers_v : table -> float
(** In [\[0, 1\]]; 1 iff one column determines the other (for square
    tables). Returns 0 for degenerate (single-valued) columns. *)

val all_pairs : ?threshold:float -> Relation.t -> (string * string * float) list
(** Cramér's V for every unordered attribute pair at or above the
    threshold, strongest first. Quadratic in arity; meant for modest
    schemas or offline profiling. *)
