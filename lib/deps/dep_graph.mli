(** The (in)dependence specification D consumed by leakage inference.

    The paper requires D to be {e complete}: "for any two data objects, it
    should be algorithmically determinable if the data items are
    independent or dependent" (§III-A). This module realises that contract:
    explicit evidence (declared edges, mined FDs, correlation scores) plus
    a {e default mode} for undecided pairs — [Pessimistic] (assume
    dependent, never under-report leakage) or [Optimistic] (assume
    independent, never over-partition), the two knobs of §V-A "Acquisition
    of Knowledge".

    Dependence is treated as symmetric (the conservative reading of the
    paper's inference rule); FD direction is retained in the evidence for
    reporting. Conditional independences — pairs independent within a
    horizontal fragment defined by [attr = value] — support the §IV-A
    horizontal-partitioning extension. *)

open Snf_relational

type mode = Pessimistic | Optimistic

type evidence =
  | Functional of Fd.t          (** an FD whose attrs span the pair *)
  | Correlated of float         (** Cramér's V *)
  | Declared_dependent
  | Declared_independent

type t

val create : ?mode:mode -> string list -> t
(** [create universe] with no edges; default mode [Optimistic]. *)

val mode : t -> mode
val universe : t -> Fd.Names.t

val declare_dependent : t -> string -> string -> t
val declare_independent : t -> string -> string -> t
val add_fd : t -> Fd.t -> t
(** Marks every (lhs attr, rhs attr) pair dependent; also recorded for
    [fds]. @raise Invalid_argument if the FD mentions unknown attributes. *)

val add_correlation : t -> string -> string -> float -> t

val of_relation :
  ?mode:mode -> ?max_lhs:int -> ?correlation_threshold:float ->
  ?exclude:(string -> bool) -> Relation.t -> t
(** DEPENDENCYINFERENCE: mine FDs and correlations from data and assemble
    the graph. Excluded attributes (e.g. tid) still belong to the universe
    but gain no edges. Correlation mining is skipped when
    [correlation_threshold] is omitted. *)

val fds : t -> Fd.t list

val evidence : t -> string -> string -> evidence list
(** All recorded evidence for the unordered pair. *)

val dependent : t -> string -> string -> bool
(** The complete-specification answer: explicit evidence wins, otherwise
    the default mode decides. A pair with both dependent and independent
    declarations is dependent (safe direction). [dependent t a a = true]. *)

val decided : t -> string -> string -> bool
(** Is there explicit evidence (either way) for the pair? *)

val completeness : t -> float
(** Fraction of unordered pairs with explicit evidence — 1.0 means the
    default mode is never consulted. *)

val dependent_neighbors : t -> string -> string list

val declare_conditional_independent :
  t -> on:(string * Value.t) -> string -> string -> t
(** Within the horizontal fragment where [attr = value], the pair is
    independent. *)

val dependent_in_fragment : t -> on:(string * Value.t) -> string -> string -> bool
(** Like [dependent] but honouring conditional independences declared for
    this fragment. *)

val restrict : t -> Fd.Names.t -> t
(** Induced subgraph on a subset of the universe (used per sub-relation). *)

val explicit_pairs : t -> (string * string * evidence list) list
(** Every unordered pair with recorded evidence (for rendering/export). *)

val conditional_independences : t -> ((string * Snf_relational.Value.t) * (string * string)) list
(** All declared conditional independences: ((attr, value), (a, b)). *)
