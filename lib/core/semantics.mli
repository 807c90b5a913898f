(** Two readings of the paper's conservative propagation rule.

    {b Marginal} — the literal reading of §III-A: leakage of kind [k] on
    attribute [a] spreads kind [k] to every dependent co-located attribute
    [b]; a representation is unsafe iff some attribute's spread-to kind
    exceeds {e its own} permissible kind. Under this reading two dependent
    DET columns may share a leaf: equality leaks onto each, and equality
    is within each one's budget.

    {b Strict} (default) — additionally treats the {e joint} observation
    as leakage: when two dependent attributes are co-located and at least
    one of them leaks anything, the adversary learns their joint
    distribution / the dependency mapping between ciphertext columns,
    which exceeds the per-column marginal budgets L_P is phrased in. This
    is exactly the channel the cross-column inference attacks exploit
    (Naveed et al. CCS'15; Bindschaedler et al. VLDB'18: DET+ORE columns
    jointly reveal whole tuples), so Strict is the security-correct
    default; it is also the reading consistent with the paper's Table I,
    where normalizing 231 attributes yields 66 partitions rather than the
    handful Marginal would produce. The [semantics] ablation bench
    quantifies the gap. *)

type t = Marginal | Strict

val default : t
(** [Strict]. *)

val to_string : t -> string
