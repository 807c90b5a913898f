(** Multi-relational databases (§V-C, "Towards Multi-Relational Queries").

    Each relation of the database is outsourced in SNF independently. Two
    genuinely new concerns appear:

    {b Cross-relation leakage at rest.} Sub-relations of different
    relations are never co-located, so the intra-relation closure does not
    apply — but two {e weakly encrypted, dependent} columns in different
    relations (the classic case: a foreign key stored DET on both sides to
    enable server-side joins) let the adversary link rows {e across}
    relations by ciphertext equality, recreating exactly the joint
    exposure SNF eliminated within one relation. [cross_audit] reports
    such pairs given a dependence specification over qualified attribute
    names (["orders.customer"]); the fix is to strengthen one side and
    route the join through the enclave, which [join] implements.

    {b Secure cross-relation joins.} [join] evaluates each side's
    predicates over its own SNF representation (reusing the full
    single-relation pipeline, including oblivious intra-relation
    reconstruction), then joins the two enclave-resident intermediates on
    the join attributes with a bitonic oblivious sort-merge — the server
    observes only the two intermediate cardinalities, never which rows
    matched. Answers are verified against the plaintext
    [Algebra.equi_join] in tests. *)

open Snf_relational

type t

val outsource :
  ?semantics:Snf_core.Semantics.t ->
  ?strategy:Snf_core.Normalizer.strategy ->
  ?mode:Snf_deps.Dep_graph.mode ->
  ?seed:int ->
  (string * Relation.t * Snf_core.Policy.t * Snf_deps.Dep_graph.t option) list ->
  t
(** One [(name, relation, policy, dependence)] per relation; a [None]
    dependence graph is mined from the data. @raise Invalid_argument on
    duplicate relation names. *)

val owner : t -> string -> System.owner
(** @raise Not_found for unknown relations. *)

(** {1 Cross-relation audit} *)

val qualify : string -> string -> string
(** [qualify "orders" "customer"] is ["orders.customer"]. *)

type cross_violation = {
  left : string * string;    (** (relation, attribute) *)
  right : string * string;
  joint_kind : Snf_core.Leakage.kind;
}

val cross_audit : t -> Snf_deps.Dep_graph.t -> cross_violation list
(** [cross_audit db g]: [g]'s universe uses qualified names; every
    dependent pair spanning two relations whose stored copies both reveal
    a property is reported (the joint kind is the join of the two direct
    leakages). Intra-relation pairs are ignored — [Audit] covers those. *)

val is_cross_snf : t -> Snf_deps.Dep_graph.t -> bool

(** {1 Secure cross-relation joins} *)

type join_spec = {
  left : string;                     (** relation name *)
  right : string;
  on : string * string;              (** left attr = right attr *)
  select : (string * string) list;   (** (relation, attribute) projections *)
  where : (string * Query.pred) list;(** per-relation predicates *)
}

type join_trace = {
  left_trace : Executor.trace;
  right_trace : Executor.trace;
  join_comparisons : int;
  left_rows : int;
  right_rows : int;
  result_rows : int;
}

val join :
  ?mode:Executor.mode -> t -> join_spec -> (Relation.t * join_trace, string) result
(** Output columns are named [relation.attribute], in [select] order. *)

val reference_join : t -> join_spec -> Relation.t
(** Plaintext ground truth. *)

val verify_join : ?mode:Executor.mode -> t -> join_spec -> bool
