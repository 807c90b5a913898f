(** Client queries over the outsourced relation.

    The workload template of §IV-B: project some attributes, filter by a
    conjunction of point (and, as an extension, range) predicates. A
    {e k-way} query is one whose predicate attributes span [k] columns. *)

open Snf_relational

type pred =
  | Point of string * Value.t                (** attr = v *)
  | Range of string * Value.t * Value.t      (** lo <= attr <= hi, inclusive *)

type t = { select : string list; where : pred list }

val point : select:string list -> (string * Value.t) list -> t
(** The paper's point-query template. @raise Invalid_argument on an empty
    projection. *)

val range : select:string list -> (string * Value.t * Value.t) list -> t

val pred_attr : pred -> string

val way : t -> int
(** Number of distinct predicate attributes ("2-way", "3-way"). *)

val to_algebra : t -> Algebra.predicate option
(** The reference predicate; [None] when [where] is empty. *)

val reference_answer : Relation.t -> t -> Relation.t
(** Ground truth on the plaintext relation (bag semantics). *)

val pp : Format.formatter -> t -> unit
