(** Plaintext relational algebra.

    The reference evaluator: the secure executor in [Snf_exec] must produce
    exactly these answers over the encrypted, partitioned representation,
    and the lossless-reconstruction property of SNF (Def. 2) is checked by
    comparing against these operators. *)

type predicate =
  | Eq of string * Value.t          (** attr = const *)
  | Neq of string * Value.t
  | Lt of string * Value.t
  | Le of string * Value.t
  | Gt of string * Value.t
  | Ge of string * Value.t
  | Between of string * Value.t * Value.t  (** inclusive *)
  | And of predicate * predicate
  | Or of predicate * predicate
  | Not of predicate

val predicate_attrs : predicate -> string list
(** Attributes mentioned, without duplicates. *)

val eval_predicate : Schema.t -> predicate -> Value.t array -> bool
(** @raise Not_found if the predicate mentions an absent attribute. *)

val select : predicate -> Relation.t -> Relation.t

val equi_join : on:string -> Relation.t -> Relation.t -> Relation.t
(** Natural join on a single shared attribute [on]; the right copy of the
    join attribute is dropped and remaining duplicate names on the right
    are suffixed with ["'"]. Hash join. *)

val natural_join : Relation.t -> Relation.t -> Relation.t
(** Join on all shared attribute names (hash join on the composite key). *)

val count : Relation.t -> int

val sum_int : string -> Relation.t -> int
(** Sum of an integer column ([Null] counts as 0). *)

val group_count : string -> Relation.t -> (Value.t * int) list
(** Value frequencies of a column, descending by count — the histogram a
    frequency-analysis adversary extracts from a DET column. *)

val pp_predicate : Format.formatter -> predicate -> unit
