(** In-memory relations with column-oriented storage.

    Columns are immutable-by-convention value arrays; every derived
    relation is a fresh allocation. The column layout matches how the
    encrypted store works — each column is encrypted independently under
    its own scheme — and makes vertical partitioning a cheap column
    selection. *)

type t

val create : Schema.t -> Value.t array list -> t
(** [create schema rows] builds a relation from row arrays.
    @raise Invalid_argument on arity or type mismatches. *)

val of_columns : Schema.t -> Value.t array array -> t
(** [of_columns schema cols] adopts the given column arrays (one per
    attribute, equal lengths). @raise Invalid_argument on shape mismatch. *)

val schema : t -> Schema.t
val cardinality : t -> int
(** Number of rows. *)

val column : t -> string -> Value.t array
(** The stored column (do not mutate). @raise Not_found when absent. *)

val get : t -> row:int -> string -> Value.t
(** @raise Not_found / [Invalid_argument] on bad coordinates. *)

val row : t -> int -> Value.t array
val rows : t -> Value.t array list
val iter_rows : t -> (int -> Value.t array -> unit) -> unit

val project : t -> string list -> t
(** Column selection in the order given (no duplicate elimination —
    bag semantics, as in SQL). *)

val filter : t -> (int -> Value.t array -> bool) -> t

val append_column : t -> Attribute.t -> Value.t array -> t
(** @raise Invalid_argument on length mismatch or duplicate name. *)

val with_tid : ?name:string -> t -> t
(** Prefix the relation with a fresh dense integer tid column (default name
    ["tid"]); the handle every SNF sub-relation carries (§III-A, line 4 of
    Algorithm 1). *)

val concat : t -> t -> t
(** Row union of two relations over equal schemas (bag semantics).
    @raise Invalid_argument on schema mismatch. *)

val distinct : t -> t

val plaintext_bytes : t -> int
(** Total encoded size of all cells — the "Plaintext" storage row of
    Table I. *)

val equal_as_sets : t -> t -> bool
(** Set-semantics equality modulo row and column order (used by the
    lossless-reconstruction tests). *)

val pp : ?max_rows:int -> Format.formatter -> t -> unit
