(** Relation schemas: an ordered list of uniquely named attributes. *)

type t

val of_attributes : Attribute.t list -> t
(** @raise Invalid_argument on duplicate attribute names. *)

val attributes : t -> Attribute.t list
val names : t -> string list
val arity : t -> int

val mem : t -> string -> bool
val find : t -> string -> Attribute.t option
val find_exn : t -> string -> Attribute.t
(** @raise Not_found when absent. *)

val index_of : t -> string -> int
(** Position of the attribute. @raise Not_found when absent. *)

val project : t -> string list -> t
(** Sub-schema with the given attributes, in the order given.
    @raise Not_found if any name is absent. *)

val append : t -> Attribute.t -> t
(** @raise Invalid_argument if the name already exists. *)

val equal : t -> t -> bool
(** Same attributes in the same order. *)

val equal_modulo_order : t -> t -> bool

val subset : t -> t -> bool
(** [subset a b]: every attribute of [a] occurs in [b] (same type). *)

val pp : Format.formatter -> t -> unit
