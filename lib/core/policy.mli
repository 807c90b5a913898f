(** The data owner's encryption annotation C and the permissible-leakage
    set L_P it induces.

    The owner annotates every attribute of the relation with the primitive
    it should be stored under ("sensitivity analysis" in CryptDB parlance).
    The permissible leakage of an attribute is exactly the direct leakage
    of its annotated primitive (Example 2 of the paper): nothing more is
    ever allowed to be learnable about it, from any part of the
    representation. *)

open Snf_relational

type t

val create : (string * Snf_crypto.Scheme.kind) list -> t
(** @raise Invalid_argument on duplicate attributes or an empty list. *)

val of_schema :
  default:Snf_crypto.Scheme.kind ->
  overrides:(string * Snf_crypto.Scheme.kind) list ->
  Schema.t -> t
(** Annotate every attribute of [schema] with [default], then apply
    [overrides]. @raise Invalid_argument if an override names an unknown
    attribute. *)

val attrs : t -> string list
val mem : t -> string -> bool

val scheme_of : t -> string -> Snf_crypto.Scheme.kind
(** @raise Not_found for unannotated attributes. *)

val permissible : t -> string -> Leakage.kind
(** L_P restricted to one attribute. @raise Not_found when unannotated. *)

val weak_attrs : t -> string list
(** Attributes whose annotation reveals a property (the leakage sources). *)

val strong_attrs : t -> string list

val allows : t -> string -> Leakage.kind -> bool
(** [allows t a k]: is leaking [k] about [a] within the owner's budget? *)

val strengthen : t -> string -> Snf_crypto.Scheme.kind -> t
(** Re-annotate one attribute. Intended for what-if analyses; no check
    that the new scheme is actually stronger. *)

val to_spec : t -> string
(** Render as the CLI/spec annotation format: ["a=DET,b=NDET,..."], in
    annotation order. *)

val of_spec : string -> t
(** Parse the [to_spec] format. @raise Invalid_argument on malformed
    entries, unknown schemes or duplicates. Round-trips with [to_spec]. *)

val pp : Format.formatter -> t -> unit
