(** Descriptors of the cryptographic primitives a column can be stored
    under, together with their leakage profiles.

    This is the vocabulary shared by the data owner's schema annotation,
    the leakage-inference engine ([Snf_core.Closure]) and the encrypted
    storage layer ([Snf_exec.Enc_relation]): each attribute of the
    outsourced relation is annotated with one [kind], and everything the
    SNF machinery needs to know about the primitive is in its [profile]. *)

type kind =
  | Plain  (** no encryption; full leakage *)
  | Ndet   (** randomized encryption; leaks nothing *)
  | Det    (** deterministic; leaks equality / frequency *)
  | Ope    (** order-preserving; leaks order (and equality) *)
  | Ore    (** order-revealing; leaks order (and equality) *)
  | Phe    (** Paillier additive HE; leaks nothing, supports SUM *)

val all : kind list

type profile = {
  reveals_plaintext : bool;
  reveals_equality : bool;
  reveals_order : bool;
  supports_sum : bool;  (** server-side homomorphic aggregation *)
}

val profile : kind -> profile

val is_weak : kind -> bool
(** A {e weak} scheme reveals a data property to the server (equality,
    order or the plaintext itself) — the source of permissible leakage. *)

val is_strong : kind -> bool

val strictly_weaker : kind -> kind -> bool
(** [strictly_weaker a b]: [a] reveals strictly more than [b]. Used by the
    maximal-permissiveness check (weakening an attribute must break SNF). *)

val weakenings : kind -> kind list
(** All kinds strictly weaker than the given one. *)

val supports_equality_predicate : kind -> bool
(** Can the server evaluate [attr = const] on ciphertexts alone? *)

val supports_range_predicate : kind -> bool

val to_string : kind -> string
val of_string : string -> kind option
val pp : Format.formatter -> kind -> unit
