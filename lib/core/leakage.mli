(** The leakage lattice and leakage assignments.

    Following Definition 1 of the paper, a leakage is an adversarial
    advantage about a plaintext object gained from its ciphertext
    representation. The inference engine does not manipulate probabilities
    directly; it tracks, per attribute, {e which property} of the plaintext
    the representation reveals, drawn from a four-point join-semilattice:

    {v Nothing ⊑ Equality ⊑ Order ⊑ Full v}

    [Equality] is the frequency/distribution leakage of DET, [Order] the
    additional leakage of OPE/ORE (which subsumes equality), and [Full] is
    plaintext disclosure. The §V-A facet characterization (association /
    relationship / distribution) is derived from the kind. *)

type kind = Nothing | Equality | Order | Full

val leq : kind -> kind -> bool
(** Lattice order. *)

val join : kind -> kind -> kind
val join_all : kind list -> kind

val of_scheme : Snf_crypto.Scheme.kind -> kind
(** The {e direct} (permissible) leakage of a primitive. *)

val strongest_scheme_for : kind -> Snf_crypto.Scheme.kind
(** The canonical primitive realising exactly this leakage kind
    (Nothing→NDET, Equality→DET, Order→OPE, Full→Plain). *)

(** {1 Facet characterization (§V-A)} *)

type facet =
  | Association   (** link one ciphertext to one plaintext more confidently *)
  | Relationship  (** l-ary relations among plaintexts (equalities, order) *)
  | Distribution  (** the plaintext value distribution *)

val facets : kind -> facet list
(** Which semantic facets a kind implies: equality leaks relationships and
    the distribution; order adds association (endpoints of the order are
    pinned down); full leaks everything. *)

(** {1 Provenance-carrying assignments} *)

type provenance =
  | Direct                  (** from the scheme the attribute is stored under *)
  | Inferred of string list (** dependence chain from the leaking source
                                attribute to this one, source first *)

type entry = { kind : kind; provenance : provenance }

module Assignment : sig
  (** A finite map [attribute -> entry]: the leakage an adversary derives
      about each attribute from one co-location group or from a whole
      representation. *)

  type t

  val empty : t
  val singleton : string -> entry -> t
  val find : t -> string -> entry option
  val kind_of : t -> string -> kind
  (** [Nothing] when absent. *)

  val set : t -> string -> entry -> t
  val update_join : t -> string -> entry -> t
  (** Join the kind; keep the provenance of whichever side is larger
      (existing entry wins ties). *)

  val merge : t -> t -> t
  (** Pointwise [update_join]. *)

  val bindings : t -> (string * entry) list
  val dominated_by : t -> t -> bool
  (** [dominated_by a b]: every attribute leaks at most as much in [a] as
      in [b]. *)

  val equal_kinds : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

val kind_to_string : kind -> string
val equal_kind : kind -> kind -> bool
val pp_kind : Format.formatter -> kind -> unit
val pp_provenance : Format.formatter -> provenance -> unit
