(** Deterministic pseudo-random number generator (splitmix64).

    Every source of randomness in this repository flows through a seeded
    [Prng.t], which makes all experiments reproducible bit-for-bit. The
    generator is the splitmix64 stepper, which has good statistical quality
    for simulation purposes (it is {e not} a cryptographic RNG; key material
    in tests and benchmarks is derived from it purely for determinism). *)

type t

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. *)

val of_int64 : int64 -> t
(** [of_int64 state] builds a generator from a full 64-bit state — the
    hook for deterministic key-splitting: derive the state with a keyed
    PRF of a position and the resulting stream depends only on (key,
    position), never on traversal order or worker count. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator seeded from it,
    statistically independent of subsequent draws from [t]. *)

val next_int64 : t -> int64
(** Uniform 64-bit step. *)

val bits : t -> int
(** 30 uniform bits as a non-negative [int]. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [\[0, bound)]. *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] draws [k] distinct indices from
    [\[0, n)], in increasing order. @raise Invalid_argument if [k > n]. *)

val bytes : t -> int -> string
(** [bytes t n] draws [n] uniform bytes. *)

val zipf_sampler : t -> s:float -> int -> unit -> int
(** [zipf_sampler t ~s n] precomputes the cumulative weights of a Zipf
    distribution with exponent [s] over ranks [\[0, n)] (rank 0 most likely)
    and returns a sampler that draws by binary search on the CDF. *)
