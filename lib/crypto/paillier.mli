(** Paillier additive-homomorphic encryption.

    Textbook Paillier over the from-scratch bignum [Snf_bignum.Nat], with
    the standard [g = n + 1] optimisation. Simulation-scale primes (default
    48 bits each) keep arithmetic fast while exercising the genuine
    algorithm; the leakage profile — {e nothing} at rest, homomorphic
    addition server-side — is what the SNF model consumes.

    Performance model: modular exponentiation goes through the
    per-modulus Montgomery contexts of {!Snf_bignum.Nat.Mont}; the secret
    key retains [p] and [q] so decryption runs two half-width CRT legs
    and little else: each leg's ciphertext enters the Montgomery domain
    of [p^2] (or [q^2]) by a division-free fold of its limbs, its
    squarings run the squaring body (at register width for the 4-limb
    [p^2] of 48-bit primes), its [L] is an exact division by a stored
    inverse, and [h_p], [h_q] and [q^-1 mod p] are kept in Montgomery
    form, so the recombination is three small Montgomery products with
    no [Nat.div] or [Nat.mul_mod]: at 48-bit primes a decrypt costs
    about two 4-limb exponentiations ([micro-paillier]'s
    [decrypt_over_two_legs], about 1.1);
    bulk encryption amortises to a single modular multiplication per
    cell via a precomputed {!type:pool} of randomizers [r^n mod n^2],
    each entry itself two half-width exponentiations (mod [p^2] and mod
    [q^2], on the register-width product at 48-bit primes) recombined by
    CRT, since only the owner, who holds the keypair, fills a pool;
    and the server's homomorphic folds ({!sum}) take one Montgomery
    product per ciphertext and no division.
    The kernels these replaced (square-and-multiply encryption, the
    textbook lambda/mu decryption, the floor-division CRT decryption and
    the pairwise [add] chain {!sum} folds bit for bit) are not part of
    this library: they live in the test-side [Snf_reference], whose
    [Paillier_reference] the tests and the [micro-paillier] bench check
    these kernels against.

    Randomized: two encryptions of the same plaintext differ. *)

module Nat = Snf_bignum.Nat

type public_key = {
  n : Nat.t;
  n_squared : Nat.t;
  mont_n2 : Nat.Mont.ctx;  (** Montgomery context for [n_squared] *)
}

type private_key

type keypair = { public : public_key; secret : private_key }

val public_of_n : Nat.t -> public_key
(** Rebuild a public key (with its Montgomery context) from the modulus —
    what deserialization uses. *)

val key_gen : ?prime_bits:int -> Prng.t -> keypair
(** [key_gen prng] draws two distinct [prime_bits]-bit primes (default 48). *)

val of_primes : Nat.t -> Nat.t -> keypair
(** The keypair of two given distinct primes, with the precomputation
    [key_gen] runs on the primes it draws. Primality is not checked.
    The secret key holds the primes and the CRT decryption's constants,
    not the textbook [lambda] and [mu].
    @raise Invalid_argument if the two are equal, even or one.
    @raise Failure if [lambda = lcm (p - 1) (q - 1)] is not a unit mod
    [n] ([p] divides [q - 1] or [q] divides [p - 1]). *)

val encrypt : Prng.t -> public_key -> Nat.t -> Nat.t
(** @raise Invalid_argument if the plaintext is not below [n]. *)

val encrypt_int : Prng.t -> public_key -> int -> Nat.t

val decrypt : keypair -> Nat.t -> Nat.t
(** CRT decryption (two half-width exponentiations recombined by
    Garner). Any [c] coprime to [n] decrypts, whatever its width: to the
    plaintext of [c mod n^2].
    @raise Invalid_argument ["Paillier.decrypt: ciphertext is not a unit
    mod n"] if [p] or [q] divides [c] (zero, [n] and every multiple of
    either prime): no ciphertext is such a value. *)

val decrypt_int : keypair -> Nat.t -> int

(** {1 Randomizer pool}

    Bulk encryption spends nearly all its time computing [r^n mod n^2].
    A pool precomputes those randomizers: entry [i] is derived from a PRF
    of [i] under the pool key, so a pool's contents depend only on (key,
    index) — deterministic under any fill order and any worker count.
    [pool_fill] takes the (possibly parallel) tabulation function from the
    caller so this module stays free of scheduling concerns. With a filled
    pool, encryption is one modular multiplication per cell. A pool is
    the data owner's: it takes the keypair and computes each entry by CRT
    over [p^2] and [q^2], which gives the same residue as
    [Mont.pow_mod mont_n2 r n] at under half the cost. *)

type pool

val pool : key:Prf.key -> keypair -> pool

val pool_raw_entry : pool -> int -> Nat.t
(** Compute entry [i] ([r_i^n mod n^2]) from scratch; pure w.r.t. the
    pool, safe to call from multiple domains. [r_i] is the first value
    [Nat.random_below] draws below [n] from [Prng.of_int64 (Prf.mac_int
    key i)] that is nonzero and coprime to [n]. *)

val pool_fill : pool -> tabulate:(int -> (int -> Nat.t) -> Nat.t array) -> int -> unit
(** [pool_fill t ~tabulate size] installs entries [0..size-1], computed by
    [tabulate size (pool_raw_entry t)]. No-op if already at least that
    large. *)

val pool_entry : pool -> int -> Nat.t
(** Cached entry if filled, else computed on demand. *)

val encrypt_with : pool -> int -> Nat.t -> Nat.t
(** [encrypt_with t i m] encrypts [m] under the pool's public key using
    randomizer entry [i] — one [mul_mod] when the pool is filled. Each
    index must be used for at most one ciphertext.
    @raise Invalid_argument if the plaintext is not below [n]. *)

(** {1 Homomorphisms} *)

val sum : public_key -> Nat.t array -> Nat.t
(** The homomorphic sum of k ciphertexts, [decrypt (sum pk cs)] the sum
    of their plaintexts mod [n]: [Nat.zero] for none, the ciphertext
    itself (unreduced) for one, else their product mod [n^2], which is
    canonical whatever the order, so bit for bit what folding the
    pairwise product ([Paillier_reference.add], its test oracle) over
    them from the first gives. It multiplies in the Montgomery domain
    of [mont_n2] — one CIOS product per ciphertext and no division unless
    one is not below [n^2] — and counts k - 1 [crypto.paillier.add]s. *)

val scalar_mul : public_key -> Nat.t -> int -> Nat.t
(** [decrypt (scalar_mul pk c k) = k * m mod n]. *)
