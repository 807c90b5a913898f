(** Arbitrary-precision natural numbers.

    A small, dependency-free bignum used as the substrate for the Paillier
    additive-homomorphic scheme in [Snf_crypto.Paillier]. Values are
    immutable. Numbers are stored as little-endian limb arrays in base
    [2^26], which keeps every intermediate product of two limbs well inside
    the 63-bit native integer range.

    The sizes involved in this repository are modest (Paillier with
    simulation-scale primes, i.e. moduli of a few hundred bits), so the
    algorithms are the quadratic ones — schoolbook multiplication and
    Knuth's Algorithm D division — with no asymptotically faster method
    anywhere. The hot paths are tuned at that size instead: the byte
    codecs are linear bit-packing, and {!Mont} multiplies without
    dividing, in registers for a 4-limb modulus. *)

type t

(** {1 Constants and conversions} *)

val zero : t
val one : t
val two : t

val of_int : int -> t
(** [of_int n] converts a non-negative native integer.
    @raise Invalid_argument if [n < 0]. *)

val to_int_opt : t -> int option
(** [to_int_opt n] is [Some i] when [n] fits a native [int]. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit a native [int]. *)

val of_string : string -> t
(** Parse a decimal string. @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Render as decimal. *)

val of_bytes_be : string -> t
(** Interpret a big-endian byte string as a natural number (leading zero
    bytes allowed). Linear in the length. *)

val to_bytes_be : t -> string
(** Minimal big-endian byte representation ([""] for zero). Linear in the
    length. *)

(** {1 Comparison and predicates} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val is_one : t -> bool
val is_even : t -> bool

val bit_length : t -> int
(** Number of significant bits; [bit_length zero = 0]. *)

(** {1 Arithmetic} *)

val add : t -> t -> t

val sub : t -> t -> t
(** Truncated subtraction. @raise Invalid_argument if the result would be
    negative. *)

val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r] and [r < b].
    @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t
val testbit : t -> int -> bool

val succ : t -> t
val pred : t -> t

(** {1 Modular arithmetic} *)

val add_mod : t -> t -> t -> t
val mul_mod : t -> t -> t -> t

val gcd : t -> t -> t

val lcm : t -> t -> t

val mod_inverse : t -> t -> t option
(** [mod_inverse a m] is [Some x] with [a*x = 1 (mod m)] when
    [gcd a m = 1]. *)

(** {1 Primality} *)

val is_probable_prime : ?rounds:int -> (int -> int) -> t -> bool
(** [is_probable_prime rand n] runs Miller–Rabin with [rounds] (default 24)
    random bases drawn via [rand bound], which must return a uniform integer
    in [\[0, bound)]. Trial division by the primes up to 47 comes first;
    every [n] that passes it is odd and above 47, and its witnesses and
    squarings run on {!Mont} modulo [n]. *)

val random_bits : (int -> int) -> int -> t
(** [random_bits rand k] draws a uniform [k]-bit number with the top bit
    set (so exactly [k] significant bits) for [k >= 1]. *)

val random_below : (int -> int) -> t -> t
(** [random_below rand n] draws uniformly from [\[0, n)] by rejection.
    @raise Invalid_argument if [n] is zero. *)

val random_prime : (int -> int) -> int -> t
(** [random_prime rand k] draws a random [k]-bit probable prime. *)

val pp : Format.formatter -> t -> unit

(** {1 Montgomery fast path}

    Per-modulus context carrying the REDC precomputation. [pow_mod] here is
    a sliding-window exponentiation over division-free Montgomery
    multiplication — the kernel behind Paillier encryption/decryption. A
    4-limb modulus (the [p^2] of a CRT decrypt leg at 48-bit primes)
    multiplies and squares in bodies that keep their limbs in locals, and
    [pow_mod] runs every squaring through the squaring body (10 limb
    products to the product body's 16 before the reduction); every other
    width takes the generic array body for both. The choice follows the
    modulus alone.

    An operand of any width enters without dividing: its k-limb chunks
    are folded from the top, one product by [R^2 mod m] per chunk after
    the first, then one more product by [R^2] gives its Montgomery form.
    [to_mont], [of_mont], [mul_mod] and [pow_mod] take every input that
    way, whether below the modulus, below its square (a Paillier
    ciphertext entering a CRT leg) or wider, and so does [mul]'s first
    operand; [mul]'s second, [sqr]'s and [prod]'s factors are reduced
    first when not below the modulus.
    It is the library's one modular exponentiation: Paillier's kernels
    and Miller–Rabin ({!is_probable_prime}) all run on it. The
    square-and-multiply exponentiation it replaced is a test-side
    oracle ([Snf_reference.Nat_reference.pow_mod]), cross-checked
    against it in the test suite and timed against it by the
    [micro-modexp] bench. *)
module Mont : sig
  type ctx

  val make : t -> ctx
  (** Precompute the context for an odd modulus [> 1].
      @raise Invalid_argument on even, zero or unit moduli. *)

  val modulus : ctx -> t

  val to_mont : ctx -> t -> t
  (** [to_mont ctx x] is [x * R mod m] (Montgomery form), [R = base^k]. *)

  val of_mont : ctx -> t -> t
  (** Inverse of [to_mont]. *)

  val mul : ctx -> t -> t -> t
  (** Product of two values {e in Montgomery form} (result in Montgomery
      form): [mul ctx (to_mont a) (to_mont b) = to_mont (a*b mod m)]. *)

  val sqr : ctx -> t -> t
  (** [sqr ctx a] is [mul ctx a a], computed by the squaring body at 4
      limbs. *)

  val mul_mod : ctx -> t -> t -> t
  (** Plain-domain modular product [a * b mod m]. *)

  val prod : ctx -> t array -> t
  (** Plain-domain product of the array mod [m] ([one] for none), with no
      division for factors below [m]: one Montgomery product per factor
      after the first plus O(log k) to cancel the accumulated [R^-(k-1)].
      Agrees with folding [Nat.mul_mod] over the factors for k >= 2. *)

  val pow_mod : ctx -> t -> t -> t
  (** Plain-domain [b^e mod m] by sliding windows; [one] for [e = 0],
      whatever [b]. *)
end

(** {1 Exact division} *)
module Exact : sig
  type divisor

  val divisor : t -> divisor
  (** Precompute [d^-1 mod base^k] for an odd [d] of [k] limbs.
      @raise Invalid_argument if [d] is zero or even. *)

  val div : divisor -> t -> t
  (** [div d a] is [a / d] when [d] divides [a] and the quotient has at
      most [d]'s limb count (e.g. [a < d^2]): a truncated product of [a]'s
      low [k] limbs by the stored inverse, k(k+1)/2 limb products and no
      division. On any other [a] the result is unspecified. *)
end
