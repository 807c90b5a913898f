(** Order-preserving ordinal encoding of values.

    OPE and ORE operate on bounded integers; this codec maps each value
    type monotonically into a 32-bit ordinal space so that ordinal order
    equals [Value.compare] order within a type:

    - [Int i] — offset by [2^31] (domain [-2^31 .. 2^31)];
    - [Bool] — 0 / 1;
    - [Float f] — the standard monotone bit trick (flip sign bit for
      positives, all bits for negatives), truncated to the top 32 bits;
    - [Text s] — the first 4 bytes, big-endian (prefix order: exact for
      strings distinguished within 4 bytes; coarser beyond — a documented
      approximation that only ever {e coarsens} range predicates).

    [Null] has no ordinal; encrypting it under OPE/ORE is an error. *)

open Snf_relational

val ordinal_bits : int
(** 32. *)

val to_ordinal : Value.t -> int
(** @raise Invalid_argument on [Null] or an out-of-range [Int]. *)

val of_ordinal_int : int -> Value.t
(** Inverse for the [Int] type only (the one the workloads use).
    @raise Invalid_argument when out of range. *)
