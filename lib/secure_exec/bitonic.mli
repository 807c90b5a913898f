(** Bitonic sorting network — the data-independent sort underneath the
    oblivious join.

    The sequence of compare-exchange positions depends only on the input
    {e length}, never on the data, which is what makes a sort usable inside
    an enclave without leaking the permutation through its memory trace.
    Arbitrary lengths are handled by padding to the next power of two with
    virtual [+∞] sentinels. *)

val next_pow2 : int -> int
(** Smallest power of two [>= n]; [next_pow2 0 = 1].
    @raise Invalid_argument on negative [n] or when the result would
    exceed [2^61], the largest power of two a native int can hold. *)

val comparator_count : int -> int
(** Exact number of compare-exchanges the network performs for an input of
    length [n] (after padding): [m/2 * k*(k+1)/2] for [m = 2^k >= n], and
    [0] for [n <= 1] (a sort of nothing runs no network).
    @raise Invalid_argument as {!next_pow2}. *)

val sort : ?counter:int ref -> cmp:('a -> 'a -> int) -> 'a array -> unit
(** In-place oblivious sort. [counter], when given, is incremented once
    per compare-exchange actually executed (equals [comparator_count]
    minus the exchanges short-circuited by sentinel padding — sentinels
    are tracked separately, so data comparisons are still counted
    exactly). Stability is not guaranteed. *)

val sort_ints : ?counter:int ref -> int array -> unit
(** Monomorphic ascending in-place sort over the same network: packed keys
    compare as plain ints, and the compare-exchange is branch-free and
    allocation-free. Every comparator reads both slots and writes both
    back, swapped or not, through an xor mask, so the control flow and
    the memory trace of reads {e and} writes depend only on the length.
    (The generic {!sort} writes only on a swap, so there the claim above
    holds for its reads alone.) Any int is a valid key except [max_int],
    the padding sentinel (the int-level twin of the generic network's
    [None]); negative keys down to [min_int] are fine, as no comparator
    subtracts keys. On large inputs the outer stages fan out across
    [Parallel] domains once the sub-networks are independent; the
    schedule, the resulting order and the [counter] value are identical
    for every domain count (and equal to what {!sort} with [Int.compare]
    would report). *)
