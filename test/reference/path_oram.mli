(** Path ORAM (Stefanov et al., CCS'13), kept beside the test oracles.

    The executor's [`Oram] arm reads every partner row (the linear-scan,
    trivial ORAM) and runs no tree. This module is the tree a client-held
    ORAM would run, for the [oblivious] and [access-pattern] tests and the
    [sweeps] bench rows that time it. The implementation is the textbook protocol: a complete
    binary tree of buckets ([bucket_size] blocks each, default Z = 4), a
    client-side position map and stash, uniform leaf remap on every access,
    greedy path write-back.

    All randomness comes from the caller's seeded [Prng.t]: one leaf draw
    per block at [create], in block order, and one remap draw per access.
    {!of_blocks} installs a whole block array in one pass with exactly
    the draws of [create] plus one [write] per block.
    The access sequence the "server" observes is the sequence of
    root-to-leaf paths, available via [paths_observed] for the
    access-pattern tests.

    {b Write-back.} After an access reads the path to leaf [x] into the
    stash, one pass over the stash files each block under its deepest
    legal level on that path, [L - bit_length (pos xor x)]. The path is
    then filled deepest bucket first: each level's blocks join a carried
    pool of blocks that fit there, and the bucket takes up to Z of them.
    Blocks left in the pool stay in the stash. An access therefore costs
    O(|stash| + L·Z) time. Eviction draws no randomness, so the observed
    path sequence depends only on the seed and the access sequence, never
    on how blocks were placed. *)

type t

val create :
  ?bucket_size:int -> num_blocks:int -> block_size:int -> Snf_crypto.Prng.t -> t
(** Capacity for block ids [0 .. num_blocks-1]; blocks are fixed-size
    strings ([block_size] bytes). Unwritten blocks read as all-zero.
    @raise Invalid_argument if [num_blocks < 1], [bucket_size < 1],
    [block_size < 0] or [num_blocks] exceeds 32-bit block ids. *)

val of_blocks : ?bucket_size:int -> block_size:int -> Snf_crypto.Prng.t -> string array -> t
(** [of_blocks ~block_size prng blocks] holds block [i] = [blocks.(i)] for
    [max 1 (Array.length blocks)] block ids, in one pass. It draws exactly
    what [create] followed by one [write] per block in id order draws, so
    every later access returns the same bytes, observes the same paths and
    touches the same buckets as after those writes. The install itself is
    no access: it observes no path and counts no access or bucket touch.
    Each block sits in the deepest bucket of
    its path with a free slot, or in the stash when the path is full.
    @raise Invalid_argument as [create] does, or if a block is not
    [block_size] bytes. *)

val read : t -> int -> string
(** Oblivious read. @raise Invalid_argument on out-of-range id. *)

val write : t -> int -> string -> unit
(** Oblivious write. @raise Invalid_argument on wrong block size or id. *)

val access_count : t -> int
val bucket_touches : t -> int
(** Total buckets read+written by accesses. *)

val stash_size : t -> int
(** Current overflow stash occupancy (bounded with overwhelming
    probability; the property test tracks its maximum). *)

val depth : t -> int
(** Tree depth L; each access touches exactly [2*(L+1)] buckets. *)

val paths_observed : t -> int list
(** Leaf labels of every path touched so far, most recent first — the
    adversary's complete view of an access trace. *)
