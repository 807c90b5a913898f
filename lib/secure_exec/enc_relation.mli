(** Encrypted, partitioned storage (ENCRYPTION + outsourcing, Algorithm 1
    line 4) and the token interface for server-side predicate evaluation.

    Every leaf of the representation is stored as: one tid column,
    NDET-encrypted under a {e per-leaf} key (distinct keys per leaf ⇒
    sub-relation unlinkability at rest), plus one encrypted column per
    attribute copy. OPE/ORE columns are stored as onions — the
    order-revealing part next to a DET-encrypted payload — so decryption
    is exact for every value type while the leakage profile is unchanged
    (the payload's equality leakage is already implied by the
    deterministic order part).

    The server sees only [t]; all key material lives in [client]. Clients
    mint {e tokens} for predicates over weak columns; the matching
    functions on cells are the only operations the server performs. *)

open Snf_relational
module Scheme = Snf_crypto.Scheme

type cell =
  | C_plain of Value.t
  | C_bytes of string                                  (** DET / NDET *)
  | C_ord of { ord : int; payload : string }           (** OPE onion *)
  | C_ore of { ore : Snf_crypto.Ore.ciphertext; payload : string }
  | C_nat of Snf_bignum.Nat.t                          (** Paillier *)

type form = {
  class_of : int array;
      (** slot -> class; classes are numbered in first-occurrence order
          under {!cell_equal} *)
  class_rep : cell array;  (** class -> the cell at its first slot *)
  run_start : int array;
      (** class -> where its run starts in [run_slots]; one entry more
          than there are classes, the last being the cell count *)
  run_slots : int array;  (** each class's slots, ascending, class after class *)
  key_classes : (string, int list) Hashtbl.t;
      (** Plain, DET and OPE: {!canonical_key} -> the classes holding it,
          ascending. Cells with one key fall in several classes when
          they differ elsewhere — a tampered OPE payload beside a good
          ordinal stays a class of its own. Empty for ORE. *)
  canonical : bool;
      (** Plain, DET and OPE: every cell has a canonical key. False for
          ORE. *)
}
(** The one server-side form of a deterministic (Plain, DET, OPE, ORE)
    column: its equal-cell classes, their slots, and for the schemes
    whose ciphertexts are canonical per plaintext, the classes of each
    key. It is built on the column's first server read ({!form}) from
    nothing but the column's own cells — the equality pattern they show anyway, the
    same argument as [Q_store_stats] — and is never serialized. The
    arrays and the table are server state like the cells beside them:
    a filter tests every slot it keeps, a coded fetch every row it
    codes and a group sum every slot, against the slot's own cell; the
    client re-verifies the rows of a probe answer. *)

type enc_column = private {
  attr : string;
  scheme : Scheme.kind;
  cells : cell array;
  built : form option Atomic.t;
      (** the form, once {!form} has built it; read it through {!form} *)
}
(** Built only by {!make_column}, so a column's form always comes from
    its own cells. *)

val make_column : attr:string -> scheme:Scheme.kind -> cell array -> enc_column
(** The column, with no form yet. The column adopts [cells]: when the
    scheme is {!deterministic}, each slot is given its class's
    representative (an equal cell, so every byte the column serializes
    to is unchanged, and a decoded column holds one cell per class),
    one hash per cell; callers must not write to the array afterwards.
    A copy nothing serves, such as the owner's under a disk, socket or
    sharded binding, never builds its forms. *)

val form : enc_column -> form option
(** The column's {!form}: [Some] exactly for a {!deterministic} scheme,
    built on the first call, about two words per cell, and the same
    physical value on every later call. Builds are safe from any domain:
    concurrent first calls build once. Each build moves the process-wide
    counter ["exec.eq_index.builds"] by one. The server builds a form on
    its first read of the column that needs one: an index probe, an
    equality filter, a fetch coded from the classes, [Q_store_stats]
    and [Group_sum]. *)

type enc_leaf = {
  label : string;
  row_count : int;
  tids : string array;          (** NDET ciphertexts of row ids *)
  columns : enc_column list;
}

type t = {
  relation_name : string;
  leaves : enc_leaf list;
  paillier_public : Snf_crypto.Paillier.public_key;
}

type client
(** The data owner's side: keyring, Paillier keypair, decode caches and
    a key schedule. Every subkey of a [(leaf, attr)] column (DET, NDET,
    OPE, ORE, cell randomness, PHE pool) and of a leaf (tid, tid
    randomness, row shuffle, binning) is derived from the
    keyring once, on first use, and reused by every later cell, token
    and row position; lookups are safe from any domain. *)

val make_client :
  ?seed:int -> ?paillier_prime_bits:int ->
  relation_name:string -> master:string -> unit -> client

val client_paillier : client -> Snf_crypto.Paillier.keypair

val encrypt : client -> Relation.t -> Snf_core.Partition.t -> t
(** Materialize each leaf of the representation over the relation and
    encrypt it. Bulk work fans out over [Parallel] domains: every
    randomized cell draws from a per-(leaf, attr, slot) PRNG stream and
    PHE columns use a precomputed randomizer pool, so the ciphertexts are
    bit-identical for every domain count. @raise Invalid_argument on
    [Null] under OPE/ORE/PHE or non-integer values under PHE. *)

val find_leaf : t -> string -> enc_leaf
(** @raise Not_found on unknown label. *)

val column : enc_leaf -> string -> enc_column
(** @raise Not_found on unknown attribute. *)

(** {1 Client-side decryption}

    Decryption is the trust boundary: authentication failures, onions
    whose order part disagrees with the authenticated payload, and
    shape mismatches all raise the typed [Integrity.Corruption] so
    storage damage is {e detected}, never returned as a wrong value
    (see DESIGN.md §Testing & Conformance). *)

val decrypt_cell :
  client -> leaf:string -> attr:string -> scheme:Scheme.kind -> cell -> Value.t
(** @raise Integrity.Corruption on authentication failure, onion
    order/payload disagreement, or scheme/cell shape mismatch.

    OPE/ORE and PHE cells go through the column's crypto memo (see
    {!crypto_memo_cap}); every other cell is decrypted each time. *)

val cell_decryptor :
  client -> leaf:string -> attr:string -> scheme:Scheme.kind -> cell -> Value.t
(** [cell_decryptor c ~leaf ~attr ~scheme] is [decrypt_cell c ~leaf ~attr
    ~scheme] with the column's keys resolved once, for decrypting many
    cells of one column. Same checks, same errors, same memo. *)

val crypto_memo_cap : int
(** Bound on the client's crypto memo: per column and per table, at most
    this many entries. A full table is emptied before its next insert.

    The memo is the client's one memo of per-value crypto, kept with
    each column's keys and read by every query, alone or in a batch. It
    holds three tables:
    - the OPE and the ORE order part by plaintext ordinal. Checking an
      onion re-encrypts the authenticated plaintext's ordinal to compare
      it with the stored order part, and an OPE/ORE token is that same
      encryption of its bound's ordinal; both read the memo, so a column
      pays each distinct value once. Every cell's order part is still
      compared. These tables are a function of client key material
      alone, so they cannot mask a tampered order part;
    - a PHE cell's plaintext by its ciphertext bytes. This table, unlike
      the order parts, is keyed by server bytes. A Paillier decrypt
      depends only on the client's key and those bytes, and only a
      plaintext that decoded is stored: a cell that is no ciphertext, or
      whose plaintext is past the native range, raises and stores
      nothing, and a replaced cell has other bytes, so it misses and is
      decrypted and checked afresh.

    Nothing in it depends on the key epoch (the Paillier keypair never
    rotates), so {!bump_key_epoch} leaves it alone. DET, NDET and plain
    cells are not memoised: their decrypt costs about what a lookup
    would. Each lookup moves ["exec.mapping_cache.hits"] or
    ["exec.mapping_cache.misses"]. *)

val crypto_memo_size : client -> leaf:string -> attr:string -> scheme:Scheme.kind -> int
(** Entries the column's memo holds under [scheme]: order parts for [Ope]
    or [Ore], plaintexts for [Phe], [0] for any other scheme. At most
    {!crypto_memo_cap}. *)

val decrypt_column : client -> leaf:string -> enc_column -> Value.t array

val decrypt_tid : client -> leaf:string -> string -> int
(** @raise Integrity.Corruption on authentication failure (bit-flipped or
    foreign-key tid ciphertexts). *)

val decrypt_tids : client -> enc_leaf -> int array
(** Bulk {!decrypt_tid} over a leaf's whole tid column, fanned out over
    [Parallel] domains. Each slot's tid must be {!tid_at} of the slot —
    the tid [encrypt] wrote there — so authentic ciphertexts moved
    between slots (swapped, duplicated) are caught.
    @raise Integrity.Corruption as {!decrypt_tid}, and with
    [where = "tid"] on a tid found at another slot than its own. *)

val decrypt_tids_cached : client -> enc_leaf -> int array
(** {!decrypt_tids} memoized per (leaf label, {!key_epoch}): a leaf's tid
    ciphertexts are static between re-encryptions, so the join hot path
    pays the NDET decrypts and their slot check once per leaf per epoch.
    A cached entry is only served when the leaf's [tids] array is
    {e physically} the one it was built from — a corrupted or foreign
    copy with the same label misses and re-decrypts (where the checks
    fail as usual), so the cache never masks storage corruption. Hits and misses are accounted in the
    process-wide counters ["exec.join.tid_cache.hits"] /
    ["exec.join.tid_cache.misses"] (shared with [Ledger], which reports
    deltas). The returned array is shared with the cache: callers must not
    mutate it. *)

val tid_order_cached :
  client -> enc_leaf -> build:(int array -> int array option) -> int array option
(** The leaf's {e tid order}, memoised in its {!decrypt_tids_cached}
    entry: same key (leaf label, {!key_epoch}), same physical-identity
    rule on [tids], same reset by {!bump_key_epoch} / [encrypt]. On an
    entry without an order, [build tids] runs on the cached decrypts and
    its result is kept; a [None] — a leaf the builder cannot order — is
    asked for again next time. [build] runs exactly when an order is
    built, so it is where the building query is charged. An order does
    not depend on any query, so the entry costs one [int array] per
    leaf, like the tid array beside it, and needs no bound of its own.
    The array is shared with the cache: callers must not mutate it. *)

val key_epoch : client -> int
(** Current key epoch; starts at 0 and moves on every {!encrypt} and
    {!bump_key_epoch}. *)

val bump_key_epoch : client -> unit
(** Explicit invalidation of the tid-decrypt cache (tid orders included),
    e.g. after rotating key material or mutating a store in place:
    advances the epoch and drops every cached entry. [encrypt] calls this
    itself, so re-encryption never serves stale decodes. The crypto memo
    ({!crypto_memo_cap}) does not depend on the epoch and stays. *)

val check_shape : t -> unit
(** Structural integrity of the stored leaves: every leaf's tid column and
    attribute columns must hold exactly [row_count] entries.
    @raise Integrity.Corruption on truncated or padded leaves. *)

val check_leaf : enc_leaf -> unit
(** {!check_shape} for a single leaf — what the disk backend runs when it
    pages a leaf in. @raise Integrity.Corruption as {!check_shape}. *)

val row_position : client -> leaf:string -> rows:int -> int -> int
(** Slot at which a tid's row is stored inside the leaf. Each leaf shuffles
    its rows under an independent keyed permutation — without this, row
    position alone would link sub-relations across leaves. *)

val tid_at : client -> leaf:string -> rows:int -> int -> int
(** Inverse of [row_position]: the tid stored at a slot. *)

val binning_key : client -> leaf:string -> Snf_crypto.Prf.key
(** Key for the per-leaf binning permutation ([Binning.schedule]); derived
    from the keyring so client and enclave agree without communication. *)

val decrypt_leaf : client -> enc_leaf -> Relation.t
(** Rows in stored order, tid first (attribute [Snf_core.Partition.tid_name]),
    with original value types. *)

(** {1 Server-evaluable predicates}

    Token constructors are exposed: a token is exactly what the client
    hands the untrusted server, so by definition it carries no key
    material — only ciphertext fragments the server compares against
    stored cells. [Wire] serializes them into [Q_batch] messages. *)

type eq_token =
  | Eq_plain of Value.t
  | Eq_det of string
  | Eq_ord of int
  | Eq_ore of Snf_crypto.Ore.ciphertext

type range_token =
  | Rng_plain of Value.t * Value.t
  | Rng_ord of int * int
  | Rng_ore of Snf_crypto.Ore.ciphertext * Snf_crypto.Ore.ciphertext

val eq_token :
  client -> leaf:string -> attr:string -> scheme:Scheme.kind ->
  Value.t -> eq_token option
(** [None] when the scheme does not support server-side equality
    (NDET/PHE). An OPE/ORE token is read through the column's crypto
    memo ({!crypto_memo_cap}), so a repeated constant skips its
    encryption. *)

val range_token :
  client -> leaf:string -> attr:string -> scheme:Scheme.kind ->
  lo:Value.t -> hi:Value.t -> range_token option
(** Inclusive bounds; [None] unless the scheme reveals order. Memoised
    as {!eq_token}. *)

val cell_matches_eq : eq_token -> cell -> bool
(** Pure ciphertext comparison — what the semi-honest server computes. *)

val cell_in_range : range_token -> cell -> bool

(** {1 Leakage as indexing (§V-D)}

    A column that already reveals equality deterministically (PLAIN, DET,
    OPE — their ciphertexts are canonical per plaintext) gives the server a
    free equality index: its {!form}'s key map, which uses only
    information the owner already conceded. ORE ciphertexts reveal
    equality through comparison but are not canonical, so ORE columns
    have no key map. *)

val cell_equal : cell -> cell -> bool
(** Whole-cell equality: true exactly when the two cells serialize to
    the same bytes. An OPE cell compares its ordinal and its payload, an
    ORE cell its symbols and its payload, so a tampered payload beside a
    good order part is never merged into the good cell (unlike
    {!canonical_key}, which keys OPE cells on the ordinal alone). *)

val classes_of_cells : cell array -> int array * cell array
(** The equal-cell classes of a cell list under {!cell_equal}, numbered
    in first-occurrence order: each cell's class (the list's codes) and
    each class's first cell (its distinct cells). One hash per cell. *)

val deterministic : Scheme.kind -> bool
(** Whether equal plaintexts give equal cells: Plain, DET, OPE and ORE;
    not NDET and PHE, whose cells are randomized. *)

val canonical_key : Scheme.kind -> cell -> string option
(** The canonical equality key of a cell, when the scheme makes
    ciphertexts canonical per plaintext (PLAIN / DET / OPE); [None]
    otherwise. Server-computable: this is exactly the equality relation
    those schemes already leak — the key map, the group-sum output
    order, and sharded row placement all key on it. *)

val eq_index : enc_leaf -> attr:string -> form option
(** Server-side, probe side ([Index_probe], [Q_store_stats]): the
    column's form when its scheme is Plain, DET or OPE; [None] for NDET,
    PHE and ORE. Each [Some] moves the process-wide counter
    ["exec.eq_index.hits"] by one. Equality filters read
    {!form} directly and move no counter, so a store's counters
    do not depend on its filter traffic. Consumers needing per-store
    numbers take counter deltas around their calls.
    @raise Not_found on an unknown attribute. *)

val key_slots : form -> string -> int array
(** The slots of every class holding the key, ascending; empty for an
    absent key. A fresh array. *)

val index_key_of_token : eq_token -> string option
(** The index key a predicate token probes; [None] for ORE tokens. *)

(** {1 Homomorphic aggregation} *)

val phe_sum : Snf_crypto.Paillier.public_key -> enc_leaf -> string -> Snf_bignum.Nat.t
(** Server-side: homomorphic sum of a PHE column under the store's
    public key. @raise Invalid_argument if the column is not PHE. *)

val phe_group_sum :
  Snf_crypto.Paillier.public_key ->
  enc_leaf -> group_by:string -> sum:string -> (cell * Snf_bignum.Nat.t) list
(** Server-side [SELECT group_by, SUM(sum) GROUP BY group_by]: the
    groups are the canonical keys of [group_by]'s classes (the column
    must reveal equality deterministically — PLAIN/DET/OPE) and the PHE
    [sum] cells of each group's slots are homomorphically added. Every
    slot's cell is tested against its class's representative first, so
    the form's key map never decides a group. The server
    never decrypts anything: the result pairs the group's cell at its
    first slot with one Paillier aggregate, both for the client to
    decrypt. Group count and group sizes are within the group column's
    permissible equality leakage. Groups come back sorted by ascending
    canonical key — a deterministic, byte-stable order computable from
    what the server already sees, so sharded merges can reproduce it
    exactly.
    @raise Invalid_argument on unsupported schemes, and on the first
    malformed cell in slot order (a group cell without a canonical key,
    a sum cell that is not a Paillier ciphertext).
    @raise Integrity.Corruption where="index" on the first slot whose
    cell differs from its class's representative. *)

val measured_bytes : t -> int
(** Actual stored bytes of the simulation ciphertexts. *)

val leaf_measured_bytes : enc_leaf -> int
