(** Binary serialization of the outsourced (server-side) database and of
    the client/server message protocol.

    Two artifacts share the primitive discipline (little-endian 63-bit
    non-negative integers, length-prefixed strings, tagged unions,
    trailing-bytes check):

    {ul
    {- the {e store image} (magic ["SNFE"]): a self-describing, versioned
       binary image of [Enc_relation.t] — the artifact the owner actually
       ships to the cloud. Contains only ciphertexts, public parameters
       and structural metadata, no key material. The column forms
       (equality classes and key maps) are not serialized; every decode
       rebuilds them from what the image already reveals (the disk
       backend proves this claim).}
    {- the {e message codec} (magic ["SNFM"], version 5): every
       request/response crossing the [Server_api] trust boundary. The
       serialized bytes ARE the access-pattern leakage the paper reasons
       about — what a network observer (or the honest-but-curious
       server) sees.}}

    All decoders reject malformed input with a typed [Invalid_argument]
    (message ["Wire: ..."]) — never a crash, never a silently wrong
    value. Integers are canonical: an 8-byte word with bit 62 or bit 63
    set encodes no integer and is rejected. Masks are canonical too: a
    set padding bit past the last slot is rejected. So every value has
    exactly one encoding and equal messages have equal bytes. *)

val to_string : Enc_relation.t -> string

val sub_image : Enc_relation.t -> int array list -> string
(** [sub_image t rows] is the image of [t] holding, of each leaf in
    order, only the slots its [rows] entry lists: slot [j] of leaf [i]
    in the sub-image is the leaf's slot [(List.nth rows i).(j)]: the
    bytes {!to_string} gives for the store cut down to those rows,
    written from the leaf's own arrays.
    @raise Invalid_argument unless [rows] has one entry per leaf and
    every listed slot is a slot of its leaf. *)

val of_string : string -> Enc_relation.t
(** @raise Invalid_argument on bad magic, unknown version or truncated /
    malformed input. *)

val save : string -> Enc_relation.t -> unit
val load : string -> Enc_relation.t

val leaf_to_string : Enc_relation.enc_leaf -> string
(** One leaf in store-image framing (no magic) — the per-leaf file unit
    of the disk backend, so leaves page in independently. *)

val leaf_of_string : string -> Enc_relation.enc_leaf
(** @raise Invalid_argument on truncated / malformed input. *)

(** {1 Message protocol}

    The typed grammar of the client/server boundary; see [Server_api] for
    the operational semantics and DESIGN.md §Server boundary for the
    per-message leakage account. A slot set ([F_slots], [Fetch_rows],
    [Oram_fetch], [R_slots]) is an [int array]: its count, then its slots. *)

type filter_op =
  | F_slots of int array
      (** restrict to these slots (an index-probe result); leaks the
          matching row set, exactly like the probe already did *)
  | F_eq of string * Enc_relation.eq_token
  | F_range of string * Enc_relation.range_token

type request =
  | Describe
      (** structural metadata: leaf labels, row counts and tid digests.
          The server validates every stored shape first, so a dropped or
          truncated leaf answers [R_corrupt] instead of a description. *)
  | Install of string  (** ship a store image ({!to_string}) *)
  | Index_probe of { leaf : string; attr : string; key : string option }
      (** probe the column's equality index (its form's key map);
          [key = None] still reads the form, keeping index accounting
          backend-independent *)
  | Fetch_rows of { leaf : string; attrs : string list; slots : int array }
  | Fetch_tids of { leaf : string }
  | Oram_fetch of {
      leaf : string;
      seed : int;
      block_size : int;
      blocks : string array;
      slots : int array;
    }
      (** one partner's whole ORAM round: the server builds a Path ORAM
          from [seed], writes the sealed [blocks] (block [i] at id [i]),
          reads [slots] in request order and drops the tree. It sees the
          install followed by one uniform root-to-leaf path per slot.
          [slots] may be empty; a slot outside [blocks] is rejected
          before anything is built. *)
  | Phe_sum of { leaf : string; attr : string }
  | Group_sum of { leaf : string; group_by : string; sum : string }
  | Q_batch of { queries : (string * filter_op list) list list }
      (** the only filter request: K filter workloads in one round trip
          (a lone query is a batch of one). The outer list has one
          entry per query, each an ordered [(leaf, ops)] list. The server
          answers all of them against a single pass over the touched
          leaves; what it sees is the {e union} of K token sets under one
          request — which queries arrived together, but not the
          inter-query timing K singles would leak. Decoding is bounded by
          the same remaining-bytes [r_count] discipline as every other
          list, so a garbled count cannot force a giant allocation. *)
  | Q_store_stats
      (** ask for {!leaf_stats} of every stored leaf — the planner's
          statistics feed. The answer is computed entirely from what the
          store image already reveals (row counts and the equality
          structure of canonical ciphertexts), so serving it adds zero
          leakage; asking it reveals only that the client plans. *)

(** Per-column value-class histogram of one leaf, exactly as the server
    sees it: each class is [(digest of the canonical ciphertext, class
    size)], sorted by digest so shard-merged histograms are
    byte-deterministic. Only columns with a canonical (deterministic)
    ciphertext carry classes — the columns whose equality structure the
    image reveals anyway. *)
type attr_stats = { a_attr : string; a_classes : (string * int) list }

type leaf_stats = { s_label : string; s_rows : int; s_attrs : attr_stats list }

(** One fetched column of an [R_rows] answer. On the wire it follows a
    one-byte coding tag:

    {ul
    {- tag 0, [Cells]: the row count, then one cell per row;}
    {- tag 1, [Coded]: the row count, the column's distinct cells
       ([dict]) in first-occurrence order, then one code per row, the
       index of its cell in [dict]. A code takes 1, 2 or 4 bytes
       (little-endian), fixed by the dictionary size: up to 256 entries,
       up to 65,536, or more.}}

    A server codes every Plain, DET, OPE and ORE column of more than
    {!small_rows} rows it answers ({!code_rows}), with cells equal under
    [Enc_relation.cell_equal] — whole cells, never [canonical_key]
    alone — sharing an entry. NDET and PHE columns, whose cells are
    randomized, columns of at most {!small_rows} rows, and any column
    whose codes would be the identity (no repeated cell) cross under
    tag 0. The decoder refuses a tag-1 column that is malformed under
    these rules: at most {!small_rows} rows, a code not below the
    dictionary size, codes not numbered in first-occurrence order (a
    code is at most one past the largest before it), an unreferenced
    entry, or the identity. It does not check that dictionary entries
    are distinct, nor that a tag-0 column has no repeated cell; the
    sharded coordinator codes every larger column afresh, so its bytes
    equal a single backend's whatever form a shard chose.

    Leakage: none beyond the rows themselves. The codes show which
    fetched rows hold equal cells; for a Plain, DET, OPE or ORE column
    the server reads that off the cells it stores and sends
    (the [Q_store_stats] argument), and a network observer read it off
    the tag-0 cells before. Requests and SNFT summaries are unchanged. *)
type rows_column =
  | Cells of Enc_relation.cell array
  | Coded of { dict : Enc_relation.cell array; codes : int array }

type response =
  | R_unit
  | R_described of { relation_name : string; leaves : (string * int * string) list }
      (** per stored leaf: label, row count and {!tids_digest} of its tid
          column. The digest travels as 16 raw bytes (no length prefix);
          any other length is rejected on both sides. *)
  | R_slots of int array option
      (** [None]: no canonical index exists for that column *)
  | R_rows of rows_column array
      (** one column per requested attribute, in request order, each in
          the request's slot order *)
  | R_tids of string array
  | R_oram of { blocks : string array; touches : int }
      (** answer to {!Oram_fetch}: one sealed block per requested slot,
          in request order, and the bucket touches of those reads alone
          (the install's writes are not counted) *)
  | R_nat of Snf_bignum.Nat.t
  | R_groups of (Enc_relation.cell * Snf_bignum.Nat.t) list
  | R_error of { not_found : bool; msg : string }
      (** surfaced client-side as [Not_found] / [Invalid_argument] *)
  | R_corrupt of Integrity.corruption
      (** surfaced client-side as [Integrity.Corruption] *)
  | R_batch of { results : (Bitmask.t * int) list list }
      (** positional answers to {!Q_batch}: per query, per [(leaf, ops)]
          entry, the match mask and the scanned-cell count. A mask
          travels as its slot count and its packed {!Bitmask} bytes,
          padding bits clear (a set one is rejected like a non-canonical
          integer); the count is the entry's scan volume — [row_count]
          per token op — not the cells the server touched: an equality
          op answered from the column's index reports the same count as
          a scan. *)
  | R_busy
      (** admission control: the server's bounded request queue is past
          high-water and this request was rejected without being
          executed. Purely a transport-level signal — in-process
          backends never send it. Surfaced client-side as the typed,
          retryable {!Server_api.Busy}. *)
  | R_store_stats of { leaves : leaf_stats list }
      (** answer to {!Q_store_stats}, one entry per stored leaf in
          describe order *)

val small_rows : int
(** The row count up to which a column always crosses under tag 0:
    coding so few rows saves little, and costs the server a class-table
    read per row and the sharded coordinator a hash per cell. *)

val code_rows :
  classes:int ->
  int ->
  class_of:(int -> int) ->
  cell_of:(int -> int -> Enc_relation.cell) ->
  rows_column
(** [code_rows ~classes n ~class_of ~cell_of] codes [n] rows, [n] more
    than {!small_rows}, whose equal-cell classes are [class_of i], each
    in [\[0, classes)]: the dictionary holds [cell_of i c] for the first
    row [i] of each class [c], in row order, so it is called once per
    dictionary entry. The answer is canonical (tag 0 when every row is
    its own class) provided rows of one class hold equal cells and rows
    of different classes do not. *)

val column_length : rows_column -> int
(** Its row count. *)

val column_cells : rows_column -> Enc_relation.cell array
(** Its cells, one per row. *)

val request_to_string : request -> string

val request_of_string : string -> request
(** @raise Invalid_argument on bad magic, unknown version or truncated /
    malformed input. *)

val response_to_string : response -> string

val response_of_string : string -> response
(** @raise Invalid_argument as {!request_of_string}. *)

val tids_digest : string array -> string
(** The tid digest of a leaf: [Digest.string] (16-byte MD5) of the
    canonical [R_tids] response bytes for its tid column — exactly the
    bytes a [Fetch_tids] for that leaf answers. Every backend computes
    the digest it describes with this function, and the client checks
    the [Fetch_tids] bytes it receives against it. The digest covers the
    SNFM version byte, so a store described under another message
    version has other digests. *)

val request_tag : request -> int
val response_tag : response -> int
(** The constructor's wire tag (requests 0–12, responses 0–13),
    mirrored in SNFT trace events. Request tags 1, 4 and 8 and response
    tag 3 are unassigned and decode as unknown tags. *)

val filter_op_to_string : filter_op -> string
(** Canonical serialized bytes of one filter op (no magic/version) — the
    stable identity the wire-trace recorder fingerprints tokens by. *)

(** Low-level primitives, shared with the disk backend's manifest codec.
    Same conventions as the store image; readers raise [Invalid_argument]
    on malformed input. The manifest (magic ["SNFD"], version 2) is, in
    these primitives: the version byte, the relation name, the Paillier
    modulus, then per stored leaf its label, row count, {!tids_digest}
    (as a 16-byte string) and file name. Version 1 had no digests. *)
module Prim : sig
  val w_u8 : Buffer.t -> int -> unit
  val w_int : Buffer.t -> int -> unit
  val w_string : Buffer.t -> string -> unit
  val w_nat : Buffer.t -> Snf_bignum.Nat.t -> unit

  type cursor

  val cursor : string -> cursor
  val r_u8 : cursor -> int
  val r_int : cursor -> int
  val r_string : cursor -> string
  val r_nat : cursor -> Snf_bignum.Nat.t

  val r_count : cursor -> int
  (** Like {!r_int} but additionally bounded by the bytes remaining —
      the safe way to read an element count before allocating. *)

  val expect_end : cursor -> unit
end
