(** The trust boundary, reified: every server-side operation of the
    execution stack crosses this interface as a serialized [Wire] message.

    The split enforces the paper's threat model structurally. The client
    half ([Executor], [System]) holds the keys and sees only
    {!wire_stats}-accountable byte strings; the server half is a
    {!store_view} over some storage {!BACKEND} (in-process arrays, files
    on disk, eventually a socket) and sees only ciphertexts, tokens and
    structural metadata — a backend implementor {e cannot} reach key
    material because nothing in this signature carries any.

    A {!conn} is one client/server session: a request serializer, the
    backend's dispatch loop, byte/request accounting (global and
    per-phase [exec.wire.*] counters plus per-connection {!stats}) and
    the client's tid-column memo. The server half keeps no state between
    requests. Answers are
    backend-invisible by construction: both ends of every exchange are
    the same serialized bytes regardless of how the backend stores its
    leaves. *)

(** What a backend must expose — the full server-side capability set.
    [leaf] may page from disk and must validate what it loads
    (raising [Integrity.Corruption]); [eq_index] must read the leaf's
    column through [Enc_relation.eq_index], so the index hit counter
    stays backend-independent. A form is built on the first read of its
    column that needs it ([Enc_relation.form]), whichever request that
    is, and kept with the column. [describe]/[leaf] raise
    [Not_found] or [Invalid_argument] on unknown names / empty
    stores. *)
type store_view = {
  describe : unit -> string * (string * int * string) list;
      (** relation name and (leaf label, row count, tid digest) in stored
          order. The digest is [Wire.tids_digest] of the leaf's tid
          column. A backend keeps it at hand rather than re-encoding the
          column per call: the memory backend memoises it per tids
          array, the disk backend keeps it in its manifest, so Describe
          pages nothing in. *)
  check_shape : unit -> unit;
      (** validate the stored shapes; raises [Integrity.Corruption]. Run
          before every [Describe] is answered. *)
  install : string -> unit;  (** parse and adopt a [Wire] store image *)
  leaf : string -> Enc_relation.enc_leaf;
  eq_index : leaf:string -> attr:string -> Enc_relation.form option;
      (** the probe-side read of a column's form ([Index_probe],
          [Q_store_stats]); equality filters and fetches read the form of
          the leaf they hold *)
  paillier : unit -> Snf_crypto.Paillier.public_key;
}

module type BACKEND = sig
  type t

  val name : string
  val view : t -> store_view
  val close : t -> unit
end

type conn

type wire_stats = { requests : int; bytes_up : int; bytes_down : int }

exception Busy
(** A transport rejected the request under admission control
    ([Wire.R_busy]): the request was never executed and is safe to
    retry. In-process backends never raise it. *)

val check_slots : rows:int -> int array -> unit
(** Every slot a request names ([F_slots], [Fetch_rows]) must lie in
    [\[0, rows)] of its leaf.
    @raise Invalid_argument naming the first slot outside, with the one
    message every backend answers with. *)

val dispatch : store_view -> Wire.request -> Wire.response
(** Answer one decoded request against the view. Failures raise
    ([Integrity.Corruption], [Not_found], [Invalid_argument]). Every
    store-reading request reads a deterministic column through its
    {!Enc_relation.form} and answers as a per-cell scan would:
    [Index_probe] and [Q_store_stats] read its key map; a [Q_batch]'s
    [F_eq] of a DET token on a DET column or an OPE token on an OPE
    column whose cells all have a canonical key keeps the key's slots,
    each tested against its cell first; a [Group_sum] groups the slots
    by class, and a [Fetch_rows] codes each column of more than
    [Wire.small_rows] fetched rows from its classes, each slot's cell
    compared with its class's representative. A failed test raises
    [Integrity.Corruption] where ["index"]. Every other token op
    scans. *)

val serve : (Wire.request -> Wire.response) -> string -> string
(** [serve answer]: decode the request bytes, answer, serialize. A typed
    failure comes back as its carrier, never raised: [Integrity.Corruption]
    as [R_corrupt], [Not_found] / [Invalid_argument] (malformed bytes and
    out-of-range slots included) as [R_error], {!Busy} as [R_busy]. *)

val raise_failure : Wire.response -> Wire.response
(** {!serve}'s mapping inverted: a carrier raises its failure; any other
    response is returned. The typed stubs and [Backend_sharded] run it. *)

val session_handler : store_view -> string -> string
(** The server half of {!connect}: {!serve} over {!dispatch} against the
    view.

    A handler keeps no state between requests, so every answer depends
    only on the request and the view. A network server runs one handler per
    accepted socket against a shared view. *)

val connect : (module BACKEND with type t = 'a) -> 'a -> conn
(** Open a session over a backend instance. None of the client-side
    state (counters, decoded-tid memo) is visible to the backend. *)

val connect_handler :
  name:string -> handle:(string -> string) -> close:(unit -> unit) -> conn
(** Open a session over a raw request-bytes -> response-bytes exchange —
    the client half of {!connect}, exposed so a network client can splice
    a socket round trip under the unchanged accounting/memo machinery.
    [handle] receives exactly the serialized SNFM request and must return
    exactly the serialized SNFM response (any framing stripped), so
    {!stats} and the [exec.wire.*] counters measure the same bytes as an
    in-process backend. [handle] may raise to signal transport failure;
    the exception passes through {!conn} calls untouched. *)

val backend_name : conn -> string

val close : conn -> unit
(** Close the backend (the disk backend removes an owned temp dir). *)

val stats : conn -> wire_stats
(** Cumulative traffic on this connection. The same quantities are also
    accumulated in the process-wide counters [exec.wire.requests] /
    [exec.wire.bytes_up] / [exec.wire.bytes_down] and per-phase
    [exec.wire.<phase>.*] for each of {!phases}. *)

val phases : string list
(** The wire phases every request is counted under, in order: [admin],
    [probe], [filter], [fetch], [phe]. *)

val exchange_raw : conn -> string -> string
(** One raw serialized-request -> serialized-response round trip,
    updating {e only} this connection's {!stats} — none of the global or
    per-phase [exec.wire.*] counters, no SNFT recording, and no typed
    re-raising ({!raise_failure} is the caller's). For connection
    composers ([Backend_sharded]) that sit {e behind} an outer
    connection: the outer [call] counts the boundary traffic exactly
    once, and the composer accounts its inner fan-out traffic itself
    (the per-shard [exec.wire.shard<i>.*] counters). Transport
    exceptions from the underlying handler pass through untouched. *)

(** {1 Typed stubs}

    One round trip each: serialize the request, hand the bytes to the
    backend's dispatcher, decode the response. Server-side failures come
    back typed and are re-raised by {!raise_failure} as the exceptions
    the pre-split executor threw from the same situations. *)

val describe : conn -> string * (string * int * string) list
(** Relation name and, per stored leaf, its label, row count and tid
    digest ([Wire.tids_digest]). The server checks every stored shape
    before it answers, so this is also the per-query storage-integrity
    gate: a dropped or truncated leaf raises [Integrity.Corruption]. *)

val install : conn -> string -> unit

val index_probe :
  conn -> leaf:string -> attr:string -> key:string option -> int array option
(** Always sent (and the server always consults [Enc_relation.eq_index]),
    even with [key = None] — index accounting must not depend on the
    token's shape. [None] result: the column has no canonical index;
    otherwise the slots holding the key, descending. *)

val filter_batch :
  conn ->
  queries:(string * Wire.filter_op list) list list ->
  (Bitmask.t * int) list list
(** The only filter stub: K filter workloads in ONE round trip
    ([Wire.Q_batch]; a lone query sends K = 1), per query an ordered
    [(leaf, ops)] list, answered positionally with (mask, scanned)
    pairs. Each mask is the packed {!Bitmask} decoded straight from the
    [R_batch] bytes: one bit per slot over the leaf's slots, never
    widened to a [bool array]. The server loads each distinct leaf once
    for the whole request; per-query scan accounting is unchanged.
    Counted under the [filter] wire phase.
    @raise Invalid_argument if the server answers a different number of
    queries than were asked. *)

val fetch_rows :
  conn -> leaf:string -> attrs:string list -> slots:int array -> Wire.rows_column array
(** Ciphertext columns, one per requested attribute (request order),
    each in [slots] order: a Plain, DET, OPE or ORE column with a
    repeated cell comes dictionary-coded ([Wire.rows_column]). *)

val fetch_tids : conn -> leaf:string -> digest:string -> string array
(** The leaf's tid ciphertext column, whose tid digest the latest
    {!describe} announced as [digest]. The connection memoises, per leaf,
    the last column it fetched together with its digest. When [digest]
    equals the memoised one, the memoised array is returned — the same
    physical array, so [Enc_relation.decrypt_tids_cached] recognises a
    stable leaf — and nothing crosses the wire. Otherwise a [Fetch_tids]
    round trip is made, and [Digest.string] of the response bytes must
    equal [digest]: a column that disagrees with its description raises
    [Integrity.Corruption] (where ["store"]) and leaves the memo as it
    was. A matching column replaces the memo.

    The memo is never consulted for a digest it was not checked against,
    so a re-installed store or a changed column is fetched again. Skipping
    the round trip tells the server only that this connection fetched the
    leaf before, which its own request history already shows. *)

val phe_sum : conn -> leaf:string -> attr:string -> Snf_bignum.Nat.t

val group_sum :
  conn -> leaf:string -> group_by:string -> sum:string ->
  (Enc_relation.cell * Snf_bignum.Nat.t) list

val store_stats : conn -> Wire.leaf_stats list
(** Planner statistics for every stored leaf ([Wire.Q_store_stats]):
    row counts plus, per canonically-encrypted column, the equality-index
    class-size histogram keyed by canonical-ciphertext digest. Everything
    in the answer is derivable from the store image the server already
    holds, so the request reveals only that the client plans. Counted
    under the [admin] wire phase; fetched at bind time, never during
    [plan], so per-query wire accounting is planner-invisible. *)
