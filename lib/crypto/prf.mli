(** Keyed pseudo-random function (SipHash-2-4).

    The single PRF underlying every primitive in [Snf_crypto]: DET and NDET
    keystreams, the Feistel round function, OPE's pseudorandom range splits
    and subkey derivation all reduce to SipHash-2-4 invocations under
    distinct derived keys. Keys are 16-byte strings.

    The kernel is allocation-free apart from its results: the SipHash
    state lives in unboxed locals, and the entry points below let callers
    hash a substring, XOR a keystream straight into a [Bytes.t] and build
    PRF labels in a reusable buffer, so no per-call string is copied or
    concatenated. *)

type key = string
(** Exactly 16 bytes. *)

val key_of_string : string -> key
(** [key_of_string s] derives a 16-byte key from an arbitrary string by
    absorbing it through the PRF under a fixed bootstrap key. *)

val random_key : Prng.t -> key

val mac : key -> string -> int64
(** [mac key msg] is the 64-bit SipHash-2-4 tag of [msg] under [key].
    @raise Invalid_argument if [key] is not 16 bytes. *)

val mac_sub : key -> string -> off:int -> len:int -> int64
(** [mac_sub key s ~off ~len] is [mac key (String.sub s off len)] without
    the copy. @raise Invalid_argument if the range is outside [s]. *)

val mac_bytes : key -> Bytes.t -> off:int -> len:int -> int64
(** {!mac_sub} over a [Bytes.t], for tagging a buffer that is still being
    filled (NDET tags the [iv || body] prefix of its ciphertext in place). *)

val mac_int : key -> int -> int64
(** PRF applied to the 8-byte little-endian encoding of an integer. *)

val tag : key -> string -> string
(** [mac] rendered as an 8-byte little-endian string. *)

val keystream : key -> nonce:string -> int -> string
(** [keystream key ~nonce n] expands [n] pseudo-random bytes in counter
    mode: block [i] is [mac key (nonce ^ le64 i)]. *)

val keystream_xor :
  key -> nonce:int64 -> string -> src_off:int -> Bytes.t -> dst_off:int -> len:int -> unit
(** [keystream_xor key ~nonce src ~src_off dst ~dst_off ~len] writes
    [src\[src_off, src_off + len)] XOR-ed with the keystream of the 8-byte
    nonce whose little-endian word is [nonce] into [dst] at [dst_off]:
    byte for byte the same as XOR-ing with
    [keystream key ~nonce:(le64 nonce) len], without building either
    string. [src] and [dst] may not overlap.
    @raise Invalid_argument if either range is out of bounds. *)

val derive : key -> string -> key
(** [derive key label] is a 16-byte subkey bound to [label]; distinct
    labels yield independent-looking subkeys. *)

val uniform_int : key -> string -> int -> int
(** [uniform_int key label bound] maps the PRF output under [label] to a
    uniform integer in [\[0, bound)] (rejection sampling over successive
    counter blocks). @raise Invalid_argument if [bound <= 0]. *)

(** Reusable label buffers for callers that draw many [uniform_int]s
    under structured labels (OPE's split nodes, ORE's bit prefixes):
    the label is assembled in place instead of by [Printf.sprintf] and
    concatenation. Not safe to share across domains. *)
module Label : sig
  type t

  val create : int -> t
  (** An empty label with room for about [capacity] bytes; it grows on
      demand. *)

  val reset : t -> unit
  (** Empty the label, keeping the buffer. *)

  val add_char : t -> char -> unit
  val add_string : t -> string -> unit

  val add_int : t -> int -> unit
  (** Appends the decimal digits [string_of_int] would print. *)

  val uniform_int : key -> t -> int -> int
  (** [uniform_int key t bound] is [Prf.uniform_int key label bound] for
      the label assembled so far. *)
end
