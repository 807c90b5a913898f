(** Order-preserving encryption (OPE).

    Boldyreva-style construction simulated by pseudorandom recursive range
    splitting: the domain [\[0, 2^domain_bits)] is mapped into the larger
    range [\[0, 2^range_bits)] by a strictly increasing function sampled
    from the key. At every recursion node the domain interval is halved and
    the matching range split point is drawn PRF-pseudorandomly among all
    feasible positions (we draw uniformly rather than hypergeometrically —
    the leakage profile, {e order and equality}, is identical and that is
    all the SNF model consumes).

    Encryption and decryption both replay the split path in
    [O(domain_bits)] PRF calls; the scheme is deterministic, stateless and
    needs no dictionary. *)

type t

val create : ?range_extra_bits:int -> key:Prf.key -> domain_bits:int -> unit -> t
(** [create ~key ~domain_bits ()] prepares an encryptor for plaintexts in
    [\[0, 2^domain_bits)]; ciphertexts live in
    [\[0, 2^(domain_bits + range_extra_bits))] (default extra: 15 bits).
    @raise Invalid_argument if [domain_bits] is outside [\[1, 40\]] or the
    range would exceed 62 bits. *)

val domain_bits : t -> int
val range_bits : t -> int

val encrypt : t -> int -> int
(** Strictly increasing in the plaintext. @raise Invalid_argument if the
    plaintext is out of the domain. *)

val decrypt : t -> int -> int
(** Total on the range: any point of a leaf interval decrypts to the leaf's
    plaintext, so [decrypt t (encrypt t x) = x]. *)

val compare_ciphertexts : int -> int -> int
(** The server-side operation OPE permits: plain integer order. *)
