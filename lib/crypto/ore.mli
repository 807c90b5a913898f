(** Order-revealing encryption (ORE), CLWW-style.

    Chenette–Lewi–Weis–Wu comparison encoding: for each bit position the
    ciphertext stores the plaintext bit masked (mod 3) by a PRF of the bit
    prefix above it. Ciphertexts of two values agree exactly on the shared
    prefix; at the first differing position the mod-3 difference reveals
    which plaintext is larger.

    Leakage profile: equality, order, and the index of the most significant
    differing bit — the canonical CLWW leakage. The SNF leakage lattice
    conservatively rounds this up to {e Order}. *)

type t

val create : key:Prf.key -> bits:int -> t
(** Plaintexts in [\[0, 2^bits)], [bits] within [\[1, 62\]]. *)

type ciphertext = private int array
(** One mod-3 symbol per bit position, most significant first. *)

val encrypt : t -> int -> ciphertext

val compare_ciphertexts : ciphertext -> ciphertext -> int
(** Plaintext order, computable without the key.
    @raise Invalid_argument on length mismatch. *)

val first_diff_index : ciphertext -> ciphertext -> int option
(** The most significant differing position — the extra CLWW leakage
    beyond pure order; [None] when equal. *)

val symbols : ciphertext -> int array
(** The raw mod-3 symbols (a copy), for serialization. *)

val of_symbols : int array -> ciphertext
(** Rebuild a ciphertext from serialized symbols.
    @raise Invalid_argument if any symbol is outside [\[0, 2\]]. *)
