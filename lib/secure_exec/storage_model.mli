(** Storage accounting for Table I.

    Two profiles:

    - [Simulation] — the byte sizes our primitives actually produce
      (small Paillier moduli, 8-byte tags). Useful for verifying the
      accountant against [Enc_relation.measured_bytes].
    - [Deployment] — sizes calibrated to a production stack (AES-128
      blocks with IV and MAC, CryptDB-style OPE int64 ciphertexts,
      2048-bit Paillier), the profile Table I is reported under. The
      paper's absolute megabytes arise from its specific dataset encoding;
      what must (and does) reproduce is the {e ordering and rough ratios}
      between representations.

    Plaintext cells are accounted at their rendered size (decimal digits /
    string bytes + separator), matching how a CSV-resident plaintext
    baseline is measured. *)

open Snf_relational

type profile = Simulation | Deployment

val plain_cell_bytes : Value.t -> int

val cell_bytes : profile -> Snf_crypto.Scheme.kind -> Value.t -> int
(** Stored bytes of one cell under a scheme. *)

val tid_bytes : profile -> int
(** Per-row cost of one strongly encrypted tid column. *)

val relation_plaintext_bytes : Relation.t -> int
(** The "Plaintext" row of Table I. *)

val leaf_bytes :
  profile -> Relation.t -> Snf_core.Partition.leaf -> int
(** Stored size of one materialized leaf (its columns under their schemes
    plus its tid column), measured against the base relation's data. *)

val representation_bytes :
  profile -> Relation.t -> Snf_core.Partition.t -> int

(** Single co-located relation, annotated schemes, {e no} tid column —
    the paper's strawman (naive CryptDB usage). *)
