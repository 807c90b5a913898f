(** Typed corruption detection for the decrypt/reconstruct path.

    The SNF security argument assumes the server is semi-honest, but the
    {e storage} may still rot: bit-flips, truncated leaves, stale index
    entries, mismatched key material. The conformance contract
    (DESIGN.md §Testing & Conformance) is that such corruption must
    surface as a {e typed} error — never as a silently wrong answer.

    Every detection site in [Enc_relation] and [Executor] raises
    {!Corruption} rather than a bare [Invalid_argument], so callers (and
    the [Snf_check] fault-injection harness) can distinguish "the store is
    damaged" from "the caller misused the API". [System.query_checked]
    converts the exception back into a result. *)

type corruption = {
  where : string;
      (** detection site: ["tid"], ["cell"], ["leaf"], ["index"] or
          ["store"] *)
  leaf : string option;
  attr : string option;
  detail : string;
}

exception Corruption of corruption

val fail : ?leaf:string -> ?attr:string -> where:string -> string -> 'a
(** Raise {!Corruption} with the given coordinates. *)

val to_string : corruption -> string
