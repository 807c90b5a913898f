(** Leakage profiler: folds an SNFT wire trace ({!Wiretrace}) into the
    per-query view an honest-but-curious server obtains, and into
    aggregate leakage metrics published as [exec.leak.*] counters.

    Everything here is computed from the trace alone, which records
    rounds in program order ({!Wiretrace}), so every number is
    bit-identical for any [SNF_DOMAINS].

    The summary vocabulary parsed here is produced by
    [Server_api.call]; the grammar is documented in DESIGN.md
    §Leakage observability. *)

(** One search token as the server sees it: no plaintext, only scheme
    and a stable identity (ciphertext fingerprint, or the ordinal
    values themselves for order-revealing schemes). *)
type token = {
  t_attr : string;
  t_kind : [ `Eq | `Range ];
  t_scheme : string;  (** ["plain"], ["det"], ["ord"], or ["ore"] *)
  t_key : string;
      (** identity: hex fingerprint, ordinal text, or ["lo..hi"] *)
}

(** Every slot set in a view is an [int array], in the order it crossed
    the wire. *)
type op = Op_slots of int array | Op_token of token

type mask_obs = {
  m_leaf : string;
  m_ops : op list;  (** the filter ops that produced this mask *)
  m_matched : int;
  m_slots : int array;  (** set bit positions of the returned mask, ascending *)
}

type fetch_obs = {
  f_round : int;
      (** the round's id in the trace: a batch's shared round carries
          the same id in every member view that holds it *)
  f_leaf : string;
  f_attrs : string list;
  f_slots : int array;
}

type query_view = {
  q_index : int;  (** position in the trace, from 0 *)
  q_tokens : token list;  (** in wire order *)
  q_masks : mask_obs list;
  q_fetches : fetch_obs list;
  q_probes : (string * string * int array option) list;
      (** index probes: leaf, attr, returned slots (None = no index) *)
  q_oram : (string * int) list;
      (** ORAM fetches: leaf, bucket touches of the fetch's reads *)
  q_leaves : string list;  (** distinct leaves touched, sorted *)
  q_in_batch : bool;
}

(** {2 Summary micro-grammar}

    Producer helpers used by [Server_api.call] when it records a round;
    the matching parsers live here too so the two sides cannot drift. *)

val slots_csv : int array -> string
(** A slot set as summaries carry it, in its order: ["1,2,3"]. *)

val desc_slots : int array -> string
(** Filter op descriptor for an explicit slot set: ["slots:1,2,3"]. *)

val desc_token :
  kind:[ `Eq | `Range ] -> scheme:string -> key:string -> attr:string -> string
(** Token op descriptor: ["eq:det:<fp>:zip"], ["range:ord:10..20:bal"]. *)

val mask_to_hex : string -> string
(** Hex of a packed mask's bytes (bit [k] of byte [i] is slot [8i+k]),
    high nibble first — [Snf_exec.Bitmask]'s layout, which is also the
    wire's. *)

val slots_of_hex : string -> int array
(** Set bit positions, ascending. Inverse of {!mask_to_hex}. *)

val queries : Wiretrace.trace -> query_view list
(** Cut a trace at its [query.begin]/[query.end] marks and decode each
    window. Inside a [batch.begin]/[batch.end] pair, the [Q_batch]
    round is re-attributed to the member query windows by the [q]
    indices carried in batch summaries; outside one, it is a lone
    query's batch of one, and its group 0 belongs to the open window.
    A batch's shared [Fetch_rows] rounds cross before any member window
    opens; each is attached to every member window whose [Q_batch]
    group names its leaf, since the server cannot tell which member
    asked.
    Events that fail to parse are skipped (the profiler is an observer,
    never a gate). *)

val tokens : Wiretrace.trace -> token list
(** Every search token the server received, in wire order: the filter
    tokens of every [Q_batch] round and the key of every keyed
    [Index_probe], whether or not a query window is open. (Inside a
    batch the probes run before the member windows open, so {!queries}
    does not see them; {!profile}'s token counts come from here.) *)

type profile = {
  p_queries : int;
  p_rounds : int;  (** request/response round trips, incl. admin *)
  p_bytes_up : int;
  p_bytes_down : int;
  p_eq_total : int;
      (** eq-token occurrences, over {!tokens} (every round, batched
          index probes included), as are the other [p_eq_*] and
          [p_range_*] counts *)
  p_eq_distinct : int;
  p_eq_repeats : int;  (** occurrences beyond the first per identity *)
  p_eq_max_run : int;  (** occurrences of the most repeated identity *)
  p_range_total : int;
  p_range_distinct : int;
  p_range_repeats : int;
  p_cooccur_pairs : int;
      (** distinct leaf pairs touched together inside one query *)
  p_cooccur_events : int;  (** total such pair incidences *)
  p_volumes : (int * int) list;
      (** result-volume distribution: (matched count, occurrences),
          ascending *)
  p_volume_distinct : int;
  p_slots_fetched : int;
      (** explicit slots requested via Fetch_rows, counted once per
          round, as tokens are: a shared round attached to several
          member views is not multiplied by them *)
  p_oram_touches : int;
  p_batches : int;
      (** [batch.begin] marks: batches of two or more executable
          queries. A lone query's [Q_batch] of one is not a batch. *)
  p_batch_queries : int;  (** queries that travelled inside a Q_batch *)
}

val profile : Wiretrace.trace -> profile

val publish : profile -> unit
(** Bump the [exec.leak.*] counters by the profile's values. *)
