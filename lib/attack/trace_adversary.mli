(** Trace-replay adversary: every attack in this library, re-targeted at
    a recorded SNFT wire trace ({!Snf_obs.Wiretrace}) instead of direct
    access to the encrypted store.

    The adversary model is an honest-but-curious server replaying its own
    transcript: it sees token identities (ciphertext fingerprints or OPE
    ordinals), filter masks with slot positions, explicit fetch slots,
    index-probe answers and ORAM touch counts — exactly the
    {!Snf_obs.Leakage.query_view} decoding — plus {e auxiliary}
    knowledge: a joint plaintext sample with the same distribution as the
    outsourced relation (the standard aux assumption of
    {!Frequency_attack} and {!Inference_attack}).

    Scoring is done by the {e evaluator} (the bench harness), which holds
    ground truth the adversary never reads while attacking: the
    slot-to-row mapping of every leaf and the plaintext cells. The
    [ground] record carries that oracle.

    Four scorecard rows come out of one replay:

    - {b frequency}: row-weighted recovery of a protected (NDET)
      attribute. Token volumes are estimated from solo masks (exact) or
      conjunctive masks (confounded lower bounds), rank-matched against
      the aux marginal, transferred through the aux functional dependency
      [source -> protected], and attributed to physical rows through
      every slot channel naming a leaf known to hold the protected
      attribute (masks on co-located leaves, fetches, probe answers).
      Every guess a row receives is a vote; the row keeps the value with
      the most votes, a tie going to the least value by
      {!Value.compare}.
    - {b access pattern}: mean of two sub-scores. {e Token exposure}: per
      queried token, the fraction of its true row set the server saw
      certified by mask slots — per-conjunct solo masks expose it all,
      confounded conjunctions only the intersection. {e Result
      exposure}: per query, the Jaccard similarity between the true
      result rows and the slots observed on protected-attribute leaves —
      co-location exposes it in every execution mode, split
      representations only where reconstruction fetches real slots.
    - {b sorting}: OPE range-token endpoints, quantile-matched against
      the aux distribution ({!Sorting_attack} style) and scored as a
      multiset against the true queried endpoints.
    - {b inference}: precision of the frequency attack's guesses on the
      rows it linked — the cross-column FD transfer of
      {!Inference_attack}, conditioned on linkage. *)

open Snf_relational

type ground = {
  g_rows : int;  (** relation cardinality *)
  g_row : leaf:string -> slot:int -> int;
      (** physical slot of a leaf -> plaintext row (tid) *)
  g_value : int -> string -> Value.t;  (** plaintext cell (row, attr) *)
}

val ground_of_owner : Snf_exec.System.owner -> ground
(** Evaluation-only oracle built from the owner's keys: decrypts every
    leaf's tid column ({!Snf_exec.Enc_relation.decrypt_tids}) and reads
    the retained plaintext. *)

type scores = {
  s_frequency : float;  (** recovered protected cells / all rows *)
  s_access : float;  (** (token exposure + result exposure) / 2 *)
  s_access_token : float;
  s_access_result : float;
  s_sorting : float;  (** recovered range endpoints / queried endpoints *)
  s_inference : float;  (** precision on linked rows; 0 when none *)
  s_linked_rows : int;  (** rows the frequency attack reached *)
  s_baseline : float;  (** blind mode-guess accuracy on the aux marginal *)
}

val run :
  views:Snf_obs.Leakage.query_view list ->
  aux:(string * Value.t array) list ->
  ground:ground ->
  protected_attr:string ->
  source_attr:string ->
  ?range_truth:(string * Value.t * Value.t) list ->
  unit ->
  scores
(** Replay [views] (from {!Snf_obs.Leakage.queries}) against the aux
    sample (one column per attribute, rows aligned — the joint).
    [range_truth] lists the truly queried range endpoints
    [(attr, lo, hi)] for the sorting row; omitted or empty yields a 0.0
    sorting score when no range tokens were observed, and scores against
    an empty multiset otherwise. Deterministic, and a function of the
    multiset of views: every tie is broken by value or token identity,
    never by hash order, a row's guess is the plurality of its votes,
    and the access means are summed in ascending order. So neither the
    order of [views] nor the order in which a view lists its tokens,
    masks, fetches and probes ever moves a score, not even in the last
    bit. *)

val scores_to_json : scores -> Snf_obs.Json.t
