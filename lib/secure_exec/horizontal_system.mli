(** Secure execution over horizontal + vertical representations (§IV-A).

    Each fragment (rows with [split_attr = v]) and the residual are
    outsourced as independent SNF instances — separate keys, shuffles and
    vertical layouts, so nothing links rows across fragments beyond what
    the split attribute's annotation already leaks (fragment membership is
    value-group equality, which is why [Horizontal.partition] requires the
    split key to tolerate equality leakage).

    Query routing: a query whose predicates pin the split attribute to a
    fragment value executes against that fragment only — the horizontal
    payoff: the fragment's vertical layout is often flatter, so fewer
    oblivious joins. Any other query fans out to every fragment and unions
    the answers. Both paths are verified against the plaintext reference. *)

open Snf_relational

type t

val outsource :
  ?seed:int ->
  ?master:string ->
  name:string ->
  Relation.t ->
  Snf_core.Policy.t ->
  Snf_core.Horizontal.t ->
  t
(** Split the rows, outsource each fragment under its own keys. *)

val fragment_count : t -> int

val routed_to : t -> Query.t -> [ `Fragment of Value.t | `Fan_out ]
(** Where the router would send this query: [`Fragment v] when some point
    predicate pins the split attribute to fragment value [v]. *)

val query :
  ?mode:Executor.mode -> t -> Query.t ->
  (Relation.t * Executor.trace list, string) result
(** One trace per segment executed (a single one for routed queries). *)

val verify : ?mode:Executor.mode -> t -> Query.t -> bool

val storage_bytes : Storage_model.profile -> t -> int
