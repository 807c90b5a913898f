(** End-to-end facade: Algorithm 1 in one type.

    [outsource] performs the owner-side pipeline — dependency inference
    (or a supplied dependence graph), leakage closure, partitioning,
    encryption — and yields an [owner] handle bundling the key material,
    the normalization plan and the server-resident encrypted store.
    [query] runs the cloud-side path of lines 5–12. The owner retains the
    plaintext relation (data owners do), which powers [reference] answers
    and [verify]. *)

open Snf_relational

type ext_backend = {
  ext_name : string;  (** what {!backend_kind_name} reports, e.g. ["socket"] *)
  ext_connect : unit -> Server_api.conn;
      (** open a fresh connection to an {e empty} remote server; the
          binding ships the store through Install, like [`Disk] *)
}
(** An externally provided transport (e.g. [Snf_net.Client]'s socket
    backend), kept abstract here so [System] stays network-free. *)

type backend_kind = [ `Mem | `Disk | `Ext of ext_backend ]
(** Which server backend the owner's connection binds: [`Mem] adopts the
    in-process store behind the [Server_api] boundary; [`Disk] explodes
    the store image into a private temp directory ([Backend_disk]) and
    serves it paged from files; [`Ext] connects through a caller-supplied
    transport and installs the image remotely. Answers are bit-identical
    in every case — the backend is invisible above the message
    protocol. *)

val backend_kind_name : backend_kind -> string

val sharded : Backend_sharded.t -> backend_kind
(** A sharded coordinator as a backend kind (name ["sharded"]): binding
    ships the image through the coordinator's Install, which partitions
    it across the shard fleet; queries scatter-gather with byte-identical
    outer responses. Rebinding after {!release} reconnects the inner
    shards, so shard-failure recovery is release + retry. *)

type server_binding
(** The owner's (mutable) connection to its server backend. *)

type owner = {
  client : Enc_relation.client;
  policy : Snf_core.Policy.t;
  plan : Snf_core.Normalizer.plan;
  enc : Enc_relation.t;   (** what the cloud stores *)
  plaintext : Relation.t; (** retained at the owner *)
  server : server_binding;
  stats : Statistics.t;   (** server-visible planner statistics *)
}

val outsource :
  ?semantics:Snf_core.Semantics.t ->
  ?strategy:Snf_core.Normalizer.strategy ->
  ?graph:Snf_deps.Dep_graph.t ->
  ?mode:Snf_deps.Dep_graph.mode ->
  ?seed:int ->
  ?master:string ->
  ?backend:backend_kind ->
  name:string ->
  Relation.t ->
  Snf_core.Policy.t ->
  owner
(** When [graph] is omitted it is mined from the data
    ([Dep_graph.of_relation] with defaults and the given [mode]). Default
    strategy [`Non_repeating], master secret derived from [name] unless
    given. The server connection binds eagerly (default backend [`Mem]),
    so a [`Disk] owner's Install traffic is charged here, outside any
    query window. *)

val outsource_prepared :
  ?seed:int ->
  ?master:string ->
  ?backend:backend_kind ->
  name:string ->
  graph:Snf_deps.Dep_graph.t ->
  representation:Snf_core.Partition.t ->
  Relation.t ->
  Snf_core.Policy.t ->
  owner
(** Outsource under a caller-supplied representation (e.g. one fragment of
    a horizontal plan) instead of re-running a strategy. The plan records
    the given representation verbatim; its [snf] verdict is computed
    against [graph] with default semantics. *)

val with_backend : owner -> backend_kind -> owner
(** The same owner (keys, plan, store, plaintext) bound to a fresh
    connection over the given backend — eagerly, as in [outsource]. The
    original owner's binding is untouched; each handle releases its own
    connection. Used by the differential harness to compare backends on
    identical stores. *)

val release : owner -> unit
(** Close the owner's server connection (for [`Disk], removes its temp
    directory). Idempotent; the next query transparently rebinds. *)

val backend : owner -> backend_kind

val wire_stats : owner -> Server_api.wire_stats
(** Cumulative traffic on the owner's connection — includes the Install
    message for [`Disk] bindings, which per-query traces exclude. *)

val refresh_stats : owner -> int
(** Fetch the server's store statistics ([Server_api.store_stats]) into
    the owner's {!Statistics.t} and fold the current wire counters into
    its per-phase EWMAs; returns the (possibly advanced) statistics
    version. Called by {!cost_planner}; call it again after bulk store
    changes so a drifted store forces cached plans to be rebuilt. Always
    outside any query window — per-query wire accounting and recorded
    traces never carry statistics traffic. *)

val cost_planner : owner -> Planner.handle
(** A cost-based planner handle for this owner ([Cost_model.planner]):
    candidates priced from the owner's server-visible statistics
    (refreshed now, via {!refresh_stats}), plan cache stamped with the
    client's key epoch and the statistics version so key rotation or
    statistics drift forces re-planning. Pass it as [?planner] to
    {!query} / {!query_checked} / {!query_batch}. *)

val query :
  ?mode:Executor.mode ->
  ?planner:Planner.handle ->
  ?use_index:bool ->
  ?drop_tid:(int -> bool) ->
  owner -> Query.t -> (Relation.t * Executor.trace, string) result
(** [Executor.run_conn] over the owner's connection. [Error] is a
    planning failure. Detected storage corruption raises
    [Integrity.Corruption] (see [Executor.run_batch]); use
    {!query_checked} to receive it as a result instead. [planner]
    (default greedy) selects the planning handle; see {!cost_planner}. *)

val query_checked :
  ?mode:Executor.mode ->
  ?planner:Planner.handle ->
  ?use_index:bool ->
  ?drop_tid:(int -> bool) ->
  owner -> Query.t ->
  ( Relation.t * Executor.trace,
    [ `Plan of string | `Corruption of Integrity.corruption ] )
  result
(** Like {!query}, with detected storage corruption reified as
    [`Corruption] instead of an exception — the entry point the
    [Snf_check] fault-injection harness drives. *)

val query_batch :
  ?mode:Executor.mode ->
  ?planner:Planner.handle ->
  ?use_index:bool ->
  ?drop_tid:(int -> bool) ->
  owner -> Query.t list -> (Relation.t * Executor.trace, string) result list
(** K queries through one shared pass over the owner's connection
    ([Executor.run_batch]): one [Wire.Q_batch] round trip for all
    filters and one shared oblivious alignment per leaf set that two or
    more of them join. Every query, alone or batched, reads the client's
    one crypto memo ([Enc_relation.crypto_memo_cap]). Positional results;
    answers bag-identical to K {!query} calls, and a batch of one is
    {!query}. *)

val record_wire_trace : (unit -> 'a) -> 'a * Snf_obs.Wiretrace.trace
(** Run [f] with the SNFT wire-trace recorder on and return what the
    server saw: every SNFM round trip on every connection, in arrival
    order: [Snf_obs.Wiretrace.record], so recordings nest and an
    enclosing recording still receives every round. *)

val reference : owner -> Query.t -> Relation.t

val verify : ?mode:Executor.mode -> owner -> Query.t -> bool
(** Secure answer equals the plaintext reference answer as a bag
    (multiset of rows; column order fixed by the projection). *)

val storage_bytes : Storage_model.profile -> owner -> int
(** Accounted size of the outsourced representation. *)

val sum : owner -> leaf:string -> attr:string -> int
(** Homomorphic SUM over a PHE column: server-side aggregation +
    client-side decryption.
    @raise Integrity.Corruption (where ["cell"]) if the returned sum is no
    Paillier ciphertext (zero included) or its plaintext exceeds the
    native integer range.
    @raise Invalid_argument / Not_found as the underlying operations do. *)

val group_sum :
  owner -> leaf:string -> group_by:string -> sum:string ->
  (Snf_relational.Value.t * int) list
(** [SELECT group_by, SUM(sum) GROUP BY group_by], aggregated entirely
    server-side over ciphertexts ([Enc_relation.phe_group_sum]) and
    decrypted at the client; both columns must live in the named leaf.
    Sorted by group value. A group's sum fails as {!sum}'s does. *)
