(** Fault injection over the encrypted store.

    Each injector damages a copy of an [Enc_relation.t] the way real
    storage rots — flipped ciphertext bits, authentic tid ciphertexts
    moved between slots, truncated or dropped
    partition leaves, stale equality-index entries, mismatched key
    material — and {!campaign} asserts the conformance contract: a query
    touching the damage must surface [Integrity.Corruption], never a
    silently wrong answer.

    Known, documented exclusions: PLAIN cells carry no cryptographic
    protection, and PHE (Paillier) cells are additively malleable {e by
    design} — authenticating them would destroy server-side aggregation —
    so neither is a bit-flip target (DESIGN.md §Testing & Conformance). *)

open Snf_exec

type kind =
  | Flip_cell      (** one bit of one authenticated cell ciphertext *)
  | Flip_tid       (** one bit of one NDET tid ciphertext *)
  | Swap_tid       (** two authentic tid ciphertexts of a leaf swapped *)
  | Dup_tid        (** one authentic tid ciphertext copied over another *)
  | Truncate_leaf  (** leaf loses its last row but keeps its row_count *)
  | Drop_leaf      (** a whole partition leaf disappears *)
  | Stale_index    (** two keys' classes swapped in a column's form *)
  | Key_mismatch   (** client keyed under the wrong master secret *)

val all : kind list

val name : kind -> string

(** {1 Store injectors}

    Every injector returns a damaged {e copy}; the input store is left
    intact (except {!poison_index}, which mutates a column's form in
    place — precisely the server state a stale index lives in). *)

val flip_cell :
  seed:int -> Enc_relation.t -> leaf:string -> attr:string -> Enc_relation.t * int
(** Flip one bit (or rotate one ORE symbol / perturb one OPE order part)
    of a seed-chosen cell; returns the damaged store and the slot. *)

val flip_tid : seed:int -> Enc_relation.t -> leaf:string -> Enc_relation.t * int

val swap_tids : seed:int -> Enc_relation.t -> leaf:string -> Enc_relation.t
(** Swap the tid ciphertexts of two seed-chosen slots of the leaf: every
    ciphertext stays authentic, two rows are relinked. A leaf of fewer
    than two rows is returned unchanged. *)

val dup_tid : seed:int -> Enc_relation.t -> leaf:string -> Enc_relation.t
(** Copy one seed-chosen tid ciphertext over another slot's: one tid
    appears twice and another not at all. A leaf of fewer than two rows
    is returned unchanged. *)

val truncate_leaf : Enc_relation.t -> leaf:string -> Enc_relation.t

val drop_leaf : Enc_relation.t -> leaf:string -> Enc_relation.t

val poison_index :
  Enc_relation.t -> leaf:string -> attr:string ->
  key_a:string -> key_b:string -> bool
(** Swap the classes of two keys in the column's form
    ([Enc_relation.form.key_classes]), in place; [false] when the column
    has no key map (NDET, PHE, ORE). *)

val mismatched_client : name:string -> Enc_relation.client
(** A client for [name] keyed under a wrong master secret — the PRF-key
    mismatch fault. *)

(** {1 Campaign} *)

type outcome = {
  kind : kind;
  applicable : bool;
      (** [false] when the instance cannot host the fault (e.g. no two
          distinct values to remap an index entry between) *)
  detected : bool;  (** the query surfaced [Integrity.Corruption] *)
  detail : string;
}

val campaign : ?seed:int -> Gen.instance -> outcome list
(** Run every fault class against fresh outsourcings of the instance,
    with a query aimed at the damaged region. An applicable outcome with
    [detected = false] is a conformance failure. *)

(** {1 Connection faults}

    The transport analogue of the storage campaign: sever a live socket
    connection to a running {!Snf_net.Server} at chosen points and
    assert the network conformance contract — the client surfaces the
    typed [Snf_net.Client.Disconnected] (never a raw [Unix.Unix_error]
    or [End_of_file]), the server reaps the dead session and keeps
    serving other connections, and reconnecting and retrying yields the
    oracle bag. *)

type conn_fault =
  | Drop_mid_request  (** wire dies after half a request frame *)
  | Drop_mid_query    (** wire dies between a query's round trips *)
  | Drop_mid_batch    (** wire dies under a batch *)
  | Drop_shard
      (** one shard of a two-shard [Backend_sharded] coordinator loses
          its wire mid-query; runs on its own pair of throwaway servers *)

val conn_fault_name : conn_fault -> string

type conn_outcome = {
  conn_kind : conn_fault;
  typed : bool;  (** the failure surfaced as [Disconnected], nothing rawer *)
  server_alive : bool;  (** a fresh connection still serves afterwards *)
  recovered : bool;  (** reconnect-and-retry produced the oracle bag *)
  conn_detail : string;
}

val conn_campaign : addr:string -> Gen.instance -> conn_outcome list
(** [addr] must point at a running server (e.g.
    [Snf_net.Server.start_mem]); the campaign Installs a fresh
    outsourcing of the instance through it, then runs every
    {!conn_fault} scenario on its own doomed connection. An outcome with
    any of the three flags [false] is a conformance failure. The server
    is left alive and serving. *)
