open Snf_relational
module Normalizer = Snf_core.Normalizer
module Partition = Snf_core.Partition
module Paillier = Snf_crypto.Paillier
module Nat = Snf_bignum.Nat

type ext_backend = {
  ext_name : string;
  ext_connect : unit -> Server_api.conn;
}

type backend_kind = [ `Mem | `Disk | `Ext of ext_backend ]

let backend_kind_name = function
  | `Mem -> "mem"
  | `Disk -> "disk"
  | `Ext e -> e.ext_name

(* A sharded coordinator as a backend kind: binding ships the image
   through the coordinator's Install, which partitions it across the
   shard fleet. Rebinding after a release reconnects the inner shards
   lazily, so a reconnect-and-retry after a shard failure is just
   release + query. *)
let sharded st =
  `Ext { ext_name = "sharded"; ext_connect = (fun () -> Backend_sharded.connect st) }

type binding = { for_enc : Enc_relation.t; conn : Server_api.conn }

type server_binding = { sb_backend : backend_kind; mutable sb : binding option }

type owner = {
  client : Enc_relation.client;
  policy : Snf_core.Policy.t;
  plan : Normalizer.plan;
  enc : Enc_relation.t;
  plaintext : Relation.t;
  server : server_binding;
  stats : Statistics.t;
}

(* A memory binding adopts the store in place — no Install message, and
   shared column forms, which the fault harness relies on. A disk binding
   ships the full image through Install into a private temp directory;
   that traffic is charged when the binding is made (outsourcing), not to
   any query window. *)
let install_image conn enc =
  try Server_api.install conn (Wire.to_string enc)
  with e ->
    Server_api.close conn;
    raise e

let bind kind enc =
  match kind with
  | `Mem -> Server_api.connect (module Backend_mem) (Backend_mem.of_store enc)
  | `Disk ->
    let conn = Server_api.connect (module Backend_disk) (Backend_disk.create_temp ()) in
    install_image conn enc;
    conn
  | `Ext e ->
    (* An external transport (e.g. a socket): connect, then ship the
       image through Install like the disk binding — the remote end
       starts empty. *)
    let conn = e.ext_connect () in
    install_image conn enc;
    conn

(* The binding follows [owner.enc] by physical identity: harness twins
   that swap in a tampered store ([{ owner with enc }]) transparently
   rebind, so the server always serves exactly the store the handle
   claims. *)
let conn_of owner =
  let b = owner.server in
  match b.sb with
  | Some { for_enc; conn } when for_enc == owner.enc -> conn
  | prev ->
    (match prev with Some { conn; _ } -> Server_api.close conn | None -> ());
    let conn = bind b.sb_backend owner.enc in
    b.sb <- Some { for_enc = owner.enc; conn };
    conn

let backend owner = owner.server.sb_backend

let release owner =
  match owner.server.sb with
  | None -> ()
  | Some { conn; _ } ->
    owner.server.sb <- None;
    Server_api.close conn

let with_backend owner kind =
  let owner = { owner with server = { sb_backend = kind; sb = None } } in
  ignore (conn_of owner);
  owner

let wire_stats owner = Server_api.stats (conn_of owner)

let finish ?(backend = `Mem) owner_sans_server =
  let owner = { owner_sans_server with server = { sb_backend = backend; sb = None } } in
  ignore (conn_of owner);
  owner

(* Planner statistics are refreshed on demand — at handle creation and
   other quiet moments, never inside a query window — so the extra
   Q_store_stats round trip shows up in admin traffic only and per-query
   wire accounting (and recorded traces) are exactly what they would be
   without a cost planner. *)
let refresh_stats owner =
  let conn = conn_of owner in
  Statistics.ingest owner.stats (Server_api.store_stats conn);
  Statistics.observe_wire owner.stats;
  Statistics.version owner.stats

let cost_planner owner =
  ignore (refresh_stats owner);
  Cost_model.planner
    ~epoch:(fun () -> Enc_relation.key_epoch owner.client)
    owner.stats

let outsource ?semantics ?strategy ?graph ?mode ?(seed = 0x5eed) ?master ?backend ~name r
    policy =
  let graph =
    match graph with
    | Some g -> g
    | None -> Snf_deps.Dep_graph.of_relation ?mode r
  in
  let plan = Normalizer.plan_with_graph ?semantics ?strategy graph policy in
  let master = Option.value master ~default:("master:" ^ name) in
  let client = Enc_relation.make_client ~seed ~relation_name:name ~master () in
  let enc = Enc_relation.encrypt client r plan.Normalizer.representation in
  finish ?backend
    { client;
      policy;
      plan;
      enc;
      plaintext = r;
      server = { sb_backend = `Mem; sb = None };
      stats = Statistics.create () }

let outsource_prepared ?(seed = 0x5eed) ?master ?backend ~name ~graph ~representation r
    policy =
  let plan =
    { Normalizer.policy;
      graph;
      representation;
      strategy = `Non_repeating;
      closure = Snf_core.Closure.analyze graph representation;
      snf = Snf_core.Audit.is_snf graph policy representation }
  in
  let master = Option.value master ~default:("master:" ^ name) in
  let client = Enc_relation.make_client ~seed ~relation_name:name ~master () in
  let enc = Enc_relation.encrypt client r representation in
  finish ?backend
    { client;
      policy;
      plan;
      enc;
      plaintext = r;
      server = { sb_backend = `Mem; sb = None };
      stats = Statistics.create () }

let query ?mode ?planner ?use_index ?drop_tid owner q =
  Executor.run_conn ?mode ?planner ?use_index ?drop_tid owner.client (conn_of owner)
    owner.plan.Normalizer.representation q

let query_checked ?mode ?planner ?use_index ?drop_tid owner q =
  match query ?mode ?planner ?use_index ?drop_tid owner q with
  | Ok r -> Ok r
  | Error e -> Error (`Plan e)
  | exception Integrity.Corruption c -> Error (`Corruption c)

let query_batch ?mode ?planner ?use_index ?drop_tid owner qs =
  Executor.run_batch ?mode ?planner ?use_index ?drop_tid owner.client (conn_of owner)
    owner.plan.Normalizer.representation qs

let record_wire_trace = Snf_obs.Wiretrace.record

let reference owner q = Query.reference_answer owner.plaintext q

let bag r =
  Relation.rows r
  |> List.map (fun row ->
         String.concat "\x00" (List.map Value.encode (Array.to_list row)))
  |> List.sort String.compare

let verify ?mode owner q =
  match query ?mode owner q with
  | Error _ -> false
  | Ok (answer, _) -> bag answer = bag (reference owner q)

let storage_bytes profile owner =
  Storage_model.representation_bytes profile owner.plaintext
    owner.plan.Normalizer.representation

(* Aggregation column schemes come from the representation, like every
   other decryption the client performs. *)
let rep_scheme owner ~leaf ~attr =
  let rep = owner.plan.Normalizer.representation in
  match List.find_opt (fun (l : Partition.leaf) -> l.Partition.label = leaf) rep with
  | None -> raise Not_found
  | Some l -> (
    match Partition.scheme_in_leaf l attr with
    | Some s -> s
    | None -> raise Not_found)

(* A server-folded PHE sum, decrypted. A sum that is no ciphertext (zero
   included) or whose plaintext leaves the native integer range comes
   from corrupt cells or a corrupt fold, so both are typed corruption. *)
let decrypt_sum owner ~leaf ~attr acc =
  let kp = Enc_relation.client_paillier owner.client in
  match Paillier.decrypt kp acc with
  | exception Invalid_argument _ ->
    Integrity.fail ~leaf ~attr ~where:"cell" "PHE sum is not a Paillier ciphertext"
  | m -> (
    match Nat.to_int_opt m with
    | Some i -> i
    | None ->
      Integrity.fail ~leaf ~attr ~where:"cell" "PHE sum exceeds the native integer range")

let group_sum owner ~leaf ~group_by ~sum =
  let conn = conn_of owner in
  let gscheme = rep_scheme owner ~leaf ~attr:group_by in
  Server_api.group_sum conn ~leaf ~group_by ~sum
  |> List.map (fun (rep_cell, acc) ->
         ( Enc_relation.decrypt_cell owner.client ~leaf ~attr:group_by ~scheme:gscheme
             rep_cell,
           decrypt_sum owner ~leaf ~attr:sum acc ))
  |> List.sort (fun (v1, _) (v2, _) -> Value.compare v1 v2)

let sum owner ~leaf ~attr =
  let conn = conn_of owner in
  decrypt_sum owner ~leaf ~attr (Server_api.phe_sum conn ~leaf ~attr)
