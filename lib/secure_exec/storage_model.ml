open Snf_relational
module Scheme = Snf_crypto.Scheme

type profile = Simulation | Deployment

let plain_cell_bytes v = String.length (Value.to_string v) + 1

(* Simulation sizes mirror the primitives in [Snf_crypto]:
   DET = 8-byte IV + body; NDET = 8 IV + body + 8 tag; OPE/ORE are onions
   (order part + DET payload: 6 or 8 bytes + 8 + body); PHE = |n^2| with
   48-bit primes (24 bytes). Kept in lockstep with
   [Enc_relation.measured_bytes] — tested in test_exec.ml. *)
let simulation_cell_bytes scheme v =
  let body = String.length (Value.encode v) in
  match (scheme : Scheme.kind) with
  | Scheme.Plain -> plain_cell_bytes v
  | Scheme.Det -> 8 + body
  | Scheme.Ndet -> 16 + body
  | Scheme.Ope -> 6 + 8 + body
  | Scheme.Ore -> 8 + 8 + body
  | Scheme.Phe -> 24

(* Deployment sizes: AES-128-CBC with IV and HMAC truncated to 10 bytes
   (42 + padded body), CryptDB OPE over int64 (16 with key id), ORE at
   2 bits/bit over 64-bit plaintexts plus framing, Paillier-2048 (512-byte
   residues mod n^2). *)
let deployment_cell_bytes scheme v =
  let body = String.length (Value.encode v) in
  let aes_padded = 16 * ((body / 16) + 1) in
  match (scheme : Scheme.kind) with
  | Scheme.Plain -> plain_cell_bytes v
  | Scheme.Det -> 16 + aes_padded
  | Scheme.Ndet -> 26 + aes_padded
  | Scheme.Ope -> 16
  | Scheme.Ore -> 32
  | Scheme.Phe -> 512

let cell_bytes profile =
  match profile with
  | Simulation -> simulation_cell_bytes
  | Deployment -> deployment_cell_bytes

let tid_bytes = function Simulation -> 25 | Deployment -> 8

let relation_plaintext_bytes r =
  let total = ref 0 in
  Relation.iter_rows r (fun _ row -> Array.iter (fun v -> total := !total + plain_cell_bytes v) row);
  !total

let column_bytes profile scheme col =
  Array.fold_left (fun acc v -> acc + cell_bytes profile scheme v) 0 col

let leaf_bytes profile r (l : Snf_core.Partition.leaf) =
  let n = Relation.cardinality r in
  List.fold_left
    (fun acc (c : Snf_core.Partition.column_spec) ->
      acc + column_bytes profile c.scheme (Relation.column r c.name))
    (n * tid_bytes profile)
    l.columns

let representation_bytes profile r rep =
  List.fold_left (fun acc l -> acc + leaf_bytes profile r l) 0 rep
