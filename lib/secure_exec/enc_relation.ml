open Snf_relational
module Scheme = Snf_crypto.Scheme
module Keyring = Snf_crypto.Keyring
module Det = Snf_crypto.Det
module Ndet = Snf_crypto.Ndet
module Ope = Snf_crypto.Ope
module Ore = Snf_crypto.Ore
module Paillier = Snf_crypto.Paillier
module Feistel = Snf_crypto.Feistel
module Prf = Snf_crypto.Prf
module Prng = Snf_crypto.Prng
module Nat = Snf_bignum.Nat
module Partition = Snf_core.Partition

module Metrics = Snf_obs.Metrics
module Span = Snf_obs.Span

(* Shared by every consumer of index accounting (Ledger, the index
   ablation, tests): registration is idempotent by name, so each gets the
   same counter pair. *)
let m_idx_hits = Metrics.counter "exec.eq_index.hits"
let m_idx_builds = Metrics.counter "exec.eq_index.builds"
let m_tid_cache_hits = Metrics.counter "exec.join.tid_cache.hits"
let m_tid_cache_misses = Metrics.counter "exec.join.tid_cache.misses"
(* Lookups of the per-column crypto memo ([memoised]); the names date
   from the client's former mapping cache, and perfbench and [Ledger]
   read them under these names. *)
let m_memo_hits = Metrics.counter "exec.mapping_cache.hits"
let m_memo_misses = Metrics.counter "exec.mapping_cache.misses"
let m_cells = Metrics.counter "enc.cells_encrypted"
let m_tids = Metrics.counter "enc.tids_encrypted"
let m_pooled = Metrics.counter "crypto.paillier.encrypt_pooled"

type cell =
  | C_plain of Value.t
  | C_bytes of string
  | C_ord of { ord : int; payload : string }
  | C_ore of { ore : Ore.ciphertext; payload : string }
  | C_nat of Nat.t

(* A deterministic column's equality classes, built on the column's
   first server read (see [form]); the mli documents each field. *)
type form = {
  class_of : int array;
  class_rep : cell array;
  run_start : int array;
  run_slots : int array;
  key_classes : (string, int list) Hashtbl.t;
  canonical : bool;
}

(* [built] holds the form once a read has built it; it stays [None] for
   a scheme that has none. *)
type enc_column = {
  attr : string;
  scheme : Scheme.kind;
  cells : cell array;
  built : form option Atomic.t;
}

type enc_leaf = {
  label : string;
  row_count : int;
  tids : string array;
  columns : enc_column list;
}

type t = {
  relation_name : string;
  leaves : enc_leaf list;
  paillier_public : Paillier.public_key;
}

(* --- column forms ------------------------------------------------------------ *)

(* Whole-cell equality, as the cells' wire bytes compare: an OPE cell
   is its ordinal and its payload, an ORE cell its symbols and its
   payload, and a plain float is its bits. *)
let cell_equal a b =
  a == b
  ||
  match (a, b) with
  | C_plain (Value.Float x), C_plain (Value.Float y) ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | C_plain (Value.Float _), _ | _, C_plain (Value.Float _) -> false
  | C_plain v, C_plain w -> v = w
  | C_bytes x, C_bytes y -> String.equal x y
  | C_ord x, C_ord y -> x.ord = y.ord && String.equal x.payload y.payload
  | C_ore x, C_ore y ->
    String.equal x.payload y.payload && (x.ore :> int array) = (y.ore :> int array)
  | C_nat x, C_nat y -> Nat.equal x y
  | _ -> false

(* Equal cells hash equal; an order part is left to the equality test,
   since the payload beside it already tells values apart. A ciphertext
   of eight bytes or more hashes by its first and last eight (a DET
   ciphertext opens with its synthetic IV, a PRF of the plaintext), so
   hashing makes no pass over the bytes. *)
let bytes_hash b =
  let n = String.length b in
  if n < 8 then Hashtbl.hash b
  else
    Int64.to_int (Int64.logxor (String.get_int64_le b 0) (String.get_int64_le b (n - 8))) lxor n

let cell_hash = function
  | C_plain v -> Hashtbl.hash v
  | C_bytes b | C_ord { payload = b; _ } | C_ore { payload = b; _ } -> bytes_hash b
  | C_nat n -> Hashtbl.hash (Nat.to_bytes_be n)

(* Classes numbered in first-occurrence order, through an open-addressed
   table of class ids at a load of at most one half: one hash per cell,
   and a cell comparison only against the first cell of a class whose
   slot it probes. *)
let classes_of_cells cells =
  let n = Array.length cells in
  let m = ref 8 in
  while !m < 2 * n do m := 2 * !m done;
  let mask = !m - 1 in
  let table = Array.make !m (-1) and firsts = Array.make n 0 and size = ref 0 in
  let rec probe i h =
    let c = table.(h) in
    if c < 0 then begin
      table.(h) <- !size;
      firsts.(!size) <- i;
      incr size;
      !size - 1
    end
    else if cell_equal cells.(firsts.(c)) cells.(i) then c
    else probe i ((h + 1) land mask)
  in
  let class_of = Array.init n (fun i -> probe i (cell_hash cells.(i) land mask)) in
  (class_of, Array.init !size (fun c -> cells.(firsts.(c))))

let deterministic = function
  | Scheme.Plain | Scheme.Det | Scheme.Ope | Scheme.Ore -> true
  | Scheme.Ndet | Scheme.Phe -> false

(* Canonical equality key of a cell, when the scheme makes ciphertexts
   canonical per plaintext. *)
let canonical_key scheme (cell : cell) =
  match ((scheme : Scheme.kind), cell) with
  | Scheme.Plain, C_plain v -> Some (Value.encode v)
  | Scheme.Det, C_bytes b -> Some b
  | Scheme.Ope, C_ord { ord; _ } -> Some (string_of_int ord)
  | _ -> None

(* Equal cells have equal canonical keys, so the key map is built from
   the class representatives alone. The cells were interned when the
   column was made, so each already is its class's representative. *)
let form_of_cells scheme cells =
  let class_of, class_rep = classes_of_cells cells in
  let classes = Array.length class_rep in
  let run_start = Array.make (classes + 1) 0 in
  Array.iter (fun c -> run_start.(c + 1) <- run_start.(c + 1) + 1) class_of;
  for c = 1 to classes do
    run_start.(c) <- run_start.(c) + run_start.(c - 1)
  done;
  let fill = Array.sub run_start 0 classes and run_slots = Array.make (Array.length cells) 0 in
  Array.iteri
    (fun slot c ->
      run_slots.(fill.(c)) <- slot;
      fill.(c) <- fill.(c) + 1)
    class_of;
  let key_classes = Hashtbl.create (if scheme = Scheme.Ore then 1 else classes) in
  let canonical = ref (scheme <> Scheme.Ore) in
  if scheme <> Scheme.Ore then
    for c = classes - 1 downto 0 do
      match canonical_key scheme class_rep.(c) with
      | Some key ->
        Hashtbl.replace key_classes key
          (c :: Option.value (Hashtbl.find_opt key_classes key) ~default:[])
      | None -> canonical := false
    done;
  { class_of; class_rep; run_start; run_slots; key_classes; canonical = !canonical }

(* Each slot is given its class's representative, which makes a stored
   column share one cell per class however it was decoded. *)
let make_column ~attr ~scheme cells =
  if deterministic scheme then begin
    let class_of, class_rep = classes_of_cells cells in
    Array.iteri
      (fun slot c -> if cells.(slot) != class_rep.(c) then cells.(slot) <- class_rep.(c))
      class_of
  end;
  { attr; scheme; cells; built = Atomic.make None }

(* Network server workers may read one column at once: the first to
   find no form builds it under [build_mutex], and the others wait for
   that build, so a column is built and counted once. *)
let build_mutex = Mutex.create ()

let form col =
  if not (deterministic col.scheme) then None
  else
    match Atomic.get col.built with
    | Some _ as f -> f
    | None ->
      Mutex.protect build_mutex (fun () ->
          match Atomic.get col.built with
          | Some _ as f -> f
          | None ->
            Metrics.incr m_idx_builds;
            let f = Some (form_of_cells col.scheme col.cells) in
            Atomic.set col.built f;
            f)

(* The client's key schedule: every subkey a column or a leaf can need,
   derived from the keyring once per client instead of on every cell
   decrypt, token and row position (one derivation is a dozen
   SipHash calls). Entries depend only on the master and the path, so
   they stay valid across key epochs. *)
type column_keys = {
  k_det : Det.key;
  k_ndet : Ndet.key;
  k_ope : Ope.t;
  k_ore : Ore.t;
  k_cell_rng : Prf.key;  (* per-slot randomness of randomized cells *)
  k_phe_pool : Prf.key;
  memo : crypto_memo;
}

(* The client's one memo of per-value crypto, per column:
   - the OPE/ORE order part by plaintext ordinal, [Ope.encrypt k_ope o] /
     [Ore.encrypt k_ore o], which both the onion check and token minting
     read; these tables are filled from client key material only;
   - a PHE cell's plaintext by its ciphertext bytes. This table is keyed
     by server bytes, and is safe because a Paillier decrypt is a
     function of the client's key and those bytes alone: only a
     plaintext that decoded is stored, and a replaced cell has other
     bytes, so it misses and is decrypted and checked afresh.
   Neither depends on the key epoch (the Paillier keypair never rotates),
   so the memo lives with the keys. Each table holds at most
   [crypto_memo_cap] entries; decrypts may run on any domain, so it is
   read and written under [memo_mutex]. *)
and crypto_memo = {
  memo_mutex : Mutex.t;
  ope_parts : (int, int) Hashtbl.t;
  ore_parts : (int, Ore.ciphertext) Hashtbl.t;
  phe_plains : (string, Value.t) Hashtbl.t;
}

type leaf_keys = {
  k_tid : Ndet.key;
  k_tid_rng : Prf.key;
  k_shuffle : Prf.key;  (* the leaf's row permutation *)
  k_binning : Prf.key;
}

type tid_entry = {
  e_source : string array;  (* the ciphertext array the entry was built from *)
  e_tids : int array;
  mutable e_order : int array option;
}

type client = {
  keyring : Keyring.t;
  paillier : Paillier.keypair;
  name : string;
  prng : Prng.t;
  (* Tid-decrypt memo for the join hot path: a leaf's tid ciphertexts are
     static between (re-)encryptions, so the decrypted int array — and,
     once a sort-merge join asks for it, the leaf's tid order — is cached
     per (leaf label, key epoch). Entries also retain the source ciphertext
     array and are only served when it is physically the same one — a
     corrupted or foreign copy of a leaf (same label, same epoch) misses
     and goes through the authenticated decrypt path. *)
  mutable key_epoch : int;
  tid_cache : (string * int, tid_entry) Hashtbl.t;
  (* Key schedule, filled on first use; [encrypt] fans out over domains,
     so lookups go through [schedule_mutex]. *)
  column_schedule : (string * string, column_keys) Hashtbl.t;
  leaf_schedule : (string, leaf_keys) Hashtbl.t;
  schedule_mutex : Mutex.t;
}

let make_client ?(seed = 0x0c11e47) ?(paillier_prime_bits = 48) ~relation_name ~master () =
  let prng = Prng.create seed in
  { keyring = Keyring.create ~master;
    paillier = Paillier.key_gen ~prime_bits:paillier_prime_bits prng;
    name = relation_name;
    prng;
    key_epoch = 0;
    tid_cache = Hashtbl.create 8;
    column_schedule = Hashtbl.create 16;
    leaf_schedule = Hashtbl.create 8;
    schedule_mutex = Mutex.create () }

let key_epoch c = c.key_epoch

let bump_key_epoch c =
  c.key_epoch <- c.key_epoch + 1;
  Hashtbl.reset c.tid_cache

let client_paillier c = c.paillier

(* --- key schedule ---------------------------------------------------------- *)

(* Keyring paths. Each leaf stores its rows under an independent keyed
   shuffle: without it, row position alone would link sub-relations and
   the encrypted tid would protect nothing. The permutation is derived
   from the keyring, so the owner (and the enclave) can compute a tid's
   slot directly. Randomness discipline for bulk encryption: every
   randomized cell (and tid) draws from a private
   stream derived from (keyring, leaf, attr, slot), never from the shared
   client PRNG, so ciphertexts depend only on the master key and the
   cell's position — bit-identical under any domain count (see
   [Parallel]). *)
let derive_column_keys c ~leaf ~attr =
  let path = [ c.name; leaf; attr ] in
  let kr = c.keyring in
  { k_det = Keyring.det_key kr path;
    k_ndet = Keyring.ndet_key kr path;
    k_ope = Keyring.ope kr path ~domain_bits:Codec.ordinal_bits;
    k_ore = Keyring.ore kr path ~bits:Codec.ordinal_bits;
    k_cell_rng = Keyring.derive kr ("cellrng" :: path);
    k_phe_pool = Keyring.derive kr ("phepool" :: path);
    memo =
      { memo_mutex = Mutex.create ();
        ope_parts = Hashtbl.create 64;
        ore_parts = Hashtbl.create 64;
        phe_plains = Hashtbl.create 64 } }

let derive_leaf_keys c ~leaf =
  let at suffix = [ c.name; leaf; suffix ] in
  let kr = c.keyring in
  { k_tid = Keyring.ndet_key kr (at Partition.tid_name);
    k_tid_rng = Keyring.derive kr (at "__tidrng");
    k_shuffle = Keyring.derive kr (at "__shuffle");
    k_binning = Keyring.derive kr (at "__binning") }

let scheduled c table key derive =
  Mutex.protect c.schedule_mutex (fun () ->
      match Hashtbl.find_opt table key with
      | Some k -> k
      | None ->
        let k = derive () in
        Hashtbl.add table key k;
        k)

let column_keys c ~leaf ~attr =
  scheduled c c.column_schedule (leaf, attr) (fun () -> derive_column_keys c ~leaf ~attr)

let leaf_keys c ~leaf = scheduled c c.leaf_schedule leaf (fun () -> derive_leaf_keys c ~leaf)

(* A full table is emptied before the next insert: the bound holds, and a
   column whose working set moves past the first [crypto_memo_cap] values
   keeps memoising. [derive] runs outside the mutex and may raise, which
   stores nothing. *)
let crypto_memo_cap = 4096

let memoised m table key derive =
  match Mutex.protect m.memo_mutex (fun () -> Hashtbl.find_opt table key) with
  | Some v ->
    Metrics.incr m_memo_hits;
    v
  | None ->
    Metrics.incr m_memo_misses;
    let v = derive key in
    Mutex.protect m.memo_mutex (fun () ->
        if Hashtbl.length table >= crypto_memo_cap then Hashtbl.reset table;
        Hashtbl.replace table key v);
    v

let ope_part ck ordinal = memoised ck.memo ck.memo.ope_parts ordinal (Ope.encrypt ck.k_ope)
let ore_part ck ordinal = memoised ck.memo ck.memo.ore_parts ordinal (Ore.encrypt ck.k_ore)

let crypto_memo_size c ~leaf ~attr ~scheme =
  let m = (column_keys c ~leaf ~attr).memo in
  Mutex.protect m.memo_mutex (fun () ->
      match (scheme : Scheme.kind) with
      | Scheme.Ope -> Hashtbl.length m.ope_parts
      | Scheme.Ore -> Hashtbl.length m.ore_parts
      | Scheme.Phe -> Hashtbl.length m.phe_plains
      | Scheme.Plain | Scheme.Det | Scheme.Ndet -> 0)

let row_position c ~leaf ~rows tid =
  if rows < 2 then tid
  else Feistel.permute ~key:(leaf_keys c ~leaf).k_shuffle ~domain:rows tid

let tid_at_with (lk : leaf_keys) ~rows slot =
  if rows < 2 then slot else Feistel.unpermute ~key:lk.k_shuffle ~domain:rows slot

let tid_at c ~leaf ~rows slot = tid_at_with (leaf_keys c ~leaf) ~rows slot

let binning_key c ~leaf = (leaf_keys c ~leaf).k_binning

(* A DET, OPE or ORE cell is a function of the column keys and the
   value alone, so each distinct value of such a column is encrypted
   once by [encrypt v (Value.encode v)], in first-occurrence order over
   the slots and fanned out over the domain pool, and its slots share
   the cell: the stored bytes are what encrypting every slot would give.
   Values are told apart by their encoding, which is what the cipher
   consumes ([Value.equal] would merge 0.0 and -0.0). *)
let shared_cells n value encrypt =
  let first = Hashtbl.create 64 in
  let distinct = ref [] in
  let index =
    Array.init n (fun slot ->
        let v = value slot in
        let encoded = Value.encode v in
        match Hashtbl.find_opt first encoded with
        | Some j -> j
        | None ->
          let j = Hashtbl.length first in
          Hashtbl.add first encoded j;
          distinct := (v, encoded) :: !distinct;
          j)
  in
  let distinct = Array.of_list (List.rev !distinct) in
  let cells =
    Parallel.tabulate (Array.length distinct) (fun j ->
        let v, encoded = distinct.(j) in
        encrypt v encoded)
  in
  Array.map (fun j -> cells.(j)) index

let phe_plaintext = function
  | Value.Int i when i >= 0 -> Nat.of_int i
  | Value.Int _ -> invalid_arg "Enc_relation: PHE requires non-negative integers"
  | _ -> invalid_arg "Enc_relation: PHE requires integer values"

(* The cells of one column, slot by slot; [value slot] is the plaintext
   stored at [slot]. *)
let encrypt_column c ~leaf (cs : Partition.column_spec) n value =
  let ck = column_keys c ~leaf ~attr:cs.name in
  Metrics.add m_cells n;
  match cs.scheme with
  | Scheme.Plain -> Array.init n (fun slot -> C_plain (value slot))
  | Scheme.Det ->
    shared_cells n value (fun _ encoded -> C_bytes (Det.encrypt ck.k_det encoded))
  | Scheme.Ope ->
    shared_cells n value (fun v encoded ->
        let ord = Ope.encrypt ck.k_ope (Codec.to_ordinal v) in
        C_ord { ord; payload = Det.encrypt ck.k_det encoded })
  | Scheme.Ore ->
    shared_cells n value (fun v encoded ->
        let ore = Ore.encrypt ck.k_ore (Codec.to_ordinal v) in
        C_ore { ore; payload = Det.encrypt ck.k_det encoded })
  | Scheme.Ndet ->
    Parallel.tabulate n (fun slot ->
        let rng = Parallel.item_prng ~key:ck.k_cell_rng slot in
        C_bytes (Ndet.encrypt ~rng ck.k_ndet (Value.encode (value slot))))
  | Scheme.Phe ->
    (* Precompute the r^n randomizers in parallel; each cell then costs
       one modular multiplication. *)
    let pool = Paillier.pool ~key:ck.k_phe_pool c.paillier in
    Paillier.pool_fill pool ~tabulate:(fun k f -> Parallel.tabulate k f) n;
    (* Pooled encryptions are batch-counted here rather than inside
       [Paillier.encrypt_with] — the kernel is a single modular
       multiplication (see bench/micro-paillier). *)
    Metrics.add m_pooled n;
    Parallel.tabulate n (fun slot ->
        C_nat (Paillier.encrypt_with pool slot (phe_plaintext (value slot))))

let encrypt client r rep =
  (* Re-encryption invalidates every cached tid decrypt: the new store's
     leaves may reuse labels with fresh contents. *)
  bump_key_epoch client;
  let leaves =
    Span.with_ ~name:"enc.encrypt" ~attrs:[ ("relation", client.name) ] @@ fun () ->
    List.map
      (fun ((l : Partition.leaf), piece) ->
        Span.with_ ~name:"enc.leaf" ~attrs:[ ("leaf", l.label) ] @@ fun () ->
        let n = Relation.cardinality piece in
        let lk = leaf_keys client ~leaf:l.label in
        (* slot_to_tid.(slot) = original row stored at that slot. *)
        let slot_to_tid = Array.init n (tid_at client ~leaf:l.label ~rows:n) in
        Metrics.add m_tids n;
        let tids =
          Parallel.tabulate n (fun slot ->
              let rng = Parallel.item_prng ~key:lk.k_tid_rng slot in
              Ndet.encrypt ~rng lk.k_tid (Value.encode (Value.Int slot_to_tid.(slot))))
        in
        let columns =
          List.map
            (fun (cs : Partition.column_spec) ->
              let col = Relation.column piece cs.name in
              make_column ~attr:cs.name ~scheme:cs.scheme
                (encrypt_column client ~leaf:l.label cs n (fun slot ->
                     col.(slot_to_tid.(slot)))))
            l.columns
        in
        { label = l.label; row_count = n; tids; columns })
      (Partition.materialize r rep)
  in
  { relation_name = client.name;
    leaves;
    paillier_public = client.paillier.Paillier.public }

let find_leaf t label =
  match List.find_opt (fun l -> l.label = label) t.leaves with
  | Some l -> l
  | None -> raise Not_found

let column leaf attr =
  match List.find_opt (fun c -> c.attr = attr) leaf.columns with
  | Some c -> c
  | None -> raise Not_found

(* Decryption is the trust boundary between the untrusted store and the
   client's answer: every authentication failure (and every onion whose
   order part disagrees with its payload) must surface as a typed
   [Integrity.Corruption], never as a wrong value. *)
let decrypt_with c ~leaf ~attr ~scheme keys cell =
  let authenticated f =
    try f () with Invalid_argument msg -> Integrity.fail ~leaf ~attr ~where:"cell" msg
  in
  match ((scheme : Scheme.kind), cell) with
  | Scheme.Plain, C_plain v -> v
  | Scheme.Det, C_bytes b ->
    authenticated (fun () -> Value.decode (Det.decrypt (keys ()).k_det b))
  | Scheme.Ndet, C_bytes b ->
    authenticated (fun () -> Value.decode (Ndet.decrypt (keys ()).k_ndet b))
  | Scheme.Ope, C_ord { ord; payload } ->
    let ck = keys () in
    let v = authenticated (fun () -> Value.decode (Det.decrypt ck.k_det payload)) in
    (* The order part drives server-side comparisons but carries no
       authenticator of its own: re-derive it from the authenticated
       payload and reject onions whose halves disagree. The re-derivation
       is memoised per ordinal; the comparison runs on every cell. *)
    if ope_part ck (Codec.to_ordinal v) <> ord then
      Integrity.fail ~leaf ~attr ~where:"cell"
        "OPE onion mismatch: order part disagrees with authenticated payload";
    v
  | Scheme.Ore, C_ore { ore; payload } ->
    let ck = keys () in
    let v = authenticated (fun () -> Value.decode (Det.decrypt ck.k_det payload)) in
    if Ore.compare_ciphertexts (ore_part ck (Codec.to_ordinal v)) ore <> 0 then
      Integrity.fail ~leaf ~attr ~where:"cell"
        "ORE onion mismatch: order part disagrees with authenticated payload";
    v
  | Scheme.Phe, C_nat n ->
    (* Paillier is additively malleable by design, so individual PHE cells
       carry no authenticator; the only detectable corruptions are a cell
       that is no ciphertext (not a unit mod n) and a plaintext outside
       the encodable range. Both raise before the memo stores anything. *)
    let ck = keys () in
    memoised ck.memo ck.memo.phe_plains (Nat.to_bytes_be n) (fun _ ->
        match Paillier.decrypt c.paillier n with
        | exception Invalid_argument _ ->
          Integrity.fail ~leaf ~attr ~where:"cell" "PHE cell is not a Paillier ciphertext"
        | m -> (
          match Nat.to_int_opt m with
          | Some i -> Value.Int i
          | None ->
            Integrity.fail ~leaf ~attr ~where:"cell"
              "PHE plaintext exceeds the native integer range"))
  | _ ->
    Integrity.fail ~leaf ~attr ~where:"cell"
      "scheme/cell shape mismatch (cell constructor does not fit the annotated scheme)"

(* The column's keys are read from the schedule once, here, instead of
   once per cell: a schedule lookup takes its mutex and hashes the leaf
   and attribute names, which costs about what a DET cell decrypt does.
   A plaintext column's cells need no keys, so it reads none. *)
let cell_decryptor c ~leaf ~attr ~scheme =
  let keys =
    match (scheme : Scheme.kind) with
    | Scheme.Plain -> fun () -> column_keys c ~leaf ~attr
    | _ ->
      let ck = column_keys c ~leaf ~attr in
      fun () -> ck
  in
  decrypt_with c ~leaf ~attr ~scheme keys

let decrypt_cell c ~leaf ~attr ~scheme cell = cell_decryptor c ~leaf ~attr ~scheme cell

let decrypt_column c ~leaf (col : enc_column) =
  Array.map (cell_decryptor c ~leaf ~attr:col.attr ~scheme:col.scheme) col.cells

let decrypt_tid_with key ~leaf ct =
  try Value.to_int_exn (Value.decode (Ndet.decrypt key ct))
  with Invalid_argument msg -> Integrity.fail ~leaf ~where:"tid" msg

let decrypt_tid c ~leaf ct = decrypt_tid_with (leaf_keys c ~leaf).k_tid ~leaf ct

(* Bulk tid decryption is pure per ciphertext, so it fans out over
   domains — the per-row crypto cost of a join's enclave side. [encrypt]
   writes tid [tid_at slot] at every slot, so an authentic ciphertext
   found at any other slot (swapped, duplicated) is a relinked column. *)
let decrypt_tids c (l : enc_leaf) =
  let lk = leaf_keys c ~leaf:l.label in
  let rows = Array.length l.tids in
  Parallel.tabulate rows (fun slot ->
      let tid = decrypt_tid_with lk.k_tid ~leaf:l.label l.tids.(slot) in
      if tid <> tid_at_with lk ~rows slot then
        Integrity.fail ~leaf:l.label ~where:"tid"
          (Printf.sprintf "slot %d holds a tid written for another slot" slot);
      tid)

let tid_entry c (l : enc_leaf) =
  let key = (l.label, c.key_epoch) in
  match Hashtbl.find_opt c.tid_cache key with
  | Some e when e.e_source == l.tids ->
    Metrics.incr m_tid_cache_hits;
    e
  | _ ->
    Metrics.incr m_tid_cache_misses;
    let e = { e_source = l.tids; e_tids = decrypt_tids c l; e_order = None } in
    Hashtbl.replace c.tid_cache key e;
    e

let decrypt_tids_cached c l = (tid_entry c l).e_tids

let tid_order_cached c l ~build =
  let e = tid_entry c l in
  if Option.is_none e.e_order then e.e_order <- build e.e_tids;
  e.e_order

let check_leaf l =
  if Array.length l.tids <> l.row_count then
    Integrity.fail ~leaf:l.label ~where:"leaf"
      (Printf.sprintf "tid column holds %d ciphertexts for a declared row_count of %d"
         (Array.length l.tids) l.row_count);
  List.iter
    (fun col ->
      if Array.length col.cells <> l.row_count then
        Integrity.fail ~leaf:l.label ~attr:col.attr ~where:"leaf"
          (Printf.sprintf "column holds %d cells for a declared row_count of %d"
             (Array.length col.cells) l.row_count))
    l.columns

let check_shape t = List.iter check_leaf t.leaves

let decrypt_leaf c (l : enc_leaf) =
  let key = (leaf_keys c ~leaf:l.label).k_tid in
  let tid_col =
    Array.map (fun ct -> Value.Int (decrypt_tid_with key ~leaf:l.label ct)) l.tids
  in
  let value_columns =
    List.map (fun col -> decrypt_column c ~leaf:l.label col) l.columns
  in
  let attr_of (col : enc_column) v0 =
    let ty =
      match Value.type_of v0 with
      | Some ty -> ty
      | None -> Value.TText (* all-null column: arbitrary printable type *)
    in
    Attribute.make col.attr ty
  in
  let attrs =
    List.map2
      (fun col vals ->
        let witness =
          Array.fold_left
            (fun acc v -> match acc with Value.Null -> v | _ -> acc)
            Value.Null vals
        in
        attr_of col witness)
      l.columns value_columns
  in
  let schema = Schema.of_attributes (Attribute.int Partition.tid_name :: attrs) in
  Relation.of_columns schema (Array.of_list (tid_col :: value_columns))

(* --- predicate tokens --------------------------------------------------- *)

type eq_token =
  | Eq_plain of Value.t
  | Eq_det of string
  | Eq_ord of int
  | Eq_ore of Ore.ciphertext

type range_token =
  | Rng_plain of Value.t * Value.t
  | Rng_ord of int * int
  | Rng_ore of Ore.ciphertext * Ore.ciphertext

(* An OPE/ORE token is the order part of its ordinal, read through the
   column's memo, which the onion check fills too. *)
let eq_token c ~leaf ~attr ~scheme v =
  let keys () = column_keys c ~leaf ~attr in
  match (scheme : Scheme.kind) with
  | Scheme.Plain -> Some (Eq_plain v)
  | Scheme.Det -> Some (Eq_det (Det.encrypt (keys ()).k_det (Value.encode v)))
  | Scheme.Ope -> Some (Eq_ord (ope_part (keys ()) (Codec.to_ordinal v)))
  | Scheme.Ore -> Some (Eq_ore (ore_part (keys ()) (Codec.to_ordinal v)))
  | Scheme.Ndet | Scheme.Phe -> None

let range_token c ~leaf ~attr ~scheme ~lo ~hi =
  match (scheme : Scheme.kind) with
  | Scheme.Plain -> Some (Rng_plain (lo, hi))
  | Scheme.Ope ->
    let ck = column_keys c ~leaf ~attr in
    Some (Rng_ord (ope_part ck (Codec.to_ordinal lo), ope_part ck (Codec.to_ordinal hi)))
  | Scheme.Ore ->
    let ck = column_keys c ~leaf ~attr in
    Some (Rng_ore (ore_part ck (Codec.to_ordinal lo), ore_part ck (Codec.to_ordinal hi)))
  | Scheme.Det | Scheme.Ndet | Scheme.Phe -> None

let cell_matches_eq tok cell =
  match (tok, cell) with
  | Eq_plain v, C_plain v' -> Value.equal v v'
  | Eq_det b, C_bytes b' -> Det.equal_ciphertexts b b'
  | Eq_ord o, C_ord { ord; _ } -> o = ord
  | Eq_ore o, C_ore { ore; _ } -> Ore.compare_ciphertexts o ore = 0
  | _ -> invalid_arg "Enc_relation.cell_matches_eq: token/cell mismatch"

let cell_in_range tok cell =
  match (tok, cell) with
  | Rng_plain (lo, hi), C_plain v ->
    Value.compare lo v <= 0 && Value.compare v hi <= 0
  | Rng_ord (lo, hi), C_ord { ord; _ } -> lo <= ord && ord <= hi
  | Rng_ore (lo, hi), C_ore { ore; _ } ->
    Ore.compare_ciphertexts lo ore <= 0 && Ore.compare_ciphertexts ore hi <= 0
  | _ -> invalid_arg "Enc_relation.cell_in_range: token/cell mismatch"

let phe_sum pk leaf attr =
  let col = column leaf attr in
  if col.scheme <> Scheme.Phe then
    invalid_arg "Enc_relation.phe_sum: column is not PHE";
  Paillier.sum pk
    (Array.map
       (function C_nat n -> n | _ -> invalid_arg "Enc_relation.phe_sum: malformed cell")
       col.cells)

let canonical_form (col : enc_column) =
  match (col.scheme : Scheme.kind) with
  | Scheme.Plain | Scheme.Det | Scheme.Ope -> form col
  | Scheme.Ndet | Scheme.Phe | Scheme.Ore -> None

let eq_index leaf ~attr =
  let form = canonical_form (column leaf attr) in
  if Option.is_some form then Metrics.incr m_idx_hits;
  form

(* One class's run is already ascending; the runs of several classes
   interleave, so their union is sorted. *)
let key_slots f key =
  let run c = Array.sub f.run_slots f.run_start.(c) (f.run_start.(c + 1) - f.run_start.(c)) in
  match Option.value (Hashtbl.find_opt f.key_classes key) ~default:[] with
  | [ c ] -> run c
  | classes ->
    let slots = Array.concat (List.map run classes) in
    Array.sort Int.compare slots;
    slots

let index_key_of_token = function
  | Eq_plain v -> Some (Value.encode v)
  | Eq_det b -> Some b
  | Eq_ord o -> Some (string_of_int o)
  | Eq_ore _ -> None

(* Every slot's cell is tested against its class's representative in
   slot order — a mismatch is corruption where="index" — and its sum
   cell joins its class's addends; the first malformed cell in slot
   order names the error. A group is the classes of one canonical key,
   read off their representatives, so the form's key map never decides
   a group; its first class holds its first slot, whose cell
   represents it. *)
let phe_group_sum pk leaf ~group_by ~sum =
  let gcol = column leaf group_by and scol = column leaf sum in
  if scol.scheme <> Scheme.Phe then
    invalid_arg "Enc_relation.phe_group_sum: sum column is not PHE";
  let f =
    match canonical_form gcol with
    | Some f -> f
    | None ->
      invalid_arg "Enc_relation.phe_group_sum: group column reveals no canonical equality"
  in
  let key = Array.map (canonical_key gcol.scheme) f.class_rep in
  let addends = Array.make (Array.length key) [] in
  Array.iteri
    (fun s gcell ->
      let c = f.class_of.(s) in
      if not (cell_equal gcell f.class_rep.(c)) then
        Integrity.fail ~leaf:leaf.label ~attr:group_by ~where:"index"
          "stale class table: a slot's cell differs from its class";
      if Option.is_none key.(c) then
        invalid_arg "Enc_relation.phe_group_sum: malformed group cell";
      match scol.cells.(s) with
      | C_nat n -> addends.(c) <- n :: addends.(c)
      | _ -> invalid_arg "Enc_relation.phe_group_sum: malformed sum cell")
    gcol.cells;
  (* Canonical output order (ascending canonical key): a deterministic
     function of ciphertexts the server already sees, so it reveals
     nothing new — and it makes the response {e byte-stable}, which is
     what lets a sharded coordinator merge per-shard group lists and
     still answer bit-identically to a single backend. *)
  List.init (Array.length key) Fun.id
  |> List.filter_map (fun c -> if addends.(c) = [] then None else Some (Option.get key.(c), c))
  |> List.stable_sort (fun (k1, _) (k2, _) -> String.compare k1 k2)
  |> List.fold_left
       (fun groups (k, c) ->
         match groups with
         | (k', first, ns) :: rest when String.equal k k' -> (k', first, addends.(c) @ ns) :: rest
         | _ -> (k, c, addends.(c)) :: groups)
       []
  |> List.rev_map (fun (_, c, ns) -> (f.class_rep.(c), Paillier.sum pk (Array.of_list ns)))

let cell_bytes = function
  | C_plain v -> Storage_model.plain_cell_bytes v
  | C_bytes b -> String.length b
  | C_ord { payload; _ } -> 6 + String.length payload
  | C_ore { payload; _ } -> 8 + String.length payload
  | C_nat n -> (Nat.bit_length n + 7) / 8

let leaf_measured_bytes l =
  let tid_total = Array.fold_left (fun acc s -> acc + String.length s) 0 l.tids in
  List.fold_left
    (fun acc col -> Array.fold_left (fun acc cell -> acc + cell_bytes cell) acc col.cells)
    tid_total l.columns

let measured_bytes t = List.fold_left (fun acc l -> acc + leaf_measured_bytes l) 0 t.leaves
