module Metrics = Snf_obs.Metrics
module Wiretrace = Snf_obs.Wiretrace
module Leakage = Snf_obs.Leakage
module Paillier = Snf_crypto.Paillier
module Scheme = Snf_crypto.Scheme

(* Client-side accounting of the boundary traffic: the serialized bytes
   crossing the connection ARE the access-pattern leakage, so they are
   counted where the client observes them — globally and per phase. The
   counters are domain-sharded ([Metrics]), so sessions running on
   several domains still yield deterministic totals. *)
let m_requests = Metrics.counter "exec.wire.requests"
let m_bytes_up = Metrics.counter "exec.wire.bytes_up"
let m_bytes_down = Metrics.counter "exec.wire.bytes_down"

type phase_counters = {
  p_name : string;
  p_requests : Metrics.counter;
  p_bytes_up : Metrics.counter;
  p_bytes_down : Metrics.counter;
}

let phase_counters name =
  { p_name = name;
    p_requests = Metrics.counter (Printf.sprintf "exec.wire.%s.requests" name);
    p_bytes_up = Metrics.counter (Printf.sprintf "exec.wire.%s.bytes_up" name);
    p_bytes_down = Metrics.counter (Printf.sprintf "exec.wire.%s.bytes_down" name) }

let ph_admin = phase_counters "admin"
let ph_probe = phase_counters "probe"
let ph_filter = phase_counters "filter"
let ph_fetch = phase_counters "fetch"
let ph_phe = phase_counters "phe"

let phases =
  List.map (fun p -> p.p_name) [ ph_admin; ph_probe; ph_filter; ph_fetch; ph_phe ]

(* --- the server side ------------------------------------------------------ *)

type store_view = {
  describe : unit -> string * (string * int * string) list;
  check_shape : unit -> unit;
  install : string -> unit;
  leaf : string -> Enc_relation.enc_leaf;
  eq_index : leaf:string -> attr:string -> Enc_relation.form option;
  paillier : unit -> Paillier.public_key;
}

module type BACKEND = sig
  type t

  val name : string
  val view : t -> store_view
  val close : t -> unit
end

let check_slots ~rows slots =
  Array.iter
    (fun s ->
      if s < 0 || s >= rows then
        invalid_arg (Printf.sprintf "slot %d out of range for a leaf of %d rows" s rows))
    slots

(* The form and key an [F_eq] reads its slots from, when it can. *)
let index_key (col : Enc_relation.enc_column) tok =
  match (tok, col.Enc_relation.scheme, Enc_relation.form col) with
  | (Enc_relation.Eq_det _, Scheme.Det, Some f | Enc_relation.Eq_ord _, Scheme.Ope, Some f)
    when f.Enc_relation.canonical ->
    Option.map (fun key -> (f, key)) (Enc_relation.index_key_of_token tok)
  | _ -> None

(* Each op narrows the running mask. An [F_eq] of a DET token on a DET
   column or an OPE token on an OPE column whose cells all have a
   canonical key costs its matches: it reads the key's slots from the
   column's form. Every other token op scans the column. Both report
   [row_count] scanned cells per token op, so the response does not show
   which ran. The form is server state, so every slot it would keep is
   tested against the leaf's own cell first: a stale entry surfaces as
   corruption where="index", never as a wrong mask. The mask is built
   packed, in the bytes the response carries. *)
let eval_filter (l : Enc_relation.enc_leaf) ops =
  let n = l.Enc_relation.row_count in
  let mask = ref (Bitmask.create n true) in
  let scanned = ref 0 in
  let keep_only slots ~holds = mask := Bitmask.select !mask slots ~holds in
  let scan col test =
    scanned := !scanned + n;
    let cells = col.Enc_relation.cells in
    (* A slot past the end of a short column keeps its bit: a short
       column is [check_shape]'s to report. *)
    Bitmask.filter !mask (fun i -> i >= Array.length cells || test cells.(i))
  in
  let stale attr =
    Integrity.fail ~leaf:l.Enc_relation.label ~attr ~where:"index"
      "stale equality-index entry: an indexed slot does not hold the filtered key"
  in
  List.iter
    (function
      | Wire.F_slots slots ->
        check_slots ~rows:n slots;
        keep_only slots ~holds:(fun _ -> true)
      | Wire.F_eq (attr, tok) -> (
        let col = Enc_relation.column l attr in
        match index_key col tok with
        | Some (f, key) ->
          scanned := !scanned + n;
          let slots = Enc_relation.key_slots f key in
          if Array.exists (fun s -> s < 0 || s >= n) slots then stale attr;
          keep_only slots ~holds:(fun s ->
              Enc_relation.cell_matches_eq tok col.Enc_relation.cells.(s) || stale attr)
        | None -> scan col (Enc_relation.cell_matches_eq tok))
      | Wire.F_range (attr, tok) ->
        scan (Enc_relation.column l attr) (Enc_relation.cell_in_range tok))
    ops;
  (!mask, !scanned)

(* One fetched column. A Plain, DET, OPE or ORE column of more than
   [Wire.small_rows] rows is coded from its form's classes without
   hashing a cell; any other column crosses as its cells. Every fetched
   row's cell is tested against its class's representative (a mismatch
   is corruption where="index") — one pointer comparison for a column
   whose slots share their class's cell, as [Enc_relation.make_column]
   leaves them — and each dictionary entry is the leaf's own cell at the
   first fetched row of its class. *)
let fetch_column (l : Enc_relation.enc_leaf) slots attr =
  let col = Enc_relation.column l attr in
  let cells = col.Enc_relation.cells in
  match if Array.length slots > Wire.small_rows then Enc_relation.form col else None with
  | Some { Enc_relation.class_of; class_rep; _ } ->
    Wire.code_rows ~classes:(Array.length class_rep) (Array.length slots)
      ~class_of:(fun i ->
        let s = slots.(i) in
        let c = class_of.(s) in
        if not (Enc_relation.cell_equal cells.(s) class_rep.(c)) then
          Integrity.fail ~leaf:l.Enc_relation.label ~attr ~where:"index"
            "stale class table: a slot's cell differs from its class";
        c)
      ~cell_of:(fun i _ -> cells.(slots.(i)))
  | _ -> Wire.Cells (Array.map (Array.get cells) slots)

(* Fingerprint used both for SNFT token summaries and for the value-class
   digests of [Q_store_stats]: stable 16-hex identity of bytes the server
   already holds, never the bytes themselves. *)
let fp s = String.sub (Digest.to_hex (Digest.string s)) 0 16

let dispatch view (req : Wire.request) : Wire.response =
  match req with
  | Wire.Describe ->
    view.check_shape ();
    let relation_name, leaves = view.describe () in
    Wire.R_described { relation_name; leaves }
  | Wire.Install image ->
    view.install image;
    Wire.R_unit
  | Wire.Index_probe { leaf; attr; key } -> (
    (* The form is read (and its hit counted) whatever the key, so the
       exec.eq_index.hits counter is backend- and key-independent. *)
    match (view.eq_index ~leaf ~attr, key) with
    | Some form, Some key ->
      (* Descending, as the answer has always listed them. *)
      let slots = Enc_relation.key_slots form key in
      let n = Array.length slots in
      Wire.R_slots (Some (Array.init n (fun i -> slots.(n - 1 - i))))
    | _ -> Wire.R_slots None)
  | Wire.Fetch_rows { leaf; attrs; slots } ->
    let l = view.leaf leaf in
    check_slots ~rows:l.Enc_relation.row_count slots;
    Wire.R_rows (Array.of_list (List.map (fetch_column l slots) attrs))
  | Wire.Fetch_tids { leaf } -> Wire.R_tids (view.leaf leaf).Enc_relation.tids
  | Wire.Phe_sum { leaf; attr } ->
    let l = view.leaf leaf in
    Wire.R_nat (Enc_relation.phe_sum (view.paillier ()) l attr)
  | Wire.Group_sum { leaf; group_by; sum } ->
    let l = view.leaf leaf in
    Wire.R_groups (Enc_relation.phe_group_sum (view.paillier ()) l ~group_by ~sum)
  | Wire.Q_batch { queries } ->
    (* One pass over the touched leaves: each distinct leaf is loaded
       from the backend exactly once for the whole batch (one page-in on
       the disk backend instead of one per query), then every query's ops
       are evaluated against that single in-memory copy. Scan accounting
       is per query and unchanged, so a batch reports the same scanned
       totals K singles would. *)
    let loaded : (string, Enc_relation.enc_leaf) Hashtbl.t = Hashtbl.create 8 in
    let leaf_once label =
      match Hashtbl.find_opt loaded label with
      | Some l -> l
      | None ->
        let l = view.leaf label in
        Hashtbl.add loaded label l;
        l
    in
    Wire.R_batch
      { results =
          List.map
            (List.map (fun (label, ops) -> eval_filter (leaf_once label) ops))
            queries }
  | Wire.Q_store_stats ->
    (* Planner statistics, computed from nothing but what the store image
       already reveals: per-leaf row counts and, for columns with a
       canonical ciphertext, the number of cells under each canonical
       key, keyed by a digest of the key. The forms are read through the
       same [view.eq_index] path as probes, so the hit accounting of
       stats collection is backend-independent. *)
    let _, leaves = view.describe () in
    let stats =
      List.map
        (fun (label, rows, _) ->
          let l = view.leaf label in
          let attrs =
            List.filter_map
              (fun (col : Enc_relation.enc_column) ->
                match view.eq_index ~leaf:label ~attr:col.Enc_relation.attr with
                | None -> None
                | Some f ->
                  let run = f.Enc_relation.run_start in
                  let cells = List.fold_left (fun n c -> n + run.(c + 1) - run.(c)) 0 in
                  let classes =
                    Hashtbl.fold
                      (fun key classes acc -> (fp key, cells classes) :: acc)
                      f.Enc_relation.key_classes []
                    |> List.sort compare
                  in
                  Some { Wire.a_attr = col.Enc_relation.attr; a_classes = classes })
              l.Enc_relation.columns
          in
          { Wire.s_label = label; s_rows = rows; s_attrs = attrs })
        leaves
    in
    Wire.R_store_stats { leaves = stats }

exception Busy

(* The failure codec: [serve] answers a raised failure with its carrier,
   and [raise_failure] raises a carrier again. *)
let serve answer request_bytes =
  let resp =
    match answer (Wire.request_of_string request_bytes) with
    | resp -> resp
    | exception Integrity.Corruption c -> Wire.R_corrupt c
    | exception Not_found ->
      Wire.R_error { not_found = true; msg = "unknown leaf or attribute" }
    | exception Invalid_argument msg -> Wire.R_error { not_found = false; msg }
    | exception Busy -> Wire.R_busy
  in
  Wire.response_to_string resp

let raise_failure (resp : Wire.response) =
  match resp with
  | Wire.R_corrupt c -> raise (Integrity.Corruption c)
  | Wire.R_error { not_found = true; _ } -> raise Not_found
  | Wire.R_error { not_found = false; msg } -> invalid_arg msg
  | Wire.R_busy -> raise Busy
  | resp -> resp

let session_handler view = serve (dispatch view)

(* --- the connection -------------------------------------------------------- *)

type wire_stats = { requests : int; bytes_up : int; bytes_down : int }

type conn = {
  backend_name : string;
  handle : string -> string;
  close_backend : unit -> unit;
  c_requests : int Atomic.t;
  c_bytes_up : int Atomic.t;
  c_bytes_down : int Atomic.t;
  (* Tid-column memo, per leaf: the described digest of the last column
     fetched and checked, and the array decoded from it. While Describe
     keeps announcing that digest the column is not fetched again, and
     the memoised array is returned {e physically} unchanged — which is
     what lets [Enc_relation.decrypt_tids_cached] recognize a stable leaf
     across queries on a connection. *)
  tid_memo : (string, string * string array) Hashtbl.t;
  memo_mutex : Mutex.t;
}

let connect_handler ~name ~handle ~close =
  { backend_name = name;
    handle;
    close_backend = close;
    c_requests = Atomic.make 0;
    c_bytes_up = Atomic.make 0;
    c_bytes_down = Atomic.make 0;
    tid_memo = Hashtbl.create 4;
    memo_mutex = Mutex.create () }

let connect (type a) (module B : BACKEND with type t = a) (backend : a) =
  connect_handler ~name:B.name
    ~handle:(session_handler (B.view backend))
    ~close:(fun () -> B.close backend)

let backend_name conn = conn.backend_name
let close conn = conn.close_backend ()

let stats conn =
  { requests = Atomic.get conn.c_requests;
    bytes_up = Atomic.get conn.c_bytes_up;
    bytes_down = Atomic.get conn.c_bytes_down }

(* --- SNFT summaries ---------------------------------------------------------
   What the recorder logs for each message: only server-visible facts.
   Ciphertext tokens are fingerprinted ([Wire.token_fingerprint], over a
   fixed layout that does not follow the SNFM version) — the trace
   carries token {e identity}, never token bytes;
   order-revealing ordinals are logged as-is because their numeric order
   IS what the server sees. Nothing the server receives is withheld. *)

let op_desc op =
  match op with
  | Wire.F_slots slots -> Leakage.desc_slots slots
  | Wire.F_eq (attr, tok) ->
    let scheme, key =
      match tok with
      | Enc_relation.Eq_plain _ -> ("plain", Wire.token_fingerprint op)
      | Enc_relation.Eq_det _ -> ("det", Wire.token_fingerprint op)
      | Enc_relation.Eq_ord o -> ("ord", string_of_int o)
      | Enc_relation.Eq_ore _ -> ("ore", Wire.token_fingerprint op)
    in
    Leakage.desc_token ~kind:`Eq ~scheme ~key ~attr
  | Wire.F_range (attr, tok) ->
    let scheme, key =
      match tok with
      | Enc_relation.Rng_plain _ -> ("plain", Wire.token_fingerprint op)
      | Enc_relation.Rng_ord (lo, hi) -> ("ord", Printf.sprintf "%d..%d" lo hi)
      | Enc_relation.Rng_ore _ -> ("ore", Wire.token_fingerprint op)
    in
    Leakage.desc_token ~kind:`Range ~scheme ~key ~attr

let summarize_request (req : Wire.request) =
  match req with
  | Wire.Describe -> []
  | Wire.Install image -> [ ("size", string_of_int (String.length image)) ]
  | Wire.Index_probe { leaf; attr; key } ->
    [ ("leaf", leaf);
      ("attr", attr);
      ("key", match key with None -> "none" | Some k -> fp k) ]
  | Wire.Fetch_rows { leaf; attrs; slots } ->
    [ ("leaf", leaf); ("attrs", String.concat "," attrs); ("slots", Leakage.slots_csv slots) ]
  | Wire.Fetch_tids { leaf } -> [ ("leaf", leaf) ]
  | Wire.Phe_sum { leaf; attr } -> [ ("leaf", leaf); ("attr", attr) ]
  | Wire.Group_sum { leaf; group_by; sum } ->
    [ ("leaf", leaf); ("group_by", group_by); ("sum", sum) ]
  | Wire.Q_batch { queries } ->
    ("k", string_of_int (List.length queries))
    :: List.concat
         (List.mapi
            (fun i q ->
              ("q", string_of_int i)
              :: List.concat_map
                   (fun (leaf, ops) ->
                     ("leaf", leaf) :: List.map (fun o -> ("op", op_desc o)) ops)
                   q)
            queries)
  | Wire.Q_store_stats -> []

let summarize_response (resp : Wire.response) =
  match resp with
  | Wire.R_unit | Wire.R_nat _ -> []
  | Wire.R_described { relation_name; leaves } ->
    [ ("relation", relation_name);
      ( "leaves",
        String.concat ","
          (List.map (fun (l, n, _) -> Printf.sprintf "%s=%d" l n) leaves) ) ]
  | Wire.R_slots None -> [ ("slots", "none") ]
  | Wire.R_slots (Some slots) ->
    [ ("n", string_of_int (Array.length slots)); ("slots", Leakage.slots_csv slots) ]
  | Wire.R_rows cols ->
    [ ("cols", string_of_int (Array.length cols));
      ("rows", string_of_int (if Array.length cols = 0 then 0 else Wire.column_length cols.(0)))
    ]
  | Wire.R_tids tids -> [ ("n", string_of_int (Array.length tids)) ]
  | Wire.R_groups groups -> [ ("groups", string_of_int (List.length groups)) ]
  | Wire.R_error { not_found; _ } ->
    [ ("error", if not_found then "not_found" else "invalid") ]
  | Wire.R_corrupt c -> [ ("error", "corrupt"); ("where", c.Integrity.where) ]
  | Wire.R_batch { results } ->
    List.concat
      (List.mapi
         (fun i rs ->
           ("q", string_of_int i)
           :: List.map
                (fun (mask, scanned) ->
                  ( "mask",
                    Printf.sprintf "%d:%d:%s" (Bitmask.popcount mask) scanned
                      (Bitmask.to_hex mask) ))
                rs)
         results)
  | Wire.R_busy -> [ ("error", "busy") ]
  | Wire.R_store_stats { leaves } ->
    [ ("leaves", string_of_int (List.length leaves)) ]

(* One round trip: serialize, count, send, count, decode, and re-raise
   server-reported failures as the typed exceptions the pre-split code
   threw from the same situations. When the SNFT recorder is on, the
   round is logged before error re-raising, so failed round trips leak
   (and are recorded) exactly like successful ones. [decode] replaces
   [Wire.response_of_string] for stubs that can skip decoding bytes they
   have seen before. *)
let call ?(decode = Wire.response_of_string) conn ph req =
  let up = Wire.request_to_string req in
  let down = conn.handle up in
  Atomic.incr conn.c_requests;
  ignore (Atomic.fetch_and_add conn.c_bytes_up (String.length up));
  ignore (Atomic.fetch_and_add conn.c_bytes_down (String.length down));
  Metrics.incr m_requests;
  Metrics.add m_bytes_up (String.length up);
  Metrics.add m_bytes_down (String.length down);
  Metrics.incr ph.p_requests;
  Metrics.add ph.p_bytes_up (String.length up);
  Metrics.add ph.p_bytes_down (String.length down);
  let resp = decode down in
  if Wiretrace.recording () then
    Wiretrace.record_round ~phase:ph.p_name
      ~up:(Wire.request_tag req, String.length up, summarize_request req)
      ~down:(Wire.response_tag resp, String.length down, summarize_response resp);
  raise_failure resp

(* One raw round trip for connection *composers* (the sharded
   coordinator): per-connection atomics only — none of the global or
   per-phase [exec.wire.*] counters, no SNFT recording, no typed
   re-raising. The composer is itself behind an outer [call], which is
   where boundary traffic gets counted exactly once; inner fan-out
   traffic is the composer's to account (e.g. [exec.wire.shard<i>.*]). *)
let exchange_raw conn up =
  let down = conn.handle up in
  Atomic.incr conn.c_requests;
  ignore (Atomic.fetch_and_add conn.c_bytes_up (String.length up));
  ignore (Atomic.fetch_and_add conn.c_bytes_down (String.length down));
  down

let protocol_error what = invalid_arg ("Server_api: unexpected response to " ^ what)

let describe conn =
  match call conn ph_admin Wire.Describe with
  | Wire.R_described { relation_name; leaves } -> (relation_name, leaves)
  | _ -> protocol_error "Describe"

let install conn image =
  match call conn ph_admin (Wire.Install image) with
  | Wire.R_unit -> ()
  | _ -> protocol_error "Install"

let index_probe conn ~leaf ~attr ~key =
  match call conn ph_probe (Wire.Index_probe { leaf; attr; key }) with
  | Wire.R_slots slots -> slots
  | _ -> protocol_error "Index_probe"

let filter_batch conn ~queries =
  match call conn ph_filter (Wire.Q_batch { queries }) with
  | Wire.R_batch { results } ->
    if List.length results <> List.length queries then
      protocol_error "Q_batch (result count)"
    else results
  | _ -> protocol_error "Q_batch"

let fetch_rows conn ~leaf ~attrs ~slots =
  match call conn ph_fetch (Wire.Fetch_rows { leaf; attrs; slots }) with
  | Wire.R_rows rows -> rows
  | _ -> protocol_error "Fetch_rows"

(* A column memoised under the described digest is served without a
   round trip. Otherwise the column is fetched, and its response bytes
   must hash to the described digest before the decoded array replaces
   the memo; the round is recorded before a mismatch raises. *)
let fetch_tids conn ~leaf ~digest =
  match
    Mutex.protect conn.memo_mutex (fun () -> Hashtbl.find_opt conn.tid_memo leaf)
  with
  | Some (held, tids) when String.equal held digest -> tids
  | _ -> (
    let received = ref "" in
    let decode down =
      received := Digest.string down;
      Wire.response_of_string down
    in
    match call ~decode conn ph_fetch (Wire.Fetch_tids { leaf }) with
    | Wire.R_tids tids ->
      if not (String.equal !received digest) then
        Integrity.fail ~leaf ~where:"store"
          "tid column disagrees with its described digest";
      Mutex.protect conn.memo_mutex (fun () ->
          Hashtbl.replace conn.tid_memo leaf (digest, tids));
      tids
    | _ -> protocol_error "Fetch_tids")

let phe_sum conn ~leaf ~attr =
  match call conn ph_phe (Wire.Phe_sum { leaf; attr }) with
  | Wire.R_nat n -> n
  | _ -> protocol_error "Phe_sum"

let group_sum conn ~leaf ~group_by ~sum =
  match call conn ph_phe (Wire.Group_sum { leaf; group_by; sum }) with
  | Wire.R_groups groups -> groups
  | _ -> protocol_error "Group_sum"

let store_stats conn =
  match call conn ph_admin Wire.Q_store_stats with
  | Wire.R_store_stats { leaves } -> leaves
  | _ -> protocol_error "Q_store_stats"
