open Snf_relational
module Metrics = Snf_obs.Metrics
module Span = Snf_obs.Span
module Wiretrace = Snf_obs.Wiretrace
module Partition = Snf_core.Partition
module Ndet = Snf_crypto.Ndet

(* Query-level totals, published once per executed query from the same
   values that land in [trace] — the Snf_obs totals therefore match the
   traces exactly. *)
let m_queries = Metrics.counter "exec.query.count"
let m_scanned = Metrics.counter "exec.query.scanned_cells"
let m_probes = Metrics.counter "exec.query.index_probes"
let m_comparisons = Metrics.counter "exec.query.comparisons"
let m_rows_processed = Metrics.counter "exec.query.rows_processed"
let m_result_rows = Metrics.counter "exec.query.result_rows"
let m_tokens = Metrics.counter "exec.query.tokens_minted"
let h_result_rows = Metrics.histogram "exec.query.result_rows_hist"

(* Batch-level totals: how many Q_batch passes ran and how many queries
   they carried. *)
let m_batches = Metrics.counter "exec.batch.count"
let m_batch_queries = Metrics.counter "exec.batch.queries"

type mode = [ `Sort_merge | `Oram | `Binning of int ]

let mode_name = function
  | `Sort_merge -> "sort-merge"
  | `Oram -> "oram"
  | `Binning b -> Printf.sprintf "binning(%d)" b

type trace = {
  plan : Planner.plan;
  decision : Planner.decision;
      (* the planner's full verdict for this query: estimate, rejected
         candidates, truncation notes, cache hit/miss — what EXPLAIN shows *)
  mode : mode;
  scanned_cells : int;
  index_probes : int;   (* predicate evaluations served by an equality index *)
  comparisons : int;
  rows_processed : int;
  oram_bucket_touches : int;
  binning_retrieved : int;
  result_rows : int;
  wire_requests : int;
  wire_bytes_up : int;
  wire_bytes_down : int;
  estimated_seconds : float;
}

let pred_holds (p : Query.pred) v =
  match p with
  | Query.Point (_, want) -> Value.equal v want
  | Query.Range (_, lo, hi) -> Value.compare lo v <= 0 && Value.compare v hi <= 0

(* The client's view of a planned leaf: label, row count and tid digest,
   as reported by the server's Describe response. Everything else —
   ciphertexts, masks, index slots — arrives through further messages. *)
type leaf_view = { lv_label : string; lv_rows : int; lv_digest : string }

(* Column schemes come from the representation — client knowledge — never
   from server metadata: a lying scheme tag could otherwise redirect
   decryption. *)
let scheme_table (rep : Partition.t) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (l : Partition.leaf) ->
      List.iter
        (fun (cs : Partition.column_spec) ->
          Hashtbl.replace tbl (l.Partition.label, cs.Partition.name) cs.Partition.scheme)
        l.Partition.columns)
    rep;
  fun label attr ->
    match Hashtbl.find_opt tbl (label, attr) with
    | Some s -> s
    | None -> raise Not_found

(* A predicate after the minting phase: either an equality index already
   served its slot list (§V-D "leakage as indexing"), or the server must
   scan the column under a minted token shipped in the Q_batch message.
   Indexed predicates keep the source predicate so the client can
   re-verify fetched rows against it — the index is server state and may
   be stale. A scanned [F_eq] may be answered from that same index on the
   server, which checks every slot it keeps against the leaf's cells
   ([Server_api.eval_filter]), so it needs no client check. *)
type compiled_pred =
  | Indexed of Query.pred * int array
  | Scan of Wire.filter_op

(* Client role: mint the token for one predicate. Under [use_index],
   point predicates are first offered to the server's equality index with
   an Index_probe message — sent (and answered by an index lookup) even
   when the token yields no canonical key, so index accounting does not
   depend on the token's shape. Probing happens sequentially, here, so
   the probes cross in predicate order. *)
let compile_pred ~use_index client conn ~scheme_of (lv : leaf_view) index_probes
    (p : Query.pred) =
  let attr = Query.pred_attr p in
  let label = lv.lv_label in
  let scheme = scheme_of label attr in
  let indexed =
    if not use_index then None
    else
      match p with
      | Query.Point (_, v) -> (
        let key =
          Option.bind
            (Enc_relation.eq_token client ~leaf:label ~attr ~scheme v)
            Enc_relation.index_key_of_token
        in
        match Server_api.index_probe conn ~leaf:label ~attr ~key with
        | Some slots ->
          Array.iter
            (fun s ->
              if s < 0 || s >= lv.lv_rows then
                Integrity.fail ~leaf:label ~attr ~where:"index"
                  (Printf.sprintf "equality-index slot %d outside [0, %d)" s lv.lv_rows))
            slots;
          index_probes := !index_probes + 1 + Array.length slots;
          Some slots
        | None -> None)
      | _ -> None
  in
  match indexed with
  | Some slots -> Indexed (p, slots)
  | None ->
    Metrics.incr m_tokens;
    let op =
      match p with
      | Query.Point (_, v) -> (
        match Enc_relation.eq_token client ~leaf:label ~attr ~scheme v with
        | Some tok -> Wire.F_eq (attr, tok)
        | None -> invalid_arg "Executor: planner homed an unsupported point predicate")
      | Query.Range (_, lo, hi) -> (
        match Enc_relation.range_token client ~leaf:label ~attr ~scheme ~lo ~hi with
        | Some tok -> Wire.F_range (attr, tok)
        | None -> invalid_arg "Executor: planner homed an unsupported range predicate")
    in
    Scan op

let filter_ops compiled =
  List.map (function Indexed (_, slots) -> Wire.F_slots slots | Scan op -> op) compiled

(* --- fetch windows --------------------------------------------------------- *)

(* One fetched attribute of a window: its distinct cells, the entry of
   each row in window order ([None]: row j is entry j) and its
   decryptor, resolved once. A coded column's entry is decrypted at its
   first use and kept in [f_plain], so a window pays one decrypt per
   distinct ciphertext; a column that crossed as cells has no repeat to
   save and decrypts each use. [f_values] holds the decrypted column
   once a caller has asked for all of it. *)
type fetched = {
  f_attr : string;
  f_dict : Enc_relation.cell array;
  f_codes : int array option;
  f_plain : Value.t option array;
  f_decrypt : Enc_relation.cell -> Value.t;
  mutable f_values : Value.t array option;
}

(* Row [j] of the window, decrypted. *)
let cell_value f j =
  match f.f_codes with
  | None -> f.f_decrypt f.f_dict.(j)
  | Some codes -> (
    let e = codes.(j) in
    match f.f_plain.(e) with
    | Some v -> v
    | None ->
      let v = f.f_decrypt f.f_dict.(e) in
      f.f_plain.(e) <- Some v;
      v)

(* A window of ciphertext cells — (attrs × slots) of one leaf — fetched
   in a single message. [w_slots] is ascending and distinct, which is
   also the order the request sends. Nothing is decrypted until asked
   for, so over-fetching (binning decoys) costs wire bytes, not decrypt
   work. *)
type window = { w_slots : int array; w_cols : fetched list }

let no_window = { w_slots = [||]; w_cols = [] }

(* The ascending, distinct slots among a leaf's [rows] that [iter]
   yields: one mark-and-scan, no sort. *)
let ascending_slots ~rows iter =
  let mark = Bitmask.create rows false in
  iter (Bitmask.set mark);
  Bitmask.to_slots mark

(* [slots] must be ascending and distinct. No attributes, no round trip. *)
let window client conn ~scheme_of ~label ~attrs ~slots =
  if attrs = [] then no_window
  else begin
    let cols = Server_api.fetch_rows conn ~leaf:label ~attrs ~slots in
    if Array.length cols <> List.length attrs then
      invalid_arg "Executor: row fetch returned a wrong number of columns";
    { w_slots = slots;
      w_cols =
        List.mapi
          (fun i attr ->
            if Wire.column_length cols.(i) < Array.length slots then
              invalid_arg "Executor: row fetch returned a short column";
            let f_dict, f_codes =
              match cols.(i) with
              | Wire.Cells cells -> (cells, None)
              | Wire.Coded { dict; codes } -> (dict, Some codes)
            in
            { f_attr = attr;
              f_dict;
              f_codes;
              f_plain =
                (if Option.is_none f_codes then [||] else Array.make (Array.length f_dict) None);
              f_decrypt =
                Enc_relation.cell_decryptor client ~leaf:label ~attr
                  ~scheme:(scheme_of label attr);
              f_values = None })
          attrs }
  end

let fetched w attr =
  if w.w_cols = [] then invalid_arg "Executor: no attributes were fetched";
  match List.find_opt (fun f -> String.equal f.f_attr attr) w.w_cols with
  | Some f -> f
  | None -> raise Not_found

(* Typed on ints: left polymorphic, every [=] and [<] here would be a
   [caml_equal]/[caml_lessthan] call, once per probe of every row. *)
let rec search (slots : int array) (slot : int) lo hi =
  if lo >= hi then invalid_arg "Executor: slot outside the fetched window"
  else
    let mid = (lo + hi) lsr 1 in
    let s = slots.(mid) in
    if s = slot then mid else if s < slot then search slots slot (mid + 1) hi
    else search slots slot lo mid

(* A slot's index in the window, by binary search. *)
let position w slot = search w.w_slots slot 0 (Array.length w.w_slots)

(* Every cell of [attr] decrypted, in window order, once per window. *)
let values w attr =
  let f = fetched w attr in
  match f.f_values with
  | Some vs -> vs
  | None ->
    let vs = Array.init (Array.length w.w_slots) (cell_value f) in
    f.f_values <- Some vs;
    vs

(* [attr] at [slots], in that order; every slot must be in the window.
   The window's own slot array reads the whole column at once. *)
let column_at w attr slots =
  if slots == w.w_slots then values w attr
  else
    let f = fetched w attr in
    match f.f_values with
    | Some vs -> Array.map (fun s -> vs.(position w s)) slots
    | None -> Array.map (fun s -> cell_value f (position w s)) slots

(* One cell: the binning path's wanted rows. *)
let value w attr slot = cell_value (fetched w attr) (position w slot)

(* Client-side re-verification of index-served predicates: the equality
   index is mutable server state, so a row it returned must still satisfy
   the predicate once decrypted — a stale entry surfaces as detected
   corruption, never as a wrong answer. Scanned predicates need no check:
   their ciphertext test ran on the cells themselves — a full scan, or an
   equality-index lookup whose every kept slot the server tested against
   its cell, raising corruption where="index" on a stale entry. A window
   may be shared with other members of a batch, whose rows need not
   satisfy this member's predicates, so only the member's own [slots]
   are checked. *)
let verify_indexed w label compiled slots =
  List.iter
    (function
      | Indexed (p, _) ->
        let attr = Query.pred_attr p in
        Array.iter
          (fun v ->
            if not (pred_holds p v) then
              Integrity.fail ~leaf:label ~attr ~where:"index"
                "stale equality-index entry: fetched row does not satisfy its predicate")
          (column_at w attr slots)
      | Scan _ -> ())
    compiled

let indexed_attrs compiled =
  List.filter_map
    (function Indexed (p, _) -> Some (Query.pred_attr p) | Scan _ -> None)
    compiled

(* The answer, column by column. A column's type is that of its first
   non-null value (text when there is none). *)
let build_result (q : Query.t) columns =
  let ty col = Option.value (Array.find_map Value.type_of col) ~default:Value.TText in
  let schema =
    Schema.of_attributes (List.map2 (fun a col -> Attribute.make a (ty col)) q.Query.select columns)
  in
  Relation.of_columns schema (Array.of_list columns)

(* [List.assoc_opt] by [String.equal]: the anchor paths look up a
   partner row's attributes and leaves once per row and column, where the
   polymorphic [compare] under [List.assoc] is a C call per key. *)
let rec assoc_str key = function
  | (k, v) :: rest -> if String.equal k key then Some v else assoc_str key rest
  | [] -> None

let preds_at (plan : Planner.plan) label =
  List.filter_map
    (fun (p, home) -> if String.equal home label then Some p else None)
    plan.Planner.pred_home

let proj_leaf (plan : Planner.plan) attr =
  match List.assoc_opt attr plan.Planner.proj_home with
  | Some l -> l
  | None -> invalid_arg "Executor: projection attribute without a home leaf"

(* The anchor drives the per-row fetches of the ORAM/binning paths, so the
   best anchor is the most selective one: fewest mask survivors, ties
   broken toward more homed predicates, then plan order. *)
let anchor_label (plan : Planner.plan) lvs masks =
  let scored =
    List.map2
      (fun lv mask ->
        (Bitmask.popcount mask, -List.length (preds_at plan lv.lv_label), lv.lv_label))
      lvs masks
  in
  match List.stable_sort compare scored with
  | (_, _, label) :: _ -> label
  | [] -> invalid_arg "Executor: empty plan"

let needed_attrs_of_leaf (q : Query.t) plan label =
  let projs = List.filter (fun a -> proj_leaf plan a = label) q.Query.select in
  let preds = List.map Query.pred_attr (preds_at plan label) in
  List.sort_uniq String.compare (projs @ preds)

(* Attributes the client must fetch from a leaf for verification and
   projection: the select attributes homed there plus the predicates an
   index answered (those need re-verification). *)
let fetched_attrs (q : Query.t) plan label compiled =
  let projs = List.filter (fun a -> proj_leaf plan a = label) q.Query.select in
  List.sort_uniq String.compare (projs @ indexed_attrs compiled)

(* --- shared fetch windows ------------------------------------------------ *)

(* What a reconstructed member reads from one planned leaf: the
   attributes it fetches there, its rows in the order its answer lists
   them, and the predicates an index served there. [r_window] is filled
   in once every member of the batch has been reconstructed. *)
type read = {
  r_lv : leaf_view;
  r_attrs : string list;
  r_slots : int array;
  r_compiled : compiled_pred list;
  mutable r_window : window;
}

(* One read per planned leaf that fetches anything, in plan order;
   [slots.(i)] holds leaf [i]'s rows. *)
let reads_of q plan lvs compiled slots =
  List.combine lvs compiled
  |> List.mapi (fun i (lv, c) -> (lv, c, slots.(i)))
  |> List.filter_map (fun (lv, c, r_slots) ->
         match fetched_attrs q plan lv.lv_label c with
         | [] -> None
         | attrs ->
           Some { r_lv = lv; r_attrs = attrs; r_slots; r_compiled = c; r_window = no_window })

(* One Fetch_rows per distinct (leaf, attribute list) among [reads], in
   order of first appearance, carrying the ascending union of their
   slots; a group whose union is empty still sends its 0-slot
   request. Every window is fetched before any cell is decrypted.
   Attribute lists are not merged within a leaf: a window of every
   attribute at every slot ships and decrypts cells no member reads. *)
let fetch_shared client conn ~scheme_of reads =
  let groups = Hashtbl.create 8 and order = ref [] in
  List.iter
    (fun r ->
      let key = (r.r_lv.lv_label, r.r_attrs) in
      match Hashtbl.find_opt groups key with
      | Some rs -> Hashtbl.replace groups key (r :: rs)
      | None ->
        Hashtbl.add groups key [ r ];
        order := key :: !order)
    reads;
  List.iter
    (fun ((label, attrs) as key) ->
      let rs = Hashtbl.find groups key in
      let slots =
        ascending_slots ~rows:(List.hd rs).r_lv.lv_rows (fun f ->
            List.iter (fun r -> Array.iter f r.r_slots) rs)
      in
      let w = window client conn ~scheme_of ~label ~attrs ~slots in
      List.iter (fun r -> r.r_window <- w) rs)
    (List.rev !order)

(* A member's answer from its filled-in reads: index-served rows
   re-verified leaf by leaf, then every selected attribute read at the
   rows of its leaf. *)
let answer q plan reads =
  List.iter (fun r -> verify_indexed r.r_window r.r_lv.lv_label r.r_compiled r.r_slots) reads;
  build_result q
    (List.map
       (fun attr ->
         let label = proj_leaf plan attr in
         match List.find_opt (fun r -> String.equal r.r_lv.lv_label label) reads with
         | Some r -> column_at r.r_window attr r.r_slots
         | None -> invalid_arg "Executor: no attributes were fetched")
       q.Query.select)

(* A single-leaf plan's rows: its mask's slots. [drop_tid] is optional
   here: a slot's tid costs a Feistel unpermute, and only the caller's
   tombstone filter needs it. *)
let single_slots ~drop_tid client (lv : leaf_view) mask =
  match drop_tid with
  | None -> Bitmask.to_slots mask
  | Some drop ->
    let label = lv.lv_label and n = lv.lv_rows in
    let kept = Bitmask.create n false in
    Bitmask.iter_set
      (fun i ->
        if not (drop (Enc_relation.tid_at client ~leaf:label ~rows:n i)) then
          Bitmask.set kept i)
      mask;
    Bitmask.to_slots kept

(* --- sort-merge reconstruction ------------------------------------------ *)

(* The join works on tid ciphertext columns; get each planned leaf's
   column and rebuild a minimal [enc_leaf] around it. [Server_api]
   returns the same physical array, without a round trip, while Describe
   announces the digest it was checked against, so
   [Enc_relation.decrypt_tids_cached] still recognizes a stable leaf
   across queries on one connection. *)
let synthetic_leaf conn (lv : leaf_view) =
  let tids = Server_api.fetch_tids conn ~leaf:lv.lv_label ~digest:lv.lv_digest in
  if Array.length tids <> lv.lv_rows then
    Integrity.fail ~leaf:lv.lv_label ~where:"store"
      "tid column length disagrees with the described row count";
  { Enc_relation.label = lv.lv_label; row_count = lv.lv_rows; tids; columns = [] }

(* --- anchor + fetch reconstructions (ORAM / binning) --------------------- *)

(* The ORAM fetcher's rows by tid, compared as ints and hashed by value:
   no [caml_hash] or [caml_compare] call per row. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash t = t land max_int
end)

(* Partner-leaf access plumbing shared by the ORAM and binning paths: for a
   tid, retrieve the decrypted values of the attrs this query needs from
   that leaf. *)
type fetcher = {
  fetch : int -> (string * Value.t) list;  (* tid -> (attr, value) *)
  leaf_label : string;
}

(* ORAM partner access over the boundary: fetch the partner's needed
   ciphertexts once, decrypt and seal them into uniform blocks, and send
   them with the slots of the wanted tids in one Oram_fetch. The server
   builds a Path ORAM from the blocks, reads one block per anchor
   survivor and drops the tree: it observes the install, one
   root-to-leaf bucket path per read and nothing else. *)
let oram_fetcher client conn ~scheme_of q plan oram_touches ~seed ~wanted
    (lv : leaf_view) =
  let label = lv.lv_label in
  let needed = needed_attrs_of_leaf q plan label in
  let n = lv.lv_rows in
  let columns =
    if n = 0 then []
    else
      let w =
        window client conn ~scheme_of ~label ~attrs:needed ~slots:(Array.init n Fun.id)
      in
      List.map (fun a -> (a, values w a)) needed
  in
  let payloads =
    Array.init n (fun slot ->
        Marshal.to_string (List.map (fun (a, vs) -> (a, vs.(slot))) columns) [])
  in
  let block_size = Array.fold_left (fun m p -> max m (String.length p)) 1 payloads in
  let pad s = s ^ String.make (block_size - String.length s) '\x00' in
  let blocks =
    Array.mapi (fun slot p -> Enc_relation.oram_seal client ~leaf:label ~slot (pad p)) payloads
  in
  let slots =
    Array.of_list
      (List.map (fun tid -> Enc_relation.row_position client ~leaf:label ~rows:n tid) wanted)
  in
  let sealed, touches =
    Server_api.oram_fetch conn ~leaf:label ~seed
      ~block_size:(Ndet.ciphertext_length block_size) ~blocks ~slots
  in
  oram_touches := !oram_touches + touches;
  let rows = Int_tbl.create (Array.length sealed) in
  List.iteri
    (fun i tid ->
      let data = Enc_relation.oram_open client ~leaf:label ~slot:slots.(i) sealed.(i) in
      Int_tbl.replace rows tid (Marshal.from_string data 0 : (string * Value.t) list))
    wanted;
  { leaf_label = label; fetch = Int_tbl.find rows }

let check_binned_slot ~key ~universe (s : Binning.schedule) slot =
  let bin = Binning.assign ~key ~universe ~bin_size:s.Binning.bin_size slot in
  if not (List.exists (Int.equal bin) s.Binning.bin_ids) then
    invalid_arg "Executor: partner slot outside the requested bins"

let binning_fetcher client conn ~scheme_of q plan bin_size bin_retrieved ~wanted
    (lv : leaf_view) =
  let label = lv.lv_label in
  let needed = needed_attrs_of_leaf q plan label in
  let n = lv.lv_rows in
  (* PANDA-style: one schedule of fixed-size keyed bins covering every
     wanted slot; the server ships whole bins, so it learns only which bins
     were touched. The enclave keeps the wanted rows. *)
  let wanted_slots =
    List.map (fun tid -> Enc_relation.row_position client ~leaf:label ~rows:n tid) wanted
  in
  let schedule =
    if n = 0 || wanted_slots = [] then None
    else
      let key = Enc_relation.binning_key client ~leaf:label in
      Some (key, Binning.schedule ~key ~universe:n ~bin_size:(min bin_size n) wanted_slots)
  in
  (match schedule with
   | Some (_, s) -> bin_retrieved := !bin_retrieved + s.Binning.retrieved
   | None -> ());
  (* The whole bins cross the wire — decoy ciphertexts included, which is
     the point — but only wanted rows are ever decrypted. *)
  let w =
    match schedule with
    | Some (_, s) ->
      let bin_slots = ascending_slots ~rows:n (fun f -> List.iter (List.iter f) s.Binning.bins) in
      if Array.length bin_slots = 0 then no_window
      else window client conn ~scheme_of ~label ~attrs:needed ~slots:bin_slots
    | None -> no_window
  in
  { leaf_label = label;
    fetch =
      (fun tid ->
        let slot = Enc_relation.row_position client ~leaf:label ~rows:n tid in
        Option.iter (fun (key, s) -> check_binned_slot ~key ~universe:n s slot) schedule;
        List.map (fun a -> (a, value w a slot)) needed) }

let run_anchor_fetch ~drop_tid client conn ~scheme_of q plan lvs compiled masks
    ~make_fetcher =
  let anchor = anchor_label plan lvs masks in
  let anchor_lv, anchor_mask =
    List.combine lvs masks |> List.find (fun (lv, _) -> lv.lv_label = anchor)
  in
  let anchor_compiled =
    List.combine lvs compiled |> List.find (fun (lv, _) -> lv.lv_label = anchor) |> snd
  in
  let n = anchor_lv.lv_rows in
  (* Reconstruction: anchor selection, partner fetches, and the enclave's
     post-filter — everything that decides which tids survive. *)
  let matches =
    Span.with_ ~name:"query.reconstruct" ~attrs:[ ("path", "anchor_fetch") ]
    @@ fun () ->
    let partners = List.filter (fun lv -> lv.lv_label <> anchor) lvs in
    let selected_tids = ref [] in
    Bitmask.iter_set
      (fun slot ->
        let tid = Enc_relation.tid_at client ~leaf:anchor ~rows:n slot in
        if not (drop_tid tid) then selected_tids := tid :: !selected_tids)
      anchor_mask;
    let fetchers = List.map (make_fetcher ~wanted:(List.rev !selected_tids)) partners in
    List.filter_map
      (fun tid ->
        let partner_values =
          List.map (fun f -> (f.leaf_label, f.fetch tid)) fetchers
        in
        (* Post-filter: predicates homed at partner leaves. *)
        let passes =
          List.for_all
            (fun (label, values) ->
              List.for_all
                (fun p ->
                  match assoc_str (Query.pred_attr p) values with
                  | Some v -> pred_holds p v
                  | None -> invalid_arg "Executor: fetched row misses predicate attr")
                (preds_at plan label))
            partner_values
        in
        if passes then Some (tid, partner_values) else None)
      (List.rev !selected_tids)
  in
  Span.with_ ~name:"query.client_decrypt" @@ fun () ->
  let match_slots =
    Array.of_list
      (List.map (fun (tid, _) -> Enc_relation.row_position client ~leaf:anchor ~rows:n tid) matches)
  in
  let w =
    match fetched_attrs q plan anchor anchor_compiled with
    | [] -> no_window
    | attrs ->
      let slots = ascending_slots ~rows:n (fun f -> Array.iter f match_slots) in
      window client conn ~scheme_of ~label:anchor ~attrs ~slots
  in
  verify_indexed w anchor anchor_compiled w.w_slots;
  let partner_values = Array.of_list (List.map snd matches) in
  build_result q
    (List.map
       (fun attr ->
         match proj_leaf plan attr with
         | label when String.equal label anchor -> column_at w attr match_slots
         | label ->
           let get key l = match assoc_str key l with Some v -> v | None -> raise Not_found in
           Array.map (fun pv -> get attr (get label pv)) partner_values)
       q.Query.select)

(* --- the pipeline ------------------------------------------------------- *)

(* One executable query after leaf resolution and minting. *)
type member = {
  query : Query.t;
  decision : Planner.decision;
  lvs : leaf_view list;
  compiled : compiled_pred list list;
  probes : int;
  mint_wire : int * int * int;  (* requests, bytes up, bytes down *)
}

let wire_delta a b =
  ( b.Server_api.requests - a.Server_api.requests,
    b.Server_api.bytes_up - a.Server_api.bytes_up,
    b.Server_api.bytes_down - a.Server_api.bytes_down )

let add3 (a, b, c) (a', b', c') = (a + a', b + b', c + c')
let sub3 (a, b, c) (a', b', c') = (a - a', b - b', c - c')
let wire_of t = (t.wire_requests, t.wire_bytes_up, t.wire_bytes_down)

let publish trace =
  Metrics.incr m_queries;
  Metrics.add m_scanned trace.scanned_cells;
  Metrics.add m_probes trace.index_probes;
  Metrics.add m_comparisons trace.comparisons;
  Metrics.add m_rows_processed trace.rows_processed;
  Metrics.add m_result_rows trace.result_rows;
  Metrics.observe h_result_rows trace.result_rows

let run_batch ?(mode = `Sort_merge) ?planner ?(use_index = false) ?drop_tid client conn rep
    qs =
  let drop = Option.value drop_tid ~default:(fun _ -> false) in
  let scheme_of = scheme_table rep in
  let decisions = List.map (Planner.decide ?handle:planner rep) qs in
  match List.filter_map Result.to_option decisions with
  | [] ->
    (* Nothing executable: planner errors only — no server contact, no
       counters. *)
    List.map (function Ok _ -> assert false | Error e -> Error e) decisions
  | executable ->
    (* The query windows follow the batch: a lone executable query's
       window spans the whole pass and no batch is announced. *)
    let single = List.compare_length_with executable 1 = 0 in
    if single then Wiretrace.mark "query.begin"
    else begin
      Metrics.incr m_batches;
      Metrics.add m_batch_queries (List.length qs);
      Wiretrace.mark ~summary:[ ("k", string_of_int (List.length qs)) ] "batch.begin"
    end;
    let wire_at () = Server_api.stats conn in
    let w0 = wire_at () in
    let relation_name, leaf_dir = Server_api.describe conn in
    let attrs =
      [ ("mode", mode_name mode);
        ("relation", relation_name);
        ("backend", Server_api.backend_name conn) ]
    in
    Span.with_
      ~name:(if single then "query" else "query.batch")
      ~attrs:
        (if single then
           let plan = (List.hd executable).Planner.d_plan in
           attrs @ [ ("leaves", string_of_int (List.length plan.Planner.leaves)) ]
         else ("size", string_of_int (List.length qs)) :: attrs)
    @@ fun () ->
    (* Storage-integrity gate: Describe answered only after the server
       checked every stored shape, and the planned leaves must exist
       (dropped or truncated leaves are corruption, not planner errors —
       the plans were built from the representation). *)
    let leaf_view label =
      match List.find_opt (fun (l, _, _) -> l = label) leaf_dir with
      | Some (_, rows, digest) -> { lv_label = label; lv_rows = rows; lv_digest = digest }
      | None ->
        Integrity.fail ~leaf:label ~where:"store"
          "planned leaf missing from the encrypted store"
    in
    (* Phase 1 (sequential): mint tokens and probe the server's equality
       indexes, in member order. Each member's minting traffic is its
       own. *)
    let members =
      Span.with_ ~name:"query.mint_tokens" @@ fun () ->
      List.map2
        (fun query decision ->
          Result.map
            (fun decision ->
              let plan = decision.Planner.d_plan in
              let lvs = List.map leaf_view plan.Planner.leaves in
              let probes = ref 0 in
              let wa = wire_at () in
              let compiled =
                List.map
                  (fun lv ->
                    List.map
                      (compile_pred ~use_index client conn ~scheme_of lv probes)
                      (preds_at plan lv.lv_label))
                  lvs
              in
              { query; decision; lvs; compiled; probes = !probes;
                mint_wire = wire_delta wa (wire_at ()) })
            decision)
        qs decisions
    in
    let executed = List.filter_map Result.to_option members in
    (* Phase 2: the filters. Every executable member's filters, a lone
       query's included, cross in ONE Q_batch round trip, and the server
       walks each touched leaf once. *)
    let filtered =
      Span.with_ ~name:"query.server_filter" @@ fun () ->
      Server_api.filter_batch conn
        ~queries:
          (List.map
             (fun m ->
               List.map2 (fun lv ops -> (lv.lv_label, filter_ops ops)) m.lvs m.compiled)
             executed)
    in
    (* Sort-merge reconstruction: each planned leaf's tid column comes
       from the connection's memo while Describe announces the digest it
       was checked against, and is fetched otherwise. Its tid order
       (slots sorted by tid, one fixed bitonic network) comes from the
       tid cache, built once per leaf and key epoch by the first query
       that needs it and charged to that query; a lockstep pass over the
       orders then answers the query under its own masks. A miss
       authenticates every decrypt and checks that every slot holds its
       own tid, and a corrupted leaf copy always misses (see
       [Enc_relation.decrypt_tids_cached]). Leaves the pass cannot align
       come from a tampered store: typed corruption, never a partial
       answer. *)
    let sort_merge_matches stats lvs masks =
      let orders =
        List.filter_map
          (fun lv ->
            Enc_relation.tid_order_cached client (synthetic_leaf conn lv)
              ~build:(Oblivious_join.tid_order stats))
          lvs
      in
      let pass =
        if List.compare_lengths orders lvs = 0 then
          Oblivious_join.lockstep stats ~drop_tid:drop (Array.of_list orders)
            (Array.of_list masks)
        else None
      in
      match pass with
      | Some slots -> slots
      | None -> Integrity.fail ~where:"store" "planned leaves do not align on their tids"
    in
    (* Phase 3, pass one: check each member's masks and reconstruct the
       members whose rows come from shared fetch windows — a single-leaf
       plan's mask slots, a sort-merge plan's lockstep slots. Each gets
       its reads and the pass-two closure that answers it and builds its
       trace record. An [`Oram] or [`Binning] member over several leaves
       fetches its partner rows in its own shape, all in pass two. *)
    let stage m per_leaf =
      let q = m.query and plan = m.decision.Planner.d_plan in
      if List.compare_lengths per_leaf m.lvs <> 0 then
        invalid_arg "Executor: filter response entry count disagrees with the plan";
      let masks =
        List.map2
          (fun lv (mask, _) ->
            if Bitmask.length mask <> lv.lv_rows then
              Integrity.fail ~leaf:lv.lv_label ~where:"store"
                "filter mask length disagrees with the described row count";
            mask)
          m.lvs per_leaf
      in
      let scanned = List.fold_left (fun acc (_, s) -> acc + s) 0 per_leaf in
      let stats = Oblivious_join.fresh_stats () in
      let oram_touches = ref 0 in
      let bin_retrieved = ref 0 in
      let wr0 = wire_at () in
      let reads, run =
        let shared path slots =
          let reads =
            Span.with_ ~name:"query.reconstruct" ~attrs:[ ("path", path) ] @@ fun () ->
            reads_of q plan m.lvs m.compiled (slots ())
          in
          ( reads,
            fun () -> Span.with_ ~name:"query.client_decrypt" (fun () -> answer q plan reads) )
        in
        match (m.lvs, masks, mode) with
        | [ lv ], [ mask ], _ ->
          shared "single" (fun () -> [| single_slots ~drop_tid client lv mask |])
        | lvs, masks, `Sort_merge ->
          shared "sort_merge" (fun () -> sort_merge_matches stats lvs masks)
        | lvs, masks, `Oram ->
          (* One Oram_fetch per partner; seeds are fixed by partner
             order, so the bucket-touch trace is deterministic and
             backend-independent. *)
          let next_seed = ref 0x09a7 in
          ( [],
            fun () ->
              run_anchor_fetch ~drop_tid:drop client conn ~scheme_of q plan lvs
                m.compiled masks ~make_fetcher:(fun ~wanted lv ->
                  let seed = !next_seed in
                  incr next_seed;
                  oram_fetcher client conn ~scheme_of q plan oram_touches ~seed ~wanted
                    lv) )
        | lvs, masks, `Binning bin_size ->
          ( [],
            fun () ->
              run_anchor_fetch ~drop_tid:drop client conn ~scheme_of q plan lvs
                m.compiled masks
                ~make_fetcher:
                  (binning_fetcher client conn ~scheme_of q plan bin_size
                     bin_retrieved) )
      in
      let reconstruct_wire = wire_delta wr0 (wire_at ()) in
      let finish () =
        let wr1 = wire_at () in
        let result = run () in
        let wire_requests, wire_bytes_up, wire_bytes_down =
          add3 (add3 m.mint_wire reconstruct_wire) (wire_delta wr1 (wire_at ()))
        in
        ( result,
          { plan;
            decision = m.decision;
            mode;
            scanned_cells = scanned;
            index_probes = m.probes;
            comparisons = stats.Oblivious_join.comparisons;
            rows_processed = stats.Oblivious_join.rows_processed;
            oram_bucket_touches = !oram_touches;
            binning_retrieved = !bin_retrieved;
            result_rows = Relation.cardinality result;
            wire_requests;
            wire_bytes_up;
            wire_bytes_down;
            estimated_seconds =
              Cost_model.trace_seconds Cost_model.default
                ~comparisons:stats.Oblivious_join.comparisons
                ~rows_processed:stats.Oblivious_join.rows_processed ~scanned_cells:scanned
                ~oram_bucket_touches:!oram_touches ~retrieved_rows:!bin_retrieved } )
      in
      (reads, finish)
    in
    let staged = List.map2 stage executed filtered in
    (* Then one Fetch_rows per distinct (leaf, attribute list) for every
       staged member at once, before any member's query window opens: a
       lone query's groups are its own windows, one per planned leaf that
       fetches anything, in plan order. *)
    (match List.concat_map fst staged with
     | [] -> ()
     | reads ->
       Span.with_ ~name:"query.client_decrypt" @@ fun () ->
       fetch_shared client conn ~scheme_of reads);
    (* Pass two, per member: read its rows from the shared windows (or
       run its own partner fetches), then build the trace record. Inside
       a batch each member gets its own query window, indexed like the
       Q_batch summary groups so the recorder can re-attribute the shared
       rounds. *)
    let outcomes =
      List.mapi
        (fun i (_, finish) ->
          if single then finish ()
          else begin
            Wiretrace.mark ~summary:[ ("q", string_of_int i) ] "query.begin";
            let outcome = finish () in
            Wiretrace.mark "query.end";
            outcome
          end)
        staged
    in
    (* The shared traffic — Describe, the filter round trip and the
       shared fetch rounds — is what no member's own deltas cover.
       Charging it to the first executed query makes the traces sum
       exactly to the global [exec.wire.*] deltas; the [exec.query.*]
       counters are published from the same trace values. *)
    let outcomes =
      match outcomes with
      | [] -> []
      | (result, trace) :: rest ->
        let shared =
          List.fold_left
            (fun acc (_, t) -> sub3 acc (wire_of t))
            (wire_delta w0 (wire_at ()))
            outcomes
        in
        let wire_requests, wire_bytes_up, wire_bytes_down = add3 shared (wire_of trace) in
        (result, { trace with wire_requests; wire_bytes_up; wire_bytes_down }) :: rest
    in
    List.iter (fun (_, trace) -> publish trace) outcomes;
    Wiretrace.mark (if single then "query.end" else "batch.end");
    (* Back into request order, planner errors in their slots. *)
    let rest = ref outcomes in
    List.map
      (Result.map (fun _ ->
           let outcome = List.hd !rest in
           rest := List.tl !rest;
           outcome))
      members

let run_conn ?mode ?planner ?use_index ?drop_tid client conn rep q =
  match run_batch ?mode ?planner ?use_index ?drop_tid client conn rep [ q ] with
  | [ outcome ] -> outcome
  | _ -> assert false

let pp_trace fmt t =
  Format.fprintf fmt
    "@[<v>plan: %a (%s; %s planner, cache %s)@,\
     scanned cells: %d (+%d via index); comparisons: %d; \
     rows through networks: %d@,oram bucket touches: %d; binning retrieved: %d@,\
     wire: %d requests, %d B up, %d B down@,\
     result rows: %d; est. %.4f s@]"
    Planner.pp t.plan (mode_name t.mode) t.decision.Planner.d_selector
    (match t.decision.Planner.d_cache with `Hit -> "hit" | `Miss -> "miss")
    t.scanned_cells t.index_probes t.comparisons
    t.rows_processed t.oram_bucket_touches t.binning_retrieved t.wire_requests
    t.wire_bytes_up t.wire_bytes_down t.result_rows t.estimated_seconds
