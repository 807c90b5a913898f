(* The server's filter evaluation from before equality filters read the
   column's equality index, kept as a test oracle: every token op scans
   its column under the running mask and counts [row_count] scanned
   cells. [Server_api.dispatch] must answer every [Q_batch] with the same
   bytes, or raise the same error. *)

open Snf_exec

let eval_filter (l : Enc_relation.enc_leaf) ops =
  let n = l.Enc_relation.row_count in
  let mask = Bitmask.create n true in
  let scanned = ref 0 in
  let apply_slots slots =
    Server_api.check_slots ~rows:n slots;
    let keep = Bitmask.create n false in
    Array.iter (fun s -> Bitmask.set keep s) slots;
    for i = 0 to n - 1 do
      if not (Bitmask.get keep i) then Bitmask.clear mask i
    done
  in
  let scan col test =
    scanned := !scanned + n;
    Array.iteri
      (fun i cell -> if Bitmask.get mask i && not (test cell) then Bitmask.clear mask i)
      col.Enc_relation.cells
  in
  List.iter
    (function
      | Wire.F_slots slots -> apply_slots slots
      | Wire.F_eq (attr, tok) ->
        scan (Enc_relation.column l attr) (Enc_relation.cell_matches_eq tok)
      | Wire.F_range (attr, tok) ->
        scan (Enc_relation.column l attr) (Enc_relation.cell_in_range tok))
    ops;
  (mask, !scanned)

(* The [R_batch] a store answers a [Q_batch] with. *)
let q_batch (t : Enc_relation.t) queries =
  Wire.R_batch
    { results =
        List.map
          (List.map (fun (label, ops) -> eval_filter (Enc_relation.find_leaf t label) ops))
          queries }

(* The other store-reading requests, answered cell by cell from the
   leaf's own cells, as the server answered them before a deterministic
   column carried its form: every [Index_probe], [Q_store_stats],
   [Group_sum] and [Fetch_rows] must get these bytes from
   [Server_api.dispatch], or the same error. *)

module Scheme = Snf_crypto.Scheme

let canonical_scheme (col : Enc_relation.enc_column) =
  match col.Enc_relation.scheme with
  | Scheme.Plain | Scheme.Det | Scheme.Ope -> true
  | Scheme.Ndet | Scheme.Phe | Scheme.Ore -> false

(* Slots holding the key, descending: prepended during an ascending scan. *)
let index_probe (t : Enc_relation.t) ~leaf ~attr ~key =
  let col = Enc_relation.column (Enc_relation.find_leaf t leaf) attr in
  match key with
  | Some key when canonical_scheme col ->
    let slots = ref [] in
    Array.iteri
      (fun i cell ->
        if Enc_relation.canonical_key col.Enc_relation.scheme cell = Some key then
          slots := i :: !slots)
      col.Enc_relation.cells;
    Wire.R_slots (Some (Array.of_list !slots))
  | _ -> Wire.R_slots None

let fp s = String.sub (Digest.to_hex (Digest.string s)) 0 16

let store_stats (t : Enc_relation.t) =
  let leaf_stats (l : Enc_relation.enc_leaf) =
    let attr_stats (col : Enc_relation.enc_column) =
      if not (canonical_scheme col) then None
      else begin
        let counts = Hashtbl.create 16 in
        Array.iter
          (fun cell ->
            Option.iter
              (fun key ->
                Hashtbl.replace counts key
                  (1 + Option.value (Hashtbl.find_opt counts key) ~default:0))
              (Enc_relation.canonical_key col.Enc_relation.scheme cell))
          col.Enc_relation.cells;
        Some
          { Wire.a_attr = col.Enc_relation.attr;
            a_classes =
              Hashtbl.fold (fun key n acc -> (fp key, n) :: acc) counts []
              |> List.sort compare }
      end
    in
    { Wire.s_label = l.Enc_relation.label;
      s_rows = l.Enc_relation.row_count;
      s_attrs = List.filter_map attr_stats l.Enc_relation.columns }
  in
  Wire.R_store_stats { leaves = List.map leaf_stats t.Enc_relation.leaves }

(* Rows grouped by canonical key in one pass, slot by slot; a group's
   representative is its first cell. *)
let group_sum (t : Enc_relation.t) ~leaf ~group_by ~sum =
  let l = Enc_relation.find_leaf t leaf in
  let gcol = Enc_relation.column l group_by in
  let scol = Enc_relation.column l sum in
  if scol.Enc_relation.scheme <> Scheme.Phe then
    invalid_arg "Enc_relation.phe_group_sum: sum column is not PHE";
  if not (canonical_scheme gcol) then
    invalid_arg "Enc_relation.phe_group_sum: group column reveals no canonical equality";
  let groups = Hashtbl.create 32 in
  Array.iteri
    (fun i gcell ->
      let key =
        match Enc_relation.canonical_key gcol.Enc_relation.scheme gcell with
        | Some k -> k
        | None -> invalid_arg "Enc_relation.phe_group_sum: malformed group cell"
      in
      let addend =
        match scol.Enc_relation.cells.(i) with
        | Enc_relation.C_nat n -> n
        | _ -> invalid_arg "Enc_relation.phe_group_sum: malformed sum cell"
      in
      match Hashtbl.find_opt groups key with
      | Some (rep, addends) -> Hashtbl.replace groups key (rep, addend :: addends)
      | None -> Hashtbl.add groups key (gcell, [ addend ]))
    gcol.Enc_relation.cells;
  Wire.R_groups
    (Hashtbl.fold (fun key group out -> (key, group) :: out) groups []
    |> List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2)
    |> List.map (fun (_, (rep, addends)) ->
           ( rep,
             Snf_crypto.Paillier.sum t.Enc_relation.paillier_public (Array.of_list addends) )))

(* The canonical coding of a Plain, DET, OPE or ORE cell list, the bytes
   a server's [Wire.code_rows] gives for those rows: tag 0 for at most
   [Wire.small_rows] cells or no repeated cell, otherwise classes by
   [Enc_relation.cell_equal], one hash per cell. *)
let rows_column_of_cells cells =
  let n = Array.length cells in
  if n <= Wire.small_rows then Wire.Cells cells
  else
    let class_of, class_rep = Enc_relation.classes_of_cells cells in
    if Array.length class_rep = n then Wire.Cells cells
    else Wire.Coded { dict = class_rep; codes = class_of }

(* Each column's fetched cells, coded as their own classes dictate. *)
let fetch_rows (t : Enc_relation.t) ~leaf ~attrs ~slots =
  let l = Enc_relation.find_leaf t leaf in
  Server_api.check_slots ~rows:l.Enc_relation.row_count slots;
  Wire.R_rows
    (Array.of_list
       (List.map
          (fun attr ->
            let col = Enc_relation.column l attr in
            let picked = Array.map (Array.get col.Enc_relation.cells) slots in
            if Enc_relation.deterministic col.Enc_relation.scheme then
              rows_column_of_cells picked
            else Wire.Cells picked)
          attrs))

let request t (req : Wire.request) =
  match req with
  | Wire.Q_batch { queries } -> q_batch t queries
  | Wire.Index_probe { leaf; attr; key } -> index_probe t ~leaf ~attr ~key
  | Wire.Q_store_stats -> store_stats t
  | Wire.Group_sum { leaf; group_by; sum } -> group_sum t ~leaf ~group_by ~sum
  | Wire.Fetch_rows { leaf; attrs; slots } -> fetch_rows t ~leaf ~attrs ~slots
  | _ -> invalid_arg "Scan_reference.request: not a store-reading request"
