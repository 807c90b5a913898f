let m_joins = Snf_obs.Metrics.counter "exec.join.joins"
let m_rows = Snf_obs.Metrics.counter "exec.join.rows_processed"
let h_batch = Snf_obs.Metrics.histogram "exec.join.batch_rows"

type stats = {
  mutable comparisons : int;
  mutable rows_processed : int;
  mutable joins : int;
}

let fresh_stats () = { comparisons = 0; rows_processed = 0; joins = 0 }

let check_mask label n m =
  if Array.length m <> n then
    invalid_arg (Printf.sprintf "Oblivious_join: %s mask length mismatch" label);
  m

(* Explicit int-first comparator for (tid, row-index list) pairs — the
   accumulator ordering must not silently change if the payload type
   does, so polymorphic compare is banned here. *)
let compare_tid_rows (t1, r1) (t2, r2) =
  match Int.compare t1 t2 with
  | 0 -> List.compare Int.compare r1 r2
  | c -> c

(* --- packed sort keys ----------------------------------------------------- *)

module Packed = struct
  (* One immediate int per (tid, slot), ordered by plain integer
     comparison: MSB..LSB = tid(27) | row(27), 54 bits — below the 62-bit
     native int, so every encodable key is < max_int and max_int stays
     free as the bitonic padding sentinel. Integer order on packed keys is
     tid order, with the slot riding along. *)
  let tid_bits = 27
  let row_bits = 27
  let max_tid = (1 lsl tid_bits) - 1
  let max_row = (1 lsl row_bits) - 1

  let encode ~tid ~row =
    if tid < 0 || tid > max_tid then
      invalid_arg (Printf.sprintf "Oblivious_join.Packed.encode: tid %d out of range" tid);
    if row < 0 || row > max_row then
      invalid_arg (Printf.sprintf "Oblivious_join.Packed.encode: row %d out of range" row);
    (tid lsl row_bits) lor row

  let tid e = e lsr row_bits
  let row e = e land max_row
end

(* --- pairwise cascade (reference implementation) -------------------------- *)

(* Entry: (tid, side, row index, selected). The enclave sorts all entries
   of both leaves obliviously by (tid, side); matching pairs end up
   adjacent with side 0 first. *)
let join_entries stats entries_a entries_b =
  let all = Array.append entries_a entries_b in
  stats.rows_processed <- stats.rows_processed + Array.length all;
  stats.joins <- stats.joins + 1;
  Snf_obs.Metrics.incr m_joins;
  Snf_obs.Metrics.add m_rows (Array.length all);
  Snf_obs.Metrics.observe h_batch (Array.length all);
  let counter = ref 0 in
  Bitonic.sort ~counter
    ~cmp:(fun (t1, s1, _, _) (t2, s2, _, _) ->
      match Int.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c)
    all;
  stats.comparisons <- stats.comparisons + !counter;
  let out = ref [] in
  for i = Array.length all - 2 downto 0 do
    let t1, s1, r1, sel1 = all.(i) in
    let t2, s2, r2, sel2 = all.(i + 1) in
    if t1 = t2 && s1 = 0 && s2 = 1 && sel1 && sel2 then out := (t1, r1, r2) :: !out
  done;
  Array.of_list !out

let entries_of tids side mask =
  Array.init (Array.length tids) (fun i -> (tids.(i), side, i, mask.(i)))

let tids_of ?tids_for client =
  match tids_for with
  | Some f -> f
  | None -> fun leaf -> Enc_relation.decrypt_tids client leaf

let join_many_cascade ?tids_for ~masks stats client =
  let tids_of = tids_of ?tids_for client in
  match masks with
  | [] -> invalid_arg "Oblivious_join.join_many_cascade: no leaves"
  | [ (leaf, mask) ] ->
    let mask = check_mask "only" leaf.Enc_relation.row_count mask in
    let tids = tids_of leaf in
    let out = ref [] in
    for i = Array.length tids - 1 downto 0 do
      if mask.(i) then out := (tids.(i), [ i ]) :: !out
    done;
    Array.of_list (List.sort compare_tid_rows !out)
  | (first, mask_first) :: rest ->
    (* Accumulator: (tid, row-index list) pairs; each further leaf joins by
       synthesising entry arrays for the accumulated side. *)
    let mask = check_mask "first" first.Enc_relation.row_count mask_first in
    let acc =
      let tids = tids_of first in
      Array.mapi (fun i tid -> (tid, [ i ], mask.(i))) tids
    in
    let result =
      List.fold_left
        (fun acc_pairs (leaf, mask) ->
          let mask = check_mask "next" leaf.Enc_relation.row_count mask in
          let entries_a =
            Array.mapi (fun i (tid, _, sel) -> (tid, 0, i, sel)) acc_pairs
          in
          let entries_b = entries_of (tids_of leaf) 1 mask in
          let matched = join_entries stats entries_a entries_b in
          Array.map
            (fun (tid, ra, rb) ->
              let _, rows, _ = acc_pairs.(ra) in
              (tid, rows @ [ rb ], true))
            matched)
        acc rest
    in
    Array.of_list
      (List.sort compare_tid_rows
         (Array.to_list result
         |> List.filter_map (fun (tid, rows, sel) -> if sel then Some (tid, rows) else None)))

(* --- cached tid orders and the lockstep pass ------------------------------ *)

(* A leaf's slots sorted by tid, as packed (tid, slot) keys that
   [Packed.tid] and [Packed.row] read back, through one fixed bitonic
   network. *)
let tid_order stats tids =
  let n = Array.length tids in
  if n > Packed.max_row + 1 || not (Array.for_all (fun t -> t >= 0 && t <= Packed.max_tid) tids)
  then None
  else begin
    let keys =
      Array.init n (fun slot -> Packed.encode ~tid:tids.(slot) ~row:slot)
    in
    let counter = ref 0 in
    Bitonic.sort_ints ~counter keys;
    stats.comparisons <- stats.comparisons + !counter;
    stats.rows_processed <- stats.rows_processed + n;
    Snf_obs.Metrics.add m_rows n;
    Snf_obs.Metrics.observe h_batch n;
    Some keys
  end

(* Rank r of every order names the slot holding the r-th smallest tid of
   its leaf. On an aligned store every leaf holds the same tids, each
   once, so the tids at a rank agree and the slots there are one row
   split across the leaves. Every rank is visited and every leaf's mask
   bit at its order's slot is read, whatever the masks say; the alignment
   checks run on the same reads, and one failure voids the whole pass.
   A bit is read from a copy of the mask's packed bytes, a load and a
   shift in this loop rather than a call per bit; the ranks that survive
   are marked in a mask of their own and read back ascending, so the
   pass keeps no per-match list. *)
let lockstep stats ~drop_tid orders masks =
  let k = Array.length orders in
  if k = 0 || Array.length masks <> k then invalid_arg "Oblivious_join.lockstep: arity";
  let n = Array.length orders.(0) in
  if Array.exists (fun o -> Array.length o <> n) orders then None
  else begin
    if Array.exists (fun m -> Bitmask.length m <> n) masks then
      invalid_arg "Oblivious_join.lockstep: mask length mismatch";
    stats.joins <- stats.joins + 1;
    Snf_obs.Metrics.incr m_joins;
    let bits = Array.map Bitmask.packed masks in
    let aligned = ref true and prev = ref (-1) in
    let selected = Bitmask.create n false in
    for r = 0 to n - 1 do
      let t = Packed.tid orders.(0).(r) in
      let sel = ref 1 in
      for i = 0 to k - 1 do
        let e = orders.(i).(r) in
        if Packed.tid e <> t then aligned := false;
        let slot = Packed.row e in
        if slot >= n then invalid_arg "Oblivious_join.lockstep: slot out of range";
        sel := !sel land (Char.code (String.unsafe_get bits.(i) (slot lsr 3)) lsr (slot land 7))
      done;
      if t <= !prev then aligned := false;
      prev := t;
      if !sel land 1 = 1 && not (drop_tid t) then Bitmask.set selected r
    done;
    if not !aligned then None
    else begin
      let ranks = Bitmask.to_slots selected in
      Some (Array.map (fun order -> Array.map (fun r -> Packed.row order.(r)) ranks) orders)
    end
  end
