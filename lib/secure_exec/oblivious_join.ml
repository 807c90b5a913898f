let m_joins = Snf_obs.Metrics.counter "exec.join.joins"
let m_rows = Snf_obs.Metrics.counter "exec.join.rows_processed"
let h_batch = Snf_obs.Metrics.histogram "exec.join.batch_rows"

type stats = {
  mutable comparisons : int;
  mutable rows_processed : int;
  mutable joins : int;
}

let fresh_stats () = { comparisons = 0; rows_processed = 0; joins = 0 }

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
