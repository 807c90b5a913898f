module Feistel = Snf_crypto.Feistel

let m_schedules = Snf_obs.Metrics.counter "exec.binning.schedules"
let m_retrieved = Snf_obs.Metrics.counter "exec.binning.retrieved_rows"

type schedule = {
  bin_size : int;
  bin_ids : int list;
  bins : int list list;
  retrieved : int;
  wanted : int;
}

let assign ~key ~universe ~bin_size row =
  if universe < 1 then invalid_arg "Binning.assign: empty universe";
  if bin_size < 1 then invalid_arg "Binning.assign: bin_size < 1";
  if row < 0 || row >= universe then invalid_arg "Binning.assign: row out of range";
  let shuffled =
    if universe = 1 then 0 else Feistel.permute ~key ~domain:universe row
  in
  shuffled / bin_size

let schedule ~key ~universe ~bin_size wanted_rows =
  let bin_ids =
    List.sort_uniq Int.compare (List.map (assign ~key ~universe ~bin_size) wanted_rows)
  in
  let members bin =
    (* The rows landing in this bin are the preimages of its shuffled
       range, so invert the permutation over that range only. *)
    let lo = bin * bin_size in
    let rows =
      Array.init (min universe (lo + bin_size) - lo) (fun i ->
          if universe = 1 then 0 else Feistel.unpermute ~key ~domain:universe (lo + i))
    in
    Array.sort Int.compare rows;
    Array.to_list rows
  in
  let bins = List.map members bin_ids in
  let s =
    { bin_size;
      bin_ids;
      bins;
      retrieved = List.fold_left (fun acc b -> acc + List.length b) 0 bins;
      wanted = List.length (List.sort_uniq Int.compare wanted_rows) }
  in
  Snf_obs.Metrics.incr m_schedules;
  Snf_obs.Metrics.add m_retrieved s.retrieved;
  s

let overhead s = float_of_int s.retrieved /. float_of_int (max 1 s.wanted)

let anonymity s = s.bin_size
