(* The oblivious join as it ran before cached tid orders and the
   lockstep pass, kept as the test and bench oracle for
   [Oblivious_join.lockstep]: a pairwise cascade, one generic
   [Bitonic.sort] of boxed (tid, side, row, selected) entries per further
   leaf. It charges [k - 1] joins, their comparisons and their entries
   to [stats], and no metric. *)

open Snf_exec

(* Whether [arr] is ascending under [cmp]. *)
let is_sorted ~cmp arr =
  let ok = ref true in
  for i = 0 to Array.length arr - 2 do
    if cmp arr.(i) arr.(i + 1) > 0 then ok := false
  done;
  !ok

let check_mask label n m =
  if Array.length m <> n then
    invalid_arg (Printf.sprintf "Join_reference: %s mask length mismatch" label);
  m

(* Explicit int-first comparator for (tid, row-index list) pairs. *)
let compare_tid_rows (t1, r1) (t2, r2) =
  match Int.compare t1 t2 with
  | 0 -> List.compare Int.compare r1 r2
  | c -> c

(* Entry: (tid, side, row index, selected). The enclave sorts all entries
   of both leaves obliviously by (tid, side); matching pairs end up
   adjacent with side 0 first. *)
let join_entries (stats : Oblivious_join.stats) entries_a entries_b =
  let all = Array.append entries_a entries_b in
  stats.rows_processed <- stats.rows_processed + Array.length all;
  stats.joins <- stats.joins + 1;
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

(* [(tid, row index per leaf)] for tids selected in every leaf, ascending
   by tid. Tids are decrypted by [tids_for], by default the client's
   [Enc_relation.decrypt_tids]. @raise Invalid_argument on an empty
   list. *)
let join_many_cascade ?tids_for ~masks stats client =
  let tids_of =
    match tids_for with
    | Some f -> f
    | None -> fun leaf -> Enc_relation.decrypt_tids client leaf
  in
  match masks with
  | [] -> invalid_arg "Join_reference.join_many_cascade: no leaves"
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
          let tids = tids_of leaf in
          let entries_b = Array.init (Array.length tids) (fun i -> (tids.(i), 1, i, mask.(i))) in
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
