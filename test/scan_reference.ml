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
    List.iter (fun s -> Bitmask.set keep s) slots;
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
