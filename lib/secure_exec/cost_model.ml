type params = {
  compare_ns : float;
  row_crypt_ns : float;
  row_io_ns : float;
  scan_cell_ns : float;
}

(* Calibration: Secure-Yannakakis-class oblivious joins process ~10^5 rows
   in tens of seconds => ~10 µs per row-touch dominated by oblivious
   memory movement and MAC-ed re-encryption; enclave compare-exchanges are
   two orders cheaper. *)
let default =
  { compare_ns = 150.0;
    row_crypt_ns = 2_000.0;
    row_io_ns = 500.0;
    scan_cell_ns = 120.0 }

let ns = 1e-9

let oblivious_join_seconds p n1 n2 =
  let n = n1 + n2 in
  let comparators = float_of_int (Bitonic.comparator_count n) in
  let rows = float_of_int n in
  ns *. ((comparators *. p.compare_ns) +. (rows *. (p.row_crypt_ns +. p.row_io_ns)))

let chain_join_seconds p sizes =
  match sizes with
  | [] | [ _ ] -> 0.0
  | first :: rest ->
    let _, total =
      List.fold_left
        (fun (left, acc) right ->
          (* Intermediate width kept at the larger input: conservative. *)
          (max left right, acc +. oblivious_join_seconds p left right))
        (first, 0.0) rest
    in
    total

let scan_seconds p ~rows ~predicate_cols =
  ns *. (float_of_int rows *. float_of_int predicate_cols *. p.scan_cell_ns)

let query_seconds p ~rows ~plan =
  let scans =
    scan_seconds p ~rows ~predicate_cols:(List.length plan.Planner.pred_home)
  in
  let joins =
    chain_join_seconds p (List.map (fun _ -> rows) plan.Planner.leaves)
  in
  scans +. joins

let trace_seconds p ~comparisons ~rows_processed ~scanned_cells ~retrieved_rows =
  ns
  *. ((float_of_int comparisons *. p.compare_ns)
     +. (float_of_int rows_processed *. (p.row_crypt_ns +. p.row_io_ns))
     +. (float_of_int scanned_cells *. p.scan_cell_ns)
     +. (float_of_int retrieved_rows *. (p.row_io_ns +. p.row_crypt_ns)))

(* --- statistics-driven plan pricing ------------------------------------------ *)

(* ~100 MB/s effective boundary throughput; like every constant here,
   only the relative ordering of plans is claimed. *)
let wire_s_per_byte = 10e-9

(* Predicate selectivity from the server-visible histograms: equality on
   a canonically-encrypted column keeps at most its largest value class;
   ranges get a flat conservative fraction (OPE/ORE order leaks no class
   sizes the histogram doesn't already carry). *)
let pred_selectivity stats ~leaf (p : Query.pred) =
  match p with
  | Query.Point _ ->
    Statistics.eq_selectivity stats ~leaf ~attr:(Query.pred_attr p)
  | Query.Range _ -> 0.5

let default_rows = 1024

(* Rows of [leaf] surviving the predicates the plan homes there. *)
let effective_rows stats (pl : Planner.plan) leaf =
  let rows =
    Option.value (Statistics.rows stats ~leaf) ~default:default_rows
  in
  if rows = 0 then 0
  else begin
    let sel =
      List.fold_left
        (fun acc (p, home) ->
          if home = leaf then acc *. pred_selectivity stats ~leaf p else acc)
        1.0 pl.Planner.pred_home
    in
    max 1 (int_of_float (ceil (float_of_int rows *. sel)))
  end

(* End-to-end estimate of one candidate plan, priced only from
   server-visible statistics:

   - scans: every predicate evaluates over its home leaf's FULL rows;
   - joins: the bitonic chain over the leaves' {e filtered} sizes, in
     the plan's join order (order matters: the running width is the max
     of the inputs so far, so joining small inputs first is cheaper);
   - wire: fetched cells (filtered rows x attributes homed per leaf,
     plus the tid column) scaled by the fetch phase's observed
     bytes-per-request EWMA.

   Deliberately a pure function of the plan shape and the statistics —
   never of searched constants — so [Planner.cost_based] may cache its
   decisions per query shape. *)
let plan_seconds ?(params = default) stats (pl : Planner.plan) =
  let scan_term =
    List.fold_left
      (fun acc leaf ->
        let preds =
          List.length
            (List.filter (fun (_, home) -> home = leaf) pl.Planner.pred_home)
        in
        let rows =
          Option.value (Statistics.rows stats ~leaf) ~default:default_rows
        in
        acc +. scan_seconds params ~rows ~predicate_cols:preds)
      0.0 pl.Planner.leaves
  in
  let join_term =
    match List.map (effective_rows stats pl) pl.Planner.leaves with
    | [] | [ _ ] -> 0.0
    | first :: rest ->
      snd
        (List.fold_left
           (fun (left, acc) right ->
             (max left right, acc +. oblivious_join_seconds params left right))
           (first, 0.0) rest)
  in
  let wire_term =
    (* Bytes per fetched cell, anchored to the observed fetch-phase
       traffic shape (a fetch round carries a handful of rows). *)
    let cell_bytes =
      Float.max 64.0
        (Float.min 4096.0
           (Statistics.wire_bytes_per_request stats ~phase:"fetch" /. 8.0))
    in
    let cells =
      List.fold_left
        (fun acc leaf ->
          let attrs =
            List.length
              (List.filter (fun (_, home) -> home = leaf) pl.Planner.proj_home)
          in
          acc + (effective_rows stats pl leaf * (attrs + 1)))
        0 pl.Planner.leaves
    in
    wire_s_per_byte *. float_of_int cells *. cell_bytes
  in
  scan_term +. join_term +. wire_term

let planner ~epoch stats =
  Planner.cost_based ~label:"cost"
    ~price:(fun pl -> plan_seconds stats pl)
    ~stamp:(fun () -> (epoch (), Statistics.version stats))
    ()
