open Snf_relational
module Acs = Snf_workload.Acs
module Sensitivity = Snf_workload.Sensitivity
module Query_gen = Snf_workload.Query_gen
module Planner = Snf_exec.Planner
module Query = Snf_exec.Query
module System = Snf_exec.System
module Executor = Snf_exec.Executor
module Enc_relation = Snf_exec.Enc_relation
module Scheme = Snf_crypto.Scheme
module Dep_graph = Snf_deps.Dep_graph
open Snf_core

let workload_joins rep queries =
  List.fold_left
    (fun acc q ->
      match Planner.plan rep q with Ok p -> acc + p.Planner.joins | Error _ -> acc)
    0 queries

(* --- semantics ------------------------------------------------------------- *)

let semantics ?(rows = 2_000) ?(seed = 2013) () =
  let acs = Acs.generate { Acs.default_config with rows; seed } in
  let r = acs.Acs.relation in
  let policy = Sensitivity.annotate ~seed:(seed + 7) (Relation.schema r) in
  let queries = Query_gen.mixed_workload ~seed:(seed + 13) r policy in
  let row semantics =
    let nr = Strategy.non_repeating ~semantics acs.Acs.graph policy in
    let mr = Strategy.max_repeating ~semantics acs.Acs.graph policy in
    [ Semantics.to_string semantics;
      string_of_int (List.length nr);
      Printf.sprintf "%.2f" (Partition.repetition_factor mr);
      string_of_int (workload_joins nr queries);
      string_of_int (workload_joins mr queries);
      string_of_bool
        (Audit.is_snf ~semantics:Semantics.Strict acs.Acs.graph policy nr) ]
  in
  Report.render_table
    ~title:"Ablation: Marginal vs Strict leakage semantics (231 attrs)"
    ~header:
      [ "Semantics"; "#Partitions"; "Max-rep repetition"; "NR joins"; "MR joins";
        "Strict-SNF?" ]
    [ row Semantics.Marginal; row Semantics.Strict ]

(* --- horizontal ------------------------------------------------------------- *)

let horizontal () =
  (* The paper's stockbroker scenario, scaled up: Education ~ Income in
     general but independent within the broker fragment. *)
  let policy =
    Policy.create
      [ ("Profession", Scheme.Det); ("Education", Scheme.Det);
        ("Income", Scheme.Ndet); ("City", Scheme.Det) ]
  in
  let g = Dep_graph.create [ "Profession"; "Education"; "Income"; "City" ] in
  let g = Dep_graph.declare_dependent g "Education" "Income" in
  let g = Dep_graph.declare_independent g "Profession" "Education" in
  let g = Dep_graph.declare_independent g "Profession" "Income" in
  let g = Dep_graph.declare_independent g "Profession" "City" in
  let g = Dep_graph.declare_independent g "City" "Education" in
  let g = Dep_graph.declare_independent g "City" "Income" in
  let broker = Value.Text "broker" in
  let g =
    Dep_graph.declare_conditional_independent g ~on:("Profession", broker)
      "Education" "Income"
  in
  let vertical = Strategy.non_repeating g policy in
  let h = Horizontal.partition g policy ~split_on:"Profession" ~values:[ broker ] in
  let broker_leaves = List.length (List.hd h.Horizontal.fragments).Horizontal.rep in
  let residual_leaves =
    match h.Horizontal.other with Some rep -> List.length rep | None -> 0
  in
  Report.render_table
    ~title:"Ablation: vertical-only vs horizontal+vertical (§IV-A stockbroker scenario)"
    ~header:[ "Representation"; "Leaves (broker queries)"; "Leaves (other rows)"; "SNF" ]
    [ [ "vertical-only";
        string_of_int (List.length vertical);
        string_of_int (List.length vertical);
        string_of_bool (Audit.is_snf g policy vertical) ];
      [ "horizontal+vertical";
        string_of_int broker_leaves;
        string_of_int residual_leaves;
        string_of_bool (Horizontal.is_snf g policy h) ] ]

(* --- workload-aware ----------------------------------------------------------- *)

let workload ?(seed = 7) () =
  let acs =
    Acs.generate
      { Acs.rows = 600; seed; cluster_sizes = [ 5; 4; 3 ]; independent_attrs = 6 }
  in
  let r = acs.Acs.relation in
  let policy = Sensitivity.annotate ~weak:12 ~seed:(seed + 1) (Relation.schema r) in
  (* A skewed workload hammering a few attribute pairs. *)
  let queries = Query_gen.point_queries ~count:40 ~seed:(seed + 2) ~way:2 r policy in
  let cost rep = float_of_int (workload_joins rep queries) in
  let start = Strategy.non_repeating acs.Acs.graph policy in
  let tuned = Strategy.workload_aware ~max_rounds:3 ~cost acs.Acs.graph policy start in
  Report.render_table
    ~title:"Ablation: workload-aware partitioning (§V-B)"
    ~header:[ "Representation"; "#Leaves"; "Workload joins"; "SNF" ]
    [ [ "non-repeating (oblivious)";
        string_of_int (List.length start);
        Printf.sprintf "%.0f" (cost start);
        string_of_bool (Audit.is_snf acs.Acs.graph policy start) ];
      [ "workload-aware";
        string_of_int (List.length tuned);
        Printf.sprintf "%.0f" (cost tuned);
        string_of_bool (Audit.is_snf acs.Acs.graph policy tuned) ] ]

(* --- reconstruction modes -------------------------------------------------------- *)

let modes_checked ?(rows = 400) ?(seed = 11) () =
  let acs =
    Acs.generate
      { Acs.rows; seed; cluster_sizes = [ 5; 4 ]; independent_attrs = 4 }
  in
  let r = acs.Acs.relation in
  let policy = Sensitivity.annotate ~weak:8 ~seed:(seed + 1) (Relation.schema r) in
  let owner = System.outsource ~name:"modes" ~graph:acs.Acs.graph r policy in
  let queries =
    Query_gen.point_queries ~count:12 ~seed:(seed + 2) ~way:2 r policy
  in
  (* A query that fails, planner error included, is an incorrect one. *)
  let run_mode name mode =
    let totals = ref (0, 0, 0, 0.0) in
    let correct = ref true in
    List.iter
      (fun q ->
        match System.query ~mode owner q with
        | Ok (_, tr) ->
          let c, w, b, s = !totals in
          totals :=
            ( c + tr.Executor.comparisons,
              w + tr.Executor.wire_bytes_up + tr.Executor.wire_bytes_down,
              b + tr.Executor.binning_retrieved,
              s +. tr.Executor.estimated_seconds );
          if not (System.verify ~mode owner q) then correct := false
        | Error _ -> correct := false)
      queries;
    let c, w, b, s = !totals in
    ( [ name; string_of_int c;
        string_of_int (w / max 1 (List.length queries));
        string_of_int b; Report.seconds s; string_of_bool !correct ],
      if !correct then None
      else Some (name ^ " answered some query wrongly or not at all") )
  in
  let runs =
    [ run_mode "sort-merge" `Sort_merge; run_mode "oram" `Oram;
      run_mode "binning(16)" (`Binning 16) ]
  in
  ( Report.render_table
      ~title:
        (Printf.sprintf
           "Ablation: reconstruction mechanisms over %d rows, %d two-way queries" rows
           (List.length queries))
      ~header:
        [ "Mode"; "Comparisons"; "Wire B/query"; "Binning rows"; "Est. time"; "Correct" ]
      (List.map fst runs),
    List.filter_map snd runs )

let modes ?rows ?seed () = fst (modes_checked ?rows ?seed ())

(* --- leakage as indexing --------------------------------------------------------- *)

let bag r = List.sort compare (Relation.rows r)

let index_checked ?(rows = 3_000) ?(seed = 13) () =
  let acs =
    Acs.generate
      { Acs.rows; seed; cluster_sizes = [ 6; 4 ]; independent_attrs = 5 }
  in
  let r = acs.Acs.relation in
  let policy = Sensitivity.annotate ~weak:9 ~ope_share:0.0 ~seed:(seed + 1) (Relation.schema r) in
  let owner = System.outsource ~name:"idx" ~graph:acs.Acs.graph r policy in
  let queries = Query_gen.point_queries ~count:20 ~seed:(seed + 2) ~way:2 r policy in
  (* Index accounting is the process-wide Snf_obs counter pair shared with
     [Enc_relation.eq_index] and [Ledger]; per-run deltas show that no
     form is built during the queries and that every probe reads one
     (hits). The scan arm's equality filters read the same forms but
     move neither counter. A form is built on its column's first server
     read, so the in-memory server's forms are all built here, before
     either arm: the arm that ran first would carry the builds. *)
  List.iter
    (fun (l : Enc_relation.enc_leaf) ->
      List.iter (fun c -> ignore (Enc_relation.form c)) l.Enc_relation.columns)
    owner.System.enc.Enc_relation.leaves;
  let m_hits = Snf_obs.Metrics.counter "exec.eq_index.hits" in
  let m_builds = Snf_obs.Metrics.counter "exec.eq_index.builds" in
  let run use_index =
    let scans = ref 0 and probes = ref 0 and correct = ref true in
    let hits0 = Snf_obs.Metrics.value m_hits
    and builds0 = Snf_obs.Metrics.value m_builds in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun q ->
        match System.query ~use_index owner q with
        | Ok (ans, tr) ->
          scans := !scans + tr.Executor.scanned_cells;
          probes := !probes + tr.Executor.index_probes;
          if bag ans <> bag (System.reference owner q) then correct := false
        | Error _ -> correct := false)
      queries;
    ( !scans, !probes, Unix.gettimeofday () -. t0, !correct,
      Snf_obs.Metrics.value m_hits - hits0,
      Snf_obs.Metrics.value m_builds - builds0 )
  in
  (* Each arm makes an untimed warm pass, which the count columns
     report, then a timed pass: the Wall time of the arm that runs first
     no longer includes the client's cold caches. *)
  let arm use_index =
    let scans, probes, _, ok, hits, builds = run use_index in
    let _, _, time, ok', _, _ = run use_index in
    (scans, probes, time, ok && ok', hits, builds)
  in
  let s_scan, p_scan, t_scan, ok_scan, h_scan, m_scan = arm false in
  let s_idx, p_idx, t_idx, ok_idx, h_idx, m_idx = arm true in
  let table =
    Report.render_table
      ~title:
        (Printf.sprintf "Ablation: equality indexes over DET columns (%d rows, 20 queries)" rows)
      ~header:
        [ "Execution"; "Cells scanned"; "Index probes"; "Cache hits"; "Index builds";
          "Wall time"; "Correct" ]
      [ [ "full scans"; string_of_int s_scan; string_of_int p_scan; string_of_int h_scan;
          string_of_int m_scan; Report.seconds t_scan; string_of_bool ok_scan ];
        [ "indexed"; string_of_int s_idx; string_of_int p_idx; string_of_int h_idx;
          string_of_int m_idx; Report.seconds t_idx; string_of_bool ok_idx ] ]
  in
  let failures =
    List.filter_map
      (fun (ok, failure) -> if ok then None else Some failure)
      [ (ok_scan, "the scan arm disagrees with the plaintext oracle");
        (ok_idx, "the indexed arm disagrees with the plaintext oracle");
        (h_scan = 0 && m_scan = 0, "the scan arm moved an exec.eq_index.* counter") ]
  in
  (table, failures)

let index ?rows ?seed () = fst (index_checked ?rows ?seed ())

(* --- dynamic updates --------------------------------------------------------------- *)

let dynamic ?(rows = 1_000) ?(seed = 17) () =
  let acs =
    Acs.generate { Acs.rows; seed; cluster_sizes = [ 5; 3 ]; independent_attrs = 4 }
  in
  let r = acs.Acs.relation in
  let policy = Sensitivity.annotate ~weak:7 ~seed:(seed + 1) (Relation.schema r) in
  let owner = System.outsource ~name:"dyn" ~graph:acs.Acs.graph r policy in
  let d = Snf_exec.Dynamic.create owner in
  let schema = Relation.schema r in
  let sample_row i =
    Array.of_list
      (List.map
         (fun a ->
           ignore a;
           Relation.get r ~row:(i mod rows) a)
         (Schema.names schema))
  in
  let insert_cost = ref 0 and inserted = ref 0 in
  for batch = 0 to 9 do
    let rows_batch = List.init 20 (fun j -> sample_row ((batch * 37) + j)) in
    let st = Snf_exec.Dynamic.insert d rows_batch in
    insert_cost := !insert_cost + st.Snf_exec.Dynamic.cells_encrypted;
    inserted := !inserted + st.Snf_exec.Dynamic.rows_processed
  done;
  let q = Snf_workload.Query_gen.point_queries ~count:3 ~seed:(seed + 5) ~way:2 r policy in
  let verified = List.for_all (fun q -> Snf_exec.Dynamic.verify d q) q in
  let compact_stats = Snf_exec.Dynamic.compact d in
  Report.render_table
    ~title:
      (Printf.sprintf
         "Ablation: dynamic inserts (%d base rows + %d inserted, staged-delta design)"
         rows !inserted)
    ~header:[ "Operation"; "Rows touched"; "Cells encrypted"; "Verified" ]
    [ [ "10 insert batches (delta)"; string_of_int !inserted; string_of_int !insert_cost;
        string_of_bool verified ];
      [ "compaction (recast)";
        string_of_int compact_stats.Snf_exec.Dynamic.rows_processed;
        string_of_int compact_stats.Snf_exec.Dynamic.cells_encrypted;
        "-" ];
      [ "naive per-insert recast (x10)";
        string_of_int ((rows * 10) + !inserted);
        string_of_int (compact_stats.Snf_exec.Dynamic.cells_encrypted * 10);
        "-" ] ]

(* --- knowledge acquisition (§V-A) ------------------------------------------------ *)

let knowledge ?(seed = 23) () =
  let acs =
    Acs.generate
      { Acs.rows = 400; seed; cluster_sizes = [ 8; 5; 4 ]; independent_attrs = 5 }
  in
  let names = Relation.schema acs.Acs.relation |> Schema.names in
  let policy = Sensitivity.annotate ~weak:14 ~seed:(seed + 1) (Relation.schema acs.Acs.relation) in
  let truth = acs.Acs.graph in
  let queries =
    Query_gen.point_queries ~count:30 ~seed:(seed + 2) ~way:2 acs.Acs.relation policy
  in
  (* Rebuild a partial graph: keep each true declaration with probability
     [coverage]; everything else is left undecided for the mode default. *)
  let partial ~mode ~coverage =
    let prng = Snf_crypto.Prng.create (seed + int_of_float (coverage *. 1000.0)) in
    let g = ref (Dep_graph.create ~mode names) in
    let rec pairs = function
      | [] -> ()
      | a :: rest ->
        List.iter
          (fun b ->
            if Snf_crypto.Prng.float prng 1.0 < coverage then
              if Dep_graph.dependent truth a b then
                g := Dep_graph.declare_dependent !g a b
              else g := Dep_graph.declare_independent !g a b)
          rest;
        pairs rest
    in
    pairs names;
    !g
  in
  let row mode coverage =
    let g = partial ~mode ~coverage in
    let rep = Strategy.non_repeating g policy in
    (* audit against the ground truth *)
    let true_violations = List.length (Audit.violations truth policy rep) in
    [ (match mode with Dep_graph.Optimistic -> "optimistic" | Dep_graph.Pessimistic -> "pessimistic");
      Printf.sprintf "%.0f%%" (100.0 *. coverage);
      string_of_int (List.length rep);
      string_of_int true_violations;
      string_of_int (workload_joins rep queries) ]
  in
  Report.render_table
    ~title:"Ablation: incomplete dependence knowledge (§V-A), audited against ground truth"
    ~header:[ "Default mode"; "Declared"; "#Leaves"; "True violations"; "Workload joins" ]
    [ row Dep_graph.Optimistic 1.0;
      row Dep_graph.Optimistic 0.7;
      row Dep_graph.Optimistic 0.4;
      row Dep_graph.Pessimistic 0.7;
      row Dep_graph.Pessimistic 0.4;
      row Dep_graph.Pessimistic 0.0 ]
