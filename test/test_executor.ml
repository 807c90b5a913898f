open Snf_relational
open Snf_exec
module Scheme = Snf_crypto.Scheme

let t name f = Alcotest.test_case name `Quick f

let owner () =
  System.outsource ~name:"ex1" (Helpers.example1_relation ())
    (Helpers.example1_policy ())
    ~graph:(Helpers.example1_graph ())

let modes = [ ("sort-merge", `Sort_merge); ("oram", `Oram); ("binning", `Binning 2) ]

let test_all_modes_agree_with_reference () =
  let o = owner () in
  let queries =
    [ Query.point ~select:[ "State" ] [ ("ZipCode", Value.Int 94016) ];
      Query.point ~select:[ "State"; "Income" ] [ ("ZipCode", Value.Int 10001) ];
      Query.point ~select:[ "ZipCode" ] [ ("Income", Value.Int 70) ];
      Query.range ~select:[ "State" ] [ ("Income", Value.Int 90, Value.Int 301) ];
      Query.point ~select:[ "State" ] [ ("ZipCode", Value.Int 99999) ] (* empty *);
      Query.point ~select:[ "Income" ] [] (* no predicate *) ]
  in
  List.iter
    (fun q ->
      List.iter
        (fun (mname, mode) ->
          Alcotest.(check bool)
            (Format.asprintf "%s: %a" mname Query.pp q)
            true (System.verify ~mode o q))
        modes)
    queries

let test_trace_accounting () =
  let o = owner () in
  let cross = Query.point ~select:[ "State" ] [ ("ZipCode", Value.Int 94016) ] in
  (match System.query ~mode:`Sort_merge o cross with
   | Ok (_, tr) ->
     Alcotest.(check int) "one join" 1 tr.Executor.plan.Planner.joins;
     Alcotest.(check bool) "comparisons counted" true (tr.Executor.comparisons > 0);
     Alcotest.(check bool) "cells scanned" true (tr.Executor.scanned_cells > 0);
     Alcotest.(check bool) "estimate positive" true (tr.Executor.estimated_seconds > 0.0)
   | Error e -> Alcotest.fail e);
  (match System.query ~mode:`Oram o cross with
   | Ok (_, tr) ->
     Alcotest.(check int) "the linear-scan ORAM touches no bucket" 0
       tr.Executor.oram_bucket_touches;
     Alcotest.(check bool) "the whole-partner fetch is priced" true
       (tr.Executor.estimated_seconds
       > Cost_model.trace_seconds Cost_model.default ~comparisons:0 ~rows_processed:0
           ~scanned_cells:tr.Executor.scanned_cells ~retrieved_rows:0);
     Alcotest.(check int) "no network rows in oram mode" 0 tr.Executor.rows_processed
   | Error e -> Alcotest.fail e);
  (match System.query ~mode:(`Binning 3) o cross with
   | Ok (_, tr) ->
     Alcotest.(check bool) "binning decoys counted" true (tr.Executor.binning_retrieved > 0)
   | Error e -> Alcotest.fail e);
  let local = Query.point ~select:[ "State" ] [ ("Income", Value.Int 70) ] in
  (match System.query o local with
   | Ok (_, tr) ->
     Alcotest.(check int) "single-leaf query joins nothing" 0
       tr.Executor.plan.Planner.joins;
     Alcotest.(check int) "no comparisons" 0 tr.Executor.comparisons
   | Error e -> Alcotest.fail e)

let test_projection_order_and_types () =
  let o = owner () in
  let q = Query.point ~select:[ "Income"; "State" ] [ ("ZipCode", Value.Int 94016) ] in
  match System.query o q with
  | Ok (ans, _) ->
    Alcotest.(check (list string)) "column order follows projection"
      [ "Income"; "State" ]
      (Schema.names (Relation.schema ans));
    Alcotest.(check bool) "types recovered" true
      (match Relation.get ans ~row:0 "State" with Value.Text _ -> true | _ -> false)
  | Error e -> Alcotest.fail e

let test_unsupported_query () =
  let o = owner () in
  let q = Query.point ~select:[ "State" ] [ ("State", Value.Text "CA") ] in
  Alcotest.(check bool) "predicate on NDET rejected" true
    (Result.is_error (System.query o q))

(* Randomized end-to-end agreement across all modes. *)
let random_instance_gen =
  let open QCheck2.Gen in
  let* n_rows = int_range 1 24 in
  let* rows =
    list_repeat n_rows (triple (int_bound 4) (int_bound 4) (int_bound 4))
  in
  let* q_attr = oneofl [ "a"; "b" ] in
  let* q_val = int_bound 4 in
  let* proj = oneofl [ [ "c" ]; [ "a"; "c" ]; [ "b" ]; [ "a"; "b"; "c" ] ] in
  let* range_query = bool in
  return (rows, q_attr, q_val, proj, range_query)

let prop_modes_agree =
  Helpers.qtest ~count:60 "random instances: all modes match the reference answer"
    random_instance_gen (fun (rows, q_attr, q_val, proj, range_query) ->
      let r =
        Helpers.relation_of_int_rows [ "a"; "b"; "c" ]
          (List.map (fun (a, b, c) -> [ a; b; c ]) rows)
      in
      let policy =
        Snf_core.Policy.create
          [ ("a", Scheme.Det); ("b", Scheme.Ope); ("c", Scheme.Ndet) ]
      in
      (* dependence: c depends on a -> a and c must separate; b independent *)
      let g = Snf_deps.Dep_graph.create [ "a"; "b"; "c" ] in
      let g = Snf_deps.Dep_graph.declare_dependent g "a" "c" in
      let g = Snf_deps.Dep_graph.declare_independent g "a" "b" in
      let g = Snf_deps.Dep_graph.declare_independent g "b" "c" in
      let o = System.outsource ~name:"rand" ~graph:g r policy in
      let q =
        if range_query then
          (* only the OPE column supports range predicates *)
          Query.range ~select:proj [ ("b", Value.Int 1, Value.Int q_val) ]
        else Query.point ~select:proj [ (q_attr, Value.Int q_val) ]
      in
      List.for_all (fun (_, mode) -> System.verify ~mode o q) modes)

let test_system_storage_and_sum () =
  let r = Helpers.example1_relation () in
  let policy =
    Snf_core.Policy.create
      [ ("State", Scheme.Ndet); ("ZipCode", Scheme.Det); ("Income", Scheme.Phe) ]
  in
  let o = System.outsource ~name:"sum" ~graph:(Helpers.example1_graph ()) r policy in
  Alcotest.(check bool) "deployment storage positive" true
    (System.storage_bytes Storage_model.Deployment o > 0);
  (* find the leaf storing Income *)
  let leaf =
    List.find
      (fun (l : Snf_core.Partition.leaf) -> Snf_core.Partition.mem_leaf l "Income")
      o.System.plan.Snf_core.Normalizer.representation
  in
  Alcotest.(check int) "secure SUM over PHE" (Algebra.sum_int "Income" r)
    (System.sum o ~leaf:leaf.Snf_core.Partition.label ~attr:"Income")

(* The anchor must be the most selective leaf: with a highly selective
   predicate on one side, binning fetches stay proportional to its
   survivors rather than the whole partner leaf. *)
let test_anchor_selectivity () =
  (* 40 rows; predicate on "a" matches exactly 1 row. *)
  let rows = List.init 40 (fun i -> [ i; i mod 5; i mod 7 ]) in
  let r = Helpers.relation_of_int_rows [ "a"; "b"; "c" ] rows in
  let policy =
    Snf_core.Policy.create
      [ ("a", Scheme.Det); ("b", Scheme.Det); ("c", Scheme.Ndet) ]
  in
  let g = Snf_deps.Dep_graph.create [ "a"; "b"; "c" ] in
  let g = Snf_deps.Dep_graph.declare_dependent g "a" "c" in
  let g = Snf_deps.Dep_graph.declare_dependent g "a" "b" in
  let g = Snf_deps.Dep_graph.declare_independent g "b" "c" in
  let o = System.outsource ~name:"anchor" ~graph:g r policy in
  (* plan spans the leaf holding `a` and the leaf holding `c` *)
  let q =
    Query.point ~select:[ "c" ] [ ("a", Value.Int 7); ("b", Value.Int 2) ]
  in
  match System.query ~mode:(`Binning 4) o q with
  | Ok (ans, tr) ->
    Alcotest.(check int) "single match" 1 (Relation.cardinality ans);
    (* if the anchor were an unselective leaf, fetches would cover every
       surviving row of its mask; with the selective anchor, only a
       handful of bins are retrieved per partner leaf *)
    Alcotest.(check bool)
      (Printf.sprintf "binning stays small (%d rows)" tr.Executor.binning_retrieved)
      true
      (tr.Executor.binning_retrieved <= 8 * (List.length tr.Executor.plan.Planner.leaves - 1));
    Alcotest.(check bool) "verified" true (System.verify ~mode:(`Binning 4) o q)
  | Error e -> Alcotest.fail e

let suite =
  [ t "all modes agree with reference" test_all_modes_agree_with_reference;
    t "trace accounting" test_trace_accounting;
    t "projection order and types" test_projection_order_and_types;
    t "unsupported query" test_unsupported_query;
    prop_modes_agree;
    t "system storage and secure sum" test_system_storage_and_sum;
    t "anchor selectivity" test_anchor_selectivity ]
