open Snf_relational
open Snf_exec
open Snf_core
module Scheme = Snf_crypto.Scheme
module Dep_graph = Snf_deps.Dep_graph

let t name f = Alcotest.test_case name `Quick f

(* --- exhaustive partitioner --------------------------------------------------- *)

let test_exhaustive_example1 () =
  let policy = Helpers.example1_policy () in
  let g = Helpers.example1_graph () in
  let opt = Strategy.exhaustive g policy in
  Alcotest.(check bool) "optimal is SNF" true (Audit.is_snf g policy opt);
  Alcotest.(check int) "two leaves suffice and are optimal" 2 (List.length opt);
  (* the greedy matches the optimum here *)
  Alcotest.(check int) "greedy matches optimum" (List.length opt)
    (List.length (Strategy.non_repeating g policy))

let test_exhaustive_cap () =
  let policy =
    Policy.create (List.init 12 (fun i -> (Printf.sprintf "a%d" i, Scheme.Det)))
  in
  let g = Dep_graph.create (Policy.attrs policy) in
  Alcotest.(check bool) "cap enforced" true
    (try
       ignore (Strategy.exhaustive g policy);
       false
     with Invalid_argument _ -> true)

let prop_exhaustive_at_most_greedy =
  Helpers.qtest ~count:40 "optimal leaf count <= greedy leaf count, both SNF"
    Helpers.instance_gen (fun (_, policy, g) ->
      let opt = Strategy.exhaustive g policy in
      let greedy = Strategy.non_repeating g policy in
      Audit.is_snf g policy opt
      && List.length opt <= List.length greedy)

let prop_exhaustive_custom_cost =
  Helpers.qtest ~count:25 "exhaustive minimizes a custom cost"
    Helpers.instance_gen (fun (_, policy, g) ->
      (* cost = total columns: favors... same as leaves for repetition-free *)
      let cost rep = float_of_int (Partition.total_columns rep) in
      let opt = Strategy.exhaustive ~cost g policy in
      let greedy = Strategy.non_repeating g policy in
      cost opt <= cost greedy)

(* --- ledger -------------------------------------------------------------------- *)

let ledger () =
  Ledger.create
    (System.outsource ~name:"led" ~graph:(Helpers.example1_graph ())
       (Helpers.example1_relation ())
       (Helpers.example1_policy ()))

let test_ledger_tokens () =
  let l = ledger () in
  let q1 = Query.point ~select:[ "State" ] [ ("ZipCode", Value.Int 94016) ] in
  let q2 = Query.point ~select:[ "State" ] [ ("ZipCode", Value.Int 94016) ] in
  let q3 = Query.point ~select:[ "State" ] [ ("ZipCode", Value.Int 10001) ] in
  let q4 = Query.range ~select:[ "State" ] [ ("Income", Value.Int 60, Value.Int 100) ] in
  List.iter (fun q -> ignore (Ledger.query l q)) [ q1; q2; q3; q4 ];
  let r = Ledger.report l in
  Alcotest.(check int) "four queries" 4 r.Ledger.queries;
  let zip = List.find (fun a -> a.Ledger.attr = "ZipCode") r.Ledger.attrs in
  Alcotest.(check int) "three zip tokens" 3 zip.Ledger.tokens_issued;
  Alcotest.(check int) "two distinct zip constants visible" 2 zip.Ledger.distinct_tokens;
  let income = List.find (fun a -> a.Ledger.attr = "Income") r.Ledger.attrs in
  Alcotest.(check int) "one range token" 1 income.Ledger.tokens_issued;
  Alcotest.(check bool) "attrs sorted by token volume" true
    (match r.Ledger.attrs with a :: b :: _ -> a.Ledger.tokens_issued >= b.Ledger.tokens_issued | _ -> false)

let test_ledger_co_access_and_volumes () =
  let l = ledger () in
  let cross = Query.point ~select:[ "State" ] [ ("ZipCode", Value.Int 94016) ] in
  ignore (Ledger.query l cross);
  ignore (Ledger.query l cross);
  let local = Query.point ~select:[ "ZipCode" ] [ ("ZipCode", Value.Int 10001) ] in
  ignore (Ledger.query l local);
  let r = Ledger.report l in
  (match r.Ledger.co_access with
   | [ ((_, _), n) ] -> Alcotest.(check int) "cross pair recorded twice" 2 n
   | other -> Alcotest.fail (Printf.sprintf "expected 1 pair, got %d" (List.length other)));
  Alcotest.(check (list int)) "volumes in order" [ 2; 2; 2 ] r.Ledger.result_volumes;
  Alcotest.(check bool) "reconstruction traffic recorded" true
    (r.Ledger.total_reconstruction_rows > 0);
  (* failed queries are not recorded *)
  let bad = Query.point ~select:[ "State" ] [ ("State", Value.Text "CA") ] in
  Alcotest.(check bool) "bad query errors" true (Result.is_error (Ledger.query l bad));
  Alcotest.(check int) "count unchanged" 3 (Ledger.report l).Ledger.queries

let test_ledger_pp () =
  let l = ledger () in
  ignore (Ledger.query l (Query.point ~select:[ "State" ] [ ("ZipCode", Value.Int 94016) ]));
  let s = Format.asprintf "%a" Ledger.pp_report (Ledger.report l) in
  Alcotest.(check bool) "report renders" true (String.length s > 0)

(* Inside a batch the index probes cross before any query window opens;
   the ledger still counts each probed constant as a token. *)
let test_ledger_batched_probes () =
  let l = ledger () in
  let zip v = Query.point ~select:[ "State" ] [ ("ZipCode", Value.Int v) ] in
  let income =
    Query.range ~select:[ "State" ] [ ("Income", Value.Int 60, Value.Int 100) ]
  in
  List.iter
    (function Ok _ -> () | Error e -> Alcotest.fail e)
    (Ledger.query_batch ~use_index:true l [ zip 94016; zip 94016; zip 10001; income ]);
  let r = Ledger.report l in
  Alcotest.(check int) "four queries" 4 r.Ledger.queries;
  Alcotest.(check int) "one batch" 1 r.Ledger.batches;
  let tokens attr = List.find (fun a -> a.Ledger.attr = attr) r.Ledger.attrs in
  Alcotest.(check int) "three probed zip tokens" 3 (tokens "ZipCode").Ledger.tokens_issued;
  Alcotest.(check int) "two distinct zip constants visible" 2
    (tokens "ZipCode").Ledger.distinct_tokens;
  Alcotest.(check int) "one range token" 1 (tokens "Income").Ledger.tokens_issued;
  Alcotest.(check (pair int int)) "probes served by the index" (3, 0)
    (r.Ledger.index_hits, r.Ledger.index_misses)

(* The profile's token counts see the same batched probes: its eq.*
   totals come from every round, not from the query windows. *)
let test_profile_batched_probes () =
  let owner =
    System.outsource ~name:"ledp" ~graph:(Helpers.example1_graph ())
      (Helpers.example1_relation ())
      (Helpers.example1_policy ())
  in
  let zip v = Query.point ~select:[ "State" ] [ ("ZipCode", Value.Int v) ] in
  let income =
    Query.range ~select:[ "State" ] [ ("Income", Value.Int 60, Value.Int 100) ]
  in
  let results, trace =
    System.record_wire_trace (fun () ->
        System.query_batch ~use_index:true owner [ zip 94016; zip 94016; zip 10001; income ])
  in
  List.iter (function Ok _ -> () | Error e -> Alcotest.fail e) results;
  let p = Snf_obs.Leakage.profile trace in
  let zip_tokens =
    List.filter
      (fun (tok : Snf_obs.Leakage.token) -> tok.Snf_obs.Leakage.t_attr = "ZipCode")
      (Snf_obs.Leakage.tokens trace)
  in
  Alcotest.(check int) "three probed zip tokens on the wire" 3 (List.length zip_tokens);
  Alcotest.(check int) "the profile counts them" 3 p.Snf_obs.Leakage.p_eq_total;
  Alcotest.(check int) "two distinct zip constants" 2 p.Snf_obs.Leakage.p_eq_distinct;
  Alcotest.(check int) "one range token" 1 p.Snf_obs.Leakage.p_range_total

let suite =
  [ t "exhaustive example 1" test_exhaustive_example1;
    t "exhaustive cap" test_exhaustive_cap;
    prop_exhaustive_at_most_greedy;
    prop_exhaustive_custom_cost;
    t "ledger tokens" test_ledger_tokens;
    t "ledger co-access and volumes" test_ledger_co_access_and_volumes;
    t "ledger pp" test_ledger_pp;
    t "ledger counts index probes inside a batch" test_ledger_batched_probes;
    t "profile counts index probes inside a batch" test_profile_batched_probes ]
