(* Guard the experiment harnesses themselves: tiny-scale runs must produce
   the paper's qualitative shape, and the renderers must not crash. *)

open Snf_experiments

let t name f = Alcotest.test_case name `Quick f

let tiny_table1 () =
  Table1.run
    ~config:{ Table1.rows = 300; seed = 5; weak = 172; queries_per_way = 15 }
    ()

let find name (res : Table1.result) =
  List.find (fun (r : Table1.row) -> r.Table1.method_name = name) res.Table1.table

let test_table1_shape () =
  let res = tiny_table1 () in
  Alcotest.(check int) "five methods" 5 (List.length res.Table1.table);
  let naive = find "Naive" res in
  let nr = find "SNF (non-repeating)" res in
  let mr = find "SNF (max-repeating)" res in
  let straw = find "Strawman" res in
  let plain = find "Plaintext" res in
  Alcotest.(check int) "naive = one partition per attr" 231 naive.Table1.partitions;
  Alcotest.(check bool) "snf strategies agree on partitions" true
    (nr.Table1.partitions = mr.Table1.partitions);
  Alcotest.(check bool) "snf shrinks partitions at least 2x" true
    (nr.Table1.partitions * 2 < naive.Table1.partitions);
  Alcotest.(check bool) "cost ordering" true
    (naive.Table1.normalized_cost >= nr.Table1.normalized_cost
    && nr.Table1.normalized_cost >= mr.Table1.normalized_cost
    && mr.Table1.normalized_cost > straw.Table1.normalized_cost);
  Alcotest.(check bool) "max-rep pays storage" true
    (mr.Table1.storage_bytes > 3 * naive.Table1.storage_bytes);
  Alcotest.(check bool) "plaintext smallest" true
    (plain.Table1.storage_bytes < straw.Table1.storage_bytes);
  Alcotest.(check bool) "snf verdicts" true
    (naive.Table1.snf && nr.Table1.snf && mr.Table1.snf && not straw.Table1.snf);
  (* the renderer mentions every method *)
  let rendered = Table1.render res in
  Alcotest.(check bool) "render mentions strawman" true
    (String.length rendered > 0
    &&
    let rec contains i =
      i + 8 <= String.length rendered
      && (String.sub rendered i 8 = "Strawman" || contains (i + 1))
    in
    contains 0)

(* Table 1's plan-cache counters repeat run to run: each run starts from
   a fresh domain (an empty plan memo) with a 2-domain pool and must move
   plan.cache.* by the same amounts. Planning fanned out over the pool
   would also consult the worker's memo, which keeps the first run's
   plans. 80 queries, above the pool's sequential cutoff. *)
let test_table1_plan_counters_repeat () =
  let domains = Snf_exec.Parallel.domain_count () in
  Snf_exec.Parallel.set_domain_count 2;
  Fun.protect ~finally:(fun () -> Snf_exec.Parallel.set_domain_count domains)
  @@ fun () ->
  let plan_deltas () =
    Domain.join
      (Domain.spawn (fun () ->
           let before = Snf_obs.Metrics.snapshot () in
           ignore
             (Table1.run
                ~config:{ Table1.rows = 300; seed = 11; weak = 172; queries_per_way = 40 }
                ());
           Snf_obs.Metrics.(
             counters_with_prefix "plan." (counter_diff before (snapshot ())))))
  in
  let first = plan_deltas () in
  Alcotest.(check bool) "plans were made" true (List.mem_assoc "plan.cache.miss" first);
  Alcotest.(check (list (pair string int))) "plan.* deltas repeat" first (plan_deltas ())

let test_figure3_shape () =
  let res =
    Figure3.run
      ~config:{ Figure3.rows = 5_000; seed = 5; weak = 172; queries_per_way = 15 }
      ()
  in
  Alcotest.(check int) "three series" 3 (List.length res.Figure3.series);
  (match res.Figure3.series with
   | [ naive; nr; mr ] ->
     Alcotest.(check bool) "total ordering naive >= nr >= mr" true
       (naive.Figure3.total_seconds >= nr.Figure3.total_seconds
       && nr.Figure3.total_seconds >= mr.Figure3.total_seconds);
     (* join-count buckets are monotone in cost *)
     List.iter
       (fun (s : Figure3.series) ->
         let sorted = List.sort compare s.Figure3.per_join_count in
         let rec mono = function
           | (_, _, c1) :: ((_, _, c2) :: _ as rest) -> c1 <= c2 && mono rest
           | _ -> true
         in
         Alcotest.(check bool) "more joins cost more" true (mono sorted))
       res.Figure3.series
   | _ -> Alcotest.fail "expected 3 series");
  Alcotest.(check bool) "render non-empty" true (String.length (Figure3.render res) > 0)

let test_attack_eval_shape () =
  let res = Attack_eval.run ~rows:800 ~seed:3 () in
  (match res.Attack_eval.outcomes with
   | [ straw; snf ] ->
     Alcotest.(check bool) "strawman linked, snf not" true
       (straw.Attack_eval.linked && not snf.Attack_eval.linked);
     Alcotest.(check bool) "strawman recovery well above baseline" true
       (straw.Attack_eval.target_accuracy > straw.Attack_eval.blind_baseline +. 0.2);
     Alcotest.(check bool) "snf recovery = baseline" true
       (snf.Attack_eval.target_accuracy = snf.Attack_eval.blind_baseline)
   | _ -> Alcotest.fail "expected 2 outcomes");
  Alcotest.(check bool) "render non-empty" true
    (String.length (Attack_eval.render res) > 0)

let test_ablation_renderers () =
  List.iter
    (fun (name, s) ->
      Alcotest.(check bool) (name ^ " renders") true (String.length s > 0))
    [ ("horizontal", Ablations.horizontal ());
      ("workload", Ablations.workload ());
      ("modes", Ablations.modes ~rows:120 ());
      ("index", Ablations.index ~rows:300 ());
      ("dynamic", Ablations.dynamic ~rows:200 ()) ]

(* --- cost model sanity ------------------------------------------------------ *)

let test_cost_model () =
  let p = Snf_exec.Cost_model.default in
  let j1 = Snf_exec.Cost_model.oblivious_join_seconds p 1_000 1_000 in
  let j2 = Snf_exec.Cost_model.oblivious_join_seconds p 10_000 10_000 in
  Alcotest.(check bool) "superlinear in input" true (j2 > 10.0 *. j1);
  Alcotest.(check bool) "chain of one is free" true
    (Snf_exec.Cost_model.chain_join_seconds p [ 500 ] = 0.0);
  Alcotest.(check bool) "chain accumulates" true
    (Snf_exec.Cost_model.chain_join_seconds p [ 500; 500; 500 ]
    > Snf_exec.Cost_model.chain_join_seconds p [ 500; 500 ]);
  Alcotest.(check bool) "trace estimate monotone in counters" true
    (Snf_exec.Cost_model.trace_seconds p ~comparisons:1000 ~rows_processed:100
       ~scanned_cells:100 ~retrieved_rows:10
    > Snf_exec.Cost_model.trace_seconds p ~comparisons:10 ~rows_processed:10
        ~scanned_cells:10 ~retrieved_rows:1)

let suite =
  [ t "table 1 shape" test_table1_shape;
    t "figure 3 shape" test_figure3_shape;
    t "attack eval shape" test_attack_eval_shape;
    t "ablation renderers" test_ablation_renderers;
    t "cost model sanity" test_cost_model;
    t "table 1 plan-cache counters repeat on 2 domains" test_table1_plan_counters_repeat ]
