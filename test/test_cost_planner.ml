(* Cost-based planner: statistics reduction and drift, plan-cache
   stamping (key epoch + statistics version), cached-vs-uncached
   bit-identity (including across Parallel domains), enumeration
   truncation notes, set-cover and join-order wins over greedy, and the
   EXPLAIN rendering. *)

open Snf_relational
open Snf_exec
module Partition = Snf_core.Partition
module Strategy = Snf_core.Strategy
module Scheme = Snf_crypto.Scheme
module Explain = Snf_core.Explain
module Metrics = Snf_obs.Metrics

let check = Alcotest.check
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Fabricate a server stats answer without a server. *)
let ls label rows attrs =
  { Wire.s_label = label;
    s_rows = rows;
    s_attrs =
      List.map (fun (a, classes) -> { Wire.a_attr = a; a_classes = classes }) attrs }

let cost_handle ?max_cover ?max_orders ?(epoch = ref 0) stats =
  Planner.cost_based ?max_cover ?max_orders
    ~price:(fun pl -> Cost_model.plan_seconds stats pl)
    ~stamp:(fun () -> (!epoch, Statistics.version stats))
    ()

let cache_name = function `Hit -> "hit" | `Miss -> "miss"

let decision handle rep q =
  match Planner.decide ~handle rep q with
  | Ok d -> d
  | Error e -> Alcotest.fail ("unexpected plan error: " ^ e)

(* --- statistics ------------------------------------------------------------- *)

let test_statistics_versioning () =
  let stats = Statistics.create () in
  check_int "empty statistics at version 0" 0 (Statistics.version stats);
  let base = [ ls "p0" 100 [ ("a", [ ("k1", 10); ("k2", 90) ]) ]; ls "p1" 100 [] ] in
  Statistics.ingest stats base;
  check_int "first ingest bumps" 1 (Statistics.version stats);
  Statistics.ingest stats base;
  check_int "equivalent re-ingest keeps the version" 1 (Statistics.version stats);
  (* 10% row move: inside the 20% threshold. *)
  Statistics.ingest stats
    [ ls "p0" 110 [ ("a", [ ("k1", 12); ("k2", 98) ]) ]; ls "p1" 100 [] ];
  check_int "small drift tolerated" 1 (Statistics.version stats);
  (* Doubled rows: past the threshold. *)
  Statistics.ingest stats
    [ ls "p0" 220 [ ("a", [ ("k1", 24); ("k2", 196) ]) ]; ls "p1" 200 [] ];
  check_int "large drift bumps" 2 (Statistics.version stats);
  (* Leaf-set change always bumps. *)
  Statistics.ingest stats [ ls "p0" 220 [ ("a", [ ("k1", 24); ("k2", 196) ]) ] ];
  check_int "leaf-set change bumps" 3 (Statistics.version stats)

let test_statistics_lookups () =
  let stats = Statistics.create () in
  Statistics.ingest stats
    [ ls "p0" 100 [ ("a", [ ("k1", 10); ("k2", 40); ("k3", 50) ]); ("b", []) ] ];
  check_int "rows" 100 (Option.get (Statistics.rows stats ~leaf:"p0"));
  check_bool "unknown leaf rows" true (Statistics.rows stats ~leaf:"nope" = None);
  check_int "distinct" 3 (Option.get (Statistics.distinct stats ~leaf:"p0" ~attr:"a"));
  check (Alcotest.float 1e-9) "eq selectivity = worst-case class share" 0.5
    (Statistics.eq_selectivity stats ~leaf:"p0" ~attr:"a");
  check (Alcotest.float 1e-9) "no histogram: conservative 1.0" 1.0
    (Statistics.eq_selectivity stats ~leaf:"p0" ~attr:"b");
  check_bool "cold wire estimate positive" true
    (Statistics.wire_bytes_per_request stats ~phase:"fetch" > 0.)

(* --- plan cache ------------------------------------------------------------- *)

let two_leaf_rep () =
  [ Partition.leaf "p0" [ ("a", Scheme.Det); ("b", Scheme.Det) ];
    Partition.leaf "p1" [ ("c", Scheme.Det) ] ]

let test_cache_hit_is_bit_identical () =
  let stats = Statistics.create () in
  let handle = cost_handle stats in
  let rep = two_leaf_rep () in
  let q = Query.point ~select:[ "a"; "c" ] [ ("a", Value.Int 1) ] in
  let before = Metrics.snapshot () in
  let d1 = decision handle rep q in
  let d2 = decision handle rep q in
  let deltas = Metrics.counter_diff before (Metrics.snapshot ()) in
  let d name = Option.value (List.assoc_opt name deltas) ~default:0 in
  check Alcotest.string "first decide misses" "miss" (cache_name d1.Planner.d_cache);
  check Alcotest.string "second decide hits" "hit" (cache_name d2.Planner.d_cache);
  check_bool "miss priced candidates" true (d1.Planner.d_enumerated > 0);
  check_int "hit priced nothing" 0 d2.Planner.d_enumerated;
  check_bool "plans bit-identical" true (d1.Planner.d_plan = d2.Planner.d_plan);
  check_bool "estimates identical" true (d1.Planner.d_estimate = d2.Planner.d_estimate);
  check_bool "rejected identical" true (d1.Planner.d_rejected = d2.Planner.d_rejected);
  check_int "one hit counted" 1 (d "plan.cache.hit");
  check_int "one miss counted" 1 (d "plan.cache.miss");
  check_int "enumerated counter = miss's priced count" d1.Planner.d_enumerated
    (d "plan.candidates.enumerated")

let test_epoch_bump_replans () =
  let stats = Statistics.create () in
  let epoch = ref 0 in
  let handle = cost_handle ~epoch stats in
  let rep = two_leaf_rep () in
  let q = Query.point ~select:[ "a"; "c" ] [] in
  let d1 = decision handle rep q in
  check Alcotest.string "cold: miss" "miss" (cache_name d1.Planner.d_cache);
  check Alcotest.string "warm: hit" "hit"
    (cache_name (decision handle rep q).Planner.d_cache);
  incr epoch;
  let d3 = decision handle rep q in
  check Alcotest.string "epoch bump forces re-plan" "miss"
    (cache_name d3.Planner.d_cache);
  check_bool "re-planned answer identical" true (d3.Planner.d_plan = d1.Planner.d_plan);
  check Alcotest.string "stable again after re-plan" "hit"
    (cache_name (decision handle rep q).Planner.d_cache)

let test_stats_drift_replans () =
  let stats = Statistics.create () in
  Statistics.ingest stats [ ls "p0" 100 []; ls "p1" 100 [] ];
  let handle = cost_handle stats in
  let rep = two_leaf_rep () in
  let q = Query.point ~select:[ "a"; "c" ] [] in
  ignore (decision handle rep q);
  check Alcotest.string "warm: hit" "hit"
    (cache_name (decision handle rep q).Planner.d_cache);
  (* Equivalent ingest: version stable, cache stays warm. *)
  Statistics.ingest stats [ ls "p0" 100 []; ls "p1" 100 [] ];
  check Alcotest.string "equivalent stats keep the cache" "hit"
    (cache_name (decision handle rep q).Planner.d_cache);
  (* Drift past the threshold: the stamp moves, the entry is stale. *)
  Statistics.ingest stats [ ls "p0" 500 []; ls "p1" 500 [] ];
  check Alcotest.string "stats drift forces re-plan" "miss"
    (cache_name (decision handle rep q).Planner.d_cache)

let test_parallel_domains_memo () =
  (* The memo is domain-local: every domain misses once for a new shape,
     then hits; answers are bit-identical everywhere and every call moves
     exactly one of hit/miss. *)
  let stats = Statistics.create () in
  let handle = cost_handle stats in
  let rep = two_leaf_rep () in
  let q = Query.point ~select:[ "a"; "b"; "c" ] [ ("b", Value.Int 7) ] in
  let calls = 8 in
  let before = Metrics.snapshot () in
  let ds =
    Parallel.map_list ~domains:4 (fun _ -> decision handle rep q) (List.init calls Fun.id)
  in
  let deltas = Metrics.counter_diff before (Metrics.snapshot ()) in
  let d name = Option.value (List.assoc_opt name deltas) ~default:0 in
  let d0 = List.hd ds in
  List.iter
    (fun di ->
      check_bool "plans bit-identical across domains" true
        (di.Planner.d_plan = d0.Planner.d_plan);
      check_bool "estimates identical across domains" true
        (di.Planner.d_estimate = d0.Planner.d_estimate))
    ds;
  check_int "every call moved exactly one of hit/miss" calls
    (d "plan.cache.hit" + d "plan.cache.miss");
  check_bool "at least one domain planned fresh" true (d "plan.cache.miss" >= 1)

(* --- enumeration ------------------------------------------------------------ *)

let test_set_cover_beats_greedy () =
  (* Greedy's classic trap: a 4-attr decoy leaf d beats both optimal
     3-attr halves on first pick, then two more leaves are needed —
     greedy covers with 3 leaves where 2 suffice. The cost planner
     enumerates the 2-cover and prices it cheaper (fewer joins). *)
  let rep =
    [ Partition.leaf "o1" [ ("s1", Scheme.Det); ("s2", Scheme.Det); ("s3", Scheme.Det) ];
      Partition.leaf "o2" [ ("s4", Scheme.Det); ("s5", Scheme.Det); ("s6", Scheme.Det) ];
      Partition.leaf "d"
        [ ("s2", Scheme.Det); ("s3", Scheme.Det); ("s4", Scheme.Det);
          ("s5", Scheme.Det) ] ]
  in
  let q = Query.point ~select:[ "s1"; "s2"; "s3"; "s4"; "s5"; "s6" ] [] in
  (match Planner.plan rep q with
   | Ok p -> check_int "greedy falls into the 3-leaf trap" 3 (List.length p.Planner.leaves)
   | Error e -> Alcotest.fail e);
  let d = decision (cost_handle (Statistics.create ())) rep q in
  check_int "cost planner finds the 2-leaf cover" 2
    (List.length d.Planner.d_plan.Planner.leaves);
  let est = Option.get d.Planner.d_estimate in
  List.iter
    (fun (c : Planner.candidate) ->
      check_bool "chosen plan at most every rejected candidate" true
        (est <= c.Planner.cand_cost))
    d.Planner.d_rejected

let test_join_order_small_first () =
  (* Three mandatory leaves with skewed statistics: the chain's running
     width is the max of the inputs so far, so the 1000-row leaf must go
     last — every order starting with it pays the big join twice. *)
  let rep =
    [ Partition.leaf "big" [ ("x", Scheme.Det) ];
      Partition.leaf "m1" [ ("y", Scheme.Det) ];
      Partition.leaf "m2" [ ("z", Scheme.Det) ] ]
  in
  let stats = Statistics.create () in
  Statistics.ingest stats [ ls "big" 1000 []; ls "m1" 10 []; ls "m2" 10 [] ];
  let q = Query.point ~select:[ "x"; "y"; "z" ] [] in
  let d = decision (cost_handle stats) rep q in
  let leaves = d.Planner.d_plan.Planner.leaves in
  check_int "all three leaves required" 3 (List.length leaves);
  check Alcotest.string "the big leaf joins last" "big" (List.nth leaves 2);
  let est = Option.get d.Planner.d_estimate in
  List.iter
    (fun (c : Planner.candidate) ->
      check_bool "chosen order at most every rejected order" true
        (est <= c.Planner.cand_cost))
    d.Planner.d_rejected

let test_truncation_notes () =
  (* Covers: 8 relevant leaves exceed the subset bound — a feasible plan
     still exists (the wide leaf), and the decision says what it skipped. *)
  let attrs = List.init 7 (fun i -> Printf.sprintf "t%d" i) in
  let wide = Partition.leaf "wide" (List.map (fun a -> (a, Scheme.Det)) attrs) in
  let narrow = List.map (fun a -> Partition.leaf ("n-" ^ a) [ (a, Scheme.Det) ]) attrs in
  let d =
    decision
      (cost_handle (Statistics.create ()))
      (wide :: narrow)
      (Query.point ~select:attrs [])
  in
  check_bool "cover truncation reported" true
    (List.exists
       (function
         | Planner.Truncated_covers { bound = 6; relevant = 8 } -> true
         | _ -> false)
       d.Planner.d_notes);
  (* Orders: a mandatory 4-leaf cover has 24 orders, more than the
     default budget prices. *)
  let attrs4 = [ "u"; "v"; "w"; "x" ] in
  let rep4 = List.map (fun a -> Partition.leaf ("l-" ^ a) [ (a, Scheme.Det) ]) attrs4 in
  let d4 =
    decision (cost_handle (Statistics.create ())) rep4 (Query.point ~select:attrs4 [])
  in
  check_bool "order truncation reported" true
    (List.exists
       (function
         | Planner.Truncated_orders { cover_size = 4; _ } -> true
         | _ -> false)
       d4.Planner.d_notes);
  check_bool "notes render" true
    (List.for_all
       (fun n -> String.length (Planner.note_to_string n) > 0)
       (d.Planner.d_notes @ d4.Planner.d_notes))

(* --- server statistics + end-to-end ----------------------------------------- *)

let test_store_stats_server_visible () =
  let r = Helpers.example1_relation () in
  let owner =
    System.outsource ~name:"stats-test" r (Helpers.example1_policy ())
      ~graph:(Helpers.example1_graph ())
  in
  Fun.protect ~finally:(fun () -> System.release owner) @@ fun () ->
  let conn =
    Server_api.connect (module Backend_mem) (Backend_mem.of_store owner.System.enc)
  in
  Fun.protect ~finally:(fun () -> Server_api.close conn) @@ fun () ->
  let leaves = Server_api.store_stats conn in
  let rep = owner.System.plan.Snf_core.Normalizer.representation in
  check_bool "every reported leaf exists in the representation" true
    (List.for_all
       (fun (l : Wire.leaf_stats) ->
         List.exists
           (fun (pl : Partition.leaf) -> pl.Partition.label = l.Wire.s_label)
           rep)
       leaves);
  List.iter
    (fun (l : Wire.leaf_stats) ->
      check_int "row counts match the relation" (Relation.cardinality r) l.Wire.s_rows;
      List.iter
        (fun (a : Wire.attr_stats) ->
          check_bool "digest histogram entries are (16-hex, positive)" true
            (List.for_all
               (fun (digest, n) -> String.length digest = 16 && n > 0)
               a.Wire.a_classes);
          check_int "class sizes sum to the rows" l.Wire.s_rows
            (List.fold_left (fun acc (_, n) -> acc + n) 0 a.Wire.a_classes))
        l.Wire.s_attrs)
    leaves

let test_sharded_store_stats_match_mem () =
  (* The coordinator's per-shard merge must reproduce the single-store
     answer byte-for-byte: value classes span shards, so digests are
     summed and re-sorted. *)
  let r = Helpers.example1_relation () in
  let owner =
    System.outsource ~name:"stats-shard" r (Helpers.example1_policy ())
      ~graph:(Helpers.example1_graph ())
  in
  Fun.protect ~finally:(fun () -> System.release owner) @@ fun () ->
  let st =
    Backend_sharded.create
      ~connect:(fun _ -> Server_api.connect (module Backend_mem) (Backend_mem.empty ()))
      ~shards:3 ()
  in
  let sharded = System.with_backend owner (System.sharded st) in
  Fun.protect ~finally:(fun () -> System.release sharded) @@ fun () ->
  let mem_conn =
    Server_api.connect (module Backend_mem) (Backend_mem.of_store owner.System.enc)
  in
  Fun.protect ~finally:(fun () -> Server_api.close mem_conn) @@ fun () ->
  let sharded_conn = Backend_sharded.connect st in
  Fun.protect ~finally:(fun () -> Server_api.close sharded_conn) @@ fun () ->
  check_bool "sharded statistics identical to single-store" true
    (Server_api.store_stats sharded_conn = Server_api.store_stats mem_conn)

let test_cost_planner_end_to_end () =
  let r = Helpers.example1_relation () in
  let owner =
    System.outsource ~name:"cost-e2e" r (Helpers.example1_policy ())
      ~graph:(Helpers.example1_graph ())
  in
  Fun.protect ~finally:(fun () -> System.release owner) @@ fun () ->
  let planner = System.cost_planner owner in
  List.iter
    (fun q ->
      match (System.query owner q, System.query ~planner owner q) with
      | Ok (greedy_ans, _), Ok (cost_ans, trace) ->
        Helpers.check_same_bag "cost-planned answer = greedy answer" greedy_ans
          cost_ans;
        let d = trace.Executor.decision in
        check Alcotest.string "selector" "cost" d.Planner.d_selector;
        check_bool "estimate present" true (d.Planner.d_estimate <> None)
      | Error e, _ | _, Error e -> Alcotest.fail e)
    [ Query.point ~select:[ "State"; "Income" ] [ ("ZipCode", Value.Int 94016) ];
      Query.range ~select:[ "State" ] [ ("Income", Value.Int 70, Value.Int 120) ];
      Query.point ~select:[ "State"; "ZipCode"; "Income" ] [] ]

(* --- EXPLAIN rendering ------------------------------------------------------- *)

let test_render_plan () =
  let text =
    Explain.render_plan
      { Explain.pr_query = "SELECT a, c WHERE a = 1";
        pr_selector = "cost";
        pr_cache = `Miss;
        pr_leaves = [ "p0"; "p1" ];
        pr_joins = 1;
        pr_pred_homes = [ ("a = 1", "p0") ];
        pr_proj_homes = [ ("a", "p0"); ("c", "p1") ];
        pr_estimate = Some 0.00125;
        pr_enumerated = 4;
        pr_rejected = [ ([ "p1"; "p0" ], 0.002) ];
        pr_notes = [ "covers truncated: 8 relevant leaves, bound 6" ];
        pr_actual = [ ("result_rows", 2); ("comparisons", 54) ] }
  in
  List.iter
    (fun needle ->
      let found =
        let nl = String.length needle and tl = String.length text in
        let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
        go 0
      in
      check_bool (Printf.sprintf "EXPLAIN mentions %S" needle) true found)
    [ "EXPLAIN SELECT a, c"; "cost"; "cache miss"; "p0 |><| p1"; "predicate a = 1";
      "0.001250"; "rejected"; "covers truncated"; "result_rows"; "comparisons" ]

(* --- properties -------------------------------------------------------------- *)

let prop_cache_transparent =
  (* For random policies/graphs: a cost handle's second decision is a
     cache hit carrying bit-identical plan, estimate, rejected set and
     notes — and a fresh handle over the same pricing re-derives the
     same answer from scratch. A third call returns the second's very
     decision, and a same-shape query with another constant still gets
     its own, equal to a fresh handle's. *)
  Helpers.qtest ~count:60 "random reps: cached decision == fresh decision"
    Helpers.instance_gen (fun (names, policy, g) ->
      let rep = Strategy.non_repeating g policy in
      let q = Query.point ~select:names [ (List.hd names, Value.Int 0) ] in
      let stats = Statistics.create () in
      let project = function
        | Ok (d : Planner.decision) ->
          Ok (d.Planner.d_plan, d.Planner.d_estimate, d.Planner.d_rejected,
              d.Planner.d_notes)
        | Error e -> Error e
      in
      let h1 = cost_handle stats in
      let r1 = Planner.decide ~handle:h1 rep q in
      let r2 = Planner.decide ~handle:h1 rep q in
      let r3 = Planner.decide ~handle:(cost_handle stats) rep q in
      let r4 = Planner.decide ~handle:h1 rep q in
      let q' = Query.point ~select:names [ (List.hd names, Value.Int 1) ] in
      let r5 = Planner.decide ~handle:h1 rep q' in
      let r6 = Planner.decide ~handle:(cost_handle stats) rep q' in
      (match r2 with
       | Ok d -> d.Planner.d_cache = `Hit && d.Planner.d_enumerated = 0
       | Error _ -> true)
      && project r1 = project r2
      && project r1 = project r3
      && (match (r2, r4) with Ok d2, Ok d4 -> d2 == d4 | _ -> r2 = r4)
      && project r5 = project r6)

let suite =
  [ Alcotest.test_case "statistics versioning and drift" `Quick
      test_statistics_versioning;
    Alcotest.test_case "statistics lookups and selectivity" `Quick
      test_statistics_lookups;
    Alcotest.test_case "cache hit is bit-identical, counters exact" `Quick
      test_cache_hit_is_bit_identical;
    Alcotest.test_case "key-epoch bump forces re-planning" `Quick
      test_epoch_bump_replans;
    Alcotest.test_case "statistics drift forces re-planning" `Quick
      test_stats_drift_replans;
    Alcotest.test_case "parallel domains: memo local, answers identical" `Quick
      test_parallel_domains_memo;
    Alcotest.test_case "set-cover trap: cost beats greedy" `Quick
      test_set_cover_beats_greedy;
    Alcotest.test_case "join order: big leaf last" `Quick test_join_order_small_first;
    Alcotest.test_case "truncation notes" `Quick test_truncation_notes;
    Alcotest.test_case "store stats are server-visible facts" `Quick
      test_store_stats_server_visible;
    Alcotest.test_case "sharded store stats merge byte-identically" `Quick
      test_sharded_store_stats_match_mem;
    Alcotest.test_case "cost planner end to end: answers identical" `Quick
      test_cost_planner_end_to_end;
    Alcotest.test_case "EXPLAIN rendering" `Quick test_render_plan;
    prop_cache_transparent ]
