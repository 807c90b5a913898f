(* Batched execution: [Executor.run_batch] through [System.query_batch].

   The batch contract under test: answers bag-identical to one-at-a-time
   execution in every reconstruction mode and on both backends, positional
   results (planner errors stay in their slot), per-query traces that
   reconcile exactly with the global counter movement of the whole batch,
   one crypto memo that a repeated series reads whether it runs batched
   or alone, a batch of one that counts exactly as the single query, and
   counter totals independent of SNF_DOMAINS. *)

open Snf_relational
module Scheme = Snf_crypto.Scheme
module Metrics = Snf_obs.Metrics
open Snf_exec

let t name f = Alcotest.test_case name `Quick f

let with_domains domains f =
  let saved = Parallel.domain_count () in
  Parallel.set_domain_count domains;
  Fun.protect ~finally:(fun () -> Parallel.set_domain_count saved) f

(* The multi-leaf SNF shape from the obs suite: a ~ b, b ~ c forces
   a/b/c apart, so multi-attribute queries exercise the shared join. *)
let owner ?backend n =
  let r =
    Relation.create
      (Schema.of_attributes
         [ Attribute.int "a"; Attribute.int "b"; Attribute.int "c" ])
      (List.init n (fun i ->
           [| Value.Int (i mod 13); Value.Int (i * 17); Value.Int (i mod 7) |]))
  in
  let policy =
    Snf_core.Policy.create
      [ ("a", Scheme.Det); ("b", Scheme.Ndet); ("c", Scheme.Ope) ]
  in
  let g = Snf_deps.Dep_graph.create [ "a"; "b"; "c" ] in
  let g = Snf_deps.Dep_graph.declare_dependent g "a" "b" in
  let g = Snf_deps.Dep_graph.declare_dependent g "b" "c" in
  System.outsource ?backend ~name:"batch" ~graph:g r policy

let workload =
  [ Query.point ~select:[ "b" ] [ ("a", Value.Int 5) ];
    Query.point ~select:[ "b"; "c" ] [ ("a", Value.Int 3); ("c", Value.Int 2) ];
    Query.range ~select:[ "a"; "b" ] [ ("c", Value.Int 2, Value.Int 6) ];
    Query.point ~select:[ "a" ] [ ("c", Value.Int 1) ];
    Query.point ~select:[ "b" ] [ ("a", Value.Int 5) ];
    (* repeat *)
    Query.point ~select:[ "b"; "c" ] [ ("a", Value.Int 9); ("c", Value.Int 3) ] ]

(* Counter deltas without the timing-derived series, which vary run to
   run; everything else must repeat exactly. *)
let untimed =
  List.filter (fun (name, _) ->
      not (String.length name >= 5 && String.sub name 0 5 = "time."))

let ok_or_fail = function
  | Ok (ans, trace) -> (ans, trace)
  | Error e -> Alcotest.fail e

(* --- batched == sequential, all modes -------------------------------------- *)

let test_batch_matches_sequential () =
  let o = owner 80 in
  List.iter
    (fun mode ->
      let seq = List.map (fun q -> ok_or_fail (System.query ~mode o q)) workload in
      let bat = System.query_batch ~mode o workload in
      Alcotest.(check int) "positional results" (List.length workload)
        (List.length bat);
      List.iteri
        (fun i r ->
          let ans, _ = ok_or_fail r in
          let want, _ = List.nth seq i in
          Helpers.check_same_bag (Printf.sprintf "query %d answer" i) want ans)
        bat)
    [ `Sort_merge; `Oram; `Binning 4 ]

let test_batch_backend_parity () =
  let om = owner 40 in
  let od = owner ~backend:`Disk 40 in
  Fun.protect ~finally:(fun () -> System.release om; System.release od)
  @@ fun () ->
  let bm = System.query_batch om workload in
  let bd = System.query_batch od workload in
  List.iteri
    (fun i (rm, rd) ->
      let am, _ = ok_or_fail rm and ad, _ = ok_or_fail rd in
      Helpers.check_same_bag (Printf.sprintf "query %d mem vs disk" i) am ad)
    (List.combine bm bd)

(* --- positional planner errors ---------------------------------------------- *)

let test_batch_positional_errors () =
  let o = owner 30 in
  let bad = Query.point ~select:[ "zz" ] [ ("a", Value.Int 1) ] in
  let qs = [ List.nth workload 0; bad; List.nth workload 1 ] in
  match System.query_batch o qs with
  | [ Ok (a0, _); Error _; Ok (a2, _) ] ->
    let w0, _ = ok_or_fail (System.query o (List.nth workload 0)) in
    let w2, _ = ok_or_fail (System.query o (List.nth workload 1)) in
    Helpers.check_same_bag "slot 0 unaffected" w0 a0;
    Helpers.check_same_bag "slot 2 unaffected" w2 a2
  | rs ->
    Alcotest.fail
      (Printf.sprintf "expected [Ok; Error; Ok], got %d results (%s)"
         (List.length rs)
         (String.concat ","
            (List.map (function Ok _ -> "ok" | Error _ -> "err") rs)))

(* --- trace/counter reconciliation ------------------------------------------ *)

let test_batch_traces_reconcile () =
  let o = owner 100 in
  let before = Metrics.snapshot () in
  let results = System.query_batch o workload in
  let deltas = Metrics.counter_diff before (Metrics.snapshot ()) in
  let d name = Option.value (List.assoc_opt name deltas) ~default:0 in
  let traces = List.map (fun r -> snd (ok_or_fail r)) results in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 traces in
  List.iter
    (fun (name, want) -> Alcotest.(check int) name want (d name))
    [ ("exec.query.count", List.length traces);
      ("exec.query.scanned_cells", sum (fun t -> t.Executor.scanned_cells));
      ("exec.query.index_probes", sum (fun t -> t.Executor.index_probes));
      ("exec.query.comparisons", sum (fun t -> t.Executor.comparisons));
      ("exec.query.rows_processed", sum (fun t -> t.Executor.rows_processed));
      ("exec.query.result_rows", sum (fun t -> t.Executor.result_rows));
      ("exec.wire.requests", sum (fun t -> t.Executor.wire_requests));
      ("exec.wire.bytes_up", sum (fun t -> t.Executor.wire_bytes_up));
      ("exec.wire.bytes_down", sum (fun t -> t.Executor.wire_bytes_down));
      ("exec.batch.count", 1);
      ("exec.batch.queries", List.length workload) ]

(* --- the crypto memo ------------------------------------------------------------ *)

(* [owner]'s shape with a PHE column [s] beside [a], so a series that
   projects [s] decrypts Paillier cells. *)
let phe_owner n =
  let r =
    Relation.create
      (Schema.of_attributes
         [ Attribute.int "a"; Attribute.int "s"; Attribute.int "c" ])
      (List.init n (fun i ->
           [| Value.Int (i mod 13); Value.Int (i * 17); Value.Int (i mod 7) |]))
  in
  let policy =
    Snf_core.Policy.create
      [ ("a", Scheme.Det); ("s", Scheme.Phe); ("c", Scheme.Ope) ]
  in
  let g = Snf_deps.Dep_graph.create [ "a"; "s"; "c" ] in
  let g = Snf_deps.Dep_graph.declare_dependent g "a" "s" in
  let g = Snf_deps.Dep_graph.declare_dependent g "s" "c" in
  System.outsource ~name:"batch-phe" ~graph:g r policy

let phe_series =
  [ Query.point ~select:[ "s" ] [ ("a", Value.Int 5) ];
    Query.range ~select:[ "a"; "s" ] [ ("c", Value.Int 2, Value.Int 6) ];
    Query.point ~select:[ "s"; "c" ] [ ("c", Value.Int 1) ];
    Query.point ~select:[ "s" ] [ ("a", Value.Int 5) ] ]

(* Every query reads the client's one crypto memo, alone or in a batch:
   the first run of a series decrypts each stored PHE cell it reads at
   most once, and a repeat, batched or as lone queries, decrypts none and
   misses no memo entry. The memo does not depend on the key epoch, so
   it survives [bump_key_epoch]; answers never change. *)
let test_memo_spans_batches_and_lone_queries () =
  let o = phe_owner 60 in
  let counter name () = Metrics.value (Metrics.counter name) in
  let decrypts = counter "crypto.paillier.decrypt" in
  let misses = counter "exec.mapping_cache.misses" in
  let hits = counter "exec.mapping_cache.hits" in
  let stored_phe_cells =
    List.fold_left
      (fun acc (l : Enc_relation.enc_leaf) ->
        List.fold_left
          (fun acc (col : Enc_relation.enc_column) ->
            if col.Enc_relation.scheme = Scheme.Phe then acc + l.Enc_relation.row_count else acc)
          acc l.Enc_relation.columns)
      0 o.System.enc.Enc_relation.leaves
  in
  let answers rs = List.map (fun r -> fst (ok_or_fail r)) rs in
  let batch () = answers (System.query_batch o phe_series) in
  let alone () = answers (List.map (System.query o) phe_series) in
  let d0 = decrypts () in
  let first = batch () in
  let cold = decrypts () - d0 in
  Alcotest.(check bool) "the first run decrypts PHE cells" true (cold > 0);
  Alcotest.(check bool)
    (Printf.sprintf "the first run decrypts %d <= %d stored PHE cells" cold stored_phe_cells)
    true (cold <= stored_phe_cells);
  let repeat what run =
    let d = decrypts () and m = misses () and h = hits () in
    let got = run () in
    Alcotest.(check int) (what ^ ": no Paillier decrypt") d (decrypts ());
    Alcotest.(check int) (what ^ ": no memo miss") m (misses ());
    Alcotest.(check bool) (what ^ ": memo hits") true (hits () > h);
    List.iteri
      (fun i (want, ans) -> Helpers.check_same_bag (Printf.sprintf "%s, query %d" what i) want ans)
      (List.combine first got)
  in
  repeat "batched repeat" batch;
  repeat "lone repeat" alone;
  Enc_relation.bump_key_epoch o.System.client;
  repeat "batched after an epoch bump" batch;
  repeat "lone after an epoch bump" alone

(* A batch of one is the single query in everything it counts: from the
   same cache state, [query_batch [q]] moves exactly the counters
   [query q] moves, timing series aside. *)
let test_batch_of_one_counters () =
  let o = owner 60 in
  let deltas f =
    let before = Metrics.snapshot () in
    ignore (f ());
    untimed (Metrics.counter_diff before (Metrics.snapshot ()))
  in
  List.iter
    (fun mode ->
      List.iteri
        (fun i q ->
          ignore (ok_or_fail (System.query ~mode o q));
          let single = deltas (fun () -> System.query ~mode o q) in
          let batched = deltas (fun () -> System.query_batch ~mode o [ q ]) in
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "query %d: batch of one moves the single query's counters" i)
            single batched)
        workload)
    [ `Sort_merge; `Oram; `Binning 4 ]

(* --- SNF_DOMAINS determinism ------------------------------------------------- *)

let prop_batch_domain_independent =
  Helpers.qtest ~count:5 "run_batch counters independent of SNF_DOMAINS"
    QCheck2.Gen.(int_range 40 90)
    (fun n ->
      let run d =
        with_domains d (fun () ->
            let o = owner n in
            let before = Metrics.snapshot () in
            let results = System.query_batch o workload in
            let deltas = Metrics.counter_diff before (Metrics.snapshot ()) in
            let bags =
              List.map
                (function Ok (ans, _) -> Helpers.bag ans | Error e -> [ e ])
                results
            in
            (bags, untimed deltas))
      in
      let b1, d1 = run 1 and b4, d4 = run 4 in
      b1 = b4 && d1 = d4)

(* --- shared fetch windows and the equality index ---------------------------- *)

(* Index-served members that share a leaf and an attribute list share
   one fetch window, which then holds rows of both predicates. Each
   member re-verifies only its own rows, so members that disagree on the
   indexed attribute all answer as the oracle; a check of the whole
   window would call the other member's rows stale. A poisoned index
   entry is still caught, on the member it misleads. *)
let test_index_verifies_own_rows () =
  let o = owner 80 in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let a v = ("a", Value.Int v) in
  let qs =
    [ Query.point ~select:[ "a" ] [ a 1 ];
      Query.point ~select:[ "a" ] [ a 2 ];
      Query.point ~select:[ "b" ] [ a 1 ];
      Query.point ~select:[ "b" ] [ a 2 ] ]
  in
  let fetch_tag = Wire.request_tag (Wire.Fetch_rows { leaf = ""; attrs = []; slots = [||] }) in
  let results, trace =
    System.record_wire_trace (fun () -> System.query_batch ~use_index:true o qs)
  in
  List.iteri
    (fun i (q, r) ->
      let ans, tr = ok_or_fail r in
      Alcotest.(check bool) (Printf.sprintf "query %d: index-served" i) true
        (tr.Executor.index_probes > 0);
      Helpers.check_same_bag (Printf.sprintf "query %d: oracle" i) (System.reference o q) ans)
    (List.combine qs results);
  Alcotest.(check int) "one fetch per leaf and attribute list" 2
    (List.length
       (List.filter
          (fun (e : Snf_obs.Wiretrace.event) ->
            e.dir = Snf_obs.Wiretrace.Up && e.tag = fetch_tag)
          trace.Snf_obs.Wiretrace.events));
  let leaf =
    match results with
    | Ok (_, tr) :: _ -> List.hd tr.Executor.plan.Planner.leaves
    | _ -> Alcotest.fail "query 0 failed"
  in
  let key v =
    match
      Enc_relation.eq_token o.System.client ~leaf ~attr:"a" ~scheme:Scheme.Det (Value.Int v)
    with
    | Some tok -> Option.get (Enc_relation.index_key_of_token tok)
    | None -> Alcotest.fail "no token for a DET column"
  in
  Alcotest.(check bool) "index poisoned" true
    (Snf_check.Fault.poison_index o.System.enc ~leaf ~attr:"a" ~key_a:(key 1) ~key_b:(key 2));
  match
    System.query_batch ~use_index:true o [ Query.point ~select:[ "a" ] [ a 1 ]; List.nth qs 3 ]
  with
  | exception Integrity.Corruption c ->
    Alcotest.(check string) "stale entry detected" "index" c.Integrity.where
  | _ -> Alcotest.fail "a poisoned index entry went undetected in a shared window"

let suite =
  [ t "batched equals sequential (all modes)" test_batch_matches_sequential;
    t "batched equals across backends" test_batch_backend_parity;
    t "planner errors stay positional" test_batch_positional_errors;
    t "summed traces reconcile with counter deltas" test_batch_traces_reconcile;
    t "one crypto memo: repeats decrypt no PHE cell, batched or alone"
      test_memo_spans_batches_and_lone_queries;
    t "a batch of one moves the single query's counters" test_batch_of_one_counters;
    prop_batch_domain_independent;
    t "index-served members sharing a window verify their own rows"
      test_index_verifies_own_rows ]
