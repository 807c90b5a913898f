(* Snf_obs: span tracing, metrics registry, and trace export.

   Metrics are process-global and other suites bump them, so every check
   here works on deltas of counters with test-private names. Span tests
   drive the tracer with an injected deterministic clock. *)

open Snf_obs
open Snf_relational
module Scheme = Snf_crypto.Scheme

let t name f = Alcotest.test_case name `Quick f

let with_domains domains f =
  let saved = Snf_exec.Parallel.domain_count () in
  Snf_exec.Parallel.set_domain_count domains;
  Fun.protect ~finally:(fun () -> Snf_exec.Parallel.set_domain_count saved) f

(* A clock ticking one second per read, for exactly predictable spans. *)
let with_fake_clock f =
  let ticks = ref 0.0 in
  Clock.set (fun () -> ticks := !ticks +. 1.0; !ticks);
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled false;
      Span.reset ();
      Clock.use_real ())
    f

(* --- metrics registry ----------------------------------------------------- *)

let test_registration_idempotent () =
  let a = Metrics.counter "test.obs.idem" in
  let b = Metrics.counter "test.obs.idem" in
  let v0 = Metrics.value a in
  Metrics.incr a;
  Metrics.add b 4;
  Alcotest.(check int) "both handles hit one counter" (v0 + 5) (Metrics.value b);
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Snf_obs.Metrics: \"test.obs.idem\" already registered as a counter")
    (fun () -> ignore (Metrics.gauge "test.obs.idem"))

let test_gauges () =
  let g = Metrics.gauge "test.obs.gauge" in
  Metrics.set_gauge g 2.5;
  Alcotest.(check (option (float 0.0))) "last write wins" (Some 2.5)
    (Metrics.gauge_value g);
  Metrics.set_gauge g 7.0;
  Alcotest.(check (option (float 0.0))) "overwritten" (Some 7.0) (Metrics.gauge_value g)

let hist_of name =
  List.assoc_opt name (Metrics.snapshot ()).Metrics.histograms

let test_histogram_buckets () =
  let h = Metrics.histogram "test.obs.hist" in
  let before =
    Option.value (hist_of "test.obs.hist")
      ~default:{ Metrics.count = 0; sum = 0; buckets = [] }
  in
  (* bucket index = bit length: 1 -> 1, 5 -> 3, 1024 -> 11, 0 -> 0 *)
  List.iter (Metrics.observe h) [ 1; 5; 5; 1024; 0 ];
  let after =
    match hist_of "test.obs.hist" with
    | Some x -> x
    | None -> Alcotest.fail "histogram missing from snapshot"
  in
  Alcotest.(check int) "count" (before.Metrics.count + 5) after.Metrics.count;
  Alcotest.(check int) "sum" (before.Metrics.sum + 1035) after.Metrics.sum;
  let bucket b =
    Option.value (List.assoc_opt b after.Metrics.buckets) ~default:0
    - Option.value (List.assoc_opt b before.Metrics.buckets) ~default:0
  in
  Alcotest.(check int) "bucket 0 (non-positive)" 1 (bucket 0);
  Alcotest.(check int) "bucket 1" 1 (bucket 1);
  Alcotest.(check int) "bucket 3" 2 (bucket 3);
  Alcotest.(check int) "bucket 11" 1 (bucket 11)

let test_counter_diff () =
  let c = Metrics.counter "test.obs.diff" in
  let before = Metrics.snapshot () in
  Metrics.add c 3;
  let moved = Metrics.counter_diff before (Metrics.snapshot ()) in
  Alcotest.(check (option int)) "moved by 3" (Some 3)
    (List.assoc_opt "test.obs.diff" moved);
  Alcotest.(check (option int)) "untouched counters absent" None
    (List.assoc_opt "test.obs.idem" moved)

(* --- per-domain shards merge deterministically ----------------------------- *)

let prop_counters_domain_independent =
  Helpers.qtest ~count:30 "counter/histogram totals independent of SNF_DOMAINS"
    QCheck2.Gen.(list_size (int_range 1 150) (int_bound 60))
    (fun xs ->
      let c = Metrics.counter "test.obs.par_counter" in
      let h = Metrics.histogram "test.obs.par_hist" in
      let arr = Array.of_list xs in
      let run d =
        with_domains d (fun () ->
            let c0 = Metrics.value c in
            let h0 =
              Option.value (hist_of "test.obs.par_hist")
                ~default:{ Metrics.count = 0; sum = 0; buckets = [] }
            in
            ignore
              (Snf_exec.Parallel.tabulate ~domains:d (Array.length arr) (fun i ->
                   Metrics.add c arr.(i);
                   Metrics.observe h arr.(i);
                   i));
            let h1 =
              match hist_of "test.obs.par_hist" with
              | Some x -> x
              | None -> { Metrics.count = 0; sum = 0; buckets = [] }
            in
            ( Metrics.value c - c0,
              h1.Metrics.count - h0.Metrics.count,
              h1.Metrics.sum - h0.Metrics.sum ))
      in
      let expected = (List.fold_left ( + ) 0 xs, List.length xs, List.fold_left ( + ) 0 xs) in
      run 1 = expected && run 4 = expected)

(* --- spans ----------------------------------------------------------------- *)

let test_span_disabled_is_transparent () =
  Alcotest.(check bool) "disabled by default" false (Span.enabled ());
  let ran = ref false in
  let r = Span.with_ ~name:"not.recorded" (fun () -> ran := true; 41 + 1) in
  Alcotest.(check int) "returns f ()" 42 r;
  Alcotest.(check bool) "body ran" true !ran

let test_span_nesting_ordering () =
  with_fake_clock (fun () ->
      Span.reset ();             (* epoch = 1 s *)
      Span.set_enabled true;
      let r =
        Span.with_ ~name:"outer" ~attrs:[ ("k", "v") ] (fun () ->
            (* start = 2 s *)
            let a = Span.with_ ~name:"inner1" (fun () -> 10) in
            (* inner1: start 3, end 4 *)
            let b = Span.with_ ~name:"inner2" (fun () -> 20) in
            (* inner2: start 5, end 6 *)
            a + b)
        (* outer end = 7 s *)
      in
      Alcotest.(check int) "value through nested spans" 30 r;
      match Span.events () with
      | [ outer; inner1; inner2 ] ->
        Alcotest.(check string) "outer first (earliest start)" "outer" outer.Span.name;
        Alcotest.(check string) "then inner1" "inner1" inner1.Span.name;
        Alcotest.(check string) "then inner2" "inner2" inner2.Span.name;
        Alcotest.(check (float 1e-6)) "outer ts" 1e6 outer.Span.ts_us;
        Alcotest.(check (float 1e-6)) "outer dur" 5e6 outer.Span.dur_us;
        Alcotest.(check (float 1e-6)) "inner1 ts" 2e6 inner1.Span.ts_us;
        Alcotest.(check (float 1e-6)) "inner1 dur" 1e6 inner1.Span.dur_us;
        Alcotest.(check (float 1e-6)) "inner2 ts" 4e6 inner2.Span.ts_us;
        Alcotest.(check int) "outer depth" 0 outer.Span.depth;
        Alcotest.(check int) "inner depths" 1 inner1.Span.depth;
        Alcotest.(check int) "inner2 depth" 1 inner2.Span.depth;
        Alcotest.(check bool) "seq orders starts" true
          (outer.Span.seq < inner1.Span.seq && inner1.Span.seq < inner2.Span.seq);
        Alcotest.(check (list (pair string string))) "attrs kept" [ ("k", "v") ]
          outer.Span.attrs
      | evs -> Alcotest.fail (Printf.sprintf "expected 3 spans, got %d" (List.length evs)))

let test_span_records_on_exception () =
  with_fake_clock (fun () ->
      Span.reset ();
      Span.set_enabled true;
      (try Span.with_ ~name:"raises" (fun () -> failwith "boom") with Failure _ -> ());
      match Span.events () with
      | [ e ] ->
        Alcotest.(check string) "span recorded" "raises" e.Span.name;
        Alcotest.(check bool) "duration measured" true (e.Span.dur_us > 0.0)
      | evs -> Alcotest.fail (Printf.sprintf "expected 1 span, got %d" (List.length evs)))

(* --- Chrome trace export round-trip --------------------------------------- *)

let test_chrome_trace_roundtrip () =
  with_fake_clock (fun () ->
      Span.reset ();
      Span.set_enabled true;
      Span.with_ ~name:"root" ~attrs:[ ("mode", "test") ] (fun () ->
          Span.with_ ~name:"child_a" (fun () ->
              Span.with_ ~name:"grandchild" (fun () -> ()));
          Span.with_ ~name:"child_b" (fun () -> ()));
      let events = Span.events () in
      let c = Metrics.counter "test.obs.export" in
      Metrics.add c 7;
      let snap = Metrics.snapshot () in
      let doc = Export.chrome_trace ~metrics:snap events in
      (* serialize, parse back, recover the spans *)
      let text = Json.to_string doc in
      let parsed =
        match Json.of_string text with
        | Ok j -> j
        | Error e -> Alcotest.fail ("parse: " ^ e)
      in
      Alcotest.(check bool) "emit/parse fixpoint" true (Json.equal doc parsed);
      let back =
        match Export.spans_of_chrome_trace parsed with
        | Ok evs -> evs
        | Error e -> Alcotest.fail ("spans_of_chrome_trace: " ^ e)
      in
      Alcotest.(check int) "span count survives" (List.length events) (List.length back);
      List.iter2
        (fun (orig : Span.event) (rt : Span.event) ->
          Alcotest.(check string) "name" orig.Span.name rt.Span.name;
          Alcotest.(check (float 1e-6)) "ts" orig.Span.ts_us rt.Span.ts_us;
          Alcotest.(check (float 1e-6)) "dur" orig.Span.dur_us rt.Span.dur_us;
          Alcotest.(check int) "depth recovered from containment" orig.Span.depth
            rt.Span.depth;
          Alcotest.(check int) "domain" orig.Span.domain rt.Span.domain;
          Alcotest.(check (list (pair string string))) "attrs" orig.Span.attrs
            rt.Span.attrs)
        events back;
      let counters = Export.counters_of_chrome_trace parsed in
      Alcotest.(check (option int)) "embedded metrics readable"
        (List.assoc_opt "test.obs.export" snap.Metrics.counters)
        (List.assoc_opt "test.obs.export" counters))

let test_metrics_json_shape () =
  let c = Metrics.counter "test.obs.shape" in
  Metrics.incr c;
  let j = Export.metrics_json (Metrics.snapshot ()) in
  match Option.bind (Json.member "counters" j) (Json.member "test.obs.shape") with
  | Some v ->
    Alcotest.(check bool) "counter value present" true (Json.to_int_opt v <> None)
  | None -> Alcotest.fail "counters object missing registered counter"

(* --- executor integration -------------------------------------------------- *)

let exec_owner n =
  let r =
    Relation.create
      (Schema.of_attributes
         [ Attribute.int "a"; Attribute.int "b"; Attribute.int "c" ])
      (List.init n (fun i ->
           [| Value.Int (i mod 13); Value.Int (i * 17); Value.Int (i mod 7) |]))
  in
  let policy =
    Snf_core.Policy.create
      [ ("a", Scheme.Det); ("b", Scheme.Ndet); ("c", Scheme.Det) ]
  in
  let g = Snf_deps.Dep_graph.create [ "a"; "b"; "c" ] in
  let g = Snf_deps.Dep_graph.declare_dependent g "a" "b" in
  let g = Snf_deps.Dep_graph.declare_dependent g "b" "c" in
  Snf_exec.System.outsource ~name:"obs" ~graph:g r policy

let test_executor_counters_match_trace () =
  let owner = exec_owner 150 in
  let q =
    Snf_exec.Query.point ~select:[ "b" ] [ ("a", Value.Int 5); ("c", Value.Int 2) ]
  in
  let before = Metrics.snapshot () in
  let trace =
    match Snf_exec.System.query owner q with
    | Ok (_, tr) -> tr
    | Error e -> Alcotest.fail e
  in
  let moved = Metrics.counter_diff before (Metrics.snapshot ()) in
  let delta name = Option.value (List.assoc_opt name moved) ~default:0 in
  Alcotest.(check int) "scanned_cells" trace.Snf_exec.Executor.scanned_cells
    (delta "exec.query.scanned_cells");
  Alcotest.(check int) "comparisons" trace.Snf_exec.Executor.comparisons
    (delta "exec.query.comparisons");
  Alcotest.(check int) "rows_processed" trace.Snf_exec.Executor.rows_processed
    (delta "exec.query.rows_processed");
  Alcotest.(check int) "result_rows" trace.Snf_exec.Executor.result_rows
    (delta "exec.query.result_rows");
  Alcotest.(check int) "one query" 1 (delta "exec.query.count");
  Alcotest.(check int) "bitonic comparators equal join comparisons"
    trace.Snf_exec.Executor.comparisons
    (delta "exec.bitonic.comparators")

let test_executor_phase_spans () =
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled false;
      Span.reset ())
    (fun () ->
      Span.reset ();
      Span.set_enabled true;
      let owner = exec_owner 120 in
      let q = Snf_exec.Query.point ~select:[ "b" ] [ ("a", Value.Int 3) ] in
      (match Snf_exec.System.query owner q with
       | Ok _ -> ()
       | Error e -> Alcotest.fail e);
      let events = Span.events () in
      let named name = List.filter (fun e -> e.Span.name = name) events in
      let root =
        match named "query" with
        | [ e ] -> e
        | l -> Alcotest.fail (Printf.sprintf "expected 1 query span, got %d" (List.length l))
      in
      List.iter
        (fun phase ->
          match named phase with
          | [] -> Alcotest.fail (phase ^ " span missing")
          | es ->
            List.iter
              (fun (e : Span.event) ->
                if e.Span.domain = root.Span.domain then
                  Alcotest.(check int) (phase ^ " nests under query")
                    (root.Span.depth + 1) e.Span.depth)
              es)
        [ "query.mint_tokens"; "query.server_filter"; "query.reconstruct";
          "query.client_decrypt" ];
      Alcotest.(check bool) "encryption spans recorded" true
        (named "enc.encrypt" <> [] && named "enc.leaf" <> []))

(* --- ledger report ---------------------------------------------------------- *)

let test_ledger_report () =
  let owner = exec_owner 100 in
  let ledger = Snf_exec.Ledger.create owner in
  List.iter
    (fun q ->
      match Snf_exec.Ledger.query ~use_index:true ledger q with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    [ Snf_exec.Query.point ~select:[ "b" ] [ ("a", Value.Int 5) ];
      Snf_exec.Query.point ~select:[ "b" ] [ ("a", Value.Int 5) ];
      Snf_exec.Query.point ~select:[ "b"; "c" ] [ ("a", Value.Int 7); ("c", Value.Int 1) ] ];
  List.iter
    (function Ok _ -> () | Error e -> Alcotest.fail e)
    (Snf_exec.Ledger.query_batch ledger
       [ Snf_exec.Query.point ~select:[ "b" ] [ ("a", Value.Int 2) ];
         Snf_exec.Query.point ~select:[ "c" ] [ ("a", Value.Int 4) ] ]);
  let report = Snf_exec.Ledger.report ledger in
  Alcotest.(check int) "five queries recorded" 5 report.Snf_exec.Ledger.queries;
  Alcotest.(check int) "per-query metric snapshots" 5
    (List.length report.Snf_exec.Ledger.query_metrics);
  Alcotest.(check int) "one batch recorded" 1 report.Snf_exec.Ledger.batches;
  Alcotest.(check int) "batch carried two queries" 2
    report.Snf_exec.Ledger.batch_queries;
  (* Batch members after the first carry [] by convention (the whole
     batch's delta sits on the first entry), so only demand that at most
     one entry is empty. *)
  Alcotest.(check bool) "queries moved counters" true
    (List.length
       (List.filter (fun qm -> qm = []) report.Snf_exec.Ledger.query_metrics)
     <= 1);
  (* A form is built on its column's first read: the indexed queries
     probe columns a and c, and each of their four point predicates
     reads a form. *)
  Alcotest.(check int) "each probed column's form built once" 2
    report.Snf_exec.Ledger.index_misses;
  Alcotest.(check int) "every probe reads a form" 4 report.Snf_exec.Ledger.index_hits

let suite =
  [ t "registration idempotent by name" test_registration_idempotent;
    t "gauges last-write-wins" test_gauges;
    t "histogram log2 buckets" test_histogram_buckets;
    t "counter_diff reports movers" test_counter_diff;
    prop_counters_domain_independent;
    t "disabled tracer is transparent" test_span_disabled_is_transparent;
    t "span nesting and ordering" test_span_nesting_ordering;
    t "span records on exception" test_span_records_on_exception;
    t "chrome trace round-trip" test_chrome_trace_roundtrip;
    t "metrics json shape" test_metrics_json_shape;
    t "executor counters match trace" test_executor_counters_match_trace;
    t "executor phase spans" test_executor_phase_spans;
    t "ledger report records queries" test_ledger_report ]
