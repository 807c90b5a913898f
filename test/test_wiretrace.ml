(* SNFT wire-trace recorder ([Snf_obs.Wiretrace]) and leakage profiler
   ([Snf_obs.Leakage]).

   The recorder contract under test: the JSON codec is a lossless
   inverse over every SNFM message kind and refuses malformed documents,
   query marks cut the trace back into exactly the executed queries, the
   decoded views expose the server's knowledge (tokens, masks, fetches)
   and nothing plaintext, the profile reconciles with the workload, and
   — the determinism pillar — a seeded workload replayed under
   SNF_DOMAINS=1 and SNF_DOMAINS=4 produces equal traces once the clock
   is pinned. *)

open Snf_relational
module Scheme = Snf_crypto.Scheme
module Metrics = Snf_obs.Metrics
module Wiretrace = Snf_obs.Wiretrace
module Leakage = Snf_obs.Leakage
open Snf_exec

let t name f = Alcotest.test_case name `Quick f

let with_domains domains f =
  let saved = Parallel.domain_count () in
  Parallel.set_domain_count domains;
  Fun.protect ~finally:(fun () -> Parallel.set_domain_count saved) f

(* One tick per read: timestamps become the sequence 1.0, 2.0, ... so two
   runs that issue the same rounds stamp them identically. *)
let with_fake_clock f =
  let ticks = ref 0.0 in
  Snf_obs.Clock.set (fun () ->
      ticks := !ticks +. 1.0;
      !ticks);
  Fun.protect ~finally:Snf_obs.Clock.use_real f

(* The multi-leaf SNF shape from the obs/batch suites: a ~ b, b ~ c
   forces a/b/c into separate leaves, so queries mix multi-leaf filters
   with joins and fetches. *)
let owner n =
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
  System.outsource ~name:"wiretrace" ~graph:g r policy

(* A deterministic workload drawn from a seed: point lookups (with a
   guaranteed repeat for the token-repetition rows of the profile), a
   conjunction, and a range. *)
let workload seed =
  let st = Random.State.make [| seed |] in
  let pick bound = Random.State.int st bound in
  let repeated = Query.point ~select:[ "b" ] [ ("a", Value.Int (pick 13)) ] in
  [ repeated;
    Query.point ~select:[ "b"; "c" ]
      [ ("a", Value.Int (pick 13)); ("c", Value.Int (pick 7)) ];
    repeated;
    Query.range ~select:[ "a" ]
      (let lo = pick 5 in
       [ ("c", Value.Int lo, Value.Int (lo + 2)) ]) ]

let run_all o qs =
  List.iter
    (fun q ->
      match System.query o q with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    qs

let record o qs = snd (System.record_wire_trace (fun () -> run_all o qs))

(* --- codecs ---------------------------------------------------------------- *)

(* A and E share leaf p0, so the homomorphic aggregates have a group
   column next to the PHE measure; B and C live alone, so a query on A
   that selects them joins and fetches. *)
let every_kind_owner () =
  let attrs = [ "a"; "b"; "c"; "e" ] in
  let r =
    Relation.create
      (Schema.of_attributes (List.map Attribute.int attrs))
      (List.init 48 (fun i ->
           [| Value.Int (i mod 6); Value.Int (i mod 5); Value.Int (i mod 9); Value.Int i |]))
  in
  let policy =
    Snf_core.Policy.create
      [ ("a", Scheme.Det); ("b", Scheme.Det); ("c", Scheme.Ope); ("e", Scheme.Phe) ]
  in
  System.outsource_prepared ~name:"wiretrace-kinds"
    ~graph:(Snf_deps.Dep_graph.create attrs)
    ~representation:
      [ Snf_core.Partition.leaf "p0" [ ("a", Scheme.Det); ("e", Scheme.Phe) ];
        Snf_core.Partition.leaf "p1" [ ("b", Scheme.Det) ];
        Snf_core.Partition.leaf "p2" [ ("c", Scheme.Ope) ] ]
    r policy

let pt select where = Query.point ~select (List.map (fun (a, v) -> (a, Value.Int v)) where)

let probe = Wire.Index_probe { leaf = ""; attr = ""; key = None }
let probe_tag = Wire.request_tag probe

(* One of each SNFM request, as [Wire.request_tag] tells them apart. *)
let every_request =
  [ Wire.Describe;
    Wire.Install "";
    probe;
    Wire.Fetch_rows { leaf = ""; attrs = []; slots = [||] };
    Wire.Fetch_tids { leaf = "" };
    Wire.Phe_sum { leaf = ""; attr = "" };
    Wire.Group_sum { leaf = ""; group_by = ""; sum = "" };
    Wire.Q_batch { queries = [] };
    Wire.Q_store_stats ]

(* A trace that holds every request kind: an Install and index probes
   (keyed, unkeyed, and one on an unknown leaf, whose answer raises) on
   a second connection, then a lone indexed query, an ORAM query, a
   batch of two with its marks, both aggregates and a statistics
   refresh on the owner's. *)
let every_kind_trace () =
  let o = every_kind_owner () in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let ok = function Ok _ -> () | Error e -> Alcotest.fail e in
  snd
    (System.record_wire_trace (fun () ->
         let conn = Server_api.connect (module Backend_mem) (Backend_mem.empty ()) in
         Fun.protect ~finally:(fun () -> Server_api.close conn) (fun () ->
             Server_api.install conn (Wire.to_string o.System.enc);
             ignore (Server_api.index_probe conn ~leaf:"p0" ~attr:"a" ~key:None);
             match Server_api.index_probe conn ~leaf:"missing" ~attr:"a" ~key:None with
             | _ -> Alcotest.fail "a probe on an unknown leaf was answered"
             | exception Not_found -> ());
         ok (System.query ~use_index:true o (pt [ "b" ] [ ("a", 1) ]));
         ok (System.query ~mode:`Oram o (pt [ "b"; "c" ] [ ("a", 2) ]));
         List.iter ok
           (System.query_batch o
              [ pt [ "b" ] [ ("a", 3) ];
                Query.range ~select:[ "a" ] [ ("c", Value.Int 2, Value.Int 5) ] ]);
         ignore (System.sum o ~leaf:"p0" ~attr:"e");
         ignore (System.group_sum o ~leaf:"p0" ~group_by:"a" ~sum:"e");
         ignore (System.refresh_stats o)))

let test_json_roundtrip () =
  let trace = every_kind_trace () in
  let events = trace.Wiretrace.events in
  let ups = List.filter (fun (e : Wiretrace.event) -> e.dir = Wiretrace.Up) events in
  List.iter
    (fun req ->
      let tag = Wire.request_tag req in
      Alcotest.(check bool) (Printf.sprintf "request tag %d recorded" tag) true
        (List.exists (fun (e : Wiretrace.event) -> e.tag = tag) ups))
    every_request;
  let probe_keys =
    List.filter_map
      (fun (e : Wiretrace.event) ->
        if e.tag = probe_tag then List.assoc_opt "key" e.summary
        else None)
      ups
  in
  Alcotest.(check bool) "an unkeyed probe" true (List.mem "none" probe_keys);
  Alcotest.(check bool) "a keyed probe" true (List.exists (( <> ) "none") probe_keys);
  Alcotest.(check bool) "a batch's marks" true
    (List.exists (fun (e : Wiretrace.event) -> e.phase = "batch.begin") events);
  Alcotest.(check bool) "an answer that raised" true
    (List.exists
       (fun (e : Wiretrace.event) ->
         e.dir = Wiretrace.Down && List.assoc_opt "error" e.summary = Some "not_found")
       events);
  let agrees what back =
    Alcotest.(check bool) (what ^ ": equal trace") true (Wiretrace.equal trace back);
    Alcotest.(check bool) (what ^ ": same query views") true
      (Leakage.queries back = Leakage.queries trace);
    Alcotest.(check bool) (what ^ ": same tokens") true
      (Leakage.tokens back = Leakage.tokens trace);
    Alcotest.(check bool) (what ^ ": same profile") true
      (Leakage.profile back = Leakage.profile trace)
  in
  (match Wiretrace.of_json (Wiretrace.to_json trace) with
   | Ok back -> agrees "in-memory json" back
   | Error e -> Alcotest.fail ("of_json: " ^ e));
  let path = Filename.temp_file "snft" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Wiretrace.write_json ~path trace;
  match Wiretrace.read_json ~path with
  | Ok back -> agrees "file json" back
  | Error e -> Alcotest.fail ("read_json: " ^ e)

(* A one-event document, valid as written; each refusal case breaks one
   thing in it. *)
let test_json_refusals () =
  let module J = Snf_obs.Json in
  let event =
    [ ("seq", J.Int 0); ("round", J.Int 0); ("dir", J.String "up");
      ("phase", J.String "admin"); ("tag", J.Int 0); ("bytes", J.Int 5);
      ("ts_us", J.Float 1.5); ("summary", J.List [ J.List [ J.String "k"; J.String "v" ] ]) ]
  in
  let doc ?(version = 1) fields =
    J.Obj [ ("snft", J.Int version); ("events", J.List [ J.Obj fields ]) ]
  in
  let set k v = List.map (fun (k', v') -> (k', if k' = k then v else v')) event in
  (match Wiretrace.of_json (doc event) with
   | Ok t -> Alcotest.(check int) "the valid document's event" 1 (List.length t.Wiretrace.events)
   | Error e -> Alcotest.fail ("valid document refused: " ^ e));
  List.iter
    (fun (what, j) ->
      match Wiretrace.of_json j with
      | Ok _ -> Alcotest.failf "%s accepted" what
      | Error _ -> ())
    [ ("an unknown dir", doc (set "dir" (J.String "sideways")));
      ("a missing field", doc (List.remove_assoc "phase" event));
      ("a summary entry that is not a pair", doc (set "summary" (J.List [ J.List [ J.String "k" ] ])));
      ("an unknown version", doc ~version:999 event) ]

(* --- query windows --------------------------------------------------------- *)

let test_query_windows () =
  let o = owner 80 in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let qs = workload 3 in
  let views = Leakage.queries (record o qs) in
  Alcotest.(check int) "one view per query" (List.length qs) (List.length views);
  List.iteri
    (fun i v ->
      Alcotest.(check int) "indexed in trace order" i v.Leakage.q_index;
      Alcotest.(check bool) "tokens observed" true (v.Leakage.q_tokens <> []);
      Alcotest.(check bool) "masks observed" true (v.Leakage.q_masks <> []);
      Alcotest.(check bool) "leaves sorted" true
        (List.sort compare v.Leakage.q_leaves = v.Leakage.q_leaves);
      Alcotest.(check bool) "not in a batch" false v.Leakage.q_in_batch)
    views;
  (* Queries 0 and 2 are the same DET point lookup: the server sees the
     same token identity twice — and never a plaintext constant. *)
  let key_of v =
    match v.Leakage.q_tokens with
    | tok :: _ -> (tok.Leakage.t_scheme, tok.Leakage.t_key)
    | [] -> Alcotest.fail "no token"
  in
  let v0 = List.nth views 0 and v2 = List.nth views 2 in
  Alcotest.(check bool) "repeat yields identical token identity" true
    (key_of v0 = key_of v2);
  Alcotest.(check string) "det scheme visible" "det" (fst (key_of v0))

let test_batch_attribution () =
  let o = owner 80 in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let qs = workload 5 in
  let trace =
    snd
      (System.record_wire_trace (fun () ->
           List.iter
             (function Ok _ -> () | Error e -> Alcotest.fail e)
             (System.query_batch o qs)))
  in
  let views = Leakage.queries trace in
  Alcotest.(check int) "one view per batched query" (List.length qs)
    (List.length views);
  List.iter
    (fun v ->
      Alcotest.(check bool) "flagged as batched" true v.Leakage.q_in_batch;
      Alcotest.(check bool) "batch rounds re-attributed" true
        (v.Leakage.q_tokens <> []))
    views

(* A lone query's filters cross as a Q_batch of one inside its own
   window: the view gets one mask per planned leaf, in plan order, and
   the tokens those masks were filtered by. A batch of one, and any
   number of lone queries, announce no batch; only a batch of two or
   more executable queries counts in [p_batches] / [exec.leak.batches]. *)
let test_lone_query_attribution () =
  let o = owner 80 in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let q =
    Query.point ~select:[ "b"; "c" ] [ ("a", Value.Int 3); ("c", Value.Int 2) ]
  in
  let outcome, trace = System.record_wire_trace (fun () -> System.query o q) in
  let planned =
    match outcome with
    | Ok (_, tr) -> tr.Executor.plan.Planner.leaves
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "the query spans several leaves" true (List.length planned > 1);
  (match Leakage.queries trace with
   | [ v ] ->
     Alcotest.(check (list string)) "one mask per planned leaf, in plan order" planned
       (List.map (fun m -> m.Leakage.m_leaf) v.Leakage.q_masks);
     let attrs ts = List.sort compare (List.map (fun t -> t.Leakage.t_attr) ts) in
     Alcotest.(check (list string)) "the predicates' tokens" [ "a"; "c" ]
       (attrs v.Leakage.q_tokens);
     Alcotest.(check (list string)) "tokens are the masks' tokens" (attrs v.Leakage.q_tokens)
       (attrs
          (List.concat_map
             (fun m ->
               List.filter_map
                 (function Leakage.Op_token t -> Some t | Leakage.Op_slots _ -> None)
                 m.Leakage.m_ops)
             v.Leakage.q_masks));
     Alcotest.(check bool) "not in a batch" false v.Leakage.q_in_batch
   | vs -> Alcotest.failf "expected one view, got %d" (List.length vs));
  let batches run =
    let trace = snd (System.record_wire_trace run) in
    let p = Leakage.profile trace in
    let before = Metrics.snapshot () in
    Leakage.publish p;
    let deltas = Metrics.counter_diff before (Metrics.snapshot ()) in
    let published = Option.value (List.assoc_opt "exec.leak.batches" deltas) ~default:0 in
    Alcotest.(check int) "exec.leak.batches publishes p_batches" p.Leakage.p_batches
      published;
    p.Leakage.p_batches
  in
  let batch qs () =
    List.iter (function Ok _ -> () | Error e -> Alcotest.fail e) (System.query_batch o qs)
  in
  Alcotest.(check int) "lone queries: no batch" 0
    (batches (fun () -> run_all o (workload 13)));
  Alcotest.(check int) "a batch of one: no batch" 0 (batches (batch [ q ]));
  Alcotest.(check int) "two batches of two or more" 2
    (batches (fun () ->
         batch [ q; q ] ();
         batch (workload 13) ()))

(* --- profile --------------------------------------------------------------- *)

let test_profile_sanity () =
  let o = owner 80 in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let qs = workload 9 in
  let trace = record o qs in
  let p = Leakage.profile trace in
  Alcotest.(check int) "queries" (List.length qs) p.Leakage.p_queries;
  Alcotest.(check bool) "rounds observed" true (p.Leakage.p_rounds > 0);
  Alcotest.(check bool) "bytes up" true (p.Leakage.p_bytes_up > 0);
  Alcotest.(check bool) "bytes down" true (p.Leakage.p_bytes_down > 0);
  (* the repeated DET lookup *)
  Alcotest.(check bool) "eq repeats detected" true (p.Leakage.p_eq_repeats >= 1);
  Alcotest.(check bool) "distinct < total" true
    (p.Leakage.p_eq_distinct < p.Leakage.p_eq_total);
  Alcotest.(check bool) "range token observed" true (p.Leakage.p_range_total >= 1);
  Alcotest.(check bool) "co-access pairs" true (p.Leakage.p_cooccur_pairs > 0);
  let volume_occurrences =
    List.fold_left (fun acc (_, n) -> acc + n) 0 p.Leakage.p_volumes
  in
  Alcotest.(check bool) "volume histogram populated" true (volume_occurrences > 0);
  (* publish bumps the exec.leak.* counters by exactly the profile *)
  let before = Metrics.snapshot () in
  Leakage.publish p;
  let deltas = Metrics.counter_diff before (Metrics.snapshot ()) in
  let d name = Option.value (List.assoc_opt name deltas) ~default:0 in
  Alcotest.(check int) "exec.leak.queries" p.Leakage.p_queries (d "exec.leak.queries");
  Alcotest.(check int) "exec.leak.rounds" p.Leakage.p_rounds (d "exec.leak.rounds");
  Alcotest.(check int) "exec.leak.eq.repeats" p.Leakage.p_eq_repeats
    (d "exec.leak.eq.repeats")

(* --- determinism across SNF_DOMAINS ---------------------------------------- *)

(* Domains run the client's crypto and the oblivious networks, never
   concurrent server calls, so with a pinned clock the whole trace, and
   so its JSON text, must not depend on the domain count. The owner is
   warmed first so both recorded runs hit identical cache states. *)
let prop_trace_domain_independent =
  Helpers.qtest ~count:10 "seeded trace is byte-identical for domains 1 vs 4"
    QCheck2.Gen.(int_bound 1000)
    (fun seed ->
      let o = owner 90 in
      Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
      let qs = workload seed in
      run_all o qs;
      let go domains =
        with_domains domains (fun () ->
            with_fake_clock (fun () -> record o qs))
      in
      Wiretrace.equal (go 1) (go 4))

(* --- nesting ----------------------------------------------------------------- *)

(* A recording opened inside another returns the trace a standalone
   recording of the same work gives, and the enclosing trace is the one
   it would have been without the inner recording. The owner is warmed
   first and the clock pinned afresh per run, so all runs issue and stamp
   the same rounds. *)
let test_nested_record () =
  let o = owner 70 in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let inner_qs = workload 5 and after_qs = workload 6 in
  run_all o (inner_qs @ after_qs);
  let standalone = with_fake_clock (fun () -> record o inner_qs) in
  let plain_outer =
    with_fake_clock (fun () ->
        snd
          (System.record_wire_trace (fun () ->
               run_all o inner_qs;
               run_all o after_qs)))
  in
  let inner, outer =
    with_fake_clock (fun () ->
        let inner, outer =
          System.record_wire_trace (fun () ->
              let inner = record o inner_qs in
              run_all o after_qs;
              inner)
        in
        (inner, outer))
  in
  Alcotest.(check bool) "standalone trace non-empty" true
    (standalone.Wiretrace.events <> []);
  Alcotest.(check bool) "inner recording = standalone recording" true
    (Wiretrace.equal standalone inner);
  Alcotest.(check bool) "outer trace unchanged by the inner recording" true
    (Wiretrace.equal plain_outer outer);
  (* A raising inner recording closes itself and leaves the outer open. *)
  let (), _ =
    Wiretrace.record (fun () ->
        (try ignore (Wiretrace.record (fun () -> raise Exit)) with Exit -> ());
        Alcotest.(check bool) "outer still recording" true (Wiretrace.recording ()))
  in
  Alcotest.(check bool) "recorder off once every recording closed" false
    (Wiretrace.recording ())

(* A batch's shared Fetch_rows rounds cross before any member window
   opens. Each is attached to every member view whose Q_batch group
   names its leaf, so every member that planned leaf L holds all of the
   batch's L fetches, in wire order; the profile counts each round's
   slots once, however many views hold it. *)
let test_shared_fetch_attribution () =
  let o = owner 80 in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let qs = workload 5 @ workload 7 in
  let outcomes, trace = System.record_wire_trace (fun () -> System.query_batch o qs) in
  let planned =
    List.map
      (function Ok (_, tr) -> tr.Executor.plan.Planner.leaves | Error e -> Alcotest.fail e)
      outcomes
  in
  let fetch_tag = Wire.request_tag (Wire.Fetch_rows { leaf = ""; attrs = []; slots = [||] }) in
  let rounds =
    List.filter
      (fun (e : Wiretrace.event) -> e.dir = Wiretrace.Up && e.tag = fetch_tag)
      trace.Wiretrace.events
  in
  Alcotest.(check bool) "fewer fetch rounds than members" true
    (rounds <> [] && List.length rounds < List.length qs);
  let field k (e : Wiretrace.event) = Option.value (List.assoc_opt k e.summary) ~default:"" in
  let views = Leakage.queries trace in
  Alcotest.(check int) "one view per member" (List.length qs) (List.length views);
  List.iteri
    (fun i (v, leaves) ->
      List.iter
        (fun leaf ->
          Alcotest.(check (list int))
            (Printf.sprintf "member %d holds the batch's %s fetches" i leaf)
            (List.filter_map
               (fun (e : Wiretrace.event) ->
                 if field "leaf" e = leaf then Some e.round else None)
               rounds)
            (List.filter_map
               (fun (f : Leakage.fetch_obs) ->
                 if f.Leakage.f_leaf = leaf then Some f.Leakage.f_round else None)
               v.Leakage.q_fetches))
        leaves)
    (List.combine views planned);
  let slots e = List.length (List.filter (( <> ) "") (String.split_on_char ',' (field "slots" e))) in
  let round_slots = List.fold_left (fun acc e -> acc + slots e) 0 rounds in
  let view_slots =
    List.fold_left
      (fun acc v ->
        List.fold_left (fun acc f -> acc + Array.length f.Leakage.f_slots) acc v.Leakage.q_fetches)
      0 views
  in
  Alcotest.(check bool) "the views hold shared rounds more than once" true
    (view_slots > round_slots);
  let p = Leakage.profile trace in
  let before = Metrics.snapshot () in
  Leakage.publish p;
  let deltas = Metrics.counter_diff before (Metrics.snapshot ()) in
  Alcotest.(check int) "exec.leak.fetch.slots: the recorded rounds' slots, once each"
    round_slots
    (Option.value (List.assoc_opt "exec.leak.fetch.slots" deltas) ~default:0)

let suite =
  [ t "json codec round-trips" test_json_roundtrip;
    t "the json reader refuses malformed documents" test_json_refusals;
    t "marks cut per-query windows" test_query_windows;
    t "batch rounds re-attributed to members" test_batch_attribution;
    t "a lone query's filters attributed to its window" test_lone_query_attribution;
    t "profile reconciles with workload" test_profile_sanity;
    prop_trace_domain_independent;
    t "nested recordings: inner as standalone, outer unchanged" test_nested_record;
    t "shared fetch rounds held by every member that planned their leaf"
      test_shared_fetch_attribution ]
