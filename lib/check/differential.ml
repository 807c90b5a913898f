open Snf_relational
open Snf_exec
module Prng = Snf_crypto.Prng
module Scheme = Snf_crypto.Scheme
module Policy = Snf_core.Policy
module Partition = Snf_core.Partition
module Strategy = Snf_core.Strategy
module Horizontal = Snf_core.Horizontal
module Metrics = Snf_obs.Metrics
module Json = Snf_obs.Json

type failure = {
  spec : Gen.spec;
  rep : string;
  mode : string;
  query : Query.t option;
  kind : string;
  detail : string;
}

let failure_to_string f =
  Printf.sprintf "[%s] %s/%s (%s)%s: %s" f.kind f.rep f.mode
    (Gen.spec_to_string f.spec)
    (match f.query with
     | None -> ""
     | Some q -> Format.asprintf " on %a" Query.pp q)
    f.detail

type outcome = {
  queries_run : int;
  executions : int;
  failures : failure list;
}

(* --- the five representations --------------------------------------------- *)

let representations ?(workload = []) g policy =
  let nr = Strategy.non_repeating g policy in
  let cost p =
    match workload with
    | [] -> float_of_int (Partition.total_columns p)
    | qs ->
      List.fold_left
        (fun acc q ->
          match Planner.plan p q with
          | Ok pl -> acc +. float_of_int (1 + pl.Planner.joins)
          | Error _ -> acc +. 100.)
        0. qs
  in
  [ ("universal", Strategy.strawman policy);
    ("atomic", Strategy.naive policy);
    ("snf", nr);
    ("max-repeating", Strategy.max_repeating g policy);
    ("workload-aware", Strategy.workload_aware ~cost g policy nr) ]

(* --- per-execution consistency checks -------------------------------------- *)

let mode_name = function
  | `Sort_merge -> "sort-merge"
  | `Oram -> "oram"
  | `Binning n -> Printf.sprintf "binning-%d" n

let modes = [| `Sort_merge; `Oram; `Binning 4 |]

(* The trace handed back to the caller and the process-wide metrics
   registry are fed by the same execution; their disagreement means the
   observability layer is lying to one of its consumers. *)
let counter_mismatches (trace : Executor.trace) deltas =
  let d name = Option.value (List.assoc_opt name deltas) ~default:0 in
  let dec = trace.Executor.decision in
  let hit, miss = match dec.Planner.d_cache with `Hit -> (1, 0) | `Miss -> (0, 1) in
  [ ("exec.query.count", 1);
    ("exec.query.scanned_cells", trace.Executor.scanned_cells);
    ("exec.query.index_probes", trace.Executor.index_probes);
    ("exec.query.comparisons", trace.Executor.comparisons);
    ("exec.query.rows_processed", trace.Executor.rows_processed);
    ("exec.query.result_rows", trace.Executor.result_rows);
    ("exec.wire.requests", trace.Executor.wire_requests);
    ("exec.wire.bytes_up", trace.Executor.wire_bytes_up);
    ("exec.wire.bytes_down", trace.Executor.wire_bytes_down);
    (* Planner parity: one decide per query moves exactly one of
       hit/miss, and a miss adds exactly the candidates it priced. *)
    ("plan.cache.hit", hit);
    ("plan.cache.miss", miss);
    ("plan.candidates.enumerated", dec.Planner.d_enumerated) ]
  |> List.filter_map (fun (n, want) ->
         if d n = want then None
         else Some (Printf.sprintf "%s: trace says %d, counter moved %d" n want (d n)))

(* The batched variant of the same invariant: a batch publishes per-query
   counters from its traces, so the traces of the answered queries must
   sum to exactly the global deltas the batch moved. *)
let batch_counter_mismatches ?planned traces deltas =
  let d name = Option.value (List.assoc_opt name deltas) ~default:0 in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 traces in
  (* Every query in the batch is planned, answered or not, and each
     decide moves exactly one of hit/miss; when every query produced a
     trace the enumerated counter also reconciles exactly (errored
     decisions price candidates the traces cannot see). *)
  let planned = Option.value planned ~default:(List.length traces) in
  let plan_checks =
    ( "plan.cache.hit+miss",
      planned,
      d "plan.cache.hit" + d "plan.cache.miss" )
    ::
    (if List.length traces = planned then
       [ ( "plan.candidates.enumerated",
           sum (fun t -> t.Executor.decision.Planner.d_enumerated),
           d "plan.candidates.enumerated" ) ]
     else [])
  in
  ([ ("exec.query.count", List.length traces);
     ("exec.query.scanned_cells", sum (fun t -> t.Executor.scanned_cells));
     ("exec.query.index_probes", sum (fun t -> t.Executor.index_probes));
     ("exec.query.comparisons", sum (fun t -> t.Executor.comparisons));
     ("exec.query.rows_processed", sum (fun t -> t.Executor.rows_processed));
     ("exec.query.result_rows", sum (fun t -> t.Executor.result_rows));
     ("exec.wire.requests", sum (fun t -> t.Executor.wire_requests));
     ("exec.wire.bytes_up", sum (fun t -> t.Executor.wire_bytes_up));
     ("exec.wire.bytes_down", sum (fun t -> t.Executor.wire_bytes_down)) ]
   |> List.map (fun (n, want) -> (n, want, d n)))
  @ plan_checks
  |> List.filter_map (fun (n, want, got) ->
         if got = want then None
         else
           Some (Printf.sprintf "%s: traces sum to %d, counter moved %d" n want got))

(* Two recorded traces that agree once timestamps are zeroed. *)
let same_untimed (a : Snf_obs.Wiretrace.trace) (b : Snf_obs.Wiretrace.trace) =
  let untimed (tr : Snf_obs.Wiretrace.trace) =
    { tr with
      events = List.map (fun e -> { e with Snf_obs.Wiretrace.ts_us = 0.0 }) tr.events }
  in
  Snf_obs.Wiretrace.equal (untimed a) (untimed b)

(* The [Fetch_tids] rounds of a recorded trace, and the trace without
   them, rounds and sequence numbers renumbered densely as the recorder
   numbers them. *)
let fetch_tids_tag = Wire.request_tag (Wire.Fetch_tids { leaf = "" })

let split_fetch_tids (tr : Snf_obs.Wiretrace.trace) =
  let open Snf_obs.Wiretrace in
  let fetches =
    List.filter_map
      (fun e -> if e.dir = Up && e.tag = fetch_tids_tag then Some e.round else None)
      tr.events
  in
  let removed, kept = List.partition (fun e -> List.mem e.round fetches) tr.events in
  let last = ref (-1) and round = ref (-1) in
  let kept =
    List.mapi
      (fun seq e ->
        if e.round <> !last then begin
          last := e.round;
          incr round
        end;
        { e with seq; round = !round })
      kept
  in
  let sum dir = List.fold_left (fun n e -> if e.dir = dir then n + e.bytes else n) 0 removed in
  ((List.length fetches, sum Up, sum Down), { tr with events = kept })

(* A repeated query starts from a warm client: its leaves' tid columns
   are held under the digests Describe announces and their tid orders
   are cached, so it sends no [Fetch_tids] and runs no sorting network.
   Everything else must repeat: the outcome, the answer, and the SNFT
   trace once timestamps are zeroed and the first run's [Fetch_tids]
   rounds are removed, with the wire counts short by exactly those
   rounds. *)
let warm_repeat_mismatches (first, first_snft) (repeat, repeat_snft) =
  let (fq, fu, fd), first_rest = split_fetch_tids first_snft in
  let (refetched, _, _), repeat_rest = split_fetch_tids repeat_snft in
  (match (first, repeat) with
   | Ok (a, (t : Executor.trace)), Ok (b, (r : Executor.trace)) ->
     let wire (t : Executor.trace) =
       (t.Executor.wire_requests, t.Executor.wire_bytes_up, t.Executor.wire_bytes_down)
     in
     let tq, tu, td = wire t in
     (if Oracle.bag a = Oracle.bag b then []
      else [ "warm repeat returned a different answer" ])
     @ (if (tq - fq, tu - fu, td - fd) = wire r then []
        else [ "warm repeat moved other wire counts than the first run without its \
                Fetch_tids rounds" ])
     @
     if r.Executor.comparisons = 0 && r.Executor.rows_processed = 0 then []
     else
       [ Printf.sprintf "warm repeat still ran %d comparisons over %d rows"
           r.Executor.comparisons r.Executor.rows_processed ]
   | Error a, Error b when a = b -> []
   | _ -> [ "warm repeat disagrees with the first run on the outcome" ])
  @
  if refetched > 0 then [ Printf.sprintf "warm repeat still sent %d Fetch_tids" refetched ]
  else if same_untimed first_rest repeat_rest then []
  else
    [ "warm repeat SNFT trace differs from the first run's without its Fetch_tids rounds" ]

(* A batch of one must be indistinguishable from the single query run
   from the same cache state: the same trace record up to the planner's
   cache outcome (a hit prices no candidates, so [d_enumerated] follows
   [d_cache]), the same counter deltas apart from timing series (the
   crypto memo's counters included: both runs start warm and read it
   alike) and the same SNFT trace once timestamps are zeroed. *)
let batch_of_one_mismatches (single : Executor.trace) single_snft single_deltas
    (batched : Executor.trace) batched_snft batched_deltas =
  let normal (t : Executor.trace) =
    { t with
      Executor.decision =
        { t.Executor.decision with Planner.d_cache = `Hit; d_enumerated = 0 } }
  in
  let untimed =
    List.filter (fun (n, _) -> not (String.length n >= 5 && String.sub n 0 5 = "time."))
  in
  (if normal single = normal batched then []
   else [ "batch-of-one trace record differs from the single query's" ])
  @ List.filter_map
      (fun n ->
        let d l = Option.value (List.assoc_opt n l) ~default:0 in
        if d single_deltas = d batched_deltas then None
        else
          Some
            (Printf.sprintf "%s: the single query moved %d, the batch of one %d" n
               (d single_deltas) (d batched_deltas)))
      (List.sort_uniq String.compare
         (List.map fst (untimed single_deltas @ untimed batched_deltas)))
  @
  if same_untimed single_snft batched_snft then []
  else [ "batch-of-one SNFT trace differs from the single query's" ]

let chunks n l =
  let n = max 1 n in
  let cur, acc =
    List.fold_left
      (fun (cur, acc) x ->
        if List.length cur = n then ([ x ], List.rev cur :: acc)
        else (x :: cur, acc))
      ([], []) l
  in
  List.rev (if cur = [] then acc else List.rev cur :: acc)

(* --- per-instance passes ---------------------------------------------------- *)

let most_frequent col =
  let counts = Hashtbl.create 8 in
  Array.iter
    (fun v ->
      let k = Value.encode v in
      Hashtbl.replace counts k
        (match Hashtbl.find_opt counts k with
         | Some (_, n) -> (v, n + 1)
         | None -> (v, 1)))
    col;
  Hashtbl.fold
    (fun _ (v, n) best ->
      match best with Some (_, m) when m >= n -> best | _ -> Some (v, n))
    counts None
  |> Option.map fst

(* A batch's answer bags in request order (a planner error as its
   message) and its traces' wire triple, summed: the batch's outer
   traffic, since the shared rounds are charged to its first member. *)
let batch_bags results =
  List.map (function Ok (ans, _) -> Ok (Oracle.bag ans) | Error e -> Error e) results

let batch_wire traces =
  List.fold_left
    (fun (r, u, d) (t : Executor.trace) ->
      (r + t.Executor.wire_requests, u + t.Executor.wire_bytes_up, d + t.Executor.wire_bytes_down))
    (0, 0, 0) traces

let run_instance ?(queries = 25) ?(backend = `Mem) ?(batch = `Rotate) ?(planner = `Greedy)
    (inst : Gen.instance) =
  let qs = Gen.queries ~count:queries ~seed:inst.Gen.spec.Gen.seed inst in
  let reps = representations ~workload:qs inst.Gen.graph inst.Gen.policy in
  let owners =
    List.map
      (fun (label, rep) ->
        ( label,
          System.outsource_prepared
            ?backend:(match backend with `Disk -> Some `Disk | _ -> None)
            ~name:(inst.Gen.name ^ "." ^ label)
            ~graph:inst.Gen.graph ~representation:rep inst.Gen.relation
            inst.Gen.policy ))
      reps
  in
  (* Under [`Rotate], every query also executes on a disk-backed twin of
     the SNF representation — same keys, same store image, different
     server backend — and the two executions must agree on the answer
     bag, the [exec.query.*] counters, and the wire-traffic shape: the
     backend must be invisible above the message protocol. [`Socket]
     runs the same twin discipline over a loopback [Snf_net] server
     instead, so the whole frame/session/worker-pool path is proven
     observationally identical to in-process execution. [`Sharded n]
     applies it to a coordinator scatter-gathering over n in-process
     shards — plus a reconciliation: the summed per-shard
     [exec.wire.shard<i>.*] counter movement of each query must equal
     the summed per-connection stats deltas of the inner shard
     connections, bit-identically. *)
  let twin_server = ref None in
  let sharded_twin = ref None in
  let twin =
    match backend with
    | `Rotate ->
      Some (System.with_backend (List.assoc "snf" owners) `Disk, "snf-disk", "backend")
    | `Sharded shards ->
      let st =
        Backend_sharded.create ~policy:Backend_sharded.Skew
          ~connect:(fun _ ->
            Server_api.connect (module Backend_mem) (Backend_mem.empty ()))
          ~shards ()
      in
      sharded_twin := Some st;
      Some
        ( System.with_backend (List.assoc "snf" owners) (System.sharded st),
          "snf-sharded", "sharded" )
    | `Socket ->
      let path = Filename.temp_file "snfdiff" ".sock" in
      Sys.remove path;
      (match
         Snf_net.Server.start_mem
           ~config:
             { Snf_net.Server.default_config with domains = 2; idle_timeout = 30. }
           ~addr:("unix:" ^ path) ()
       with
      | Error e -> failwith ("differential socket twin: cannot start server: " ^ e)
      | Ok srv ->
        twin_server := Some srv;
        let kind = `Ext (Snf_net.Client.backend (Snf_net.Server.address srv)) in
        Some (System.with_backend (List.assoc "snf" owners) kind, "snf-socket", "socket"))
    | _ -> None
  in
  let cleanup () =
    (match twin with Some (o, _, _) -> System.release o | None -> ());
    Option.iter Snf_net.Server.stop !twin_server;
    List.iter (fun (_, o) -> System.release o) owners
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  (* Under [`Cost] the whole differential pass runs through per-owner
     cost-based handles (statistics refreshed here, at handle creation —
     outside every counter window); greedy is the default. The twin gets
     its own handle over its own connection's statistics: same store
     image, so identical statistics, so identical decisions. *)
  let handle_for owner =
    match planner with `Greedy -> None | `Cost -> Some (System.cost_planner owner)
  in
  let handles = List.map (fun (label, owner) -> (label, handle_for owner)) owners in
  let twin_handle = match twin with Some (o, _, _) -> handle_for o | None -> None in
  let failures = ref [] and executions = ref 0 in
  let fail ?query ~rep ~mode ~kind detail =
    failures := { spec = inst.Gen.spec; rep; mode; query; kind; detail } :: !failures
  in
  (* Differential pass: every query through every representation, rotating
     reconstruction mode and index use; oracle, cross-representation and
     counter checks per execution. *)
  List.iteri
    (fun i q ->
      let oracle_ans = Oracle.answer inst.Gen.relation q in
      let mode = modes.(i mod Array.length modes) in
      let use_index = i land 1 = 0 in
      (* The client's caches must be invisible in the answers. Every
         other pair of queries runs cold: each owner's client, the twin's
         included, drops its tid orders right before it executes, so
         every soak covers both building the orders and reusing them, and
         the mem, twin and counter comparisons stay like-for-like. *)
      let cold = i land 2 <> 0 in
      let empty_caches owner =
        if cold then Enc_relation.bump_key_epoch owner.System.client
      in
      let mstr =
        mode_name mode ^ (if use_index then "+index" else "") ^ if cold then "-cold" else ""
      in
      let snf_exec = ref None in
      let bags =
        List.filter_map
          (fun (label, owner) ->
            incr executions;
            empty_caches owner;
            let before = Metrics.snapshot () in
            match
              System.query_checked ~mode ?planner:(List.assoc label handles) ~use_index
                owner q
            with
            | Error (`Plan e) ->
              fail ~query:q ~rep:label ~mode:mstr ~kind:"plan" e;
              None
            | Error (`Corruption c) ->
              fail ~query:q ~rep:label ~mode:mstr ~kind:"corruption"
                (Integrity.to_string c);
              None
            | Ok (ans, trace) ->
              let after = Metrics.snapshot () in
              let deltas = Metrics.counter_diff before after in
              if not (Oracle.agree oracle_ans ans) then
                fail ~query:q ~rep:label ~mode:mstr ~kind:"oracle"
                  (Oracle.diff_summary ~expected:oracle_ans ~got:ans);
              (match counter_mismatches trace deltas with
               | [] -> ()
               | errs ->
                 fail ~query:q ~rep:label ~mode:mstr ~kind:"counters"
                   (String.concat "; " errs));
              if label = "snf" then snf_exec := Some (Oracle.bag ans, trace, deltas);
              Some (label, Oracle.bag ans))
          owners
      in
      (match (twin, !snf_exec) with
       | Some (towner, tlabel, tkind), Some (mem_bag, mem_trace, mem_deltas) ->
         incr executions;
         let tname = System.backend_kind_name (System.backend towner) in
         let shard_before =
           Option.map Backend_sharded.shard_stats !sharded_twin
         in
         empty_caches towner;
         let before = Metrics.snapshot () in
         (match System.query_checked ~mode ?planner:twin_handle ~use_index towner q with
          | Error (`Plan e) ->
            fail ~query:q ~rep:tlabel ~mode:mstr ~kind:tkind
              (tname ^ " backend failed to plan: " ^ e)
          | Error (`Corruption c) ->
            fail ~query:q ~rep:tlabel ~mode:mstr ~kind:tkind
              (tname ^ " backend flagged corruption: " ^ Integrity.to_string c)
          | Ok (ans, trace) ->
            let deltas = Metrics.counter_diff before (Metrics.snapshot ()) in
            if Oracle.bag ans <> mem_bag then
              fail ~query:q ~rep:tlabel ~mode:mstr ~kind:tkind
                ("mem and " ^ tname ^ " backends disagree on the answer bag");
            let d l n = Option.value (List.assoc_opt n l) ~default:0 in
            List.iter
              (fun n ->
                if d mem_deltas n <> d deltas n then
                  fail ~query:q ~rep:tlabel ~mode:mstr ~kind:tkind
                    (Printf.sprintf "%s: mem moved %d, %s moved %d" n
                       (d mem_deltas n) tname (d deltas n)))
              [ "exec.query.scanned_cells";
                "exec.query.index_probes";
                "exec.query.comparisons";
                "exec.query.rows_processed";
                "exec.query.result_rows" ];
            if
              ( trace.Executor.wire_requests,
                trace.Executor.wire_bytes_up,
                trace.Executor.wire_bytes_down )
              <> ( mem_trace.Executor.wire_requests,
                   mem_trace.Executor.wire_bytes_up,
                   mem_trace.Executor.wire_bytes_down )
            then
              fail ~query:q ~rep:tlabel ~mode:mstr ~kind:tkind
                (Printf.sprintf
                   "wire traffic differs: mem %d req %d/%d B, %s %d req %d/%d B"
                   mem_trace.Executor.wire_requests mem_trace.Executor.wire_bytes_up
                   mem_trace.Executor.wire_bytes_down tname
                   trace.Executor.wire_requests trace.Executor.wire_bytes_up
                   trace.Executor.wire_bytes_down);
            (* Sharded reconciliation: the per-shard counter movement of
               this query must equal the inner connections' own stats
               deltas, summed — the coordinator accounts every inner
               round trip exactly once, deterministically under any
               domain count. *)
            (match (!sharded_twin, shard_before) with
             | Some st, Some sb ->
               let sa = Backend_sharded.shard_stats st in
               let sum f = Array.fold_left (fun a s -> a + f s) 0 in
               let conn_sums =
                 ( sum (fun (s : Server_api.wire_stats) -> s.requests) sa
                   - sum (fun (s : Server_api.wire_stats) -> s.requests) sb,
                   sum (fun (s : Server_api.wire_stats) -> s.bytes_up) sa
                   - sum (fun (s : Server_api.wire_stats) -> s.bytes_up) sb,
                   sum (fun (s : Server_api.wire_stats) -> s.bytes_down) sa
                   - sum (fun (s : Server_api.wire_stats) -> s.bytes_down) sb )
               in
               let fam = Metrics.counters_with_prefix "exec.wire.shard" deltas in
               let suffix_sum sfx =
                 List.fold_left
                   (fun a (n, d) ->
                     let ls = String.length sfx and ln = String.length n in
                     if ln >= ls && String.sub n (ln - ls) ls = sfx then a + d
                     else a)
                   0 fam
               in
               let ctr_sums =
                 ( suffix_sum ".requests",
                   suffix_sum ".bytes_up",
                   suffix_sum ".bytes_down" )
               in
               if conn_sums <> ctr_sums then
                 let c1, c2, c3 = conn_sums and m1, m2, m3 = ctr_sums in
                 fail ~query:q ~rep:tlabel ~mode:mstr ~kind:tkind
                   (Printf.sprintf
                      "shard accounting split: conns moved %d req %d/%d B, \
                       exec.wire.shard* moved %d req %d/%d B"
                      c1 c2 c3 m1 m2 m3)
             | _ -> ()))
       | _ -> ());
      match bags with
      | [] -> ()
      | (l0, b0) :: rest ->
        List.iter
          (fun (l, b) ->
            if b <> b0 then
              fail ~query:q ~rep:(l0 ^ " vs " ^ l) ~mode:mstr ~kind:"cross-rep"
                (Printf.sprintf "representations disagree: %d vs %d rows"
                   (List.length b0) (List.length b)))
          rest)
    qs;
  (* Batched pass: the same workload again through [System.query_batch],
     per representation, sliced into batches of rotating sizes (1 — the
     degenerate batch, 8, and the whole workload at once), with the
     reconstruction mode rotating per size. Checked per query: oracle
     agreement and cross-representation agreement of the batched answers;
     per batch: the summed per-query traces must reconcile exactly with
     the global counter deltas the batch moved. *)
  let batch_sizes =
    match batch with
    | `Off -> []
    | `Size n -> [ max 1 n ]
    | `Rotate -> [ 1; 8; List.length qs ]
  in
  if qs <> [] then
    List.iteri
      (fun si size ->
        let mode = modes.(si mod Array.length modes) in
        let mstr = Printf.sprintf "%s+batch%d" (mode_name mode) size in
        List.iter
          (fun chunk ->
            let snf_batch = ref None in
            let bags_by_rep =
              List.filter_map
                (fun (label, owner) ->
                  let planner = List.assoc label handles in
                  (* A size-1 chunk is first run as the single query it is,
                     twice: the first run warms the client's tid orders, so
                     the repeat and the batch of one start from the same
                     cache state. *)
                  let single =
                    match chunk with
                    | [ q ] ->
                      let run () =
                        System.record_wire_trace (fun () ->
                            System.query_checked ~mode ?planner owner q)
                      in
                      let first = run () in
                      let before = Metrics.snapshot () in
                      let repeat = run () in
                      let deltas = Metrics.counter_diff before (Metrics.snapshot ()) in
                      List.iter
                        (fail ~query:q ~rep:label ~mode:mstr ~kind:"batch")
                        (warm_repeat_mismatches first repeat);
                      Some (repeat, deltas)
                    | _ -> None
                  in
                  let before = Metrics.snapshot () in
                  match
                    System.record_wire_trace (fun () ->
                        System.query_batch ~mode ?planner owner chunk)
                  with
                  | exception Integrity.Corruption c ->
                    fail ~rep:label ~mode:mstr ~kind:"batch"
                      ("batch flagged corruption: " ^ Integrity.to_string c);
                    None
                  | results, batch_snft ->
                    let deltas = Metrics.counter_diff before (Metrics.snapshot ()) in
                    (match (single, results) with
                     | Some ((Ok (_, st), single_snft), single_deltas), [ Ok (_, bt) ] ->
                       List.iter
                         (fail ~query:(List.hd chunk) ~rep:label ~mode:mstr ~kind:"batch")
                         (batch_of_one_mismatches st single_snft single_deltas bt
                            batch_snft deltas)
                     | Some ((Error _, _), _), [ Error _ ] | None, _ -> ()
                     | Some _, _ ->
                       fail ~query:(List.hd chunk) ~rep:label ~mode:mstr ~kind:"batch"
                         "batch of one and the single query disagree on the outcome");
                    let traces =
                      List.filter_map
                        (function Ok (_, t) -> Some t | Error _ -> None)
                        results
                    in
                    if label = "snf" then snf_batch := Some (batch_bags results, batch_wire traces);
                    (match
                       batch_counter_mismatches ~planned:(List.length chunk) traces
                         deltas
                     with
                     | [] -> ()
                     | errs ->
                       fail ~rep:label ~mode:mstr ~kind:"batch"
                         (String.concat "; " errs));
                    let bags =
                      List.map2
                        (fun q result ->
                          incr executions;
                          match result with
                          | Error e ->
                            fail ~query:q ~rep:label ~mode:mstr ~kind:"batch"
                              ("batched plan failure: " ^ e);
                            None
                          | Ok (ans, _) ->
                            let oracle_ans = Oracle.answer inst.Gen.relation q in
                            if not (Oracle.agree oracle_ans ans) then
                              fail ~query:q ~rep:label ~mode:mstr ~kind:"batch"
                                (Oracle.diff_summary ~expected:oracle_ans ~got:ans);
                            Some (Oracle.bag ans))
                        chunk results
                    in
                    Some (label, bags))
                owners
            in
            (* The twin runs the same chunk as one batch, which is how a
               batch reaches a disk, socket or sharded server: equal answer
               bags, and outer wire bytes equal to the mem SNF batch's. *)
            (match (twin, !snf_batch) with
             | Some (towner, tlabel, tkind), Some (mem_bags, mem_wire) -> (
               let tname = System.backend_kind_name (System.backend towner) in
               (* A size-1 chunk ran first as the single query on the mem
                  owner, which left its tid columns on that connection;
                  the twin's connection is given the same history. *)
               (match chunk with
                | [ q ] -> ignore (System.query_checked ~mode ?planner:twin_handle towner q)
                | _ -> ());
               match System.query_batch ~mode ?planner:twin_handle towner chunk with
               | exception Integrity.Corruption c ->
                 fail ~rep:tlabel ~mode:mstr ~kind:tkind
                   (tname ^ " batch flagged corruption: " ^ Integrity.to_string c)
               | results ->
                 let traces =
                   List.filter_map (function Ok (_, t) -> Some t | Error _ -> None) results
                 in
                 if batch_bags results <> mem_bags then
                   fail ~rep:tlabel ~mode:mstr ~kind:tkind
                     ("mem and " ^ tname ^ " batches disagree on the answer bags");
                 if batch_wire traces <> mem_wire then
                   let r, u, d = mem_wire and r', u', d' = batch_wire traces in
                   fail ~rep:tlabel ~mode:mstr ~kind:tkind
                     (Printf.sprintf
                        "batch wire traffic differs: mem %d req %d/%d B, %s %d req %d/%d B" r
                        u d tname r' u' d'))
             | _ -> ());
            match bags_by_rep with
            | [] -> ()
            | (l0, b0) :: rest ->
              List.iter
                (fun (l, b) ->
                  List.iteri
                    (fun qi bq ->
                      match (List.nth b0 qi, bq) with
                      | Some x, Some y when x <> y ->
                        fail ~query:(List.nth chunk qi) ~rep:(l0 ^ " vs " ^ l)
                          ~mode:mstr ~kind:"batch"
                          "batched representations disagree on the answer bag"
                      | _ -> ())
                    b)
                rest)
          (chunks size qs))
      batch_sizes;
  (* Cost-planner pass (when the main pass ran greedy): the same workload
     through the statistics-driven cost-based planner, every other query,
     across all representations. Answers must stay bag-identical to the
     plaintext oracle (and therefore to the greedy executions above),
     every cost decision must carry an estimate, and the planner-counter
     parity must hold exactly as under greedy. *)
  if planner = `Greedy then
    List.iter
      (fun (label, owner) ->
        let cost_handle = System.cost_planner owner in
        List.iteri
          (fun i q ->
            if i mod 2 = 0 then begin
              incr executions;
              let before = Metrics.snapshot () in
              match System.query_checked ~planner:cost_handle owner q with
              | Error (`Plan e) ->
                fail ~query:q ~rep:label ~mode:"cost" ~kind:"cost-planner" e
              | Error (`Corruption c) ->
                fail ~query:q ~rep:label ~mode:"cost" ~kind:"cost-planner"
                  (Integrity.to_string c)
              | Ok (ans, trace) ->
                let deltas = Metrics.counter_diff before (Metrics.snapshot ()) in
                let oracle_ans = Oracle.answer inst.Gen.relation q in
                if not (Oracle.agree oracle_ans ans) then
                  fail ~query:q ~rep:label ~mode:"cost" ~kind:"cost-planner"
                    (Oracle.diff_summary ~expected:oracle_ans ~got:ans);
                (match counter_mismatches trace deltas with
                 | [] -> ()
                 | errs ->
                   fail ~query:q ~rep:label ~mode:"cost" ~kind:"cost-planner"
                     (String.concat "; " errs));
                let dec = trace.Executor.decision in
                if dec.Planner.d_selector <> "cost" then
                  fail ~query:q ~rep:label ~mode:"cost" ~kind:"cost-planner"
                    ("expected a cost decision, got " ^ dec.Planner.d_selector);
                if dec.Planner.d_estimate = None then
                  fail ~query:q ~rep:label ~mode:"cost" ~kind:"cost-planner"
                    "cost decision carries no estimate"
            end)
          qs)
      owners;
  (* Ledger pass over the SNF representation: the report must recount
     exactly the answers it just recorded, and the traffic it read from
     the wire must equal the executor traces' wire fields, summed. *)
  begin
    let owner = List.assoc "snf" owners in
    let led = Ledger.create owner in
    let answered =
      List.filter_map
        (fun q ->
          incr executions;
          match Ledger.query led q with
          | Ok (ans, trace) -> Some (Relation.cardinality ans, trace)
          | Error e ->
            fail ~query:q ~rep:"snf" ~mode:"ledger" ~kind:"ledger" e;
            None)
        qs
    in
    let vols = List.map fst answered in
    let r = Ledger.report led in
    if r.Ledger.queries <> List.length vols then
      fail ~rep:"snf" ~mode:"ledger" ~kind:"ledger"
        (Printf.sprintf "report.queries = %d, executed %d" r.Ledger.queries
           (List.length vols));
    if r.Ledger.result_volumes <> vols then
      fail ~rep:"snf" ~mode:"ledger" ~kind:"ledger"
        "report.result_volumes disagree with the recorded answers";
    if List.length r.Ledger.query_metrics <> r.Ledger.queries then
      fail ~rep:"snf" ~mode:"ledger" ~kind:"ledger"
        "one query_metrics entry per recorded query expected";
    let sum f = List.fold_left (fun n (_, trace) -> n + f trace) 0 answered in
    let tq = sum (fun t -> t.Executor.wire_requests)
    and tu = sum (fun t -> t.Executor.wire_bytes_up)
    and td = sum (fun t -> t.Executor.wire_bytes_down) in
    if
      (r.Ledger.wire_requests, r.Ledger.wire_bytes_up, r.Ledger.wire_bytes_down)
      <> (tq, tu, td)
    then
      fail ~rep:"snf" ~mode:"ledger" ~kind:"ledger"
        (Printf.sprintf "report wire %d req %d/%d B, executor traces sum to %d req %d/%d B"
           r.Ledger.wire_requests r.Ledger.wire_bytes_up r.Ledger.wire_bytes_down tq tu td)
  end;
  (* PHE group-sum differential, when the schema drew a PHE column:
     co-locate it with the guaranteed-DET s0 and aggregate server-side. *)
  begin
    let names = Schema.names (Relation.schema inst.Gen.relation) in
    match
      List.find_opt (fun a -> Policy.scheme_of inst.Gen.policy a = Scheme.Phe) names
    with
    | None -> ()
    | Some p ->
      let g = "s0" in
      let rep =
        Partition.leaf "gs" [ (g, Scheme.Det); (p, Scheme.Phe) ]
        :: List.filter_map
             (fun a ->
               if a = g || a = p then None
               else
                 Some (Partition.leaf ("q-" ^ a) [ (a, Policy.scheme_of inst.Gen.policy a) ]))
             names
      in
      let owner =
        System.outsource_prepared ~name:(inst.Gen.name ^ ".gs")
          ~graph:inst.Gen.graph ~representation:rep inst.Gen.relation
          inst.Gen.policy
      in
      incr executions;
      let got = System.group_sum owner ~leaf:"gs" ~group_by:g ~sum:p in
      let want = Oracle.group_sum inst.Gen.relation ~group_by:g ~sum:p in
      if got <> want then
        fail ~rep:"group-sum" ~mode:"phe" ~kind:"group-sum"
          (Printf.sprintf "homomorphic SUM(%s) GROUP BY %s: %d groups vs oracle %d" p
             g (List.length got) (List.length want))
  end;
  (* Horizontal pass: split on s0 (DET tolerates the equality leakage the
     split reveals), exercise both routing outcomes. *)
  if Relation.cardinality inst.Gen.relation > 0 then begin
    match most_frequent (Relation.column inst.Gen.relation "s0") with
    | None -> ()
    | Some v ->
      let h =
        Horizontal.partition inst.Gen.graph inst.Gen.policy ~split_on:"s0"
          ~values:[ v ]
      in
      let hs =
        Horizontal_system.outsource ~name:(inst.Gen.name ^ ".h") inst.Gen.relation
          inst.Gen.policy h
      in
      let check_h tag q =
        incr executions;
        match Horizontal_system.query hs q with
        | Error e -> fail ~query:q ~rep:"horizontal" ~mode:tag ~kind:"plan" e
        | Ok (ans, _traces) ->
          if not (Oracle.agree (Oracle.answer inst.Gen.relation q) ans) then
            fail ~query:q ~rep:"horizontal" ~mode:tag ~kind:"horizontal"
              (Oracle.diff_summary
                 ~expected:(Oracle.answer inst.Gen.relation q)
                 ~got:ans)
      in
      (* A query pinned to the fragment value must route, not fan out. *)
      let routed = Query.point ~select:[ "s0"; "s1" ] [ ("s0", v) ] in
      (match Horizontal_system.routed_to hs routed with
       | `Fragment v' when Value.equal v v' -> ()
       | `Fragment v' ->
         fail ~query:routed ~rep:"horizontal" ~mode:"routed" ~kind:"horizontal"
           (Printf.sprintf "routed to wrong fragment %s" (Value.to_string v'))
       | `Fan_out ->
         fail ~query:routed ~rep:"horizontal" ~mode:"routed" ~kind:"horizontal"
           "pinned query fanned out instead of routing");
      check_h "routed" routed;
      List.iteri (fun i q -> if i mod 5 = 0 then check_h "fan-out" q) qs
  end;
  { queries_run = List.length qs; executions = !executions; failures = List.rev !failures }

let run_spec ?queries ?backend ?batch ?planner spec =
  run_instance ?queries ?backend ?batch ?planner (Gen.instance spec)

(* --- soak ------------------------------------------------------------------- *)

type report = {
  seed : int;
  instances : int;
  queries_run : int;
  executions : int;
  fault_applicable : int;
  fault_undetected : int;
  failures : failure list;
  failure_count : int;
}

let max_kept_failures = 25

let soak ?(rows = 16) ?(queries_per_instance = 25) ?(with_faults = true)
    ?backend ?batch ?planner ~seed ~queries () =
  let rows = max 1 rows in
  let prng = Prng.create ((seed * 1103515245) + 12345) in
  let acc =
    ref
      { seed;
        instances = 0;
        queries_run = 0;
        executions = 0;
        fault_applicable = 0;
        fault_undetected = 0;
        failures = [];
        failure_count = 0 }
  in
  while !acc.queries_run < queries do
    let i = !acc.instances in
    let spec =
      Gen.normalize
        { Gen.seed = abs (seed + (i * 7919) + Prng.int prng 1024);
          rows = 1 + Prng.int prng rows;
          clusters = List.init (Prng.int prng 3) (fun _ -> 2 + Prng.int prng 3);
          singles = 2 + Prng.int prng 3 }
    in
    let inst = Gen.instance spec in
    let o =
      run_instance ~queries:queries_per_instance ?backend ?batch ?planner inst
    in
    let fault_failures, applicable, undetected =
      if not with_faults then ([], 0, 0)
      else begin
        let outs = Fault.campaign ~seed:(seed + i) inst in
        let app = List.filter (fun (o : Fault.outcome) -> o.Fault.applicable) outs in
        let und = List.filter (fun (o : Fault.outcome) -> not o.Fault.detected) app in
        ( List.map
            (fun (o : Fault.outcome) ->
              { spec;
                rep = "fault";
                mode = Fault.name o.Fault.kind;
                query = None;
                kind = "fault-undetected";
                detail = o.Fault.detail })
            und,
          List.length app,
          List.length und )
      end
    in
    let fresh = o.failures @ fault_failures in
    let kept =
      List.filteri
        (fun j _ -> List.length !acc.failures + j < max_kept_failures)
        fresh
    in
    acc :=
      { !acc with
        instances = i + 1;
        queries_run = !acc.queries_run + o.queries_run;
        executions = !acc.executions + o.executions;
        fault_applicable = !acc.fault_applicable + applicable;
        fault_undetected = !acc.fault_undetected + undetected;
        failures = !acc.failures @ kept;
        failure_count = !acc.failure_count + List.length fresh }
  done;
  !acc

let passed r = r.failure_count = 0 && r.fault_undetected = 0

let failure_to_json f =
  Json.Obj
    [ ("spec", Json.String (Gen.spec_to_string f.spec));
      ("rep", Json.String f.rep);
      ("mode", Json.String f.mode);
      ("query",
       match f.query with
       | None -> Json.Null
       | Some q -> Json.String (Format.asprintf "%a" Query.pp q));
      ("kind", Json.String f.kind);
      ("detail", Json.String f.detail) ]

let report_to_json r =
  Json.Obj
    [ ("seed", Json.Int r.seed);
      ("instances", Json.Int r.instances);
      ("queries_run", Json.Int r.queries_run);
      ("executions", Json.Int r.executions);
      ("fault_applicable", Json.Int r.fault_applicable);
      ("fault_undetected", Json.Int r.fault_undetected);
      ("failure_count", Json.Int r.failure_count);
      ("passed", Json.Bool (passed r));
      ("failures", Json.List (List.map failure_to_json r.failures)) ]

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>soak seed=%d: %d instance(s), %d queries, %d executions@,\
     faults: %d applicable, %d undetected@,\
     failures: %d%s@]"
    r.seed r.instances r.queries_run r.executions r.fault_applicable
    r.fault_undetected r.failure_count
    (if passed r then " — PASS" else " — FAIL");
  if r.failures <> [] then begin
    Format.pp_print_cut fmt ();
    List.iter
      (fun f -> Format.fprintf fmt "  %s@," (failure_to_string f))
      r.failures;
    Format.fprintf fmt "reproduce an instance with: snf_cli check --seed <spec seed> --queries %d"
      r.queries_run
  end
