(* Determinism of the multicore fan-out layer: every output — raw
   tabulations, serialized ciphertext stores, query answers, Table I
   numbers — must be bit-identical whatever the domain count. *)

open Snf_relational
open Snf_exec
module Scheme = Snf_crypto.Scheme
module Prf = Snf_crypto.Prf
module Prng = Snf_crypto.Prng

let t name f = Alcotest.test_case name `Quick f

(* Run [f] under exactly [domains] domains, restoring the prior setting. *)
let with_domains domains f =
  let saved = Parallel.domain_count () in
  Parallel.set_domain_count domains;
  Fun.protect ~finally:(fun () -> Parallel.set_domain_count saved) f

let test_tabulate_matches_sequential () =
  let f i = (i * 2654435761) land 0xFFFF in
  let expected = Array.init 1000 f in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "tabulate, %d domains" d)
        true
        (with_domains d (fun () -> Parallel.tabulate 1000 f) = expected))
    [ 1; 2; 3; 7 ];
  (* explicit ?domains bypasses the small-input cutoff *)
  Alcotest.(check bool) "explicit domains on small input" true
    (Parallel.tabulate ~domains:3 5 f = Array.init 5 f);
  Alcotest.(check bool) "empty" true (Parallel.tabulate 0 f = [||]);
  Alcotest.(check bool) "empty, explicit domains" true (Parallel.tabulate ~domains:3 0 f = [||]);
  Alcotest.check_raises "negative size"
    (Invalid_argument "Parallel.tabulate: negative size") (fun () ->
      ignore (Parallel.tabulate (-1) f));
  Alcotest.check_raises "bad domain count"
    (Invalid_argument "Parallel.set_domain_count: must be >= 1") (fun () ->
      Parallel.set_domain_count 0)

let test_map_preserves_order () =
  let l = List.init 200 (fun i -> i * 3) in
  let f x = x * x in
  Alcotest.(check (list int)) "map_list = List.map" (List.map f l)
    (with_domains 3 (fun () -> Parallel.map_list f l));
  let arr = Array.init 200 (fun i -> i * 5) in
  Alcotest.(check bool) "map = Array.map" true
    (with_domains 2 (fun () -> Parallel.map f arr) = Array.map f arr)

let test_raise_waits_for_every_chunk () =
  (* Chunk 0 raises at once; chunk 1 is still sleeping. The raise must
     leave [tabulate] only after chunk 1 has finished and its metric
     shard is merged, or its counts land after the caller moved on. *)
  let late = Snf_obs.Metrics.counter "test.parallel.late_chunk" in
  let before = Snf_obs.Metrics.value late in
  (match
     Parallel.tabulate ~domains:2 2 (fun i ->
         if i = 0 then failwith "chunk 0"
         else begin
           Unix.sleepf 0.05;
           Snf_obs.Metrics.incr late
         end)
   with
   | _ -> Alcotest.fail "chunk 0's exception was lost"
   | exception Failure _ -> ());
  Alcotest.(check int) "chunk 1 finished and flushed before the raise" 1
    (Snf_obs.Metrics.value late - before)

(* [tabulate ~domains:lanes lanes f], where chunk 0 first waits (up to
   5 s) until every other chunk has started, so those chunks run on
   other domains. Fails if they never all start. *)
let on_other_domains lanes f =
  let started = Atomic.make 0 in
  Parallel.tabulate ~domains:lanes lanes (fun i ->
      if i = 0 then begin
        let deadline = Unix.gettimeofday () +. 5.0 in
        while Atomic.get started < lanes - 1 && Unix.gettimeofday () < deadline do
          Domain.cpu_relax ()
        done;
        if Atomic.get started < lanes - 1 then failwith "chunks never started elsewhere"
      end
      else Atomic.incr started;
      f i)

let test_nested_calls_reuse_domains () =
  (* A domain leaked per call would hit the runtime's 128-domain limit
     long before the last round. *)
  for round = 1 to 300 do
    let f i =
      if i = 2 then
        Array.fold_left ( + ) 0 (Parallel.tabulate ~domains:2 6 (fun j -> j * round))
      else i * round
    in
    if Parallel.tabulate ~domains:4 8 f <> Array.init 8 f then
      Alcotest.failf "round %d differs from Array.init" round
  done

let test_worker_survives_raise () =
  for _ = 1 to 5 do
    match on_other_domains 4 (fun i -> if i > 0 then failwith "worker chunk" else i) with
    | _ -> Alcotest.fail "a worker chunk's exception was lost"
    | exception Failure msg -> Alcotest.(check string) "first failure by chunk" "worker chunk" msg
  done;
  (* Three workers must still be alive to start chunks 1-3 together. *)
  Alcotest.(check bool) "next call completes" true
    (on_other_domains 4 Fun.id = Array.init 4 Fun.id)

let test_reset_leaves_no_residue () =
  let c = Snf_obs.Metrics.counter "test.parallel.reset_residue" in
  ignore (on_other_domains 4 (fun _ -> Snf_obs.Metrics.incr c));
  Snf_obs.Metrics.reset ();
  Alcotest.(check int) "reset zeroes worker counts" 0 (Snf_obs.Metrics.value c);
  (* The same workers run again: counts they made before the reset must
     not come back with their next flush. *)
  ignore (on_other_domains 4 (fun _ -> ()));
  Alcotest.(check int) "no residue after more pooled work" 0 (Snf_obs.Metrics.value c)

let test_item_prng () =
  let key = Prf.key_of_string "item-prng" in
  let stream k i n = List.init n (fun _ -> Prng.int (Parallel.item_prng ~key:k i) 1_000_000) in
  Alcotest.(check (list int)) "same (key, index), same stream" (stream key 7 20)
    (stream key 7 20);
  Alcotest.(check bool) "indexes independent" true (stream key 7 20 <> stream key 8 20);
  Alcotest.(check bool) "keys independent" true
    (stream key 7 20 <> stream (Prf.key_of_string "other") 7 20)

(* --- end-to-end: bulk encryption ------------------------------------------- *)

let mixed_relation n =
  Relation.create
    (Schema.of_attributes [ Attribute.int "a"; Attribute.int "b"; Attribute.int "c" ])
    (List.init n (fun i ->
         [| Value.Int (i mod 13); Value.Int (i * 17); Value.Int (i mod 89) |]))

let outsourced n =
  let policy =
    Snf_core.Policy.create
      [ ("a", Scheme.Det); ("b", Scheme.Ndet); ("c", Scheme.Phe) ]
  in
  let g = Snf_deps.Dep_graph.create [ "a"; "b"; "c" ] in
  let g = Snf_deps.Dep_graph.declare_dependent g "a" "b" in
  System.outsource ~name:"par" ~graph:g (mixed_relation n) policy

let test_ciphertexts_domain_independent () =
  let wire d = with_domains d (fun () -> Wire.to_string (outsourced 120).System.enc) in
  let w1 = wire 1 in
  Alcotest.(check bool) "1 vs 3 domains" true (w1 = wire 3);
  Alcotest.(check bool) "1 vs 5 domains" true (w1 = wire 5)

let test_answers_domain_independent () =
  let queries =
    [ Query.point ~select:[ "b" ] [ ("a", Value.Int 5) ];
      Query.point ~select:[ "a"; "b" ] [ ("a", Value.Int 12) ];
      Query.point ~select:[ "c" ] [ ("a", Value.Int 3) ] ]
  in
  let answers d =
    with_domains d (fun () ->
        let o = outsourced 120 in
        List.map
          (fun q ->
            match System.query o q with
            | Ok (ans, tr) ->
              (List.sort compare (Relation.rows ans), tr.Executor.scanned_cells)
            | Error e -> Alcotest.fail e)
          queries)
  in
  Alcotest.(check bool) "answers and scan counts, 1 vs 3 domains" true
    (answers 1 = answers 3)

let test_index_counters () =
  (* Index accounting lives in the process-wide Snf_obs counters shared by
     Enc_relation, Ledger, and the index ablation; a fresh store is
     observed through deltas. Outsourcing builds one form per
     deterministic column; every probe reads one, and nothing else moves
     either counter. *)
  let m_hits = Snf_obs.Metrics.counter "exec.eq_index.hits" in
  let m_builds = Snf_obs.Metrics.counter "exec.eq_index.builds" in
  let hits0 = Snf_obs.Metrics.value m_hits in
  let builds0 = Snf_obs.Metrics.value m_builds in
  let hits () = Snf_obs.Metrics.value m_hits - hits0 in
  let builds () = Snf_obs.Metrics.value m_builds - builds0 in
  let o = outsourced 120 in
  let deterministic =
    List.fold_left
      (fun acc (l : Enc_relation.enc_leaf) ->
        acc
        + List.length
            (List.filter
               (fun (c : Enc_relation.enc_column) -> Enc_relation.deterministic c.Enc_relation.scheme)
               l.Enc_relation.columns))
      0 o.System.enc.Enc_relation.leaves
  in
  Alcotest.(check bool) "the DET column is stored" true (deterministic > 0);
  Alcotest.(check int) "outsourcing builds one form per deterministic column" deterministic
    (builds ());
  Alcotest.(check int) "outsourcing reads no form" 0 (hits ());
  let q = Query.point ~select:[ "b" ] [ ("a", Value.Int 5) ] in
  (match System.query ~use_index:true o q with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  Alcotest.(check int) "first indexed query reads one form" 1 (hits ());
  (match System.query ~use_index:true o q with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  Alcotest.(check int) "second query reads it again" 2 (hits ());
  Alcotest.(check int) "queries build no form" deterministic (builds ());
  (* un-indexed scans leave the counters alone *)
  (match System.query ~use_index:false o q with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  Alcotest.(check (pair int int)) "scan path moves neither counter" (2, deterministic)
    (hits (), builds ())

let test_decrypt_roundtrip_parallel () =
  (* Decryption of a parallel-encrypted store recovers the plaintext. *)
  with_domains 3 (fun () ->
      let o = outsourced 120 in
      let reference = Query.reference_answer (mixed_relation 120) in
      List.iter
        (fun q ->
          match System.query o q with
          | Ok (ans, _) ->
            Alcotest.(check bool)
              (Format.asprintf "%a" Query.pp q)
              true
              (Relation.equal_as_sets ans (reference q))
          | Error e -> Alcotest.fail e)
        [ Query.point ~select:[ "b" ] [ ("a", Value.Int 4) ];
          Query.point ~select:[ "a"; "c" ] [ ("a", Value.Int 0) ] ])

let suite =
  [ t "tabulate matches sequential" test_tabulate_matches_sequential;
    t "map preserves order" test_map_preserves_order;
    t "raise waits for every chunk" test_raise_waits_for_every_chunk;
    t "nested calls reuse domains" test_nested_calls_reuse_domains;
    t "worker survives a raising chunk" test_worker_survives_raise;
    t "reset leaves no residue" test_reset_leaves_no_residue;
    t "item prng" test_item_prng;
    t "ciphertexts domain-independent" test_ciphertexts_domain_independent;
    t "answers domain-independent" test_answers_domain_independent;
    t "eq-index cache counters" test_index_counters;
    t "parallel encrypt roundtrip" test_decrypt_roundtrip_parallel ]
