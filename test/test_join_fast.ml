(* The join hot path: the monomorphic parallel bitonic network, the
   packed sort keys, the per-leaf tid-decrypt cache, the cached tid orders
   and the lockstep pass — each checked against its reference
   implementation — and the typed failures of a relinked tid column. *)

open Snf_exec
module Metrics = Snf_obs.Metrics
module H = Helpers

let m_hits = Metrics.counter "exec.join.tid_cache.hits"
let m_misses = Metrics.counter "exec.join.tid_cache.misses"

(* --- sort_ints vs the generic network ------------------------------------- *)

let with_domains domains f =
  let saved = Parallel.domain_count () in
  Parallel.set_domain_count domains;
  Fun.protect ~finally:(fun () -> Parallel.set_domain_count saved) f

let sorted_by_list arr =
  List.sort Int.compare (Array.to_list arr) = Array.to_list arr

let test_sort_ints_matches_list_sort =
  H.qtest ~count:300 "sort_ints agrees with List.sort"
    QCheck2.Gen.(list_size (int_range 0 300) (int_range (-50) 50))
    (fun l ->
      let arr = Array.of_list l in
      Bitonic.sort_ints arr;
      arr = Array.of_list (List.sort Int.compare l))

let test_sort_ints_counter_matches_generic =
  H.qtest ~count:100 "sort_ints ticks = generic network ticks"
    QCheck2.Gen.(list_size (int_range 0 200) (int_range (-1000) 1000))
    (fun l ->
      let a1 = Array.of_list l and a2 = Array.of_list l in
      let c1 = ref 0 and c2 = ref 0 in
      Bitonic.sort_ints ~counter:c1 a1;
      Bitonic.sort ~counter:c2 ~cmp:Int.compare a2;
      a1 = a2 && !c1 = !c2)

let test_sort_ints_fixed () =
  let check_case name input =
    let arr = Array.of_list input in
    Bitonic.sort_ints arr;
    Alcotest.(check (list int)) name (List.sort Int.compare input) (Array.to_list arr)
  in
  check_case "empty" [];
  check_case "singleton" [ 42 ];
  check_case "pair" [ 2; 1 ];
  check_case "already sorted" (List.init 100 Fun.id);
  check_case "reverse" (List.init 100 (fun i -> 99 - i));
  check_case "all duplicates" (List.init 37 (fun _ -> 7));
  check_case "non-power-of-two" (List.init 1000 (fun i -> (i * 7919) mod 211));
  check_case "negatives" [ 3; -1; 0; -7; 5; -7 ]

let test_sort_ints_counter_at_pow2 () =
  (* Without padding every comparator fires on two real elements, so the
     observed tick count is the closed form. *)
  let n = 256 in
  let arr = Array.init n (fun i -> (i * 31) mod 97) in
  let c = ref 0 in
  Bitonic.sort_ints ~counter:c arr;
  H.check_int "ticks = comparator_count at power-of-two size"
    (Bitonic.comparator_count n) !c

let test_next_pow2_edges () =
  H.check_int "next_pow2 0" 1 (Bitonic.next_pow2 0);
  H.check_int "next_pow2 1" 1 (Bitonic.next_pow2 1);
  H.check_int "next_pow2 3" 4 (Bitonic.next_pow2 3);
  H.check_int "next_pow2 4" 4 (Bitonic.next_pow2 4);
  H.check_int "next_pow2 at the cap" (1 lsl 61) (Bitonic.next_pow2 (1 lsl 61));
  Alcotest.check_raises "negative length" (Invalid_argument "Bitonic.next_pow2: negative length")
    (fun () -> ignore (Bitonic.next_pow2 (-1)));
  (try
     ignore (Bitonic.next_pow2 ((1 lsl 61) + 1));
     Alcotest.fail "next_pow2 above the cap must raise"
   with Invalid_argument _ -> ())

let test_comparator_count_edges () =
  H.check_int "count 0" 0 (Bitonic.comparator_count 0);
  H.check_int "count 1" 0 (Bitonic.comparator_count 1);
  H.check_int "count 2" 1 (Bitonic.comparator_count 2);
  H.check_int "count 4" 6 (Bitonic.comparator_count 4);
  H.check_int "count 3 (padded to 4)" 6 (Bitonic.comparator_count 3);
  H.check_int "count 8" 24 (Bitonic.comparator_count 8);
  (* Large m would overflow the closed form; it must refuse, not wrap. *)
  (try
     ignore (Bitonic.comparator_count (1 lsl 61));
     Alcotest.fail "comparator_count at 2^61 must raise"
   with Invalid_argument _ -> ())

(* The blocked parallel schedule of [sort_padded] only runs for padded
   sizes >= 2^14 with >= 2 domains; the QCheck lists above never get
   there. Sizes straddle the threshold (12000 pads to 2^14) and reach
   several phase-2 cross-block stages (70000 pads to 2^17). Keys include
   [min_int] and [max_int - 1] so an overflowing comparator would show. *)
let test_sort_ints_parallel_network () =
  let rng = Random.State.make [| 14; 2 |] in
  List.iter
    (fun n ->
      let input =
        Array.init n (fun i ->
            match i mod 997 with
            | 0 -> min_int
            | 1 -> max_int - 1
            | _ -> Random.State.int rng 20001 - 10000)
      in
      let want = List.sort Int.compare (Array.to_list input) in
      let generic = Array.copy input and c_generic = ref 0 in
      Bitonic.sort ~counter:c_generic ~cmp:Int.compare generic;
      List.iter
        (fun domains ->
          let arr = Array.copy input and c = ref 0 in
          with_domains domains (fun () -> Bitonic.sort_ints ~counter:c arr);
          let label = Printf.sprintf "n=%d domains=%d" n domains in
          H.check_bool (label ^ ": equals List.sort") true (Array.to_list arr = want);
          H.check_int (label ^ ": ticks = generic network") !c_generic !c)
        [ 1; 2; 4 ])
    [ 12000; 16384; 40000; 70000 ]

(* --- packed keys ----------------------------------------------------------- *)

let test_packed_roundtrip =
  H.qtest ~count:300 "packed key round-trip"
    QCheck2.Gen.(
      tup2 (int_range 0 Oblivious_join.Packed.max_tid) (int_range 0 Oblivious_join.Packed.max_row))
    (fun (tid, row) ->
      let e = Oblivious_join.Packed.encode ~tid ~row in
      Oblivious_join.Packed.tid e = tid && Oblivious_join.Packed.row e = row && e < max_int)

let test_packed_order =
  (* Plain int order on packed keys must be (tid, row) order. *)
  H.qtest ~count:300 "packed keys sort like (tid, row)"
    QCheck2.Gen.(
      tup2
        (tup2 (int_range 0 1000) (int_range 0 1000))
        (tup2 (int_range 0 1000) (int_range 0 1000)))
    (fun ((t1, r1), (t2, r2)) ->
      let e1 = Oblivious_join.Packed.encode ~tid:t1 ~row:r1 in
      let e2 = Oblivious_join.Packed.encode ~tid:t2 ~row:r2 in
      Int.compare e1 e2 = compare (t1, r1) (t2, r2))

let test_packed_bounds () =
  let open Oblivious_join.Packed in
  let e = encode ~tid:max_tid ~row:max_row in
  H.check_bool "max fields stay below the sentinel" true (e < max_int);
  H.check_int "max tid survives" max_tid (tid e);
  H.check_int "max row survives" max_row (row e);
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  H.check_bool "tid above bound" true (raises (fun () -> encode ~tid:(max_tid + 1) ~row:0));
  H.check_bool "negative tid" true (raises (fun () -> encode ~tid:(-1) ~row:0));
  H.check_bool "row above bound" true (raises (fun () -> encode ~tid:0 ~row:(max_row + 1)));
  H.check_bool "negative row" true (raises (fun () -> encode ~tid:0 ~row:(-1)))

(* --- a small encrypted instance -------------------------------------------- *)

let make_owner ?(rows = 60) ?(name = "joinfast") () =
  let r =
    H.relation_of_int_rows [ "a"; "b"; "c" ]
      (List.init rows (fun i -> [ i mod 11; i * 13; i mod 7 ]))
  in
  let policy =
    Snf_core.Policy.create
      [ ("a", Snf_crypto.Scheme.Det);
        ("b", Snf_crypto.Scheme.Ndet);
        ("c", Snf_crypto.Scheme.Det) ]
  in
  let g = Snf_deps.Dep_graph.create [ "a"; "b"; "c" ] in
  let g = Snf_deps.Dep_graph.declare_dependent g "a" "b" in
  let g = Snf_deps.Dep_graph.declare_dependent g "b" "c" in
  (System.outsource ~name ~graph:g r policy, r)

(* --- tid-decrypt cache ------------------------------------------------------ *)

let test_tid_cache_hits_and_misses () =
  let owner, _ = make_owner () in
  let client = owner.System.client in
  let leaf = List.hd owner.System.enc.Enc_relation.leaves in
  let h0 = Metrics.value m_hits and m0 = Metrics.value m_misses in
  let d1 = Enc_relation.decrypt_tids_cached client leaf in
  H.check_int "first lookup misses" (m0 + 1) (Metrics.value m_misses);
  let d2 = Enc_relation.decrypt_tids_cached client leaf in
  H.check_int "second lookup hits" (h0 + 1) (Metrics.value m_hits);
  H.check_bool "hit returns the same array" true (d1 == d2);
  H.check_bool "cached tids equal uncached decrypt" true
    (d1 = Enc_relation.decrypt_tids client leaf)

let test_tid_cache_epoch_invalidation () =
  let owner, _ = make_owner ~name:"joinfast.epoch" () in
  let client = owner.System.client in
  let leaf = List.hd owner.System.enc.Enc_relation.leaves in
  ignore (Enc_relation.decrypt_tids_cached client leaf);
  ignore (Enc_relation.decrypt_tids_cached client leaf);
  let epoch0 = Enc_relation.key_epoch client in
  Enc_relation.bump_key_epoch client;
  H.check_int "epoch bumped" (epoch0 + 1) (Enc_relation.key_epoch client);
  let m0 = Metrics.value m_misses in
  ignore (Enc_relation.decrypt_tids_cached client leaf);
  H.check_int "post-bump lookup misses again" (m0 + 1) (Metrics.value m_misses)

let test_tid_cache_reencrypt_invalidation () =
  let owner, r = make_owner ~name:"joinfast.reenc" () in
  let client = owner.System.client in
  let leaf = List.hd owner.System.enc.Enc_relation.leaves in
  ignore (Enc_relation.decrypt_tids_cached client leaf);
  let epoch0 = Enc_relation.key_epoch client in
  let rep = owner.System.plan.Snf_core.Normalizer.representation in
  ignore (Enc_relation.encrypt client r rep);
  H.check_bool "encrypt bumps the key epoch" true
    (Enc_relation.key_epoch client > epoch0);
  let m0 = Metrics.value m_misses in
  ignore (Enc_relation.decrypt_tids_cached client leaf);
  H.check_int "post-encrypt lookup misses" (m0 + 1) (Metrics.value m_misses)

let test_tid_cache_physical_identity () =
  (* A copied leaf (what fault injection and wire round-trips produce) has
     equal contents but a different tids array — it must MISS, so a
     corrupted store is still decrypted and authenticated afresh. *)
  let owner, _ = make_owner ~name:"joinfast.phys" () in
  let client = owner.System.client in
  let leaf = List.hd owner.System.enc.Enc_relation.leaves in
  ignore (Enc_relation.decrypt_tids_cached client leaf);
  let copy = { leaf with Enc_relation.tids = Array.copy leaf.Enc_relation.tids } in
  let m0 = Metrics.value m_misses in
  ignore (Enc_relation.decrypt_tids_cached client copy);
  H.check_int "copied leaf misses despite equal label+epoch" (m0 + 1)
    (Metrics.value m_misses)

(* [Server_api.fetch_tids] serves its memo only for the digest it was
   checked against, and a fetched column must hash to the digest
   Describe announced. A server whose [Fetch_tids] answers disagree with
   its description (one byte flipped in every answer) gets a typed
   Corruption from a cold connection, never a memoised or decoded
   column; a warm connection never asks it. *)
let test_fetch_tids_checked_against_digest () =
  let owner, _ = make_owner ~rows:80 ~name:"joinfast.memo" () in
  Fun.protect ~finally:(fun () -> System.release owner) @@ fun () ->
  let view = Backend_mem.view (Backend_mem.of_store owner.System.enc) in
  let tamper = ref false in
  let conn () =
    let serve = Server_api.session_handler view in
    let handle up =
      let down = serve up in
      match Wire.request_of_string up with
      | Wire.Fetch_tids _ when !tamper ->
        let b = Bytes.of_string down in
        let last = Bytes.length b - 1 in
        Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 1));
        Bytes.to_string b
      | _ -> down
    in
    Server_api.connect_handler ~name:"mem" ~handle ~close:ignore
  in
  let rep = owner.System.plan.Snf_core.Normalizer.representation in
  let q =
    Query.point ~select:[ "b" ]
      [ ("a", Snf_relational.Value.Int 5); ("c", Snf_relational.Value.Int 3) ]
  in
  let warm = conn () in
  let run conn = Executor.run_conn ~mode:`Sort_merge owner.System.client conn rep q in
  let requests conn = (Server_api.stats conn).Server_api.requests in
  let leaf, _, digest = List.hd (snd (Server_api.describe warm)) in
  (* The described digest: a memo hit is the same array, with no traffic. *)
  let t1 = Server_api.fetch_tids warm ~leaf ~digest in
  let sent = requests warm in
  let t2 = Server_api.fetch_tids warm ~leaf ~digest in
  H.check_bool "the described digest returns the memoised array" true (t1 == t2);
  H.check_int "a memo hit sends nothing" sent (requests warm);
  (match run warm with
   | Ok (ans, _) -> H.check_same_bag "honest answer" (System.reference owner q) ans
   | Error e -> Alcotest.fail e);
  let h0 = Metrics.value m_hits and m0 = Metrics.value m_misses in
  (match run warm with Ok _ -> () | Error e -> Alcotest.fail e);
  H.check_bool "repeat query hits the tid cache" true (Metrics.value m_hits > h0);
  H.check_int "repeat query never misses" m0 (Metrics.value m_misses);
  (* Any other digest is fetched and checked, and the memo stays. *)
  let other = Digest.string "another column" in
  (match Server_api.fetch_tids warm ~leaf ~digest:other with
   | _ -> Alcotest.fail "a column was accepted under a digest it does not have"
   | exception Integrity.Corruption c -> H.check_string "typed store corruption" "store" c.Integrity.where);
  H.check_bool "a mismatch leaves the memo" true
    (Server_api.fetch_tids warm ~leaf ~digest == t1);
  (* A dishonest server: the warm connection never fetches, so it still
     answers; a cold one fetches a column off its digest and stops. *)
  tamper := true;
  (match run warm with
   | Ok (ans, _) -> H.check_same_bag "warm: oracle answer" (System.reference owner q) ans
   | Error e -> Alcotest.fail e);
  let cold = conn () in
  (match Server_api.fetch_tids cold ~leaf ~digest with
   | _ -> Alcotest.fail "a column off its described digest was accepted"
   | exception Integrity.Corruption c ->
     H.check_string "cold fetch: typed store corruption" "store" c.Integrity.where);
  match run cold with
  | _ -> Alcotest.fail "a flipped tid byte went undetected"
  | exception Integrity.Corruption _ -> ()

(* --- cached tid orders and the lockstep pass ---------------------------------- *)

(* Leaves that are only tid arrays: the cascade oracle reads them
   through [tids_for], so no encryption is needed to compare it with the
   pass. *)
let bare_leaves tid_arrays =
  List.mapi
    (fun i tids ->
      ( { Enc_relation.label = Printf.sprintf "L%d" i; row_count = Array.length tids;
          tids = [||]; columns = [] },
        tids ))
    tid_arrays

let bare_client =
  lazy (Enc_relation.make_client ~relation_name:"lockstep" ~master:"lockstep" ())

(* The cascade under the masks, [drop_tid] applied, as per-leaf slot
   arrays: the pass's result shape. *)
let cascade_slots tid_arrays masks ~drop_tid =
  let leaves = bare_leaves tid_arrays in
  let tids_for (l : Enc_relation.enc_leaf) = List.assoc l leaves in
  let joined =
    Snf_reference.Join_reference.join_many_cascade ~tids_for
      ~masks:(List.map2 (fun (l, _) m -> (l, Bitmask.to_bools m)) leaves masks)
      (Oblivious_join.fresh_stats ()) (Lazy.force bare_client)
    |> Array.to_list
    |> List.filter (fun (tid, _) -> not (drop_tid tid))
  in
  Array.init (List.length tid_arrays) (fun i ->
      Array.of_list (List.map (fun (_, rows) -> List.nth rows i) joined))

let lockstep_slots tid_arrays masks ~drop_tid =
  let stats = Oblivious_join.fresh_stats () in
  let orders = List.map (Oblivious_join.tid_order stats) tid_arrays in
  if List.exists Option.is_none orders then None
  else
    Oblivious_join.lockstep stats ~drop_tid
      (Array.of_list (List.map Option.get orders))
      (Array.of_list masks)

(* k leaves, each a keyed shuffle of the same tid set, random masks and a
   random tombstone predicate. *)
let gen_aligned =
  QCheck2.Gen.(
    let* k = int_range 2 4 in
    let* n = int_range 0 60 in
    let* seed = int_range 0 100_000 in
    let* modulus = int_range 2 5 in
    let* bits = array_size (return (k * n)) (int_range 0 3) in
    return (k, n, seed, modulus, bits))

let test_lockstep_matches_cascade =
  H.qtest ~count:200 "lockstep = cascade (k = 2..4, masks, drop_tid)" gen_aligned
    (fun (k, n, seed, modulus, bits) ->
      let prng = Snf_crypto.Prng.create seed in
      (* Sparse, unordered tids: the pass must not assume 0..n-1. *)
      let base = Array.init n (fun i -> (i * 7) + (seed mod 5)) in
      let tid_arrays =
        List.init k (fun _ ->
            let a = Array.copy base in
            Snf_crypto.Prng.shuffle prng a;
            a)
      in
      let masks =
        List.init k (fun i -> Bitmask.of_bools (Array.init n (fun j -> bits.((i * n) + j) > 0)))
      in
      let drop_tid tid = tid mod modulus = 0 in
      lockstep_slots tid_arrays masks ~drop_tid
      = Some (cascade_slots tid_arrays masks ~drop_tid))

let test_lockstep_misaligned () =
  let all n = Bitmask.create n true in
  let none label tid_arrays =
    H.check_bool label true
      (lockstep_slots tid_arrays (List.map (fun a -> all (Array.length a)) tid_arrays)
         ~drop_tid:(fun _ -> false)
      = None)
  in
  none "duplicate tid" [ [| 3; 1; 3 |]; [| 1; 3; 3 |] ];
  none "duplicate tid in one leaf only" [ [| 0; 1; 2 |]; [| 2; 0; 0 |] ];
  none "tid sets disagree" [ [| 0; 1; 2 |]; [| 0; 1; 5 |] ];
  none "unequal row counts" [ [| 0; 1; 2 |]; [| 0; 1 |] ];
  none "unpackable tid" [ [| 0; Oblivious_join.Packed.max_tid + 1 |]; [| 0; 1 |] ];
  none "negative tid" [ [| 0; -1 |]; [| -1; 0 |] ];
  (* The aligned control passes. *)
  H.check_bool "aligned control" true
    (lockstep_slots [ [| 2; 0; 1 |]; [| 1; 2; 0 |] ] [ all 3; all 3 ] ~drop_tid:(fun _ -> false)
    = Some [| [| 1; 2; 0 |]; [| 2; 0; 1 |] |])

let test_order_cache () =
  let owner, _ = make_owner ~name:"joinfast.order" () in
  let client = owner.System.client in
  let leaf = List.hd owner.System.enc.Enc_relation.leaves in
  let builds = ref 0 in
  let build tids =
    incr builds;
    Oblivious_join.tid_order (Oblivious_join.fresh_stats ()) tids
  in
  let order ?(leaf = leaf) () = Option.get (Enc_relation.tid_order_cached client leaf ~build) in
  let o1 = order () in
  H.check_int "first lookup builds" 1 !builds;
  H.check_bool "repeat hits, same array" true (order () == o1);
  H.check_int "no second build" 1 !builds;
  Enc_relation.bump_key_epoch client;
  let o3 = order () in
  H.check_int "bump_key_epoch misses" 2 !builds;
  H.check_bool "rebuilt order is equal" true (o3 = o1 && o3 != o1);
  ignore (order ~leaf:{ leaf with Enc_relation.tids = Array.copy leaf.Enc_relation.tids } ());
  H.check_int "physically different tid array misses" 3 !builds;
  (* A builder that cannot order the leaf is asked again next time. *)
  Enc_relation.bump_key_epoch client;
  H.check_bool "an unbuildable order" true
    (Enc_relation.tid_order_cached client leaf ~build:(fun _ -> None) = None);
  ignore (order ());
  H.check_int "is not cached" 4 !builds

(* Serve [owner]'s store over a connection; [tamper ()] rewrites the
   served store's tid columns through [rewrite], so Describe announces
   the digests of the rewritten columns and a warm client fetches them. *)
let tampering_conn owner rewrite =
  let enc = owner.System.enc in
  let view = Backend_mem.view (Backend_mem.of_store enc) in
  let tamper () =
    view.Server_api.install
      (Wire.to_string
         { enc with
           Enc_relation.leaves =
             List.map
               (fun (l : Enc_relation.enc_leaf) ->
                 { l with Enc_relation.tids = rewrite l.Enc_relation.label l.Enc_relation.tids })
               enc.Enc_relation.leaves })
  in
  (Server_api.connect_handler ~name:"mem" ~handle:(Server_api.session_handler view)
     ~close:ignore, tamper)

let join_query =
  Query.point ~select:[ "b" ]
    [ ("a", Snf_relational.Value.Int 5); ("c", Snf_relational.Value.Int 3) ]

(* After the orders are cached, a server that flips one byte of one tid
   ciphertext must end in the oracle answer or a typed Corruption, never
   a wrong answer. *)
let test_flip_after_orders_cached () =
  let owner, _ = make_owner ~rows:50 ~name:"joinfast.flip" () in
  Fun.protect ~finally:(fun () -> System.release owner) @@ fun () ->
  let rep = owner.System.plan.Snf_core.Normalizer.representation in
  let want = System.reference owner join_query in
  List.iter
    (fun (slot, byte) ->
      let flip _leaf tids =
        let tids = Array.copy tids in
        let ct = Bytes.of_string tids.(slot mod Array.length tids) in
        let pos = byte mod Bytes.length ct in
        Bytes.set ct pos (Char.chr (Char.code (Bytes.get ct pos) lxor 0x10));
        tids.(slot mod Array.length tids) <- Bytes.to_string ct;
        tids
      in
      let conn, tamper = tampering_conn owner flip in
      let run () =
        Executor.run_conn ~mode:`Sort_merge owner.System.client conn rep join_query
      in
      (match run () with
       | Ok (ans, _) -> H.check_same_bag "honest answer" want ans
       | Error e -> Alcotest.fail e);
      (match run () with
       | Ok (_, tr) -> H.check_int "orders cached" 0 tr.Executor.rows_processed
       | Error e -> Alcotest.fail e);
      tamper ();
      match run () with
      | Ok (ans, _) -> H.check_same_bag "flip: oracle answer" want ans
      | Error e -> Alcotest.fail e
      | exception Integrity.Corruption _ -> ())
    [ (0, 0); (7, 3); (19, 11); (49, 40) ]

let expect_corruption label ~where f =
  match f () with
  | _ -> Alcotest.fail (label ^ ": a relinked store returned an answer")
  | exception Integrity.Corruption c -> H.check_string (label ^ ": where") where c.Integrity.where

(* The first leaf [join_query]'s plan joins. *)
let planned_leaf owner =
  match Planner.decide owner.System.plan.Snf_core.Normalizer.representation join_query with
  | Ok d ->
    let leaves = d.Planner.d_plan.Planner.leaves in
    H.check_bool "the query joins" true (List.length leaves >= 2);
    List.hd leaves
  | Error e -> Alcotest.fail e

(* Rewrites slots 0 and 1 of [victim]'s tid column through [f]. *)
let relink victim f leaf tids =
  if leaf <> victim then tids
  else begin
    let tids = Array.copy tids in
    let t0, t1 = f tids.(0) tids.(1) in
    tids.(0) <- t0;
    tids.(1) <- t1;
    tids
  end

(* A server that copies one authentic tid ciphertext over another leaves
   a duplicated and a missing tid: the tid check on the cache fill raises
   typed corruption, for a lone query and for a batch of two. *)
let test_misaligned_store_is_corruption () =
  let owner, _ = make_owner ~rows:40 ~name:"joinfast.dup" () in
  Fun.protect ~finally:(fun () -> System.release owner) @@ fun () ->
  let client = owner.System.client in
  let rep = owner.System.plan.Snf_core.Normalizer.representation in
  let victim = planned_leaf owner in
  let conn, tamper = tampering_conn owner (relink victim (fun t0 _ -> (t0, t0))) in
  let q2 = Query.point ~select:[ "b" ] [ ("c", Snf_relational.Value.Int 3) ] in
  (match Executor.run_conn ~mode:`Sort_merge client conn rep join_query with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  tamper ();
  expect_corruption "single query" ~where:"tid" (fun () ->
      Executor.run_conn ~mode:`Sort_merge client conn rep join_query);
  expect_corruption "batch of two" ~where:"tid" (fun () ->
      Executor.run_batch ~mode:`Sort_merge client conn rep [ join_query; q2 ])

(* Leaves whose tid columns each pass the slot check but hold different
   tid sets — one leaf served from an encryption of fewer rows under the
   same keys — are misaligned: the lockstep pass raises typed store
   corruption, never a partial answer. *)
let test_unequal_leaves_are_corruption () =
  let owner, r = make_owner ~rows:40 ~name:"joinfast.short" () in
  Fun.protect ~finally:(fun () -> System.release owner) @@ fun () ->
  let client = owner.System.client in
  let rep = owner.System.plan.Snf_core.Normalizer.representation in
  let victim = planned_leaf owner in
  let short =
    Enc_relation.encrypt client
      (Snf_relational.Relation.create (Snf_relational.Relation.schema r)
         (List.filteri (fun i _ -> i < 39) (Snf_relational.Relation.rows r)))
      rep
  in
  let enc = owner.System.enc in
  let mixed =
    { enc with
      Enc_relation.leaves =
        List.map
          (fun (l : Enc_relation.enc_leaf) ->
            if l.Enc_relation.label = victim then Enc_relation.find_leaf short victim else l)
          enc.Enc_relation.leaves }
  in
  let conn () = Server_api.connect (module Backend_mem) (Backend_mem.of_store mixed) in
  expect_corruption "single query" ~where:"store" (fun () ->
      Executor.run_conn ~mode:`Sort_merge client (conn ()) rep join_query);
  expect_corruption "batch of two" ~where:"store" (fun () ->
      Executor.run_batch ~mode:`Sort_merge client (conn ()) rep [ join_query; join_query ]);
  (* No row holds a = 99, so that predicate's leaf answers a mask with
     no bit set. *)
  let nothing =
    Query.point ~select:[ "b" ]
      [ ("a", Snf_relational.Value.Int 99); ("c", Snf_relational.Value.Int 3) ]
  in
  expect_corruption "a query matching no row" ~where:"store" (fun () ->
      Executor.run_conn ~mode:`Sort_merge client (conn ()) rep nothing)

(* The pass reads every rank whatever the masks hold, so a misaligned
   store is caught when no mask bit is set and when only the masks' last
   byte is: a pass that skipped zero mask bytes would miss the rank-1
   mismatch below (slots 0 and 1, in the first byte) and answer. The
   executor turns that refusal into typed store corruption (see the
   unequal-leaves case, which also runs a query matching no row). *)
let test_misaligned_under_sparse_masks () =
  let n = 20 in
  let straight = Array.init n Fun.id in
  let duplicated = Array.init n (fun i -> if i = 1 then 0 else i) in
  let last_byte () =
    let m = Bitmask.create n false in
    for s = n land lnot 7 to n - 1 do
      Bitmask.set m s
    done;
    m
  in
  List.iter
    (fun (label, mask) ->
      H.check_bool (label ^ ": the pass refuses the store") true
        (lockstep_slots [ straight; duplicated ] [ mask (); mask () ] ~drop_tid:(fun _ -> false)
        = None);
      H.check_bool (label ^ ": the aligned control answers") true
        (lockstep_slots [ straight; straight ] [ mask (); mask () ] ~drop_tid:(fun _ -> false)
        <> None))
    [ ("no bit set", fun () -> Bitmask.create n false); ("last byte only", last_byte) ]

(* Two authentic tid ciphertexts of a planned leaf swapped: every tid is
   present once, so only the slot check tells the relinked rows apart.
   Sort-merge raises typed corruption; ORAM and binning map slots to tids
   through the keyed permutation and still answer the oracle. *)
let test_swapped_tids () =
  let owner, _ = make_owner ~rows:40 ~name:"joinfast.swap" () in
  Fun.protect ~finally:(fun () -> System.release owner) @@ fun () ->
  let client = owner.System.client in
  let rep = owner.System.plan.Snf_core.Normalizer.representation in
  let victim = planned_leaf owner in
  let conn, tamper = tampering_conn owner (relink victim (fun t0 t1 -> (t1, t0))) in
  tamper ();
  expect_corruption "sort-merge" ~where:"tid" (fun () ->
      Executor.run_conn ~mode:`Sort_merge client conn rep join_query);
  let want = System.reference owner join_query in
  List.iter
    (fun mode ->
      match Executor.run_conn ~mode client conn rep join_query with
      | Ok (ans, _) -> H.check_same_bag "oracle answer" want ans
      | Error e -> Alcotest.fail e)
    [ `Oram; `Binning 4 ]

(* An order of a 1-row leaf sorts without a comparator, but the query
   that builds it is still charged its row, and a warm repeat nothing. *)
let test_one_row_leaf_charged () =
  let owner, _ = make_owner ~rows:1 ~name:"joinfast.onerow" () in
  let q = Query.point ~select:[ "b" ] [ ("a", Snf_relational.Value.Int 0) ] in
  let trace () =
    match System.query ~mode:`Sort_merge owner q with
    | Ok (_, tr) -> tr
    | Error e -> Alcotest.fail e
  in
  let cold = trace () in
  let leaves = List.length cold.Executor.plan.Planner.leaves in
  H.check_bool "a join" true (leaves >= 2);
  H.check_int "no comparator on 1 row" 0 cold.Executor.comparisons;
  H.check_int "one row charged per leaf built" leaves cold.Executor.rows_processed;
  let warm = trace () in
  H.check_int "warm repeat charged nothing" 0 warm.Executor.rows_processed

(* --- end-to-end: cache and domain count are invisible ----------------------- *)

let test_query_cache_and_domains_invisible () =
  let owner, _ = make_owner ~rows:120 ~name:"joinfast.e2e" () in
  let q =
    Query.point ~select:[ "b" ]
      [ ("a", Snf_relational.Value.Int 5); ("c", Snf_relational.Value.Int 3) ]
  in
  (* A cold run starts from an emptied tid cache ([bump_key_epoch]). *)
  let run ~domains ~cold mode =
    if cold then Enc_relation.bump_key_epoch owner.System.client;
    let m0 = Metrics.value m_misses in
    with_domains domains (fun () ->
        match System.query ~mode owner q with
        | Ok (ans, tr) -> (H.bag ans, tr, Metrics.value m_misses - m0)
        | Error e -> Alcotest.fail ("query failed: " ^ e))
  in
  (* Under sort-merge a cold run misses the tid cache and builds the tid
     orders; a warm one compares nothing. *)
  let check_cache mode ~domains ~cold tr misses =
    if mode = `Sort_merge then
      let label = Printf.sprintf "domains=%d cold=%b" domains cold in
      if cold then begin
        H.check_bool (label ^ ": tid-cache misses") true (misses > 0);
        H.check_bool (label ^ ": orders built") true (tr.Executor.comparisons > 0)
      end
      else H.check_int (label ^ ": no comparisons") 0 tr.Executor.comparisons
  in
  List.iter
    (fun mode ->
      let want, tr, misses = run ~domains:1 ~cold:true mode in
      check_cache mode ~domains:1 ~cold:true tr misses;
      List.iter
        (fun (domains, cold) ->
          let got, tr, misses = run ~domains ~cold mode in
          Alcotest.(check (list string))
            (Printf.sprintf "identical bag (domains=%d cold=%b)" domains cold)
            want got;
          check_cache mode ~domains ~cold tr misses)
        [ (1, false); (4, true); (4, false) ])
    [ `Sort_merge; `Oram ];
  (* The cache actually engaged: the warm runs above must have hit. *)
  H.check_bool "cache registered hits" true (Metrics.value m_hits > 0)

let suite =
  [ test_sort_ints_matches_list_sort;
    test_sort_ints_counter_matches_generic;
    Alcotest.test_case "sort_ints fixed cases" `Quick test_sort_ints_fixed;
    Alcotest.test_case "sort_ints counter closed form" `Quick
      test_sort_ints_counter_at_pow2;
    Alcotest.test_case "sort_ints parallel network" `Quick
      test_sort_ints_parallel_network;
    Alcotest.test_case "next_pow2 edges" `Quick test_next_pow2_edges;
    Alcotest.test_case "comparator_count edges" `Quick test_comparator_count_edges;
    test_packed_roundtrip;
    test_packed_order;
    Alcotest.test_case "packed bounds" `Quick test_packed_bounds;
    Alcotest.test_case "tid cache hits and misses" `Quick test_tid_cache_hits_and_misses;
    Alcotest.test_case "tid cache epoch invalidation" `Quick
      test_tid_cache_epoch_invalidation;
    Alcotest.test_case "tid cache re-encrypt invalidation" `Quick
      test_tid_cache_reencrypt_invalidation;
    Alcotest.test_case "tid cache physical identity" `Quick
      test_tid_cache_physical_identity;
    Alcotest.test_case "fetch_tids checks the described digest" `Quick
      test_fetch_tids_checked_against_digest;
    test_lockstep_matches_cascade;
    Alcotest.test_case "lockstep: misaligned stores" `Quick test_lockstep_misaligned;
    Alcotest.test_case "tid order cache: hit, epoch, identity" `Quick test_order_cache;
    Alcotest.test_case "tid flip after orders cached" `Quick test_flip_after_orders_cached;
    Alcotest.test_case "misaligned store is corruption" `Quick
      test_misaligned_store_is_corruption;
    Alcotest.test_case "unequal leaves are corruption" `Quick
      test_unequal_leaves_are_corruption;
    Alcotest.test_case "swapped tids: sort-merge typed, anchors oracle" `Quick
      test_swapped_tids;
    Alcotest.test_case "1-row leaf charged its rows" `Quick test_one_row_leaf_charged;
    Alcotest.test_case "query: cache and domains invisible" `Quick
      test_query_cache_and_domains_invisible;
    Alcotest.test_case "misaligned store under empty and last-byte masks" `Quick
      test_misaligned_under_sparse_masks ]
