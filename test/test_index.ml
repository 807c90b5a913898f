open Snf_relational
open Snf_exec
module Scheme = Snf_crypto.Scheme

let t name f = Alcotest.test_case name `Quick f

let owner () =
  System.outsource ~name:"idx" (Helpers.example1_relation ())
    (Helpers.example1_policy ())
    ~graph:(Helpers.example1_graph ())

let test_index_construction () =
  let o = owner () in
  let enc = o.System.enc in
  (* ZipCode is DET: indexable. *)
  let zip_leaf =
    List.find
      (fun (l : Enc_relation.enc_leaf) ->
        List.exists (fun c -> c.Enc_relation.attr = "ZipCode") l.Enc_relation.columns)
      enc.Enc_relation.leaves
  in
  (match Enc_relation.eq_index enc ~leaf:zip_leaf.Enc_relation.label ~attr:"ZipCode" with
   | Some idx ->
     Alcotest.(check int) "four distinct zips" 4 (Hashtbl.length idx);
     let total = Hashtbl.fold (fun _ slots acc -> acc + Array.length slots) idx 0 in
     Alcotest.(check int) "all slots indexed" 6 total
   | None -> Alcotest.fail "expected a DET index");
  (* memoized *)
  Alcotest.(check int) "cache populated" 1 (Hashtbl.length enc.Enc_relation.index_cache);
  (* NDET State is not indexable *)
  let state_leaf =
    List.find
      (fun (l : Enc_relation.enc_leaf) ->
        List.exists (fun c -> c.Enc_relation.attr = "State") l.Enc_relation.columns)
      enc.Enc_relation.leaves
  in
  Alcotest.(check bool) "ndet not indexable" true
    (Enc_relation.eq_index enc ~leaf:state_leaf.Enc_relation.label ~attr:"State" = None)

let test_indexed_queries_agree () =
  let o = owner () in
  let queries =
    [ Query.point ~select:[ "State" ] [ ("ZipCode", Value.Int 94016) ];
      Query.point ~select:[ "Income" ] [ ("Income", Value.Int 70) ] (* OPE point *);
      Query.point ~select:[ "State" ] [ ("ZipCode", Value.Int 99999) ] (* empty *) ]
  in
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (Format.asprintf "indexed: %a" Query.pp q)
        true
        (System.verify o q && System.verify ~mode:`Oram o q
        &&
        match System.query ~use_index:true o q with
        | Ok (ans, _) ->
          Helpers.bag ans = Helpers.bag (System.reference o q)
        | Error _ -> false))
    queries

let test_index_reduces_scanning () =
  let o = owner () in
  let q = Query.point ~select:[ "State" ] [ ("ZipCode", Value.Int 94016) ] in
  let scanned use_index =
    match System.query ~use_index o q with
    | Ok (_, tr) -> (tr.Executor.scanned_cells, tr.Executor.index_probes)
    | Error e -> Alcotest.fail e
  in
  let scan_cells, scan_probes = scanned false in
  let idx_cells, idx_probes = scanned true in
  Alcotest.(check int) "scan evaluates every cell" 6 scan_cells;
  Alcotest.(check int) "no probes without index" 0 scan_probes;
  Alcotest.(check int) "index eliminates the scan" 0 idx_cells;
  Alcotest.(check bool) "probe cost = hits + 1" true (idx_probes = 3)

let test_range_predicates_still_scan () =
  let o = owner () in
  let q = Query.range ~select:[ "State" ] [ ("Income", Value.Int 60, Value.Int 100) ] in
  match System.query ~use_index:true o q with
  | Ok (_, tr) ->
    Alcotest.(check bool) "range scans even with indexes on" true
      (tr.Executor.scanned_cells > 0 && tr.Executor.index_probes = 0);
    Alcotest.(check bool) "verified" true (System.verify o q)
  | Error e -> Alcotest.fail e

let prop_indexed_equals_scanned =
  Helpers.qtest ~count:60 "indexed and scanned execution agree on random data"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 25) (pair (int_bound 4) (int_bound 4)))
        (int_bound 4))
    (fun (rows, needle) ->
      let r =
        Helpers.relation_of_int_rows [ "k"; "v" ]
          (List.map (fun (k, v) -> [ k; v ]) rows)
      in
      let policy =
        Snf_core.Policy.create [ ("k", Scheme.Det); ("v", Scheme.Ndet) ]
      in
      let g = Snf_deps.Dep_graph.create [ "k"; "v" ] in
      let g = Snf_deps.Dep_graph.declare_dependent g "k" "v" in
      let o = System.outsource ~name:"p" ~graph:g r policy in
      let q = Query.point ~select:[ "v" ] [ ("k", Value.Int needle) ] in
      match (System.query ~use_index:true o q, System.query o q) with
      | Ok (a, _), Ok (b, _) -> Helpers.bag a = Helpers.bag b
      | _ -> false)

let test_index_with_oram_mode () =
  (* indexes apply to the server filtering stage regardless of the
     reconstruction mechanism *)
  let o = owner () in
  let q = Query.point ~select:[ "State" ] [ ("ZipCode", Value.Int 94016) ] in
  match System.query ~mode:`Oram ~use_index:true o q with
  | Ok (ans, tr) ->
    Alcotest.(check int) "two rows" 2 (Relation.cardinality ans);
    Alcotest.(check bool) "index used" true (tr.Executor.index_probes > 0);
    Alcotest.(check bool) "oram used" true (tr.Executor.oram_bucket_touches > 0)
  | Error e -> Alcotest.fail e

(* --- equality filters answered from the index ------------------------------ *)

module Ore = Snf_crypto.Ore

let ore = Ore.create ~key:(Snf_crypto.Prf.key_of_string "index-filter-ore") ~bits:8
let det_pool = [| "d0"; "d1"; "d2" |]
let ord_pool = [| 10; 20; 30 |]

(* A leaf of [n] rows over every column kind, values drawn from small
   pools so they repeat; "bad_det" and "bad_ope" each hold one cell of
   the wrong shape when [n > 0]. *)
let random_leaf rng label n =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let col attr scheme cell = { Enc_relation.attr; scheme; cells = Array.init n cell } in
  let det = col "det" Scheme.Det (fun _ -> Enc_relation.C_bytes (pick det_pool)) in
  let ope =
    col "ope" Scheme.Ope (fun _ -> Enc_relation.C_ord { ord = pick ord_pool; payload = "p" })
  in
  let with_bad_cell (c : Enc_relation.enc_column) attr bad =
    let cells = Array.copy c.Enc_relation.cells in
    if n > 0 then cells.(Random.State.int rng n) <- bad;
    { c with Enc_relation.attr; cells }
  in
  { Enc_relation.label;
    row_count = n;
    tids = Array.init n (Printf.sprintf "tid%d");
    columns =
      [ det;
        ope;
        col "ore" Scheme.Ore (fun _ ->
            Enc_relation.C_ore { ore = Ore.encrypt ore (pick ord_pool); payload = "p" });
        col "ndet" Scheme.Ndet (fun i -> Enc_relation.C_bytes (Printf.sprintf "n%d" i));
        col "plain" Scheme.Plain (fun _ -> Enc_relation.C_plain (Value.Int (pick ord_pool)));
        with_bad_cell det "bad_det" (Enc_relation.C_ord { ord = 10; payload = "p" });
        with_bad_cell ope "bad_ope" (Enc_relation.C_bytes "d0") ] }

let random_op rng n =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let attr () =
    pick [| "det"; "ope"; "ore"; "ndet"; "plain"; "bad_det"; "bad_ope"; "det"; "ope"; "nope" |]
  in
  let ord () = pick [| 10; 20; 30; 99 |] in
  match Random.State.int rng 10 with
  | 0 | 1 ->
    let slots = List.filter (fun _ -> Random.State.bool rng) (List.init n Fun.id) in
    Wire.F_slots (if Random.State.int rng 12 = 0 then n :: slots else slots)
  | 2 | 3 | 4 | 5 | 6 ->
    let tok =
      match Random.State.int rng 6 with
      | 0 | 1 -> Enc_relation.Eq_det (pick [| "d0"; "d1"; "d2"; "absent" |])
      | 2 | 3 -> Enc_relation.Eq_ord (ord ())
      | 4 -> Enc_relation.Eq_plain (Value.Int (ord ()))
      | _ -> Enc_relation.Eq_ore (Ore.encrypt ore (ord ()))
    in
    Wire.F_eq (attr (), tok)
  | _ ->
    let lo = ord () and hi = ord () in
    let tok =
      match Random.State.int rng 3 with
      | 0 -> Enc_relation.Rng_ord (lo, hi)
      | 1 -> Enc_relation.Rng_plain (Value.Int lo, Value.Int hi)
      | _ -> Enc_relation.Rng_ore (Ore.encrypt ore lo, Ore.encrypt ore hi)
    in
    Wire.F_range (attr (), tok)

let outcome f =
  match f () with
  | resp -> Ok (Wire.response_to_string resp)
  | exception Not_found -> Error "Not_found"
  | exception Invalid_argument msg -> Error ("Invalid_argument " ^ msg)

let eq_index_counters () =
  Snf_obs.Metrics.
    (value (counter "exec.eq_index.hits"), value (counter "exec.eq_index.builds"))

(* Random Q_batches over random leaves: [Server_api.dispatch] answers
   with the scan reference's bytes, or raises its error, and moves no
   exec.eq_index.* counter. Each store answers several batches, so
   later ones read tables built by earlier ones. *)
let test_filter_index_matches_scan () =
  let rng = Random.State.make [| 29 |] in
  let counters0 = eq_index_counters () in
  let errors = ref 0 in
  for _ = 1 to 300 do
    let rows = [ ("L0", 0); ("L1", 1); ("L13", 13) ] in
    let store =
      { Enc_relation.relation_name = "R";
        leaves = List.map (fun (label, n) -> random_leaf rng label n) rows;
        paillier_public = Snf_crypto.Paillier.public_of_n (Snf_bignum.Nat.of_int 35);
        index_cache = Hashtbl.create 4 }
    in
    let view = Backend_mem.view (Backend_mem.of_store store) in
    for _ = 1 to 4 do
      let queries =
        List.init (1 + Random.State.int rng 3) (fun _ ->
            List.init (1 + Random.State.int rng 3) (fun _ ->
                let label, n = List.nth rows (Random.State.int rng 3) in
                (label, List.init (Random.State.int rng 5) (fun _ -> random_op rng n))))
      in
      let expected = outcome (fun () -> Scan_reference.q_batch store queries) in
      if Result.is_error expected then incr errors;
      Alcotest.(check (result string string))
        "dispatch answers as the scan reference" expected
        (outcome (fun () -> Server_api.dispatch view (Wire.Q_batch { queries })))
    done
  done;
  Alcotest.(check bool) "some batches raised" true (!errors > 0);
  Alcotest.(check (pair int int)) "filters move no eq_index counter" counters0
    (eq_index_counters ())

(* [Fault.flip_cell] copies the store with [{ t with leaves }], so the
   copy shares the original's index cache; each must answer from its own
   cells. *)
let test_flipped_copy_answers_from_own_cells () =
  let o = owner () in
  let enc = o.System.enc in
  let leaf =
    (List.find
       (fun (l : Enc_relation.enc_leaf) ->
         List.exists (fun c -> c.Enc_relation.attr = "ZipCode") l.Enc_relation.columns)
       enc.Enc_relation.leaves)
      .Enc_relation.label
  in
  let flipped, slot = Snf_check.Fault.flip_cell ~seed:3 enc ~leaf ~attr:"ZipCode" in
  let cell (t : Enc_relation.t) =
    (Enc_relation.column (Enc_relation.find_leaf t leaf) "ZipCode").Enc_relation.cells.(slot)
  in
  let tok =
    match cell enc with
    | Enc_relation.C_bytes b -> Enc_relation.Eq_det b
    | _ -> Alcotest.fail "ZipCode is DET"
  in
  let queries = [ [ (leaf, [ Wire.F_eq ("ZipCode", tok) ]) ] ] in
  let answer (t : Enc_relation.t) =
    let resp = Server_api.dispatch (Backend_mem.view (Backend_mem.of_store t)) (Wire.Q_batch { queries }) in
    Alcotest.(check string) "as the scan reference"
      (Wire.response_to_string (Scan_reference.q_batch t queries))
      (Wire.response_to_string resp);
    match resp with
    | Wire.R_batch { results = [ [ (mask, _) ] ] } -> Bitmask.get mask slot
    | _ -> Alcotest.fail "one mask expected"
  in
  Alcotest.(check bool) "the copy shares the cache" true
    (flipped.Enc_relation.index_cache == enc.Enc_relation.index_cache);
  Alcotest.(check bool) "the flipped cell is still canonical" true
    (match cell flipped with Enc_relation.C_bytes _ -> true | _ -> false);
  Alcotest.(check bool) "original matches its slot" true (answer enc);
  Alcotest.(check bool) "copy does not match its flipped slot" false (answer flipped);
  Alcotest.(check bool) "original again" true (answer enc);
  (* The filters built that table; its first probe still counts a build. *)
  let hits0, builds0 = eq_index_counters () in
  ignore (Enc_relation.eq_index enc ~leaf ~attr:"ZipCode");
  ignore (Enc_relation.eq_index enc ~leaf ~attr:"ZipCode");
  let hits1, builds1 = eq_index_counters () in
  Alcotest.(check (pair int int)) "first probe builds, second hits" (1, 1)
    (hits1 - hits0, builds1 - builds0)

let suite =
  [ t "index construction" test_index_construction;
    t "indexed queries agree" test_indexed_queries_agree;
    t "index reduces scanning" test_index_reduces_scanning;
    t "ranges still scan" test_range_predicates_still_scan;
    prop_indexed_equals_scanned;
    t "index with oram mode" test_index_with_oram_mode;
    t "filters answer as the scan reference" test_filter_index_matches_scan;
    t "a flipped copy answers from its own cells" test_flipped_copy_answers_from_own_cells ]
