open Snf_relational
open Snf_exec
open Snf_reference
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
  (match Enc_relation.eq_index zip_leaf ~attr:"ZipCode" with
   | Some form ->
     Alcotest.(check int) "four distinct zips" 4 (Hashtbl.length form.Enc_relation.key_classes);
     let total =
       Hashtbl.fold
         (fun key _ acc -> acc + Array.length (Enc_relation.key_slots form key))
         form.Enc_relation.key_classes 0
     in
     Alcotest.(check int) "all slots indexed" 6 total
   | None -> Alcotest.fail "expected a DET index");
  (* built by the read above, and kept with the column *)
  Alcotest.(check bool) "the column carries its form" true
    (Option.is_some (Atomic.get (Enc_relation.column zip_leaf "ZipCode").Enc_relation.built));
  (* NDET State is not indexable *)
  let state_leaf =
    List.find
      (fun (l : Enc_relation.enc_leaf) ->
        List.exists (fun c -> c.Enc_relation.attr = "State") l.Enc_relation.columns)
      enc.Enc_relation.leaves
  in
  Alcotest.(check bool) "ndet not indexable" true
    (Enc_relation.eq_index state_leaf ~attr:"State" = None)

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
    Alcotest.(check bool) "oram used" true (tr.Executor.mode = `Oram);
    Alcotest.(check int) "the linear-scan ORAM touches no bucket" 0
      tr.Executor.oram_bucket_touches
  | Error e -> Alcotest.fail e

(* --- equality filters answered from the index ------------------------------ *)

module Ore = Snf_crypto.Ore

let ore = Ore.create ~key:(Snf_crypto.Prf.key_of_string "index-filter-ore") ~bits:8
let det_pool = [| "d0"; "d1"; "d2" |]
let ord_pool = [| 10; 20; 30 |]

(* A leaf of [n] rows over every column kind, values drawn from small
   pools so they repeat. "ope2" holds two payloads under each ordinal;
   "bad_det", "bad_ope" and "bad_phe" each hold one cell of the wrong
   shape when [n > 0]. *)
let random_leaf rng label n =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let cells cell = Array.init n cell in
  let col attr scheme cells = Enc_relation.make_column ~attr ~scheme cells in
  let det = cells (fun _ -> Enc_relation.C_bytes (pick det_pool)) in
  let ope = cells (fun _ -> Enc_relation.C_ord { ord = pick ord_pool; payload = "p" }) in
  let phe = cells (fun _ -> Enc_relation.C_nat (Snf_bignum.Nat.of_int (1 + Random.State.int rng 1000))) in
  let with_bad_cell cells bad =
    let cells = Array.copy cells in
    if n > 0 then cells.(Random.State.int rng n) <- bad;
    cells
  in
  { Enc_relation.label;
    row_count = n;
    tids = Array.init n (Printf.sprintf "tid%d");
    columns =
      [ col "det" Scheme.Det det;
        col "ope" Scheme.Ope ope;
        col "ope2" Scheme.Ope
          (cells (fun _ -> Enc_relation.C_ord { ord = pick ord_pool; payload = pick [| "p"; "q" |] }));
        col "ore" Scheme.Ore
          (cells (fun _ -> Enc_relation.C_ore { ore = Ore.encrypt ore (pick ord_pool); payload = "p" }));
        col "ndet" Scheme.Ndet (cells (fun i -> Enc_relation.C_bytes (Printf.sprintf "n%d" i)));
        col "plain" Scheme.Plain (cells (fun _ -> Enc_relation.C_plain (Value.Int (pick ord_pool))));
        col "phe" Scheme.Phe phe;
        col "bad_det" Scheme.Det (with_bad_cell det (Enc_relation.C_ord { ord = 10; payload = "p" }));
        col "bad_ope" Scheme.Ope (with_bad_cell ope (Enc_relation.C_bytes "d0"));
        col "bad_phe" Scheme.Phe (with_bad_cell phe (Enc_relation.C_bytes "d0")) ] }

let random_attr rng =
  let attrs =
    [| "det"; "ope"; "ope2"; "ore"; "ndet"; "plain"; "phe"; "bad_det"; "bad_ope"; "bad_phe";
       "det"; "ope"; "ope2"; "nope" |]
  in
  attrs.(Random.State.int rng (Array.length attrs))

(* Token kinds are drawn apart from the column, so many ops pair a token
   with a column of another scheme and raise the mismatch a scan raises. *)
let random_op rng n =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let ord () = pick [| 10; 20; 30; 99 |] in
  let attr = random_attr rng in
  match Random.State.int rng 10 with
  | 0 | 1 ->
    let slots = List.filter (fun _ -> Random.State.bool rng) (List.init n Fun.id) in
    Wire.F_slots (Array.of_list (if Random.State.int rng 12 = 0 then n :: slots else slots))
  | 2 | 3 | 4 | 5 | 6 ->
    let tok =
      match Random.State.int rng 6 with
      | 0 | 1 -> Enc_relation.Eq_det (pick [| "d0"; "d1"; "d2"; "absent" |])
      | 2 | 3 -> Enc_relation.Eq_ord (ord ())
      | 4 -> Enc_relation.Eq_plain (Value.Int (ord ()))
      | _ -> Enc_relation.Eq_ore (Ore.encrypt ore (ord ()))
    in
    Wire.F_eq (attr, tok)
  | _ ->
    let lo = ord () and hi = ord () in
    let tok =
      match Random.State.int rng 3 with
      | 0 -> Enc_relation.Rng_ord (lo, hi)
      | 1 -> Enc_relation.Rng_plain (Value.Int lo, Value.Int hi)
      | _ -> Enc_relation.Rng_ore (Ore.encrypt ore lo, Ore.encrypt ore hi)
    in
    Wire.F_range (attr, tok)

let leaf_rows = [ ("L0", 0); ("L1", 1); ("L13", 13); ("L45", 45) ]

(* One store-reading request of the given kind: a [Q_batch] of 1-3
   queries of 1-3 leaves of 0-4 ops each, an [Index_probe], a
   [Q_store_stats], a [Group_sum] or a [Fetch_rows]. Half of the
   single-leaf requests name [L45], whose fetches go above
   [Wire.small_rows] rows. *)
let random_request rng kind =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let label, n =
    if Random.State.bool rng then ("L45", 45)
    else List.nth leaf_rows (Random.State.int rng (List.length leaf_rows))
  in
  let label = if Random.State.int rng 20 = 0 then "nope" else label in
  match kind with
  | `Batch ->
    Wire.Q_batch
      { queries =
          List.init (1 + Random.State.int rng 3) (fun _ ->
              List.init (1 + Random.State.int rng 3) (fun _ ->
                  let label, n = List.nth leaf_rows (Random.State.int rng (List.length leaf_rows)) in
                  (label, List.init (Random.State.int rng 5) (fun _ -> random_op rng n)))) }
  | `Probe ->
    let key =
      match Random.State.int rng 5 with
      | 0 -> None
      | 1 -> Some "d1"
      | 2 -> Some "20"
      | 3 -> Some (Value.encode (Value.Int 30))
      | _ -> Some "absent"
    in
    Wire.Index_probe { leaf = label; attr = random_attr rng; key }
  | `Stats -> Wire.Q_store_stats
  | `Group ->
    Wire.Group_sum
      { leaf = label;
        group_by = pick [| "det"; "ope"; "ope2"; "plain"; "bad_det"; "bad_ope"; random_attr rng |];
        sum = pick [| "phe"; "phe"; "phe"; "bad_phe"; random_attr rng |] }
  | `Fetch ->
    let slots =
      match Random.State.int rng 4 with
      | 0 -> List.init n Fun.id
      | 1 -> List.init (2 * n) (fun _ -> Random.State.int rng (max 1 n))
      | 2 -> List.filter (fun _ -> Random.State.bool rng) (List.init n Fun.id)
      | _ -> List.init (Random.State.int rng 3) (fun _ -> Random.State.int rng (n + 1))
    in
    Wire.Fetch_rows
      { leaf = label;
        attrs = List.init (1 + Random.State.int rng 3) (fun _ -> random_attr rng);
        slots = Array.of_list slots }

let outcome f =
  match f () with
  | resp -> Ok (Wire.response_to_string resp)
  | exception Not_found -> Error "Not_found"
  | exception Invalid_argument msg -> Error ("Invalid_argument " ^ msg)
  | exception Integrity.Corruption c -> Error (Integrity.to_string c)

let eq_index_counters () =
  Snf_obs.Metrics.
    (value (counter "exec.eq_index.hits"), value (counter "exec.eq_index.builds"))

(* Random store-reading requests over random leaves: [Server_api.dispatch]
   answers with the per-cell reference's bytes, or raises its error. Each
   store answers four Q_batches and two of each other request. Making a
   store builds no form; a request builds the forms of the columns it is
   the first to read through one, each once, and no other: each build
   leaves its form on its column. Each probe reads one form, each
   store-stats request one per Plain, DET or OPE column, and nothing
   else moves exec.eq_index.hits. *)
let test_requests_match_reference () =
  let rng = Random.State.make [| 29 |] in
  let seen = Hashtbl.create 16 and coded = ref 0 in
  for _ = 1 to 300 do
    let builds0 = snd (eq_index_counters ()) in
    let store =
      { Enc_relation.relation_name = "R";
        leaves = List.map (fun (label, n) -> random_leaf rng label n) leaf_rows;
        paillier_public = Snf_crypto.Paillier.public_of_n (Snf_bignum.Nat.of_int 35) }
    in
    let columns pred =
      List.concat_map (fun (l : Enc_relation.enc_leaf) -> l.Enc_relation.columns) store.Enc_relation.leaves
      |> List.filter (fun (c : Enc_relation.enc_column) -> pred c.Enc_relation.scheme)
    in
    let keyed = function Scheme.Plain | Scheme.Det | Scheme.Ope -> true | _ -> false in
    Alcotest.(check int) "making the columns builds no form" 0
      (snd (eq_index_counters ()) - builds0);
    let built () =
      List.length
        (List.filter
           (fun (c : Enc_relation.enc_column) -> Option.is_some (Atomic.get c.Enc_relation.built))
           (columns Enc_relation.deterministic))
    in
    let view = Backend_mem.view (Backend_mem.of_store store) in
    List.iter (fun kind ->
      let req = random_request rng kind in
      let expected = outcome (fun () -> Scan_reference.request store req) in
      let tally = (kind, Result.is_ok expected) in
      Hashtbl.replace seen tally (1 + Option.value (Hashtbl.find_opt seen tally) ~default:0);
      let hits0, builds0 = eq_index_counters () in
      let built0 = built () in
      let got = outcome (fun () -> Server_api.dispatch view req) in
      Alcotest.(check (result string string)) "dispatch answers as the reference" expected got;
      (match Wire.response_of_string (Result.value got ~default:"") with
       | Wire.R_rows cols ->
         if Array.exists (function Wire.Coded _ -> true | Wire.Cells _ -> false) cols then incr coded
       | _ | (exception Invalid_argument _) -> ());
      let reads =
        match (req, got) with
        | Wire.Index_probe { leaf; attr; _ }, Ok _ ->
          let l = Enc_relation.find_leaf store leaf in
          if keyed (Enc_relation.column l attr).Enc_relation.scheme then 1 else 0
        | Wire.Q_store_stats, _ -> List.length (columns keyed)
        | _ -> 0
      in
      Alcotest.(check (pair int int)) "hits count probe-side reads, builds first reads"
        (hits0 + reads, builds0 + built () - built0)
        (eq_index_counters ()))
      [ `Batch; `Batch; `Batch; `Batch; `Probe; `Probe; `Stats; `Stats; `Group; `Group; `Fetch; `Fetch ]
  done;
  List.iter
    (fun (kind, name) ->
      Alcotest.(check bool) (name ^ ": some answered") true (Hashtbl.mem seen (kind, true));
      Alcotest.(check bool) (name ^ ": some raised") true (Hashtbl.mem seen (kind, false)))
    [ (`Batch, "Q_batch"); (`Probe, "Index_probe"); (`Group, "Group_sum"); (`Fetch, "Fetch_rows") ];
  Alcotest.(check bool) "some fetches were coded" true (!coded > 0)

(* [Fault.flip_cell] copies the store and makes the flipped column
   afresh ([Enc_relation.make_column]), with no form until a read; the
   copy shares every other column with the original, and each answers
   from its own cells. *)
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
  let hits0, builds0 = eq_index_counters () in
  let flipped, slot = Snf_check.Fault.flip_cell ~seed:3 enc ~leaf ~attr:"ZipCode" in
  let hits1, builds1 = eq_index_counters () in
  Alcotest.(check (pair int int)) "the copy builds no form" (0, 0)
    (hits1 - hits0, builds1 - builds0);
  let column (t : Enc_relation.t) = Enc_relation.column (Enc_relation.find_leaf t leaf) "ZipCode" in
  let cell t = (column t).Enc_relation.cells.(slot) in
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
  Alcotest.(check bool) "the copy has its own form" true
    (Enc_relation.form (column flipped) != Enc_relation.form (column enc));
  let hits1, builds1 = eq_index_counters () in
  Alcotest.(check (pair int int)) "the first reads build each form once" (0, 2)
    (hits1 - hits0, builds1 - builds0);
  Alcotest.(check bool) "the flipped cell is still canonical" true
    (match cell flipped with Enc_relation.C_bytes _ -> true | _ -> false);
  Alcotest.(check bool) "original matches its slot" true (answer enc);
  Alcotest.(check bool) "copy does not match its flipped slot" false (answer flipped);
  Alcotest.(check bool) "original again" true (answer enc);
  (* Filters moved no counter; each probe-side read is one hit. *)
  let hits2, builds2 = eq_index_counters () in
  Alcotest.(check (pair int int)) "filters move no counter" (hits1, builds1) (hits2, builds2);
  ignore (Enc_relation.eq_index (Enc_relation.find_leaf enc leaf) ~attr:"ZipCode");
  ignore (Enc_relation.eq_index (Enc_relation.find_leaf flipped leaf) ~attr:"ZipCode");
  let hits3, builds3 = eq_index_counters () in
  Alcotest.(check (pair int int)) "two reads, two hits, no build" (2, 0)
    (hits3 - hits2, builds3 - builds2)

let suite =
  [ t "index construction" test_index_construction;
    t "indexed queries agree" test_indexed_queries_agree;
    t "index reduces scanning" test_index_reduces_scanning;
    t "ranges still scan" test_range_predicates_still_scan;
    prop_indexed_equals_scanned;
    t "index with oram mode" test_index_with_oram_mode;
    t "filters answer as the scan reference" test_requests_match_reference;
    t "a flipped copy answers from its own cells" test_flipped_copy_answers_from_own_cells ]
