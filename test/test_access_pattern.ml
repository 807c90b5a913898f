open Snf_attack
module Prng = Snf_crypto.Prng
module Path_oram = Snf_reference.Path_oram

let t name f = Alcotest.test_case name `Quick f

let test_chi2_basics () =
  (* perfectly balanced trace: X² = 0, p ~ 1 *)
  let balanced = List.concat (List.init 100 (fun _ -> [ 0; 1; 2; 3 ])) in
  let chi2 = Access_pattern.chi_square_uniform ~observed:balanced ~bins:4 in
  Alcotest.(check bool) "balanced X2 = 0" true (chi2 = 0.0);
  Alcotest.(check bool) "balanced plausibly uniform" true
    (Access_pattern.plausibly_uniform ~bins:4 balanced);
  (* totally skewed: everything in one bin *)
  let skewed = List.init 400 (fun _ -> 0) in
  Alcotest.(check bool) "skewed rejected" false
    (Access_pattern.plausibly_uniform ~bins:4 skewed);
  Alcotest.(check bool) "p-value decreasing in chi2" true
    (Access_pattern.p_value ~chi2:50.0 ~dof:3 < Access_pattern.p_value ~chi2:5.0 ~dof:3)

let test_oram_trace_uniform () =
  let prng = Prng.create 41 in
  let oram = Path_oram.create ~num_blocks:64 ~block_size:4 prng in
  for i = 0 to 63 do
    Path_oram.write oram i "xxxx"
  done;
  (* hammer a single block: the adversary sees only remapped paths *)
  for _ = 1 to 2_000 do
    ignore (Path_oram.read oram 17)
  done;
  let paths = Path_oram.paths_observed oram in
  let bins = 1 lsl Path_oram.depth oram in
  Alcotest.(check bool)
    (Printf.sprintf "oram paths pass uniformity over %d leaves" bins)
    true
    (Access_pattern.plausibly_uniform ~alpha:0.001 ~bins paths)

let test_direct_access_fails () =
  (* Without ORAM, the trace is the slot sequence itself: a hot row makes
     the pattern wildly non-uniform. *)
  let prng = Prng.create 43 in
  let trace =
    List.init 2_000 (fun _ -> if Prng.int prng 10 < 8 then 5 else Prng.int prng 64)
  in
  Alcotest.(check bool) "skewed direct trace rejected" false
    (Access_pattern.plausibly_uniform ~alpha:0.001 ~bins:64 trace)

let test_volume_fingerprinting () =
  (* distinct volumes identify queries *)
  Alcotest.(check bool) "all unique volumes identified" true
    (Access_pattern.identifiability ~profile:[ 3; 17; 42; 99 ] = 1.0);
  Alcotest.(check bool) "repeated volumes hide" true
    (Access_pattern.identifiability ~profile:[ 5; 5; 5; 5 ] = 0.0);
  let profile = [ 3; 4; 5; 6; 7; 8; 17; 18; 30; 33 ] in
  let raw = Access_pattern.identifiability ~profile in
  let padded = Access_pattern.padded_identifiability ~profile in
  Alcotest.(check bool)
    (Printf.sprintf "padding reduces identifiability (%.2f -> %.2f)" raw padded)
    true (padded < raw);
  Alcotest.(check int) "pad rounds up" 8 (Access_pattern.pad_to_buckets 5);
  Alcotest.(check int) "pad keeps powers" 8 (Access_pattern.pad_to_buckets 8);
  Alcotest.(check int) "pad zero" 0 (Access_pattern.pad_to_buckets 0)

let test_volume_fingerprinting_end_to_end () =
  (* Volumes of the executor's real answers over a skewed column identify
     the hot constants. *)
  let rows = List.concat (List.init 10 (fun v -> List.init (v + 1) (fun _ -> [ v ]))) in
  let r = Helpers.relation_of_int_rows [ "v" ] rows in
  let policy = Snf_core.Policy.create [ ("v", Snf_crypto.Scheme.Det) ] in
  let g = Snf_deps.Dep_graph.create [ "v" ] in
  let o = Snf_exec.System.outsource ~name:"vol" ~graph:g r policy in
  let volumes =
    List.filter_map
      (fun c ->
        match
          Snf_exec.System.query o
            (Snf_exec.Query.point ~select:[ "v" ] [ ("v", Snf_relational.Value.Int c) ])
        with
        | Ok (ans, _) -> Some (Snf_relational.Relation.cardinality ans)
        | Error _ -> None)
      (List.init 10 Fun.id)
  in
  Alcotest.(check bool) "every query's volume is unique" true
    (Access_pattern.identifiability ~profile:volumes = 1.0)

(* Our own PRNG must pass our own uniformity test — a pleasant circularity
   that validates both at once. *)
let test_prng_uniformity () =
  let prng = Prng.create 97 in
  let draws = List.init 8_000 (fun _ -> Prng.int prng 32) in
  Alcotest.(check bool) "splitmix64 passes chi-square at 32 bins" true
    (Access_pattern.plausibly_uniform ~alpha:0.001 ~bins:32 draws);
  (* and Prf.uniform_int too *)
  let key = Snf_crypto.Prf.key_of_string "unif" in
  let prf_draws =
    List.init 8_000 (fun i -> Snf_crypto.Prf.uniform_int key (string_of_int i) 32)
  in
  Alcotest.(check bool) "prf-derived integers pass chi-square" true
    (Access_pattern.plausibly_uniform ~alpha:0.001 ~bins:32 prf_draws);
  (* feistel permutation output is balanced across halves *)
  let halves =
    List.init 4_096 (fun x ->
        if Snf_crypto.Feistel.permute ~key ~domain:4096 x < 2048 then 0 else 1)
  in
  Alcotest.(check bool) "feistel output balanced" true
    (Access_pattern.plausibly_uniform ~alpha:0.001 ~bins:2 halves)

let suite =
  [ t "chi-square basics" test_chi2_basics;
    t "oram trace uniform" test_oram_trace_uniform;
    t "direct access fails uniformity" test_direct_access_fails;
    t "volume fingerprinting" test_volume_fingerprinting;
    t "volume fingerprinting end to end" test_volume_fingerprinting_end_to_end;
    t "prng/prf/feistel uniformity" test_prng_uniformity ]
