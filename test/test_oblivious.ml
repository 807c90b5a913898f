open Snf_exec
module Prng = Snf_crypto.Prng

let t name f = Alcotest.test_case name `Quick f

(* --- Codec ------------------------------------------------------------------- *)

let test_codec_basics () =
  let open Snf_relational in
  Alcotest.(check int) "bool false" 0 (Codec.to_ordinal (Value.Bool false));
  Alcotest.(check int) "bool true" 1 (Codec.to_ordinal (Value.Bool true));
  Alcotest.(check bool) "int roundtrip" true
    (Codec.of_ordinal_int (Codec.to_ordinal (Value.Int (-5))) = Value.Int (-5));
  Alcotest.check_raises "null has no ordinal"
    (Invalid_argument "Codec.to_ordinal: Null has no ordinal") (fun () ->
      ignore (Codec.to_ordinal Value.Null))

let prop_codec_int_monotone =
  Helpers.qtest "int ordinals monotone" QCheck2.Gen.(pair int int) (fun (a, b) ->
      let open Snf_relational in
      let inrange x = x > -(1 lsl 31) && x < 1 lsl 31 in
      if inrange a && inrange b then
        compare (Codec.to_ordinal (Value.Int a)) (Codec.to_ordinal (Value.Int b))
        = compare a b
      else true)

let prop_codec_float_monotone =
  Helpers.qtest "float ordinals monotone (coarsened)"
    QCheck2.Gen.(pair (float_range (-1e15) 1e15) (float_range (-1e15) 1e15))
    (fun (a, b) ->
      let open Snf_relational in
      let oa = Codec.to_ordinal (Value.Float a) and ob = Codec.to_ordinal (Value.Float b) in
      if a < b then oa <= ob else if a > b then oa >= ob else oa = ob)

let prop_codec_text_prefix_monotone =
  Helpers.qtest "text ordinals respect 4-byte prefix order"
    QCheck2.Gen.(pair (string_size (int_bound 6)) (string_size (int_bound 6)))
    (fun (a, b) ->
      let open Snf_relational in
      let oa = Codec.to_ordinal (Value.Text a) and ob = Codec.to_ordinal (Value.Text b) in
      if String.compare a b < 0 then oa <= ob else true)

(* --- Bitonic ------------------------------------------------------------------- *)

let prop_bitonic_sorts =
  Helpers.qtest ~count:300 "bitonic sorts any length"
    QCheck2.Gen.(list_size (int_bound 65) int)
    (fun l ->
      let arr = Array.of_list l in
      Bitonic.sort ~cmp:Int.compare arr;
      Snf_reference.Join_reference.is_sorted ~cmp:Int.compare arr
      && List.sort Int.compare l = Array.to_list arr)

let test_bitonic_counter_data_independent () =
  (* Equal-size inputs must yield identical comparison counts regardless of
     content — that is the point of an oblivious network. *)
  let count arr =
    let c = ref 0 in
    Bitonic.sort ~counter:c ~cmp:Int.compare arr;
    !c
  in
  let n = 64 in
  let sorted = Array.init n Fun.id in
  let reversed = Array.init n (fun i -> n - i) in
  let prng = Prng.create 3 in
  let random = Array.init n (fun _ -> Prng.int prng 1000) in
  let c1 = count sorted and c2 = count reversed and c3 = count random in
  Alcotest.(check int) "sorted = reversed" c1 c2;
  Alcotest.(check int) "sorted = random" c1 c3;
  Alcotest.(check int) "matches formula (full network at pow2 size)"
    (Bitonic.comparator_count n) c1

let test_comparator_count () =
  Alcotest.(check int) "n = 1" 0 (Bitonic.comparator_count 1);
  Alcotest.(check int) "n = 2" 1 (Bitonic.comparator_count 2);
  Alcotest.(check int) "n = 4" 6 (Bitonic.comparator_count 4);
  Alcotest.(check int) "n = 8" 24 (Bitonic.comparator_count 8);
  Alcotest.(check int) "padding to pow2" (Bitonic.comparator_count 8)
    (Bitonic.comparator_count 5)

(* --- Path ORAM -------------------------------------------------------------------- *)

let test_oram_roundtrip () =
  let prng = Prng.create 17 in
  let oram = Path_oram.create ~num_blocks:32 ~block_size:8 prng in
  for i = 0 to 31 do
    Path_oram.write oram i (Printf.sprintf "blk%05d" i)
  done;
  for i = 31 downto 0 do
    Alcotest.(check string) "read back" (Printf.sprintf "blk%05d" i) (Path_oram.read oram i)
  done;
  Alcotest.(check string) "unwritten reads zero"
    (String.make 8 '\x00')
    (Path_oram.read (Path_oram.create ~num_blocks:4 ~block_size:8 prng) 2);
  Alcotest.(check int) "access counting" 65 (Path_oram.access_count oram + 1);
  Alcotest.check_raises "bad size" (Invalid_argument "Path_oram: wrong block size")
    (fun () -> Path_oram.write oram 0 "short");
  Alcotest.check_raises "bad id" (Invalid_argument "Path_oram: block id out of range")
    (fun () -> ignore (Path_oram.read oram 32));
  Alcotest.check_raises "negative block size"
    (Invalid_argument "Path_oram.create: block_size < 0") (fun () ->
      ignore (Path_oram.create ~num_blocks:4 ~block_size:(-1) prng))

let prop_oram_random_ops =
  Helpers.qtest ~count:40 "oram agrees with a plain array under random ops"
    QCheck2.Gen.(list_size (int_range 1 120) (pair (int_bound 15) (int_bound 255)))
    (fun ops ->
      let prng = Prng.create 23 in
      let oram = Path_oram.create ~num_blocks:16 ~block_size:4 prng in
      let model = Array.make 16 (String.make 4 '\x00') in
      List.for_all
        (fun (id, x) ->
          if x land 1 = 0 then begin
            let data = Printf.sprintf "%04d" (x mod 1000) in
            Path_oram.write oram id data;
            model.(id) <- data;
            true
          end
          else Path_oram.read oram id = model.(id))
        ops)

let test_oram_stash_bounded () =
  let prng = Prng.create 29 in
  let oram = Path_oram.create ~num_blocks:128 ~block_size:4 prng in
  let max_stash = ref 0 in
  for round = 0 to 5 do
    for i = 0 to 127 do
      Path_oram.write oram i (Printf.sprintf "%02d%02d" round (i mod 100));
      max_stash := max !max_stash (Path_oram.stash_size oram)
    done
  done;
  (* Stefanov et al. give exponentially small overflow beyond ~O(log n);
     anything modest confirms the write-back works. *)
  Alcotest.(check bool) (Printf.sprintf "stash stays small (max %d)" !max_stash) true
    (!max_stash <= 40)

let test_oram_touches_per_access () =
  let prng = Prng.create 31 in
  let oram = Path_oram.create ~num_blocks:64 ~block_size:4 prng in
  let per_access = 2 * (Path_oram.depth oram + 1) in
  Path_oram.write oram 0 "aaaa";
  Alcotest.(check int) "buckets touched = 2(L+1)" per_access (Path_oram.bucket_touches oram);
  ignore (Path_oram.read oram 0);
  Alcotest.(check int) "constant per access" (2 * per_access) (Path_oram.bucket_touches oram)

let test_oram_access_pattern_remaps () =
  (* Reading the same block repeatedly must not pin one path: positions are
     remapped uniformly on every access. *)
  let prng = Prng.create 37 in
  let oram = Path_oram.create ~num_blocks:64 ~block_size:4 prng in
  Path_oram.write oram 7 "data";
  for _ = 1 to 63 do
    ignore (Path_oram.read oram 7)
  done;
  let observed = Path_oram.paths_observed oram in
  let distinct = List.sort_uniq Int.compare observed in
  Alcotest.(check bool)
    (Printf.sprintf "many distinct paths (%d)" (List.length distinct))
    true
    (List.length distinct > 10)

(* Everything the server of a Path ORAM can see or answer, pinned as a
   digest: write every block, then 2,000 seeded mixed reads and writes.
   The digest covers every read result, the observed path sequence, the
   bucket-touch total and the access count; any change to the position
   draws or to what a read returns moves it. The op stream has its own
   PRNG so the ORAM's draws are exactly the ones its accesses make. *)
let oram_pin_run ?bucket_size ~num_blocks ~seed () =
  let oram = Path_oram.create ?bucket_size ~num_blocks ~block_size:8 (Prng.create seed) in
  let ops = Prng.create (seed + 1) in
  let model = Array.init num_blocks (Printf.sprintf "b%07d") in
  let buf = Buffer.create 65536 in
  let max_stash = ref 0 in
  let note_stash () = max_stash := max !max_stash (Path_oram.stash_size oram) in
  Array.iteri (fun i d -> Path_oram.write oram i d; note_stash ()) model;
  for k = 1 to 2000 do
    let id = Prng.int ops num_blocks in
    if Prng.int ops 2 = 0 then begin
      let d = Printf.sprintf "w%07d" k in
      Path_oram.write oram id d;
      model.(id) <- d
    end
    else begin
      let got = Path_oram.read oram id in
      Alcotest.(check string) "read agrees with the model" model.(id) got;
      Buffer.add_string buf got
    end;
    note_stash ()
  done;
  List.iter (fun leaf -> Buffer.add_string buf (Printf.sprintf "%d," leaf))
    (Path_oram.paths_observed oram);
  Buffer.add_string buf
    (Printf.sprintf "|%d|%d" (Path_oram.bucket_touches oram) (Path_oram.access_count oram));
  (Digest.to_hex (Digest.string (Buffer.contents buf)), !max_stash)

let test_oram_pin () =
  List.iter
    (fun (num_blocks, expected) ->
      let digest, _ = oram_pin_run ~num_blocks ~seed:(7000 + num_blocks) () in
      Alcotest.(check string) (Printf.sprintf "pin at %d blocks" num_blocks) expected digest)
    [ (1, "f69aba1c543055adff71183ef07c3c7b");
      (3, "7b2dcbe0203a4137ee8b898659d14fca");
      (600, "b00768f011ac54b7e444f7edd1f1c463");
      (1000, "ae26bfd9ceb333e98040553256b02fa9") ]

let test_oram_stash_bounded_600 () =
  let _, max_stash = oram_pin_run ~num_blocks:600 ~seed:7600 () in
  Alcotest.(check bool) (Printf.sprintf "stash stays small (max %d)" max_stash) true
    (max_stash <= 40)

(* With one slot per bucket the stash outgrows twice a path's capacity,
   which exercises its growth. Any greedy write-back places the same number
   of blocks per level, so the maximum stash is pinned as well. *)
let test_oram_pin_single_slot () =
  List.iter
    (fun (num_blocks, expected, expected_stash) ->
      let digest, max_stash = oram_pin_run ~bucket_size:1 ~num_blocks ~seed:(7000 + num_blocks) () in
      Alcotest.(check string) (Printf.sprintf "pin at %d blocks, Z = 1" num_blocks) expected digest;
      Alcotest.(check int) (Printf.sprintf "max stash at %d blocks, Z = 1" num_blocks)
        expected_stash max_stash)
    [ (64, "6d154ebab04cb09e04b1dbf61c86a4b8", 17);
      (600, "b00768f011ac54b7e444f7edd1f1c463", 99) ]

(* [of_blocks] against [create] plus one [write] per block in id order,
   for n in {0, 1, 2, 3, 600, 4096} and Z = 1..4: k distinct reads (as
   an ORAM fetch makes), then mixed reads and writes, return the same
   bytes, observe the same paths and touch the same buckets on both. The
   install itself observes no path and touches no bucket. *)
let test_oram_bulk_install_matches_writes () =
  List.iter
    (fun n ->
      List.iter
        (fun z ->
          let label what = Printf.sprintf "n=%d Z=%d: %s" n z what in
          let seed = 9000 + n + z in
          let blocks = Array.init n (Printf.sprintf "i%07d") in
          let by_writes =
            Path_oram.create ~bucket_size:z ~num_blocks:(max n 1) ~block_size:8 (Prng.create seed)
          in
          Array.iteri (Path_oram.write by_writes) blocks;
          let installed = Path_oram.bucket_touches by_writes in
          let bulk = Path_oram.of_blocks ~bucket_size:z ~block_size:8 (Prng.create seed) blocks in
          Alcotest.(check int) (label "install touches") 0 (Path_oram.bucket_touches bulk);
          Alcotest.(check (list int)) (label "install observes") [] (Path_oram.paths_observed bulk);
          let ops = Prng.create (seed + 1) in
          let slots = Array.init (max n 1) Fun.id in
          Prng.shuffle ops slots;
          let read id =
            Alcotest.(check string) (label "read") (Path_oram.read by_writes id)
              (Path_oram.read bulk id)
          in
          Array.iteri (fun j id -> if j < 64 then read id) slots;
          for step = 1 to 200 do
            let id = Prng.int ops (max n 1) in
            if Prng.int ops 2 = 0 then read id
            else begin
              let d = Printf.sprintf "w%07d" step in
              Path_oram.write by_writes id d;
              Path_oram.write bulk id d
            end
          done;
          let accesses = Path_oram.access_count bulk in
          Alcotest.(check (list int)) (label "paths")
            (List.filteri (fun i _ -> i < accesses) (Path_oram.paths_observed by_writes))
            (Path_oram.paths_observed bulk);
          Alcotest.(check int) (label "touches")
            (Path_oram.bucket_touches by_writes - installed)
            (Path_oram.bucket_touches bulk))
        [ 1; 2; 3; 4 ])
    [ 0; 1; 2; 3; 600; 4096 ];
  Alcotest.check_raises "a wrong block size" (Invalid_argument "Path_oram: wrong block size")
    (fun () -> ignore (Path_oram.of_blocks ~block_size:8 (Prng.create 1) [| "12345678"; "short" |]))

(* --- Binning ------------------------------------------------------------------------ *)

let test_binning_schedule () =
  let key = Snf_crypto.Prf.key_of_string "bin" in
  let s = Binning.schedule ~key ~universe:100 ~bin_size:10 [ 3; 17; 42 ] in
  Alcotest.(check int) "anonymity = bin size" 10 (Binning.anonymity s);
  Alcotest.(check bool) "every wanted row covered" true
    (List.for_all (fun w -> List.exists (List.mem w) s.Binning.bins) [ 3; 17; 42 ]);
  Alcotest.(check bool) "overhead >= 1" true (Binning.overhead s >= 1.0);
  Alcotest.(check bool) "at most one bin per wanted row" true
    (List.length s.Binning.bins <= 3);
  (* bins partition: no row in two requested bins *)
  let all = List.concat s.Binning.bins in
  Alcotest.(check int) "no duplicates across bins" (List.length all)
    (List.length (List.sort_uniq Int.compare all))

let prop_binning_covers =
  Helpers.qtest ~count:100 "schedules always cover wanted rows"
    QCheck2.Gen.(
      pair (int_range 1 200) (list_size (int_range 1 20) (int_bound 1000)))
    (fun (universe, raw) ->
      let wanted = List.map (fun w -> w mod universe) raw in
      let key = Snf_crypto.Prf.key_of_string "binp" in
      let bin_size = 1 + (universe / 10) in
      let s = Binning.schedule ~key ~universe ~bin_size wanted in
      List.for_all (fun w -> List.exists (List.mem w) s.Binning.bins) wanted)

(* The schedule's definition as a linear scan of the universe: bin [b] is
   every row whose shuffled position divided by [bin_size] is [b],
   ascending. *)
let reference_schedule ~key ~universe ~bin_size wanted =
  let bin_of row =
    (if universe = 1 then 0 else Snf_crypto.Feistel.permute ~key ~domain:universe row)
    / bin_size
  in
  let bin_ids = List.sort_uniq Int.compare (List.map bin_of wanted) in
  let rows = List.init universe Fun.id in
  let bins = List.map (fun b -> List.filter (fun row -> bin_of row = b) rows) bin_ids in
  (bin_ids, bins, List.length (List.concat bins),
   List.length (List.sort_uniq Int.compare wanted))

let schedule_matches_reference ~key ~universe ~bin_size wanted =
  let s = Binning.schedule ~key ~universe ~bin_size wanted in
  (s.Binning.bin_ids, s.Binning.bins, s.Binning.retrieved, s.Binning.wanted)
  = reference_schedule ~key ~universe ~bin_size wanted

let prop_binning_matches_reference =
  Helpers.qtest ~count:300 "schedule equals the linear-scan definition"
    QCheck2.Gen.(
      let* universe = oneof [ int_range 1 2; int_range 1 300 ] in
      let* bin_size = oneof [ int_range 1 (universe + 3); int_range universe (universe + 3) ] in
      let* wanted = list_size (int_bound 20) (int_bound (universe - 1)) in
      let+ k = int_bound 1000 in
      (universe, bin_size, wanted, k))
    (fun (universe, bin_size, wanted, k) ->
      let key = Snf_crypto.Prf.key_of_string (Printf.sprintf "binref%d" k) in
      schedule_matches_reference ~key ~universe ~bin_size wanted)

let test_binning_reference_edges () =
  let key = Snf_crypto.Prf.key_of_string "binedge" in
  List.iter
    (fun (universe, bin_size, wanted) ->
      Alcotest.(check bool)
        (Printf.sprintf "universe %d, bin size %d, %d wanted" universe bin_size
           (List.length wanted))
        true
        (schedule_matches_reference ~key ~universe ~bin_size wanted))
    [ (1, 1, [ 0 ]);
      (1, 4, [ 0; 0 ]);
      (2, 1, [ 1; 0 ]);
      (2, 2, [ 0 ]);
      (2, 5, [ 1; 1; 0 ]);
      (10, 10, [ 9 ]);
      (10, 25, [ 4; 2 ]);
      (101, 10, [ 100; 0; 57; 100 ]);
      (97, 16, [ 96; 3; 3; 41; 12 ]);
      (64, 16, []);
      (1, 1, []) ]

let test_binned_slot_check () =
  let key = Snf_crypto.Prf.key_of_string "bincheck" in
  let universe = 100 and bin_size = 10 in
  let s = Binning.schedule ~key ~universe ~bin_size [ 3 ] in
  List.iter (Executor.check_binned_slot ~key ~universe s) (List.concat s.Binning.bins);
  let outside =
    List.find
      (fun slot -> not (List.mem slot (List.concat s.Binning.bins)))
      (List.init universe Fun.id)
  in
  Alcotest.check_raises "slot outside the schedule"
    (Invalid_argument "Executor: partner slot outside the requested bins") (fun () ->
      Executor.check_binned_slot ~key ~universe s outside)

let test_binning_uniform_sizes () =
  let key = Snf_crypto.Prf.key_of_string "bin2" in
  let s = Binning.schedule ~key ~universe:100 ~bin_size:10 (List.init 100 Fun.id) in
  Alcotest.(check int) "all bins requested" 10 (List.length s.Binning.bins);
  List.iter
    (fun b -> Alcotest.(check int) "bin size uniform" 10 (List.length b))
    s.Binning.bins

let suite =
  [ t "codec basics" test_codec_basics;
    prop_codec_int_monotone;
    prop_codec_float_monotone;
    prop_codec_text_prefix_monotone;
    prop_bitonic_sorts;
    t "bitonic data-independence" test_bitonic_counter_data_independent;
    t "comparator count" test_comparator_count;
    t "oram roundtrip" test_oram_roundtrip;
    prop_oram_random_ops;
    t "oram stash bounded" test_oram_stash_bounded;
    t "oram touches per access" test_oram_touches_per_access;
    t "oram path remapping" test_oram_access_pattern_remaps;
    t "oram server view pinned" test_oram_pin;
    t "oram stash bounded at 600 blocks" test_oram_stash_bounded_600;
    t "oram server view pinned with one slot per bucket" test_oram_pin_single_slot;
    t "oram bulk install matches one write per block" test_oram_bulk_install_matches_writes;
    t "binning schedule" test_binning_schedule;
    prop_binning_covers;
    t "binning uniform sizes" test_binning_uniform_sizes;
    prop_binning_matches_reference;
    t "binning reference edge cases" test_binning_reference_edges;
    t "binned slot outside the schedule" test_binned_slot_check ]
