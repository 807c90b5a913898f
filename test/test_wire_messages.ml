(* The message codec is the trust boundary's syntax: every request and
   response constructor must survive a byte round trip, and no byte-level
   damage — truncation, bit flips, random garbage — may crash the decoder
   or make it allocate unboundedly. Tokens and cells carry abstract
   ciphertexts without structural equality, so round trips are checked on
   re-serialized bytes: [to_string (of_string s) = s]. *)

open Snf_relational
open Snf_exec
module Gen = QCheck2.Gen
module Nat = Snf_bignum.Nat
module Ore = Snf_crypto.Ore
module Scan_reference = Snf_reference.Scan_reference

let t name f = Alcotest.test_case name `Quick f

(* {1 Generators over the message grammar} *)

let gen_label = Gen.oneofl [ "R"; "R.a~b"; "wire"; "t0"; "leaf-x" ]
let gen_attr = Gen.oneofl [ "a"; "b"; "code"; "score"; "amount" ]
let gen_blob = Gen.string_size (Gen.int_bound 16)
let gen_slot = Gen.int_bound 1000
let gen_slots = Gen.array_size (Gen.int_bound 8) gen_slot

let gen_value =
  Gen.oneof
    [ Gen.return Value.Null;
      Gen.map (fun b -> Value.Bool b) Gen.bool;
      Gen.map (fun i -> Value.Int i) Gen.int;
      Gen.map (fun f -> Value.Float f) Gen.float;
      Gen.map (fun s -> Value.Text s) gen_blob ]

let gen_ore =
  Gen.map
    (fun syms -> Ore.of_symbols (Array.of_list syms))
    (Gen.list_size (Gen.int_range 1 12) (Gen.int_bound 2))

let gen_nat = Gen.map Nat.of_int Gen.nat

(* A tid digest: 16 raw bytes, real ones among them. *)
let gen_digest =
  Gen.oneof
    [ Gen.string_size (Gen.return 16);
      Gen.map (fun tids -> Wire.tids_digest (Array.of_list tids))
        (Gen.list_size (Gen.int_bound 5) gen_blob) ]

let gen_eq_token =
  Gen.oneof
    [ Gen.map (fun v -> Enc_relation.Eq_plain v) gen_value;
      Gen.map (fun s -> Enc_relation.Eq_det s) gen_blob;
      Gen.map (fun o -> Enc_relation.Eq_ord o) Gen.nat;
      Gen.map (fun c -> Enc_relation.Eq_ore c) gen_ore ]

let gen_range_token =
  Gen.oneof
    [ Gen.map2 (fun a b -> Enc_relation.Rng_plain (a, b)) gen_value gen_value;
      Gen.map2 (fun a b -> Enc_relation.Rng_ord (a, b)) Gen.nat Gen.nat;
      Gen.map2 (fun a b -> Enc_relation.Rng_ore (a, b)) gen_ore gen_ore ]

let gen_filter_op =
  Gen.oneof
    [ Gen.map (fun s -> Wire.F_slots s) gen_slots;
      Gen.map2 (fun a tk -> Wire.F_eq (a, tk)) gen_attr gen_eq_token;
      Gen.map2 (fun a tk -> Wire.F_range (a, tk)) gen_attr gen_range_token ]

let gen_cell =
  Gen.oneof
    [ Gen.map (fun v -> Enc_relation.C_plain v) gen_value;
      Gen.map (fun s -> Enc_relation.C_bytes s) gen_blob;
      Gen.map2
        (fun ord payload -> Enc_relation.C_ord { ord; payload })
        Gen.nat gen_blob;
      Gen.map2
        (fun ore payload -> Enc_relation.C_ore { ore; payload })
        gen_ore gen_blob;
      Gen.map (fun n -> Enc_relation.C_nat n) gen_nat ]

(* The shape of a batch: half the time a lone query's batch of one with
   1–3 entries, otherwise any K up to 4 with up to 3 entries each. *)
let gen_batch entry =
  Gen.oneof
    [ Gen.map (fun q -> [ q ]) (Gen.list_size (Gen.int_range 1 3) entry);
      Gen.list_size (Gen.int_bound 4) (Gen.list_size (Gen.int_bound 3) entry) ]

let gen_request =
  Gen.oneof
    [ Gen.return Wire.Describe;
      Gen.map (fun s -> Wire.Install s) gen_blob;
      Gen.map2
        (fun (leaf, attr) key -> Wire.Index_probe { leaf; attr; key })
        (Gen.pair gen_label gen_attr)
        (Gen.option gen_blob);
      Gen.map2
        (fun (leaf, attrs) slots -> Wire.Fetch_rows { leaf; attrs; slots })
        (Gen.pair gen_label (Gen.list_size (Gen.int_bound 4) gen_attr))
        gen_slots;
      Gen.map (fun leaf -> Wire.Fetch_tids { leaf }) gen_label;
      Gen.map3
        (fun (leaf, seed) (block_size, blocks) slots ->
          Wire.Oram_fetch { leaf; seed; block_size; blocks; slots })
        (Gen.pair gen_label Gen.nat)
        (Gen.pair (Gen.int_range 1 64)
           (Gen.map Array.of_list (Gen.list_size (Gen.int_bound 6) gen_blob)))
        gen_slots;
      Gen.map2 (fun leaf attr -> Wire.Phe_sum { leaf; attr }) gen_label gen_attr;
      Gen.map2
        (fun leaf (group_by, sum) -> Wire.Group_sum { leaf; group_by; sum })
        gen_label (Gen.pair gen_attr gen_attr);
      Gen.map
        (fun queries -> Wire.Q_batch { queries })
        (gen_batch (Gen.pair gen_label (Gen.list_size (Gen.int_bound 4) gen_filter_op)));
      Gen.return Wire.Q_store_stats ]

let gen_leaf_stats =
  Gen.map2
    (fun (s_label, s_rows) attrs ->
      { Wire.s_label;
        s_rows;
        s_attrs =
          List.map
            (fun (a_attr, a_classes) -> { Wire.a_attr; a_classes })
            attrs })
    (Gen.pair gen_label Gen.nat)
    (Gen.list_size (Gen.int_bound 3)
       (Gen.pair gen_attr
          (Gen.list_size (Gen.int_bound 4) (Gen.pair gen_blob Gen.nat))))

let gen_corruption =
  Gen.map2
    (fun (where, detail) (leaf, attr) ->
      { Integrity.where; leaf; attr; detail })
    (Gen.pair (Gen.oneofl [ "tid"; "cell"; "leaf"; "index"; "store" ]) gen_blob)
    (Gen.pair (Gen.option gen_label) (Gen.option gen_attr))

let gen_response =
  Gen.oneof
    [ Gen.return Wire.R_unit;
      Gen.map2
        (fun relation_name leaves -> Wire.R_described { relation_name; leaves })
        gen_blob
        (Gen.list_size (Gen.int_bound 6)
           (Gen.triple (Gen.oneof [ gen_label; gen_blob ]) Gen.nat gen_digest));
      Gen.map (fun s -> Wire.R_slots s) (Gen.option gen_slots);
      Gen.map
        (fun cols ->
          Wire.R_rows
            (Array.of_list
               (List.map (fun c -> Scan_reference.rows_column_of_cells (Array.of_list c)) cols)))
        (Gen.list_size (Gen.int_bound 3)
           (Gen.oneof
              [ Gen.list_size (Gen.int_bound 5) gen_cell;
                Gen.map2
                  (fun pool picks ->
                    let pool = Array.of_list pool in
                    List.map (fun i -> pool.(i mod Array.length pool)) picks)
                  (Gen.list_size (Gen.int_range 1 3) gen_cell)
                  (Gen.list_size (Gen.int_bound 48) Gen.nat) ]));
      Gen.map
        (fun tids -> Wire.R_tids (Array.of_list tids))
        (Gen.list_size (Gen.int_bound 6) gen_blob);
      Gen.map2
        (fun blocks touches -> Wire.R_oram { blocks = Array.of_list blocks; touches })
        (Gen.list_size (Gen.int_bound 6) gen_blob)
        Gen.nat;
      Gen.map (fun n -> Wire.R_nat n) gen_nat;
      Gen.map
        (fun gs -> Wire.R_groups gs)
        (Gen.list_size (Gen.int_bound 4) (Gen.pair gen_cell gen_nat));
      Gen.map2
        (fun not_found msg -> Wire.R_error { not_found; msg })
        Gen.bool gen_blob;
      Gen.map (fun c -> Wire.R_corrupt c) gen_corruption;
      Gen.return Wire.R_busy;
      Gen.map
        (fun results ->
          Wire.R_batch
            { results =
                List.map
                  (List.map (fun (mask, scanned) ->
                       (Bitmask.of_bools (Array.of_list mask), scanned)))
                  results })
        (gen_batch (Gen.pair (Gen.list_size (Gen.int_bound 40) Gen.bool) Gen.nat));
      Gen.map
        (fun leaves -> Wire.R_store_stats { leaves })
        (Gen.list_size (Gen.int_bound 3) gen_leaf_stats) ]

(* {1 Round trips} *)

let req_roundtrips req =
  let s = Wire.request_to_string req in
  String.equal (Wire.request_to_string (Wire.request_of_string s)) s

let resp_roundtrips resp =
  let s = Wire.response_to_string resp in
  String.equal (Wire.response_to_string (Wire.response_of_string s)) s

(* One instance of every constructor, so coverage of the grammar does not
   depend on generator luck. *)
let sample_requests =
  let ore = Ore.of_symbols [| 0; 1; 2 |] in
  [ Wire.Describe; Wire.Install "not-a-real-image";
    Wire.Index_probe { leaf = "R"; attr = "a"; key = None };
    Wire.Index_probe { leaf = "R"; attr = "a"; key = Some "k\x00k" };
    Wire.Q_batch
      { queries =
          [ [ ( "R",
                [ Wire.F_slots [| 0; 2; 5 |];
                  Wire.F_eq ("a", Enc_relation.Eq_plain (Value.Int 3));
                  Wire.F_eq ("a", Enc_relation.Eq_det "det-bytes");
                  Wire.F_eq ("a", Enc_relation.Eq_ord 17);
                  Wire.F_eq ("a", Enc_relation.Eq_ore ore);
                  Wire.F_range ("b", Enc_relation.Rng_plain (Value.Int 1, Value.Int 9));
                  Wire.F_range ("b", Enc_relation.Rng_ord (2, 4));
                  Wire.F_range ("b", Enc_relation.Rng_ore (ore, ore)) ] ) ] ] };
    Wire.Fetch_rows { leaf = "R"; attrs = [ "a"; "b" ]; slots = [| 1; 3 |] };
    Wire.Fetch_tids { leaf = "R" };
    Wire.Oram_fetch
      { leaf = "R"; seed = 0x09a7; block_size = 8;
        blocks = [| "blk0\x00\x00\x00\x00"; "blk1\x01\x01\x01\x01" |];
        slots = [| 1; 0; 1 |] };
    Wire.Oram_fetch { leaf = "R"; seed = 1; block_size = 4; blocks = [||]; slots = [||] };
    Wire.Phe_sum { leaf = "R"; attr = "amount" };
    Wire.Group_sum { leaf = "R"; group_by = "a"; sum = "amount" };
    Wire.Q_batch { queries = [] };
    Wire.Q_batch
      { queries =
          [ [ ("R.a", [ Wire.F_eq ("a", Enc_relation.Eq_det "tok") ]);
              ("R.b", [ Wire.F_range ("b", Enc_relation.Rng_ord (1, 5)) ]) ];
            [];
            [ ("R.a", [ Wire.F_slots [| 0; 3 |] ]) ] ] };
    Wire.Q_store_stats ]

let sample_responses =
  [ Wire.R_unit;
    Wire.R_described
      { relation_name = "r";
        leaves =
          [ ("R.a", 4, Wire.tids_digest [| "t0"; "t1"; "t2"; "t3" |]);
            ("R.b", 0, Wire.tids_digest [||]) ] };
    Wire.R_described { relation_name = ""; leaves = [] };
    Wire.R_slots None; Wire.R_slots (Some [| 0; 7 |]);
    Wire.R_batch
      { results = [ [ (Bitmask.of_bools [| true; false; true; true; false |], 5) ] ] };
    Wire.R_rows
      [| Wire.Cells
           [| Enc_relation.C_plain (Value.Text "x");
              Enc_relation.C_bytes "\x00\xffraw" |];
         Wire.Cells
           [| Enc_relation.C_ord { ord = 9; payload = "p" };
              Enc_relation.C_ore
                { ore = Ore.of_symbols [| 1; 0; 2; 2 |]; payload = "q" } |];
         Wire.Cells
           [| Enc_relation.C_nat (Nat.of_int 12345); Enc_relation.C_plain Value.Null |];
         Wire.Coded
           { dict = [| Enc_relation.C_bytes "d0"; Enc_relation.C_ord { ord = 3; payload = "" } |];
             codes = Array.init 34 (fun i -> if i = 2 then 1 else 0) } |];
    Wire.R_tids [| "t0"; "t1\x00" |];
    Wire.R_oram { blocks = [||]; touches = 0 };
    Wire.R_oram { blocks = [| "sealed0"; "sealed1" |]; touches = 42 };
    Wire.R_nat (Nat.of_int 99991);
    Wire.R_groups
      [ (Enc_relation.C_bytes "g1", Nat.of_int 10);
        (Enc_relation.C_plain (Value.Int 2), Nat.of_int 0) ];
    Wire.R_error { not_found = true; msg = "no such leaf" };
    Wire.R_error { not_found = false; msg = "bad request" };
    Wire.R_corrupt
      { Integrity.where = "leaf"; leaf = Some "R"; attr = None;
        detail = "row count mismatch" };
    Wire.R_busy;
    Wire.R_batch { results = [] };
    Wire.R_batch
      { results =
          [ [ (Bitmask.of_bools [| true; false; true |], 3); (Bitmask.of_bools [||], 0) ];
            [];
            [ (Bitmask.of_bools [| false |], 1) ] ] };
    Wire.R_store_stats { leaves = [] };
    Wire.R_store_stats
      { leaves =
          [ { Wire.s_label = "R.a";
              s_rows = 6;
              s_attrs =
                [ { Wire.a_attr = "a";
                    a_classes = [ ("0a1b2c3d4e5f6071", 2); ("ffeeddccbbaa0011", 4) ] };
                  { Wire.a_attr = "b"; a_classes = [] } ] };
            { Wire.s_label = "R.b"; s_rows = 0; s_attrs = [] } ] } ]

let test_every_constructor_roundtrips () =
  List.iteri
    (fun i req ->
      Alcotest.(check bool)
        (Printf.sprintf "request %d survives the codec" i)
        true (req_roundtrips req))
    sample_requests;
  List.iteri
    (fun i resp ->
      Alcotest.(check bool)
        (Printf.sprintf "response %d survives the codec" i)
        true (resp_roundtrips resp))
    sample_responses

(* {1 Malformed input: typed rejection, never a crash} *)

(* A decoder outcome we accept on damaged bytes: a decoded value (the
   damage happened to form a valid message) or the documented typed
   failures. Anything else — Stack_overflow, Out_of_memory, a match
   failure — fails the property. *)
let decodes_safely decode s =
  match decode s with
  | _ -> true
  | exception Invalid_argument _ -> true
  | exception Integrity.Corruption _ -> true

let rejects decode s =
  match decode s with
  | _ -> false
  | exception Invalid_argument _ -> true

let test_every_prefix_rejected () =
  let strict_prefixes s =
    List.init (String.length s) (fun n -> String.sub s 0 n)
  in
  List.iter
    (fun req ->
      List.iter
        (fun p ->
          if not (rejects Wire.request_of_string p) then
            Alcotest.failf "truncated request accepted at %d bytes"
              (String.length p))
        (strict_prefixes (Wire.request_to_string req)))
    sample_requests;
  List.iter
    (fun resp ->
      List.iter
        (fun p ->
          if not (rejects Wire.response_of_string p) then
            Alcotest.failf "truncated response accepted at %d bytes"
              (String.length p))
        (strict_prefixes (Wire.response_to_string resp)))
    sample_responses

let flip s pos byte =
  let b = Bytes.of_string s in
  let pos = pos mod Bytes.length b in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 + (byte mod 255))));
  Bytes.to_string b

(* {1 Canonical integers}

   [w_int] writes 8-byte words whose top two bits are clear. A word with
   bit 62 or bit 63 set is no encoding of any integer, and every reader —
   messages, store images, the disk manifest — must reject it with the
   typed error instead of dropping the bit and aliasing another frame. *)

let with_bits s ~word ~mask =
  let b = Bytes.of_string s in
  let pos = word + 7 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lor mask));
  Bytes.to_string b

let out_of_range = Invalid_argument "Wire: integer out of range"

let test_high_integer_bits_rejected () =
  List.iter
    (fun mask ->
      let what = Printf.sprintf "top bits %#x" mask in
      (* R_tids: magic (4) + version (1) + tag (1), then the count. *)
      let tids = Wire.response_to_string (Wire.R_tids [| "t1"; "t2" |]) in
      Alcotest.check_raises ("R_tids count, " ^ what) out_of_range (fun () ->
          ignore (Wire.response_of_string (with_bits tids ~word:6 ~mask)));
      (* SNFE store image: magic (4) + version (1), then the name length. *)
      let leaf =
        { Enc_relation.label = "L"; row_count = 1; tids = [| "x" |]; columns = [] }
      in
      let image =
        Wire.to_string
          { Enc_relation.relation_name = "R";
            leaves = [ leaf ];
            paillier_public = Snf_crypto.Paillier.public_of_n (Nat.of_int 35) }
      in
      Alcotest.check_raises ("SNFE name length, " ^ what) out_of_range (fun () ->
          ignore (Wire.of_string (with_bits image ~word:5 ~mask)));
      Alcotest.check_raises ("leaf label length, " ^ what) out_of_range (fun () ->
          ignore (Wire.leaf_of_string (with_bits (Wire.leaf_to_string leaf) ~word:0 ~mask)));
      (* The manifest primitives. *)
      let buf = Buffer.create 8 in
      Wire.Prim.w_int buf 12345;
      Alcotest.check_raises ("Prim.r_int, " ^ what) out_of_range (fun () ->
          ignore (Wire.Prim.r_int (Wire.Prim.cursor (with_bits (Buffer.contents buf) ~word:0 ~mask)))))
    [ 0x80; 0x40; 0xc0 ];
  let buf = Buffer.create 8 in
  Wire.Prim.w_int buf max_int;
  Alcotest.(check int) "max_int still round-trips" max_int
    (Wire.Prim.r_int (Wire.Prim.cursor (Buffer.contents buf)))

(* {1 Canonical masks}

   A mask of n slots is packed into ceil(n/8) bytes, slot k at bit k mod 8
   of byte k/8. The padding bits past slot n-1 carry no slot, so a set
   padding bit is a second encoding of the same mask and must be rejected
   with the typed error, like a non-canonical integer. *)

let padding_rejected = Invalid_argument "Wire: nonzero mask padding"

let set_bit s ~pos ~bit =
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lor (1 lsl bit)));
  Bytes.to_string b

let test_mask_padding_rejected () =
  (* R_batch: magic (4) + version (1) + tag (1) + query count (8) + entry
     count (8) + slot count (8), then the packed byte of a 5-slot mask;
     bits 5..7 are padding. *)
  let batch mask = Wire.R_batch { results = [ [ (Bitmask.of_bools mask, 5) ] ] } in
  let bytes = Wire.response_to_string (batch [| true; false; true; true; false |]) in
  List.iter
    (fun bit ->
      Alcotest.check_raises (Printf.sprintf "R_batch padding bit %d" bit) padding_rejected
        (fun () -> ignore (Wire.response_of_string (set_bit bytes ~pos:30 ~bit))))
    [ 5; 6; 7 ];
  let three =
    Wire.response_to_string
      (Wire.R_batch { results = [ [ (Bitmask.of_bools [| false; true; false |], 3) ] ] })
  in
  Alcotest.check_raises "R_batch padding bit 3 of a 3-slot mask" padding_rejected
    (fun () -> ignore (Wire.response_of_string (set_bit three ~pos:30 ~bit:3)));
  (* A slot bit is data, not padding: the mask decodes with slot 1 set. *)
  match Wire.response_of_string (set_bit bytes ~pos:30 ~bit:1) with
  | Wire.R_batch _ as r ->
    Alcotest.(check bool) "slot bit decodes" true
      (r = batch [| true; true; true; true; false |])
  | _ -> Alcotest.fail "slot bit: not an R_batch"

(* {1 Deleted tags}

   A lone query's filters cross as a Q_batch of one, so the per-leaf
   filter request (tag 4) and its mask response (tag 3) are gone. Bytes
   carrying either tag are an unknown message, rejected with the typed
   error. *)

let test_deleted_tags_rejected () =
  let with_tag s tag =
    let b = Bytes.of_string s in
    Bytes.set b 5 (Char.chr tag);
    Bytes.to_string b
  in
  Alcotest.check_raises "request tag 4"
    (Invalid_argument "Wire: unknown request tag 4") (fun () ->
      ignore (Wire.request_of_string (with_tag (Wire.request_to_string Wire.Describe) 4)));
  Alcotest.check_raises "response tag 3"
    (Invalid_argument "Wire: unknown response tag 3") (fun () ->
      ignore (Wire.response_of_string (with_tag (Wire.response_to_string Wire.R_unit) 3)))

(* {1 Versions and tid digests}

   Byte 4 of every message is the SNFM version. Version 1 described
   leaves without tid digests, and version 2 still had a separate
   shape-check request and a two-message ORAM (install, then one read per
   slot), and version 3 still had a per-leaf filter request and its
   mask response; a message of any version but the current one is rejected
   whole, never read under the wrong grammar. *)

let with_version s v =
  let b = Bytes.of_string s in
  Bytes.set b 4 (Char.chr v);
  Bytes.to_string b

let test_other_versions_rejected () =
  let version_of s = Char.code s.[4] in
  let check what bytes =
    let current = version_of bytes in
    List.iter
      (fun v ->
        if v <> current then
          Alcotest.check_raises
            (Printf.sprintf "%s at version %d" what v)
            (Invalid_argument (Printf.sprintf "Wire: unsupported message version %d" v))
            (fun () -> ignore (Wire.response_of_string (with_version bytes v))))
      [ 0; 1; 2; 3; 4; current + 1; 255 ]
  in
  Alcotest.(check int) "messages are SNFM version 5" 5
    (version_of (Wire.request_to_string Wire.Describe));
  List.iteri (fun i r -> check (Printf.sprintf "response %d" i) (Wire.response_to_string r))
    sample_responses;
  List.iter
    (fun req ->
      let bytes = Wire.request_to_string req in
      Alcotest.check_raises "request at version 1"
        (Invalid_argument "Wire: unsupported message version 1")
        (fun () -> ignore (Wire.request_of_string (with_version bytes 1))))
    sample_requests

(* The digest is the MD5 of the canonical R_tids bytes, and it travels
   as exactly 16 bytes: a digest of another length is refused on encode. *)
let test_tids_digest () =
  let tids = [| "a"; "bc"; "" |] in
  Alcotest.(check string) "digest of the R_tids bytes"
    (Digest.string (Wire.response_to_string (Wire.R_tids tids)))
    (Wire.tids_digest tids);
  Alcotest.(check bool) "one changed tid changes the digest" true
    (Wire.tids_digest tids <> Wire.tids_digest [| "a"; "bd"; "" |]);
  List.iter
    (fun d ->
      Alcotest.check_raises
        (Printf.sprintf "%d-byte digest refused" (String.length d))
        (Invalid_argument "Wire: tid digest is not 16 bytes")
        (fun () ->
          ignore
            (Wire.response_to_string
               (Wire.R_described { relation_name = "r"; leaves = [ ("L", 1, d) ] }))))
    [ ""; String.make 15 'x'; String.make 17 'x' ]

(* {1 The ORAM fetch, served}

   One [Oram_fetch] round trip against a server session: the blocks of
   the requested slots come back in request order (repeats included), an
   empty slot list reads nothing, and a slot outside the blocks or a
   block of the wrong size is a typed [R_error] rather than a crash or an
   empty answer. *)

let test_oram_fetch_served () =
  let serve = Server_api.session_handler (Backend_mem.view (Backend_mem.empty ())) in
  let blocks = Array.init 5 (fun i -> String.make 8 (Char.chr (Char.code 'a' + i))) in
  let fetch ?(blocks = blocks) slots =
    Wire.response_of_string
      (serve
         (Wire.request_to_string
            (Wire.Oram_fetch { leaf = "R"; seed = 7; block_size = 8; blocks; slots })))
  in
  (match fetch [| 3; 0; 3 |] with
   | Wire.R_oram { blocks = got; touches } ->
     Alcotest.(check (array string)) "blocks in request order"
       [| blocks.(3); blocks.(0); blocks.(3) |] got;
     Alcotest.(check bool) "touches count the three reads only" true
       (touches > 0 && touches mod 3 = 0)
   | _ -> Alcotest.fail "not an R_oram");
  (match fetch [||] with
   | Wire.R_oram { blocks = [||]; touches = 0 } -> ()
   | _ -> Alcotest.fail "empty slots: expected R_oram with no blocks and no touches");
  List.iter
    (fun slots ->
      match fetch slots with
      | Wire.R_error { not_found = false; _ } -> ()
      | _ -> Alcotest.failf "slot set %s: expected a typed R_error"
               (Snf_obs.Leakage.slots_csv slots))
    [ [| 5 |]; [| 0; 99 |] ];
  match fetch ~blocks:(Array.append blocks [| "short" |]) [| 0 |] with
  | Wire.R_error { not_found = false; msg } ->
    Alcotest.(check string) "a block of the wrong size" "Path_oram: wrong block size" msg
  | _ -> Alcotest.fail "a block of the wrong size: expected a typed R_error"

(* {1 Dictionary-coded R_rows} *)

(* Columns with and without repeats, empty, on both sides of
   [Wire.small_rows], and with dictionaries on both sides of the 1/2/4-byte
   code widths (256 and 65,536 entries): [d] distinct cells over
   [d + extra] rows in a shuffled order. *)
let gen_column =
  let open Gen in
  oneof
    [ map Array.of_list (list_size (int_bound 6) gen_cell);
      map2
        (fun pool picks ->
          let pool = Array.of_list pool in
          Array.of_list (List.map (fun i -> pool.(i mod Array.length pool)) picks))
        (list_size (int_range 1 4) gen_cell)
        (list_size (int_bound 64) nat);
      map3
        (fun d extra seed ->
          let rows = d + extra in
          let st = Random.State.make [| seed |] in
          Array.init rows (fun i ->
              let v = if i < d then i else Random.State.int st d in
              Enc_relation.C_bytes (string_of_int v))
          |> fun a ->
          for i = rows - 1 downto 1 do
            let j = Random.State.int st (i + 1) in
            let x = a.(i) in
            a.(i) <- a.(j);
            a.(j) <- x
          done;
          a)
        (oneofl [ 255; 256; 257; 65_535; 65_536; 65_537 ])
        (int_bound 3) nat ]

(* Cells are equal when their bytes are. *)
let cell_bytes c = Wire.response_to_string (Wire.R_rows [| Wire.Cells [| c |] |])

let has_repeat cells =
  let seen = Hashtbl.create 16 in
  Array.exists
    (fun c ->
      let b = cell_bytes c in
      Hashtbl.mem seen b || (Hashtbl.add seen b (); false))
    cells

(* The canonical coding survives the codec, decodes to the same cells,
   is coded exactly when a cell repeats in more than [Wire.small_rows]
   rows, and spends the code width its dictionary size fixes. *)
let rows_roundtrip cells =
  let col = Scan_reference.rows_column_of_cells cells in
  let bytes = Wire.response_to_string (Wire.R_rows [| col |]) in
  match Wire.response_of_string bytes with
  | Wire.R_rows [| back |] ->
    let got = Wire.column_cells back in
    String.equal (Wire.response_to_string (Wire.R_rows [| back |])) bytes
    && Array.length got = Array.length cells
    && Array.for_all2 (fun g c -> String.equal (cell_bytes g) (cell_bytes c)) got cells
    && (match back with
        | Wire.Cells _ -> Array.length cells <= Wire.small_rows || not (has_repeat cells)
        | Wire.Coded { dict; codes } ->
          let width =
            let d = Array.length dict in
            if d <= 256 then 1 else if d <= 65_536 then 2 else 4
          in
          Array.length cells > Wire.small_rows
          && has_repeat cells
          && String.length bytes
             = String.length (Wire.response_to_string (Wire.R_rows [| Wire.Cells dict |]))
               + 8 + (Array.length codes * width))
  | _ -> false

(* One malformed coded column per decoder rule. Columns hold 40 rows,
   past [Wire.small_rows], unless the rule is about a short one. *)
let test_malformed_coded_rejected () =
  let a = Enc_relation.C_bytes "a" and b = Enc_relation.C_ord { ord = 1; payload = "b" } in
  let c = Enc_relation.C_bytes "c" in
  let rows dict codes = Wire.response_to_string (Wire.R_rows [| Wire.Coded { dict; codes } |]) in
  let n = 40 in
  let alternating = Array.init n (fun i -> i mod 2) in
  let good = rows [| a; b |] alternating in
  (* magic, version, response tag, column count: the coding tag follows *)
  let retag = Bytes.of_string good in
  Bytes.set retag 14 '\x02';
  List.iter
    (fun (name, bytes, msg) ->
      Alcotest.check_raises name (Invalid_argument ("Wire: " ^ msg)) (fun () ->
          ignore (Wire.response_of_string bytes)))
    [ ("a code at the dictionary size",
       rows [| a; b |] (Array.init n (fun i -> if i = 2 then 2 else i mod 2)),
       "code 2 outside a dictionary of 2");
      ("codes out of first-occurrence order",
       rows [| a; b |] (Array.init n (fun i -> (i + 1) mod 2)),
       "codes not numbered in first-occurrence order");
      ("an unreferenced entry", rows [| a; b; c |] alternating, "unreferenced dictionary entry");
      ("identity codes under tag 1",
       rows (Array.init n (fun i -> Enc_relation.C_bytes (string_of_int i))) (Array.init n Fun.id),
       "identity codes under the dictionary tag");
      ("a short column under tag 1", rows [| a; b |] [| 0; 1; 0 |], "a coded column of 3 rows");
      ("an empty column under tag 1", rows [||] [||], "a coded column of 0 rows");
      ("an unknown coding tag", Bytes.to_string retag, "unknown column coding 2");
      ("truncated codes", String.sub good 0 (String.length good - 1), "truncated codes") ];
  Alcotest.(check bool) "the well-formed column decodes" true
    (resp_roundtrips (Wire.R_rows [| Wire.Coded { dict = [| a; b |]; codes = alternating } |]))

let suite =
  [ t "every constructor roundtrips" test_every_constructor_roundtrips;
    t "an ORAM fetch is served in one round trip" test_oram_fetch_served;
    t "messages of another version rejected" test_other_versions_rejected;
    t "tid digests: R_tids bytes, 16 bytes on the wire" test_tids_digest;
    t "every strict prefix rejected" test_every_prefix_rejected;
    t "integers with the top bits set rejected" test_high_integer_bits_rejected;
    t "masks with padding bits set rejected" test_mask_padding_rejected;
    t "the deleted filter tags are unknown" test_deleted_tags_rejected;
    Helpers.qtest ~count:300 "random requests roundtrip" gen_request
      req_roundtrips;
    Helpers.qtest ~count:300 "random responses roundtrip" gen_response
      resp_roundtrips;
    Helpers.qtest ~count:300 "flipped request bytes decode safely"
      (Gen.triple gen_request Gen.nat Gen.nat)
      (fun (req, pos, byte) ->
        decodes_safely Wire.request_of_string
          (flip (Wire.request_to_string req) pos byte));
    Helpers.qtest ~count:300 "flipped response bytes decode safely"
      (Gen.triple gen_response Gen.nat Gen.nat)
      (fun (resp, pos, byte) ->
        decodes_safely Wire.response_of_string
          (flip (Wire.response_to_string resp) pos byte));
    Helpers.qtest ~count:300 "random garbage rejected, never a crash"
      (Gen.string_size (Gen.int_bound 64))
      (fun s ->
        decodes_safely Wire.request_of_string s
        && decodes_safely Wire.response_of_string s
        (* no valid message is shorter than the magic+version header,
           so short strings must be rejected outright *)
        && (String.length s >= 5 || rejects Wire.request_of_string s));
    Helpers.qtest ~count:60 "R_rows columns roundtrip dictionary-coded" gen_column
      rows_roundtrip;
    t "malformed coded columns rejected, one per rule" test_malformed_coded_rejected ]
