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

(* As [decodes_safely], and a decoded value re-encodes to the very bytes
   it came from: no second encoding of any message decodes. *)
let decodes_canonically decode encode s =
  match decode s with
  | m -> String.equal (encode m) s
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

   Every integer is an unsigned LEB128 varint: seven bits a byte, low
   bits first, the top bit set on every byte but the last. An overlong
   varint (a zero last byte after the first), one past 62 bits (a ninth
   byte at 0x40 or above) and one cut short encode no integer [w_int]
   writes, and every reader — messages, store images, the disk manifest —
   must reject them with the typed error instead of aliasing another
   frame. *)

(* An independent LEB128 writer for hand-built frames. *)
let leb128 n =
  let b = Buffer.create 9 in
  let rec go n =
    if n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (n land 0x7f lor 0x80));
      go (n lsr 7)
    end
  in
  go n;
  Buffer.contents b

(* [s] with the [len] bytes at [pos] replaced by [by]. *)
let splice s ~pos ~len by =
  String.sub s 0 pos ^ by ^ String.sub s (pos + len) (String.length s - pos - len)

let prim_int n =
  let buf = Buffer.create 9 in
  Wire.Prim.w_int buf n;
  Buffer.contents buf

let test_varint_lengths () =
  List.iter
    (fun (n, len) ->
      let s = prim_int n in
      Alcotest.(check string) (Printf.sprintf "%d is LEB128" n) (leb128 n) s;
      Alcotest.(check int) (Printf.sprintf "%d takes %d bytes" n len) len (String.length s);
      Alcotest.(check int) (Printf.sprintf "%d round-trips" n) n
        (Wire.Prim.r_int (Wire.Prim.cursor s)))
    [ (0, 1); (1, 1); (0x7f, 1); (0x80, 2); (0x3fff, 2); (0x4000, 3);
      ((1 lsl 56) - 1, 8); (1 lsl 56, 9); (max_int, 9) ]

(* Non-canonical forms of the one-byte integer 2, and malformed ones. *)
let bad_varints =
  [ ("overlong 2", "\x82\x00", "Wire: overlong integer");
    ("overlong 0", "\x80\x80\x00", "Wire: overlong integer");
    ("past 62 bits", String.make 8 '\xff' ^ "\x40", "Wire: integer out of range");
    ("past 63 bits", String.make 8 '\x80' ^ "\x80\x01", "Wire: integer out of range") ]

let test_noncanonical_integers_rejected () =
  let tids = Wire.response_to_string (Wire.R_tids [| "t1"; "t2" |]) in
  let leaf = { Enc_relation.label = "L"; row_count = 1; tids = [| "x" |]; columns = [] } in
  let image =
    Wire.to_string
      { Enc_relation.relation_name = "R";
        leaves = [ leaf ];
        paillier_public = Snf_crypto.Paillier.public_of_n (Nat.of_int 35) }
  in
  List.iter
    (fun (what, bytes, msg) ->
      let raises where f = Alcotest.check_raises (where ^ ", " ^ what) (Invalid_argument msg) f in
      (* R_tids: magic (4) + version (1) + tag (1), then the count 2. *)
      raises "R_tids count" (fun () ->
          ignore (Wire.response_of_string (splice tids ~pos:6 ~len:1 bytes)));
      (* SNFE store image: magic (4) + version (1), then the name length 1. *)
      raises "SNFE name length" (fun () ->
          ignore (Wire.of_string (splice image ~pos:5 ~len:1 bytes)));
      raises "leaf label length" (fun () ->
          ignore (Wire.leaf_of_string (splice (Wire.leaf_to_string leaf) ~pos:0 ~len:1 bytes)));
      (* The manifest primitives. *)
      raises "Prim.r_int" (fun () -> ignore (Wire.Prim.r_int (Wire.Prim.cursor bytes))))
    bad_varints;
  List.iter
    (fun cut ->
      Alcotest.check_raises
        (Printf.sprintf "a varint cut after %d bytes" (String.length cut))
        (Invalid_argument "Wire: truncated") (fun () ->
          ignore (Wire.Prim.r_int (Wire.Prim.cursor cut))))
    [ ""; "\x80"; String.sub (prim_int max_int) 0 8 ];
  Alcotest.check_raises "R_tids cut inside its count" (Invalid_argument "Wire: truncated")
    (fun () -> ignore (Wire.response_of_string (String.sub tids 0 6 ^ "\x82")))

(* {1 Canonical masks}

   A mask of n slots is packed into ceil(n/8) bytes, slot k at bit k mod 8
   of byte k/8. The padding bits past slot n-1 carry no slot, so a set
   padding bit is a second encoding of the same mask and must be rejected
   with the typed error, like a non-canonical integer. A slot array in
   mask form ends at its last slot, so its top bit must be set too. *)

let padding_rejected = Invalid_argument "Wire: nonzero mask padding"

let flip_bit s ~pos ~bit =
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
  Bytes.to_string b

let test_mask_padding_rejected () =
  (* R_batch: magic (4) + version (1) + tag (1) + query count (1) + entry
     count (1) + slot count (1), then the packed byte of a 5-slot mask;
     bits 5..7 are padding. *)
  let batch mask = Wire.R_batch { results = [ [ (Bitmask.of_bools mask, 5) ] ] } in
  let bytes = Wire.response_to_string (batch [| true; false; true; true; false |]) in
  List.iter
    (fun bit ->
      Alcotest.check_raises (Printf.sprintf "R_batch padding bit %d" bit) padding_rejected
        (fun () -> ignore (Wire.response_of_string (flip_bit bytes ~pos:9 ~bit))))
    [ 5; 6; 7 ];
  let three =
    Wire.response_to_string
      (Wire.R_batch { results = [ [ (Bitmask.of_bools [| false; true; false |], 3) ] ] })
  in
  Alcotest.check_raises "R_batch padding bit 3 of a 3-slot mask" padding_rejected
    (fun () -> ignore (Wire.response_of_string (flip_bit three ~pos:9 ~bit:3)));
  (* A slot bit is data, not padding: the mask decodes with slot 1 set. *)
  (match Wire.response_of_string (flip_bit bytes ~pos:9 ~bit:1) with
   | Wire.R_batch _ as r ->
     Alcotest.(check bool) "slot bit decodes" true
       (r = batch [| true; true; true; true; false |])
   | _ -> Alcotest.fail "slot bit: not an R_batch");
  (* R_slots [0; 2; 3; 9]: magic (4) + version (1) + tag (1) + option (1),
     then form 2, the span 10 and two packed bytes; slot 9 is bit 1 of
     the second, so bits 2..7 of it are padding and bit 1 is the top. *)
  let slots = Wire.response_to_string (Wire.R_slots (Some [| 0; 2; 3; 9 |])) in
  Alcotest.(check int) "a mask form" 2 (Char.code slots.[7]);
  Alcotest.(check int) "its bytes" 11 (String.length slots);
  List.iter
    (fun bit ->
      Alcotest.check_raises (Printf.sprintf "R_slots padding bit %d" bit) padding_rejected
        (fun () -> ignore (Wire.response_of_string (flip_bit slots ~pos:10 ~bit))))
    [ 2; 7 ];
  Alcotest.check_raises "R_slots top bit clear" (Invalid_argument "Wire: mask top bit clear")
    (fun () -> ignore (Wire.response_of_string (flip_bit slots ~pos:10 ~bit:1)))

(* {1 Slot arrays}

   A slot array crosses in the one form its content selects: a strictly
   ascending array as a mask when its span is at most eight bits a slot
   and as gaps otherwise, any other array as plain varints. *)

(* Every form, and the boundaries between them: dense and sparse
   ascending arrays, the empty one, descending ones and ones with
   repeats. *)
let gen_slot_array =
  let open Gen in
  let ascending =
    map2
      (fun start gaps ->
        let a = Array.of_list gaps in
        let acc = ref start in
        Array.map (fun g -> let s = !acc in acc := s + g + 1; s) a)
      (oneof [ int_bound 20; int_bound 100_000; return (max_int - 100) ])
      (list_size (int_bound 40)
         (oneof [ return 0; int_bound 7; int_bound 20; int_bound 1_000_000 ]))
  in
  oneof
    [ ascending;
      map (fun a -> Array.of_list (List.rev (Array.to_list a))) ascending;
      map (fun a -> Array.append a a) ascending;
      array_size (int_bound 40) (int_bound 60);
      map (fun n -> Array.init n Fun.id) (int_bound 70);
      map (fun n -> Array.init n (fun i -> 9 * i)) (int_bound 20);
      map (fun n -> Array.init n (fun i -> 8 * i)) (int_bound 20) ]
  |> map (Array.map (fun s -> if s < 0 then max_int else s))

let strictly_ascending a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) >= a.(i) then ok := false
  done;
  !ok

(* The form the content selects: 2 (mask), 1 (gaps) or 0 (plain). *)
let selected_form a =
  let k = Array.length a in
  if not (strictly_ascending a) then 0
  else if k = 0 || a.(k - 1) < 8 * k then 2
  else 1

(* The slot array in [form], built here rather than by [Wire], whether
   or not its content selects that form. [None] when the form cannot
   hold the array. *)
let encode_form form a =
  let k = Array.length a in
  match form with
  | 0 -> Some ("\x00" ^ leb128 k ^ String.concat "" (Array.to_list (Array.map leb128 a)))
  | _ when not (strictly_ascending a) -> None
  | 1 when k > 0 ->
    Some
      ("\x01" ^ leb128 k ^ leb128 a.(0)
      ^ String.concat ""
          (List.init (k - 1) (fun i -> leb128 (a.(i + 1) - a.(i) - 1))))
  | 1 -> None
  | _ ->
    if k > 0 && a.(k - 1) >= 1 lsl 20 then None
    else begin
      let span = if k = 0 then 0 else a.(k - 1) + 1 in
      let b = Bytes.make ((span + 7) / 8) '\000' in
      Array.iter
        (fun s ->
          Bytes.set b (s / 8) (Char.chr (Char.code (Bytes.get b (s / 8)) lor (1 lsl (s mod 8)))))
        a;
      Some ("\x02" ^ leb128 span ^ Bytes.to_string b)
    end

(* R_slots (Some a): magic (4) + version (1) + tag (1) + option (1),
   then the slot array. *)
let r_slots_header = "SNFM\x07\x02\x01"

let slots_roundtrip a =
  let bytes = Wire.response_to_string (Wire.R_slots (Some a)) in
  let requests =
    [ Wire.Fetch_rows { leaf = "R"; attrs = [ "a" ]; slots = a };
      Wire.Q_batch { queries = [ [ ("R", [ Wire.F_slots a ]) ] ] } ]
  in
  Char.code bytes.[7] = selected_form a
  && Some (String.sub bytes 7 (String.length bytes - 7)) = encode_form (selected_form a) a
  && Wire.response_of_string bytes = Wire.R_slots (Some a)
  && List.for_all (fun r -> Wire.request_of_string (Wire.request_to_string r) = r) requests

let other_forms_rejected a =
  List.for_all
    (fun form ->
      form = selected_form a
      ||
      match encode_form form a with
      | None -> true
      | Some body -> (
        match Wire.response_of_string (r_slots_header ^ body) with
        | _ -> false
        | exception Invalid_argument msg ->
          msg = "Wire: slots in a form their content does not select"))
    [ 0; 1; 2 ]

let test_slot_forms () =
  List.iter
    (fun (what, a, form, len) ->
      let bytes = Wire.response_to_string (Wire.R_slots (Some a)) in
      Alcotest.(check int) (what ^ ": form") form (Char.code bytes.[7]);
      Alcotest.(check int) (what ^ ": bytes after the form") len (String.length bytes - 8);
      Alcotest.(check bool) (what ^ ": round-trips") true (slots_roundtrip a);
      Alcotest.(check bool) (what ^ ": other forms rejected") true (other_forms_rejected a))
    [ ("empty", [||], 2, 1);
      ("one slot at 0", [| 0 |], 2, 2);
      ("one slot at 7", [| 7 |], 2, 2);
      ("one slot at 8", [| 8 |], 1, 2);
      ("1,900 of 4,000", Array.init 1900 (fun i -> (i * 4000 / 1900)), 2, 2 + 500);
      ("70 of 4,000", Array.init 70 (fun i -> 13 + (i * 57)), 1, 1 + 1 + 69);
      ("every 8th", Array.init 10 (fun i -> 8 * i), 2, 1 + 10);
      ("every 9th", Array.init 10 (fun i -> 9 * i), 1, 1 + 1 + 9);
      ("descending", [| 9; 4; 1 |], 0, 4);
      ("repeats", [| 1; 0; 1 |], 0, 4);
      ("max_int", [| max_int |], 1, 1 + 9) ];
  (* A gap that would carry a slot past [max_int] is out of range. *)
  Alcotest.check_raises "a gap past max_int" (Invalid_argument "Wire: slot out of range")
    (fun () ->
      ignore
        (Wire.response_of_string
           (r_slots_header ^ "\x01\x02" ^ leb128 (max_int - 1) ^ leb128 1)));
  Alcotest.check_raises "an unknown form" (Invalid_argument "Wire: unknown slot form 3")
    (fun () -> ignore (Wire.response_of_string (r_slots_header ^ "\x03\x00")));
  (* A mask's span is checked against the bytes left before any slot is
     read: a span of 2^40 slots in a short message is truncated. *)
  Alcotest.check_raises "a mask longer than the message" (Invalid_argument "Wire: truncated mask")
    (fun () -> ignore (Wire.response_of_string (r_slots_header ^ "\x02" ^ leb128 (1 lsl 40))));
  Alcotest.check_raises "a plain count longer than the message"
    (Invalid_argument "Wire: count exceeds input") (fun () ->
      ignore (Wire.response_of_string (r_slots_header ^ "\x00" ^ leb128 (1 lsl 40))))

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

(* SNFM 7 retired the ORAM round. An ORAM fetch as SNFM 6 laid it out
   (leaf, seed, block size, sealed blocks, slots) and its answer (sealed
   blocks, touches), framed as SNFM 7, are unknown messages: tag 7 and
   tag 6 name nothing. *)
let test_oram_tags_rejected () =
  let frame tag body = "SNFM\x07" ^ String.make 1 (Char.chr tag) ^ body in
  let oram_fetch = frame 7 ("\x01R" ^ "\x07" ^ "\x04" ^ "\x01\x04blk0" ^ "\x02\x01\x01") in
  let r_oram = frame 6 ("\x01\x04blk0" ^ "\x2a") in
  Alcotest.check_raises "an Oram_fetch"
    (Invalid_argument "Wire: unknown request tag 7") (fun () ->
      ignore (Wire.request_of_string oram_fetch));
  Alcotest.check_raises "an R_oram"
    (Invalid_argument "Wire: unknown response tag 6") (fun () ->
      ignore (Wire.response_of_string r_oram));
  Alcotest.check_raises "request tag 7, no body"
    (Invalid_argument "Wire: unknown request tag 7") (fun () ->
      ignore (Wire.request_of_string (frame 7 "")));
  Alcotest.check_raises "response tag 6, no body"
    (Invalid_argument "Wire: unknown response tag 6") (fun () ->
      ignore (Wire.response_of_string (frame 6 "")))

(* {1 Versions and tid digests}

   Byte 4 of every message is the SNFM version. Version 1 described
   leaves without tid digests, and version 2 still had a separate
   shape-check request and a two-message ORAM (install, then one read per
   slot), version 3 still had a per-leaf filter request and its mask
   response, version 5 wrote every integer as an 8-byte word, and
   version 6 still had the ORAM round (Oram_fetch, R_oram); a
   message of any version but the current one is rejected whole, never
   read under the wrong grammar. The store image carries its own SNFE
   version byte, also at byte 4: version 1 wrote 8-byte words. *)

let with_version s v =
  let b = Bytes.of_string s in
  Bytes.set b 4 (Char.chr v);
  Bytes.to_string b

(* An 8-byte little-endian word, the integer of SNFM 5 and SNFE 1. *)
let word n =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int n);
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
      [ 0; 1; 2; 3; 4; 5; 6; current + 1; 255 ]
  in
  Alcotest.(check int) "messages are SNFM version 7" 7
    (version_of (Wire.request_to_string Wire.Describe));
  List.iteri (fun i r -> check (Printf.sprintf "response %d" i) (Wire.response_to_string r))
    sample_responses;
  List.iter
    (fun req ->
      let bytes = Wire.request_to_string req in
      Alcotest.check_raises "request at version 1"
        (Invalid_argument "Wire: unsupported message version 1")
        (fun () -> ignore (Wire.request_of_string (with_version bytes 1))))
    sample_requests;
  (* Whole messages as SNFM 5 wrote them. *)
  let v5_tids = "SNFM\x05\x05" ^ word 2 ^ word 2 ^ "t1" ^ word 2 ^ "t2" in
  let v5_fetch =
    "SNFM\x05\x05" ^ word 1 ^ "R" ^ word 1 ^ word 1 ^ "a" ^ word 2 ^ word 1 ^ word 3
  in
  Alcotest.check_raises "an SNFM 5 R_tids"
    (Invalid_argument "Wire: unsupported message version 5") (fun () ->
      ignore (Wire.response_of_string v5_tids));
  Alcotest.check_raises "an SNFM 5 Fetch_rows"
    (Invalid_argument "Wire: unsupported message version 5") (fun () ->
      ignore (Wire.request_of_string v5_fetch));
  (* A whole store image as SNFE 1 wrote it: relation "R", Paillier n =
     35, one leaf "L" of one row with tid "x" and no columns. *)
  let v1_image =
    "SNFE\x01" ^ word 1 ^ "R" ^ word 1 ^ "\x23" ^ word 1 ^ word 1 ^ "L" ^ word 1 ^ word 1 ^ "x"
    ^ word 0
  in
  Alcotest.(check int) "images are SNFE version 2" 2
    (version_of
       (Wire.to_string
          { Enc_relation.relation_name = "R";
            leaves = [];
            paillier_public = Snf_crypto.Paillier.public_of_n (Nat.of_int 35) }));
  List.iter
    (fun (what, bytes, v) ->
      Alcotest.check_raises what
        (Invalid_argument (Printf.sprintf "Wire: unsupported version %d" v))
        (fun () -> ignore (Wire.of_string bytes)))
    [ ("an SNFE 1 image", v1_image, 1); ("an SNFE 3 image", with_version v1_image 3, 3) ]

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

(* {1 Token fingerprints}

   SNFT summaries name a filter op by [Wire.token_fingerprint]: the
   first 16 hex digits of the MD5 of its bytes in SNFM version 5's
   layout, every integer an 8-byte word, whatever the transport writes.
   Built here by hand, so a change to the message codec cannot move a
   token's name. *)
let test_token_fingerprint_layout () =
  let fp bytes = String.sub (Digest.to_hex (Digest.string bytes)) 0 16 in
  let ore = Ore.of_symbols [| 0; 1; 2 |] in
  List.iter
    (fun (what, op, v5) ->
      Alcotest.(check string) what (fp v5) (Wire.token_fingerprint op))
    [ ("det", Wire.F_eq ("a", Enc_relation.Eq_det "tok"), "\x01" ^ word 1 ^ "a\x01" ^ word 3 ^ "tok");
      ( "plain",
        Wire.F_eq ("a", Enc_relation.Eq_plain (Value.Text "x")),
        "\x01" ^ word 1 ^ "a\x00" ^ word 2 ^ "tx" );
      ("ord", Wire.F_eq ("b", Enc_relation.Eq_ord 300), "\x01" ^ word 1 ^ "b\x02" ^ word 300);
      ( "ore",
        Wire.F_eq ("b", Enc_relation.Eq_ore ore),
        "\x01" ^ word 1 ^ "b\x03" ^ word 3 ^ "\x00\x01\x02" );
      ( "ord range",
        Wire.F_range ("c", Enc_relation.Rng_ord (2, 40_000)),
        "\x02" ^ word 1 ^ "c\x01" ^ word 2 ^ word 40_000 );
      ( "ore range",
        Wire.F_range ("c", Enc_relation.Rng_ore (ore, ore)),
        "\x02" ^ word 1 ^ "c\x02" ^ word 3 ^ "\x00\x01\x02" ^ word 3 ^ "\x00\x01\x02" );
      ("slots", Wire.F_slots [| 9; 2 |], "\x00" ^ word 2 ^ word 9 ^ word 2) ]

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
               + String.length (leb128 (Array.length codes))
               + (Array.length codes * width))
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
  (* magic (4), version (1), response tag (1), column count (1): the
     coding tag follows *)
  let retag = Bytes.of_string good in
  Bytes.set retag 7 '\x02';
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
    t "messages of another version rejected" test_other_versions_rejected;
    t "tid digests: R_tids bytes, 16 bytes on the wire" test_tids_digest;
    t "token fingerprints over the SNFM 5 layout" test_token_fingerprint_layout;
    t "every strict prefix rejected" test_every_prefix_rejected;
    t "integers are canonical LEB128 varints" test_varint_lengths;
    t "integers with the top bits set, overlong or cut short rejected"
      test_noncanonical_integers_rejected;
    t "masks with padding bits set rejected" test_mask_padding_rejected;
    t "slot arrays cross in the form their content selects" test_slot_forms;
    Helpers.qtest ~count:300 "random slot arrays roundtrip in their form" gen_slot_array
      slots_roundtrip;
    Helpers.qtest ~count:300 "slot arrays in another form rejected" gen_slot_array
      other_forms_rejected;
    t "the deleted filter tags are unknown" test_deleted_tags_rejected;
    t "the retired ORAM tags are unknown under SNFM 7" test_oram_tags_rejected;
    Helpers.qtest ~count:300 "random requests roundtrip" gen_request
      req_roundtrips;
    Helpers.qtest ~count:300 "random responses roundtrip" gen_response
      resp_roundtrips;
    Helpers.qtest ~count:300 "flipped request bytes decode safely and canonically"
      (Gen.triple gen_request Gen.nat Gen.nat)
      (fun (req, pos, byte) ->
        decodes_canonically Wire.request_of_string Wire.request_to_string
          (flip (Wire.request_to_string req) pos byte));
    Helpers.qtest ~count:300 "flipped response bytes decode safely and canonically"
      (Gen.triple gen_response Gen.nat Gen.nat)
      (fun (resp, pos, byte) ->
        decodes_canonically Wire.response_of_string Wire.response_to_string
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
