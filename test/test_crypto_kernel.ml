(* The allocation-free crypto kernel and the client key schedule: every
   output bit must match the closure-based kernel they replaced, the hot
   primitives must stay within small minor-heap budgets, tampering must
   still surface as [Integrity.Corruption], and the schedule must never
   hand one client's keys to another. *)

open Snf_crypto
open Snf_relational
open Snf_exec
open Snf_reference

let t name f = Alcotest.test_case name `Quick f

let md5 s = Digest.to_hex (Digest.string s)
let msg len = String.init len (fun i -> Char.chr (((i * 37) + 11) land 0xff))
let range n = List.init n Fun.id
let cat f l = String.concat "|" (List.map f l)
let ints f l = cat (fun x -> string_of_int (f x)) l
let symbols c = ints Fun.id (Array.to_list (Ore.symbols c))

(* --- golden outputs ------------------------------------------------------ *)

(* MD5 digests of fixed-input outputs, recorded from the closure-based
   kernel (boxed SipHash state, per-call key derivation, sprintf labels)
   before the allocation-free rewrite. Any changed output bit fails. *)
let golden =
  let k = Prf.key_of_string "golden" in
  let fk = Prf.key_of_string "feistel-golden" in
  let ovals =
    List.map (fun i -> ((i * 21474836) + (i * i * 7)) land 0xffff_ffff) (range 200)
  in
  let kr = Keyring.create ~master:"golden-master" in
  let paths = [ [ "census"; "ZipCode" ]; [ "r"; "leaf:1"; "a" ]; []; [ ""; "x" ] ] in
  [ ("prf.mac", "3f1ac8bbeb202687ad0e70c3724f9613",
     fun () -> cat (fun n -> Int64.to_string (Prf.mac k (msg n))) (range 65));
    ("prf.mac_int", "5a8a60f34844318ec21b14ab466d4a78",
     fun () ->
       cat (fun n -> Int64.to_string (Prf.mac_int k n))
         [ 0; 1; -1; 255; 256; max_int; min_int; 123456789 ]);
    ("prf.tag", "ad2b1f74655e74d8cd5b28536d901430",
     fun () -> cat (fun n -> Prf.tag k (msg n)) (range 33));
    ("prf.keystream", "bc5b64635919989401fd8d90662af602",
     fun () -> cat (fun n -> Prf.keystream k ~nonce:"goldnonc" n) (range 71));
    ("prf.keystream_odd_nonce", "dcabd6e19d1d409ce6bd77d3cb9bf21d",
     fun () -> cat (fun n -> Prf.keystream k ~nonce:(msg (n mod 13)) n) (range 40));
    ("prf.derive", "7c816322cbdf46098a5311f3864bbb3f",
     fun () -> cat (fun n -> Prf.derive k (msg n)) (range 20));
    ("prf.key_of_string", "861eff2c5adec97f46d12389804b0261",
     fun () -> cat (fun n -> Prf.key_of_string (msg n)) (range 20));
    ("prf.uniform_int", "8f1164e6e648ad0d8f406f50f60b46d2",
     fun () -> ints (fun n -> Prf.uniform_int k (msg n) (1 + (n * 7919))) (range 60));
    ("det.encrypt", "6d68d620d8b4c3b1ec0ed666ad91726b",
     fun () ->
       let dk = Det.key_of_string "det-golden" in
       cat (fun n -> Det.encrypt dk (msg n)) (range 41));
    ("det.encrypt_keygen", "e8c02ee6637405c22b4c9eafe7421111",
     fun () ->
       let dk = Det.key_gen (Prng.create 11) in
       cat (fun n -> Det.encrypt dk (msg n)) (range 20));
    ("ndet.encrypt", "985b3403bd02424f31ceecb01bffd44a",
     fun () ->
       let nk = Ndet.key_of_string "ndet-golden" and rng = Prng.create 4 in
       cat (fun n -> Ndet.encrypt ~rng nk (msg n)) (range 41));
    ("ndet.encrypt_keygen", "80672192fc469a9fd4dc003e3873efd9",
     fun () ->
       let nk = Ndet.key_gen (Prng.create 12) and rng = Prng.create 5 in
       cat (fun n -> Ndet.encrypt ~rng nk (msg n)) (range 20));
    ("feistel.permute_4000", "1dece417806c7a3c297c04f6a8b1716a",
     fun () -> ints (Feistel.permute ~key:fk ~domain:4000) (range 4000));
    ("feistel.unpermute_4000", "a6550723e16e391d11f4b67ed01cfd9a",
     fun () -> ints (Feistel.unpermute ~key:fk ~domain:4000) (range 4000));
    ("feistel.permute_small", "c80a2714af8c3bbbf3c97dc42aca858b",
     fun () -> cat (fun d -> ints (Feistel.permute ~key:fk ~domain:d) (range d)) [ 2; 3; 10; 257 ]);
    ("feistel.encrypt_bits_62", "ab77ecad306af7880f2dd39bb2258e14",
     fun () -> ints (fun i -> Feistel.encrypt_bits ~key:fk ~bits:62 (i * 0x1234567_89ab)) (range 50));
    ("ope.encrypt_32", "32149ef0dc7714592e36c8e5ae82f23f",
     fun () ->
       let ope = Ope.create ~key:(Prf.key_of_string "ope-golden") ~domain_bits:32 () in
       ints (Ope.encrypt ope) ovals);
    ("ope.encrypt_12", "4d0e6ff98dff72b6f5a37533962e73c1",
     fun () ->
       let ope = Ope.create ~key:(Prf.key_of_string "ope") ~domain_bits:12 () in
       ints (Ope.encrypt ope) (range 4096));
    ("ore.encrypt_32", "88a79cf7055674e8e3e0dbc5b7e5400c",
     fun () ->
       let ore = Ore.create ~key:(Prf.key_of_string "ore-golden") ~bits:32 in
       cat (fun v -> symbols (Ore.encrypt ore v)) ovals);
    ("keyring.derive", "65dd45fde124decc19535a41b0fd53e2",
     fun () -> cat (Keyring.derive kr) paths);
    ("keyring.det_key", "95a5b2ab777280859304580a7d0a2bea",
     fun () -> cat (fun p -> Det.encrypt (Keyring.det_key kr p) "cell") paths);
    ("keyring.ndet_key", "eeda2b9fe4ae99b58dc8c24d3ddcfe0a",
     fun () ->
       let rng = Prng.create 6 in
       cat (fun p -> Ndet.encrypt ~rng (Keyring.ndet_key kr p) "cell") paths);
    ("keyring.ope", "e36dd3d2a46e87632836ec1c131d14a5",
     fun () ->
       cat (fun p -> string_of_int (Ope.encrypt (Keyring.ope kr p ~domain_bits:32) 94016)) paths);
    ("keyring.ore", "4ee0d3025061206a06a68ce297ce3794",
     fun () -> cat (fun p -> symbols (Ore.encrypt (Keyring.ore kr p ~bits:32) 94016)) paths);
    ("keyring.random", "42cf5b8738553f63551d8f8a7d06a897",
     fun () -> Keyring.derive (Keyring.random (Prng.create 13)) [ "a" ]) ]

let test_golden () =
  List.iter
    (fun (name, expect, output) -> Alcotest.(check string) name expect (md5 (output ())))
    golden

(* --- whole stores -------------------------------------------------------- *)

let with_domains d f =
  let saved = Parallel.domain_count () in
  Parallel.set_domain_count d;
  Fun.protect ~finally:(fun () -> Parallel.set_domain_count saved) f

(* Every scheme in one leaf, 40 rows: enough for [Parallel] to fan out. *)
let all_schemes_owner ?(name = "golden") ?master () =
  let r =
    Relation.create
      (Schema.of_attributes
         [ Attribute.int "id"; Attribute.text "note"; Attribute.text "code";
           Attribute.int "score"; Attribute.int "level"; Attribute.int "amount" ])
      (List.init 40 (fun i ->
           [| Value.Int i; Value.Text (Printf.sprintf "n%d" i);
              Value.Text (Printf.sprintf "c%d" (i mod 3));
              Value.Int (i * 7 mod 13); Value.Int (i mod 4); Value.Int (i * 10) |]))
  in
  let policy =
    Snf_core.Policy.create
      [ ("id", Scheme.Plain); ("note", Scheme.Ndet); ("code", Scheme.Det);
        ("score", Scheme.Ope); ("level", Scheme.Ore); ("amount", Scheme.Phe) ]
  in
  let g = Snf_deps.Dep_graph.create (Snf_core.Policy.attrs policy) in
  System.outsource ?master ~name ~graph:g r policy

(* Two leaves: the running example's FD splits ZipCode/State from Income. *)
let two_leaf_owner () =
  let r =
    Relation.create
      (Schema.of_attributes
         [ Attribute.text "State"; Attribute.int "ZipCode"; Attribute.int "Income" ])
      (List.init 48 (fun i ->
           [| Value.Text (List.nth [ "CA"; "NY"; "TX"; "WA" ] (i mod 4));
              Value.Int (90000 + ((i mod 4) * 1000) + (i mod 3));
              Value.Int (i * 13 mod 300) |]))
  in
  let policy =
    Snf_core.Policy.create
      [ ("State", Scheme.Ndet); ("ZipCode", Scheme.Det); ("Income", Scheme.Ope) ]
  in
  let g = Snf_deps.Dep_graph.create [ "State"; "ZipCode"; "Income" ] in
  let g = Snf_deps.Dep_graph.add_fd g (Fd.make [ "ZipCode" ] [ "State" ]) in
  let g = Snf_deps.Dep_graph.declare_independent g "Income" "State" in
  let g = Snf_deps.Dep_graph.declare_independent g "Income" "ZipCode" in
  System.outsource ~name:"golden2" ~graph:g r policy

(* The serialized store (every tid, cell and Paillier ciphertext) and row
   positions, under 1 and 2 domains: identical to each
   other and to the digests recorded before the key schedule existed.
   The image digests were re-recorded when SNFE went to version 2
   (varint integers); the content the images decode to was pinned
   before that and did not move. *)
let test_outsource_golden_across_domains () =
  List.iter
    (fun d ->
      with_domains d @@ fun () ->
      let tag s = Printf.sprintf "%s (domains=%d)" s d in
      let o = all_schemes_owner () in
      Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
      Alcotest.(check string) (tag "store image") "2e19139487a75c3f9be88c6fab715e06"
        (md5 (Wire.to_string o.System.enc));
      Alcotest.(check string) (tag "decoded store content") "0cd8f35db47ee3f3414d628f305b3b29"
        (Helpers.store_content_digest (Wire.of_string (Wire.to_string o.System.enc)));
      let c = o.System.client in
      let leaf = (List.hd o.System.enc.Enc_relation.leaves).Enc_relation.label in
      Alcotest.(check string) (tag "row positions") "6fb0b94adc45807084d9db569ffc39d0"
        (md5 (ints (Enc_relation.row_position c ~leaf ~rows:40) (range 40)));
      let o2 = two_leaf_owner () in
      Fun.protect ~finally:(fun () -> System.release o2) @@ fun () ->
      Alcotest.(check int) (tag "two leaves") 2 (List.length o2.System.enc.Enc_relation.leaves);
      Alcotest.(check string) (tag "two-leaf store image") "b87a3af1a3304d75cfd66f3608ab4564"
        (md5 (Wire.to_string o2.System.enc));
      Alcotest.(check string) (tag "two-leaf decoded store content") "067a57e0baee5fe1c0954ca01f320b47"
        (Helpers.store_content_digest (Wire.of_string (Wire.to_string o2.System.enc))))
    [ 1; 2 ]

(* --- the closure-based SipHash as an oracle ------------------------------- *)

let gen_key = QCheck2.Gen.(string_size ~gen:char (return 16))
let gen_msg = QCheck2.Gen.(string_size ~gen:char (int_bound 100))

let prop_mac_matches_reference =
  Helpers.qtest ~count:500 "Prf.mac equals the closure-based SipHash"
    QCheck2.Gen.(pair gen_key gen_msg)
    (fun (key, m) -> Int64.equal (Prf.mac key m) (Siphash_reference.mac key m))

let prop_mac_sub_matches_reference =
  Helpers.qtest "Prf.mac_sub and mac_bytes equal SipHash of the substring"
    QCheck2.Gen.(triple gen_key gen_msg (pair nat nat))
    (fun (key, m, (a, b)) ->
      let n = String.length m in
      let off = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - off = 0 then 0 else b mod (n - off + 1) in
      let expect = Siphash_reference.mac key (String.sub m off len) in
      Int64.equal (Prf.mac_sub key m ~off ~len) expect
      && Int64.equal (Prf.mac_bytes key (Bytes.of_string m) ~off ~len) expect)

let prop_keystream_matches_reference =
  Helpers.qtest "Prf.keystream equals the Buffer-built keystream"
    QCheck2.Gen.(triple gen_key (string_size ~gen:char (int_bound 20)) (int_bound 90))
    (fun (key, nonce, n) ->
      String.equal (Prf.keystream key ~nonce n) (Siphash_reference.keystream key ~nonce n))

let prop_keystream_xor =
  Helpers.qtest "Prf.keystream_xor is XOR with the 8-byte-nonce keystream"
    QCheck2.Gen.(triple gen_key int64 (pair gen_msg (int_bound 7)))
    (fun (key, nonce, (src, pad)) ->
      let n = String.length src in
      let dst = Bytes.make (n + pad) '\xaa' in
      Prf.keystream_xor key ~nonce src ~src_off:0 dst ~dst_off:pad ~len:n;
      let ks = Siphash_reference.keystream key ~nonce:(Siphash_reference.le64_string nonce) n in
      let expect = String.init n (fun i -> Char.chr (Char.code src.[i] lxor Char.code ks.[i])) in
      String.equal (Bytes.sub_string dst pad n) expect
      && String.equal (Bytes.sub_string dst 0 pad) (String.make pad '\xaa'))

(* With a 2^60 bound the drawn integer pins the label bytes: two labels
   that differ would agree only by a 2^-60 accident. *)
let draws_like key l label =
  Prf.Label.uniform_int key l (1 lsl 60) = Prf.uniform_int key label (1 lsl 60)

let prop_label_matches_sprintf =
  Helpers.qtest "Prf.Label draws as the sprintf-built label does"
    QCheck2.Gen.(triple gen_key (pair int int) (int_range 1 1_000_000))
    (fun (key, (a, b), bound) ->
      let l = Prf.Label.create 4 in
      Prf.Label.add_string l "ope:";
      Prf.Label.add_int l a;
      Prf.Label.add_char l ':';
      Prf.Label.add_int l b;
      let label = Printf.sprintf "ope:%d:%d" a b in
      Prf.Label.uniform_int key l bound = Prf.uniform_int key label bound
      && draws_like key l label)

let test_label_edge_ints () =
  let key = Prf.key_of_string "label" in
  List.iter
    (fun n ->
      let l = Prf.Label.create 0 in
      Prf.Label.add_int l n;
      Alcotest.(check bool) (string_of_int n) true (draws_like key l (string_of_int n)))
    [ 0; 9; 10; -1; -10; max_int; min_int ]

(* --- allocation budgets ------------------------------------------------------ *)

let words_per_call f =
  let reps = 1_000 in
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int reps

(* Only the boxed [int64] result (and, for the ciphers, the output
   string and one counter block) may reach the minor heap. A boxed state
   word or a captured ref costs hundreds of words per call, so these
   bounds trip long before it shows in a benchmark. Bytecode boxes every
   [int64], so the budgets apply to native code. *)
let test_allocation_budgets () =
  if Sys.backend_type = Sys.Native then begin
    let key = Prf.key_of_string "budget" in
    let budget name bound f =
      let w = words_per_call f in
      if w > bound then Alcotest.failf "%s: %.1f minor words per call (budget %.0f)" name w bound
    in
    let m8 = String.make 8 'm' and m24 = String.make 24 'm' in
    budget "Prf.mac 8 B" 4. (fun () -> Prf.mac key m8);
    budget "Prf.mac 24 B" 4. (fun () -> Prf.mac key m24);
    let det = Det.key_of_string "budget" and ndet = Ndet.key_of_string "budget" in
    let cell = "cell-07" in
    let dct = Det.encrypt det cell and nct = Ndet.encrypt ~rng:(Prng.create 1) ndet cell in
    budget "Det.decrypt 7 B" 24. (fun () -> Det.decrypt det dct);
    budget "Ndet.decrypt 7 B" 24. (fun () -> Ndet.decrypt ndet nct);
    (* One Paillier CRT leg's shape: a 4-limb modulus, a 48-bit exponent.
       The in-place exponentiation pays a scratch, an accumulator and the
       window table (59 words measured); two arrays per product would cost
       over 1,000. *)
    let prng = Prng.create 19 in
    let rand = Prng.int prng in
    let module Nat = Snf_bignum.Nat in
    let m = Nat.succ (Nat.shift_left (Nat.random_bits rand 95) 1) in
    let ctx = Nat.Mont.make m in
    let b = Nat.random_below rand m and e = Nat.random_bits rand 48 in
    budget "Mont.pow_mod 4 limbs, 48-bit exponent" 100. (fun () -> Nat.Mont.pow_mod ctx b e);
    (* Two such legs plus the recombination: 175 words measured. A
       division per step (a [rem] into each leg, a floor [L], a
       [Nat.mul_mod]) cost 310. *)
    let kp = Paillier.key_gen ~prime_bits:48 (Prng.create 23) in
    let ct = Paillier.encrypt_int (Prng.create 29) kp.Paillier.public 123_456 in
    budget "Paillier.decrypt 48-bit primes" 250. (fun () -> Paillier.decrypt kp ct);
    (* The wire codecs of that 24-byte ciphertext: the limb array (9
       words measured) and the string (5). One bignum shift per byte cost
       about 740 words. *)
    let bytes = Nat.to_bytes_be ct in
    Alcotest.(check int) "a 24-byte ciphertext" 24 (String.length bytes);
    budget "Nat.of_bytes_be 24 B" 12. (fun () -> Nat.of_bytes_be bytes);
    budget "Nat.to_bytes_be 24 B" 8. (fun () -> Nat.to_bytes_be ct)
  end

(* --- tampering still detected ------------------------------------------------ *)

let flip_byte s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bytes.to_string b

let expect_corruption what f =
  match f () with
  | _ -> Alcotest.failf "%s: tampering went undetected" what
  | exception Integrity.Corruption _ -> ()

let test_tamper_detected () =
  let o = all_schemes_owner ~name:"tamper" () in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let c = o.System.client in
  let l = List.hd o.System.enc.Enc_relation.leaves in
  let leaf = l.Enc_relation.label in
  let decrypt attr cell =
    let col = Enc_relation.column l attr in
    Enc_relation.decrypt_cell c ~leaf ~attr ~scheme:col.Enc_relation.scheme cell
  in
  let cell0 attr = (Enc_relation.column l attr).Enc_relation.cells.(0) in
  let bytes_of = function Enc_relation.C_bytes b -> b | _ -> Alcotest.fail "not bytes" in
  (* untampered cells decrypt, so the failures below are the tampering *)
  List.iter (fun a -> ignore (decrypt a (cell0 a))) [ "note"; "code"; "score"; "level" ];
  List.iter
    (fun i ->
      expect_corruption "DET body/IV" (fun () ->
          decrypt "code" (Enc_relation.C_bytes (flip_byte (bytes_of (cell0 "code")) i)));
      expect_corruption "NDET iv/body/tag" (fun () ->
          decrypt "note" (Enc_relation.C_bytes (flip_byte (bytes_of (cell0 "note")) i))))
    [ 0; 7; 8; 9 ];
  expect_corruption "NDET tag" (fun () ->
      let b = bytes_of (cell0 "note") in
      decrypt "note" (Enc_relation.C_bytes (flip_byte b (String.length b - 1))));
  (match cell0 "score" with
   | Enc_relation.C_ord { ord; payload } ->
     expect_corruption "OPE order part" (fun () ->
         decrypt "score" (Enc_relation.C_ord { ord = ord + 1; payload }));
     expect_corruption "OPE payload" (fun () ->
         decrypt "score" (Enc_relation.C_ord { ord; payload = flip_byte payload 9 }))
   | _ -> Alcotest.fail "OPE cell expected");
  (match cell0 "level" with
   | Enc_relation.C_ore { ore; payload } ->
     let s = Ore.symbols ore in
     let last = Array.length s - 1 in
     s.(last) <- (s.(last) + 1) mod 3;
     expect_corruption "ORE order part" (fun () ->
         decrypt "level" (Enc_relation.C_ore { ore = Ore.of_symbols s; payload }));
     expect_corruption "ORE payload" (fun () ->
         decrypt "level" (Enc_relation.C_ore { ore; payload = flip_byte payload 9 }))
   | _ -> Alcotest.fail "ORE cell expected");
  expect_corruption "tid" (fun () ->
      Enc_relation.decrypt_tid c ~leaf (flip_byte l.Enc_relation.tids.(0) 10))

(* --- the onion-check memo ------------------------------------------------------ *)

let expect_onion_mismatch what f =
  match f () with
  | _ -> Alcotest.failf "%s: tampering went undetected" what
  | exception Integrity.Corruption { detail; _ } ->
    let needle = "onion mismatch" in
    let n = String.length needle in
    let rec found i =
      i + n <= String.length detail && (String.sub detail i n = needle || found (i + 1))
    in
    if not (found 0) then
      Alcotest.failf "%s: expected an onion mismatch, got %S" what detail

(* The memo holds each column's order part by ordinal, so a cell whose
   value was already checked skips the re-encryption; its order part must
   still be compared. A PHE cell that is no ciphertext (0, n or n^2)
   still raises after a warm decrypt of the column. *)
let test_memoised_onion_flip_detected () =
  let o = all_schemes_owner ~name:"memo" () in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let c = o.System.client in
  let l = List.hd o.System.enc.Enc_relation.leaves in
  let leaf = l.Enc_relation.label in
  let cell0 attr = (Enc_relation.column l attr).Enc_relation.cells.(0) in
  let memoised attr scheme =
    ignore (Enc_relation.decrypt_cell c ~leaf ~attr ~scheme (cell0 attr));
    Alcotest.(check bool) (attr ^ " memoised") true
      (Enc_relation.crypto_memo_size c ~leaf ~attr ~scheme > 0)
  in
  memoised "score" Scheme.Ope;
  memoised "level" Scheme.Ore;
  (match cell0 "score" with
   | Enc_relation.C_ord { ord; payload } ->
     expect_onion_mismatch "memoised OPE order part" (fun () ->
         Enc_relation.decrypt_cell c ~leaf ~attr:"score" ~scheme:Scheme.Ope
           (Enc_relation.C_ord { ord = ord lxor 1; payload }))
   | _ -> Alcotest.fail "OPE cell expected");
  (match cell0 "level" with
   | Enc_relation.C_ore { ore; payload } ->
     let s = Ore.symbols ore in
     s.(0) <- (s.(0) + 1) mod 3;
     expect_onion_mismatch "memoised ORE order part" (fun () ->
         Enc_relation.decrypt_cell c ~leaf ~attr:"level" ~scheme:Scheme.Ore
           (Enc_relation.C_ore { ore = Ore.of_symbols s; payload }))
   | _ -> Alcotest.fail "ORE cell expected");
  memoised "amount" Scheme.Phe;
  let n = o.System.enc.Enc_relation.paillier_public.Snf_crypto.Paillier.n in
  List.iter
    (fun (what, bad) ->
      match
        Enc_relation.decrypt_cell c ~leaf ~attr:"amount" ~scheme:Scheme.Phe (Enc_relation.C_nat bad)
      with
      | _ -> Alcotest.failf "warm PHE column, %s: undetected" what
      | exception Integrity.Corruption { where; _ } ->
        Alcotest.(check string) ("warm PHE column, " ^ what) "cell" where)
    [ ("cell 0", Snf_bignum.Nat.zero); ("cell n", n); ("cell n^2", Snf_bignum.Nat.mul n n) ]

(* A column with more distinct ordinals (or PHE ciphertexts) than the
   memo holds: every cell still decrypts to its plaintext (checked
   through the row's tid), and the memo never grows past its cap. *)
let test_order_memo_bounded () =
  let rows = Enc_relation.crypto_memo_cap + 300 in
  let r =
    Relation.create
      (Schema.of_attributes [ Attribute.int "v"; Attribute.int "w"; Attribute.int "s" ])
      (List.init rows (fun i -> [| Value.Int (i * 3); Value.Int (rows - i); Value.Int (i mod 7) |]))
  in
  let policy =
    Snf_core.Policy.create [ ("v", Scheme.Ope); ("w", Scheme.Ore); ("s", Scheme.Phe) ]
  in
  let g = Snf_deps.Dep_graph.create [ "v"; "w"; "s" ] in
  let o = System.outsource ~name:"memo-cap" ~graph:g r policy in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let c = o.System.client in
  let plain = Array.of_list (Relation.rows r) in
  let checked = ref 0 in
  for _pass = 1 to 2 do
    List.iter
      (fun (l : Enc_relation.enc_leaf) ->
        let leaf = l.Enc_relation.label in
        List.iter
          (fun (col : Enc_relation.enc_column) ->
            let attr = col.Enc_relation.attr and scheme = col.Enc_relation.scheme in
            let i = Schema.index_of (Relation.schema r) attr in
            Array.iteri
              (fun slot cell ->
                let tid = Enc_relation.decrypt_tid c ~leaf l.Enc_relation.tids.(slot) in
                let v = Enc_relation.decrypt_cell c ~leaf ~attr ~scheme cell in
                if not (Value.equal v plain.(tid).(i)) then
                  Alcotest.failf "%s slot %d: wrong plaintext" attr slot;
                incr checked;
                let size = Enc_relation.crypto_memo_size c ~leaf ~attr ~scheme in
                if size > Enc_relation.crypto_memo_cap then
                  Alcotest.failf "%s: memo holds %d > cap %d" attr size
                    Enc_relation.crypto_memo_cap)
              col.Enc_relation.cells)
          l.Enc_relation.columns)
      o.System.enc.Enc_relation.leaves
  done;
  Alcotest.(check int) "every cell checked twice" (6 * rows) !checked

(* --- the key schedule is per client ------------------------------------------- *)

(* Same relation name, leaves and attributes, different masters: every
   schedule-derived key must differ, whichever client warmed its
   schedule first, and a fresh client with the same master must agree
   with a warm one. *)
let test_clients_never_share_keys () =
  let client master =
    Enc_relation.make_client ~paillier_prime_bits:16 ~relation_name:"shared" ~master ()
  in
  let a = client "master-a" and b = client "master-b" and a' = client "master-a" in
  let leaf = "leaf0" and attr = "x" and v = Value.Int 94016 in
  let profile c =
    let tok scheme = Enc_relation.eq_token c ~leaf ~attr ~scheme v in
    ( (tok Scheme.Det, tok Scheme.Ope, tok Scheme.Ore),
      Enc_relation.binning_key c ~leaf,
      List.init 64 (Enc_relation.row_position c ~leaf ~rows:64) )
  in
  let (ta, ka, pa) = profile a in
  let (tb, kb, pb) = profile b in
  let (ta', ka', pa') = profile a' in
  let (dta, ota, rta) = ta and (dtb, otb, rtb) = tb in
  Alcotest.(check bool) "DET tokens differ" true (dta <> dtb);
  Alcotest.(check bool) "OPE tokens differ" true (ota <> otb);
  Alcotest.(check bool) "ORE tokens differ" true (rta <> rtb);
  Alcotest.(check bool) "binning keys differ" true (ka <> kb);
  Alcotest.(check bool) "row permutations differ" true (pa <> pb);
  Alcotest.(check bool) "same master, same schedule" true
    (ta = ta' && ka = ka' && pa = pa');
  (* b's warm schedule cannot open a's ciphertexts *)
  expect_corruption "foreign DET cell" (fun () ->
      match dta with
      | Some (Enc_relation.Eq_det ct) ->
        Enc_relation.decrypt_cell b ~leaf ~attr ~scheme:Scheme.Det (Enc_relation.C_bytes ct)
      | _ -> Alcotest.fail "DET token expected");
  let o = all_schemes_owner ~name:"shared" ~master:"master-a" () in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let l = List.hd o.System.enc.Enc_relation.leaves in
  Alcotest.(check int) "own client opens its tids" (Enc_relation.decrypt_tid a' ~leaf:l.Enc_relation.label l.Enc_relation.tids.(0))
    (Enc_relation.decrypt_tid o.System.client ~leaf:l.Enc_relation.label l.Enc_relation.tids.(0));
  expect_corruption "foreign tid" (fun () ->
      Enc_relation.decrypt_tid b ~leaf:l.Enc_relation.label l.Enc_relation.tids.(0))

let suite =
  [ t "golden outputs of the closure-based kernel" test_golden;
    t "outsource bit-identical to the golden store under 1 and 2 domains"
      test_outsource_golden_across_domains;
    prop_mac_matches_reference;
    prop_mac_sub_matches_reference;
    prop_keystream_matches_reference;
    prop_keystream_xor;
    prop_label_matches_sprintf;
    t "label digits at the int edges" test_label_edge_ints;
    t "minor-heap budgets of the hot primitives" test_allocation_budgets;
    t "tampered DET/NDET/OPE/ORE/tid ciphertexts raise Corruption" test_tamper_detected;
    t "a flipped order part of a memoised OPE/ORE value raises Corruption"
      test_memoised_onion_flip_detected;
    t "more distinct ordinals than the order memo holds: correct and bounded"
      test_order_memo_bounded;
    t "clients with different masters never share a derived key"
      test_clients_never_share_keys ]
