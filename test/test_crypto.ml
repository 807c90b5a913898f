open Snf_crypto
open Snf_reference

let t name f = Alcotest.test_case name `Quick f

(* --- Prng ---------------------------------------------------------------- *)

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_int_bounds () =
  let p = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int p 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int p 0))

let test_prng_sample () =
  let p = Prng.create 3 in
  let s = Prng.sample_without_replacement p 5 10 in
  Alcotest.(check int) "five drawn" 5 (List.length s);
  Alcotest.(check bool) "sorted distinct" true
    (List.sort_uniq compare s = s && List.for_all (fun i -> i >= 0 && i < 10) s);
  Alcotest.(check (list int)) "k = n is everything" [ 0; 1; 2 ]
    (Prng.sample_without_replacement p 3 3)

let test_prng_zipf () =
  let p = Prng.create 5 in
  let sample = Prng.zipf_sampler p ~s:1.2 50 in
  let counts = Array.make 50 0 in
  for _ = 1 to 20_000 do
    let v = sample () in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 50);
    counts.(v) <- counts.(v) + 1
  done;
  Alcotest.(check bool) "rank 0 most frequent" true
    (counts.(0) > counts.(1) && counts.(1) > counts.(5) && counts.(5) > counts.(30))

let test_prng_split_independent () =
  let parent = Prng.create 99 in
  let child = Prng.split parent in
  let a = List.init 50 (fun _ -> Prng.int parent 1000) in
  let b = List.init 50 (fun _ -> Prng.int child 1000) in
  Alcotest.(check bool) "streams differ" true (a <> b);
  (* determinism: same construction gives same streams *)
  let parent' = Prng.create 99 in
  let child' = Prng.split parent' in
  Alcotest.(check bool) "reproducible" true
    (List.init 50 (fun _ -> Prng.int child' 1000) = b)

let test_prng_shuffle_permutes () =
  let p = Prng.create 9 in
  let arr = Array.init 100 Fun.id in
  Prng.shuffle p arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check bool) "is permutation" true (sorted = Array.init 100 Fun.id);
  Alcotest.(check bool) "actually moved something" true (arr <> Array.init 100 Fun.id)

(* --- Prf (SipHash-2-4 official vectors) ---------------------------------- *)

let siphash_key = String.init 16 Char.chr

let test_siphash_vectors () =
  (* From the SipHash reference implementation (vectors for key
     000102...0f and messages 00 01 02 ...). *)
  let cases =
    [ (0, 0x726fdb47dd0e0e31L); (1, 0x74f839c593dc67fdL); (2, 0x0d6c8009d9a94f5aL);
      (3, 0x85676696d7fb7e2dL); (8, 0x93f5f5799a932462L); (15, 0xa129ca6149be45e5L) ]
  in
  List.iter
    (fun (len, expect) ->
      Alcotest.(check int64)
        (Printf.sprintf "siphash len %d" len)
        expect
        (Prf.mac siphash_key (String.init len Char.chr)))
    cases

let test_prf_misc () =
  Alcotest.check_raises "bad key" (Invalid_argument "Prf.mac: key must be 16 bytes")
    (fun () -> ignore (Prf.mac "short" "x"));
  let k = Prf.key_of_string "anything" in
  Alcotest.(check int) "derived key is 16 bytes" 16 (String.length k);
  Alcotest.(check bool) "derive differs by label" true
    (Prf.derive k "a" <> Prf.derive k "b");
  let ks = Prf.keystream k ~nonce:"n" 100 in
  Alcotest.(check int) "keystream length" 100 (String.length ks);
  Alcotest.(check string) "keystream deterministic" ks (Prf.keystream k ~nonce:"n" 100);
  Alcotest.(check bool) "keystream nonce matters" true
    (ks <> Prf.keystream k ~nonce:"m" 100);
  for bound = 1 to 50 do
    let v = Prf.uniform_int k (string_of_int bound) bound in
    Alcotest.(check bool) "uniform_int in range" true (v >= 0 && v < bound)
  done

(* --- Feistel -------------------------------------------------------------- *)

let test_feistel_bijection () =
  let key = Prf.key_of_string "feistel" in
  List.iter
    (fun domain ->
      let seen = Hashtbl.create domain in
      for x = 0 to domain - 1 do
        let y = Feistel.permute ~key ~domain x in
        Alcotest.(check bool) "in domain" true (y >= 0 && y < domain);
        Alcotest.(check bool) "injective" false (Hashtbl.mem seen y);
        Hashtbl.add seen y ();
        Alcotest.(check int) "inverse" x (Feistel.unpermute ~key ~domain y)
      done)
    [ 2; 3; 10; 100; 257 ]

let prop_feistel_roundtrip =
  Helpers.qtest "feistel roundtrip arbitrary domain"
    QCheck2.Gen.(pair (int_range 2 10_000) (int_bound 9_999))
    (fun (domain, x) ->
      let x = x mod domain in
      let key = Prf.key_of_string "prop" in
      Feistel.unpermute ~key ~domain (Feistel.permute ~key ~domain x) = x)

(* --- Det / Ndet ----------------------------------------------------------- *)

let test_det () =
  let k = Det.key_of_string "det" in
  let m = "hello world" in
  Alcotest.(check string) "roundtrip" m (Det.decrypt k (Det.encrypt k m));
  Alcotest.(check string) "deterministic" (Det.encrypt k m) (Det.encrypt k m);
  Alcotest.(check bool) "distinct plaintexts differ" true
    (Det.encrypt k "a" <> Det.encrypt k "b");
  Alcotest.(check bool) "keys matter" true
    (Det.encrypt k m <> Det.encrypt (Det.key_of_string "other") m);
  Alcotest.(check int) "length model" (String.length (Det.encrypt k m))
    (Det.ciphertext_length (String.length m));
  Alcotest.check_raises "tamper detected"
    (Invalid_argument "Det.decrypt: authentication failure") (fun () ->
      let c = Bytes.of_string (Det.encrypt k m) in
      Bytes.set c 9 (Char.chr (Char.code (Bytes.get c 9) lxor 1));
      ignore (Det.decrypt k (Bytes.to_string c)))

let test_ndet () =
  let k = Ndet.key_of_string "ndet" in
  let rng = Prng.create 4 in
  let m = "payload" in
  let c1 = Ndet.encrypt ~rng k m and c2 = Ndet.encrypt ~rng k m in
  Alcotest.(check bool) "randomized" true (c1 <> c2);
  Alcotest.(check string) "roundtrip 1" m (Ndet.decrypt k c1);
  Alcotest.(check string) "roundtrip 2" m (Ndet.decrypt k c2);
  Alcotest.(check string) "empty plaintext" "" (Ndet.decrypt k (Ndet.encrypt ~rng k ""));
  Alcotest.(check int) "length model" (String.length c1)
    (Ndet.ciphertext_length (String.length m))

(* --- Ope ------------------------------------------------------------------ *)

let test_ope_order () =
  let ope = Ope.create ~key:(Prf.key_of_string "ope") ~domain_bits:12 () in
  let prev = ref (-1) in
  for x = 0 to (1 lsl 12) - 1 do
    let c = Ope.encrypt ope x in
    Alcotest.(check bool) "strictly increasing" true (c > !prev);
    prev := c;
    Alcotest.(check int) "decrypt" x (Ope.decrypt ope c)
  done

let prop_ope_monotone =
  Helpers.qtest "ope preserves order"
    QCheck2.Gen.(pair (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (a, b) ->
      let ope = Ope.create ~key:(Prf.key_of_string "p") ~domain_bits:16 () in
      compare (Ope.encrypt ope a) (Ope.encrypt ope b) = compare a b)

let test_ope_keys_differ () =
  let o1 = Ope.create ~key:(Prf.key_of_string "k1") ~domain_bits:16 () in
  let o2 = Ope.create ~key:(Prf.key_of_string "k2") ~domain_bits:16 () in
  let differs = ref false in
  for x = 0 to 100 do
    if Ope.encrypt o1 x <> Ope.encrypt o2 x then differs := true
  done;
  Alcotest.(check bool) "different keys give different mappings" true !differs

(* --- Ore ------------------------------------------------------------------ *)

let test_ore () =
  let ore = Ore.create ~key:(Prf.key_of_string "ore") ~bits:16 in
  let e = Ore.encrypt ore in
  Alcotest.(check int) "lt" (-1) (Ore.compare_ciphertexts (e 3) (e 77));
  Alcotest.(check int) "gt" 1 (Ore.compare_ciphertexts (e 1000) (e 77));
  Alcotest.(check int) "eq" 0 (Ore.compare_ciphertexts (e 77) (e 77));
  Alcotest.(check (option int)) "no diff when equal" None (Ore.first_diff_index (e 5) (e 5));
  (* 8 = 0b1000 and 12 = 0b1100 first differ at the bit worth 4, i.e. at
     msb-first position 16 - 1 - 2 = 13. *)
  Alcotest.(check (option int)) "first diff position" (Some 13)
    (Ore.first_diff_index (e 8) (e 12))

let prop_ore_order =
  Helpers.qtest "ore comparison equals plaintext order"
    QCheck2.Gen.(pair (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (a, b) ->
      let ore = Ore.create ~key:(Prf.key_of_string "orep") ~bits:16 in
      Ore.compare_ciphertexts (Ore.encrypt ore a) (Ore.encrypt ore b) = compare a b)

(* --- Paillier -------------------------------------------------------------- *)

let test_paillier () =
  let prng = Prng.create 2024 in
  let kp = Paillier.key_gen ~prime_bits:32 prng in
  let pk = kp.Paillier.public in
  let c1 = Paillier.encrypt_int prng pk 1234 in
  let c2 = Paillier.encrypt_int prng pk 5678 in
  Alcotest.(check int) "roundtrip" 1234 (Paillier.decrypt_int kp c1);
  Alcotest.(check int) "homomorphic add" 6912
    (Paillier.decrypt_int kp (Paillier_reference.add pk c1 c2));
  Alcotest.(check int) "scalar mul" 12340
    (Paillier.decrypt_int kp (Paillier.scalar_mul pk c1 10));
  Alcotest.(check bool) "randomized" true
    (not (Snf_bignum.Nat.equal c1 (Paillier.encrypt_int prng pk 1234)));
  Alcotest.(check int) "zero" 0 (Paillier.decrypt_int kp (Paillier.encrypt_int prng pk 0))

let prop_paillier_add =
  let prng = Prng.create 77 in
  let kp = Paillier.key_gen ~prime_bits:32 prng in
  Helpers.qtest ~count:50 "paillier addition homomorphism"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (a, b) ->
      let pk = kp.Paillier.public in
      let c =
        Paillier_reference.add pk (Paillier.encrypt_int prng pk a) (Paillier.encrypt_int prng pk b)
      in
      Paillier.decrypt_int kp c = a + b)

(* One keypair per prime size, shared across the kernel cross-checks,
   each with its oracle key: the primes [Paillier.key_gen] draws at the
   seed, then [of_primes] on both sides. *)
let keys_of_seed bits seed =
  let p, q = Paillier_reference.primes ~prime_bits:bits (Prng.create seed) in
  (Paillier.of_primes p q, Paillier_reference.of_primes p q)

let kp48, oracle48 = keys_of_seed 48 481
let kp96, oracle96 = keys_of_seed 96 961

let test_paillier_kernels () =
  List.iter
    (fun (bits, kp, oracle) ->
      let pk = kp.Paillier.public in
      let prng = Prng.create (1000 + bits) in
      let label s = Printf.sprintf "%s (prime_bits=%d)" s bits in
      (* Montgomery encrypt and reference encrypt decrypt to the same
         plaintext under both decryption kernels. *)
      List.iter
        (fun m ->
          let mn = Snf_bignum.Nat.of_int m in
          let c_new = Paillier.encrypt prng pk mn in
          let c_ref = Paillier_reference.encrypt prng pk mn in
          Alcotest.(check int) (label "crt decrypt of mont encrypt") m
            (Paillier.decrypt_int kp c_new);
          Alcotest.(check int) (label "crt decrypt of ref encrypt") m
            (Paillier.decrypt_int kp c_ref);
          Alcotest.(check bool) (label "crt agrees with lambda/mu") true
            (Snf_bignum.Nat.equal (Paillier.decrypt kp c_new)
               (Paillier_reference.decrypt_lambda_mu oracle c_new)))
        [ 0; 1; 42; 999_983; 123_456_789 ];
      (* homomorphic roundtrips through the new kernels *)
      let a = 271_828 and b = 314_159 in
      let ca = Paillier.encrypt_int prng pk a in
      let cb = Paillier.encrypt_int prng pk b in
      Alcotest.(check int) (label "homomorphic add") (a + b)
        (Paillier.decrypt_int kp (Paillier_reference.add pk ca cb));
      Alcotest.(check int) (label "scalar mul") (a * 7)
        (Paillier.decrypt_int kp (Paillier.scalar_mul pk ca 7)))
    [ (48, kp48, oracle48); (96, kp96, oracle96) ]

(* [Paillier.decrypt] against the floor-division CRT body it replaced
   ([Paillier_reference]), at 25-, 48- and 96-bit primes: 2-, 4- and
   8-limb legs. Inputs are true ciphertexts of 0, 1, n - 1 and random m,
   and values that are no ciphertext: 1, values below n^2, at or above
   it, wider than twice a leg's limbs, and multiples of p, of q and of n
   (0 among them). Wherever the oracle returns, the new decrypt returns
   the same value; wherever it raises, the new one raises its own typed
   [Invalid_argument]. *)
let decrypt_differential_keys =
  List.map
    (fun bits ->
      let prng = Prng.create (7_000 + bits) in
      let rand = Prng.int prng in
      let p = Snf_bignum.Nat.random_prime rand bits in
      let rec other () =
        let q = Snf_bignum.Nat.random_prime rand bits in
        if Snf_bignum.Nat.equal p q then other () else q
      in
      let q = other () in
      (bits, p, q, Paillier.of_primes p q, Paillier_reference.of_primes p q))
    [ 25; 48; 96 ]

let prop_decrypt_matches_reference =
  let module Nat = Snf_bignum.Nat in
  Helpers.qtest ~count:600 "paillier decrypt equals the floor-division CRT oracle"
    QCheck2.Gen.(triple (int_bound 2) (int_bound 11) (int_bound 1_000_000))
    (fun (which, kind, seed) ->
      let _, p, q, kp, oracle = List.nth decrypt_differential_keys which in
      let pk = kp.Paillier.public in
      let n = pk.Paillier.n and n2 = pk.Paillier.n_squared in
      let prng = Prng.create seed in
      let rand = Prng.int prng in
      let below x = Nat.random_below rand x in
      let leg_limbs = (Nat.bit_length (Nat.mul p p) + 25) / 26 in
      let c =
        match kind with
        | 0 -> Paillier.encrypt prng pk Nat.zero
        | 1 -> Paillier.encrypt prng pk Nat.one
        | 2 -> Paillier.encrypt prng pk (Nat.pred n)
        | 3 -> Paillier.encrypt prng pk (below n)
        | 4 -> Nat.one
        | 5 -> below n2
        | 6 -> Nat.add n2 (below n2)
        | 7 -> Nat.add (Nat.mul n2 (Nat.of_int (1 + rand 1_000))) (below n2)
        | 8 -> Nat.random_bits rand (26 * ((2 * leg_limbs) + 1 + rand leg_limbs))
        | 9 -> Nat.mul p (below (Nat.mul q n))
        | 10 -> Nat.mul q (below (Nat.mul p n))
        | _ -> Nat.mul n (below (Nat.mul n n))
      in
      match Paillier_reference.decrypt oracle c with
      | m -> Nat.equal (Paillier.decrypt kp c) m
      | exception Invalid_argument _ -> (
        match Paillier.decrypt kp c with
        | _ -> false
        | exception Invalid_argument msg ->
          String.equal msg "Paillier.decrypt: ciphertext is not a unit mod n"))

(* The edge values the property draws only by chance: 0, p, q, n, n^2,
   and n^2 + 1, which decrypts as 1 does. *)
let test_decrypt_edges () =
  let module Nat = Snf_bignum.Nat in
  List.iter
    (fun (bits, p, q, kp, oracle) ->
      let n = kp.Paillier.public.Paillier.n and n2 = kp.Paillier.public.Paillier.n_squared in
      List.iter
        (fun (what, c) ->
          Alcotest.check_raises
            (Printf.sprintf "%s (prime_bits=%d)" what bits)
            (Invalid_argument "Paillier.decrypt: ciphertext is not a unit mod n")
            (fun () -> ignore (Paillier.decrypt kp c)))
        [ ("0", Nat.zero); ("p", p); ("q", q); ("n", n); ("n^2", n2) ];
      Alcotest.(check string)
        (Printf.sprintf "n^2 + 1 (prime_bits=%d)" bits)
        (Nat.to_string (Paillier_reference.decrypt oracle (Nat.succ n2)))
        (Nat.to_string (Paillier.decrypt kp (Nat.succ n2))))
    decrypt_differential_keys

let test_paillier_pool () =
  let kp = kp48 in
  let pk = kp.Paillier.public in
  let key = Prf.key_of_string "pool-test" in
  let pool = Paillier.pool ~key kp in
  (* entries depend only on (key, index): raw computation, cached lookup
     and a freshly built pool all agree *)
  Paillier.pool_fill pool ~tabulate:Array.init 16;
  let pool' = Paillier.pool ~key kp in
  for i = 0 to 15 do
    Alcotest.(check bool) "cached = raw" true
      (Snf_bignum.Nat.equal (Paillier.pool_entry pool i) (Paillier.pool_raw_entry pool i));
    Alcotest.(check bool) "independent of fill" true
      (Snf_bignum.Nat.equal (Paillier.pool_entry pool i) (Paillier.pool_entry pool' i))
  done;
  (* the CRT split computes what r^n mod n^2 computes, at the 2-limb p^2
     of 25-bit primes, the register-width 4-limb one and an 8-limb one *)
  List.iter
    (fun (bits, kp) ->
      let pool = Paillier.pool ~key kp in
      for i = 0 to 63 do
        Alcotest.(check string)
          (Printf.sprintf "prime_bits=%d entry %d = r^n mod n^2" bits i)
          (Snf_bignum.Nat.to_string
             (Paillier_reference.public_pool_entry key kp.Paillier.public i))
          (Snf_bignum.Nat.to_string (Paillier.pool_raw_entry pool i))
      done)
    [ (25, Paillier.key_gen ~prime_bits:25 (Prng.create 251)); (48, kp48); (96, kp96) ];
  Alcotest.(check bool) "distinct indexes, distinct randomizers" true
    (not (Snf_bignum.Nat.equal (Paillier.pool_entry pool 0) (Paillier.pool_entry pool 1)));
  (* pooled ciphertexts decrypt and compose like fresh ones *)
  let c0 = Paillier.encrypt_with pool 0 (Snf_bignum.Nat.of_int 1234) in
  let c1 = Paillier.encrypt_with pool 1 (Snf_bignum.Nat.of_int 5678) in
  Alcotest.(check int) "pooled roundtrip" 1234 (Paillier.decrypt_int kp c0);
  Alcotest.(check int) "pooled homomorphic add" 6912
    (Paillier.decrypt_int kp (Paillier_reference.add pk c0 c1))

(* [Paillier.sum] against the [add] chain it replaced
   ([Paillier_reference.add]), bit for bit, at k = 0, 1, 2, 3 and 600,
   with addends at and far above n^2 (which the chain reduces in its
   first product and k = 1 returns as-is), on a 4-limb n^2 (the
   register-width product), the 8-limb n^2 of 48-bit primes and a 15-limb
   one. [crypto.paillier.add] counts the chain's k - 1 products. *)
let test_paillier_sum_matches_chain () =
  let module Nat = Snf_bignum.Nat in
  let adds () = Snf_obs.Metrics.(value (counter "crypto.paillier.add")) in
  List.iter
    (fun (bits, kp) ->
      let pk = kp.Paillier.public in
      let n2 = pk.Paillier.n_squared in
      let pool = Paillier.pool ~key:(Prf.key_of_string "sum-test") kp in
      let ct i = Paillier.encrypt_with pool i (Nat.of_int (i * 7_919)) in
      let big i =
        match i mod 5 with
        | 3 -> Nat.add (ct i) n2
        | 4 -> Nat.add (ct i) (Nat.mul n2 n2)
        | _ -> ct i
      in
      List.iter
        (fun k ->
          List.iter
            (fun (what, cs) ->
              let label = Printf.sprintf "prime_bits=%d k=%d %s" bits k what in
              let chain =
                match Array.to_list cs with
                | [] -> Nat.zero
                | c :: rest -> List.fold_left (Paillier_reference.add pk) c rest
              in
              let a0 = adds () in
              let sum = Paillier.sum pk cs in
              Alcotest.(check string) label (Nat.to_string chain) (Nat.to_string sum);
              Alcotest.(check int) (label ^ " adds") (max 0 (k - 1)) (adds () - a0))
            [ ("below n^2", Array.init k ct); ("some >= n^2", Array.init k (fun i -> big (i + 3))) ])
        [ 0; 1; 2; 3; 600 ];
      Alcotest.(check int) (Printf.sprintf "prime_bits=%d decrypts to the sum" bits)
        (7_919 * (99 * 100 / 2))
        (Paillier.decrypt_int kp (Paillier.sum pk (Array.init 100 ct))))
    [ (25, Paillier.key_gen ~prime_bits:25 (Prng.create 251)); (48, kp48); (96, kp96) ]

(* --- Scheme / Keyring ------------------------------------------------------ *)

let test_scheme_profiles () =
  Alcotest.(check bool) "ndet strong" true (Scheme.is_strong Scheme.Ndet);
  Alcotest.(check bool) "phe strong" true (Scheme.is_strong Scheme.Phe);
  Alcotest.(check bool) "det weak" true (Scheme.is_weak Scheme.Det);
  Alcotest.(check bool) "ope weak" true (Scheme.is_weak Scheme.Ope);
  Alcotest.(check bool) "plain weakest" true (Scheme.strictly_weaker Scheme.Plain Scheme.Det);
  Alcotest.(check bool) "ope weaker than det" true (Scheme.strictly_weaker Scheme.Ope Scheme.Det);
  Alcotest.(check bool) "det not weaker than ope" false
    (Scheme.strictly_weaker Scheme.Det Scheme.Ope);
  Alcotest.(check bool) "det supports eq" true (Scheme.supports_equality_predicate Scheme.Det);
  Alcotest.(check bool) "det no range" false (Scheme.supports_range_predicate Scheme.Det);
  Alcotest.(check bool) "ope range" true (Scheme.supports_range_predicate Scheme.Ope);
  List.iter
    (fun k ->
      Alcotest.(check (option string)) "of_string/to_string roundtrip"
        (Some (Scheme.to_string k))
        (Option.map Scheme.to_string (Scheme.of_string (Scheme.to_string k))))
    Scheme.all

let test_keyring () =
  let kr = Keyring.create ~master:"secret" in
  Alcotest.(check bool) "paths independent" true
    (Keyring.derive kr [ "a"; "b" ] <> Keyring.derive kr [ "ab" ]);
  Alcotest.(check bool) "path concat unambiguous" true
    (Keyring.derive kr [ "a"; "bc" ] <> Keyring.derive kr [ "ab"; "c" ]);
  Alcotest.(check bool) "deterministic" true
    (Keyring.derive kr [ "x" ] = Keyring.derive (Keyring.create ~master:"secret") [ "x" ])

let suite =
  [ t "prng determinism" test_prng_determinism;
    t "prng int bounds" test_prng_int_bounds;
    t "prng sampling" test_prng_sample;
    t "prng zipf" test_prng_zipf;
    t "prng shuffle" test_prng_shuffle_permutes;
    t "prng split" test_prng_split_independent;
    t "siphash vectors" test_siphash_vectors;
    t "prf misc" test_prf_misc;
    t "feistel bijection" test_feistel_bijection;
    prop_feistel_roundtrip;
    t "det" test_det;
    t "ndet" test_ndet;
    t "ope order exhaustive" test_ope_order;
    prop_ope_monotone;
    t "ope keys differ" test_ope_keys_differ;
    t "ore" test_ore;
    prop_ore_order;
    t "paillier" test_paillier;
    prop_paillier_add;
    t "paillier kernels 48/96" test_paillier_kernels;
    t "paillier randomizer pool" test_paillier_pool;
    t "paillier sum equals the add chain bit for bit" test_paillier_sum_matches_chain;
    t "scheme profiles" test_scheme_profiles;
    t "keyring" test_keyring;
    prop_decrypt_matches_reference;
    t "paillier decrypt edges: non-units raise, n^2 + 1 is 1" test_decrypt_edges ]
