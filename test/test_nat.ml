open Snf_bignum
open Snf_reference

let nat = Alcotest.testable Nat.pp Nat.equal

let of_i = Nat.of_int

let t name f = Alcotest.test_case name `Quick f

let test_conversions () =
  Alcotest.check nat "of_int 0" Nat.zero (of_i 0);
  Alcotest.(check string) "to_string" "123456789" (Nat.to_string (of_i 123456789));
  Alcotest.check nat "of_string" (of_i 98765) (Nat.of_string "98765");
  Alcotest.(check (option int)) "roundtrip int" (Some 424242) (Nat.to_int_opt (of_i 424242));
  let big = Nat.of_string "123456789012345678901234567890" in
  Alcotest.(check string) "big decimal roundtrip" "123456789012345678901234567890"
    (Nat.to_string big);
  Alcotest.(check (option int)) "big overflows int" None (Nat.to_int_opt big)

let test_bytes () =
  let n = Nat.of_string "1311768467463790320" (* 0x1234567890abcdf0 *) in
  let b = Nat.to_bytes_be n in
  Alcotest.check nat "bytes roundtrip" n (Nat.of_bytes_be b);
  Alcotest.check nat "leading zeros ignored" n (Nat.of_bytes_be ("\x00\x00" ^ b));
  Alcotest.(check string) "zero is empty" "" (Nat.to_bytes_be Nat.zero)

let test_arithmetic () =
  let a = Nat.of_string "999999999999999999999999" in
  let b = Nat.of_string "1000000000000000000000001" in
  Alcotest.(check string) "add" "2000000000000000000000000" (Nat.to_string (Nat.add a b));
  Alcotest.(check string) "sub" "2" (Nat.to_string (Nat.sub b a));
  Alcotest.(check string) "mul"
    "999999999999999999999999999999999999999999999999"
    (Nat.to_string (Nat.mul a b));
  Alcotest.check_raises "sub negative" (Invalid_argument "Nat.sub: negative result")
    (fun () -> ignore (Nat.sub a b))

let test_divmod () =
  let a = Nat.of_string "123456789012345678901234567890" in
  let b = Nat.of_string "987654321" in
  let q, r = Nat.divmod a b in
  Alcotest.check nat "a = q*b + r" a (Nat.add (Nat.mul q b) r);
  Alcotest.(check bool) "r < b" true (Nat.compare r b < 0);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Nat.divmod a Nat.zero))

let test_shifts () =
  let a = of_i 12345 in
  Alcotest.check nat "shl/shr" a (Nat.shift_right (Nat.shift_left a 53) 53);
  Alcotest.check nat "shl = mul 2^k" (Nat.mul a (of_i 1024)) (Nat.shift_left a 10);
  Alcotest.(check int) "bit_length 0" 0 (Nat.bit_length Nat.zero);
  Alcotest.(check int) "bit_length 255" 8 (Nat.bit_length (of_i 255));
  Alcotest.(check int) "bit_length 256" 9 (Nat.bit_length (of_i 256))

let test_modular () =
  let m = of_i 1000003 in
  let a = of_i 123456 in
  Alcotest.check nat "pow_mod small" (of_i 1)
    (Nat_reference.pow_mod a (Nat.pred m) m) (* Fermat: m prime *);
  (match Nat.mod_inverse a m with
   | Some inv -> Alcotest.check nat "inverse" (of_i 1) (Nat.mul_mod a inv m)
   | None -> Alcotest.fail "inverse should exist");
  Alcotest.(check bool) "non-invertible" true
    (Nat.mod_inverse (of_i 6) (of_i 12) = None);
  Alcotest.check nat "gcd" (of_i 6) (Nat.gcd (of_i 54) (of_i 24));
  Alcotest.check nat "lcm" (of_i 216) (Nat.lcm (of_i 54) (of_i 24))

let test_primality () =
  let prng = Snf_crypto.Prng.create 11 in
  let rand b = Snf_crypto.Prng.int prng b in
  Alcotest.(check bool) "1e6+3 prime" true (Nat.is_probable_prime rand (of_i 1000003));
  Alcotest.(check bool) "carmichael 561" false (Nat.is_probable_prime rand (of_i 561));
  Alcotest.(check bool) "carmichael 6601" false (Nat.is_probable_prime rand (of_i 6601));
  Alcotest.(check bool) "even" false (Nat.is_probable_prime rand (of_i 1000004));
  Alcotest.(check bool) "small primes" true
    (List.for_all (fun p -> Nat.is_probable_prime rand (of_i p)) [ 2; 3; 5; 7; 11; 13 ]);
  let p = Nat.random_prime rand 40 in
  Alcotest.(check int) "prime bit length" 40 (Nat.bit_length p);
  Alcotest.(check bool) "is prime" true (Nat.is_probable_prime rand p)

(* --- properties ---------------------------------------------------------- *)

let gen_small = QCheck2.Gen.(map abs int)

let prop_add_comm =
  Helpers.qtest "add commutative" QCheck2.Gen.(pair gen_small gen_small) (fun (a, b) ->
      Nat.equal (Nat.add (of_i a) (of_i b)) (Nat.add (of_i b) (of_i a)))

let prop_mul_distributes =
  Helpers.qtest "mul distributes over add"
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (a, b, c) ->
      Nat.equal
        (Nat.mul (of_i a) (Nat.add (of_i b) (of_i c)))
        (Nat.add (Nat.mul (of_i a) (of_i b)) (Nat.mul (of_i a) (of_i c))))

let prop_divmod =
  Helpers.qtest "divmod invariant"
    QCheck2.Gen.(pair gen_small (int_range 1 max_int))
    (fun (a, b) ->
      let q, r = Nat.divmod (of_i a) (of_i b) in
      Nat.equal (of_i a) (Nat.add (Nat.mul q (of_i b)) r) && Nat.compare r (of_i b) < 0)

let prop_string_roundtrip =
  Helpers.qtest "decimal roundtrip" gen_small (fun a ->
      Nat.equal (of_i a) (Nat.of_string (Nat.to_string (of_i a))))

let prop_pow_mod =
  Helpers.qtest "pow_mod agrees with repeated mul"
    QCheck2.Gen.(triple (int_bound 1000) (int_bound 12) (int_range 2 10_000))
    (fun (b, e, m) ->
      let expected = ref Nat.one in
      for _ = 1 to e do
        expected := Nat.mul_mod !expected (of_i b) (of_i m)
      done;
      Nat.equal !expected (Nat_reference.pow_mod (of_i b) (of_i e) (of_i m)))

(* Multi-limb stress for Algorithm D, including near-boundary divisors that
   exercise the qhat-correction and add-back paths. *)
let big_gen =
  QCheck2.Gen.(
    let bytes n = map (fun l -> Nat.of_bytes_be (String.init (List.length l) (List.nth l))) (list_size (return n) (map Char.chr (int_bound 255))) in
    let* na = int_range 1 30 in
    let* nb = int_range 1 20 in
    pair (bytes na) (bytes nb))

let prop_divmod_big =
  Helpers.qtest ~count:500 "knuth divmod invariant on multi-limb inputs" big_gen
    (fun (a, b) ->
      if Nat.is_zero b then true
      else begin
        let q, r = Nat.divmod a b in
        Nat.equal a (Nat.add (Nat.mul q b) r) && Nat.compare r b < 0
      end)

let prop_divmod_adversarial =
  (* Divisors of the form base^k - small force maximal qhat corrections. *)
  Helpers.qtest ~count:300 "divmod near power-of-base boundaries"
    QCheck2.Gen.(triple (int_range 1 8) (int_range 1 64) (int_range 0 5))
    (fun (k, small, extra) ->
      let base_pow = Nat.shift_left Nat.one (26 * k) in
      let b = Nat.sub base_pow (Nat.of_int small) in
      let a = Nat.add (Nat.mul b (Nat.of_int (1000 + extra))) (Nat.of_int extra) in
      let q, r = Nat.divmod a b in
      Nat.equal a (Nat.add (Nat.mul q b) r)
      && Nat.compare r b < 0
      && Nat.equal q (Nat.of_int (1000 + extra))
      && Nat.equal r (Nat.of_int extra))

let prop_mod_inverse =
  Helpers.qtest "mod_inverse correct when defined"
    QCheck2.Gen.(pair (int_range 1 100_000) (int_range 2 100_000))
    (fun (a, m) ->
      match Nat.mod_inverse (of_i a) (of_i m) with
      | Some inv -> Nat.equal Nat.one (Nat.mul_mod (of_i a) inv (of_i m))
      | None -> not (Nat.is_one (Nat.gcd (of_i a) (of_i m))) || of_i m = Nat.one)

(* --- byte codecs ------------------------------------------------------------ *)

(* The quadratic definitions the linear codecs replaced — one shift and
   add (or rem and shift) per byte — kept here as the oracle. *)
let of_bytes_quadratic s =
  let acc = ref Nat.zero in
  String.iter (fun c -> acc := Nat.add (Nat.shift_left !acc 8) (of_i (Char.code c))) s;
  !acc

let to_bytes_quadratic a =
  let n = (Nat.bit_length a + 7) / 8 in
  let b = Bytes.create n in
  let rec go a i =
    if i >= 0 then begin
      Bytes.set b i (Char.chr (Nat.to_int_exn (Nat.rem a (of_i 256))));
      go (Nat.shift_right a 8) (i - 1)
    end
  in
  go a (n - 1);
  Bytes.to_string b

(* Byte strings of 0-40 bytes: random, with leading zero bytes, all 0xff,
   and the big-endian bytes of 2^(26k) - 1, 2^(26k) and 2^(26k) + 1, whose
   set bits end or start on a limb boundary. *)
let codec_input_gen =
  QCheck2.Gen.(
    let random_bytes n = string_size ~gen:char (return n) in
    let limb_edge =
      let* k = int_range 1 12 and* d = int_range (-1) 1 in
      let p = Nat.shift_left Nat.one (26 * k) in
      return (to_bytes_quadratic (if d < 0 then Nat.pred p else if d > 0 then Nat.succ p else p))
    in
    oneof
      [ (let* n = int_range 0 40 in random_bytes n);
        (let* z = int_range 1 8 and* n = int_range 0 32 in
         map (fun s -> String.make z '\000' ^ s) (random_bytes n));
        map (fun n -> String.make n '\xff') (int_range 0 40);
        limb_edge ])

let prop_codecs_match_quadratic =
  Helpers.qtest ~count:1000 "of_bytes_be/to_bytes_be agree with the quadratic definitions"
    codec_input_gen (fun s ->
      let a = Nat.of_bytes_be s in
      Nat.equal a (of_bytes_quadratic s)
      && String.equal (Nat.to_bytes_be a) (to_bytes_quadratic a)
      && Nat.equal (Nat.of_bytes_be (Nat.to_bytes_be a)) a)

(* --- Montgomery kernel ---------------------------------------------------- *)

let bytes_gen lo hi =
  QCheck2.Gen.(
    let* n = int_range lo hi in
    map
      (fun l -> Nat.of_bytes_be (String.init (List.length l) (List.nth l)))
      (list_size (return n) (map Char.chr (int_bound 255))))

(* Random odd moduli > 1, one to many limbs. *)
let odd_modulus_gen =
  QCheck2.Gen.map
    (fun m ->
      let m = if Nat.compare m (of_i 3) < 0 then of_i 3 else m in
      if Nat.is_even m then Nat.succ m else m)
    (bytes_gen 1 24)

let prop_mont_mul_mod =
  Helpers.qtest ~count:400 "Mont.mul_mod agrees with Nat.mul_mod"
    QCheck2.Gen.(triple odd_modulus_gen (bytes_gen 0 24) (bytes_gen 0 24))
    (fun (m, a0, b0) ->
      let ctx = Nat.Mont.make m in
      let a = Nat.rem a0 m and b = Nat.rem b0 m in
      Nat.equal (Nat.Mont.mul_mod ctx a b) (Nat.mul_mod a b m))

(* Paillier's shapes: a CRT decrypt leg runs a 4-limb modulus (p^2) with
   a 48-bit exponent (p - 1), an encryption an 8-limb modulus (n^2) with a
   96-bit exponent (n). 4-limb moduli take [Mont]'s register-width body,
   every other width the generic one, so both are checked here. Exponents
   also take the value 1 and the form 2^(bits-1) + 2^mid + (low byte):
   long zero runs the sliding window crosses as bare squarings. *)
let paillier_shaped_gen =
  QCheck2.Gen.(
    let limb = int_range 1 ((1 lsl 26) - 1) in
    let of_limbs l = List.fold_left (fun acc x -> Nat.add (Nat.shift_left acc 26) (of_i x)) Nat.zero l in
    let* limbs, e_bits = oneofl [ (4, 48); (8, 96); (4, 96); (8, 48) ] in
    let* m = map of_limbs (list_size (return limbs) limb) in
    let m = if Nat.is_even m then Nat.succ m else m in
    let* b = bytes_gen 0 (limbs * 4) in
    let top = Nat.shift_left Nat.one (e_bits - 1) in
    let* e =
      oneof
        [ return Nat.one;
          map (fun l -> Nat.add top (Nat.rem (of_limbs l) top)) (list_size (return 4) limb);
          map2
            (fun mid lo -> Nat.add top (Nat.add (Nat.shift_left Nat.one mid) (of_i lo)))
            (int_range 8 (e_bits - 2)) (int_bound 255) ]
    in
    return (m, b, e))

let prop_mont_pow_mod =
  Helpers.qtest ~count:500 "Mont.pow_mod agrees with Nat.pow_mod"
    QCheck2.Gen.(
      oneof
        [ triple odd_modulus_gen (bytes_gen 0 24) (bytes_gen 0 12); paillier_shaped_gen ])
    (fun (m, b0, e) ->
      let ctx = Nat.Mont.make m in
      let b = Nat.rem b0 m in
      Nat.equal (Nat.Mont.pow_mod ctx b e) (Nat_reference.pow_mod b e m))

(* The 4-limb squaring body under squaring-heavy exponents — all ones
   (a square and a multiply per bit), m - 1 and 2^j (squarings only) —
   and bases wider than the modulus, up to four times its limbs, which
   enter by the fold rather than a division. *)
let prop_mont_pow_mod_squarings =
  Helpers.qtest ~count:300 "Mont.pow_mod agrees with Nat.pow_mod at 4 limbs: squarings, wide bases"
    QCheck2.Gen.(
      let limb = int_range 1 ((1 lsl 26) - 1) in
      let of_limbs l = List.fold_left (fun acc x -> Nat.add (Nat.shift_left acc 26) (of_i x)) Nat.zero l in
      let* m = map of_limbs (list_size (return 4) limb) in
      let m = if Nat.is_even m then Nat.succ m else m in
      let* b = oneof [ bytes_gen 0 13; bytes_gen 14 52 ] in
      let* e =
        oneof
          [ map (fun j -> Nat.pred (Nat.shift_left Nat.one j)) (int_range 1 104);
            return (Nat.pred m);
            map (fun j -> Nat.shift_left Nat.one j) (int_range 0 104) ]
      in
      return (m, b, e))
    (fun (m, b, e) ->
      let ctx = Nat.Mont.make m in
      Nat.equal (Nat.Mont.pow_mod ctx b e) (Nat_reference.pow_mod b e m)
      && Nat.equal (Nat.Mont.sqr ctx b) (Nat.Mont.mul ctx b b)
      && Nat.equal (Nat.Mont.of_mont ctx (Nat.Mont.sqr ctx (Nat.Mont.to_mont ctx b)))
           (Nat.mul_mod b b m))

let prop_mont_roundtrip =
  Helpers.qtest ~count:300 "to_mont/of_mont roundtrip"
    QCheck2.Gen.(pair odd_modulus_gen (bytes_gen 0 24))
    (fun (m, a0) ->
      let ctx = Nat.Mont.make m in
      let a = Nat.rem a0 m in
      Nat.equal a (Nat.Mont.of_mont ctx (Nat.Mont.to_mont ctx a)))

(* The register-width body at the top of its range: moduli whose limbs
   are all (or nearly all) ones, and bases m - 1 and m - 2, drive the
   CIOS sum into its fifth limb and through the final subtraction. *)
let test_mont_four_limb_extremes () =
  let top = Nat.pred (Nat.shift_left Nat.one 104) in
  List.iter
    (fun m ->
      let ctx = Nat.Mont.make m in
      List.iter
        (fun b ->
          List.iter
            (fun e ->
              Alcotest.check nat
                (Printf.sprintf "%s^%s mod %s" (Nat.to_string b) (Nat.to_string e)
                   (Nat.to_string m))
                (Nat_reference.pow_mod b e m) (Nat.Mont.pow_mod ctx b e))
            [ Nat.one; of_i 2; of_i 65537; Nat.pred (Nat.shift_left Nat.one 48) ];
          Alcotest.check nat "mul_mod" (Nat.mul_mod b b m) (Nat.Mont.mul_mod ctx b b))
        [ Nat.pred m; Nat.sub m (of_i 2); Nat.one; Nat.shift_right m 1 ])
    [ top; Nat.sub top (of_i 2); Nat.succ (Nat.shift_left Nat.one 78);
      Nat.sub top (Nat.shift_left Nat.one 80) ]

let test_mont_edges () =
  let msg = "Nat.Mont.make: modulus must be odd and > 1" in
  Alcotest.check_raises "even modulus rejected" (Invalid_argument msg) (fun () ->
      ignore (Nat.Mont.make (of_i 100)));
  Alcotest.check_raises "modulus 1 rejected" (Invalid_argument msg) (fun () ->
      ignore (Nat.Mont.make Nat.one));
  Alcotest.check_raises "modulus 0 rejected" (Invalid_argument msg) (fun () ->
      ignore (Nat.Mont.make Nat.zero));
  let ctx = Nat.Mont.make (of_i 1000003) in
  Alcotest.check nat "x^0 = 1" Nat.one (Nat.Mont.pow_mod ctx (of_i 42) Nat.zero);
  Alcotest.check nat "0^e = 0" Nat.zero (Nat.Mont.pow_mod ctx Nat.zero (of_i 17));
  Alcotest.check nat "0^0 = 1" Nat.one (Nat.Mont.pow_mod ctx Nat.zero Nat.zero);
  Alcotest.check nat "Fermat via Mont" Nat.one
    (Nat.Mont.pow_mod ctx (of_i 123456) (of_i 1000002));
  (* huge exponent exercises the widest sliding window *)
  let m = Nat.pred (Nat.shift_left Nat.one 130) in
  let m = if Nat.is_even m then Nat.succ m else m in
  let ctx = Nat.Mont.make m in
  let e = Nat.of_string "123456789012345678901234567890123456789" in
  let b = of_i 987654321 in
  Alcotest.check nat "multi-limb exponent" (Nat_reference.pow_mod b e m)
    (Nat.Mont.pow_mod ctx b e)

(* [Paillier.sum] compares every addend with n^2, so a compare of two
   values with the same limb count must not allocate. Every pair below
   has one bit length, hence one limb count; the results are checked
   too. Bytecode boxes where native code does not, so the allocation
   check applies to native code. *)
let test_compare_allocates_nothing () =
  let reps = 1_000 in
  List.iter
    (fun bits ->
      let top = Nat.shift_left Nat.one (bits - 1) in
      let a = Nat.add top (of_i 12345) in
      let cases =
        [ ("equal", a, Nat.add top (of_i 12345), 0);
          ("low limb smaller", a, Nat.add top (of_i 12346), -1);
          ("high limb larger", Nat.add top (Nat.shift_left Nat.one (bits - 2)), a, 1) ]
      in
      List.iter
        (fun (what, x, y, expect) ->
          let label = Printf.sprintf "%d bits, %s" bits what in
          Alcotest.(check int) (label ^ ": one width") (Nat.bit_length x) (Nat.bit_length y);
          Alcotest.(check int) label expect (Int.compare (Nat.compare x y) 0);
          Alcotest.(check int) (label ^ ", swapped") (-expect) (Int.compare (Nat.compare y x) 0);
          if Sys.backend_type = Sys.Native then begin
            let w0 = Gc.minor_words () in
            for _ = 1 to reps do
              ignore (Sys.opaque_identity (Nat.compare x y))
            done;
            let words = (Gc.minor_words () -. w0) /. float_of_int reps in
            if words > 0.1 then Alcotest.failf "%s: %.2f minor words per compare" label words
          end)
        cases)
    [ 20; 96; 192; 384 ]

(* [Nat.is_probable_prime], whose witnesses and squarings run on [Mont],
   against the square-and-multiply Miller–Rabin it replaced: from one
   seeded [rand] stream each, the two give the same answer and leave the
   stream in the same state (the next draw agrees), on random odd n of
   3–200 bits with a probable prime at each of six widths, on Carmichael
   numbers (the last two with no factor up to 47, so Miller–Rabin itself
   rejects them) and on the strong pseudoprimes to base 2 2047 and
   3215031751. Then [Paillier.key_gen] draws the primes it drew while its
   Miller–Rabin squared by [Nat.mul_mod], pinned by the modulus at three
   seeds, and [Paillier.of_primes] on the primes [Paillier_reference]
   draws at a seed is that same key. *)
let test_miller_rabin_matches_reference () =
  let sample = Snf_crypto.Prng.create 0x3b1 in
  let rand = Snf_crypto.Prng.int sample in
  let random_odd () =
    let v = Nat.random_bits rand (3 + rand 198) in
    if Nat.is_even v then Nat.succ v else v
  in
  let agree n =
    let run test =
      let prng = Snf_crypto.Prng.create 0x3b2 in
      let answer = test (Snf_crypto.Prng.int prng) n in
      (answer, Snf_crypto.Prng.int prng 1_000_000)
    in
    let expected = run (fun rand n -> Nat_reference.is_probable_prime rand n) in
    let got = run (fun rand n -> Nat.is_probable_prime rand n) in
    Alcotest.(check (pair bool int)) (Nat.to_string n) expected got;
    fst got
  in
  let primes = List.map (fun bits -> Nat.random_prime rand bits) [ 6; 25; 48; 64; 96; 200 ] in
  Alcotest.(check bool) "probable primes pass" true (List.for_all agree primes);
  List.iter (fun n -> ignore (agree n)) (List.init 400 (fun _ -> random_odd ()));
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " is composite") false (agree (Nat.of_string n)))
    [ "561"; "1105"; "1729"; "41041"; "825265"; "56052361"; "118901521"; "2047"; "3215031751" ];
  let hex n =
    let b = Nat.to_bytes_be n in
    String.concat ""
      (List.init (String.length b) (fun i -> Printf.sprintf "%02x" (Char.code b.[i])))
  in
  let module P = Snf_crypto.Paillier in
  List.iter
    (fun (seed, bits, modulus) ->
      let label = Printf.sprintf "key_gen seed %d, %d-bit primes" seed bits in
      let kp = P.key_gen ~prime_bits:bits (Snf_crypto.Prng.create seed) in
      Alcotest.(check string) label modulus (hex kp.P.public.P.n);
      let p, q = Paillier_reference.primes ~prime_bits:bits (Snf_crypto.Prng.create seed) in
      Alcotest.(check string) (label ^ ", of_primes") modulus (hex (P.of_primes p q).P.public.P.n))
    [ (11, 25, "02f639ff7df009");
      (48, 48, "b6f4a59729a0822afd4a024b");
      (96, 96, "c47061b8c3fea4f2aa12d66f2e71bd831a619ec9bb077fef") ]

let suite =
  [ t "conversions" test_conversions;
    t "montgomery edges" test_mont_edges;
    t "4-limb Montgomery at the top of its range" test_mont_four_limb_extremes;
    prop_codecs_match_quadratic;
    prop_mont_mul_mod;
    prop_mont_pow_mod;
    prop_mont_roundtrip;
    t "bytes" test_bytes;
    t "arithmetic" test_arithmetic;
    t "divmod" test_divmod;
    t "shifts" test_shifts;
    t "modular" test_modular;
    t "primality" test_primality;
    prop_add_comm;
    prop_mul_distributes;
    prop_divmod;
    prop_divmod_big;
    prop_divmod_adversarial;
    prop_string_roundtrip;
    prop_pow_mod;
    prop_mod_inverse;
    t "equal-width compares allocate nothing" test_compare_allocates_nothing;
    prop_mont_pow_mod_squarings;
    t "Miller-Rabin on Montgomery agrees with the reference; key_gen pinned"
      test_miller_rabin_matches_reference ]
