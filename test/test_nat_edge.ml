(* Edge cases of the bignum kernels: zero operands, operand aliasing,
   degenerate moduli, exponent zero, and the Montgomery kernels against
   the plain reference implementations. *)

open Helpers
open Snf_reference
module Nat = Snf_bignum.Nat

let n = Nat.of_int

let check_nat msg want got =
  check_string msg (Nat.to_string want) (Nat.to_string got)

let zero_operands () =
  check_nat "0 + x" (n 41) (Nat.add Nat.zero (n 41));
  check_nat "x + 0" (n 41) (Nat.add (n 41) Nat.zero);
  check_nat "x - 0" (n 41) (Nat.sub (n 41) Nat.zero);
  check_nat "x - x" Nat.zero (Nat.sub (n 41) (n 41));
  check_nat "0 * x" Nat.zero (Nat.mul Nat.zero (n 41));
  check_nat "x * 0" Nat.zero (Nat.mul (n 41) Nat.zero);
  check_nat "0 / x" Nat.zero (Nat.div Nat.zero (n 41));
  check_nat "0 mod x" Nat.zero (Nat.rem Nat.zero (n 41));
  check_bool "is_zero zero" true (Nat.is_zero Nat.zero);
  check_bool "0 is even" true (Nat.is_even Nat.zero);
  check_int "bit_length zero" 0 (Nat.bit_length Nat.zero)

let aliasing () =
  (* The same physical value on both sides of every binary kernel. *)
  let x = n 123456789 in
  check_nat "x + x" (n 246913578) (Nat.add x x);
  check_nat "x * x" (Nat.mul (n 123456789) (n 123456789)) (Nat.mul x x);
  check_nat "x - x aliased" Nat.zero (Nat.sub x x);
  let q, r = Nat.divmod x x in
  check_nat "x / x" Nat.one q;
  check_nat "x mod x" Nat.zero r;
  check_nat "gcd x x" x (Nat.gcd x x);
  let m = n 1000003 in
  check_nat "mul_mod aliased" (Nat.rem (Nat.mul x x) m) (Nat.mul_mod x x m);
  check_nat "pow_mod aliased base=exp"
    (Nat_reference.pow_mod (n 7) (n 7) m)
    (Nat_reference.pow_mod (n 7) (n 7) m)

let modulus_one () =
  (* Everything is congruent to zero mod 1, including b^0. *)
  check_nat "add_mod _ _ 1" Nat.zero (Nat.add_mod (n 5) (n 9) Nat.one);
  check_nat "mul_mod _ _ 1" Nat.zero (Nat.mul_mod (n 5) (n 9) Nat.one);
  check_nat "pow_mod b e 1" Nat.zero (Nat_reference.pow_mod (n 5) (n 9) Nat.one);
  check_nat "pow_mod b 0 1" Nat.zero (Nat_reference.pow_mod (n 5) Nat.zero Nat.one)

let exponent_zero () =
  let m = n 97 in
  check_nat "b^0 = 1" Nat.one (Nat_reference.pow_mod (n 13) Nat.zero m);
  check_nat "0^0 = 1 (convention)" Nat.one (Nat_reference.pow_mod Nat.zero Nat.zero m);
  check_nat "0^e = 0" Nat.zero (Nat_reference.pow_mod Nat.zero (n 12) m);
  let ctx = Nat.Mont.make m in
  check_nat "Mont b^0 = 1" Nat.one (Nat.Mont.pow_mod ctx (n 13) Nat.zero);
  check_nat "Mont 0^0 = 1" Nat.one (Nat.Mont.pow_mod ctx Nat.zero Nat.zero)

let mont_rejects_bad_moduli () =
  let rejects m =
    match Nat.Mont.make m with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "even modulus rejected" true (rejects (n 10));
  check_bool "zero modulus rejected" true (rejects Nat.zero);
  check_bool "unit modulus rejected" true (rejects Nat.one)

(* Deterministic pseudo-random big naturals for the cross-checks. *)
let nat_pair_gen =
  let open QCheck2.Gen in
  let* seed = 0 -- 0xFFFFF in
  let prng = Snf_crypto.Prng.create seed in
  let rand_nat bits = Nat.random_bits (fun n -> Snf_crypto.Prng.int prng n) bits in
  let* mbits = 8 -- 160 in
  let m =
    let m = rand_nat mbits in
    let m = if Nat.is_even m then Nat.succ m else m in
    if Nat.compare m Nat.two < 0 then Nat.of_int 3 else m
  in
  let+ abits = 1 -- 200 in
  (m, rand_nat abits, rand_nat 64)

let mont_vs_reference =
  qtest ~count:150 "Mont.{mul_mod,pow_mod,to/of_mont} agree with plain kernels"
    nat_pair_gen (fun (m, a, e) ->
      let ctx = Nat.Mont.make m in
      Nat.equal (Nat.Mont.mul_mod ctx a e) (Nat.mul_mod a e m)
      && Nat.equal (Nat.Mont.pow_mod ctx a e) (Nat_reference.pow_mod a e m)
      && Nat.equal (Nat.Mont.of_mont ctx (Nat.Mont.to_mont ctx a)) (Nat.rem a m)
      &&
      let am = Nat.Mont.to_mont ctx a and em = Nat.Mont.to_mont ctx e in
      Nat.equal (Nat.Mont.of_mont ctx (Nat.Mont.mul ctx am em)) (Nat.mul_mod a e m))

let bytes_roundtrip () =
  check_nat "of_bytes_be/to_bytes_be" (n 0xdead)
    (Nat.of_bytes_be (Nat.to_bytes_be (n 0xdead)));
  check_nat "leading zero bytes ignored" (n 7) (Nat.of_bytes_be "\x00\x00\x07");
  check_nat "empty bytes = zero" Nat.zero (Nat.of_bytes_be "")

let suite =
  [ Alcotest.test_case "zero operands" `Quick zero_operands;
    Alcotest.test_case "operand aliasing" `Quick aliasing;
    Alcotest.test_case "modulus one" `Quick modulus_one;
    Alcotest.test_case "exponent zero" `Quick exponent_zero;
    Alcotest.test_case "Mont rejects bad moduli" `Quick mont_rejects_bad_moduli;
    mont_vs_reference;
    Alcotest.test_case "big-endian bytes round-trip" `Quick bytes_roundtrip ]
