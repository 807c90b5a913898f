(* The square-and-multiply exponentiation [Nat.Mont.pow_mod] replaced,
   and Miller–Rabin over it, kept as test and bench oracles: plain
   [Nat.mul_mod] products, each a schoolbook multiply and a division,
   sharing no code with the Montgomery kernels they check. *)

module Nat = Snf_bignum.Nat

(* [b^e mod m]. @raise Division_by_zero if [m] is zero. *)
let pow_mod b e m =
  if Nat.is_zero m then raise Division_by_zero;
  if Nat.is_one m then Nat.zero
  else begin
    let result = ref Nat.one and acc = ref (Nat.rem b m) in
    for i = 0 to Nat.bit_length e - 1 do
      if Nat.testbit e i then result := Nat.mul_mod !result !acc m;
      acc := Nat.mul_mod !acc !acc m
    done;
    !result
  end

let small_primes = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47 ]

(* Miller–Rabin with [rounds] random bases drawn via [rand bound], as
   [Nat.is_probable_prime] draws them: on the same [rand] stream the two
   answer alike and consume the same draws. *)
let is_probable_prime ?(rounds = 24) rand n =
  let of_int = Nat.of_int in
  if Nat.compare n Nat.two < 0 then false
  else if List.exists (fun p -> Nat.equal n (of_int p)) small_primes then true
  else if List.exists (fun p -> Nat.is_zero (Nat.rem n (of_int p))) small_primes then false
  else begin
    (* n - 1 = d * 2^s with d odd *)
    let n1 = Nat.pred n in
    let rec split d s = if Nat.is_even d then split (Nat.shift_right d 1) (s + 1) else (d, s) in
    let d, s = split n1 0 in
    let witness a =
      let x = ref (pow_mod a d n) in
      if Nat.is_one !x || Nat.equal !x n1 then false
      else begin
        let composite = ref true in
        (try
           for _ = 1 to s - 1 do
             x := Nat.mul_mod !x !x n;
             if Nat.equal !x n1 then begin
               composite := false;
               raise Exit
             end
           done
         with Exit -> ());
        !composite
      end
    in
    let rec trial i =
      if i = 0 then true
      else begin
        let a = Nat.add Nat.two (Nat.random_below rand (Nat.sub n (of_int 3))) in
        if witness a then false else trial (i - 1)
      end
    in
    trial rounds
  end
