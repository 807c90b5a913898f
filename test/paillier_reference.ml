(* [Paillier.decrypt] as it was before its legs entered the Montgomery
   domain by a fold and divided exactly, kept as a test oracle: per leg,
   u = c^(prime-1) mod prime^2, then the floor division
   L(u) = (u - 1) / prime and a [Nat.mul_mod] by h, then Garner with a
   [rem] and a [Nat.mul_mod]. The exponentiations use the reference
   [Nat.pow_mod], which gives the same canonical residue as [Mont.pow_mod]
   and shares no code with the kernel under test. It raises what that
   body raised where a leg's u is 0 (the [Nat.pred] of zero):
   [Invalid_argument "Nat.sub: negative result"]. *)

module Nat = Snf_bignum.Nat

type key = { p : Nat.t; q : Nat.t; hp : Nat.t; hq : Nat.t; q_inv_p : Nat.t }

let l_function ~n u = Nat.div (Nat.pred u) n

let inverse a m =
  match Nat.mod_inverse a m with
  | Some inv -> inv
  | None -> invalid_arg "Paillier_reference: not invertible"

(* The h_p/h_q precomputation, specialised to g = n + 1. *)
let of_primes p q =
  let g = Nat.succ (Nat.mul p q) in
  let h prime = inverse (l_function ~n:prime (Nat.pow_mod g (Nat.pred prime) (Nat.mul prime prime))) prime in
  { p; q; hp = h p; hq = h q; q_inv_p = inverse q p }

let decrypt key c =
  let half prime h =
    let u = Nat.pow_mod c (Nat.pred prime) (Nat.mul prime prime) in
    Nat.mul_mod (l_function ~n:prime u) h prime
  in
  let mp = half key.p key.hp in
  let mq = half key.q key.hq in
  let mq_mod_p = Nat.rem mq key.p in
  let diff =
    if Nat.compare mp mq_mod_p >= 0 then Nat.sub mp mq_mod_p
    else Nat.sub (Nat.add mp key.p) mq_mod_p
  in
  Nat.add mq (Nat.mul key.q (Nat.mul_mod diff key.q_inv_p key.p))
