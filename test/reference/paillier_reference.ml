(* Paillier's kernels as they were before they ran on Montgomery
   arithmetic and the CRT, kept as test and bench oracles. Every
   exponentiation but [public_pool_entry]'s is the square-and-multiply
   [Nat_reference.pow_mod], which gives the same canonical residue as
   [Mont.pow_mod] and shares no code with the kernels under test:
   - [encrypt]: r^n mod n^2 over the public key, then one [Nat.mul_mod];
   - [decrypt_lambda_mu]: the textbook m = L(c^lambda mod n^2) * mu mod n;
   - [decrypt]: [Paillier.decrypt] as it was before its legs entered the
     Montgomery domain by a fold and divided exactly: per leg,
     u = c^(prime-1) mod prime^2, then the floor division
     L(u) = (u - 1) / prime and a [Nat.mul_mod] by h, then Garner with a
     [rem] and a [Nat.mul_mod]. It raises what that body raised where a
     leg's u is 0 (the [Nat.pred] of zero):
     [Invalid_argument "Nat.sub: negative result"];
   - [add]: one [Nat.mul_mod] per pair, the chain [Paillier.sum] folds
     bit for bit;
   - [public_pool_entry]: a randomizer-pool entry by the public key, one
     full-width exponentiation mod n^2 where the owner's pool runs two
     half-width ones and a CRT recombination. It checks the CRT split,
     not the exponentiation, so it runs [Mont.pow_mod], and
     [micro-paillier] times it as the public-key way to fill a pool. *)

module Nat = Snf_bignum.Nat
module Paillier = Snf_crypto.Paillier
module Prng = Snf_crypto.Prng

let pow_mod = Nat_reference.pow_mod

(* The two distinct [prime_bits]-bit primes [Paillier.key_gen] draws from
   [prng]: [Paillier.of_primes] on them is the keypair it returns. *)
let primes ?(prime_bits = 48) prng =
  let rand bound = Prng.int prng bound in
  let rec distinct () =
    let p = Nat.random_prime rand prime_bits in
    let q = Nat.random_prime rand prime_bits in
    if Nat.equal p q then distinct () else (p, q)
  in
  distinct ()

type key = {
  p : Nat.t;
  q : Nat.t;
  n : Nat.t;
  lambda : Nat.t;
  mu : Nat.t;
  hp : Nat.t;
  hq : Nat.t;
  q_inv_p : Nat.t;
}

let l_function ~n u = Nat.div (Nat.pred u) n

let inverse a m =
  match Nat.mod_inverse a m with
  | Some inv -> inv
  | None -> invalid_arg "Paillier_reference: not invertible"

(* g = n + 1, so g^lambda mod n^2 = 1 + lambda*n mod n^2 and
   mu = (L(g^lambda mod n^2))^-1 mod n = lambda^-1 mod n; h_p and h_q
   are the CRT precomputation, specialised to the same g. *)
let of_primes p q =
  let n = Nat.mul p q in
  let g = Nat.succ n in
  let lambda = Nat.lcm (Nat.pred p) (Nat.pred q) in
  let h prime =
    inverse (l_function ~n:prime (pow_mod g (Nat.pred prime) (Nat.mul prime prime))) prime
  in
  { p; q; n; lambda; mu = inverse lambda n; hp = h p; hq = h q; q_inv_p = inverse q p }

let encrypt prng (pk : Paillier.public_key) m =
  let n = pk.Paillier.n and n2 = pk.Paillier.n_squared in
  if Nat.compare m n >= 0 then invalid_arg "Paillier.encrypt: plaintext out of range";
  let rec draw () =
    let r = Nat.random_below (Prng.int prng) n in
    if Nat.is_zero r || not (Nat.is_one (Nat.gcd r n)) then draw () else r
  in
  let r = draw () in
  Nat.mul_mod (Nat.rem (Nat.succ (Nat.mul m n)) n2) (pow_mod r n n2) n2

let decrypt_lambda_mu key c =
  let u = pow_mod c key.lambda (Nat.mul key.n key.n) in
  Nat.mul_mod (l_function ~n:key.n u) key.mu key.n

let decrypt key c =
  let half prime h =
    let u = pow_mod c (Nat.pred prime) (Nat.mul prime prime) in
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

let add (pk : Paillier.public_key) c1 c2 = Nat.mul_mod c1 c2 pk.Paillier.n_squared

(* Pool entry [i] by the public key alone, as pools were filled before
   the owner's CRT split: the same draw of r from the PRF of [i] under
   [key], then one full-width r^n mod n^2. The oracle for
   [Paillier.pool_raw_entry]. *)
let public_pool_entry key (pk : Paillier.public_key) i =
  let prng = Prng.of_int64 (Snf_crypto.Prf.mac_int key i) in
  let n = pk.Paillier.n in
  let rec draw () =
    let r = Nat.random_below (Prng.int prng) n in
    if Nat.is_zero r || not (Nat.is_one (Nat.gcd r n)) then draw () else r
  in
  Nat.Mont.pow_mod pk.Paillier.mont_n2 (draw ()) n
