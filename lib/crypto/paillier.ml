module Nat = Snf_bignum.Nat
module Mont = Nat.Mont
module Metrics = Snf_obs.Metrics

(* Primitive op counts (DESIGN.md §Observability). Pooled encryptions
   ("crypto.paillier.encrypt_pooled") are batch-counted by bulk callers —
   [encrypt_with] is a single modular multiplication and stays free of
   per-op accounting. *)
let m_encrypt = Metrics.counter "crypto.paillier.encrypt"
let m_decrypt = Metrics.counter "crypto.paillier.decrypt"
let m_add = Metrics.counter "crypto.paillier.add"
let m_scalar_mul = Metrics.counter "crypto.paillier.scalar_mul"
let m_pool_entries = Metrics.counter "crypto.paillier.pool_entries"

type public_key = { n : Nat.t; n_squared : Nat.t; mont_n2 : Mont.ctx }

type private_key = {
  p : Nat.t;
  q : Nat.t;
  mont_p2 : Mont.ctx;
  mont_q2 : Mont.ctx;
  pm1 : Nat.t;
  qm1 : Nat.t;
  (* The decrypt's constants, each in the form its one product needs:
     L_p by [hp_q_inv_r] is m_p * q^-1 mod p, m_q by [q_inv_r] is
     m_q * q^-1 mod p, and L_q by [hq_r] is m_q. *)
  div_p : Nat.Exact.divisor;
  div_q : Nat.Exact.divisor;
  mont_p : Mont.ctx;
  mont_q : Mont.ctx;
  hp_q_inv_r : Nat.t;  (* h_p * q^-1 * R_p mod p *)
  q_inv_r : Nat.t;     (* q^-1 * R_p mod p *)
  hq_r : Nat.t;        (* h_q * R_q mod q *)
  q2_inv_p2 : Nat.t;  (* (q^2)^-1 mod p^2, for the pool's CRT recombination *)
}

type keypair = { public : public_key; secret : private_key }

let public_of_n n =
  let n_squared = Nat.mul n n in
  { n; n_squared; mont_n2 = Mont.make n_squared }

let not_a_unit () = invalid_arg "Paillier.decrypt: ciphertext is not a unit mod n"

(* One CRT leg: u = c^(prime-1) mod prime^2, then L(u) = (u - 1) / prime.
   The ciphertext enters the Montgomery domain of prime^2 by the fold,
   whatever its width. When prime does not divide c, u = 1 (mod prime)
   by Fermat, so the division is exact and the quotient is below prime;
   when it does, u = 0, and c is no ciphertext. *)
let leg mont div prime_m1 c =
  let u = Mont.pow_mod mont c prime_m1 in
  if Nat.is_zero u then not_a_unit ();
  Nat.Exact.div div (Nat.pred u)

let of_primes p q =
  if Nat.equal p q || Nat.is_even p || Nat.is_even q || Nat.is_one p || Nat.is_one q then
    invalid_arg "Paillier.of_primes: need two distinct odd primes";
  let n = Nat.mul p q in
  let public = public_of_n n in
  (* g = n + 1 makes the scheme's mu the inverse of lambda = lcm(p-1, q-1)
     mod n. CRT decryption never reads mu, but a pair with no such
     inverse (p | q - 1 or q | p - 1) is no Paillier key. *)
  if not (Nat.is_one (Nat.gcd (Nat.lcm (Nat.pred p) (Nat.pred q)) n)) then
    failwith "Paillier.key_gen: lambda not invertible (retry with new primes)";
  (* CRT decryption precomputation (the h_p/h_q of the original paper,
     specialised to g = n + 1): h is the inverse of the leg of g. *)
  let mont_p2 = Mont.make (Nat.mul p p) in
  let mont_q2 = Mont.make (Nat.mul q q) in
  let pm1 = Nat.pred p and qm1 = Nat.pred q in
  let div_p = Nat.Exact.divisor p and div_q = Nat.Exact.divisor q in
  let g = Nat.succ n in
  let inverse failure a m =
    match Nat.mod_inverse a m with
    | Some inv -> inv
    | None -> failwith ("Paillier.key_gen: " ^ failure)
  in
  let h mont div prime prime_m1 =
    inverse "degenerate CRT precomputation" (leg mont div prime_m1 g) prime
  in
  let hp = h mont_p2 div_p p pm1 in
  let hq = h mont_q2 div_q q qm1 in
  let q_inv_p = inverse "primes not coprime" q p in
  let q2_inv_p2 =
    inverse "primes not coprime" (Mont.modulus mont_q2) (Mont.modulus mont_p2)
  in
  let mont_p = Mont.make p and mont_q = Mont.make q in
  { public;
    secret =
      { p; q; mont_p2; mont_q2; pm1; qm1; div_p; div_q; mont_p; mont_q;
        hp_q_inv_r = Mont.to_mont mont_p (Nat.mul_mod hp q_inv_p p);
        q_inv_r = Mont.to_mont mont_p q_inv_p;
        hq_r = Mont.to_mont mont_q hq;
        q2_inv_p2 } }

let key_gen ?(prime_bits = 48) prng =
  let rand bound = Prng.int prng bound in
  let rec distinct_primes () =
    let p = Nat.random_prime rand prime_bits in
    let q = Nat.random_prime rand prime_bits in
    if Nat.equal p q then distinct_primes () else (p, q)
  in
  let p, q = distinct_primes () in
  of_primes p q

(* The first r below n that is nonzero and passes [coprime]. *)
let draw_randomizer ~coprime rand n =
  let rec draw () =
    let r = Nat.random_below rand n in
    if Nat.is_zero r || not (coprime r) then draw () else r
  in
  draw ()

let coprime_to n r = Nat.is_one (Nat.gcd r n)

(* (1 + n)^m = 1 + m*n (mod n^2) *)
let g_pow_m pk m = Nat.rem (Nat.succ (Nat.mul m pk.n)) pk.n_squared

let check_plaintext pk m =
  if Nat.compare m pk.n >= 0 then invalid_arg "Paillier.encrypt: plaintext out of range"

let encrypt prng pk m =
  check_plaintext pk m;
  Metrics.incr m_encrypt;
  let r = draw_randomizer ~coprime:(coprime_to pk.n) (Prng.int prng) pk.n in
  let r_n = Mont.pow_mod pk.mont_n2 r pk.n in
  Nat.mul_mod (g_pow_m pk m) r_n pk.n_squared

let encrypt_int prng pk m = encrypt prng pk (Nat.of_int m)

(* --- randomizer pool ----------------------------------------------------- *)

type pool = {
  pool_key : Prf.key;
  pool_kp : keypair;
  mutable entries : Nat.t array;
}

let pool ~key kp = { pool_key = key; pool_kp = kp; entries = [||] }

(* Entry i depends only on (key, i): a PRF of the index seeds a private
   stream, so pools are reproducible regardless of fill order or the
   worker count used to precompute them. The owner holds p and q, so
   r^n mod n^2 is computed as r^n mod p^2 and r^n mod q^2 — two
   half-width exponentiations, on the register-width product at 48-bit
   primes — and recombined by CRT: x = x_q + q^2 * ((x_p - x_q) *
   (q^2)^-1 mod p^2), which is below p^2 q^2 = n^2, hence the same
   canonical residue the one full-width exponentiation mod n^2 gives. *)
let pool_raw_entry t i =
  let pk = t.pool_kp.public and sk = t.pool_kp.secret in
  let prng = Prng.of_int64 (Prf.mac_int t.pool_key i) in
  (* With n = pq, r is coprime to n exactly when neither prime divides
     it: two short remainders accept the same r as the gcd. *)
  let coprime r = not (Nat.is_zero (Nat.rem r sk.p) || Nat.is_zero (Nat.rem r sk.q)) in
  let r = draw_randomizer ~coprime (Prng.int prng) pk.n in
  let p2 = Mont.modulus sk.mont_p2 and q2 = Mont.modulus sk.mont_q2 in
  let xp = Mont.pow_mod sk.mont_p2 r pk.n in
  let xq = Mont.pow_mod sk.mont_q2 r pk.n in
  let xq_p = Nat.rem xq p2 in
  let diff =
    if Nat.compare xp xq_p >= 0 then Nat.sub xp xq_p else Nat.sub (Nat.add xp p2) xq_p
  in
  Nat.add xq (Nat.mul q2 (Mont.mul_mod sk.mont_p2 diff sk.q2_inv_p2))

let pool_fill t ~tabulate size =
  if Array.length t.entries < size then begin
    Metrics.add m_pool_entries (size - Array.length t.entries);
    t.entries <- tabulate size (pool_raw_entry t)
  end

let pool_entry t i =
  if i >= 0 && i < Array.length t.entries then t.entries.(i) else pool_raw_entry t i

let encrypt_with t i m =
  let pk = t.pool_kp.public in
  check_plaintext pk m;
  Nat.mul_mod (g_pow_m pk m) (pool_entry t i) pk.n_squared

(* --- decryption ----------------------------------------------------------- *)

(* CRT decryption: one half-width exponentiation with a half-width exponent
   per prime instead of one full-width pow mod n^2 — roughly 8x less limb
   work per leg, 4x overall — then three small Montgomery products and no
   division: m_q = L_q * h_q mod q, and Garner's
   t = (m_p - m_q) * q^-1 mod p as (L_p * h_p * q^-1) - (m_q * q^-1) mod p,
   m = m_q + q * t. *)
let decrypt kp c =
  Metrics.incr m_decrypt;
  let sk = kp.secret in
  let lp = leg sk.mont_p2 sk.div_p sk.pm1 c in
  let lq = leg sk.mont_q2 sk.div_q sk.qm1 c in
  let mq = Mont.mul sk.mont_q lq sk.hq_r in
  let a = Mont.mul sk.mont_p lp sk.hp_q_inv_r and b = Mont.mul sk.mont_p mq sk.q_inv_r in
  let t = if Nat.compare a b >= 0 then Nat.sub a b else Nat.sub (Nat.add a sk.p) b in
  Nat.add mq (Nat.mul sk.q t)

let decrypt_int kp c = Nat.to_int_exn (decrypt kp c)

(* --- homomorphisms -------------------------------------------------------- *)

let sum pk cs =
  match Array.length cs with
  | 0 -> Nat.zero
  | 1 -> cs.(0)
  | k ->
    Metrics.add m_add (k - 1);
    Mont.prod pk.mont_n2 cs

let scalar_mul pk c k =
  if k < 0 then invalid_arg "Paillier.scalar_mul: negative scalar";
  Metrics.incr m_scalar_mul;
  Mont.pow_mod pk.mont_n2 c (Nat.of_int k)
