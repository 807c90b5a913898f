(* Little-endian limb arrays in base 2^26, normalized: the most significant
   limb is non-zero, and zero is the empty array. *)

let limb_bits = 26
let base = 1 lsl limb_bits
let limb_mask = base - 1

type t = int array

let zero : t = [||]

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative";
  let rec limbs n = if n = 0 then [] else (n land limb_mask) :: limbs (n lsr limb_bits) in
  Array.of_list (limbs n)

let one = of_int 1
let two = of_int 2

let is_zero a = Array.length a = 0
let is_one a = Array.length a = 1 && a.(0) = 1
let is_even a = Array.length a = 0 || a.(0) land 1 = 0

let to_int_opt a =
  (* max_int has 62 bits; accept up to 62 bits. *)
  let bits = Array.length a * limb_bits in
  if bits <= 62 then begin
    let v = ref 0 in
    for i = Array.length a - 1 downto 0 do
      v := (!v lsl limb_bits) lor a.(i)
    done;
    Some !v
  end else begin
    (* May still fit if high limbs are small; compute carefully. *)
    let v = ref 0 and ok = ref true in
    for i = Array.length a - 1 downto 0 do
      if !ok then
        if !v > (max_int - a.(i)) lsr limb_bits then ok := false
        else v := (!v lsl limb_bits) lor a.(i)
    done;
    if !ok then Some !v else None
  end

let to_int_exn a =
  match to_int_opt a with
  | Some v -> v
  | None -> failwith "Nat.to_int_exn: overflow"

(* Top-level, so an equal-width compare allocates nothing: a local
   recursive loop would close over both operands on every call. *)
let rec compare_from (a : t) (b : t) i =
  if i < 0 then 0
  else
    let x = a.(i) and y = b.(i) in
    if x <> y then Int.compare x y else compare_from a b (i - 1)

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb else compare_from a b (la - 1)

let equal a b = compare a b = 0

let bit_length a =
  let l = Array.length a in
  if l = 0 then 0
  else begin
    let top = a.(l - 1) in
    let rec width n = if n = 0 then 0 else 1 + width (n lsr 1) in
    (l - 1) * limb_bits + width top
  end

let testbit a i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let l = max la lb in
  let r = Array.make (l + 1) 0 in
  let carry = ref 0 in
  for i = 0 to l - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  r.(l) <- !carry;
  normalize r

let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Nat.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin r.(i) <- d + base; borrow := 1 end
    else begin r.(i) <- d; borrow := 0 end
  done;
  normalize r

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let acc = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- acc land limb_mask;
        carry := acc lsr limb_bits
      done;
      (* Propagate the remaining carry. *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let acc = r.(!k) + !carry in
        r.(!k) <- acc land limb_mask;
        carry := acc lsr limb_bits;
        incr k
      done
    done;
    normalize r
  end

let shift_left (a : t) n =
  if n < 0 then invalid_arg "Nat.shift_left";
  if is_zero a || n = 0 then a
  else begin
    let limbs = n / limb_bits and bits = n mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bits in
      r.(i + limbs) <- r.(i + limbs) lor (v land limb_mask);
      r.(i + limbs + 1) <- r.(i + limbs + 1) lor (v lsr limb_bits)
    done;
    normalize r
  end

let shift_right (a : t) n =
  if n < 0 then invalid_arg "Nat.shift_right";
  if is_zero a || n = 0 then a
  else begin
    let limbs = n / limb_bits and bits = n mod limb_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let l = la - limbs in
      let r = Array.make l 0 in
      for i = 0 to l - 1 do
        let lo = a.(i + limbs) lsr bits in
        let hi =
          if bits > 0 && i + limbs + 1 < la
          then (a.(i + limbs + 1) lsl (limb_bits - bits)) land limb_mask
          else 0
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

(* Division by a single limb: schoolbook from the most significant limb;
   the two-limb intermediate stays below 2^52. *)
let divmod_limb (a : t) d =
  let n = Array.length a in
  let q = Array.make n 0 in
  let r = ref 0 in
  for i = n - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize q, (if !r = 0 then zero else [| !r |]))

(* Knuth TAOCP 4.3.1 Algorithm D over base-2^26 limbs. All intermediates
   (two-limb dividends, limb products) fit comfortably in a 63-bit int. *)
let divmod_knuth (u : t) (v : t) : t * t =
  let n = Array.length v in
  let m = Array.length u - n in
  (* D1: normalize so the divisor's top limb has its high bit set. *)
  let top_bits x =
    let rec w n = if n = 0 then 0 else 1 + w (n lsr 1) in
    w x
  in
  let s = limb_bits - top_bits v.(n - 1) in
  let vn = Array.make n 0 in
  for i = n - 1 downto 1 do
    vn.(i) <- ((v.(i) lsl s) lor (if s = 0 then 0 else v.(i - 1) lsr (limb_bits - s)))
              land limb_mask
  done;
  vn.(0) <- (v.(0) lsl s) land limb_mask;
  let un = Array.make (m + n + 1) 0 in
  un.(m + n) <- if s = 0 then 0 else u.(m + n - 1) lsr (limb_bits - s);
  for i = m + n - 1 downto 1 do
    un.(i) <- ((u.(i) lsl s) lor (if s = 0 then 0 else u.(i - 1) lsr (limb_bits - s)))
              land limb_mask
  done;
  un.(0) <- (u.(0) lsl s) land limb_mask;
  let q = Array.make (m + 1) 0 in
  (* D2-D7: one quotient limb per iteration. *)
  for j = m downto 0 do
    let top = (un.(j + n) lsl limb_bits) lor un.(j + n - 1) in
    let qhat = ref (top / vn.(n - 1)) in
    let rhat = ref (top mod vn.(n - 1)) in
    let adjust () =
      while
        !qhat >= base
        || (n > 1 && !qhat * vn.(n - 2) > (!rhat lsl limb_bits) lor un.(j + n - 2)
            && !rhat < base)
      do
        decr qhat;
        rhat := !rhat + vn.(n - 1)
      done
    in
    adjust ();
    (* D4: multiply and subtract (signed borrow propagation). *)
    let borrow = ref 0 in
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let p = !qhat * vn.(i) + !carry in
      carry := p lsr limb_bits;
      let t = un.(i + j) - (p land limb_mask) - !borrow in
      if t < 0 then begin
        un.(i + j) <- t + base;
        borrow := 1
      end
      else begin
        un.(i + j) <- t;
        borrow := 0
      end
    done;
    let t = un.(j + n) - !carry - !borrow in
    (* D5/D6: if we overshot (negative), decrement qhat and add back. *)
    if t < 0 then begin
      un.(j + n) <- t + base;
      decr qhat;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let sum = un.(i + j) + vn.(i) + !c in
        un.(i + j) <- sum land limb_mask;
        c := sum lsr limb_bits
      done;
      un.(j + n) <- (un.(j + n) + !c) land limb_mask
    end
    else un.(j + n) <- t;
    q.(j) <- !qhat
  done;
  (* D8: denormalize the remainder. *)
  let r = Array.make n 0 in
  for i = 0 to n - 1 do
    r.(i) <-
      ((un.(i) lsr s)
      lor (if s = 0 || i + 1 > n then 0
           else (un.(i + 1) lsl (limb_bits - s)) land limb_mask))
      land limb_mask
  done;
  (normalize q, normalize r)

let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then divmod_limb a b.(0)
  else divmod_knuth a b

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let succ a = add a one
let pred a = sub a one

let add_mod a b m = rem (add a b) m
let mul_mod a b m = rem (mul a b) m

(* Op counters (see DESIGN.md §Observability). Exponentiations batch their
   inner-multiplication counts into one shard update per call, so the
   counting cost is invisible next to the limb work it measures. *)
let m_mont_pow = Snf_obs.Metrics.counter "bignum.mont.pow_mod"
let m_mont_muls = Snf_obs.Metrics.counter "bignum.mont.muls"

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

let lcm a b =
  if is_zero a || is_zero b then zero
  else div (mul a b) (gcd a b)

(* Extended Euclid over naturals: track signs of the Bezout coefficients
   explicitly to stay within the natural-number representation. *)
let mod_inverse a m =
  if is_zero m || is_one m then None
  else begin
    let a = rem a m in
    if is_zero a then None
    else begin
      (* Invariants: r0 = s0*a - t0*m when s0_neg=false (and symmetric
         variants); we only need the coefficient of [a]. *)
      let rec go r0 r1 s0 s1 s0_neg s1_neg =
        if is_zero r1 then
          if is_one r0 then Some (if s0_neg then sub m (rem s0 m) else rem s0 m)
          else None
        else begin
          let q, r2 = divmod r0 r1 in
          (* s2 = s0 - q*s1, tracking signs. *)
          let qs1 = mul q s1 in
          let s2, s2_neg =
            match (s0_neg, s1_neg) with
            | false, false ->
              if compare s0 qs1 >= 0 then (sub s0 qs1, false) else (sub qs1 s0, true)
            | true, true ->
              if compare s0 qs1 >= 0 then (sub s0 qs1, true) else (sub qs1 s0, false)
            | false, true -> (add s0 qs1, false)
            | true, false -> (add s0 qs1, true)
          in
          go r1 r2 s1 s2 s1_neg s2_neg
        end
      in
      go m a zero one false false
      |> Option.map (fun inv_of_a_coeff ->
             (* go computed the coefficient chain starting from (m, a); the
                coefficient returned corresponds to [a]. *)
             inv_of_a_coeff)
    end
  end

let of_string s =
  if s = "" then invalid_arg "Nat.of_string: empty";
  let ten = of_int 10 in
  let acc = ref zero in
  String.iter
    (fun c ->
      if c < '0' || c > '9' then invalid_arg "Nat.of_string: not a digit";
      acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0')))
    s;
  !acc

let to_string a =
  if is_zero a then "0"
  else begin
    let ten = of_int 10 in
    let buf = Buffer.create 16 in
    let rec go a =
      if not (is_zero a) then begin
        let q, r = divmod a ten in
        go q;
        Buffer.add_char buf (Char.chr (Char.code '0' + to_int_exn r))
      end
    in
    go a;
    Buffer.contents buf
  end

(* Linear bit-packing: the byte string is read once from its least
   significant end into an accumulator of at most 33 bits that spills a
   limb whenever it holds 26. *)
let of_bytes_be s =
  let len = String.length s in
  let r = Array.make (((8 * len) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and bits = ref 0 and k = ref 0 in
  for i = len - 1 downto 0 do
    acc := !acc lor (Char.code (String.unsafe_get s i) lsl !bits);
    bits := !bits + 8;
    if !bits >= limb_bits then begin
      r.(!k) <- !acc land limb_mask;
      acc := !acc lsr limb_bits;
      bits := !bits - limb_bits;
      incr k
    end
  done;
  if !bits > 0 then r.(!k) <- !acc;
  normalize r

(* The reverse walk: bytes leave from the least significant end, limbs
   enter the accumulator as it runs below 8 bits. *)
let to_bytes_be (a : t) =
  let n = (bit_length a + 7) / 8 in
  let b = Bytes.create n in
  let acc = ref 0 and bits = ref 0 and k = ref 0 in
  for i = n - 1 downto 0 do
    if !bits < 8 then begin
      if !k < Array.length a then acc := !acc lor (a.(!k) lsl !bits);
      bits := !bits + limb_bits;
      incr k
    end;
    Bytes.unsafe_set b i (Char.unsafe_chr (!acc land 0xff));
    acc := !acc lsr 8;
    bits := !bits - 8
  done;
  Bytes.unsafe_to_string b

let random_bits rand k =
  if k < 1 then invalid_arg "Nat.random_bits";
  let limbs = (k + limb_bits - 1) / limb_bits in
  let r = Array.make limbs 0 in
  for i = 0 to limbs - 1 do
    r.(i) <- rand base
  done;
  (* Clear bits above position k-1, then force the top bit. *)
  let top_limb = (k - 1) / limb_bits and top_off = (k - 1) mod limb_bits in
  for i = top_limb + 1 to limbs - 1 do r.(i) <- 0 done;
  r.(top_limb) <- r.(top_limb) land ((1 lsl (top_off + 1)) - 1);
  r.(top_limb) <- r.(top_limb) lor (1 lsl top_off);
  normalize r

let random_below rand n =
  if is_zero n then invalid_arg "Nat.random_below: zero bound";
  let k = bit_length n in
  let limbs = (k + limb_bits - 1) / limb_bits in
  let rec draw () =
    let r = Array.init limbs (fun _ -> rand base) in
    let top_limb = (k - 1) / limb_bits and top_off = (k - 1) mod limb_bits in
    for i = top_limb + 1 to limbs - 1 do r.(i) <- 0 done;
    r.(top_limb) <- r.(top_limb) land ((1 lsl (top_off + 1)) - 1);
    let v = normalize r in
    if compare v n < 0 then v else draw ()
  in
  draw ()

let pp fmt a = Format.pp_print_string fmt (to_string a)

(* --- Montgomery arithmetic ----------------------------------------------- *)

(* Per-modulus fast path: REDC-based multiplication (CIOS) and
   sliding-window exponentiation. Works on fixed-width (k-limb) arrays and
   never divides — the reduction is interleaved shift-free limb
   arithmetic, and an operand of any width enters by folding its k-limb
   chunks ([fold]). [pow_mod] runs every square and multiply into one
   k-limb accumulator through one (k+2)-limb scratch, so its minor-heap
   cost is a handful of arrays per call, not two per product. A 4-limb
   modulus multiplies and squares at register width ([mont_mul4],
   [mont_sqr4]). *)
module Mont = struct
  type ctx = {
    m : t;                (* modulus, odd, > 1 *)
    k : int;              (* limb count of m *)
    m_limbs : int array;  (* length k *)
    m' : int;             (* -m^{-1} mod base *)
    r2 : int array;       (* R^2 mod m at width k, R = base^k: mont_mul by it
                             enters Montgomery form *)
    one_k : int array;    (* 1 at width k: mont_mul by it leaves Montgomery form *)
  }

  (* Inverse of an odd limb modulo base by Hensel lifting: each step doubles
     the number of correct low bits (3 -> 6 -> 12 -> 24 -> 48 >= 26). *)
  let inv_limb x =
    let y = ref x in
    for _ = 1 to 4 do
      y := (!y * ((2 - (x * !y)) land limb_mask)) land limb_mask
    done;
    !y

  (* Fixed-width copy of a value already reduced below a k-limb modulus. *)
  let widen k (x : t) =
    let r = Array.make k 0 in
    Array.blit x 0 r 0 (Array.length x);
    r

  let make m =
    if is_zero m || is_even m || is_one m then
      invalid_arg "Nat.Mont.make: modulus must be odd and > 1";
    let k = Array.length m in
    let m_limbs = Array.copy m in
    let m' = (base - inv_limb m.(0)) land limb_mask in
    { m;
      k;
      m_limbs;
      m';
      r2 = widen k (rem (shift_left one (2 * k * limb_bits)) m);
      one_k = widen k one }

  let modulus ctx = ctx.m

  (* In-place conditional final subtraction: a (length k, plus carry bit
     [hi]) minus m when a >= m. *)
  let reduce_once ctx (a : int array) hi =
    let k = ctx.k and m = ctx.m_limbs in
    let ge =
      hi > 0
      ||
      let i = ref (k - 1) in
      while !i >= 0 && a.(!i) = m.(!i) do decr i done;
      !i < 0 || a.(!i) > m.(!i)
    in
    if ge then begin
      let borrow = ref 0 in
      for i = 0 to k - 1 do
        let d = a.(i) - m.(i) - !borrow in
        if d < 0 then begin
          a.(i) <- d + base;
          borrow := 1
        end
        else begin
          a.(i) <- d;
          borrow := 0
        end
      done
    end

  (* CIOS Montgomery multiplication into [dst]: dst <- a*b*R^-1 mod m for
     k-limb inputs, [b] below m ([a], scanned limb by limb, may be any
     k-limb value: the running sum stays below b + m < 2m), accumulated
     in the (k+2)-limb scratch [t].
     [a] and [b] are only read before [dst] is written, so [dst] may be
     either of them. Every intermediate fits a 63-bit int: limb products
     stay below 2^52 and the running sums add at most two more bits. *)
  let mont_mul_generic ctx (t : int array) (dst : int array) (a : int array) (b : int array) =
    let k = ctx.k and m = ctx.m_limbs and m' = ctx.m' in
    Array.fill t 0 (k + 2) 0;
    for i = 0 to k - 1 do
      let ai = a.(i) in
      let c = ref 0 in
      for j = 0 to k - 1 do
        let s = t.(j) + (ai * b.(j)) + !c in
        t.(j) <- s land limb_mask;
        c := s lsr limb_bits
      done;
      let s = t.(k) + !c in
      t.(k) <- s land limb_mask;
      t.(k + 1) <- t.(k + 1) + (s lsr limb_bits);
      let u = (t.(0) * m') land limb_mask in
      let c = ref ((t.(0) + (u * m.(0))) lsr limb_bits) in
      for j = 1 to k - 1 do
        let s = t.(j) + (u * m.(j)) + !c in
        t.(j - 1) <- s land limb_mask;
        c := s lsr limb_bits
      done;
      let s = t.(k) + !c in
      t.(k - 1) <- s land limb_mask;
      t.(k) <- t.(k + 1) + (s lsr limb_bits);
      t.(k + 1) <- 0
    done;
    Array.blit t 0 dst 0 k;
    reduce_once ctx dst t.(k)

  (* The register-width bodies' last step: r = r0..r3 plus the carry
     [hi] above them, below 2m, into [dst] less m when r >= m. [asr]
     turns a negative limb into the borrow. *)
  let[@inline] store4 (dst : int array) m0 m1 m2 m3 r0 r1 r2 r3 hi =
    if
      hi > 0
      || r3 > m3
      || (r3 = m3 && (r2 > m2 || (r2 = m2 && (r1 > m1 || (r1 = m1 && r0 >= m0)))))
    then begin
      let d = r0 - m0 in
      Array.unsafe_set dst 0 (d land limb_mask);
      let d = r1 - m1 + (d asr limb_bits) in
      Array.unsafe_set dst 1 (d land limb_mask);
      let d = r2 - m2 + (d asr limb_bits) in
      Array.unsafe_set dst 2 (d land limb_mask);
      let d = r3 - m3 + (d asr limb_bits) in
      Array.unsafe_set dst 3 (d land limb_mask)
    end
    else begin
      Array.unsafe_set dst 0 r0;
      Array.unsafe_set dst 1 r1;
      Array.unsafe_set dst 2 r2;
      Array.unsafe_set dst 3 r3
    end

  (* The same CIOS product at register width for a 4-limb modulus — the
     p^2 of a Paillier CRT leg at 48-bit primes. Operand limbs and the
     running sum t0..t4 live in locals ([t4] is the limb above the top,
     carry bits included), bounds are checked once per call, and the
     scratch goes unused. *)
  let mont_mul4 ctx (dst : int array) (a : int array) (b : int array) =
    let m = ctx.m_limbs and m' = ctx.m' in
    if Array.length a < 4 || Array.length b < 4 || Array.length dst < 4 then
      invalid_arg "Nat.Mont: operand narrower than the modulus";
    let m0 = Array.unsafe_get m 0 and m1 = Array.unsafe_get m 1
    and m2 = Array.unsafe_get m 2 and m3 = Array.unsafe_get m 3 in
    let b0 = Array.unsafe_get b 0 and b1 = Array.unsafe_get b 1
    and b2 = Array.unsafe_get b 2 and b3 = Array.unsafe_get b 3 in
    let t0 = ref 0 and t1 = ref 0 and t2 = ref 0 and t3 = ref 0 and t4 = ref 0 in
    for i = 0 to 3 do
      let ai = Array.unsafe_get a i in
      let s = !t0 + (ai * b0) in
      let x0 = s land limb_mask in
      let s = !t1 + (ai * b1) + (s lsr limb_bits) in
      let x1 = s land limb_mask in
      let s = !t2 + (ai * b2) + (s lsr limb_bits) in
      let x2 = s land limb_mask in
      let s = !t3 + (ai * b3) + (s lsr limb_bits) in
      let x3 = s land limb_mask in
      let x4 = !t4 + (s lsr limb_bits) in
      let u = (x0 * m') land limb_mask in
      let s = x1 + (u * m1) + ((x0 + (u * m0)) lsr limb_bits) in
      t0 := s land limb_mask;
      let s = x2 + (u * m2) + (s lsr limb_bits) in
      t1 := s land limb_mask;
      let s = x3 + (u * m3) + (s lsr limb_bits) in
      t2 := s land limb_mask;
      let s = x4 + (s lsr limb_bits) in
      t3 := s land limb_mask;
      t4 := s lsr limb_bits
    done;
    store4 dst m0 m1 m2 m3 !t0 !t1 !t2 !t3 !t4

  (* The Montgomery square a*a*R^-1 mod m at register width for a 4-limb
     modulus, for [a] below m: the 8-limb square first, each cross
     product once and doubled (10 limb products against the 16 of
     [mont_mul4]'s operand scan), then four REDC rounds, each adding u*m
     and shifting down one limb. Column sums stay below 2^55. The limb
     above each round's window takes its carry unmasked (below 2^28) and
     is masked when the next round adds to it; the top carry lands in
     [hi]. Equal to [mont_mul4 ctx dst a a] for every [a] below m. *)
  let mont_sqr4 ctx (dst : int array) (a : int array) =
    let m = ctx.m_limbs and m' = ctx.m' in
    if Array.length a < 4 || Array.length dst < 4 then
      invalid_arg "Nat.Mont: operand narrower than the modulus";
    let m0 = Array.unsafe_get m 0 and m1 = Array.unsafe_get m 1
    and m2 = Array.unsafe_get m 2 and m3 = Array.unsafe_get m 3 in
    let a0 = Array.unsafe_get a 0 and a1 = Array.unsafe_get a 1
    and a2 = Array.unsafe_get a 2 and a3 = Array.unsafe_get a 3 in
    let s = a0 * a0 in
    let x0 = s land limb_mask in
    let s = (2 * (a0 * a1)) + (s lsr limb_bits) in
    let x1 = s land limb_mask in
    let s = (2 * (a0 * a2)) + (a1 * a1) + (s lsr limb_bits) in
    let x2 = s land limb_mask in
    let s = (2 * ((a0 * a3) + (a1 * a2))) + (s lsr limb_bits) in
    let x3 = s land limb_mask in
    let s = (2 * (a1 * a3)) + (a2 * a2) + (s lsr limb_bits) in
    let x4 = s land limb_mask in
    let s = (2 * (a2 * a3)) + (s lsr limb_bits) in
    let x5 = s land limb_mask in
    let s = (a3 * a3) + (s lsr limb_bits) in
    let x6 = s land limb_mask and x7 = s lsr limb_bits in
    (* REDC round over limbs (v0..v4): the result is limbs 1..4 of
       v + u*m, the last unmasked. *)
    let u = (x0 * m') land limb_mask in
    let s = x1 + (u * m1) + ((x0 + (u * m0)) lsr limb_bits) in
    let y0 = s land limb_mask in
    let s = x2 + (u * m2) + (s lsr limb_bits) in
    let y1 = s land limb_mask in
    let s = x3 + (u * m3) + (s lsr limb_bits) in
    let y2 = s land limb_mask in
    let y3 = x4 + (s lsr limb_bits) in
    let u = (y0 * m') land limb_mask in
    let s = y1 + (u * m1) + ((y0 + (u * m0)) lsr limb_bits) in
    let z0 = s land limb_mask in
    let s = y2 + (u * m2) + (s lsr limb_bits) in
    let z1 = s land limb_mask in
    let s = y3 + (u * m3) + (s lsr limb_bits) in
    let z2 = s land limb_mask in
    let z3 = x5 + (s lsr limb_bits) in
    let u = (z0 * m') land limb_mask in
    let s = z1 + (u * m1) + ((z0 + (u * m0)) lsr limb_bits) in
    let w0 = s land limb_mask in
    let s = z2 + (u * m2) + (s lsr limb_bits) in
    let w1 = s land limb_mask in
    let s = z3 + (u * m3) + (s lsr limb_bits) in
    let w2 = s land limb_mask in
    let w3 = x6 + (s lsr limb_bits) in
    let u = (w0 * m') land limb_mask in
    let s = w1 + (u * m1) + ((w0 + (u * m0)) lsr limb_bits) in
    let r0 = s land limb_mask in
    let s = w2 + (u * m2) + (s lsr limb_bits) in
    let r1 = s land limb_mask in
    let s = w3 + (u * m3) + (s lsr limb_bits) in
    let r2 = s land limb_mask in
    let s = x7 + (s lsr limb_bits) in
    store4 dst m0 m1 m2 m3 r0 r1 r2 (s land limb_mask) (s lsr limb_bits)

  (* Each body is chosen by the modulus's limb count alone. *)
  let mont_mul_into ctx t dst a b =
    if ctx.k = 4 then mont_mul4 ctx dst a b else mont_mul_generic ctx t dst a b

  let mont_sqr_into ctx t dst a =
    if ctx.k = 4 then mont_sqr4 ctx dst a else mont_mul_generic ctx t dst a a

  (* [dst] <- [dst] + limbs [lo, lo+k) of [x], less m if the sum carries
     out of k limbs. With [dst] below m and the chunk below R, the result
     is below R. *)
  let add_chunk ctx dst (x : t) lo =
    let k = ctx.k and m = ctx.m_limbs in
    let lx = Array.length x in
    let c = ref 0 in
    for i = 0 to k - 1 do
      let s = dst.(i) + (if lo + i < lx then x.(lo + i) else 0) + !c in
      dst.(i) <- s land limb_mask;
      c := s lsr limb_bits
    done;
    if !c > 0 then begin
      (* The borrow out of the top limb cancels the carry. *)
      let b = ref 0 in
      for i = 0 to k - 1 do
        let d = dst.(i) - m.(i) + !b in
        dst.(i) <- d land limb_mask;
        b := d asr limb_bits
      done
    end

  (* [dst] <- a k-limb value below R congruent to [x] mod m, for [x] of
     any width, without dividing: Horner over x's k-limb chunks from the
     top, acc <- acc*R + chunk, where acc*R mod m is one product by R^2.
     A value of at most k limbs is copied; each further chunk costs one
     product. CIOS only needs one operand below m, so the result can go
     straight into a product with a reduced value. *)
  let fold ctx t dst (x : t) =
    let k = ctx.k in
    let chunks = (Array.length x + k - 1) / k in
    Array.fill dst 0 k 0;
    if chunks > 0 then begin
      add_chunk ctx dst x ((chunks - 1) * k);
      for j = chunks - 2 downto 0 do
        mont_mul_into ctx t dst dst ctx.r2;
        add_chunk ctx dst x (j * k)
      done
    end

  (* [dst] <- x*R mod m, the Montgomery form of [x] of any width: the
     fold, then one product by R^2. *)
  let enter ctx t dst x =
    fold ctx t dst x;
    mont_mul_into ctx t dst dst ctx.r2

  let scratch ctx = Array.make (ctx.k + 2) 0

  let reduced ctx (x : t) = if compare x ctx.m < 0 then x else rem x ctx.m

  let to_mont ctx x =
    let r = Array.make ctx.k 0 in
    enter ctx (scratch ctx) r x;
    normalize r

  let of_mont ctx x =
    let t = scratch ctx and r = Array.make ctx.k 0 in
    fold ctx t r x;
    mont_mul_into ctx t r r ctx.one_k;
    normalize r

  let mul ctx a b =
    let t = scratch ctx and r = Array.make ctx.k 0 in
    fold ctx t r a;
    mont_mul_into ctx t r r (widen ctx.k (reduced ctx b));
    normalize r

  let sqr ctx a =
    let r = widen ctx.k (reduced ctx a) in
    mont_sqr_into ctx (scratch ctx) r r;
    normalize r

  (* Plain-domain modular product: mont_mul b (aR) = a*b mod m, with aR
     entering by [enter] (below m, so the operand CIOS reads whole) and b
     by [fold] (below R, the operand it scans limb by limb). *)
  let mul_mod ctx a b =
    let t = scratch ctx in
    let am = Array.make ctx.k 0 and bm = Array.make ctx.k 0 in
    enter ctx t am a;
    fold ctx t bm b;
    mont_mul_into ctx t am bm am;
    normalize am

  (* Product of [xs] mod m, one CIOS product per factor after the first:
     the running product stays in the plain domain and each product adds
     an R^-1, so [j] factors leave (x1..xj)*R^-(j-1). One more product by
     R^j mod m cancels that; R^j is the Montgomery form of R^(j-1), a
     square-and-multiply from R mod m (the form of 1) by R^2 mod m (the
     form of R). Factors not below m are reduced first. *)
  let prod ctx (xs : t array) =
    let k = ctx.k in
    let t = scratch ctx in
    let acc = Array.make k 0 and x = Array.make k 0 in
    let load dst (v : t) =
      let v = reduced ctx v in
      Array.blit v 0 dst 0 (Array.length v);
      Array.fill dst (Array.length v) (k - Array.length v) 0
    in
    match Array.length xs with
    | 0 -> one
    | j ->
      load acc xs.(0);
      for i = 1 to j - 1 do
        load x xs.(i);
        mont_mul_into ctx t acc acc x
      done;
      if j > 1 then begin
        let e = j - 1 in
        mont_mul_into ctx t x ctx.r2 ctx.one_k;
        for b = bit_length (of_int e) - 1 downto 0 do
          mont_sqr_into ctx t x x;
          if (e lsr b) land 1 = 1 then mont_mul_into ctx t x x ctx.r2
        done;
        mont_mul_into ctx t acc acc x
      end;
      normalize acc

  let window_bits e_bits =
    if e_bits <= 8 then 1
    else if e_bits <= 24 then 2
    else if e_bits <= 96 then 3
    else if e_bits <= 768 then 4
    else 5

  let pow_mod ctx b e =
    if is_zero e then one
    else begin
      Snf_obs.Metrics.incr m_mont_pow;
      let k = ctx.k in
      let t = Array.make (k + 2) 0 in
      (* Local multiplication count, flushed as one batched metric update
         below — no per-mult shard traffic. *)
      let muls = ref 0 in
      let mul_into dst a b =
        incr muls;
        mont_mul_into ctx t dst a b
      in
      let sqr_into dst a =
        incr muls;
        mont_sqr_into ctx t dst a
      in
      (* The base enters the Montgomery domain by the fold, whatever its
         width; it counts as one product, its last. *)
      let bm = Array.make k 0 in
      enter ctx t bm b;
      incr muls;
      let e_bits = bit_length e in
      let w = window_bits e_bits in
      (* Table of odd powers in Montgomery form: tbl.(i) = b^(2i+1). *)
      let tbl = Array.make (1 lsl (w - 1)) bm in
      if w > 1 then begin
        let b2 = Array.make k 0 in
        sqr_into b2 bm;
        for i = 1 to Array.length tbl - 1 do
          let p = Array.make k 0 in
          mul_into p tbl.(i - 1) b2;
          tbl.(i) <- p
        done
      end;
      let acc = Array.make k 0 in
      let started = ref false in
      let i = ref (e_bits - 1) in
      while !i >= 0 do
        if not (testbit e !i) then begin
          if !started then sqr_into acc acc;
          decr i
        end
        else begin
          (* Greedy window [j, i] ending on a set bit. *)
          let j = ref (max 0 (!i - w + 1)) in
          while not (testbit e !j) do incr j done;
          let v = ref 0 in
          for p = !i downto !j do
            v := (!v lsl 1) lor (if testbit e p then 1 else 0)
          done;
          if !started then begin
            for _ = 1 to !i - !j + 1 do
              sqr_into acc acc
            done;
            mul_into acc acc tbl.(!v lsr 1)
          end
          else begin
            Array.blit tbl.(!v lsr 1) 0 acc 0 k;
            started := true
          end;
          i := !j - 1
        end
      done;
      mul_into acc acc ctx.one_k;
      Snf_obs.Metrics.add m_mont_muls !muls;
      normalize acc
    end
end

(* --- primality ------------------------------------------------------------- *)

let small_primes = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47 ]

let is_probable_prime ?(rounds = 24) rand n =
  if compare n two < 0 then false
  else if List.exists (fun p -> equal n (of_int p)) small_primes then true
  else if List.exists (fun p -> is_zero (rem n (of_int p))) small_primes then false
  else begin
    (* n - 1 = d * 2^s with d odd *)
    let n1 = pred n in
    let rec split d s = if is_even d then split (shift_right d 1) (s + 1) else (d, s) in
    let d, s = split n1 0 in
    (* Past the trial divisions n is odd and above 47, a modulus
       [Mont.make] takes. *)
    let ctx = Mont.make n in
    let witness a =
      let x = ref (Mont.pow_mod ctx a d) in
      if is_one !x || equal !x n1 then false
      else begin
        let composite = ref true in
        (try
           for _ = 1 to s - 1 do
             x := Mont.mul_mod ctx !x !x;
             if equal !x n1 then begin
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
        let a = add two (random_below rand (sub n (of_int 3))) in
        if witness a then false else trial (i - 1)
      end
    in
    trial rounds
  end

let random_prime rand k =
  let rec go () =
    let c = random_bits rand k in
    let c = if is_even c then succ c else c in
    if bit_length c = k && is_probable_prime rand c then c else go ()
  in
  go ()

(* --- exact division ------------------------------------------------------ *)

(* Division by an odd [d] known to divide the dividend: the quotient is
   the dividend times d^-1 mod base^k, so only the low k limbs of each
   are needed, and the product is truncated to them. *)
module Exact = struct
  type divisor = { k : int; inv : int array (* d^-1 mod base^k, k limbs *) }

  let divisor d =
    if is_zero d || is_even d then invalid_arg "Nat.Exact.divisor: divisor must be odd";
    let k = Array.length d in
    match mod_inverse d (shift_left one (k * limb_bits)) with
    | Some inv -> { k; inv = Mont.widen k inv }
    | None -> assert false (* an odd d is a unit mod a power of two *)

  let div dv (a : t) =
    let k = dv.k and inv = dv.inv in
    let r = Array.make k 0 in
    for i = 0 to min k (Array.length a) - 1 do
      let ai = a.(i) in
      let c = ref 0 in
      for j = 0 to k - 1 - i do
        let s = r.(i + j) + (ai * inv.(j)) + !c in
        r.(i + j) <- s land limb_mask;
        c := s lsr limb_bits
      done
    done;
    normalize r
end
