type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let of_int64 state = { state }

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = next_int64 t }

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 34)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  if bound = 1 then 0
  else begin
    (* Draw 62 uniform bits and reject to avoid modulo bias. *)
    let rec go () =
      let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
      let r = v mod bound in
      if v - r + (bound - 1) >= 0 then r else go ()
    in
    go ()
  end

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next_int64 t) 1L = 1L

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Prng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k > n || k < 0 then invalid_arg "Prng.sample_without_replacement";
  (* Reservoir-free selection sampling (Knuth algorithm S). *)
  let rec go i remaining acc =
    if remaining = 0 then List.rev acc
    else if int t (n - i) < remaining then go (i + 1) (remaining - 1) (i :: acc)
    else go (i + 1) remaining acc
  in
  go 0 k []

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (int t 256))
  done;
  Bytes.unsafe_to_string b

let zipf_sampler t ~s n =
  if n <= 0 then invalid_arg "Prng.zipf_sampler";
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (r + 1)) s);
    cdf.(r) <- !acc
  done;
  let total = !acc in
  fun () ->
    let u = float t total in
    (* Smallest index with cdf.(i) > u. *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo
