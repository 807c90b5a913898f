type t = { key : Prf.key; bits : int }

type ciphertext = int array

let m_encrypt = Snf_obs.Metrics.counter "crypto.ore.encrypt"
let m_compare = Snf_obs.Metrics.counter "crypto.ore.compare"

let create ~key ~bits =
  if bits < 1 || bits > 62 then invalid_arg "Ore.create: bits must be within [1, 62]";
  { key; bits }

let encrypt t x =
  if x < 0 || x lsr t.bits <> 0 then invalid_arg "Ore.encrypt: out of domain";
  Snf_obs.Metrics.incr m_encrypt;
  (* Labels are ["ore:<i>:<prefix>"], assembled in one reusable buffer. *)
  let lbl = Prf.Label.create 32 in
  Array.init t.bits (fun i ->
      (* Position i counts from the most significant bit. *)
      let shift = t.bits - 1 - i in
      let prefix = if shift + 1 >= 63 then 0 else x lsr (shift + 1) in
      let bit = (x lsr shift) land 1 in
      Prf.Label.reset lbl;
      Prf.Label.add_string lbl "ore:";
      Prf.Label.add_int lbl i;
      Prf.Label.add_char lbl ':';
      Prf.Label.add_int lbl prefix;
      let mask = Prf.Label.uniform_int t.key lbl 3 in
      (mask + bit) mod 3)

let compare_ciphertexts a b =
  if Array.length a <> Array.length b then
    invalid_arg "Ore.compare_ciphertexts: length mismatch";
  Snf_obs.Metrics.incr m_compare;
  let rec go i =
    if i = Array.length a then 0
    else if a.(i) = b.(i) then go (i + 1)
    else if (a.(i) - b.(i) + 3) mod 3 = 1 then 1
    else -1
  in
  go 0

let first_diff_index a b =
  if Array.length a <> Array.length b then
    invalid_arg "Ore.first_diff_index: length mismatch";
  let rec go i =
    if i = Array.length a then None else if a.(i) <> b.(i) then Some i else go (i + 1)
  in
  go 0

let symbols (c : ciphertext) = Array.copy c

let of_symbols a =
  if Array.exists (fun s -> s < 0 || s > 2) a then
    invalid_arg "Ore.of_symbols: symbol out of range";
  Array.copy a
