let rounds = 8

let check_bits bits =
  if bits < 2 || bits > 62 || bits mod 2 <> 0 then
    invalid_arg "Feistel: bits must be even and within [2, 62]"

(* Round function: PRF of (round index, half value), truncated to [half]
   bits. It is [Prf.mac_int key ((r lsl 56) lor v)], computed over one
   8-byte scratch block that a whole permutation call reuses. *)
let round_value blk key r half v =
  Bytes.set_int64_le blk 0 (Int64.of_int ((r lsl 56) lor v));
  let t = Prf.mac_bytes key blk ~off:0 ~len:8 in
  Int64.to_int (Int64.shift_right_logical t 8) land ((1 lsl half) - 1)

let encrypt_with blk ~key ~bits x =
  let half = bits / 2 in
  let mask = (1 lsl half) - 1 in
  let l = ref (x lsr half) and r = ref (x land mask) in
  for i = 0 to rounds - 1 do
    let l' = !r in
    let r' = !l lxor round_value blk key i half !r in
    l := l';
    r := r'
  done;
  (!l lsl half) lor !r

let decrypt_with blk ~key ~bits y =
  let half = bits / 2 in
  let mask = (1 lsl half) - 1 in
  let l = ref (y lsr half) and r = ref (y land mask) in
  for i = rounds - 1 downto 0 do
    let r' = !l in
    let l' = !r lxor round_value blk key i half r' in
    l := l';
    r := r'
  done;
  (!l lsl half) lor !r

let encrypt_bits ~key ~bits x =
  check_bits bits;
  if x < 0 || x lsr bits <> 0 then invalid_arg "Feistel.encrypt_bits: out of domain";
  encrypt_with (Bytes.create 8) ~key ~bits x

let decrypt_bits ~key ~bits y =
  check_bits bits;
  if y < 0 || y lsr bits <> 0 then invalid_arg "Feistel.decrypt_bits: out of domain";
  decrypt_with (Bytes.create 8) ~key ~bits y

let enclosing_bits domain =
  let rec go b = if 1 lsl b >= domain then b else go (b + 1) in
  let b = go 2 in
  if b mod 2 = 0 then b else b + 1

(* Cycle walking: re-apply the enclosing permutation until the value
   lands back inside [0, domain). *)
let walk step ~key ~domain x =
  let bits = enclosing_bits domain in
  let blk = Bytes.create 8 in
  let v = ref (step blk ~key ~bits x) in
  while !v >= domain do
    v := step blk ~key ~bits !v
  done;
  !v

let permute ~key ~domain x =
  if domain < 2 then invalid_arg "Feistel.permute: domain must be >= 2";
  if x < 0 || x >= domain then invalid_arg "Feistel.permute: out of domain";
  walk encrypt_with ~key ~domain x

let unpermute ~key ~domain y =
  if domain < 2 then invalid_arg "Feistel.unpermute: domain must be >= 2";
  if y < 0 || y >= domain then invalid_arg "Feistel.unpermute: out of domain";
  walk decrypt_with ~key ~domain y
