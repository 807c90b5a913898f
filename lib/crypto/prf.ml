type key = string

(* --- SipHash-2-4 ------------------------------------------------------- *)

(* The whole compression runs in one function body over four local refs
   that no closure captures, so the native compiler keeps the state words
   unboxed; message words are read with [Bytes.get_int64_le]. The only
   allocation is the boxed [int64] result.

   The loop makes [nblocks + 2] steps: one per full 8-byte block, one for
   the final block (the trailing bytes plus the length in the top byte),
   and the finalization ([v2 ^= 0xff] and four rounds). *)
let sip key msg off len =
  if String.length key <> 16 then invalid_arg "Prf.mac: key must be 16 bytes";
  if off < 0 || len < 0 || off > Bytes.length msg - len then
    invalid_arg "Prf.mac: range out of bounds";
  let k0 = String.get_int64_le key 0 and k1 = String.get_int64_le key 8 in
  let v0 = ref (Int64.logxor k0 0x736f6d6570736575L) in
  let v1 = ref (Int64.logxor k1 0x646f72616e646f6dL) in
  let v2 = ref (Int64.logxor k0 0x6c7967656e657261L) in
  let v3 = ref (Int64.logxor k1 0x7465646279746573L) in
  let nblocks = len / 8 in
  let last = ref (Int64.shift_left (Int64.of_int (len land 0xff)) 56) in
  for i = 0 to (len land 7) - 1 do
    last :=
      Int64.logor !last
        (Int64.shift_left
           (Int64.of_int (Char.code (Bytes.unsafe_get msg (off + (nblocks * 8) + i))))
           (8 * i))
  done;
  for step = 0 to nblocks + 1 do
    let final = step > nblocks in
    let m =
      if step < nblocks then Bytes.get_int64_le msg (off + (step * 8))
      else if final then 0L
      else !last
    in
    if final then v2 := Int64.logxor !v2 0xffL else v3 := Int64.logxor !v3 m;
    for _ = 1 to (if final then 4 else 2) do
      v0 := Int64.add !v0 !v1;
      v1 := Int64.logor (Int64.shift_left !v1 13) (Int64.shift_right_logical !v1 51);
      v1 := Int64.logxor !v1 !v0;
      v0 := Int64.logor (Int64.shift_left !v0 32) (Int64.shift_right_logical !v0 32);
      v2 := Int64.add !v2 !v3;
      v3 := Int64.logor (Int64.shift_left !v3 16) (Int64.shift_right_logical !v3 48);
      v3 := Int64.logxor !v3 !v2;
      v0 := Int64.add !v0 !v3;
      v3 := Int64.logor (Int64.shift_left !v3 21) (Int64.shift_right_logical !v3 43);
      v3 := Int64.logxor !v3 !v0;
      v2 := Int64.add !v2 !v1;
      v1 := Int64.logor (Int64.shift_left !v1 17) (Int64.shift_right_logical !v1 47);
      v1 := Int64.logxor !v1 !v2;
      v2 := Int64.logor (Int64.shift_left !v2 32) (Int64.shift_right_logical !v2 32)
    done;
    if not final then v0 := Int64.logxor !v0 m
  done;
  Int64.logxor (Int64.logxor !v0 !v1) (Int64.logxor !v2 !v3)

let mac key msg = sip key (Bytes.unsafe_of_string msg) 0 (String.length msg)

let mac_sub key msg ~off ~len = sip key (Bytes.unsafe_of_string msg) off len

let mac_bytes key msg ~off ~len = sip key msg off len

(* --- Derived helpers ---------------------------------------------------- *)

let le64_string x =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 x;
  Bytes.unsafe_to_string b

let tag key msg = le64_string (mac key msg)

let mac_int key n =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int n);
  sip key b 0 8

let bootstrap_key = "snf-bootstrap-k0"

let key_of_string s = tag bootstrap_key s ^ tag bootstrap_key ("\x01" ^ s)

let random_key prng = Prng.bytes prng 16

(* Counter mode: block [i] is the tag of [nonce || le64 i]. [blk] holds
   the [nl]-byte nonce followed by the counter word, the only part that
   changes per block; keystream bytes are XOR-ed into [dst] as made. *)
let xor_stream key blk nl src src_off dst dst_off len =
  let pos = ref 0 and i = ref 0 in
  while !pos < len do
    Bytes.set_int64_le blk nl (Int64.of_int !i);
    let h = sip key blk 0 (nl + 8) in
    let s = src_off + !pos and d = dst_off + !pos in
    if len - !pos >= 8 then
      Bytes.set_int64_le dst d (Int64.logxor h (String.get_int64_le src s))
    else
      for j = 0 to len - !pos - 1 do
        Bytes.unsafe_set dst (d + j)
          (Char.unsafe_chr
             (Char.code (String.unsafe_get src (s + j))
              lxor (Int64.to_int (Int64.shift_right_logical h (8 * j)) land 0xff)))
      done;
    pos := !pos + 8;
    incr i
  done

let keystream key ~nonce n =
  let nl = String.length nonce in
  let blk = Bytes.create (nl + 8) in
  Bytes.blit_string nonce 0 blk 0 nl;
  let out = Bytes.create n in
  xor_stream key blk nl (String.make n '\000') 0 out 0 n;
  Bytes.unsafe_to_string out

let keystream_xor key ~nonce src ~src_off dst ~dst_off ~len =
  if src_off < 0 || len < 0 || src_off > String.length src - len
     || dst_off < 0 || dst_off > Bytes.length dst - len
  then invalid_arg "Prf.keystream_xor: range out of bounds";
  let blk = Bytes.create 16 in
  Bytes.set_int64_le blk 0 nonce;
  xor_stream key blk 8 src src_off dst dst_off len

let derive key label = tag key ("derive\x00" ^ label) ^ tag key ("derive\x01" ^ label)

(* Rejection sampling over [mac key (label || le64 ctr)]; [blk] holds the
   label in its first [len] bytes and has 8 bytes of counter room after. *)
let uniform_in key blk len bound =
  if bound <= 0 then invalid_arg "Prf.uniform_int: bound must be positive";
  if bound = 1 then 0
  else begin
    let rec go ctr =
      Bytes.set_int64_le blk len (Int64.of_int ctr);
      let v = Int64.to_int (Int64.shift_right_logical (sip key blk 0 (len + 8)) 2) in
      let r = v mod bound in
      if v - r + (bound - 1) >= 0 then r else go (ctr + 1)
    in
    go 0
  end

let uniform_int key label bound =
  let len = String.length label in
  let blk = Bytes.create (len + 8) in
  Bytes.blit_string label 0 blk 0 len;
  uniform_in key blk len bound

module Label = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create capacity = { buf = Bytes.create (max 16 capacity + 8); len = 0 }
  let reset t = t.len <- 0

  (* Keeps 8 spare bytes past the label for [uniform_int]'s counter. *)
  let reserve t n =
    if t.len + n + 8 > Bytes.length t.buf then begin
      let buf = Bytes.create (2 * (t.len + n + 8)) in
      Bytes.blit t.buf 0 buf 0 t.len;
      t.buf <- buf
    end

  let add_char t c =
    reserve t 1;
    Bytes.unsafe_set t.buf t.len c;
    t.len <- t.len + 1

  let add_string t s =
    let n = String.length s in
    reserve t n;
    Bytes.blit_string s 0 t.buf t.len n;
    t.len <- t.len + n

  (* Decimal digits exactly as [string_of_int] prints them. *)
  let add_int t n =
    if n < 0 then add_char t '-';
    let digits = ref 1 and q = ref (n / 10) in
    while !q <> 0 do
      incr digits;
      q := !q / 10
    done;
    reserve t !digits;
    let q = ref n in
    for i = t.len + !digits - 1 downto t.len do
      Bytes.unsafe_set t.buf i (Char.unsafe_chr (Char.code '0' + abs (!q mod 10)));
      q := !q / 10
    done;
    t.len <- t.len + !digits

  let uniform_int key t bound = uniform_in key t.buf t.len bound
end
