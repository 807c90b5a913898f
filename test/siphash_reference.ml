(* The SipHash-2-4 implementation [Prf.mac] replaced, kept verbatim as a
   test oracle: four [ref] state words captured by a [sipround] closure
   and a byte-at-a-time little-endian reader. Slow and allocating, but
   obviously the reference algorithm. *)

let rotl x b = Int64.(logor (shift_left x b) (shift_right_logical x (64 - b)))

let le64 s off =
  let b i = Int64.of_int (Char.code s.[off + i]) in
  let ( <| ) x n = Int64.shift_left x n in
  Int64.(
    logor (b 0)
      (logor (b 1 <| 8)
         (logor (b 2 <| 16)
            (logor (b 3 <| 24)
               (logor (b 4 <| 32) (logor (b 5 <| 40) (logor (b 6 <| 48) (b 7 <| 56))))))))

let mac key msg =
  if String.length key <> 16 then invalid_arg "Prf.mac: key must be 16 bytes";
  let k0 = le64 key 0 and k1 = le64 key 8 in
  let v0 = ref Int64.(logxor k0 0x736f6d6570736575L) in
  let v1 = ref Int64.(logxor k1 0x646f72616e646f6dL) in
  let v2 = ref Int64.(logxor k0 0x6c7967656e657261L) in
  let v3 = ref Int64.(logxor k1 0x7465646279746573L) in
  let sipround () =
    v0 := Int64.add !v0 !v1;
    v1 := rotl !v1 13;
    v1 := Int64.logxor !v1 !v0;
    v0 := rotl !v0 32;
    v2 := Int64.add !v2 !v3;
    v3 := rotl !v3 16;
    v3 := Int64.logxor !v3 !v2;
    v0 := Int64.add !v0 !v3;
    v3 := rotl !v3 21;
    v3 := Int64.logxor !v3 !v0;
    v2 := Int64.add !v2 !v1;
    v1 := rotl !v1 17;
    v1 := Int64.logxor !v1 !v2;
    v2 := rotl !v2 32
  in
  let len = String.length msg in
  let full_blocks = len / 8 in
  for i = 0 to full_blocks - 1 do
    let m = le64 msg (i * 8) in
    v3 := Int64.logxor !v3 m;
    sipround ();
    sipround ();
    v0 := Int64.logxor !v0 m
  done;
  (* Final block: remaining bytes plus the length in the top byte. *)
  let last = ref (Int64.shift_left (Int64.of_int (len land 0xff)) 56) in
  for i = 0 to (len mod 8) - 1 do
    last :=
      Int64.logor !last
        (Int64.shift_left (Int64.of_int (Char.code msg.[(full_blocks * 8) + i])) (8 * i))
  done;
  v3 := Int64.logxor !v3 !last;
  sipround ();
  sipround ();
  v0 := Int64.logxor !v0 !last;
  v2 := Int64.logxor !v2 0xffL;
  sipround ();
  sipround ();
  sipround ();
  sipround ();
  Int64.(logxor (logxor !v0 !v1) (logxor !v2 !v3))

let le64_string x =
  String.init 8 (fun i ->
      Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical x (8 * i)) 0xffL)))

(* Counter-mode keystream as it was built before: one tag per block,
   concatenated through a [Buffer]. *)
let keystream key ~nonce n =
  let buf = Buffer.create n in
  let i = ref 0 in
  while Buffer.length buf < n do
    Buffer.add_string buf (le64_string (mac key (nonce ^ le64_string (Int64.of_int !i))));
    incr i
  done;
  Buffer.sub buf 0 n
