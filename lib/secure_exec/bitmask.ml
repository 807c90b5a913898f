type t = { length : int; bits : Bytes.t }

let nbytes n = (n + 7) / 8

(* Bits of the last byte that carry slots; 0xff when it is full. *)
let last_byte_mask n = if n land 7 = 0 then 0xff else (1 lsl (n land 7)) - 1

let create n v =
  if n < 0 then invalid_arg "Bitmask.create: negative length";
  let bits = Bytes.make (nbytes n) (if v then '\xff' else '\000') in
  if v && n land 7 <> 0 then
    Bytes.set bits (nbytes n - 1) (Char.chr (last_byte_mask n));
  { length = n; bits }

let length m = m.length

let out_of_range () = invalid_arg "Bitmask: slot out of range"
let[@inline] check m i = if i < 0 || i >= m.length then out_of_range ()

(* Inlined: the lockstep join reads one bit per leaf per rank. *)
let[@inline] get m i =
  check m i;
  Char.code (Bytes.unsafe_get m.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set m i =
  check m i;
  let b = i lsr 3 in
  Bytes.unsafe_set m.bits b
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get m.bits b) lor (1 lsl (i land 7))))

let clear m i =
  check m i;
  let b = i lsr 3 in
  Bytes.unsafe_set m.bits b
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get m.bits b) land lnot (1 lsl (i land 7))))

let popcount m =
  let count = ref 0 in
  Bytes.iter
    (fun c ->
      let b = ref (Char.code c) in
      while !b <> 0 do
        b := !b land (!b - 1);
        incr count
      done)
    m.bits;
  !count

let of_bools a =
  let m = create (Array.length a) false in
  Array.iteri (fun i v -> if v then set m i) a;
  m

let to_bools m = Array.init m.length (get m)

let to_hex m = Snf_obs.Leakage.mask_to_hex (Bytes.to_string m.bits)

let write buf m = Buffer.add_bytes buf m.bits

let read ~length s ~pos =
  let n = nbytes length in
  if pos < 0 || n > String.length s - pos then invalid_arg "Bitmask.read: truncated";
  if n > 0 && Char.code s.[pos + n - 1] land lnot (last_byte_mask length) <> 0 then None
  else Some { length; bits = Bytes.of_string (String.sub s pos n) }
