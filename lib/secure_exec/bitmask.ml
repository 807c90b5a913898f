type t = { length : int; bits : Bytes.t }

(* [(n + 7) / 8] without overflowing at [max_int]. *)
let nbytes n = (n lsr 3) + (((n land 7) + 7) lsr 3)

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

let[@inline] bit bits i =
  Char.code (Bytes.unsafe_get bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let[@inline] set_bit bits i =
  let b = i lsr 3 in
  Bytes.unsafe_set bits b
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bits b) lor (1 lsl (i land 7))))

let[@inline] clear_bit bits i =
  let b = i lsr 3 in
  Bytes.unsafe_set bits b
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bits b) land lnot (1 lsl (i land 7))))

(* [@inline] takes effect inside this module only: dune's default (dev)
   profile compiles with -opaque, so a call from another module is a real
   call for every slot. Loops over slots therefore live here, in the
   kernels below, not in their callers. *)
let get m i =
  check m i;
  bit m.bits i

let set m i =
  check m i;
  set_bit m.bits i

let clear m i =
  check m i;
  clear_bit m.bits i

let popcount m =
  let count = ref 0 in
  for k = 0 to Bytes.length m.bits - 1 do
    let b = ref (Char.code (Bytes.unsafe_get m.bits k)) in
    while !b <> 0 do
      b := !b land (!b - 1);
      incr count
    done
  done;
  !count

(* Per byte value, its set bits. *)
let byte_popcount =
  String.init 256 (fun b ->
      let rec go b n = if b = 0 then n else go (b land (b - 1)) (n + 1) in
      Char.chr (go b 0))

(* Per byte value, its lowest set bit (8 for 0). *)
let byte_low_bit =
  String.init 256 (fun b ->
      let rec go i = if i = 8 || b land (1 lsl i) <> 0 then i else go (i + 1) in
      Char.chr (go 0))

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"

(* The first set slot in byte [b] or later, or [m.length]: eight zero
   bytes are passed over with one load. Padding bits are clear, so a
   set bit always names a slot below [m.length]. *)
let next_from_byte m b =
  let bits = m.bits in
  let nb = Bytes.length bits in
  let b = ref b in
  while !b + 8 <= nb && get64 bits !b = 0L do
    b := !b + 8
  done;
  while !b < nb && Bytes.unsafe_get bits !b = '\000' do
    incr b
  done;
  if !b >= nb then m.length
  else (!b lsl 3) + Char.code (String.unsafe_get byte_low_bit (Char.code (Bytes.unsafe_get bits !b)))

(* The first set slot at or after [i] (i >= 0), or [m.length]. *)
let[@inline] next_set m i =
  if i >= m.length then m.length
  else
    let rest = Char.code (Bytes.unsafe_get m.bits (i lsr 3)) lsr (i land 7) in
    if rest <> 0 then i + Char.code (String.unsafe_get byte_low_bit rest)
    else next_from_byte m ((i lsr 3) + 1)

let iter_set f m =
  let i = ref (next_set m 0) in
  while !i < m.length do
    let s = !i in
    f s;
    i := next_set m (s + 1)
  done

let to_slots m =
  let out = Array.make (popcount m) 0 in
  let i = ref (next_set m 0) and k = ref 0 in
  while !i < m.length do
    Array.unsafe_set out !k !i;
    incr k;
    i := next_set m (!i + 1)
  done;
  out

let scatter m ~into pos =
  if Array.length pos <> m.length then invalid_arg "Bitmask.scatter: one position per slot";
  let i = ref (next_set m 0) in
  while !i < m.length do
    let g = Array.unsafe_get pos !i in
    check into g;
    set_bit into.bits g;
    i := next_set m (!i + 1)
  done

let filter m keep =
  let i = ref (next_set m 0) in
  while !i < m.length do
    let s = !i in
    if not (keep s) then clear_bit m.bits s;
    i := next_set m (s + 1)
  done

let select m slots ~holds =
  let out = create m.length false in
  for k = 0 to Array.length slots - 1 do
    let s = slots.(k) in
    check m s;
    if bit m.bits s && holds s then set_bit out.bits s
  done;
  out

let packed m = Bytes.to_string m.bits

let of_bools a =
  let m = create (Array.length a) false in
  Array.iteri (fun i v -> if v then set m i) a;
  m

let to_bools m = Array.init m.length (get m)

let to_hex m = Snf_obs.Leakage.mask_to_hex (Bytes.to_string m.bits)

let write buf m = Buffer.add_bytes buf m.bits

let write_slots buf ~length slots =
  let bits = Bytes.make (nbytes length) '\000' in
  for k = 0 to Array.length slots - 1 do
    let s = Array.unsafe_get slots k in
    if s < 0 || s >= length then out_of_range ();
    set_bit bits s
  done;
  Buffer.add_bytes buf bits

(* None when a padding bit past [length] is set. *)
let padded_clear ~length s ~pos =
  let n = nbytes length in
  if pos < 0 || n > String.length s - pos then invalid_arg "Bitmask.read: truncated";
  n = 0 || Char.code s.[pos + n - 1] land lnot (last_byte_mask length) = 0

let read_slots ~length s ~pos =
  if not (padded_clear ~length s ~pos) then None
  else begin
    let last = pos + nbytes length - 1 in
    let count = ref 0 in
    for k = pos to last do
      count := !count + Char.code (String.unsafe_get byte_popcount (Char.code (String.unsafe_get s k)))
    done;
    let out = Array.make !count 0 and j = ref 0 in
    for k = pos to last do
      let b = ref (Char.code (String.unsafe_get s k)) in
      while !b <> 0 do
        Array.unsafe_set out !j (((k - pos) lsl 3) + Char.code (String.unsafe_get byte_low_bit !b));
        incr j;
        b := !b land (!b - 1)
      done
    done;
    Some out
  end

let read ~length s ~pos =
  if not (padded_clear ~length s ~pos) then None
  else Some { length; bits = Bytes.of_string (String.sub s pos (nbytes length)) }
