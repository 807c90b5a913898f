open Snf_relational

let ordinal_bits = 32

let offset = 1 lsl 31

let float_ordinal f =
  let bits = Int64.bits_of_float f in
  let flipped =
    if Int64.compare bits 0L >= 0 then Int64.logor bits Int64.min_int
    else Int64.lognot bits
  in
  (* Top 32 bits preserve order (coarsened). *)
  Int64.to_int (Int64.shift_right_logical flipped 32)

let text_ordinal s =
  let byte i = if i < String.length s then Char.code s.[i] else 0 in
  (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3

let to_ordinal = function
  | Value.Null -> invalid_arg "Codec.to_ordinal: Null has no ordinal"
  | Value.Bool b -> if b then 1 else 0
  | Value.Int i ->
    if i < -offset || i >= offset then
      invalid_arg "Codec.to_ordinal: Int out of 32-bit range";
    i + offset
  | Value.Float f -> float_ordinal f
  | Value.Text s -> text_ordinal s

let of_ordinal_int o =
  if o < 0 || o lsr ordinal_bits <> 0 then invalid_arg "Codec.of_ordinal_int: out of range";
  Value.Int (o - offset)
