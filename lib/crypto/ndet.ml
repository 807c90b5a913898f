type key = { stream_key : Prf.key; tag_key : Prf.key }

let expand master =
  { stream_key = Prf.derive master "ndet-stream"; tag_key = Prf.derive master "ndet-tag" }

let key_gen prng = expand (Prf.random_key prng)
let key_of_string s = expand (Prf.key_of_string s)

let fallback_rng = Prng.create 0x5eed_0f_0ff1ce

(* One [Bytes.t] holds [iv || body || tag]; the tag covers the first
   [8 + len m] bytes of it, hashed in place. *)
let encrypt ?rng k m =
  let rng = Option.value rng ~default:fallback_rng in
  let n = String.length m in
  let c = Bytes.create (16 + n) in
  Bytes.blit_string (Prng.bytes rng 8) 0 c 0 8;
  Prf.keystream_xor k.stream_key ~nonce:(Bytes.get_int64_le c 0) m ~src_off:0 c ~dst_off:8
    ~len:n;
  Bytes.set_int64_le c (8 + n) (Prf.mac_bytes k.tag_key c ~off:0 ~len:(8 + n));
  Bytes.unsafe_to_string c

let decrypt k c =
  if String.length c < 16 then invalid_arg "Ndet.decrypt: ciphertext too short";
  let n = String.length c - 16 in
  if not
       (Int64.equal (Prf.mac_sub k.tag_key c ~off:0 ~len:(8 + n))
          (String.get_int64_le c (8 + n)))
  then invalid_arg "Ndet.decrypt: authentication failure";
  let m = Bytes.create n in
  Prf.keystream_xor k.stream_key ~nonce:(String.get_int64_le c 0) c ~src_off:8 m ~dst_off:0
    ~len:n;
  Bytes.unsafe_to_string m

let ciphertext_length n = 16 + n
