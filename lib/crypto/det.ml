type key = { iv_key : Prf.key; stream_key : Prf.key }

let expand master = { iv_key = Prf.derive master "det-iv"; stream_key = Prf.derive master "det-stream" }

let key_gen prng = expand (Prf.random_key prng)
let key_of_string s = expand (Prf.key_of_string s)

(* Both directions fill one [Bytes.t]: the synthetic IV is written in
   place and the body is XOR-ed straight into its slot. *)
let encrypt k m =
  let n = String.length m in
  let c = Bytes.create (8 + n) in
  let iv = Prf.mac k.iv_key m in
  Bytes.set_int64_le c 0 iv;
  Prf.keystream_xor k.stream_key ~nonce:iv m ~src_off:0 c ~dst_off:8 ~len:n;
  Bytes.unsafe_to_string c

let decrypt k c =
  if String.length c < 8 then invalid_arg "Det.decrypt: ciphertext too short";
  let n = String.length c - 8 in
  let iv = String.get_int64_le c 0 in
  let m = Bytes.create n in
  Prf.keystream_xor k.stream_key ~nonce:iv c ~src_off:8 m ~dst_off:0 ~len:n;
  let m = Bytes.unsafe_to_string m in
  if not (Int64.equal (Prf.mac k.iv_key m) iv) then
    invalid_arg "Det.decrypt: authentication failure";
  m

let equal_ciphertexts = String.equal

let ciphertext_length n = 8 + n
