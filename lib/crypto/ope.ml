type t = { key : Prf.key; domain_bits : int; range_bits : int }

let m_encrypt = Snf_obs.Metrics.counter "crypto.ope.encrypt"
let m_decrypt = Snf_obs.Metrics.counter "crypto.ope.decrypt"

let create ?(range_extra_bits = 15) ~key ~domain_bits () =
  if domain_bits < 1 || domain_bits > 40 then
    invalid_arg "Ope.create: domain_bits must be within [1, 40]";
  let range_bits = domain_bits + range_extra_bits in
  if range_extra_bits < 1 || range_bits > 62 then
    invalid_arg "Ope.create: range too large";
  { key; domain_bits; range_bits }

let domain_bits t = t.domain_bits
let range_bits t = t.range_bits

(* Node labels are ["ope:<dlo>:<dhi>"] (leaves append [":leaf"]); each
   operation assembles them in one reusable buffer. *)
let node_label lbl dlo dhi =
  Prf.Label.reset lbl;
  Prf.Label.add_string lbl "ope:";
  Prf.Label.add_int lbl dlo;
  Prf.Label.add_char lbl ':';
  Prf.Label.add_int lbl dhi

(* Split point for the node covering domain [dlo, dhi) and range [rlo, rhi):
   the left half of the domain has [d1] points and must receive at least
   [d1] range points; symmetrically for the right half. *)
let split_point t lbl ~dlo ~dhi ~rlo ~rhi =
  let d = dhi - dlo in
  let r = rhi - rlo in
  let d1 = d / 2 in
  let slack = r - d in
  node_label lbl dlo dhi;
  let off = Prf.Label.uniform_int t.key lbl (slack + 1) in
  rlo + d1 + off

let leaf_value t lbl ~dlo ~rlo ~rhi =
  node_label lbl dlo (dlo + 1);
  Prf.Label.add_string lbl ":leaf";
  rlo + Prf.Label.uniform_int t.key lbl (rhi - rlo)

let encrypt t x =
  if x < 0 || x lsr t.domain_bits <> 0 then invalid_arg "Ope.encrypt: out of domain";
  Snf_obs.Metrics.incr m_encrypt;
  let lbl = Prf.Label.create 48 in
  let rec go dlo dhi rlo rhi =
    if dhi - dlo = 1 then leaf_value t lbl ~dlo ~rlo ~rhi
    else begin
      let dmid = dlo + ((dhi - dlo) / 2) in
      let rmid = split_point t lbl ~dlo ~dhi ~rlo ~rhi in
      if x < dmid then go dlo dmid rlo rmid else go dmid dhi rmid rhi
    end
  in
  go 0 (1 lsl t.domain_bits) 0 (1 lsl t.range_bits)

let decrypt t y =
  if y < 0 || y lsr t.range_bits <> 0 then invalid_arg "Ope.decrypt: out of range";
  Snf_obs.Metrics.incr m_decrypt;
  let lbl = Prf.Label.create 48 in
  let rec go dlo dhi rlo rhi =
    if dhi - dlo = 1 then dlo
    else begin
      let dmid = dlo + ((dhi - dlo) / 2) in
      let rmid = split_point t lbl ~dlo ~dhi ~rlo ~rhi in
      if y < rmid then go dlo dmid rlo rmid else go dmid dhi rmid rhi
    end
  in
  go 0 (1 lsl t.domain_bits) 0 (1 lsl t.range_bits)

let compare_ciphertexts = Int.compare
