type kind = Plain | Ndet | Det | Ope | Ore | Phe

let all = [ Plain; Ndet; Det; Ope; Ore; Phe ]

type profile = {
  reveals_plaintext : bool;
  reveals_equality : bool;
  reveals_order : bool;
  supports_sum : bool;
}

let profile = function
  | Plain ->
    { reveals_plaintext = true; reveals_equality = true; reveals_order = true;
      supports_sum = true }
  | Ndet ->
    { reveals_plaintext = false; reveals_equality = false; reveals_order = false;
      supports_sum = false }
  | Det ->
    { reveals_plaintext = false; reveals_equality = true; reveals_order = false;
      supports_sum = false }
  | Ope | Ore ->
    { reveals_plaintext = false; reveals_equality = true; reveals_order = true;
      supports_sum = false }
  | Phe ->
    { reveals_plaintext = false; reveals_equality = false; reveals_order = false;
      supports_sum = true }

let is_weak k =
  let p = profile k in
  p.reveals_plaintext || p.reveals_equality || p.reveals_order

let is_strong k = not (is_weak k)

(* Leakage rank: how much of the plaintext structure the server sees. *)
let rank k =
  let p = profile k in
  if p.reveals_plaintext then 3 else if p.reveals_order then 2
  else if p.reveals_equality then 1 else 0

let strictly_weaker a b = rank a > rank b

let weakenings k = List.filter (fun k' -> strictly_weaker k' k) all

let supports_equality_predicate k = (profile k).reveals_equality

let supports_range_predicate k = (profile k).reveals_order

let to_string = function
  | Plain -> "PLAIN"
  | Ndet -> "NDET"
  | Det -> "DET"
  | Ope -> "OPE"
  | Ore -> "ORE"
  | Phe -> "PHE"

let of_string s =
  match String.uppercase_ascii s with
  | "PLAIN" -> Some Plain
  | "NDET" | "AES" | "RND" -> Some Ndet
  | "DET" -> Some Det
  | "OPE" -> Some Ope
  | "ORE" -> Some Ore
  | "PHE" | "HOM" | "PAILLIER" -> Some Phe
  | _ -> None

let pp fmt k = Format.pp_print_string fmt (to_string k)
