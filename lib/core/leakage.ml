type kind = Nothing | Equality | Order | Full

let rank = function Nothing -> 0 | Equality -> 1 | Order -> 2 | Full -> 3

let leq a b = rank a <= rank b

let join a b = if rank a >= rank b then a else b

let join_all = List.fold_left join Nothing

let of_scheme (s : Snf_crypto.Scheme.kind) =
  let p = Snf_crypto.Scheme.profile s in
  if p.reveals_plaintext then Full
  else if p.reveals_order then Order
  else if p.reveals_equality then Equality
  else Nothing

let strongest_scheme_for = function
  | Nothing -> Snf_crypto.Scheme.Ndet
  | Equality -> Snf_crypto.Scheme.Det
  | Order -> Snf_crypto.Scheme.Ope
  | Full -> Snf_crypto.Scheme.Plain

type facet = Association | Relationship | Distribution

let facets = function
  | Nothing -> []
  | Equality -> [ Relationship; Distribution ]
  | Order -> [ Association; Relationship; Distribution ]
  | Full -> [ Association; Relationship; Distribution ]

type provenance = Direct | Inferred of string list

type entry = { kind : kind; provenance : provenance }

let kind_to_string = function
  | Nothing -> "nothing"
  | Equality -> "equality"
  | Order -> "order"
  | Full -> "full"

let equal_kind a b = rank a = rank b

let pp_kind fmt k = Format.pp_print_string fmt (kind_to_string k)

let pp_provenance fmt = function
  | Direct -> Format.pp_print_string fmt "direct"
  | Inferred chain ->
    Format.fprintf fmt "inferred via %s" (String.concat " ~> " chain)

module Assignment = struct
  module M = Map.Make (String)

  type t = entry M.t

  let empty = M.empty
  let singleton a e = M.singleton a e
  let find t a = M.find_opt a t

  let kind_of t a =
    match M.find_opt a t with Some e -> e.kind | None -> Nothing

  let set t a e = M.add a e t

  let update_join t a e =
    match M.find_opt a t with
    | None -> M.add a e t
    | Some old ->
      if leq e.kind old.kind then t
      else M.add a { e with kind = join old.kind e.kind } t

  let merge a b = M.fold (fun attr e acc -> update_join acc attr e) b a

  let bindings t = M.bindings t

  let dominated_by a b =
    M.for_all (fun attr e -> leq e.kind (kind_of b attr)) a

  let equal_kinds a b = dominated_by a b && dominated_by b a

  let pp fmt t =
    Format.fprintf fmt "@[<v>";
    M.iter
      (fun attr e ->
        Format.fprintf fmt "%s: %a (%a)@," attr pp_kind e.kind pp_provenance e.provenance)
      t;
    Format.fprintf fmt "@]"
end
