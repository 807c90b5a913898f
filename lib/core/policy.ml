open Snf_relational
module Scheme = Snf_crypto.Scheme

module M = Map.Make (String)

type t = { order : string list; schemes : Scheme.kind M.t }

let create assignments =
  if assignments = [] then invalid_arg "Policy.create: empty annotation";
  let schemes =
    List.fold_left
      (fun acc (a, s) ->
        if M.mem a acc then
          invalid_arg (Printf.sprintf "Policy.create: duplicate attribute %S" a)
        else M.add a s acc)
      M.empty assignments
  in
  { order = List.map fst assignments; schemes }

let of_schema ~default ~overrides schema =
  let names = Schema.names schema in
  List.iter
    (fun (a, _) ->
      if not (List.mem a names) then
        invalid_arg (Printf.sprintf "Policy.of_schema: unknown attribute %S" a))
    overrides;
  create
    (List.map
       (fun a ->
         match List.assoc_opt a overrides with
         | Some s -> (a, s)
         | None -> (a, default))
       names)

let attrs t = t.order
let mem t a = M.mem a t.schemes

let scheme_of t a =
  match M.find_opt a t.schemes with Some s -> s | None -> raise Not_found

let permissible t a = Leakage.of_scheme (scheme_of t a)

let weak_attrs t = List.filter (fun a -> Scheme.is_weak (scheme_of t a)) t.order
let strong_attrs t = List.filter (fun a -> Scheme.is_strong (scheme_of t a)) t.order

let allows t a k = Leakage.leq k (permissible t a)

let strengthen t a s =
  if not (M.mem a t.schemes) then
    invalid_arg (Printf.sprintf "Policy.strengthen: unknown attribute %S" a);
  { t with schemes = M.add a s t.schemes }

let to_spec t =
  String.concat ","
    (List.map (fun a -> a ^ "=" ^ Scheme.to_string (scheme_of t a)) t.order)

let of_spec spec =
  let entries =
    String.split_on_char ',' spec
    |> List.filter (( <> ) "")
    |> List.map (fun pair ->
           match String.index_opt pair '=' with
           | None ->
             invalid_arg (Printf.sprintf "Policy.of_spec: bad entry %S" pair)
           | Some i ->
             let attr = String.sub pair 0 i in
             let name = String.sub pair (i + 1) (String.length pair - i - 1) in
             (match Scheme.of_string name with
              | Some s -> (attr, s)
              | None ->
                invalid_arg (Printf.sprintf "Policy.of_spec: unknown scheme %S" name)))
  in
  create entries

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun a -> Format.fprintf fmt "%s: %a@," a Scheme.pp (scheme_of t a))
    t.order;
  Format.fprintf fmt "@]"
