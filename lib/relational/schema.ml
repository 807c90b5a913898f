type t = { attrs : Attribute.t array; index : (string, int) Hashtbl.t }

let build attrs =
  let index = Hashtbl.create (Array.length attrs * 2) in
  Array.iteri
    (fun i (a : Attribute.t) ->
      if Hashtbl.mem index a.name then
        invalid_arg (Printf.sprintf "Schema: duplicate attribute %S" a.name);
      Hashtbl.add index a.name i)
    attrs;
  { attrs; index }

let of_attributes attrs = build (Array.of_list attrs)

let attributes t = Array.to_list t.attrs
let names t = Array.to_list (Array.map Attribute.name t.attrs)
let arity t = Array.length t.attrs

let mem t name = Hashtbl.mem t.index name

let find t name =
  match Hashtbl.find_opt t.index name with
  | Some i -> Some t.attrs.(i)
  | None -> None

let find_exn t name =
  match find t name with Some a -> a | None -> raise Not_found

let index_of t name =
  match Hashtbl.find_opt t.index name with Some i -> i | None -> raise Not_found

let project t wanted = build (Array.of_list (List.map (find_exn t) wanted))

let append t attr = build (Array.append t.attrs [| attr |])

let equal a b =
  arity a = arity b && Array.for_all2 Attribute.equal a.attrs b.attrs

let equal_modulo_order a b =
  let sort s = List.sort Attribute.compare (attributes s) in
  arity a = arity b && List.equal Attribute.equal (sort a) (sort b)

let subset a b =
  List.for_all
    (fun (attr : Attribute.t) ->
      match find b attr.name with Some a' -> Attribute.equal attr a' | None -> false)
    (attributes a)

let pp fmt t =
  Format.fprintf fmt "(%a)"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") Attribute.pp)
    (attributes t)
