type corruption = {
  where : string;
  leaf : string option;
  attr : string option;
  detail : string;
}

exception Corruption of corruption

let fail ?leaf ?attr ~where detail = raise (Corruption { where; leaf; attr; detail })

let to_string c =
  let coord =
    match (c.leaf, c.attr) with
    | Some l, Some a -> Printf.sprintf " at %s.%s" l a
    | Some l, None -> Printf.sprintf " at %s" l
    | None, Some a -> Printf.sprintf " at column %s" a
    | None, None -> ""
  in
  Printf.sprintf "corruption detected in %s%s: %s" c.where coord c.detail

let () =
  Printexc.register_printer (function
    | Corruption c -> Some (to_string c)
    | _ -> None)
