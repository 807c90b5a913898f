let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s || s = ""

let quote s =
  if needs_quoting s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let render_cell = function
  | Value.Null -> ""
  | Value.Bool b -> string_of_bool b
  | Value.Int i -> string_of_int i
  | Value.Float f -> Printf.sprintf "%.17g" f (* shortest lossless decimal *)
  | Value.Text s -> quote s (* empty text quotes to "", distinct from Null *)

let to_string r =
  let buf = Buffer.create 1024 in
  let header =
    Relation.schema r |> Schema.attributes
    |> List.map (fun (a : Attribute.t) ->
           quote (a.name ^ ":" ^ Value.ty_to_string a.ty))
    |> String.concat ","
  in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Relation.iter_rows r (fun _ row ->
      Buffer.add_string buf
        (String.concat "," (List.map render_cell (Array.to_list row)));
      Buffer.add_char buf '\n');
  Buffer.contents buf

(* A small streaming CSV tokenizer handling RFC 4180 quoting. *)
let parse_records text =
  let records = ref [] in
  let fields = ref [] in
  let buf = Buffer.create 32 in
  let quoted_field = ref false in
  let n = String.length text in
  let finish_field () =
    fields := (Buffer.contents buf, !quoted_field) :: !fields;
    Buffer.clear buf;
    quoted_field := false
  in
  let finish_record () =
    finish_field ();
    records := List.rev !fields :: !records;
    fields := []
  in
  let rec plain i =
    if i >= n then (if !fields <> [] || Buffer.length buf > 0 then finish_record ())
    else
      match text.[i] with
      | ',' ->
        finish_field ();
        plain (i + 1)
      | '\n' ->
        finish_record ();
        plain (i + 1)
      | '\r' -> plain (i + 1)
      | '"' when Buffer.length buf = 0 ->
        quoted_field := true;
        quoted (i + 1)
      | c ->
        Buffer.add_char buf c;
        plain (i + 1)
  and quoted i =
    if i >= n then invalid_arg "Csv: unterminated quoted field"
    else
      match text.[i] with
      | '"' when i + 1 < n && text.[i + 1] = '"' ->
        Buffer.add_char buf '"';
        quoted (i + 2)
      | '"' -> plain (i + 1)
      | c ->
        Buffer.add_char buf c;
        quoted (i + 1)
  in
  plain 0;
  List.rev !records

let parse_header fields =
  List.map
    (fun (cell, _) ->
      match String.rindex_opt cell ':' with
      | None -> invalid_arg (Printf.sprintf "Csv: header cell %S lacks :type" cell)
      | Some i ->
        let name = String.sub cell 0 i in
        let ty =
          match String.sub cell (i + 1) (String.length cell - i - 1) with
          | "bool" -> Value.TBool
          | "int" -> Value.TInt
          | "float" -> Value.TFloat
          | "text" -> Value.TText
          | other -> invalid_arg (Printf.sprintf "Csv: unknown type %S" other)
        in
        Attribute.make name ty)
    fields

let parse_cell (ty : Value.ty) (cell, was_quoted) =
  if cell = "" && not was_quoted then Value.Null
  else
    match ty with
    | Value.TText -> Value.Text cell
    | Value.TBool -> (
      match bool_of_string_opt cell with
      | Some b -> Value.Bool b
      | None -> invalid_arg (Printf.sprintf "Csv: bad bool %S" cell))
    | Value.TInt -> (
      match int_of_string_opt cell with
      | Some i -> Value.Int i
      | None -> invalid_arg (Printf.sprintf "Csv: bad int %S" cell))
    | Value.TFloat -> (
      match float_of_string_opt cell with
      | Some f -> Value.Float f
      | None -> invalid_arg (Printf.sprintf "Csv: bad float %S" cell))

let of_string text =
  match parse_records text with
  | [] -> invalid_arg "Csv: empty input"
  | header :: body ->
    let attrs = parse_header header in
    let schema = Schema.of_attributes attrs in
    let tys = List.map Attribute.ty attrs in
    let rows =
      List.map
        (fun record ->
          if List.length record <> List.length tys then
            invalid_arg "Csv: ragged row";
          Array.of_list (List.map2 parse_cell tys record))
        body
    in
    Relation.create schema rows

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))
