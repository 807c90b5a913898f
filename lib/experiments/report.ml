(* Plain-text table rendering for experiment reports. *)

let hr width = String.make width '-'

let render_table ~title ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init cols width in
  let render_row row =
    String.concat "  "
      (List.mapi
         (fun c cell -> Printf.sprintf "%-*s" (List.nth widths c) cell)
         row)
  in
  let total = List.fold_left ( + ) (2 * (cols - 1)) widths in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%s\n%s\n" title (hr total));
  Buffer.add_string buf (render_row header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (hr total);
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.add_string buf (hr total);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let mb bytes = Printf.sprintf "%.1f MB" (float_of_int bytes /. 1_048_576.0)

let seconds s =
  if s >= 1.0 then Printf.sprintf "%.2f s"
      s
  else if s >= 1e-3 then Printf.sprintf "%.2f ms" (s *. 1e3)
  else Printf.sprintf "%.0f µs" (s *. 1e6)
