open Snf_relational
module Scheme = Snf_crypto.Scheme
module Ore = Snf_crypto.Ore
module Nat = Snf_bignum.Nat

let magic = "SNFE"
let version = 1

(* --- primitive writers ---------------------------------------------------- *)

let w_u8 buf n = Buffer.add_char buf (Char.chr (n land 0xff))

let w_int buf n =
  (* 63-bit non-negative, 8 bytes LE: the top two bits are always clear *)
  if n < 0 then invalid_arg "Wire: negative integer";
  Buffer.add_int64_le buf (Int64.of_int n)

let w_string buf s =
  w_int buf (String.length s);
  Buffer.add_string buf s

(* --- primitive readers ----------------------------------------------------- *)

type cursor = { data : string; mutable pos : int }

let fail msg = invalid_arg ("Wire: " ^ msg)

let r_u8 c =
  if c.pos >= String.length c.data then fail "truncated";
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

(* Canonical: bit 62 would make a negative native int and bit 63 does not
   fit one at all, so an 8-byte word with either set is no integer [w_int]
   writes — reject it rather than drop a bit and alias another encoding. *)
let r_int c =
  if c.pos + 8 > String.length c.data then fail "truncated";
  let v = String.get_int64_le c.data c.pos in
  if Int64.shift_right_logical v 62 <> 0L then fail "integer out of range";
  c.pos <- c.pos + 8;
  Int64.to_int v

let r_string c =
  let n = r_int c in
  if c.pos + n > String.length c.data then fail "truncated string";
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

(* Element count for a list/array about to be read. Every serialized
   element occupies at least one byte, so a count larger than the bytes
   left is malformed — reject it before allocating, keeping garbled
   lengths a typed error instead of a giant allocation. *)
let r_count c =
  let n = r_int c in
  if n > String.length c.data - c.pos then fail "count exceeds input";
  n

let w_option w buf = function
  | None -> w_u8 buf 0
  | Some x ->
    w_u8 buf 1;
    w buf x

let r_option r c =
  match r_u8 c with
  | 0 -> None
  | 1 -> Some (r c)
  | n -> fail (Printf.sprintf "bad option tag %d" n)

let w_list w buf xs =
  w_int buf (List.length xs);
  List.iter (w buf) xs

let r_list r c =
  let n = r_count c in
  List.init n (fun _ -> r c)

let w_array w buf xs =
  w_int buf (Array.length xs);
  Array.iter (w buf) xs

let r_array r c =
  let n = r_count c in
  Array.init n (fun _ -> r c)

(* A filter mask: its slot count, then the packed bytes [Bitmask] holds.
   Padding bits must be clear, so every mask has exactly one encoding. *)
let w_mask buf m =
  w_int buf (Bitmask.length m);
  Bitmask.write buf m

let r_mask c =
  let n = r_int c in
  if (n + 7) / 8 > String.length c.data - c.pos then fail "truncated mask";
  match Bitmask.read ~length:n c.data ~pos:c.pos with
  | None -> fail "nonzero mask padding"
  | Some m ->
    c.pos <- c.pos + ((n + 7) / 8);
    m

(* --- scheme and cell codecs -------------------------------------------------- *)

let scheme_tag = function
  | Scheme.Plain -> 0
  | Scheme.Ndet -> 1
  | Scheme.Det -> 2
  | Scheme.Ope -> 3
  | Scheme.Ore -> 4
  | Scheme.Phe -> 5

let scheme_of_tag = function
  | 0 -> Scheme.Plain
  | 1 -> Scheme.Ndet
  | 2 -> Scheme.Det
  | 3 -> Scheme.Ope
  | 4 -> Scheme.Ore
  | 5 -> Scheme.Phe
  | n -> fail (Printf.sprintf "unknown scheme tag %d" n)

let w_cell buf (cell : Enc_relation.cell) =
  match cell with
  | Enc_relation.C_plain v ->
    w_u8 buf 0;
    w_string buf (Value.encode v)
  | Enc_relation.C_bytes b ->
    w_u8 buf 1;
    w_string buf b
  | Enc_relation.C_ord { ord; payload } ->
    w_u8 buf 2;
    w_int buf ord;
    w_string buf payload
  | Enc_relation.C_ore { ore; payload } ->
    w_u8 buf 3;
    let syms = Ore.symbols ore in
    w_int buf (Array.length syms);
    Array.iter (fun s -> w_u8 buf s) syms;
    w_string buf payload
  | Enc_relation.C_nat n ->
    w_u8 buf 4;
    w_string buf (Nat.to_bytes_be n)

let r_cell c : Enc_relation.cell =
  match r_u8 c with
  | 0 -> Enc_relation.C_plain (Value.decode (r_string c))
  | 1 -> Enc_relation.C_bytes (r_string c)
  | 2 ->
    let ord = r_int c in
    Enc_relation.C_ord { ord; payload = r_string c }
  | 3 ->
    let n = r_count c in
    let syms = Array.init n (fun _ -> r_u8 c) in
    Enc_relation.C_ore { ore = Ore.of_symbols syms; payload = r_string c }
  | 4 -> Enc_relation.C_nat (Nat.of_bytes_be (r_string c))
  | n -> fail (Printf.sprintf "unknown cell tag %d" n)

(* --- leaf codec ----------------------------------------------------------------- *)

(* The whole leaf, its arrays as they stand, or with [Some rows] only
   those slots: slot [j] of the written leaf is the leaf's slot
   [rows.(j)]. *)
let w_leaf buf rows (l : Enc_relation.enc_leaf) =
  let each w a =
    match rows with
    | None -> Array.iter w a
    | Some rows -> Array.iter (fun g -> w a.(g)) rows
  in
  w_string buf l.Enc_relation.label;
  w_int buf (match rows with None -> l.Enc_relation.row_count | Some rows -> Array.length rows);
  each (w_string buf) l.Enc_relation.tids;
  w_int buf (List.length l.Enc_relation.columns);
  List.iter
    (fun (col : Enc_relation.enc_column) ->
      w_string buf col.Enc_relation.attr;
      w_u8 buf (scheme_tag col.Enc_relation.scheme);
      each (w_cell buf) col.Enc_relation.cells)
    l.Enc_relation.columns

let r_leaf c : Enc_relation.enc_leaf =
  let label = r_string c in
  let row_count = r_int c in
  if row_count > String.length c.data - c.pos then fail "row count exceeds input";
  let tids = Array.init row_count (fun _ -> r_string c) in
  let col_count = r_count c in
  let columns =
    List.init col_count (fun _ ->
        let attr = r_string c in
        let scheme = scheme_of_tag (r_u8 c) in
        Enc_relation.make_column ~attr ~scheme (Array.init row_count (fun _ -> r_cell c)))
  in
  { Enc_relation.label; row_count; tids; columns }

let leaf_to_string l =
  let buf = Buffer.create 1024 in
  w_leaf buf None l;
  Buffer.contents buf

let leaf_of_string data =
  let c = { data; pos = 0 } in
  let l = r_leaf c in
  if c.pos <> String.length data then fail "trailing bytes";
  l

(* --- top level ----------------------------------------------------------------- *)

let image (t : Enc_relation.t) rows =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  w_u8 buf version;
  w_string buf t.Enc_relation.relation_name;
  w_string buf (Nat.to_bytes_be t.Enc_relation.paillier_public.Snf_crypto.Paillier.n);
  w_int buf (List.length t.Enc_relation.leaves);
  List.iter2 (w_leaf buf) rows t.Enc_relation.leaves;
  Buffer.contents buf

let to_string (t : Enc_relation.t) = image t (List.map (fun _ -> None) t.Enc_relation.leaves)
let sub_image t rows = image t (List.map Option.some rows)

let of_string data =
  let c = { data; pos = 0 } in
  if String.length data < 5 || String.sub data 0 4 <> magic then fail "bad magic";
  c.pos <- 4;
  let v = r_u8 c in
  if v <> version then fail (Printf.sprintf "unsupported version %d" v);
  let relation_name = r_string c in
  let n = Nat.of_bytes_be (r_string c) in
  let paillier_public = Snf_crypto.Paillier.public_of_n n in
  let leaf_count = r_count c in
  let leaves = List.init leaf_count (fun _ -> r_leaf c) in
  if c.pos <> String.length data then fail "trailing bytes";
  { Enc_relation.relation_name; leaves; paillier_public }

let save path t =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string t))

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

(* --- message codec --------------------------------------------------------------- *)

(* The request/response grammar of the client/server boundary
   ([Server_api]). Same primitive discipline as the store image, separate
   magic so a message can never be confused with a database image. *)

let msg_magic = "SNFM"
let msg_version = 5

type filter_op =
  | F_slots of int array
  | F_eq of string * Enc_relation.eq_token
  | F_range of string * Enc_relation.range_token

type request =
  | Describe
  | Install of string
  | Index_probe of { leaf : string; attr : string; key : string option }
  | Fetch_rows of { leaf : string; attrs : string list; slots : int array }
  | Fetch_tids of { leaf : string }
  | Oram_fetch of {
      leaf : string;
      seed : int;
      block_size : int;
      blocks : string array;
      slots : int array;
    }
  | Phe_sum of { leaf : string; attr : string }
  | Group_sum of { leaf : string; group_by : string; sum : string }
  | Q_batch of { queries : (string * filter_op list) list list }
  | Q_store_stats

(* Per-column value-class histogram of one leaf, as the server sees it:
   each class is (digest of the canonical ciphertext, class size), sorted
   by digest so the merged form is byte-deterministic. Only columns with
   a canonical (deterministic) ciphertext appear — exactly the columns
   whose equality structure the store image already reveals. *)
type attr_stats = { a_attr : string; a_classes : (string * int) list }
type leaf_stats = { s_label : string; s_rows : int; s_attrs : attr_stats list }

type rows_column =
  | Cells of Enc_relation.cell array
  | Coded of { dict : Enc_relation.cell array; codes : int array }

type response =
  | R_unit
  | R_described of { relation_name : string; leaves : (string * int * string) list }
  | R_slots of int array option
  | R_rows of rows_column array
  | R_tids of string array
  | R_oram of { blocks : string array; touches : int }
  | R_nat of Nat.t
  | R_groups of (Enc_relation.cell * Nat.t) list
  | R_error of { not_found : bool; msg : string }
  | R_corrupt of Integrity.corruption
  | R_batch of { results : (Bitmask.t * int) list list }
  | R_busy
  | R_store_stats of { leaves : leaf_stats list }

let w_eq_token buf (tok : Enc_relation.eq_token) =
  match tok with
  | Enc_relation.Eq_plain v ->
    w_u8 buf 0;
    w_string buf (Value.encode v)
  | Enc_relation.Eq_det b ->
    w_u8 buf 1;
    w_string buf b
  | Enc_relation.Eq_ord o ->
    w_u8 buf 2;
    w_int buf o
  | Enc_relation.Eq_ore o ->
    w_u8 buf 3;
    let syms = Ore.symbols o in
    w_int buf (Array.length syms);
    Array.iter (fun s -> w_u8 buf s) syms

let r_eq_token c : Enc_relation.eq_token =
  match r_u8 c with
  | 0 -> Enc_relation.Eq_plain (Value.decode (r_string c))
  | 1 -> Enc_relation.Eq_det (r_string c)
  | 2 -> Enc_relation.Eq_ord (r_int c)
  | 3 ->
    let n = r_count c in
    Enc_relation.Eq_ore (Ore.of_symbols (Array.init n (fun _ -> r_u8 c)))
  | n -> fail (Printf.sprintf "unknown eq-token tag %d" n)

let w_range_token buf (tok : Enc_relation.range_token) =
  match tok with
  | Enc_relation.Rng_plain (lo, hi) ->
    w_u8 buf 0;
    w_string buf (Value.encode lo);
    w_string buf (Value.encode hi)
  | Enc_relation.Rng_ord (lo, hi) ->
    w_u8 buf 1;
    w_int buf lo;
    w_int buf hi
  | Enc_relation.Rng_ore (lo, hi) ->
    w_u8 buf 2;
    List.iter
      (fun o ->
        let syms = Ore.symbols o in
        w_int buf (Array.length syms);
        Array.iter (fun s -> w_u8 buf s) syms)
      [ lo; hi ]

let r_range_token c : Enc_relation.range_token =
  match r_u8 c with
  | 0 ->
    let lo = Value.decode (r_string c) in
    Enc_relation.Rng_plain (lo, Value.decode (r_string c))
  | 1 ->
    let lo = r_int c in
    Enc_relation.Rng_ord (lo, r_int c)
  | 2 ->
    let symbols () =
      let n = r_count c in
      Ore.of_symbols (Array.init n (fun _ -> r_u8 c))
    in
    let lo = symbols () in
    Enc_relation.Rng_ore (lo, symbols ())
  | n -> fail (Printf.sprintf "unknown range-token tag %d" n)

let w_filter_op buf = function
  | F_slots slots ->
    w_u8 buf 0;
    w_array w_int buf slots
  | F_eq (attr, tok) ->
    w_u8 buf 1;
    w_string buf attr;
    w_eq_token buf tok
  | F_range (attr, tok) ->
    w_u8 buf 2;
    w_string buf attr;
    w_range_token buf tok

let filter_op_to_string op =
  let buf = Buffer.create 64 in
  w_filter_op buf op;
  Buffer.contents buf

let request_tag = function
  | Describe -> 0
  | Install _ -> 2
  | Index_probe _ -> 3
  | Fetch_rows _ -> 5
  | Fetch_tids _ -> 6
  | Oram_fetch _ -> 7
  | Phe_sum _ -> 9
  | Group_sum _ -> 10
  | Q_batch _ -> 11
  | Q_store_stats -> 12

let response_tag = function
  | R_unit -> 0
  | R_described _ -> 1
  | R_slots _ -> 2
  | R_rows _ -> 4
  | R_tids _ -> 5
  | R_oram _ -> 6
  | R_nat _ -> 7
  | R_groups _ -> 8
  | R_error _ -> 9
  | R_corrupt _ -> 10
  | R_batch _ -> 11
  | R_busy -> 12
  | R_store_stats _ -> 13

let r_filter_op c =
  match r_u8 c with
  | 0 -> F_slots (r_array r_int c)
  | 1 ->
    let attr = r_string c in
    F_eq (attr, r_eq_token c)
  | 2 ->
    let attr = r_string c in
    F_range (attr, r_range_token c)
  | n -> fail (Printf.sprintf "unknown filter-op tag %d" n)

let w_request buf = function
  | Describe -> w_u8 buf 0
  | Install image ->
    w_u8 buf 2;
    w_string buf image
  | Index_probe { leaf; attr; key } ->
    w_u8 buf 3;
    w_string buf leaf;
    w_string buf attr;
    w_option w_string buf key
  | Fetch_rows { leaf; attrs; slots } ->
    w_u8 buf 5;
    w_string buf leaf;
    w_list w_string buf attrs;
    w_array w_int buf slots
  | Fetch_tids { leaf } ->
    w_u8 buf 6;
    w_string buf leaf
  | Oram_fetch { leaf; seed; block_size; blocks; slots } ->
    w_u8 buf 7;
    w_string buf leaf;
    w_int buf seed;
    w_int buf block_size;
    w_array w_string buf blocks;
    w_array w_int buf slots
  | Phe_sum { leaf; attr } ->
    w_u8 buf 9;
    w_string buf leaf;
    w_string buf attr
  | Group_sum { leaf; group_by; sum } ->
    w_u8 buf 10;
    w_string buf leaf;
    w_string buf group_by;
    w_string buf sum
  | Q_batch { queries } ->
    w_u8 buf 11;
    w_list
      (w_list (fun buf (leaf, ops) ->
           w_string buf leaf;
           w_list w_filter_op buf ops))
      buf queries
  | Q_store_stats -> w_u8 buf 12

let r_request c =
  match r_u8 c with
  | 0 -> Describe
  | 2 -> Install (r_string c)
  | 3 ->
    let leaf = r_string c in
    let attr = r_string c in
    Index_probe { leaf; attr; key = r_option r_string c }
  | 5 ->
    let leaf = r_string c in
    let attrs = r_list r_string c in
    Fetch_rows { leaf; attrs; slots = r_array r_int c }
  | 6 -> Fetch_tids { leaf = r_string c }
  | 7 ->
    let leaf = r_string c in
    let seed = r_int c in
    let block_size = r_int c in
    let blocks = r_array r_string c in
    Oram_fetch { leaf; seed; block_size; blocks; slots = r_array r_int c }
  | 9 ->
    let leaf = r_string c in
    Phe_sum { leaf; attr = r_string c }
  | 10 ->
    let leaf = r_string c in
    let group_by = r_string c in
    Group_sum { leaf; group_by; sum = r_string c }
  | 11 ->
    Q_batch
      { queries =
          r_list
            (r_list (fun c ->
                 let leaf = r_string c in
                 (leaf, r_list r_filter_op c)))
            c }
  | 12 -> Q_store_stats
  | n -> fail (Printf.sprintf "unknown request tag %d" n)

let w_attr_stats buf (a : attr_stats) =
  w_string buf a.a_attr;
  w_list
    (fun buf (digest, n) ->
      w_string buf digest;
      w_int buf n)
    buf a.a_classes

let r_attr_stats c =
  let a_attr = r_string c in
  { a_attr;
    a_classes =
      r_list
        (fun c ->
          let digest = r_string c in
          (digest, r_int c))
        c }

let w_leaf_stats buf (l : leaf_stats) =
  w_string buf l.s_label;
  w_int buf l.s_rows;
  w_list w_attr_stats buf l.s_attrs

let r_leaf_stats c =
  let s_label = r_string c in
  let s_rows = r_int c in
  { s_label; s_rows; s_attrs = r_list r_attr_stats c }

let w_corruption buf (c : Integrity.corruption) =
  w_string buf c.Integrity.where;
  w_option w_string buf c.Integrity.leaf;
  w_option w_string buf c.Integrity.attr;
  w_string buf c.Integrity.detail

let r_corruption c : Integrity.corruption =
  let where = r_string c in
  let leaf = r_option r_string c in
  let attr = r_option r_string c in
  { Integrity.where; leaf; attr; detail = r_string c }

let w_nat buf n = w_string buf (Nat.to_bytes_be n)
let r_nat c = Nat.of_bytes_be (r_string c)

(* A tid digest travels as its 16 raw bytes, no length prefix. *)
let digest_length = 16

let w_digest buf d =
  if String.length d <> digest_length then invalid_arg "Wire: tid digest is not 16 bytes";
  Buffer.add_string buf d

let r_digest c =
  if c.pos + digest_length > String.length c.data then fail "truncated digest";
  let d = String.sub c.data c.pos digest_length in
  c.pos <- c.pos + digest_length;
  d

(* --- fetched columns ----------------------------------------------------------

   A fetched column crosses under a one-byte coding tag: 0, its cells
   one per row; 1, its row count, its distinct cells in first-occurrence
   order, then one code per row, each 1, 2 or 4 bytes LE as the
   dictionary size needs. The reader refuses a tag-1 column that breaks
   the rules [code_rows] writes by: more than [small_rows] rows, codes
   below the dictionary size, numbered in first-occurrence order, every
   entry referenced, and never the identity. *)

let small_rows = 32

let code_width size = if size <= 0x100 then 1 else if size <= 0x10000 then 2 else 4

let column_length = function Cells cells -> Array.length cells | Coded { codes; _ } -> Array.length codes

let column_cells = function
  | Cells cells -> cells
  | Coded { dict; codes } -> Array.map (fun j -> dict.(j)) codes

let code_rows ~classes n ~class_of ~cell_of =
  (* Local codes by class, in [keys]/[vals]: indexed by class when the
     classes are few, open-addressed and sized to the fetch otherwise,
     so a fetch allocates in proportion to its rows, not its column. *)
  let cap = ref 4 in
  while !cap < 2 * n do cap := 2 * !cap done;
  let dense = classes <= 2 * !cap in
  let m = if dense then classes else !cap in
  let keys = Array.make m (-1) and vals = Array.make m 0 in
  let rec slot c h = if keys.(h) = c || keys.(h) < 0 then h else slot c ((h + 1) land (m - 1)) in
  let codes = Array.make n 0 and firsts = Array.make n 0 in
  let size = ref 0 in
  for i = 0 to n - 1 do
    let c = class_of i in
    let h = if dense then c else slot c (c land (m - 1)) in
    if keys.(h) = c then codes.(i) <- vals.(h)
    else begin
      keys.(h) <- c;
      vals.(h) <- !size;
      codes.(i) <- !size;
      firsts.(!size) <- i;
      incr size
    end
  done;
  let dict = Array.init !size (fun j -> cell_of firsts.(j) (class_of firsts.(j))) in
  if !size = n then Cells dict else Coded { dict; codes }

let w_rows_column buf = function
  | Cells cells ->
    w_u8 buf 0;
    w_array w_cell buf cells
  | Coded { dict; codes } ->
    w_u8 buf 1;
    w_int buf (Array.length codes);
    w_array w_cell buf dict;
    let add =
      match code_width (Array.length dict) with
      | 1 -> fun j -> Buffer.add_uint8 buf (j land 0xff)
      | 2 -> fun j -> Buffer.add_uint16_le buf (j land 0xffff)
      | _ -> fun j -> Buffer.add_int32_le buf (Int32.of_int j)
    in
    Array.iter add codes

let r_rows_column c =
  match r_u8 c with
  | 0 -> Cells (r_array r_cell c)
  | 1 ->
    let n = r_count c in
    if n <= small_rows then fail (Printf.sprintf "a coded column of %d rows" n);
    let dict = r_array r_cell c in
    let size = Array.length dict in
    let width = code_width size in
    if n * width > String.length c.data - c.pos then fail "truncated codes";
    let get =
      match width with
      | 1 -> String.get_uint8 c.data
      | 2 -> String.get_uint16_le c.data
      | _ -> fun p -> Int32.to_int (String.get_int32_le c.data p) land 0xffff_ffff
    in
    let next = ref 0 in
    let codes =
      Array.init n (fun i ->
          let j = get (c.pos + (i * width)) in
          if j >= size then fail (Printf.sprintf "code %d outside a dictionary of %d" j size);
          if j > !next then fail "codes not numbered in first-occurrence order";
          if j = !next then incr next;
          j)
    in
    c.pos <- c.pos + (n * width);
    if !next < size then fail "unreferenced dictionary entry";
    if size = n then fail "identity codes under the dictionary tag";
    Coded { dict; codes }
  | n -> fail (Printf.sprintf "unknown column coding %d" n)

let w_response buf = function
  | R_unit -> w_u8 buf 0
  | R_described { relation_name; leaves } ->
    w_u8 buf 1;
    w_string buf relation_name;
    w_list
      (fun buf (label, rows, digest) ->
        w_string buf label;
        w_int buf rows;
        w_digest buf digest)
      buf leaves
  | R_slots slots ->
    w_u8 buf 2;
    w_option (w_array w_int) buf slots
  | R_rows cols ->
    w_u8 buf 4;
    w_array w_rows_column buf cols
  | R_tids tids ->
    w_u8 buf 5;
    w_array w_string buf tids
  | R_oram { blocks; touches } ->
    w_u8 buf 6;
    w_array w_string buf blocks;
    w_int buf touches
  | R_nat n ->
    w_u8 buf 7;
    w_nat buf n
  | R_groups groups ->
    w_u8 buf 8;
    w_list
      (fun buf (cell, n) ->
        w_cell buf cell;
        w_nat buf n)
      buf groups
  | R_error { not_found; msg } ->
    w_u8 buf 9;
    w_u8 buf (if not_found then 1 else 0);
    w_string buf msg
  | R_corrupt c ->
    w_u8 buf 10;
    w_corruption buf c
  | R_batch { results } ->
    w_u8 buf 11;
    w_list
      (w_list (fun buf (mask, scanned) ->
           w_mask buf mask;
           w_int buf scanned))
      buf results
  | R_busy -> w_u8 buf 12
  | R_store_stats { leaves } ->
    w_u8 buf 13;
    w_list w_leaf_stats buf leaves

let r_response c =
  match r_u8 c with
  | 0 -> R_unit
  | 1 ->
    let relation_name = r_string c in
    let leaves =
      r_list
        (fun c ->
          let label = r_string c in
          let rows = r_int c in
          (label, rows, r_digest c))
        c
    in
    R_described { relation_name; leaves }
  | 2 -> R_slots (r_option (r_array r_int) c)
  | 4 -> R_rows (r_array r_rows_column c)
  | 5 -> R_tids (r_array r_string c)
  | 6 ->
    let blocks = r_array r_string c in
    R_oram { blocks; touches = r_int c }
  | 7 -> R_nat (r_nat c)
  | 8 ->
    R_groups
      (r_list
         (fun c ->
           let cell = r_cell c in
           (cell, r_nat c))
         c)
  | 9 ->
    let not_found = r_u8 c = 1 in
    R_error { not_found; msg = r_string c }
  | 10 -> R_corrupt (r_corruption c)
  | 11 ->
    R_batch
      { results =
          r_list
            (r_list (fun c ->
                 let mask = r_mask c in
                 (mask, r_int c)))
            c }
  | 12 -> R_busy
  | 13 -> R_store_stats { leaves = r_list r_leaf_stats c }
  | n -> fail (Printf.sprintf "unknown response tag %d" n)

let msg_to_string ?(size = 256) w x =
  let buf = Buffer.create size in
  Buffer.add_string buf msg_magic;
  w_u8 buf msg_version;
  w buf x;
  Buffer.contents buf

let msg_of_string r data =
  let c = { data; pos = 0 } in
  if String.length data < 5 || String.sub data 0 4 <> msg_magic then fail "bad message magic";
  c.pos <- 4;
  let v = r_u8 c in
  if v <> msg_version then fail (Printf.sprintf "unsupported message version %d" v);
  let x = r c in
  if c.pos <> String.length data then fail "trailing bytes";
  x

let request_to_string r = msg_to_string w_request r
let request_of_string s = msg_of_string r_request s
(* Initial buffer capacity for a response: the column-sized answers
   ([R_tids], [R_rows]) are sized from their payload instead of growing
   the buffer by doubling from 256 B. Cells whose length is not at hand
   are guessed; a short guess only costs a regrowth. *)
let cell_size_hint (cell : Enc_relation.cell) =
  match cell with
  | Enc_relation.C_bytes b -> 9 + String.length b
  | Enc_relation.C_ord { payload; _ } -> 17 + String.length payload
  | Enc_relation.C_ore { payload; _ } -> 64 + String.length payload
  | Enc_relation.C_plain _ | Enc_relation.C_nat _ -> 32

let response_size_hint = function
  | R_tids tids -> Array.fold_left (fun acc t -> acc + 8 + String.length t) 32 tids
  | R_rows cols ->
    let cells acc = Array.fold_left (fun acc cell -> acc + cell_size_hint cell) (acc + 9) in
    Array.fold_left
      (fun acc -> function
        | Cells cs -> cells acc cs
        | Coded { dict; codes } ->
          cells (acc + 8) dict + (Array.length codes * code_width (Array.length dict)))
      32 cols
  | _ -> 256

let response_to_string r = msg_to_string ~size:(response_size_hint r) w_response r
let response_of_string s = msg_of_string r_response s
let tids_digest tids = Digest.string (response_to_string (R_tids tids))

(* --- manifest primitives ---------------------------------------------------------- *)

module Prim = struct
  type nonrec cursor = cursor

  let w_u8 = w_u8
  let w_int = w_int
  let w_string = w_string
  let w_nat = w_nat
  let cursor data = { data; pos = 0 }
  let r_u8 = r_u8
  let r_int = r_int
  let r_string = r_string
  let r_nat = r_nat
  let r_count = r_count

  let expect_end c =
    if c.pos <> String.length c.data then fail "trailing bytes"
end
