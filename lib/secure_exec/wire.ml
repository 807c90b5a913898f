open Snf_relational
module Scheme = Snf_crypto.Scheme
module Ore = Snf_crypto.Ore
module Nat = Snf_bignum.Nat

let magic = "SNFE"
let version = 2

(* --- primitive writers ---------------------------------------------------- *)

let w_u8 buf n = Buffer.add_char buf (Char.chr (n land 0xff))

(* A non-negative integer as an unsigned LEB128 varint: seven bits a
   byte, low bits first, the top bit set on every byte but the last.
   [max_int] (62 bits) takes nine bytes. *)
let w_int buf n =
  if n < 0 then invalid_arg "Wire: negative integer";
  if n < 0x80 then Buffer.add_char buf (Char.unsafe_chr n)
  else begin
    let n = ref n in
    while !n >= 0x80 do
      Buffer.add_char buf (Char.unsafe_chr (!n land 0x7f lor 0x80));
      n := !n lsr 7
    done;
    Buffer.add_char buf (Char.unsafe_chr !n)
  end

(* The fixed 8-byte little-endian word SNFM version 5 wrote for every
   integer: the layout token fingerprints are taken over. *)
let w_word buf n =
  if n < 0 then invalid_arg "Wire: negative integer";
  Buffer.add_int64_le buf (Int64.of_int n)

(* A length under the integer writer [wi], then the bytes. *)
let w_bytes wi buf s =
  wi buf (String.length s);
  Buffer.add_string buf s

let w_string buf s = w_bytes w_int buf s

(* --- primitive readers ----------------------------------------------------- *)

type cursor = { data : string; mutable pos : int }

let fail msg = invalid_arg ("Wire: " ^ msg)

let r_u8 c =
  if c.pos >= String.length c.data then fail "truncated";
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

(* Past the first byte. Canonical: a last byte of zero after the first
   is an overlong encoding, and the ninth byte carries bits 56-61 only,
   so one at 0x40 or above is past 62 bits (a negative or no native
   int): either is rejected rather than read as another encoding. *)
let r_int_long c =
  let data = c.data in
  let len = String.length data in
  let pos = ref c.pos and shift = ref 0 and acc = ref 0 and more = ref true in
  while !more do
    if !pos >= len then fail "truncated";
    let b = Char.code (String.unsafe_get data !pos) in
    incr pos;
    if !shift = 56 && b >= 0x40 then fail "integer out of range";
    if b < 0x80 then begin
      if b = 0 then fail "overlong integer";
      acc := !acc lor (b lsl !shift);
      more := false
    end
    else begin
      acc := !acc lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7
    end
  done;
  c.pos <- !pos;
  !acc

let r_int c =
  let pos = c.pos in
  if pos >= String.length c.data then fail "truncated";
  let b = Char.code (String.unsafe_get c.data pos) in
  if b < 0x80 then begin
    c.pos <- pos + 1;
    b
  end
  else r_int_long c

let r_string c =
  let n = r_int c in
  if n > String.length c.data - c.pos then fail "truncated string";
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
  if Bitmask.nbytes n > String.length c.data - c.pos then fail "truncated mask";
  match Bitmask.read ~length:n c.data ~pos:c.pos with
  | None -> fail "nonzero mask padding"
  | Some m ->
    c.pos <- c.pos + Bitmask.nbytes n;
    m

(* --- slot arrays --------------------------------------------------------------

   A slot array crosses under a one-byte form its content selects:

   - 2, a mask: a strictly ascending array whose span (last slot + 1,
     0 when empty) is at most 8 bits per slot. The span, then the
     [Bitmask] bytes of that many slots; the top bit is set, padding
     bits are clear.
   - 1, gaps: any other strictly ascending array. The count, the first
     slot, then each slot less its predecessor less one.
   - 0, plain: an array that is not strictly ascending (index answers
     cross descending). The count, then each slot.

   The reader refuses an array in any form but the one its content
   selects, so every slot array has exactly one encoding. *)

let strictly_ascending (slots : int array) =
  let k = Array.length slots in
  let i = ref 1 in
  while !i < k && Array.unsafe_get slots (!i - 1) < Array.unsafe_get slots !i do
    incr i
  done;
  !i >= k

(* A strictly ascending array of [k] slots ending at [last] is a mask
   when its span, [last + 1], is at most [8k]. *)
let mask_selected ~k ~last = last < 8 * k

let not_selected () = fail "slots in a form their content does not select"

let w_slots buf slots =
  let k = Array.length slots in
  if not (strictly_ascending slots) then begin
    w_u8 buf 0;
    w_int buf k;
    for i = 0 to k - 1 do
      w_int buf (Array.unsafe_get slots i)
    done
  end
  else if k = 0 then begin
    w_u8 buf 2;
    w_int buf 0
  end
  else begin
    if slots.(0) < 0 then invalid_arg "Wire: negative integer";
    let last = slots.(k - 1) in
    if mask_selected ~k ~last then begin
      w_u8 buf 2;
      w_int buf (last + 1);
      Bitmask.write_slots buf ~length:(last + 1) slots
    end
    else begin
      w_u8 buf 1;
      w_int buf k;
      w_int buf slots.(0);
      for i = 1 to k - 1 do
        w_int buf (Array.unsafe_get slots i - Array.unsafe_get slots (i - 1) - 1)
      done
    end
  end

let r_slots c =
  match r_u8 c with
  | 0 ->
    let k = r_count c in
    let slots = Array.make k 0 in
    for i = 0 to k - 1 do
      Array.unsafe_set slots i (r_int c)
    done;
    if strictly_ascending slots then not_selected ();
    slots
  | 1 ->
    let k = r_count c in
    if k = 0 then not_selected ();
    let slots = Array.make k 0 in
    slots.(0) <- r_int c;
    for i = 1 to k - 1 do
      let prev = Array.unsafe_get slots (i - 1) in
      let gap = r_int c in
      if gap >= max_int - prev then fail "slot out of range";
      Array.unsafe_set slots i (prev + gap + 1)
    done;
    if mask_selected ~k ~last:slots.(k - 1) then not_selected ();
    slots
  | 2 -> (
    let span = r_int c in
    let n = Bitmask.nbytes span in
    if n > String.length c.data - c.pos then fail "truncated mask";
    if span > 0 && Char.code c.data.[c.pos + n - 1] land (1 lsl ((span - 1) land 7)) = 0 then
      fail "mask top bit clear";
    match Bitmask.read_slots ~length:span c.data ~pos:c.pos with
    | None -> fail "nonzero mask padding"
    | Some slots ->
      c.pos <- c.pos + n;
      if span > 8 * Array.length slots then not_selected ();
      slots)
  | n -> fail (Printf.sprintf "unknown slot form %d" n)

(* --- scheme and cell codecs -------------------------------------------------- *)

(* A natural as its minimal big-endian bytes: a leading zero byte would
   be a second encoding. *)
let w_nat buf n = w_string buf (Nat.to_bytes_be n)

let r_nat c =
  let s = r_string c in
  if String.length s > 0 && s.[0] = '\000' then fail "natural with a leading zero byte";
  Nat.of_bytes_be s

(* A plain value in [Value.encode]'s bytes. [Value.decode] also reads a
   Bool byte other than 0 or 1, and an Int whose bit 63 differs from its
   bit 62 (dropping it); both would be second encodings. *)
let r_value c =
  let s = r_string c in
  let v = Value.decode s in
  let canonical =
    match s.[0] with
    | 'b' -> s.[1] = '\000' || s.[1] = '\001'
    | 'i' -> Char.code s.[8] lsr 7 = (Char.code s.[8] lsr 6) land 1
    | _ -> true
  in
  if not canonical then fail "non-canonical value";
  v

(* An ORE ciphertext: its symbol count under [wi], one byte a symbol. *)
let w_symbols wi buf o =
  let syms = Ore.symbols o in
  wi buf (Array.length syms);
  Array.iter (fun s -> w_u8 buf s) syms

let r_symbols c =
  let n = r_count c in
  Ore.of_symbols (Array.init n (fun _ -> r_u8 c))

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
    w_symbols w_int buf ore;
    w_string buf payload
  | Enc_relation.C_nat n ->
    w_u8 buf 4;
    w_nat buf n

let r_cell c : Enc_relation.cell =
  match r_u8 c with
  | 0 -> Enc_relation.C_plain (r_value c)
  | 1 -> Enc_relation.C_bytes (r_string c)
  | 2 ->
    let ord = r_int c in
    Enc_relation.C_ord { ord; payload = r_string c }
  | 3 ->
    let ore = r_symbols c in
    Enc_relation.C_ore { ore; payload = r_string c }
  | 4 -> Enc_relation.C_nat (r_nat c)
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
  w_nat buf t.Enc_relation.paillier_public.Snf_crypto.Paillier.n;
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
  let n = r_nat c in
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
   magic so a message can never be confused with a database image.
   Version 7 retired the ORAM round: request tag 7 and response tag 6
   are unassigned, and a message carrying either is refused like any
   unknown tag. *)

let msg_magic = "SNFM"
let msg_version = 7

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
  | R_nat of Nat.t
  | R_groups of (Enc_relation.cell * Nat.t) list
  | R_error of { not_found : bool; msg : string }
  | R_corrupt of Integrity.corruption
  | R_batch of { results : (Bitmask.t * int) list list }
  | R_busy
  | R_store_stats of { leaves : leaf_stats list }

(* Token writers take the integer writer [wi]: [w_int] on the wire,
   [w_word] for {!token_fingerprint}. *)
let w_eq_token wi buf (tok : Enc_relation.eq_token) =
  match tok with
  | Enc_relation.Eq_plain v ->
    w_u8 buf 0;
    w_bytes wi buf (Value.encode v)
  | Enc_relation.Eq_det b ->
    w_u8 buf 1;
    w_bytes wi buf b
  | Enc_relation.Eq_ord o ->
    w_u8 buf 2;
    wi buf o
  | Enc_relation.Eq_ore o ->
    w_u8 buf 3;
    w_symbols wi buf o

let r_eq_token c : Enc_relation.eq_token =
  match r_u8 c with
  | 0 -> Enc_relation.Eq_plain (r_value c)
  | 1 -> Enc_relation.Eq_det (r_string c)
  | 2 -> Enc_relation.Eq_ord (r_int c)
  | 3 -> Enc_relation.Eq_ore (r_symbols c)
  | n -> fail (Printf.sprintf "unknown eq-token tag %d" n)

let w_range_token wi buf (tok : Enc_relation.range_token) =
  match tok with
  | Enc_relation.Rng_plain (lo, hi) ->
    w_u8 buf 0;
    w_bytes wi buf (Value.encode lo);
    w_bytes wi buf (Value.encode hi)
  | Enc_relation.Rng_ord (lo, hi) ->
    w_u8 buf 1;
    wi buf lo;
    wi buf hi
  | Enc_relation.Rng_ore (lo, hi) ->
    w_u8 buf 2;
    w_symbols wi buf lo;
    w_symbols wi buf hi

let r_range_token c : Enc_relation.range_token =
  match r_u8 c with
  | 0 ->
    let lo = r_value c in
    Enc_relation.Rng_plain (lo, r_value c)
  | 1 ->
    let lo = r_int c in
    Enc_relation.Rng_ord (lo, r_int c)
  | 2 ->
    let lo = r_symbols c in
    Enc_relation.Rng_ore (lo, r_symbols c)
  | n -> fail (Printf.sprintf "unknown range-token tag %d" n)

(* [wi] writes the integers of a token and [ws] a slot array. *)
let w_filter_op_with wi ws buf = function
  | F_slots slots ->
    w_u8 buf 0;
    ws buf slots
  | F_eq (attr, tok) ->
    w_u8 buf 1;
    w_bytes wi buf attr;
    w_eq_token wi buf tok
  | F_range (attr, tok) ->
    w_u8 buf 2;
    w_bytes wi buf attr;
    w_range_token wi buf tok

let w_filter_op buf op = w_filter_op_with w_int w_slots buf op

(* Over the op's SNFM version 5 bytes, every integer an 8-byte word, so
   a token keeps its name in SNFT summaries whatever the transport. *)
let token_fingerprint op =
  let buf = Buffer.create 64 in
  w_filter_op_with w_word
    (fun buf slots ->
      w_word buf (Array.length slots);
      Array.iter (w_word buf) slots)
    buf op;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents buf))) 0 16

let request_tag = function
  | Describe -> 0
  | Install _ -> 2
  | Index_probe _ -> 3
  | Fetch_rows _ -> 5
  | Fetch_tids _ -> 6
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
  | R_nat _ -> 7
  | R_groups _ -> 8
  | R_error _ -> 9
  | R_corrupt _ -> 10
  | R_batch _ -> 11
  | R_busy -> 12
  | R_store_stats _ -> 13

let r_filter_op c =
  match r_u8 c with
  | 0 -> F_slots (r_slots c)
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
    w_slots buf slots
  | Fetch_tids { leaf } ->
    w_u8 buf 6;
    w_string buf leaf
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
    Fetch_rows { leaf; attrs; slots = r_slots c }
  | 6 -> Fetch_tids { leaf = r_string c }
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
    w_option w_slots buf slots
  | R_rows cols ->
    w_u8 buf 4;
    w_array w_rows_column buf cols
  | R_tids tids ->
    w_u8 buf 5;
    w_array w_string buf tids
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
  | 2 -> R_slots (r_option r_slots c)
  | 4 -> R_rows (r_array r_rows_column c)
  | 5 -> R_tids (r_array r_string c)
  | 7 -> R_nat (r_nat c)
  | 8 ->
    R_groups
      (r_list
         (fun c ->
           let cell = r_cell c in
           (cell, r_nat c))
         c)
  | 9 ->
    let not_found =
      match r_u8 c with 0 -> false | 1 -> true | n -> fail (Printf.sprintf "bad flag %d" n)
    in
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
  | Enc_relation.C_bytes b -> 3 + String.length b
  | Enc_relation.C_ord { payload; _ } -> 12 + String.length payload
  | Enc_relation.C_ore { payload; _ } -> 64 + String.length payload
  | Enc_relation.C_plain _ | Enc_relation.C_nat _ -> 32

let response_size_hint = function
  | R_tids tids -> Array.fold_left (fun acc t -> acc + 2 + String.length t) 32 tids
  | R_rows cols ->
    let cells acc = Array.fold_left (fun acc cell -> acc + cell_size_hint cell) (acc + 4) in
    Array.fold_left
      (fun acc -> function
        | Cells cs -> cells acc cs
        | Coded { dict; codes } ->
          cells (acc + 3) dict + (Array.length codes * code_width (Array.length dict)))
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
