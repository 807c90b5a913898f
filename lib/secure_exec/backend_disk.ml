module Nat = Snf_bignum.Nat
module Paillier = Snf_crypto.Paillier

type entry = {
  label : string;
  rows : int;
  digest : string;  (* Wire.tids_digest of the leaf's tid column *)
  file : string;
}

type manifest = {
  relation_name : string;
  paillier_n : Nat.t;
  entries : entry list;  (* stored leaf order *)
}

type t = {
  dir : string;
  owns_dir : bool;
  mutable manifest : manifest option;
  resident : (string, Enc_relation.enc_leaf) Hashtbl.t;
  mutex : Mutex.t;
}

let name = "disk"
let dir t = t.dir

(* --- manifest codec --------------------------------------------------------
   SNFD version 2, in [Wire.Prim] primitives:

     "SNFD" | u8 version = 2 | string relation name | nat Paillier n
     | int entry count | per entry, in stored leaf order:
         string label | int row count | string tid digest (16 bytes)
         | string leaf file name

   The tid digest ([Wire.tids_digest]) is computed once at Install, so
   Describe answers from the manifest without paging a leaf in. Version 1
   had no digests; a version-1 manifest is refused like any unknown
   version, and the store must be installed again. *)

let manifest_magic = "SNFD"
let manifest_version = 2
let manifest_file = "manifest.snfd"
let manifest_path d = Filename.concat d manifest_file

let manifest_to_string m =
  let buf = Buffer.create 256 in
  Buffer.add_string buf manifest_magic;
  Wire.Prim.w_u8 buf manifest_version;
  Wire.Prim.w_string buf m.relation_name;
  Wire.Prim.w_nat buf m.paillier_n;
  Wire.Prim.w_int buf (List.length m.entries);
  List.iter
    (fun e ->
      Wire.Prim.w_string buf e.label;
      Wire.Prim.w_int buf e.rows;
      Wire.Prim.w_string buf e.digest;
      Wire.Prim.w_string buf e.file)
    m.entries;
  Buffer.contents buf

let manifest_of_string data =
  let c = Wire.Prim.cursor data in
  let magic = String.init 4 (fun _ -> Char.chr (Wire.Prim.r_u8 c)) in
  if magic <> manifest_magic then invalid_arg "Backend_disk: bad manifest magic";
  let v = Wire.Prim.r_u8 c in
  if v <> manifest_version then
    invalid_arg (Printf.sprintf "Backend_disk: unsupported manifest version %d" v);
  let relation_name = Wire.Prim.r_string c in
  let paillier_n = Wire.Prim.r_nat c in
  let n = Wire.Prim.r_count c in
  let entries =
    List.init n (fun _ ->
        let label = Wire.Prim.r_string c in
        let rows = Wire.Prim.r_int c in
        let digest = Wire.Prim.r_string c in
        if String.length digest <> 16 then
          invalid_arg "Backend_disk: manifest tid digest is not 16 bytes";
        { label; rows; digest; file = Wire.Prim.r_string c })
  in
  Wire.Prim.expect_end c;
  { relation_name; paillier_n; entries }

(* --- file plumbing ----------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

(* --- lifecycle ---------------------------------------------------------------- *)

let create ?(owns_dir = false) ~dir () =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o700;
  let manifest =
    let p = manifest_path dir in
    if Sys.file_exists p then Some (manifest_of_string (read_file p)) else None
  in
  { dir;
    owns_dir;
    manifest;
    resident = Hashtbl.create 8;
    mutex = Mutex.create () }

let create_temp () =
  let base = Filename.temp_file "snf-backend" ".d" in
  Sys.remove base;
  Sys.mkdir base 0o700;
  create ~owns_dir:true ~dir:base ()

let close t =
  if t.owns_dir then begin
    (match t.manifest with
     | Some m ->
       List.iter (fun e -> remove_if_exists (Filename.concat t.dir e.file)) m.entries
     | None -> ());
    remove_if_exists (manifest_path t.dir);
    try Sys.rmdir t.dir with Sys_error _ -> ()
  end

(* --- the store, paged ----------------------------------------------------------- *)

let manifest t =
  match t.manifest with
  | Some m -> m
  | None -> invalid_arg "Backend_disk: no store installed"

let leaf_file i = Printf.sprintf "leaf-%03d.snfl" i

let install t image =
  (* Full parse first: a malformed image is rejected before anything is
     written, leaving any previously installed store intact. *)
  let enc = Wire.of_string image in
  Mutex.protect t.mutex @@ fun () ->
  (match t.manifest with
   | Some m ->
     List.iter (fun e -> remove_if_exists (Filename.concat t.dir e.file)) m.entries
   | None -> ());
  Hashtbl.reset t.resident;
  let entries =
    List.mapi
      (fun i (l : Enc_relation.enc_leaf) ->
        let file = leaf_file i in
        write_file (Filename.concat t.dir file) (Wire.leaf_to_string l);
        { label = l.Enc_relation.label;
          rows = l.Enc_relation.row_count;
          digest = Wire.tids_digest l.Enc_relation.tids;
          file })
      enc.Enc_relation.leaves
  in
  let m =
    { relation_name = enc.Enc_relation.relation_name;
      paillier_n = enc.Enc_relation.paillier_public.Paillier.n;
      entries }
  in
  write_file (manifest_path t.dir) (manifest_to_string m);
  t.manifest <- Some m

(* Demand paging with validation at the boundary: a leaf is decoded and
   shape-checked when first touched; anything wrong with the file — it
   cannot be decoded, names a different leaf, or disagrees with the
   manifest — is storage corruption, typed as such. *)
let ensure t label =
  Mutex.protect t.mutex @@ fun () ->
  match Hashtbl.find_opt t.resident label with
  | Some l -> l
  | None ->
    let m = manifest t in
    let { rows; file; _ } =
      match List.find_opt (fun e -> e.label = label) m.entries with
      | Some e -> e
      | None -> raise Not_found
    in
    let l =
      try Wire.leaf_of_string (read_file (Filename.concat t.dir file)) with
      | Invalid_argument msg | Sys_error msg ->
        Integrity.fail ~leaf:label ~where:"store" msg
    in
    if l.Enc_relation.label <> label then
      Integrity.fail ~leaf:label ~where:"store" "leaf file names a different label";
    if l.Enc_relation.row_count <> rows then
      Integrity.fail ~leaf:label ~where:"store"
        "leaf row count disagrees with the manifest";
    Enc_relation.check_leaf l;
    Hashtbl.add t.resident label l;
    l

let resident_labels t =
  Mutex.protect t.mutex @@ fun () ->
  Hashtbl.fold (fun label _ acc -> label :: acc) t.resident []
  |> List.sort String.compare

let view t =
  { Server_api.describe =
      (fun () ->
        let m = manifest t in
        (m.relation_name, List.map (fun e -> (e.label, e.rows, e.digest)) m.entries));
    check_shape =
      (fun () ->
        ignore (manifest t);
        (* Non-resident leaves are validated when paged in; what is in
           memory is re-checked here. *)
        Mutex.protect t.mutex (fun () ->
            Hashtbl.iter (fun _ l -> Enc_relation.check_leaf l) t.resident));
    install = (fun image -> install t image);
    leaf = (fun label -> ensure t label);
    eq_index = (fun ~leaf ~attr -> Enc_relation.eq_index (ensure t leaf) ~attr);
    paillier = (fun () -> Paillier.public_of_n (manifest t).paillier_n) }
