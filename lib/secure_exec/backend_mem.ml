(* [digests] memoises each leaf's tid digest with the tids array it was
   computed from: a hit needs the physically same array, so an installed
   store or a swapped-in leaf is digested afresh. The mutex makes the memo
   safe behind a network server's shared view. *)
type t = {
  mutable store : Enc_relation.t option;
  digests : (string, string array * string) Hashtbl.t;
  lock : Mutex.t;
}

let name = "mem"
let of_store store = { store = Some store; digests = Hashtbl.create 8; lock = Mutex.create () }
let empty () = { store = None; digests = Hashtbl.create 8; lock = Mutex.create () }

let store t =
  match t.store with
  | Some s -> s
  | None -> invalid_arg "Backend_mem: no store installed"

let digest t (l : Enc_relation.enc_leaf) =
  let label = l.Enc_relation.label and tids = l.Enc_relation.tids in
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.digests label) with
  | Some (src, d) when src == tids -> d
  | _ ->
    let d = Wire.tids_digest tids in
    Mutex.protect t.lock (fun () -> Hashtbl.replace t.digests label (tids, d));
    d

let view t =
  { Server_api.describe =
      (fun () ->
        let s = store t in
        ( s.Enc_relation.relation_name,
          List.map
            (fun (l : Enc_relation.enc_leaf) ->
              (l.Enc_relation.label, l.Enc_relation.row_count, digest t l))
            s.Enc_relation.leaves ));
    check_shape = (fun () -> Enc_relation.check_shape (store t));
    install = (fun image -> t.store <- Some (Wire.of_string image));
    leaf = (fun label -> Enc_relation.find_leaf (store t) label);
    eq_index =
      (fun ~leaf ~attr -> Enc_relation.eq_index (Enc_relation.find_leaf (store t) leaf) ~attr);
    paillier = (fun () -> (store t).Enc_relation.paillier_public) }

let close _ = ()
