(* Sharded scatter-gather coordinator: see backend_sharded.mli for the
   routing/merge contract. The invariant everything hangs on: every
   merged response is byte-identical to what a single backend holding
   the whole store would return, so the layers above the connection
   cannot tell N shards from one server. *)

module Metrics = Snf_obs.Metrics
module Scheme = Snf_crypto.Scheme
module Paillier = Snf_crypto.Paillier
module Nat = Snf_bignum.Nat

type policy = Hash | Skew

let policy_name = function Hash -> "hash" | Skew -> "skew"

let policy_of_string = function
  | "hash" -> Some Hash
  | "skew" -> Some Skew
  | _ -> None

(* --- placement --------------------------------------------------------------
   Fingerprints are server-visible by construction: the canonical key of
   the first canonical column (the same bytes the eq-index keys on), or
   the NDET tid ciphertext when nothing reveals equality — in which case
   placement is effectively uniform-random but still deterministic. *)

let fingerprints (l : Enc_relation.enc_leaf) =
  let canonical =
    List.find_opt
      (fun (c : Enc_relation.enc_column) ->
        match c.Enc_relation.scheme with
        | Scheme.Plain | Scheme.Det | Scheme.Ope -> true
        | Scheme.Ndet | Scheme.Phe | Scheme.Ore -> false)
      l.Enc_relation.columns
  in
  match canonical with
  | None -> Array.copy l.Enc_relation.tids
  | Some col ->
    Array.mapi
      (fun i cell ->
        match Enc_relation.canonical_key col.Enc_relation.scheme cell with
        | Some k -> k
        | None -> l.Enc_relation.tids.(i))
      col.Enc_relation.cells

let hash_owner ~shards fp =
  let d = Digest.string fp in
  let v = ref 0 in
  for i = 0 to 6 do
    v := (!v lsl 8) lor Char.code d.[i]
  done;
  !v mod shards

(* LPT greedy on value groups: sort by (count desc, key asc), assign each
   group to the least-loaded shard (lowest index on ties). Deterministic,
   and max load <= ceil(total/shards) + largest group. *)
let skew_owners ~shards fps =
  let counts = Hashtbl.create 64 in
  Array.iter
    (fun fp ->
      Hashtbl.replace counts fp
        (1 + Option.value (Hashtbl.find_opt counts fp) ~default:0))
    fps;
  let groups = Hashtbl.fold (fun fp n acc -> (fp, n) :: acc) counts [] in
  let groups =
    List.sort
      (fun (f1, n1) (f2, n2) ->
        if n1 <> n2 then compare n2 n1 else String.compare f1 f2)
      groups
  in
  let loads = Array.make shards 0 in
  let assign = Hashtbl.create 64 in
  List.iter
    (fun (fp, n) ->
      let best = ref 0 in
      for s = 1 to shards - 1 do
        if loads.(s) < loads.(!best) then best := s
      done;
      loads.(!best) <- loads.(!best) + n;
      Hashtbl.replace assign fp !best)
    groups;
  Array.map (Hashtbl.find assign) fps

let assignment policy ~shards (enc : Enc_relation.t) =
  List.map
    (fun (l : Enc_relation.enc_leaf) ->
      let fps = fingerprints l in
      let owner =
        match policy with
        | Hash -> Array.map (hash_owner ~shards) fps
        | Skew -> skew_owners ~shards fps
      in
      (l.Enc_relation.label, owner))
    enc.Enc_relation.leaves

let shard_loads ~shards assign =
  let loads = Array.make shards 0 in
  List.iter
    (fun (_, owner) -> Array.iter (fun s -> loads.(s) <- loads.(s) + 1) owner)
    assign;
  loads

(* --- the coordinator -------------------------------------------------------- *)

type leaf_meta = {
  lm_rows : int;
  lm_digest : string;  (* Wire.tids_digest of the whole column *)
  lm_owner : int array;  (* global slot -> owning shard *)
  lm_pos : int array;  (* global slot -> local slot on its owner *)
  lm_locals : int array array;  (* shard -> ascending global slots *)
  lm_schemes : (string * Scheme.kind) list;  (* column order preserved *)
}

type meta = {
  m_relation : string;
  m_leaves : (string * leaf_meta) list;  (* stored leaf order *)
  m_pk : Paillier.public_key;
}

type shard_ctrs = {
  sc_requests : Metrics.counter;
  sc_bytes_up : Metrics.counter;
  sc_bytes_down : Metrics.counter;
}

type t = {
  t_policy : policy;
  shards : int;
  connector : int -> Server_api.conn;
  ctrs : shard_ctrs array;
  lock : Mutex.t;
  mutable conns : Server_api.conn array option;
  mutable meta : meta option;
}

let create ?(policy = Hash) ~connect ~shards () =
  if shards < 1 then
    invalid_arg "Backend_sharded.create: shard count must be positive";
  { t_policy = policy;
    shards;
    connector = connect;
    ctrs =
      Array.init shards (fun i ->
          let c name = Metrics.counter (Printf.sprintf "exec.wire.shard%d.%s" i name) in
          { sc_requests = c "requests"; sc_bytes_up = c "bytes_up"; sc_bytes_down = c "bytes_down" });
    lock = Mutex.create ();
    conns = None;
    meta = None }

let shard_count t = t.shards
let policy t = t.t_policy

let ensure_conns t =
  Mutex.protect t.lock (fun () ->
      match t.conns with
      | Some c -> c
      | None ->
        let c = Array.init t.shards t.connector in
        t.conns <- Some c;
        c)

let close_inner t =
  Mutex.protect t.lock (fun () ->
      match t.conns with
      | None -> ()
      | Some conns ->
        t.conns <- None;
        Array.iter
          (fun c -> try Server_api.close c with _ -> ())
          conns)

let shard_stats t =
  match t.conns with
  | None ->
    Array.make t.shards { Server_api.requests = 0; bytes_up = 0; bytes_down = 0 }
  | Some conns -> Array.map Server_api.stats conns

let loads t =
  let a = Array.make t.shards 0 in
  (match t.meta with
  | None -> ()
  | Some m ->
    List.iter
      (fun (_, lm) ->
        Array.iteri (fun s ls -> a.(s) <- a.(s) + Array.length ls) lm.lm_locals)
      m.m_leaves);
  a

(* One inner round trip. Raw exchange: the outer [Server_api.call]
   already counts the boundary traffic; here we account the fan-out in
   the per-shard counters (domain-sharded, merged at Parallel joins) and
   re-raise server-reported failures typed, exactly like [call] does —
   [Server_api.serve] in [handle] re-encodes them into the same bytes a
   single backend would have produced. *)
let shard_call t conns i req =
  let up = Wire.request_to_string req in
  let down = Server_api.exchange_raw conns.(i) up in
  let c = t.ctrs.(i) in
  Metrics.incr c.sc_requests;
  Metrics.add c.sc_bytes_up (String.length up);
  Metrics.add c.sc_bytes_down (String.length down);
  Server_api.raise_failure (Wire.response_of_string down)

let protocol_error what =
  invalid_arg ("Backend_sharded: unexpected shard response to " ^ what)

(* Run [f] once per shard. Socket legs mostly wait, so a coordinator with
   one gives every leg its own lane; in-process legs take at most
   [Parallel.domain_count ()], so one domain runs them in turn on the
   caller. Every leg completes even if another raises (a dead shard must
   not strand the survivors' work or counter flushes); the first failure
   by shard index is then re-raised. *)
let fan_out t conns f =
  let lanes =
    if Array.exists (fun c -> String.equal (Server_api.backend_name c) "socket") conns then
      t.shards
    else min t.shards (Parallel.domain_count ())
  in
  Parallel.tabulate ~domains:lanes t.shards (fun i ->
      match f i with r -> Ok r | exception e -> Error (e, Printexc.get_raw_backtrace ()))
  |> Array.map (function Ok r -> r | Error (e, bt) -> Printexc.raise_with_backtrace e bt)

let meta t =
  match t.meta with Some m -> m | None -> invalid_arg "Backend_sharded: no store installed"

let leaf_meta t leaf =
  let m = meta t in
  match List.assoc_opt leaf m.m_leaves with Some lm -> (m, lm) | None -> raise Not_found

(* Global slots as shard-local ones, in request order: [local.(s)] holds
   the local slots of those shard [s] owns, and slot [k] of the request is
   row [pos.(k)] of [local.(owner.(k))]. The slots must be in range
   ([Server_api.check_slots]). *)
let split lm slots =
  let n = Array.length slots in
  let owner = Array.make n 0 and pos = Array.make n 0 in
  let counts = Array.make (Array.length lm.lm_locals) 0 in
  Array.iteri
    (fun k g ->
      let s = lm.lm_owner.(g) in
      owner.(k) <- s;
      pos.(k) <- counts.(s);
      counts.(s) <- counts.(s) + 1)
    slots;
  let local = Array.map (fun c -> Array.make c 0) counts in
  Array.iteri (fun k g -> local.(owner.(k)).(pos.(k)) <- lm.lm_pos.(g)) slots;
  (local, owner, pos)

(* Local slot [l] of shard [s] as a global slot. *)
let global_slot lm ~leaf s l =
  let locals = lm.lm_locals.(s) in
  if l < 0 || l >= Array.length locals then
    Integrity.fail ~leaf ~where:"index"
      (Printf.sprintf "shard %d answered slot %d outside its %d rows" s l (Array.length locals));
  locals.(l)

(* A shard answers for exactly the rows the coordinator placed on it.
   Any other length is damaged storage: typed like a single backend's
   corruption, never a silently shorter merge or a raw bounds error. *)
let check_placed lm ~leaf ~what s got =
  let placed = Array.length lm.lm_locals.(s) in
  if got <> placed then
    Integrity.fail ~leaf ~where:"store"
      (Printf.sprintf "shard %d answered a %s of %d rows for the %d placed on it" s what
         got placed)

(* Scatter per-shard local masks back into global slot positions; the
   scanned-cell counts add up to exactly the single-backend figure
   (every global cell is scanned once, on its owner). *)
let merge_masks ~leaf lm per_shard =
  let mask = Bitmask.create lm.lm_rows false in
  let scanned = ref 0 in
  Array.iteri
    (fun s (m, sc) ->
      check_placed lm ~leaf ~what:"mask" s (Bitmask.length m);
      scanned := !scanned + sc;
      Bitmask.scatter m ~into:mask lm.lm_locals.(s))
    per_shard;
  (mask, !scanned)

(* One fetched column from its shards' columns, coded as a single
   backend codes it: row [k] is row [pos.(k)] of shard [owner.(k)]'s
   column. A column of at most [Wire.small_rows] rows, or an NDET or PHE
   one, is its gathered cells. Otherwise each shard's dictionary (a
   [Cells] column: its cells) is hashed into global classes, and every
   row maps through its shard's entry to a class. Coding every larger
   column afresh, even one a single shard holds, makes the answer
   independent of how a shard coded its part. *)
let merge_column (scheme : Scheme.kind) ~owner ~pos (cols : Wire.rows_column array) =
  let n = Array.length owner in
  if n <= Wire.small_rows || not (Enc_relation.deterministic scheme) then begin
    let cells = Array.map Wire.column_cells cols in
    Wire.Cells (Array.init n (fun k -> cells.(owner.(k)).(pos.(k))))
  end
  else
    let dicts = Array.map (function Wire.Cells d | Wire.Coded { dict = d; _ } -> d) cols in
    let offsets = Array.make (Array.length cols) 0 in
    for s = 1 to Array.length cols - 1 do
      offsets.(s) <- offsets.(s - 1) + Array.length dicts.(s - 1)
    done;
    let entry_class, class_rep =
      Enc_relation.classes_of_cells (Array.concat (Array.to_list dicts))
    in
    let entry =
      Array.map (function Wire.Cells _ -> Fun.id | Wire.Coded { codes; _ } -> Array.get codes) cols
    in
    Wire.code_rows ~classes:(Array.length class_rep) n
      ~class_of:(fun k ->
        let s = owner.(k) in
        entry_class.(offsets.(s) + entry.(s) pos.(k)))
      ~cell_of:(fun _ c -> class_rep.(c))

let install t conns image =
  let enc = Wire.of_string image in
  let assign = assignment t.t_policy ~shards:t.shards enc in
  let metas =
    List.map2
      (fun (l : Enc_relation.enc_leaf) (_, owner) ->
        let n = Array.length owner in
        let counts = Array.make t.shards 0 in
        Array.iter (fun s -> counts.(s) <- counts.(s) + 1) owner;
        let locals = Array.map (fun c -> Array.make c 0) counts in
        let fill = Array.make t.shards 0 in
        let pos = Array.make n 0 in
        for g = 0 to n - 1 do
          let s = owner.(g) in
          locals.(s).(fill.(s)) <- g;
          pos.(g) <- fill.(s);
          fill.(s) <- fill.(s) + 1
        done;
        ( l.Enc_relation.label,
          { lm_rows = n;
            lm_digest = Wire.tids_digest l.Enc_relation.tids;
            lm_owner = owner;
            lm_pos = pos;
            lm_locals = locals;
            lm_schemes =
              List.map
                (fun (c : Enc_relation.enc_column) ->
                  (c.Enc_relation.attr, c.Enc_relation.scheme))
                l.Enc_relation.columns } ))
      enc.Enc_relation.leaves assign
  in
  t.meta <-
    Some
      { m_relation = enc.Enc_relation.relation_name;
        m_leaves = metas;
        m_pk = enc.Enc_relation.paillier_public };
  Array.iteri
    (fun i n ->
      Metrics.set_gauge
        (Metrics.gauge (Printf.sprintf "exec.shard%d.rows" i))
        (float_of_int n))
    (shard_loads ~shards:t.shards assign);
  (* Sub-image building is per-shard work too: serialize and ship in the
     same fan-out lanes that will later carry queries. A shard's part of
     a leaf is its owned slots, ascending. *)
  let _ =
    fan_out t conns (fun i ->
        let rows = List.map (fun (_, lm) -> lm.lm_locals.(i)) metas in
        match shard_call t conns i (Wire.Install (Wire.sub_image enc rows)) with
        | Wire.R_unit -> ()
        | r -> ignore r; protocol_error "Install")
  in
  Wire.R_unit

let dispatch t conns (req : Wire.request) : Wire.response =
  match req with
  | Wire.Install image -> install t conns image
  | Wire.Describe ->
    (* Each shard checks its stored shapes before it describes them, so
       a corrupt shard fails the Describe; the answer itself comes from
       the placed image. *)
    let m = meta t in
    let _ =
      fan_out t conns (fun i ->
          match shard_call t conns i Wire.Describe with
          | Wire.R_described _ -> ()
          | _ -> protocol_error "Describe")
    in
    Wire.R_described
      { relation_name = m.m_relation;
        leaves = List.map (fun (lbl, lm) -> (lbl, lm.lm_rows, lm.lm_digest)) m.m_leaves }
  | Wire.Index_probe { leaf; _ } ->
    (* Probe every shard — each reads its part of the column's form, as
       a single backend reads the whole — then map local hits to global
       slots. Descending sort reproduces the single backend's
       descending answer. *)
    let _, lm = leaf_meta t leaf in
    let rs =
      fan_out t conns (fun i ->
          match shard_call t conns i req with
          | Wire.R_slots r -> r
          | _ -> protocol_error "Index_probe")
    in
    if Array.exists Option.is_some rs then begin
      let all =
        Array.concat
          (List.mapi
             (fun s r -> Array.map (global_slot lm ~leaf s) (Option.value r ~default:[||]))
             (Array.to_list rs))
      in
      Array.sort (fun a b -> Int.compare b a) all;
      Wire.R_slots (Some all)
    end
    else Wire.R_slots None
  | Wire.Fetch_rows { leaf; attrs; slots } ->
    (* Validated as a single backend validates it — leaf, slots, then
       each attribute — before any leg is skipped: a shard that owns no
       requested slot answers empty columns without a round trip. *)
    let _, lm = leaf_meta t leaf in
    Server_api.check_slots ~rows:lm.lm_rows slots;
    List.iter (fun attr -> if not (List.mem_assoc attr lm.lm_schemes) then raise Not_found) attrs;
    let local, owner, pos = split lm slots in
    let na = List.length attrs in
    let rs =
      fan_out t conns (fun i ->
          let want = Array.length local.(i) in
          if want = 0 then Array.make na (Wire.Cells [||])
          else
            match shard_call t conns i (Wire.Fetch_rows { leaf; attrs; slots = local.(i) }) with
            | Wire.R_rows rows ->
              if Array.length rows <> na then
                Integrity.fail ~leaf ~where:"store"
                  (Printf.sprintf "shard %d answered %d columns for %d attributes" i
                     (Array.length rows) na);
              Array.iter
                (fun col ->
                  if Wire.column_length col <> want then
                    Integrity.fail ~leaf ~where:"store"
                      (Printf.sprintf "shard %d answered %d rows for %d requested slots" i
                         (Wire.column_length col) want))
                rows;
              rows
            | _ -> protocol_error "Fetch_rows")
    in
    Wire.R_rows
      (Array.of_list
         (List.mapi
            (fun a attr -> merge_column (List.assoc attr lm.lm_schemes) ~owner ~pos
                (Array.map (fun cols -> cols.(a)) rs))
            attrs))
  | Wire.Fetch_tids { leaf } ->
    let _, lm = leaf_meta t leaf in
    let rs =
      fan_out t conns (fun i ->
          match shard_call t conns i req with
          | Wire.R_tids tids ->
            check_placed lm ~leaf ~what:"tid column" i (Array.length tids);
            tids
          | _ -> protocol_error "Fetch_tids")
    in
    let out = Array.make lm.lm_rows "" in
    Array.iteri
      (fun s tids ->
        Array.iteri (fun j tid -> out.(lm.lm_locals.(s).(j)) <- tid) tids)
      rs;
    Wire.R_tids out
  | Wire.Phe_sum { leaf; _ } ->
    let m, lm = leaf_meta t leaf in
    let rs =
      fan_out t conns (fun i ->
          match shard_call t conns i req with
          | Wire.R_nat n -> n
          | _ -> protocol_error "Phe_sum")
    in
    (* Empty shards answer the additive identity as Nat.zero (the fold
       over no cells), which is NOT the multiplicative identity of the
       ciphertext group — combine only the shards that own rows. *)
    let owned = List.filteri (fun s _ -> Array.length lm.lm_locals.(s) > 0) (Array.to_list rs) in
    Wire.R_nat (Paillier.sum m.m_pk (Array.of_list owned))
  | Wire.Group_sum { leaf; group_by; _ } ->
    let m, lm = leaf_meta t leaf in
    let scheme =
      match List.assoc_opt group_by lm.lm_schemes with
      | Some s -> s
      | None -> raise Not_found
    in
    let rs =
      fan_out t conns (fun i ->
          match shard_call t conns i req with
          | Wire.R_groups g -> g
          | _ -> protocol_error "Group_sum")
    in
    (* Canonical schemes make every cell of a group byte-identical, so
       shards agree on representatives; merging on the canonical key and
       sorting ascending reproduces the single backend's output order. *)
    let tbl = Hashtbl.create 32 in
    Array.iter
      (List.iter (fun (rep, nat) ->
           let key =
             match Enc_relation.canonical_key scheme rep with
             | Some k -> k
             | None ->
               invalid_arg "Backend_sharded: non-canonical group representative"
           in
           match Hashtbl.find_opt tbl key with
           | Some (r, nats) -> Hashtbl.replace tbl key (r, nat :: nats)
           | None -> Hashtbl.add tbl key (rep, [ nat ])))
      rs;
    let keys =
      Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort String.compare
    in
    Wire.R_groups
      (List.map
         (fun k ->
           let rep, nats = Hashtbl.find tbl k in
           (rep, Paillier.sum m.m_pk (Array.of_list nats)))
         keys)
  | Wire.Q_batch { queries } ->
    (* Validate entry by entry, op by op, in the order a single backend
       evaluates them, so the first bad leaf, attribute or slot raises
       the error a single backend would. Each op becomes its shard legs:
       token ops are forwarded verbatim, slot sets split once. *)
    let metas =
      List.map
        (List.map (fun (leaf, ops) ->
             let lm = snd (leaf_meta t leaf) in
             let legs =
               List.map
                 (function
                   | Wire.F_slots slots ->
                     Server_api.check_slots ~rows:lm.lm_rows slots;
                     let local, _, _ = split lm slots in
                     fun i -> Wire.F_slots local.(i)
                   | (Wire.F_eq (attr, _) | Wire.F_range (attr, _)) as op ->
                     if not (List.mem_assoc attr lm.lm_schemes) then raise Not_found;
                     fun _ -> op)
                 ops
             in
             (leaf, lm, legs)))
        queries
    in
    let rs =
      fan_out t conns (fun i ->
          let qs_i =
            List.map (List.map (fun (leaf, _, legs) -> (leaf, List.map (fun leg -> leg i) legs)))
              metas
          in
          match shard_call t conns i (Wire.Q_batch { queries = qs_i }) with
          | Wire.R_batch { results } ->
            if List.map List.length results <> List.map List.length qs_i then
              Integrity.fail ~where:"store"
                (Printf.sprintf "shard %d answered a batch of a different shape" i);
            Array.of_list (List.map Array.of_list results)
          | _ -> protocol_error "Q_batch")
    in
    let results =
      List.mapi
        (fun qi entries ->
          List.mapi
            (fun ei (leaf, lm, _) ->
              merge_masks ~leaf lm (Array.map (fun per -> per.(qi).(ei)) rs))
            entries)
        metas
    in
    Wire.R_batch { results }
  | Wire.Q_store_stats ->
    (* Statistics fan out like any whole-store op (every shard reads its
       forms, as a probe would) and merge by value-class digest: a
       class's global size is the sum of its per-shard sizes, and
       re-sorting by digest restores the byte-deterministic order a
       single backend emits. *)
    let m = meta t in
    let rs =
      fan_out t conns (fun i ->
          match shard_call t conns i req with
          | Wire.R_store_stats { leaves } -> leaves
          | _ -> protocol_error "Q_store_stats")
    in
    let merged =
      List.map
        (fun (label, lm) ->
          let per_shard =
            Array.to_list rs
            |> List.filter_map
                 (List.find_opt (fun (s : Wire.leaf_stats) -> s.Wire.s_label = label))
          in
          let attr_order = ref [] in
          let tables : (string, (string, int) Hashtbl.t) Hashtbl.t =
            Hashtbl.create 8
          in
          List.iter
            (fun (s : Wire.leaf_stats) ->
              List.iter
                (fun (a : Wire.attr_stats) ->
                  let tbl =
                    match Hashtbl.find_opt tables a.Wire.a_attr with
                    | Some tbl -> tbl
                    | None ->
                      let tbl = Hashtbl.create 16 in
                      Hashtbl.add tables a.Wire.a_attr tbl;
                      attr_order := a.Wire.a_attr :: !attr_order;
                      tbl
                  in
                  List.iter
                    (fun (digest, n) ->
                      Hashtbl.replace tbl digest
                        (n + Option.value (Hashtbl.find_opt tbl digest) ~default:0))
                    a.Wire.a_classes)
                s.Wire.s_attrs)
            per_shard;
          let attrs =
            List.rev !attr_order
            |> List.map (fun attr ->
                   let tbl = Hashtbl.find tables attr in
                   { Wire.a_attr = attr;
                     a_classes =
                       Hashtbl.fold (fun d n acc -> (d, n) :: acc) tbl []
                       |> List.sort compare })
          in
          { Wire.s_label = label; s_rows = lm.lm_rows; s_attrs = attrs })
        m.m_leaves
    in
    Wire.R_store_stats { leaves = merged }

(* The outer boundary: decode, route, re-encode through
   [Server_api.serve], so typed shard failures re-encode into the same
   R_error/R_corrupt/R_busy bytes a single backend would have sent. *)
let handle t = Server_api.serve (fun req -> dispatch t (ensure_conns t) req)

let connect t =
  ignore (ensure_conns t);
  Server_api.connect_handler ~name:"sharded" ~handle:(handle t)
    ~close:(fun () -> close_inner t)
