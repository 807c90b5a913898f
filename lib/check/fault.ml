open Snf_relational
open Snf_exec
module Prng = Snf_crypto.Prng
module Scheme = Snf_crypto.Scheme
module Ore = Snf_crypto.Ore
module Nat = Snf_bignum.Nat
module Partition = Snf_core.Partition

type kind =
  | Flip_cell
  | Flip_tid
  | Swap_tid
  | Dup_tid
  | Truncate_leaf
  | Drop_leaf
  | Stale_index
  | Key_mismatch

let all =
  [ Flip_cell; Flip_tid; Swap_tid; Dup_tid; Truncate_leaf; Drop_leaf; Stale_index; Key_mismatch ]

let name = function
  | Flip_cell -> "flip-cell"
  | Flip_tid -> "flip-tid"
  | Swap_tid -> "swap-tid"
  | Dup_tid -> "dup-tid"
  | Truncate_leaf -> "truncate-leaf"
  | Drop_leaf -> "drop-leaf"
  | Stale_index -> "stale-index"
  | Key_mismatch -> "key-mismatch"

(* --- injectors ------------------------------------------------------------ *)

let flip_byte prng s =
  if String.length s = 0 then s
  else begin
    let b = Bytes.of_string s in
    let i = Prng.int prng (String.length s) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Prng.int prng 8)));
    Bytes.to_string b
  end

let map_leaf t label f =
  { t with
    Enc_relation.leaves =
      List.map
        (fun (l : Enc_relation.enc_leaf) ->
          if l.Enc_relation.label = label then f l else l)
        t.Enc_relation.leaves }

let corrupt_cell prng (cell : Enc_relation.cell) =
  match cell with
  | Enc_relation.C_bytes b -> Enc_relation.C_bytes (flip_byte prng b)
  | Enc_relation.C_ord { ord; payload } ->
    if Prng.bool prng then Enc_relation.C_ord { ord = ord lxor 1; payload }
    else Enc_relation.C_ord { ord; payload = flip_byte prng payload }
  | Enc_relation.C_ore { ore; payload } ->
    if Prng.bool prng then begin
      let s = Ore.symbols ore in
      s.(0) <- (s.(0) + 1) mod 3;
      Enc_relation.C_ore { ore = Ore.of_symbols s; payload }
    end
    else Enc_relation.C_ore { ore; payload = flip_byte prng payload }
  | Enc_relation.C_nat n -> Enc_relation.C_nat (Nat.add n Nat.one)
  | Enc_relation.C_plain v -> Enc_relation.C_plain v

let flip_cell ~seed t ~leaf ~attr =
  let prng = Prng.create (seed + 0xf11b) in
  let slot = ref 0 in
  let t' =
    map_leaf t leaf (fun l ->
        slot := if l.Enc_relation.row_count = 0 then 0
                else Prng.int prng l.Enc_relation.row_count;
        { l with
          Enc_relation.columns =
            List.map
              (fun (c : Enc_relation.enc_column) ->
                if c.Enc_relation.attr <> attr then c
                else begin
                  let cells = Array.copy c.Enc_relation.cells in
                  if Array.length cells > 0 then
                    cells.(!slot) <- corrupt_cell prng cells.(!slot);
                  Enc_relation.make_column ~attr ~scheme:c.Enc_relation.scheme cells
                end)
              l.Enc_relation.columns })
  in
  (t', !slot)

let flip_tid ~seed t ~leaf =
  let prng = Prng.create (seed + 0x71d) in
  let slot = ref 0 in
  let t' =
    map_leaf t leaf (fun l ->
        let tids = Array.copy l.Enc_relation.tids in
        if Array.length tids > 0 then begin
          slot := Prng.int prng (Array.length tids);
          tids.(!slot) <- flip_byte prng tids.(!slot)
        end;
        { l with Enc_relation.tids })
  in
  (t', !slot)

(* Authentic ciphertexts moved within the column: every one still
   decrypts, only its slot is wrong. *)
let relink_tids ~seed t ~leaf relink =
  let prng = Prng.create (seed + 0x5a7) in
  map_leaf t leaf (fun l ->
      let tids = Array.copy l.Enc_relation.tids in
      let n = Array.length tids in
      if n >= 2 then begin
        let i = Prng.int prng n in
        let j = (i + 1 + Prng.int prng (n - 1)) mod n in
        relink tids i j
      end;
      { l with Enc_relation.tids })

let swap_tids ~seed t ~leaf =
  relink_tids ~seed t ~leaf (fun tids i j ->
      let ti = tids.(i) in
      tids.(i) <- tids.(j);
      tids.(j) <- ti)

let dup_tid ~seed t ~leaf = relink_tids ~seed t ~leaf (fun tids i j -> tids.(j) <- tids.(i))

let truncate_leaf t ~leaf =
  map_leaf t leaf (fun l ->
      let drop a = Array.sub a 0 (max 0 (Array.length a - 1)) in
      { l with
        Enc_relation.tids = drop l.Enc_relation.tids;
        Enc_relation.columns =
          List.map
            (fun (c : Enc_relation.enc_column) ->
              Enc_relation.make_column ~attr:c.Enc_relation.attr ~scheme:c.Enc_relation.scheme
                (drop c.Enc_relation.cells))
            l.Enc_relation.columns })

let drop_leaf t ~leaf =
  { t with
    Enc_relation.leaves =
      List.filter
        (fun (l : Enc_relation.enc_leaf) -> l.Enc_relation.label <> leaf)
        t.Enc_relation.leaves }

(* The two keys trade classes in the column's form, in place: what a
   probe or an equality filter reads for one key is the other's slots. *)
let poison_index t ~leaf ~attr ~key_a ~key_b =
  match Enc_relation.form (Enc_relation.column (Enc_relation.find_leaf t leaf) attr) with
  | Some { Enc_relation.key_classes = keys; _ } when Hashtbl.length keys > 0 ->
    let classes k = Option.value (Hashtbl.find_opt keys k) ~default:[] in
    let a = classes key_a and b = classes key_b in
    Hashtbl.replace keys key_a b;
    Hashtbl.replace keys key_b a;
    true
  | _ -> false

let mismatched_client ~name =
  Enc_relation.make_client ~relation_name:name ~master:"snf-check:wrong-master" ()

(* --- campaign ------------------------------------------------------------- *)

type outcome = {
  kind : kind;
  applicable : bool;
  detected : bool;
  detail : string;
}

(* An attribute whose stored ciphertexts are authenticated (or onion-
   verified), i.e. a legitimate bit-flip target. *)
let authenticated_attr (inst : Gen.instance) seed =
  let candidates =
    List.filter
      (fun a ->
        match Snf_core.Policy.scheme_of inst.Gen.policy a with
        | Scheme.Det | Scheme.Ndet | Scheme.Ope | Scheme.Ore -> true
        | Scheme.Plain | Scheme.Phe -> false)
      (Schema.names (Relation.schema inst.Gen.relation))
  in
  let arr = Array.of_list candidates in
  arr.(abs seed mod Array.length arr)  (* s0/s1 guarantee non-emptiness *)

let outsource_leaves (inst : Gen.instance) ~tag leaves =
  let rep =
    List.map
      (fun (label, attrs) ->
        Partition.leaf label
          (List.map (fun a -> (a, Snf_core.Policy.scheme_of inst.Gen.policy a)) attrs))
      leaves
  in
  System.outsource_prepared
    ~name:(inst.Gen.name ^ "." ^ tag)
    ~graph:inst.Gen.graph ~representation:rep inst.Gen.relation inst.Gen.policy

let detection ?(use_index = false) (owner : System.owner) q =
  match System.query_checked ~use_index owner q with
  | Error (`Corruption c) -> (true, Integrity.to_string c)
  | Error (`Plan e) -> (false, "planner error instead of detection: " ^ e)
  | Ok (ans, _) ->
    (false, Printf.sprintf "query returned %d rows from a damaged store"
              (Relation.cardinality ans))

let full_scan attrs = { Query.select = attrs; where = [] }

let campaign ?(seed = 1) (inst : Gen.instance) =
  let attr = authenticated_attr inst seed in
  let run kind ~applicable ~detail f =
    if not applicable then { kind; applicable = false; detected = false; detail }
    else begin
      let detected, d = f () in
      { kind; applicable = true; detected; detail = Printf.sprintf "%s; %s" detail d }
    end
  in
  let flip_cell_outcome =
    run Flip_cell ~applicable:true
      ~detail:(Printf.sprintf "bit-flip in column %s" attr)
      (fun () ->
        let owner = outsource_leaves inst ~tag:"flipcell" [ ("f0", [ attr ]) ] in
        let enc, _slot =
          flip_cell ~seed owner.System.enc ~leaf:"f0" ~attr
        in
        detection { owner with System.enc } (full_scan [ attr ]))
  in
  let flip_tid_outcome =
    run Flip_tid ~applicable:true
      ~detail:"bit-flip in a tid ciphertext of a joined leaf"
      (fun () ->
        let owner =
          outsource_leaves inst ~tag:"fliptid" [ ("fa", [ "s0" ]); ("fb", [ "s1" ]) ]
        in
        let enc, _slot = flip_tid ~seed owner.System.enc ~leaf:"fa" in
        detection { owner with System.enc } (full_scan [ "s0"; "s1" ]))
  in
  let relink_outcome kind ~detail relink =
    run kind
      ~applicable:(Relation.cardinality inst.Gen.relation >= 2)
      ~detail
      (fun () ->
        let owner =
          outsource_leaves inst ~tag:(name kind) [ ("fa", [ "s0" ]); ("fb", [ "s1" ]) ]
        in
        let enc = relink ~seed owner.System.enc ~leaf:"fa" in
        detection { owner with System.enc } (full_scan [ "s0"; "s1" ]))
  in
  let swap_outcome =
    relink_outcome Swap_tid ~detail:"two tid ciphertexts of a joined leaf swapped" swap_tids
  in
  let dup_outcome =
    relink_outcome Dup_tid ~detail:"a tid ciphertext of a joined leaf copied over another"
      dup_tid
  in
  let truncate_outcome =
    run Truncate_leaf
      ~applicable:(Relation.cardinality inst.Gen.relation > 0)
      ~detail:"leaf loses its last row, row_count unchanged"
      (fun () ->
        let owner = outsource_leaves inst ~tag:"trunc" [ ("f0", [ attr ]) ] in
        let enc = truncate_leaf owner.System.enc ~leaf:"f0" in
        detection { owner with System.enc } (full_scan [ attr ]))
  in
  let drop_outcome =
    run Drop_leaf ~applicable:true ~detail:"partition leaf fb dropped from the store"
      (fun () ->
        let owner =
          outsource_leaves inst ~tag:"drop" [ ("fa", [ "s0" ]); ("fb", [ "s1" ]) ]
        in
        let enc = drop_leaf owner.System.enc ~leaf:"fb" in
        detection { owner with System.enc } (full_scan [ "s0"; "s1" ]))
  in
  let stale_outcome =
    (* Two distinct values of the DET column s0 to remap between. *)
    let col = Relation.column inst.Gen.relation "s0" in
    let distinct =
      Array.to_list col |> List.sort_uniq Value.compare |> fun vs ->
      match vs with v1 :: v2 :: _ -> Some (v1, v2) | _ -> None
    in
    run Stale_index
      ~applicable:(distinct <> None)
      ~detail:"the classes of two constants swapped in the column's form"
      (fun () ->
        let v1, v2 = Option.get distinct in
        let owner = outsource_leaves inst ~tag:"stale" [ ("f0", [ "s0" ]) ] in
        let key_of v =
          match
            Enc_relation.eq_token owner.System.client ~leaf:"f0" ~attr:"s0"
              ~scheme:Scheme.Det v
          with
          | Some tok -> Option.get (Enc_relation.index_key_of_token tok)
          | None -> assert false
        in
        if
          not
            (poison_index owner.System.enc ~leaf:"f0" ~attr:"s0" ~key_a:(key_of v1)
               ~key_b:(key_of v2))
        then (false, "the column has no key map")
        else
          (* Probes and equality filters read the same index: both must
             detect the swap. *)
          let q = Query.point ~select:[ "s0" ] [ ("s0", v1) ] in
          let probed, dp = detection ~use_index:true owner q in
          let filtered, df = detection owner q in
          (probed && filtered, Printf.sprintf "probe: %s; filter: %s" dp df))
  in
  let key_outcome =
    run Key_mismatch ~applicable:true ~detail:"client keyed under a wrong master"
      (fun () ->
        let owner = outsource_leaves inst ~tag:"keymm" [ ("f0", [ attr ]) ] in
        let impostor = mismatched_client ~name:(inst.Gen.name ^ ".keymm") in
        detection { owner with System.client = impostor } (full_scan [ attr ]))
  in
  [ flip_cell_outcome; flip_tid_outcome; swap_outcome; dup_outcome; truncate_outcome;
    drop_outcome; stale_outcome; key_outcome ]

(* --- connection faults ------------------------------------------------------
   The transport analogue of the storage campaign: sever a live socket at
   chosen points and assert the conformance contract for networks — the
   client surfaces [Snf_net.Client.Disconnected] (typed, never a raw
   [Unix_error]/[End_of_file]), the server reaps the dead session and
   keeps serving, and a reconnect-and-retry yields the oracle bag. *)

type conn_fault = Drop_mid_request | Drop_mid_query | Drop_mid_batch | Drop_shard

let conn_fault_name = function
  | Drop_mid_request -> "drop-mid-request"
  | Drop_mid_query -> "drop-mid-query"
  | Drop_mid_batch -> "drop-mid-batch"
  | Drop_shard -> "drop-shard"

type conn_outcome = {
  conn_kind : conn_fault;
  typed : bool;  (** the failure surfaced as [Disconnected], nothing rawer *)
  server_alive : bool;  (** a fresh connection still serves afterwards *)
  recovered : bool;  (** reconnect-and-retry produced the oracle bag *)
  conn_detail : string;
}

let conn_campaign ~addr (inst : Gen.instance) =
  let owner = outsource_leaves inst ~tag:"connfault" [ ("f0", [ "s0"; "s1" ]) ] in
  let image = Wire.to_string owner.System.enc in
  let q = full_scan [ "s0"; "s1" ] in
  let oracle = Oracle.bag (Oracle.answer inst.Gen.relation q) in
  let run_query conn =
    Executor.run_conn owner.System.client conn
      owner.System.plan.Snf_core.Normalizer.representation q
  in
  (* Install once through a throwaway session so every scenario below
     finds the store already served. *)
  (match Snf_net.Client.connect addr with
  | Error e -> failwith ("conn_campaign: cannot connect: " ^ e)
  | Ok setup ->
    Server_api.install setup image;
    Server_api.close setup);
  let probe_server () =
    match Snf_net.Client.connect addr with
    | Error _ -> false
    | Ok conn ->
      Fun.protect
        ~finally:(fun () -> Server_api.close conn)
        (fun () ->
          match Server_api.describe conn with _ -> true | exception _ -> false)
  in
  let retry () =
    match Snf_net.Client.connect addr with
    | Error e -> (false, "reconnect failed: " ^ e)
    | Ok conn ->
      Fun.protect
        ~finally:(fun () -> Server_api.close conn)
        (fun () ->
          match run_query conn with
          | Ok (ans, _) when Oracle.bag ans = oracle -> (true, "retry matched oracle")
          | Ok (ans, _) ->
            (false, Printf.sprintf "retry returned %d rows off the oracle bag"
                      (Relation.cardinality ans))
          | Error e -> (false, "retry failed to plan: " ^ e))
  in
  (* What a dead wire must look like to the caller. *)
  let classify = function
    | Snf_net.Client.Disconnected _ -> (true, "typed Disconnected")
    | Unix.Unix_error (e, _, _) -> (false, "raw Unix_error: " ^ Unix.error_message e)
    | End_of_file -> (false, "raw End_of_file")
    | e -> (false, "unexpected exception: " ^ Printexc.to_string e)
  in
  let scenario kind f =
    let typed, detail = f () in
    let server_alive = probe_server () in
    let recovered, rdetail = retry () in
    { conn_kind = kind;
      typed;
      server_alive;
      recovered;
      conn_detail =
        Printf.sprintf "%s; server %s; %s" detail
          (if server_alive then "alive" else "DOWN")
          rdetail }
  in
  [ (* Half a frame, then the wire dies: the server must reap the
       session without ever dispatching the truncated request. *)
    scenario Drop_mid_request (fun () ->
        match Snf_net.Client.open_handle addr with
        | Error e -> (false, "dial failed: " ^ e)
        | Ok h ->
          let req =
            Snf_net.Frame.encode (Wire.request_to_string Wire.Describe)
          in
          let partial = String.sub req 0 (String.length req - 3) in
          let conn = Snf_net.Client.conn_of_handle h in
          (* Write the truncated frame bytes directly, then sever. *)
          (match Snf_net.Client.raw_send h partial with
          | () -> ()
          | exception _ -> ());
          Snf_net.Client.kill h;
          Server_api.close conn;
          (true, "severed after a partial frame"));
    (* A healthy query, then the wire dies under the next one. *)
    scenario Drop_mid_query (fun () ->
        match Snf_net.Client.open_handle addr with
        | Error e -> (false, "dial failed: " ^ e)
        | Ok h ->
          let conn = Snf_net.Client.conn_of_handle h in
          Fun.protect
            ~finally:(fun () -> Server_api.close conn)
            (fun () ->
              match run_query conn with
              | Error e -> (false, "warm-up query failed: " ^ e)
              | Ok _ -> (
                Snf_net.Client.kill h;
                match run_query conn with
                | _ -> (false, "query succeeded over a severed wire")
                | exception e -> classify e)));
    (* Same, mid-batch. *)
    scenario Drop_mid_batch (fun () ->
        match Snf_net.Client.open_handle addr with
        | Error e -> (false, "dial failed: " ^ e)
        | Ok h ->
          let conn = Snf_net.Client.conn_of_handle h in
          Fun.protect
            ~finally:(fun () -> Server_api.close conn)
            (fun () ->
              Snf_net.Client.kill h;
              match
                Executor.run_batch owner.System.client conn
                  owner.System.plan.Snf_core.Normalizer.representation [ q; q ]
              with
              | _ -> (false, "batch succeeded over a severed wire")
              | exception e -> classify e));
    (* A sharded coordinator loses one shard's wire mid-query: the
       failure must surface as the same typed [Disconnected], {e both}
       shard servers must stay up (the kill severs a client wire, not a
       server), and rebuilding the coordinator — fresh wires, fresh
       install — must recover the oracle bag. Runs against its own pair
       of throwaway servers so the per-shard sub-images never touch the
       campaign's shared store at [addr]. *)
    (let fresh_server tag =
       let path = Filename.temp_file ("snf-shardfault-" ^ tag) ".sock" in
       Sys.remove path;
       Snf_net.Server.start_mem ~addr:("unix:" ^ path) ()
     in
     let fail_outcome detail =
       { conn_kind = Drop_shard; typed = false; server_alive = false;
         recovered = false; conn_detail = detail }
     in
     match fresh_server "a" with
     | Error e -> fail_outcome ("cannot start shard server: " ^ e)
     | Ok srv0 ->
       Fun.protect ~finally:(fun () -> Snf_net.Server.stop srv0) @@ fun () ->
       (match fresh_server "b" with
       | Error e -> fail_outcome ("cannot start shard server: " ^ e)
       | Ok srv1 ->
         Fun.protect ~finally:(fun () -> Snf_net.Server.stop srv1) @@ fun () ->
         let addrs =
           [| Snf_net.Server.address srv0; Snf_net.Server.address srv1 |]
         in
         (* Shard 1's wire goes through an exposed handle so it can be
            severed; the connector re-dials on every (re)connect. *)
         let doomed = ref None in
         let connect i =
           if i = 1 then (
             match Snf_net.Client.open_handle addrs.(1) with
             | Error e -> failwith ("shard 1 dial failed: " ^ e)
             | Ok h ->
               doomed := Some h;
               Snf_net.Client.conn_of_handle h)
           else
             match Snf_net.Client.connect addrs.(0) with
             | Ok conn -> conn
             | Error e -> failwith ("shard 0 dial failed: " ^ e)
         in
         let st = Backend_sharded.create ~shards:2 ~connect () in
         let outer = Backend_sharded.connect st in
         Server_api.install outer image;
         let typed, detail =
           match run_query outer with
           | Error e -> (false, "warm-up query failed: " ^ e)
           | Ok _ -> (
             (match !doomed with Some h -> Snf_net.Client.kill h | None -> ());
             match run_query outer with
             | _ -> (false, "query succeeded with a dead shard")
             | exception e -> classify e)
         in
         let alive a =
           match Snf_net.Client.connect a with
           | Error _ -> false
           | Ok conn ->
             Fun.protect
               ~finally:(fun () -> Server_api.close conn)
               (fun () ->
                 match Server_api.describe conn with
                 | _ -> true
                 | exception _ -> false)
         in
         let survivor = alive addrs.(0) and lost = alive addrs.(1) in
         Server_api.close outer;
         let recovered, rdetail =
           match Backend_sharded.connect st with
           | outer2 ->
             Fun.protect
               ~finally:(fun () -> Server_api.close outer2)
               (fun () ->
                 Server_api.install outer2 image;
                 match run_query outer2 with
                 | Ok (ans, _) when Oracle.bag ans = oracle ->
                   (true, "rebuilt coordinator matched oracle")
                 | Ok (ans, _) ->
                   (false,
                    Printf.sprintf
                      "rebuilt coordinator returned %d rows off the oracle bag"
                      (Relation.cardinality ans))
                 | Error e -> (false, "rebuilt coordinator failed to plan: " ^ e))
           | exception e -> (false, "reconnect failed: " ^ Printexc.to_string e)
         in
         { conn_kind = Drop_shard;
           typed;
           server_alive = survivor && lost;
           recovered;
           conn_detail =
             Printf.sprintf "%s; shard servers %s/%s; %s" detail
               (if survivor then "alive" else "DOWN")
               (if lost then "alive" else "DOWN")
               rdetail })) ]
