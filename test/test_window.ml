(* Client fetch windows: every reconstruction path — 1-leaf plans, 2-leaf
   sort-merge, ORAM and Binning 16 — answers as the plaintext oracle when
   it projects a column of each scheme, on the mem, disk and socket
   backends; and a Fetch_rows answer of the wrong shape is refused, or
   its tampering typed, alone and in a window batch members share. *)

open Snf_relational
open Snf_exec
module Scheme = Snf_crypto.Scheme
module Scan_reference = Snf_reference.Scan_reference

let t name f = Alcotest.test_case name `Quick f

(* One leaf holds a column of every scheme; a second leaf holds the
   predicate columns that force a 2-leaf plan. *)
let wide = [ "id"; "note"; "code"; "score"; "level"; "amount" ]

let relation () =
  Relation.create
    (Schema.of_attributes
       [ Attribute.int "id"; Attribute.text "note"; Attribute.text "code";
         Attribute.int "score"; Attribute.int "level"; Attribute.int "amount";
         Attribute.int "key"; Attribute.int "rank" ])
    (List.init 40 (fun i ->
         [| Value.Int i; Value.Text (Printf.sprintf "n%d" i);
            Value.Text (Printf.sprintf "c%d" (i mod 5)); Value.Int (i * 7 mod 23);
            Value.Int (i mod 6); Value.Int (i * 10); Value.Int (i mod 4);
            Value.Int (i * 3 mod 17) |]))

let owner ?backend () =
  let schemes =
    [ ("id", Scheme.Plain); ("note", Scheme.Ndet); ("code", Scheme.Det);
      ("score", Scheme.Ope); ("level", Scheme.Ore); ("amount", Scheme.Phe);
      ("key", Scheme.Det); ("rank", Scheme.Ope) ]
  in
  let leaf label attrs =
    Snf_core.Partition.leaf label (List.map (fun a -> (a, List.assoc a schemes)) attrs)
  in
  System.outsource_prepared ?backend ~name:"window"
    ~graph:(Snf_deps.Dep_graph.create (List.map fst schemes))
    ~representation:[ leaf "wide" wide; leaf "side" [ "key"; "rank" ] ]
    (relation ()) (Snf_core.Policy.create schemes)

(* Point and range queries projecting each wide column: homed on the
   wide leaf (1-leaf plans) or on the side leaf (2-leaf plans). The
   2-leaf ones also project their predicate column (an index-served one
   is then both re-verified and projected), and one matches nothing. *)
let one_leaf =
  List.concat_map
    (fun a ->
      [ Query.point ~select:[ a ] [ ("code", Value.Text "c1") ];
        Query.range ~select:[ a ] [ ("score", Value.Int 3, Value.Int 15) ] ])
    wide

let two_leaf =
  List.concat_map
    (fun a ->
      [ Query.point ~select:[ a; "key" ] [ ("key", Value.Int 2) ];
        Query.range ~select:[ a; "rank" ] [ ("rank", Value.Int 2, Value.Int 9) ] ])
    wide
  @ [ Query.point ~select:[ "amount"; "key" ] [ ("key", Value.Int 7) ] ]

let check_all o ~tag =
  let run ~mode ~use_index label qs =
    List.iteri
      (fun i q ->
        match System.query ~mode ~use_index o q with
        | Error e -> Alcotest.failf "%s %s q%d: %s" tag label i e
        | Ok (ans, tr) ->
          Alcotest.(check int)
            (Printf.sprintf "%s %s q%d: plan width" tag label i)
            (if List.memq q one_leaf then 1 else 2)
            (List.length tr.Executor.plan.Planner.leaves);
          Helpers.check_same_bag
            (Printf.sprintf "%s %s q%d: oracle" tag label i)
            (System.reference o q) ans)
      qs
  in
  List.iter
    (fun use_index ->
      let ix = if use_index then "+index" else "" in
      run ~mode:`Sort_merge ~use_index ("1-leaf" ^ ix) one_leaf;
      run ~mode:`Sort_merge ~use_index ("sort-merge" ^ ix) two_leaf;
      run ~mode:`Oram ~use_index ("oram" ^ ix) two_leaf;
      run ~mode:(`Binning 16) ~use_index ("binning" ^ ix) two_leaf)
    [ false; true ]

let test_mem_and_disk () =
  let mem = owner () in
  let disk = System.with_backend mem `Disk in
  Fun.protect ~finally:(fun () -> System.release disk; System.release mem) @@ fun () ->
  check_all mem ~tag:"mem";
  check_all disk ~tag:"disk"

let test_socket () =
  let path = Filename.temp_file "snfwin" ".sock" in
  Sys.remove path;
  let addr = "unix:" ^ path in
  let config = { Snf_net.Server.default_config with Snf_net.Server.domains = 1 } in
  match Snf_net.Server.start_mem ~config ~addr () with
  | Error e -> Alcotest.failf "cannot start server on %s: %s" addr e
  | Ok srv ->
    Fun.protect ~finally:(fun () -> Snf_net.Server.stop srv) @@ fun () ->
    let o = owner ~backend:(`Ext (Snf_net.Client.backend addr)) () in
    Fun.protect ~finally:(fun () -> System.release o) @@ fun () -> check_all o ~tag:"socket"

(* Queries whose first fetched column holds all 40 rows, past
   [Wire.small_rows], with repeated cells, so it crosses
   dictionary-coded: DET [code] and ORE [level] on one leaf, and 2-leaf
   joins projecting them. *)
let coded_queries =
  [ Query.range ~select:[ "code"; "level" ] [ ("score", Value.Int 0, Value.Int 22) ];
    Query.range ~select:[ "code"; "rank" ] [ ("rank", Value.Int 0, Value.Int 16) ];
    Query.range ~select:[ "level"; "rank" ] [ ("rank", Value.Int 0, Value.Int 16) ] ]

let mentions msg word =
  let n = String.length word in
  let rec go i = i + n <= String.length msg && (String.sub msg i n = word || go (i + 1)) in
  go 0

let first_column f cols = Array.mapi (fun i c -> if i = 0 then f c else c) cols

(* A server whose Fetch_rows answers are reshaped by [tamper]. *)
let tampered_conn o tamper =
  let serve = Server_api.session_handler (Backend_mem.view (Backend_mem.of_store o.System.enc)) in
  Server_api.connect_handler ~name:"mem" ~close:ignore ~handle:(fun up ->
      let down = serve up in
      match Wire.response_of_string down with
      | Wire.R_rows cols -> Wire.response_to_string (Wire.R_rows (tamper cols))
      | _ -> down)

let test_misshapen_rows_refused () =
  let o = owner () in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let rep = o.System.plan.Snf_core.Normalizer.representation in
  let expect msg tamper q =
    let conn = tampered_conn o tamper in
    Alcotest.check_raises msg (Invalid_argument ("Executor: " ^ msg)) (fun () ->
        ignore (Executor.run_conn o.System.client conn rep q));
    (* The same query twice in a batch: both members read one shared
       window. *)
    Alcotest.check_raises (msg ^ ", shared window") (Invalid_argument ("Executor: " ^ msg))
      (fun () -> ignore (Executor.run_batch o.System.client conn rep [ q; q ]))
  in
  (* The first column loses its last row and is coded afresh, so a
     coded column arrives short in canonical form. *)
  let short =
    first_column (fun c ->
        let cells = Wire.column_cells c in
        Scan_reference.rows_column_of_cells (Array.sub cells 0 (max 0 (Array.length cells - 1))))
  in
  let extra cols = Array.append cols [| Wire.Cells [||] |] in
  let point = Query.point ~select:[ "note" ] [ ("code", Value.Text "c1") ] in
  let joined = Query.point ~select:[ "amount" ] [ ("key", Value.Int 2) ] in
  List.iter
    (fun q ->
      expect "row fetch returned a short column" short q;
      expect "row fetch returned a wrong number of columns" extra q)
    (point :: joined :: coded_queries)

(* Tampering with a coded column's codes or entries ends typed: a
   malformed coding is refused by the decoder, and a damaged dictionary
   entry fails its one decrypt. *)
let test_coded_tampering_typed () =
  let o = owner () in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let rep = o.System.plan.Snf_core.Normalizer.representation in
  let single tamper q = Executor.run_conn o.System.client (tampered_conn o tamper) rep q in
  (* The query twice in one batch: both members read its shared windows. *)
  let shared tamper q =
    match Executor.run_batch o.System.client (tampered_conn o tamper) rep [ q; q ] with
    | [ first; _ ] -> first
    | _ -> Alcotest.fail "a batch of two returned other than two results"
  in
  let coded f = function Wire.Coded { dict; codes } -> f dict codes | c -> c in
  let malformed =
    [ ( "a code past the dictionary",
        coded (fun dict codes ->
            let codes = Array.copy codes in
            codes.(Array.length codes - 1) <- Array.length dict;
            Wire.Coded { dict; codes }),
        "code" );
      ( "identity codes under the dictionary tag",
        coded (fun dict codes ->
            Wire.Coded
              { dict = Array.map (Array.get dict) codes;
                codes = Array.init (Array.length codes) Fun.id }),
        "identity" ) ]
  in
  let flip_entry =
    coded (fun dict codes ->
        let flip s = String.mapi (fun i ch -> if i = 0 then Char.chr (Char.code ch lxor 1) else ch) s in
        let dict = Array.copy dict in
        dict.(0) <-
          (match dict.(0) with
           | Enc_relation.C_bytes b -> Enc_relation.C_bytes (flip b)
           | Enc_relation.C_ord o -> Enc_relation.C_ord { o with payload = flip o.payload }
           | Enc_relation.C_ore o -> Enc_relation.C_ore { o with payload = flip o.payload }
           | c -> c);
        Wire.Coded { dict; codes })
  in
  List.iteri
    (fun qi q ->
      List.iter
        (fun run ->
          (match run Fun.id q with
           | Ok (ans, _) ->
             Helpers.check_same_bag (Printf.sprintf "q%d untampered" qi) (System.reference o q) ans
           | Error e -> Alcotest.failf "q%d: %s" qi e);
          List.iter
            (fun (name, tamper, word) ->
              match run (first_column tamper) q with
              | exception Invalid_argument msg ->
                let prefix = "Wire: " in
                Alcotest.(check bool)
                  (Printf.sprintf "q%d %s: %S is a Wire error naming the rule" qi name msg)
                  true
                  (String.starts_with ~prefix msg && mentions msg word)
              | _ -> Alcotest.failf "q%d %s: not refused" qi name)
            malformed;
          match run (first_column flip_entry) q with
          | exception Integrity.Corruption c ->
            Alcotest.(check string) (Printf.sprintf "q%d flipped entry" qi) "cell" c.Integrity.where
          | _ -> Alcotest.failf "q%d: a flipped dictionary entry went undetected" qi)
        [ single; shared ])
    coded_queries

let suite =
  [ t "every scheme projected, every path, mem and disk" test_mem_and_disk;
    t "every scheme projected, every path, socket" test_socket;
    t "a short or surplus Fetch_rows column is refused" test_misshapen_rows_refused;
    t "a tampered coded column ends typed" test_coded_tampering_typed ]
