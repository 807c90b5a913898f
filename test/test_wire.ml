open Snf_relational
open Snf_exec
module Scheme = Snf_crypto.Scheme

let t name f = Alcotest.test_case name `Quick f

(* A relation exercising every cell shape: Plain, NDET, DET, OPE, ORE, PHE. *)
let owner () =
  let r =
    Relation.create
      (Schema.of_attributes
         [ Attribute.int "id"; Attribute.text "note"; Attribute.text "code";
           Attribute.int "score"; Attribute.int "level"; Attribute.int "amount" ])
      (List.init 9 (fun i ->
           [| Value.Int i; Value.Text (Printf.sprintf "n%d" i);
              Value.Text (Printf.sprintf "c%d" (i mod 3));
              Value.Int (i * 7 mod 13); Value.Int (i mod 4); Value.Int (i * 10) |]))
  in
  let policy =
    Snf_core.Policy.create
      [ ("id", Scheme.Plain); ("note", Scheme.Ndet); ("code", Scheme.Det);
        ("score", Scheme.Ope); ("level", Scheme.Ore); ("amount", Scheme.Phe) ]
  in
  let g = Snf_deps.Dep_graph.create (Snf_core.Policy.attrs policy) in
  System.outsource ~name:"wire" ~graph:g r policy

let cells_equal (a : Enc_relation.cell) (b : Enc_relation.cell) =
  match (a, b) with
  | Enc_relation.C_plain x, Enc_relation.C_plain y -> Value.equal x y
  | Enc_relation.C_bytes x, Enc_relation.C_bytes y -> String.equal x y
  | ( Enc_relation.C_ord { ord = o1; payload = p1 },
      Enc_relation.C_ord { ord = o2; payload = p2 } ) ->
    o1 = o2 && String.equal p1 p2
  | ( Enc_relation.C_ore { ore = r1; payload = p1 },
      Enc_relation.C_ore { ore = r2; payload = p2 } ) ->
    Snf_crypto.Ore.compare_ciphertexts r1 r2 = 0 && String.equal p1 p2
  | Enc_relation.C_nat x, Enc_relation.C_nat y -> Snf_bignum.Nat.equal x y
  | _ -> false

let test_roundtrip () =
  let o = owner () in
  let enc = o.System.enc in
  let enc' = Wire.of_string (Wire.to_string enc) in
  Alcotest.(check string) "relation name" enc.Enc_relation.relation_name
    enc'.Enc_relation.relation_name;
  Alcotest.(check int) "leaf count" (List.length enc.Enc_relation.leaves)
    (List.length enc'.Enc_relation.leaves);
  List.iter2
    (fun (l : Enc_relation.enc_leaf) (l' : Enc_relation.enc_leaf) ->
      Alcotest.(check string) "label" l.Enc_relation.label l'.Enc_relation.label;
      Alcotest.(check int) "rows" l.Enc_relation.row_count l'.Enc_relation.row_count;
      Alcotest.(check bool) "tids identical" true (l.Enc_relation.tids = l'.Enc_relation.tids);
      List.iter2
        (fun (c : Enc_relation.enc_column) (c' : Enc_relation.enc_column) ->
          Alcotest.(check string) "attr" c.Enc_relation.attr c'.Enc_relation.attr;
          Alcotest.(check bool) "scheme" true (c.Enc_relation.scheme = c'.Enc_relation.scheme);
          Alcotest.(check bool) "cells" true
            (Array.for_all2 cells_equal c.Enc_relation.cells c'.Enc_relation.cells))
        l.Enc_relation.columns l'.Enc_relation.columns)
    enc.Enc_relation.leaves enc'.Enc_relation.leaves;
  Alcotest.(check bool) "paillier modulus" true
    (Snf_bignum.Nat.equal enc.Enc_relation.paillier_public.Snf_crypto.Paillier.n
       enc'.Enc_relation.paillier_public.Snf_crypto.Paillier.n)

(* One query over a fresh in-process connection adopting [enc]. *)
let run_over ?use_index (o : System.owner) enc rep q =
  let conn = Server_api.connect (module Backend_mem) (Backend_mem.of_store enc) in
  Fun.protect ~finally:(fun () -> Server_api.close conn) @@ fun () ->
  Executor.run_conn ?use_index o.System.client conn rep q

let test_loaded_store_is_queryable () =
  let o = owner () in
  let enc' = Wire.of_string (Wire.to_string o.System.enc) in
  let rep = o.System.plan.Snf_core.Normalizer.representation in
  let q = Query.point ~select:[ "note" ] [ ("code", Value.Text "c1") ] in
  match run_over o enc' rep q with
  | Ok (ans, _) ->
    Alcotest.(check int) "answers from the loaded image" 3 (Relation.cardinality ans);
    Alcotest.(check bool) "agrees with reference" true
      (Helpers.bag ans = Helpers.bag (System.reference o q))
  | Error e -> Alcotest.fail e

let test_loaded_phe_sum () =
  let o = owner () in
  let enc' = Wire.of_string (Wire.to_string o.System.enc) in
  let leaf =
    List.find
      (fun (l : Enc_relation.enc_leaf) ->
        List.exists (fun c -> c.Enc_relation.attr = "amount") l.Enc_relation.columns)
      enc'.Enc_relation.leaves
  in
  let cipher = Enc_relation.phe_sum enc'.Enc_relation.paillier_public leaf "amount" in
  let kp = Enc_relation.client_paillier o.System.client in
  Alcotest.(check int) "homomorphic sum over loaded image" 360
    (Snf_bignum.Nat.to_int_exn (Snf_crypto.Paillier.decrypt kp cipher))

let test_corruption_detected () =
  let o = owner () in
  let blob = Wire.to_string o.System.enc in
  let reject s =
    try
      ignore (Wire.of_string s);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bad magic" true (reject ("XXXX" ^ String.sub blob 4 (String.length blob - 4)));
  Alcotest.(check bool) "truncated" true (reject (String.sub blob 0 (String.length blob / 2)));
  Alcotest.(check bool) "trailing bytes" true (reject (blob ^ "junk"));
  let tampered = Bytes.of_string blob in
  Bytes.set tampered 4 '\x7f' (* version *);
  Alcotest.(check bool) "unknown version" true (reject (Bytes.to_string tampered));
  Alcotest.(check bool) "empty" true (reject "")

(* The satellite fix this pins: a store rebuilt from its wire image has an
   empty equality-index cache, yet an indexed query must behave identically
   — same answers, same index-probe accounting, same wire traffic — because
   the index is rebuilt lazily from what the image already carries. *)
let test_loaded_store_indexed_differential () =
  let o = owner () in
  let rep = o.System.plan.Snf_core.Normalizer.representation in
  let queries =
    [ Query.point ~select:[ "note" ] [ ("code", Value.Text "c1") ];
      Query.point ~select:[ "note"; "score" ] [ ("code", Value.Text "c0") ];
      Query.point ~select:[ "id" ] [ ("code", Value.Text "missing") ] ]
  in
  let run enc q =
    match run_over ~use_index:true o enc rep q with
    | Ok (ans, tr) -> (Helpers.bag ans, tr)
    | Error e -> Alcotest.fail e
  in
  let enc' = Wire.of_string (Wire.to_string o.System.enc) in
  List.iteri
    (fun i q ->
      let name fmt = Printf.sprintf "q%d: %s" i fmt in
      let bag0, tr0 = run o.System.enc q in
      let bag1, tr1 = run enc' q in
      Alcotest.(check bool) (name "same answer bag") true (bag0 = bag1);
      Alcotest.(check bool) (name "index served the probe") true
        (tr0.Executor.index_probes > 0);
      Alcotest.(check int) (name "index probes") tr0.Executor.index_probes
        tr1.Executor.index_probes;
      Alcotest.(check int) (name "scanned cells") tr0.Executor.scanned_cells
        tr1.Executor.scanned_cells;
      Alcotest.(check int) (name "wire requests") tr0.Executor.wire_requests
        tr1.Executor.wire_requests;
      Alcotest.(check int) (name "wire bytes up") tr0.Executor.wire_bytes_up
        tr1.Executor.wire_bytes_up;
      Alcotest.(check int) (name "wire bytes down") tr0.Executor.wire_bytes_down
        tr1.Executor.wire_bytes_down)
    queries

let test_save_load_file () =
  let o = owner () in
  let path = Filename.temp_file "snf_wire" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Wire.save path o.System.enc;
      let enc' = Wire.load path in
      Alcotest.(check int) "same measured size"
        (Enc_relation.measured_bytes o.System.enc)
        (Enc_relation.measured_bytes enc'))

let suite =
  [ t "roundtrip all cell shapes" test_roundtrip;
    t "loaded store queryable" test_loaded_store_is_queryable;
    t "loaded phe sum" test_loaded_phe_sum;
    t "corruption detected" test_corruption_detected;
    t "loaded store indexed differential" test_loaded_store_indexed_differential;
    t "save/load file" test_save_load_file ]
