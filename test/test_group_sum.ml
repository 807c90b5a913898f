open Snf_relational
open Snf_exec
module Scheme = Snf_crypto.Scheme

let t name f = Alcotest.test_case name `Quick f

let owner () =
  let r =
    Relation.create
      (Schema.of_attributes
         [ Attribute.text "dept"; Attribute.int "salary"; Attribute.text "name" ])
      [ [| Value.Text "eng"; Value.Int 100; Value.Text "a" |];
        [| Value.Text "eng"; Value.Int 150; Value.Text "b" |];
        [| Value.Text "hr"; Value.Int 90; Value.Text "c" |];
        [| Value.Text "hr"; Value.Int 10; Value.Text "d" |];
        [| Value.Text "ops"; Value.Int 75; Value.Text "e" |] ]
  in
  let policy =
    Snf_core.Policy.create
      [ ("dept", Scheme.Det); ("salary", Scheme.Phe); ("name", Scheme.Ndet) ]
  in
  let g = Snf_deps.Dep_graph.create [ "dept"; "salary"; "name" ] in
  let g = Snf_deps.Dep_graph.declare_independent g "dept" "salary" in
  let g = Snf_deps.Dep_graph.declare_independent g "dept" "name" in
  let g = Snf_deps.Dep_graph.declare_independent g "salary" "name" in
  System.outsource ~name:"gsum" ~graph:g r policy

let leaf_with owner attr =
  List.find
    (fun (l : Snf_core.Partition.leaf) -> Snf_core.Partition.mem_leaf l attr)
    owner.System.plan.Snf_core.Normalizer.representation

let test_group_sum () =
  let o = owner () in
  let leaf = leaf_with o "salary" in
  Alcotest.(check bool) "dept co-located with salary" true
    (Snf_core.Partition.mem_leaf leaf "dept");
  let groups =
    System.group_sum o ~leaf:leaf.Snf_core.Partition.label ~group_by:"dept" ~sum:"salary"
  in
  Alcotest.(check (list (pair string int)))
    "grouped homomorphic sums"
    [ ("eng", 250); ("hr", 100); ("ops", 75) ]
    (List.map (fun (v, s) -> (Value.to_string v, s)) groups)

let test_group_sum_server_side_only () =
  (* The server-side call alone returns ciphertexts: group representatives
     are DET cells, sums are Paillier residues — nothing in plaintext. *)
  let o = owner () in
  let leaf = Enc_relation.find_leaf o.System.enc (leaf_with o "salary").Snf_core.Partition.label in
  let pairs = Enc_relation.phe_group_sum o.System.enc.Enc_relation.paillier_public leaf ~group_by:"dept" ~sum:"salary" in
  Alcotest.(check int) "three groups" 3 (List.length pairs);
  List.iter
    (fun (rep, _) ->
      match rep with
      | Enc_relation.C_bytes _ -> ()
      | _ -> Alcotest.fail "expected DET ciphertext representative")
    pairs

let test_group_sum_validation () =
  let o = owner () in
  let leaf = Enc_relation.find_leaf o.System.enc (leaf_with o "salary").Snf_core.Partition.label in
  Alcotest.(check bool) "ndet group key rejected" true
    (try
       ignore (Enc_relation.phe_group_sum o.System.enc.Enc_relation.paillier_public leaf ~group_by:"name" ~sum:"salary");
       false
     with Invalid_argument _ | Not_found -> true);
  Alcotest.(check bool) "non-phe sum rejected" true
    (try
       ignore (Enc_relation.phe_group_sum o.System.enc.Enc_relation.paillier_public leaf ~group_by:"dept" ~sum:"dept");
       false
     with Invalid_argument _ -> true)

let prop_group_sum_matches_plaintext =
  Helpers.qtest ~count:30 "grouped sums match the plaintext group-by"
    QCheck2.Gen.(list_size (int_range 1 20) (pair (int_bound 3) (int_bound 50)))
    (fun rows ->
      let r =
        Helpers.relation_of_int_rows [ "g"; "x" ]
          (List.map (fun (g, x) -> [ g; x ]) rows)
      in
      let policy = Snf_core.Policy.create [ ("g", Scheme.Det); ("x", Scheme.Phe) ] in
      let dg = Snf_deps.Dep_graph.create [ "g"; "x" ] in
      let dg = Snf_deps.Dep_graph.declare_independent dg "g" "x" in
      let o = System.outsource ~name:"gs" ~graph:dg r policy in
      let leaf = leaf_with o "x" in
      if not (Snf_core.Partition.mem_leaf leaf "g") then true
      else begin
        let secure =
          System.group_sum o ~leaf:leaf.Snf_core.Partition.label ~group_by:"g" ~sum:"x"
          |> List.map (fun (v, s) -> (Value.to_int_exn v, s))
        in
        let plain = Hashtbl.create 8 in
        List.iter
          (fun (g, x) ->
            Hashtbl.replace plain g (x + Option.value (Hashtbl.find_opt plain g) ~default:0))
          rows;
        let expected =
          Hashtbl.fold (fun g s acc -> (g, s) :: acc) plain [] |> List.sort compare
        in
        secure = expected
      end)

(* The server's folds against the [add] chain they replaced, bit
   for bit: [phe_sum] over the whole column, and [phe_group_sum] per
   group (a group of one keeps its cell as-is). The groups hold 600 rows,
   one row and two rows. *)
let test_folds_match_add_chain () =
  let rows =
    List.init 603 (fun i -> [ (if i < 600 then 0 else if i = 600 then 1 else 2); i * 13 ])
  in
  let r = Helpers.relation_of_int_rows [ "g"; "x" ] rows in
  let policy = Snf_core.Policy.create [ ("g", Scheme.Det); ("x", Scheme.Phe) ] in
  let dg = Snf_deps.Dep_graph.declare_independent (Snf_deps.Dep_graph.create [ "g"; "x" ]) "g" "x" in
  let o = System.outsource ~name:"fold" ~graph:dg r policy in
  let enc = o.System.enc in
  let pk = enc.Enc_relation.paillier_public in
  let leaf = Enc_relation.find_leaf enc (leaf_with o "x").Snf_core.Partition.label in
  let nat = function Enc_relation.C_nat n -> n | _ -> Alcotest.fail "not a PHE cell" in
  let chain = function
    | [] -> Snf_bignum.Nat.zero
    | c :: rest -> List.fold_left (Snf_reference.Paillier_reference.add pk) c rest
  in
  let cells attr = Array.to_list (Enc_relation.column leaf attr).Enc_relation.cells in
  let hex n = Snf_bignum.Nat.to_string n in
  Alcotest.(check string) "phe_sum" (hex (chain (List.map nat (cells "x"))))
    (hex (Enc_relation.phe_sum enc.Enc_relation.paillier_public leaf "x"));
  let expected =
    List.sort_uniq compare (cells "g")
    |> List.map (fun g ->
           List.combine (cells "g") (cells "x")
           |> List.filter_map (fun (g', x) -> if g' = g then Some (nat x) else None)
           |> chain |> hex)
  in
  let got = List.map (fun (_, n) -> hex n) (Enc_relation.phe_group_sum enc.Enc_relation.paillier_public leaf ~group_by:"g" ~sum:"x") in
  Alcotest.(check (list string)) "phe_group_sum"
    (List.sort compare expected) (List.sort compare got);
  Alcotest.(check (list int)) "group sizes decrypt" [ 600 * 599 / 2 * 13; 600 * 13; (601 + 602) * 13 ]
    (List.map snd
       (System.group_sum o ~leaf:leaf.Enc_relation.label ~group_by:"g" ~sum:"x"))

let suite =
  [ t "group sum end to end" test_group_sum;
    t "phe_sum and phe_group_sum equal the add chain" test_folds_match_add_chain;
    t "group sum stays encrypted server-side" test_group_sum_server_side_only;
    t "group sum validation" test_group_sum_validation;
    prop_group_sum_matches_plaintext ]
