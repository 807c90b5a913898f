(* Fault injection: every class of storage corruption must surface as the
   typed Integrity.Corruption — never as a silently wrong answer. *)

open Helpers
open Snf_relational
open Snf_exec
open Snf_check
module Scheme = Snf_crypto.Scheme

let specs =
  [ { Gen.seed = 11; rows = 12; clusters = [ 3 ]; singles = 3 };
    { Gen.seed = 23; rows = 8; clusters = [ 2; 2 ]; singles = 4 };
    { Gen.seed = 5077; rows = 20; clusters = []; singles = 5 } ]

let campaign_detects_everything () =
  List.iter
    (fun spec ->
      let inst = Gen.instance spec in
      let outcomes = Fault.campaign ~seed:spec.Gen.seed inst in
      check_int
        (Printf.sprintf "%s: all classes attempted" (Gen.spec_to_string spec))
        (List.length Fault.all) (List.length outcomes);
      List.iter
        (fun (o : Fault.outcome) ->
          if o.Fault.applicable && not o.Fault.detected then
            Alcotest.failf "%s: %s NOT detected — %s" (Gen.spec_to_string spec)
              (Fault.name o.Fault.kind) o.Fault.detail)
        outcomes)
    specs;
  (* The campaign must really exercise every class somewhere. *)
  let applicable =
    List.concat_map
      (fun spec -> Fault.campaign ~seed:spec.Gen.seed (Gen.instance spec))
      specs
    |> List.filter (fun (o : Fault.outcome) -> o.Fault.applicable)
    |> List.map (fun (o : Fault.outcome) -> Fault.name o.Fault.kind)
    |> List.sort_uniq String.compare
  in
  Alcotest.(check (list string))
    "every fault class applicable in some instance"
    (List.sort_uniq String.compare (List.map Fault.name Fault.all))
    applicable

(* A small deterministic system for targeted, per-where assertions. *)
let det_system name =
  let r = relation_of_int_rows [ "A"; "B" ] [ [ 1; 10 ]; [ 2; 20 ]; [ 1; 30 ] ] in
  let policy =
    Snf_core.Policy.create [ ("A", Scheme.Det); ("B", Scheme.Ndet) ]
  in
  let g = Snf_deps.Dep_graph.create [ "A"; "B" ] in
  let g = Snf_deps.Dep_graph.declare_independent g "A" "B" in
  System.outsource_prepared ~name ~graph:g
    ~representation:
      [ Snf_core.Partition.leaf "l0" [ ("A", Scheme.Det) ];
        Snf_core.Partition.leaf "l1" [ ("B", Scheme.Ndet) ] ]
    r policy

let expect_corruption ~where ?mode ?use_index owner q =
  match System.query_checked ?mode ?use_index owner q with
  | Error (`Corruption c) ->
    check_string "corruption site" where c.Integrity.where;
    check_bool "printable" true (String.length (Integrity.to_string c) > 0)
  | Error (`Plan e) -> Alcotest.failf "planner error, not detection: %s" e
  | Ok (ans, _) ->
    Alcotest.failf "undetected: got %d rows from a damaged store"
      (Relation.cardinality ans)

let scan = { Query.select = [ "A"; "B" ]; where = [] }

let flipped_cell_where () =
  let owner = det_system "fault-cell" in
  let enc, _ = Fault.flip_cell ~seed:4 owner.System.enc ~leaf:"l0" ~attr:"A" in
  expect_corruption ~where:"cell" { owner with System.enc } scan

let flipped_tid_where () =
  let owner = det_system "fault-tid" in
  let enc, _ = Fault.flip_tid ~seed:4 owner.System.enc ~leaf:"l0" in
  expect_corruption ~where:"tid" { owner with System.enc } scan

let swapped_tid_where () =
  let owner = det_system "fault-swap" in
  let enc = Fault.swap_tids ~seed:4 owner.System.enc ~leaf:"l0" in
  expect_corruption ~where:"tid" { owner with System.enc } scan

let duplicated_tid_where () =
  let owner = det_system "fault-dup" in
  let enc = Fault.dup_tid ~seed:4 owner.System.enc ~leaf:"l1" in
  expect_corruption ~where:"tid" { owner with System.enc } scan

let truncated_leaf_where () =
  let owner = det_system "fault-trunc" in
  let enc = Fault.truncate_leaf owner.System.enc ~leaf:"l1" in
  expect_corruption ~where:"leaf" { owner with System.enc } scan

let dropped_leaf_where () =
  let owner = det_system "fault-drop" in
  let enc = Fault.drop_leaf owner.System.enc ~leaf:"l1" in
  expect_corruption ~where:"store" { owner with System.enc } scan

(* The same damage under the anchor paths, [`Oram] and [`Binning 4]. In
   [det_system]'s scan both leaves keep every row, so [l0] anchors and
   [l1] is the partner, whose wanted rows are all of its rows: a flipped
   partner cell, a truncated partner and a dropped partner end in typed
   corruption, as does a flipped anchor cell. The anchor paths link rows
   through the client's keyed row permutation and read no tid
   ciphertext, so a flipped or swapped tid is damage no query on them
   touches: it must leave the answer oracle-correct. *)
let anchor_paths_detect mode () =
  let owner name = det_system ("fault-anchor " ^ name) in
  let cases =
    [ ("cell", "partner cell", fun enc -> fst (Fault.flip_cell ~seed:4 enc ~leaf:"l1" ~attr:"B"));
      ("cell", "anchor cell", fun enc -> fst (Fault.flip_cell ~seed:4 enc ~leaf:"l0" ~attr:"A"));
      ("leaf", "truncated partner", fun enc -> Fault.truncate_leaf enc ~leaf:"l1");
      ("store", "dropped partner", fun enc -> Fault.drop_leaf enc ~leaf:"l1") ]
  in
  List.iter
    (fun (where, name, damage) ->
      let o = owner name in
      expect_corruption ~where ~mode { o with System.enc = damage o.System.enc } scan)
    cases;
  List.iter
    (fun (name, damage) ->
      let o = owner name in
      match System.query_checked ~mode { o with System.enc = damage o.System.enc } scan with
      | Ok (ans, _) -> check_same_bag (name ^ ": oracle-correct") (System.reference o scan) ans
      | Error (`Corruption c) ->
        Alcotest.failf "%s: a tid no anchor path reads raised %s" name (Integrity.to_string c)
      | Error (`Plan e) -> Alcotest.fail e)
    [ ("flipped partner tid", fun enc -> fst (Fault.flip_tid ~seed:4 enc ~leaf:"l1"));
      ("swapped partner tids", fun enc -> Fault.swap_tids ~seed:4 enc ~leaf:"l1") ]

(* Swap the index entries of A = 1 and A = 2, then ask for A = 1. With
   [use_index] the swap reaches the client through a probe; without, an
   equality filter is answered from the same index on the server, which
   checks the slots it keeps against the cells. Both must detect it. *)
let stale_index ~use_index name () =
  let owner = det_system name in
  let key v =
    match
      Enc_relation.eq_token owner.System.client ~leaf:"l0" ~attr:"A"
        ~scheme:Scheme.Det (Value.Int v)
    with
    | Some tok -> Option.get (Enc_relation.index_key_of_token tok)
    | None -> Alcotest.fail "no token for a DET column"
  in
  check_bool "index poisoned" true
    (Fault.poison_index owner.System.enc ~leaf:"l0" ~attr:"A" ~key_a:(key 1)
       ~key_b:(key 2));
  expect_corruption ~where:"index" ~use_index owner
    (Query.point ~select:[ "A" ] [ ("A", Value.Int 1) ])

let stale_index_where = stale_index ~use_index:true "fault-stale"
let stale_index_filter_where = stale_index ~use_index:false "fault-stale-filter"

(* Remap one slot's class in its column's form, then fetch every row.
   A fetch of more than [Wire.small_rows] rows is coded from the form,
   and the server tests each fetched row's cell against its class's
   representative, so the remapped row is caught even though it is not
   the first fetched row of either class. *)
let remapped_class_where () =
  let rows = 2 * Wire.small_rows + 1 in
  let r = relation_of_int_rows [ "A" ] (List.init rows (fun i -> [ i mod 3 ])) in
  let owner =
    System.outsource_prepared ~name:"fault-class" ~graph:(Snf_deps.Dep_graph.create [ "A" ])
      ~representation:[ Snf_core.Partition.leaf "l0" [ ("A", Scheme.Det) ] ]
      r
      (Snf_core.Policy.create [ ("A", Scheme.Det) ])
  in
  let col = Enc_relation.column (Enc_relation.find_leaf owner.System.enc "l0") "A" in
  let form = Option.get (Enc_relation.form col) in
  let class_of = form.Enc_relation.class_of in
  let slot = rows - 1 in
  let remapped = (class_of.(slot) + 1) mod Array.length form.Enc_relation.class_rep in
  let earlier c = Array.exists (( = ) c) (Array.sub class_of 0 slot) in
  check_bool "both classes occur before the slot" true
    (earlier class_of.(slot) && earlier remapped);
  class_of.(slot) <- remapped;
  expect_corruption ~where:"index" owner { Query.select = [ "A" ]; where = [] }

(* A DET group column beside a PHE sum column, for the Group_sum faults. *)
let group_system name =
  let r = relation_of_int_rows [ "A"; "S" ] (List.init 12 (fun i -> [ i mod 3; i ])) in
  let g = Snf_deps.Dep_graph.declare_independent (Snf_deps.Dep_graph.create [ "A"; "S" ]) "A" "S" in
  System.outsource_prepared ~name ~graph:g
    ~representation:[ Snf_core.Partition.leaf "l0" [ ("A", Scheme.Det); ("S", Scheme.Phe) ] ]
    r
    (Snf_core.Policy.create [ ("A", Scheme.Det); ("S", Scheme.Phe) ])

let group_sum owner =
  List.map
    (fun (v, s) -> (Value.to_string v, s))
    (System.group_sum owner ~leaf:"l0" ~group_by:"A" ~sum:"S")

(* Group_sum groups the group column's own cells, never its form's key
   map: two present keys swapped in the map, or a present key swapped
   with an absent one, leave the server's answer byte for byte as it
   was. *)
let poisoned_keys_group_sum () =
  let owner = group_system "fault-group-keys" in
  let groups () =
    let enc = owner.System.enc in
    Wire.response_to_string
      (Wire.R_groups
         (Enc_relation.phe_group_sum enc.Enc_relation.paillier_public
            (Enc_relation.find_leaf enc "l0") ~group_by:"A" ~sum:"S"))
  in
  let intact = groups () in
  Alcotest.(check (list (pair string int))) "intact" [ ("0", 18); ("1", 22); ("2", 26) ]
    (group_sum owner);
  let key v =
    match
      Enc_relation.eq_token owner.System.client ~leaf:"l0" ~attr:"A" ~scheme:Scheme.Det (Value.Int v)
    with
    | Some tok -> Option.get (Enc_relation.index_key_of_token tok)
    | None -> Alcotest.fail "no token for a DET column"
  in
  List.iter
    (fun (a, b) ->
      check_bool "index poisoned" true
        (Fault.poison_index owner.System.enc ~leaf:"l0" ~attr:"A" ~key_a:(key a) ~key_b:(key b));
      check_string "key map poisoned" intact (groups ()))
    [ (0, 1); (2, 99) ]

(* Remap one slot's class: Group_sum tests every slot's cell against its
   class's representative, so the remapped slot is corruption
   where="index", not a row moved to another group. *)
let remapped_class_group_sum () =
  let owner = group_system "fault-group-class" in
  let col = Enc_relation.column (Enc_relation.find_leaf owner.System.enc "l0") "A" in
  let form = Option.get (Enc_relation.form col) in
  let class_of = form.Enc_relation.class_of in
  class_of.(7) <- (class_of.(7) + 1) mod Array.length form.Enc_relation.class_rep;
  match group_sum owner with
  | exception Integrity.Corruption c -> check_string "corruption site" "index" c.Integrity.where
  | got -> Alcotest.failf "undetected: %d groups from a damaged form" (List.length got)

(* A PHE cell that is no Paillier ciphertext (0, n or n^2: none is a unit
   mod n) is corruption where="cell", on its own decrypt and in a query,
   also after the column's cells were read once: a replaced cell has
   other bytes than the one that was read. A fold over such a cell is 0
   mod n^2, and [System.sum] and [System.group_sum] type that zero sum as
   corruption too. *)
let phe_non_ciphertext_where () =
  let owner = group_system "fault-phe-unit" in
  let enc = owner.System.enc in
  let project_s = { Query.select = [ "S" ]; where = [] } in
  (match System.query owner project_s with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "warm-up query: %s" e);
  let n = enc.Enc_relation.paillier_public.Snf_crypto.Paillier.n in
  let expect_cell what f =
    match f () with
    | exception Integrity.Corruption c -> check_string (what ^ ": corruption site") "cell" c.Integrity.where
    | _ -> Alcotest.failf "%s: undetected" what
  in
  List.iter
    (fun (what, bad) ->
      expect_cell what (fun () ->
          Enc_relation.decrypt_cell owner.System.client ~leaf:"l0" ~attr:"S" ~scheme:Scheme.Phe
            (Enc_relation.C_nat bad)))
    [ ("cell 0", Snf_bignum.Nat.zero); ("cell n", n); ("cell n^2", Snf_bignum.Nat.mul n n) ];
  let cells = (Enc_relation.column (Enc_relation.find_leaf enc "l0") "S").Enc_relation.cells in
  cells.(4) <- Enc_relation.C_nat Snf_bignum.Nat.zero;
  expect_cell "sum of 0" (fun () -> System.sum owner ~leaf:"l0" ~attr:"S");
  expect_cell "group sum of 0" (fun () -> group_sum owner);
  expect_corruption ~where:"cell" owner project_s

let key_mismatch_where () =
  let owner = det_system "fault-key" in
  let impostor = Fault.mismatched_client ~name:"fault-key" in
  (* A single-leaf projection: the first decrypt under the wrong key is a
     cell (the two-leaf join path would already die at a tid decrypt). *)
  expect_corruption ~where:"cell" { owner with System.client = impostor }
    { Query.select = [ "A" ]; where = [] }

let honest_store_unflagged () =
  (* The detection machinery must not fire on an intact store. *)
  let owner = det_system "fault-honest" in
  List.iter
    (fun use_index ->
      match System.query_checked ~use_index owner scan with
      | Ok (ans, _) -> check_int "full answer" 3 (Relation.cardinality ans)
      | Error (`Plan e) -> Alcotest.fail e
      | Error (`Corruption c) ->
        Alcotest.failf "false positive: %s" (Integrity.to_string c))
    [ false; true ]

let plain_flip_is_inert () =
  (* PLAIN carries no cryptographic protection, so corrupt_cell leaves it
     alone (and the campaign never picks PLAIN/PHE as flip targets): a
     "flip" on a PLAIN column must change nothing — the documented
     exclusion, not a silent wrong answer. *)
  let r = relation_of_int_rows [ "A"; "P" ] [ [ 1; 10 ]; [ 2; 20 ] ] in
  let policy =
    Snf_core.Policy.create [ ("A", Scheme.Det); ("P", Scheme.Plain) ]
  in
  let g = Snf_deps.Dep_graph.declare_independent
      (Snf_deps.Dep_graph.create [ "A"; "P" ]) "A" "P"
  in
  let owner =
    System.outsource_prepared ~name:"fault-plain" ~graph:g
      ~representation:
        [ Snf_core.Partition.leaf "l0" [ ("A", Scheme.Det); ("P", Scheme.Plain) ] ]
      r policy
  in
  let enc, _ = Fault.flip_cell ~seed:8 owner.System.enc ~leaf:"l0" ~attr:"P" in
  match System.query_checked { owner with System.enc }
          { Query.select = [ "A"; "P" ]; where = [] }
  with
  | Ok (ans, _) ->
    check_same_bag "PLAIN column untouched by the injector" r ans
  | Error (`Plan e) -> Alcotest.fail e
  | Error (`Corruption c) ->
    Alcotest.failf "PLAIN flip should be inert: %s" (Integrity.to_string c)

let suite =
  [ Alcotest.test_case "campaign: applicable ⇒ detected" `Slow
      campaign_detects_everything;
    Alcotest.test_case "flipped cell → where=cell" `Quick flipped_cell_where;
    Alcotest.test_case "flipped tid → where=tid" `Quick flipped_tid_where;
    Alcotest.test_case "swapped tids → where=tid" `Quick swapped_tid_where;
    Alcotest.test_case "duplicated tid → where=tid" `Quick duplicated_tid_where;
    Alcotest.test_case "truncated leaf → where=leaf" `Quick truncated_leaf_where;
    Alcotest.test_case "dropped leaf → where=store" `Quick dropped_leaf_where;
    Alcotest.test_case "partner damage under oram → typed corruption" `Quick
      (anchor_paths_detect `Oram);
    Alcotest.test_case "partner damage under binning(4) → typed corruption" `Quick
      (anchor_paths_detect (`Binning 4));
    Alcotest.test_case "stale index → where=index" `Quick stale_index_where;
    Alcotest.test_case "key mismatch → where=cell" `Quick key_mismatch_where;
    Alcotest.test_case "honest store never flagged" `Quick honest_store_unflagged;
    Alcotest.test_case "PLAIN flip is inert (documented exclusion)" `Quick
      plain_flip_is_inert;
    Alcotest.test_case "stale index → where=index on a filter" `Quick
      stale_index_filter_where;
    Alcotest.test_case "remapped class → where=index on a coded fetch" `Quick
      remapped_class_where;
    Alcotest.test_case "poisoned key map leaves Group_sum unchanged" `Quick
      poisoned_keys_group_sum;
    Alcotest.test_case "remapped class → where=index on Group_sum" `Quick
      remapped_class_group_sum;
    Alcotest.test_case "PHE non-ciphertext cell and zero sum → where=cell" `Quick
      phe_non_ciphertext_where ]
