(* Shared builders and checkers for the test suite. *)

open Snf_relational

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- relations ----------------------------------------------------------- *)

let schema_of_names names = Schema.of_attributes (List.map Attribute.int names)

let relation_of_int_rows names rows =
  Relation.create (schema_of_names names)
    (List.map (fun r -> Array.of_list (List.map (fun i -> Value.Int i) r)) rows)

(* The running example of the paper: tid-free (State, ZipCode) with
   ZipCode -> State, plus a free Income column. *)
let example1_relation () =
  Relation.create
    (Schema.of_attributes
       [ Attribute.text "State"; Attribute.int "ZipCode"; Attribute.int "Income" ])
    [ [| Value.Text "CA"; Value.Int 94016; Value.Int 120 |];
      [| Value.Text "CA"; Value.Int 94016; Value.Int 80 |];
      [| Value.Text "NY"; Value.Int 10001; Value.Int 95 |];
      [| Value.Text "NY"; Value.Int 10001; Value.Int 60 |];
      [| Value.Text "TX"; Value.Int 73301; Value.Int 70 |];
      [| Value.Text "CA"; Value.Int 90210; Value.Int 300 |] ]

let example1_policy () =
  Snf_core.Policy.create
    [ ("State", Snf_crypto.Scheme.Ndet);
      ("ZipCode", Snf_crypto.Scheme.Det);
      ("Income", Snf_crypto.Scheme.Ope) ]

let example1_graph () =
  let g = Snf_deps.Dep_graph.create [ "State"; "ZipCode"; "Income" ] in
  let g = Snf_deps.Dep_graph.add_fd g (Fd.make [ "ZipCode" ] [ "State" ]) in
  let g = Snf_deps.Dep_graph.declare_independent g "Income" "State" in
  Snf_deps.Dep_graph.declare_independent g "Income" "ZipCode"

(* Bag (multiset) equality of two relations with identical column order. *)
let bag r =
  Relation.rows r
  |> List.map (fun row ->
         String.concat "\x00" (List.map Value.encode (Array.to_list row)))
  |> List.sort String.compare

let check_same_bag msg a b = Alcotest.(check (list string)) msg (bag a) (bag b)

(* --- random instances for property tests --------------------------------- *)

let scheme_gen =
  QCheck2.Gen.oneofl
    Snf_crypto.Scheme.[ Plain; Ndet; Det; Ope; Ore; Phe ]

(* A random (policy, dep-graph) pair over n attributes named a0..a(n-1),
   with each unordered pair independently declared dependent with
   probability ~1/3 (and explicitly independent otherwise, so the
   specification is complete). *)
let instance_gen =
  let open QCheck2.Gen in
  let* n = int_range 2 7 in
  let names = List.init n (fun i -> Printf.sprintf "a%d" i) in
  let* schemes = list_repeat n scheme_gen in
  let* edges =
    list_repeat (n * (n - 1) / 2) (int_range 0 2)
  in
  let policy = Snf_core.Policy.create (List.combine names schemes) in
  let g = ref (Snf_deps.Dep_graph.create names) in
  let k = ref 0 in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if j > i then begin
            (if List.nth edges !k = 0 then g := Snf_deps.Dep_graph.declare_dependent !g a b
             else g := Snf_deps.Dep_graph.declare_independent !g a b);
            incr k
          end)
        names)
    names;
  return (names, policy, !g)

(* --- stored content ------------------------------------------------------ *)

(* A digest of what a store holds: each leaf's label and tids, and each
   column's attribute and cells, rendered without [Wire]. It pins the
   content a store image decodes to, not the image's byte format. *)
let store_content_digest (enc : Snf_exec.Enc_relation.t) =
  let module E = Snf_exec.Enc_relation in
  let buf = Buffer.create 4096 in
  let cell = function
    | E.C_plain v -> Printf.bprintf buf "plain %S\n" (Value.encode v)
    | E.C_bytes b -> Printf.bprintf buf "bytes %S\n" b
    | E.C_ord { ord; payload } -> Printf.bprintf buf "ord %d %S\n" ord payload
    | E.C_ore { ore; payload } ->
      Printf.bprintf buf "ore %s %S\n"
        (String.concat "" (List.map string_of_int (Array.to_list (Snf_crypto.Ore.symbols ore))))
        payload
    | E.C_nat n -> Printf.bprintf buf "nat %s\n" (Snf_bignum.Nat.to_string n)
  in
  List.iter
    (fun (l : E.enc_leaf) ->
      Printf.bprintf buf "leaf %S\n" l.E.label;
      Array.iter (Printf.bprintf buf "tid %S\n") l.E.tids;
      List.iter
        (fun (col : E.enc_column) ->
          Printf.bprintf buf "column %S\n" col.E.attr;
          Array.iter cell col.E.cells)
        l.E.columns)
    enc.E.leaves;
  Digest.to_hex (Digest.string (Buffer.contents buf))
