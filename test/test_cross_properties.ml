(* Cross-cutting invariants tying several components together. *)

open Snf_relational
open Snf_crypto

let t name f = Alcotest.test_case name `Quick f

(* OPE and ORE are independent implementations of the same leakage
   profile: their comparison verdicts must always agree. *)
let prop_ope_ore_agree =
  Helpers.qtest ~count:300 "ope and ore comparisons agree"
    QCheck2.Gen.(pair (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (a, b) ->
      let key = Prf.key_of_string "xchk" in
      let ope = Ope.create ~key ~domain_bits:16 () in
      let ore = Ore.create ~key ~bits:16 in
      let via_ope = compare (Ope.encrypt ope a) (Ope.encrypt ope b) in
      let via_ore = Ore.compare_ciphertexts (Ore.encrypt ore a) (Ore.encrypt ore b) in
      via_ope = via_ore && via_ope = compare a b)

(* CSV round-trips arbitrary typed relations. *)
let value_of_ty ty =
  let open QCheck2.Gen in
  match ty with
  | Value.TInt -> map (fun i -> Value.Int i) (int_range (-1000) 1000)
  | Value.TBool -> map (fun b -> Value.Bool b) bool
  | Value.TFloat -> map (fun f -> Value.Float f) (float_range (-100.) 100.)
  | Value.TText ->
    map (fun s -> Value.Text s)
      (string_size ~gen:(oneofl [ 'a'; 'b'; ','; '"'; ' '; '\n' ]) (int_bound 6))

let prop_csv_roundtrip_random =
  let gen =
    let open QCheck2.Gen in
    let* tys = list_size (int_range 1 4) (oneofl Value.[ TInt; TBool; TFloat; TText ]) in
    let* rows = list_size (int_bound 12) (flatten_l (List.map value_of_ty tys)) in
    return (tys, rows)
  in
  Helpers.qtest ~count:100 "csv roundtrips random typed relations" gen
    (fun (tys, rows) ->
      let schema =
        Schema.of_attributes
          (List.mapi (fun i ty -> Attribute.make (Printf.sprintf "c%d" i) ty) tys)
      in
      let r = Relation.create schema (List.map Array.of_list rows) in
      Relation.equal_as_sets r (Csv.of_string (Csv.to_string r)))

(* tighten(non_repeating) and max_repeating produce maximal representations
   with identical leaf counts. *)
let prop_tighten_equiv_max_repeating =
  Helpers.qtest ~count:50 "tighten(nr) and max-repeating agree on structure"
    Helpers.instance_gen (fun (_, policy, g) ->
      let open Snf_core in
      let nr = Strategy.non_repeating g policy in
      let tightened = Maximal.tighten g policy nr in
      let mr = Strategy.max_repeating g policy in
      List.length tightened = List.length mr
      && Partition.total_columns tightened = Partition.total_columns mr)

(* The wire image preserves query answers on random instances. *)
let prop_wire_preserves_answers =
  Helpers.qtest ~count:30 "wire roundtrip preserves query answers"
    QCheck2.Gen.(
      pair (list_size (int_range 1 15) (pair (int_bound 4) (int_bound 9))) (int_bound 4))
    (fun (rows, needle) ->
      let r =
        Helpers.relation_of_int_rows [ "k"; "v" ] (List.map (fun (k, v) -> [ k; v ]) rows)
      in
      let policy =
        Snf_core.Policy.create
          [ ("k", Snf_crypto.Scheme.Det); ("v", Snf_crypto.Scheme.Ndet) ]
      in
      let g = Snf_deps.Dep_graph.create [ "k"; "v" ] in
      let g = Snf_deps.Dep_graph.declare_dependent g "k" "v" in
      let o = Snf_exec.System.outsource ~name:"wp" ~graph:g r policy in
      let enc' = Snf_exec.Wire.of_string (Snf_exec.Wire.to_string o.Snf_exec.System.enc) in
      let q = Snf_exec.Query.point ~select:[ "v" ] [ ("k", Value.Int needle) ] in
      let rep = o.Snf_exec.System.plan.Snf_core.Normalizer.representation in
      let conn =
        Snf_exec.Server_api.connect
          (module Snf_exec.Backend_mem)
          (Snf_exec.Backend_mem.of_store enc')
      in
      Fun.protect ~finally:(fun () -> Snf_exec.Server_api.close conn) @@ fun () ->
      match
        ( Snf_exec.Executor.run_conn o.Snf_exec.System.client conn rep q,
          Snf_exec.System.query o q )
      with
      | Ok (a, _), Ok (b, _) -> Helpers.bag a = Helpers.bag b
      | _ -> false)

(* Restriction of a dependence graph never invents dependence. *)
let prop_restrict_conservative =
  Helpers.qtest ~count:100 "restricted graph dependence implies full dependence"
    Helpers.instance_gen (fun (names, _, g) ->
      match names with
      | a :: b :: rest ->
        let keep = Fd.Names.of_list (a :: b :: List.filteri (fun i _ -> i mod 2 = 0) rest) in
        let g' = Snf_deps.Dep_graph.restrict g keep in
        Fd.Names.for_all
          (fun x ->
            Fd.Names.for_all
              (fun y ->
                (not (Snf_deps.Dep_graph.dependent g' x y))
                || Snf_deps.Dep_graph.dependent g x y)
              keep)
          keep
      | _ -> true)

(* Range workload generation: every query is plannable over a rep storing
   its attributes, and reference answers respect the bounds. *)
let test_range_workload () =
  let acs =
    Snf_workload.Acs.generate
      { Snf_workload.Acs.rows = 300; seed = 21; cluster_sizes = [ 4; 3 ]; independent_attrs = 4 }
  in
  let r = acs.Snf_workload.Acs.relation in
  let policy =
    Snf_workload.Sensitivity.annotate ~weak:6 ~ope_share:1.0 ~seed:3 (Relation.schema r)
  in
  let qs = Snf_workload.Query_gen.range_queries ~count:15 ~seed:5 r policy in
  Alcotest.(check int) "fifteen range queries" 15 (List.length qs);
  let o = Snf_exec.System.outsource ~name:"rw" ~graph:acs.Snf_workload.Acs.graph r policy in
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (Format.asprintf "%a" Snf_exec.Query.pp q)
        true
        (Snf_exec.System.verify o q);
      (* bounds are drawn from data: at least one row matches *)
      Alcotest.(check bool) "non-empty answer" true
        (Relation.cardinality (Snf_exec.System.reference o q) > 0))
    qs;
  (* no order-revealing attrs -> empty workload, not an exception *)
  let all_det =
    Snf_core.Policy.create
      (List.map (fun a -> (a, Snf_crypto.Scheme.Det)) (Schema.names (Relation.schema r)))
  in
  Alcotest.(check int) "no ranges without order" 0
    (List.length (Snf_workload.Query_gen.range_queries ~count:5 ~seed:5 r all_det))

(* Policy spec round-trips. *)
let prop_policy_spec_roundtrip =
  Helpers.qtest ~count:100 "policy spec round-trips"
    QCheck2.Gen.(list_size (int_range 1 8) Helpers.scheme_gen)
    (fun schemes ->
      let assignments =
        List.mapi (fun i s -> (Printf.sprintf "attr%d" i, s)) schemes
      in
      let p = Snf_core.Policy.create assignments in
      let p' = Snf_core.Policy.of_spec (Snf_core.Policy.to_spec p) in
      List.for_all
        (fun (a, s) -> Snf_core.Policy.scheme_of p' a = s)
        assignments)

(* Spec_lang declarations round-trip through render/parse. *)
let decl_gen =
  let open QCheck2.Gen in
  let name = map (Printf.sprintf "a%d") (int_bound 6) in
  oneof
    [ map2 (fun l r -> Snf_deps.Spec_lang.Fd ([ l ], [ r ])) name name;
      map2 (fun a b -> Snf_deps.Spec_lang.Dependent (a, b)) name name;
      map2 (fun a b -> Snf_deps.Spec_lang.Independent (a, b)) name name;
      map3
        (fun a b v ->
          Snf_deps.Spec_lang.Conditional_independent (a, b, ("a0", Value.Int v)))
        name name (int_bound 9) ]

let prop_spec_lang_roundtrip =
  Helpers.qtest ~count:100 "spec_lang declarations round-trip"
    QCheck2.Gen.(list_size (int_range 0 8) decl_gen)
    (fun decls ->
      let text =
        String.concat "\n" (List.map Snf_deps.Spec_lang.render_decl decls)
      in
      match Snf_deps.Spec_lang.parse_decls text with
      | Error _ -> false
      | Ok decls' ->
        (* FDs normalize l/r into sets; compare via effect on a graph *)
        let universe = List.init 7 (Printf.sprintf "a%d") in
        let fold ds =
          List.fold_left
            (fun g d ->
              match d with
              | Snf_deps.Spec_lang.Fd (l, r) ->
                Snf_deps.Dep_graph.add_fd g (Fd.make l r)
              | Snf_deps.Spec_lang.Dependent (a, b) when a <> b ->
                Snf_deps.Dep_graph.declare_dependent g a b
              | Snf_deps.Spec_lang.Independent (a, b) when a <> b ->
                Snf_deps.Dep_graph.declare_independent g a b
              | Snf_deps.Spec_lang.Conditional_independent (a, b, on) when a <> b ->
                Snf_deps.Dep_graph.declare_conditional_independent g ~on a b
              | _ -> g)
            (Snf_deps.Dep_graph.create universe)
            ds
        in
        let g = fold decls and g' = fold decls' in
        List.for_all
          (fun a ->
            List.for_all
              (fun b ->
                Snf_deps.Dep_graph.dependent g a b
                = Snf_deps.Dep_graph.dependent g' a b)
              universe)
          universe)

let suite =
  [ prop_ope_ore_agree;
    prop_csv_roundtrip_random;
    prop_tighten_equiv_max_repeating;
    prop_wire_preserves_answers;
    prop_restrict_conservative;
    t "range workload" test_range_workload;
    prop_policy_spec_roundtrip;
    prop_spec_lang_roundtrip ]
