open Snf_relational
open Snf_core
module Scheme = Snf_crypto.Scheme

let t name f = Alcotest.test_case name `Quick f

let small_acs () =
  Snf_workload.Acs.generate
    { Snf_workload.Acs.rows = 400;
      seed = 99;
      cluster_sizes = [ 6; 4; 3 ];
      independent_attrs = 5 }

(* --- Acs generator ------------------------------------------------------------ *)

let test_acs_shape () =
  let acs = small_acs () in
  let schema = Relation.schema acs.Snf_workload.Acs.relation in
  Alcotest.(check int) "attr count" 18 (Schema.arity schema);
  Alcotest.(check int) "row count" 400 (Relation.cardinality acs.Snf_workload.Acs.relation);
  Alcotest.(check int) "clusters" 3 (List.length acs.Snf_workload.Acs.clusters);
  Alcotest.(check bool) "graph complete" true
    (Snf_deps.Dep_graph.completeness acs.Snf_workload.Acs.graph = 1.0)

let test_acs_planted_fds_hold () =
  let acs = small_acs () in
  let r = acs.Snf_workload.Acs.relation in
  List.iter
    (fun cluster ->
      match cluster with
      | root :: members ->
        List.iter
          (fun m ->
            Alcotest.(check bool)
              (Printf.sprintf "%s -> %s holds in data" root m)
              true
              (Fd.holds r (Fd.make [ root ] [ m ])))
          members
      | [] -> ())
    acs.Snf_workload.Acs.clusters

let test_acs_graph_matches_clusters () =
  let acs = small_acs () in
  let g = acs.Snf_workload.Acs.graph in
  let c0 = List.nth acs.Snf_workload.Acs.clusters 0 in
  let c1 = List.nth acs.Snf_workload.Acs.clusters 1 in
  Alcotest.(check bool) "intra-cluster dependent" true
    (Snf_deps.Dep_graph.dependent g (List.nth c0 0) (List.nth c0 2));
  Alcotest.(check bool) "cross-cluster independent" false
    (Snf_deps.Dep_graph.dependent g (List.hd c0) (List.hd c1));
  Alcotest.(check bool) "independents unattached" false
    (Snf_deps.Dep_graph.dependent g (List.hd acs.Snf_workload.Acs.independents) (List.hd c0))

let test_acs_mining_recovers_structure () =
  (* On a scaled-down instance, FD mining must find the planted root FDs
     and no dependence across clusters. *)
  let acs = small_acs () in
  let mined = Snf_deps.Dep_graph.of_relation acs.Snf_workload.Acs.relation in
  let c0 = List.nth acs.Snf_workload.Acs.clusters 0 in
  (match c0 with
   | root :: m :: _ ->
     Alcotest.(check bool) "root FD mined" true (Snf_deps.Dep_graph.dependent mined root m)
   | _ -> Alcotest.fail "cluster too small");
  let i0 = List.hd acs.Snf_workload.Acs.independents in
  Alcotest.(check bool) "independent attr stays unattached" false
    (Snf_deps.Dep_graph.dependent mined i0 (List.hd c0))

let test_acs_deterministic () =
  let a = small_acs () and b = small_acs () in
  Alcotest.(check bool) "same data for same seed" true
    (Relation.equal_as_sets a.Snf_workload.Acs.relation b.Snf_workload.Acs.relation)

(* --- Sensitivity / Query_gen ---------------------------------------------------- *)

let test_sensitivity () =
  let acs = small_acs () in
  let schema = Relation.schema acs.Snf_workload.Acs.relation in
  let policy = Snf_workload.Sensitivity.annotate ~weak:10 ~seed:3 schema in
  Alcotest.(check int) "ten weak attrs" 10 (Snf_workload.Sensitivity.weak_count policy);
  List.iter
    (fun a ->
      let s = Policy.scheme_of policy a in
      Alcotest.(check bool) "scheme from the expected pool" true
        (List.mem s [ Scheme.Det; Scheme.Ope; Scheme.Ndet ]))
    (Policy.attrs policy);
  (* deterministic *)
  let policy' = Snf_workload.Sensitivity.annotate ~weak:10 ~seed:3 schema in
  Alcotest.(check bool) "same annotation for same seed" true
    (List.for_all
       (fun a -> Policy.scheme_of policy a = Policy.scheme_of policy' a)
       (Policy.attrs policy))

let test_query_gen () =
  let acs = small_acs () in
  let r = acs.Snf_workload.Acs.relation in
  let policy = Snf_workload.Sensitivity.annotate ~weak:10 ~seed:3 (Relation.schema r) in
  let qs = Snf_workload.Query_gen.point_queries ~count:30 ~seed:1 ~way:2 r policy in
  Alcotest.(check int) "thirty queries" 30 (List.length qs);
  List.iter
    (fun q ->
      Alcotest.(check int) "2-way" 2 (Snf_exec.Query.way q);
      List.iter
        (fun p ->
          let a = Snf_exec.Query.pred_attr p in
          Alcotest.(check bool) "predicates on weak attrs" true
            (Scheme.is_weak (Policy.scheme_of policy a)))
        q.Snf_exec.Query.where;
      (* constants drawn from data: answers can be non-empty *)
      Alcotest.(check bool) "selectable" true (List.length q.Snf_exec.Query.select = 1))
    qs;
  let distinct =
    List.sort_uniq compare (List.map (Format.asprintf "%a" Snf_exec.Query.pp) qs)
  in
  Alcotest.(check int) "all distinct" 30 (List.length distinct)

(* --- Frequency attack ------------------------------------------------------------ *)

let attack_fixture () =
  (* Zipf-ish skew: value i appears (8 - i) times -> all frequencies unique. *)
  let rows = List.concat (List.init 7 (fun v -> List.init (8 - v) (fun _ -> [ v; v * 10 ]))) in
  let r = Helpers.relation_of_int_rows [ "zip"; "state" ] rows in
  let policy = Policy.create [ ("zip", Scheme.Det); ("state", Scheme.Ndet) ] in
  let g = Snf_deps.Dep_graph.create [ "zip"; "state" ] in
  let g = Snf_deps.Dep_graph.add_fd g (Fd.make [ "zip" ] [ "state" ]) in
  (r, policy, g)

let test_frequency_attack_recovers_unique_frequencies () =
  let r, policy, g = attack_fixture () in
  let o = Snf_exec.System.outsource ~name:"fa" ~graph:g ~strategy:`Strawman r policy in
  let leaf = List.hd o.Snf_exec.System.enc.Snf_exec.Enc_relation.leaves in
  let aux = Relation.column r "zip" in
  let res = Snf_attack.Frequency_attack.attack o.Snf_exec.System.client leaf "zip" ~aux in
  Alcotest.(check bool) "full recovery with unique frequencies" true
    (res.Snf_attack.Frequency_attack.accuracy = 1.0)

let test_frequency_attack_matches_analytic_rate () =
  (* Uniform duplicates: 8 values x 3 occurrences. One run's accuracy
     depends on arbitrary tie-breaking among equal frequencies; averaged
     over many independent keys it must approach the analytic expectation
     1/8 (cf. Quantify.recovery_rate). *)
  let rows = List.concat_map (fun v -> [ [ v ]; [ v ]; [ v ] ]) [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  let r = Helpers.relation_of_int_rows [ "v" ] rows in
  let policy = Policy.create [ ("v", Scheme.Det) ] in
  let g = Snf_deps.Dep_graph.create [ "v" ] in
  let analytic = Snf_core.Quantify.recovery_rate r "v" in
  Alcotest.(check bool) "analytic rate is 1/8" true (Float.abs (analytic -. 0.125) < 1e-9);
  let trials = 60 in
  let total = ref 0.0 in
  for i = 0 to trials - 1 do
    let o =
      Snf_exec.System.outsource ~name:"fa2" ~master:(Printf.sprintf "m%d" i) ~graph:g
        ~strategy:`Strawman r policy
    in
    let leaf = List.hd o.Snf_exec.System.enc.Snf_exec.Enc_relation.leaves in
    let res =
      Snf_attack.Frequency_attack.attack o.Snf_exec.System.client leaf "v"
        ~aux:(Relation.column r "v")
    in
    total := !total +. res.Snf_attack.Frequency_attack.accuracy
  done;
  let mean = !total /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f near analytic %.3f" mean analytic)
    true
    (Float.abs (mean -. analytic) < 0.08)

let test_ndet_column_resists () =
  let r, policy, g = attack_fixture () in
  let o = Snf_exec.System.outsource ~name:"fa3" ~graph:g ~strategy:`Strawman r policy in
  let leaf = List.hd o.Snf_exec.System.enc.Snf_exec.Enc_relation.leaves in
  Alcotest.(check bool) "no equality pattern from NDET" true
    (try
       ignore (Snf_attack.Frequency_attack.equality_pattern leaf "state");
       false
     with Invalid_argument _ -> true)

(* --- Cross-column inference: the headline security experiment ------------------- *)

let test_cross_column_strawman_vs_snf () =
  let r, policy, g = attack_fixture () in
  (* Strawman: co-located, linked attack succeeds (zip determines state). *)
  let strawman = Snf_exec.System.outsource ~name:"straw" ~graph:g ~strategy:`Strawman r policy in
  let out_straw =
    Snf_attack.Inference_attack.cross_column strawman.Snf_exec.System.client
      strawman.Snf_exec.System.enc ~source:"zip" ~target:"state" ~aux:r
  in
  Alcotest.(check bool) "strawman linked" true out_straw.Snf_attack.Inference_attack.linked;
  Alcotest.(check bool) "strawman recovers the strong column" true
    (out_straw.Snf_attack.Inference_attack.target_accuracy = 1.0);
  (* SNF: separated; recovery collapses to the blind baseline. *)
  let snf = Snf_exec.System.outsource ~name:"snf" ~graph:g r policy in
  Alcotest.(check bool) "snf plan is SNF" true snf.Snf_exec.System.plan.Normalizer.snf;
  let out_snf =
    Snf_attack.Inference_attack.cross_column snf.Snf_exec.System.client
      snf.Snf_exec.System.enc ~source:"zip" ~target:"state" ~aux:r
  in
  Alcotest.(check bool) "snf unlinked" false out_snf.Snf_attack.Inference_attack.linked;
  Alcotest.(check bool) "snf recovery = blind baseline" true
    (out_snf.Snf_attack.Inference_attack.target_accuracy
    = out_snf.Snf_attack.Inference_attack.blind_baseline);
  Alcotest.(check bool) "snf strictly safer" true
    (out_snf.Snf_attack.Inference_attack.target_accuracy
    < out_straw.Snf_attack.Inference_attack.target_accuracy)

(* --- trace-replay adversary ------------------------------------------------ *)

(* Every score is a function of the multiset of views, not of the order
   they come in, nor of the order a view lists its tokens, masks, fetches
   and probes: all eight score fields are bit-identical over every order
   of the views, with each view's lists also reversed.

   The access fixture: three eq tokens on [zip], one per ten-row value
   class, each certified for 1, 2 or 3 rows of its class by a conjunctive
   mask, expose tenths, whose float sum depends on the order it is taken
   in: (0.1 + 0.2) + 0.3 <> (0.3 + 0.2) + 0.1.

   The vote fixture: views that reach row 0 with different guesses. A
   token of volume 3 maps through the aux sample to zip 0 and so to state
   2, a token of volume 2 to zip 1 and state 1. Each view reaches row 0
   through two masks, a fetch and a probe answer, four votes. Votes 2, 1,
   2 give 2; votes 2, 1 tie and give the lesser, 1. Row 0 truly holds 2,
   so inference reads 1 and then 0. A rule that keeps a row's last guess
   fails both: its score follows the order of the views. *)
let test_access_score_order_invariant () =
  let module Leakage = Snf_obs.Leakage in
  let module Adversary = Snf_attack.Trace_adversary in
  let reversed (v : Leakage.query_view) =
    { v with
      q_tokens = List.rev v.q_tokens;
      q_masks = List.rev v.q_masks;
      q_fetches = List.rev v.q_fetches;
      q_probes = List.rev v.q_probes }
  in
  let rec orders = function
    | [] -> [ [] ]
    | l ->
      List.concat
        (List.mapi
           (fun i x -> List.map (fun rest -> x :: rest) (orders (List.filteri (fun j _ -> j <> i) l)))
           l)
  in
  let fields (s : Adversary.scores) =
    [ ("frequency", s.s_frequency); ("access", s.s_access);
      ("token exposure", s.s_access_token); ("result exposure", s.s_access_result);
      ("sorting", s.s_sorting); ("inference", s.s_inference);
      ("linked rows", float_of_int s.s_linked_rows); ("baseline", s.s_baseline) ]
  in
  (* The scores of [views], checked equal to the scores of every other
     order of them, as listed and reversed. *)
  let invariant ~ground ~aux views =
    let score vs = Adversary.run ~views:vs ~aux ~ground ~protected_attr:"state" ~source_attr:"zip" () in
    let want = score views in
    List.iter
      (fun order ->
        List.iter
          (fun vs ->
            List.iter2
              (fun (what, w) (_, g) ->
                Alcotest.(check int64) what (Int64.bits_of_float w) (Int64.bits_of_float g))
              (fields want) (fields (score vs)))
          [ order; List.map reversed order ])
      (orders views);
    want
  in
  let token key = { Leakage.t_attr = "zip"; t_kind = `Eq; t_scheme = "det"; t_key = key } in
  let empty =
    { Leakage.q_index = 0; q_tokens = []; q_masks = []; q_fetches = []; q_probes = []; q_oram = [];
      q_leaves = [ "L" ]; q_in_batch = false }
  in
  (* access fixture *)
  let certified = [ 1; 2; 3 ] in
  let classes = List.length certified in
  let ground =
    { Adversary.g_rows = 10 * classes;
      g_row = (fun ~leaf:_ ~slot -> slot);
      g_value = (fun row attr -> Value.Int (if attr = "zip" then row / 10 else 0)) }
  in
  let mask i c =
    { Leakage.m_leaf = "L";
      m_ops = [ Leakage.Op_token (token (string_of_int i)); Leakage.Op_slots [||] ];
      m_matched = c;
      m_slots = Array.init c (fun j -> (10 * i) + j) }
  in
  let view =
    { empty with
      q_tokens = List.mapi (fun i _ -> token (string_of_int i)) certified;
      q_masks = List.mapi mask certified }
  in
  let aux =
    [ ("zip", Array.init (10 * classes) (fun r -> Value.Int (r / 10)));
      ("state", Array.make (10 * classes) (Value.Int 0)) ]
  in
  let a = invariant ~ground ~aux [ view ] in
  Alcotest.(check (float 1e-12)) "token exposure is the mean certified share"
    0.2 a.Adversary.s_access_token;
  (* vote fixture *)
  let ground =
    { Adversary.g_rows = 10;
      g_row = (fun ~leaf:_ ~slot -> slot);
      g_value = (fun row attr -> Value.Int (if attr = "state" && row = 0 then 2 else 0)) }
  in
  let aux =
    [ ("zip", Array.map (fun z -> Value.Int z) [| 0; 0; 0; 1; 1; 2 |]);
      ("state", Array.map (fun s -> Value.Int s) [| 2; 2; 2; 1; 1; 1 |]) ]
  in
  let voter key volume =
    let t = token key and row0 = [| 0 |] in
    { empty with
      q_tokens = [ t ];
      q_masks =
        [ { Leakage.m_leaf = "L"; m_ops = [ Leakage.Op_token t ]; m_matched = volume; m_slots = row0 };
          { Leakage.m_leaf = "L"; m_ops = [ Leakage.Op_slots row0 ]; m_matched = 1; m_slots = row0 } ];
      q_fetches =
        [ { Leakage.f_round = 0; f_leaf = "L"; f_attrs = [ "zip"; "state" ]; f_slots = row0 };
          { Leakage.f_round = 1; f_leaf = "L"; f_attrs = [ "state" ]; f_slots = Array.init 10 Fun.id } ];
      q_probes = [ ("L", "zip", Some row0); ("L", "state", None) ] }
  in
  let two = voter "hi" 3 and one = voter "lo" 2 in
  let majority = invariant ~ground ~aux [ two; one; voter "hi" 3 ] in
  Alcotest.(check int) "one row linked" 1 majority.Adversary.s_linked_rows;
  Alcotest.(check (float 0.)) "votes 2, 1, 2 give 2" 1.0 majority.Adversary.s_inference;
  let tie = invariant ~ground ~aux [ two; one ] in
  Alcotest.(check (float 0.)) "votes 2, 1 give the lesser, 1" 0.0 tie.Adversary.s_inference

let suite =
  [ t "acs shape" test_acs_shape;
    t "acs planted FDs hold" test_acs_planted_fds_hold;
    t "acs graph matches clusters" test_acs_graph_matches_clusters;
    t "acs mining recovers structure" test_acs_mining_recovers_structure;
    t "acs deterministic" test_acs_deterministic;
    t "sensitivity annotation" test_sensitivity;
    t "query generation" test_query_gen;
    t "frequency attack full recovery" test_frequency_attack_recovers_unique_frequencies;
    t "frequency attack analytic rate" test_frequency_attack_matches_analytic_rate;
    t "ndet resists frequency attack" test_ndet_column_resists;
    t "cross-column: strawman vs snf" test_cross_column_strawman_vs_snf;
    t "access score independent of view, token and mask order" test_access_score_order_invariant ]
