(* Sharded scatter-gather execution: placement properties of the two
   assignment policies, and backend invisibility of the coordinator —
   a sharded twin of one store must be indistinguishable from a single
   backend through the trust boundary (same answer bags, same
   exec.query.* accounting, byte-identical wire traffic), with the
   per-shard counters reconciling exactly against the inner shard
   connections' own stats. *)

open Snf_relational
open Snf_exec
module Scheme = Snf_crypto.Scheme
module Metrics = Snf_obs.Metrics
module Scan_reference = Snf_reference.Scan_reference

let t name f = Alcotest.test_case name `Quick f

let mem_connect _ = Server_api.connect (module Backend_mem) (Backend_mem.empty ())

(* One dominant DET value group plus distinct singletons — the planted
   skew shape the Skew policy is built to absorb. *)
let skewed_relation ~tag ~dominant ~singles =
  Relation.create
    (Schema.of_attributes [ Attribute.text "grp"; Attribute.text "pay" ])
    (List.init (dominant + singles) (fun i ->
         let g =
           if i < dominant then Printf.sprintf "dom_%s" tag
           else Printf.sprintf "one_%s_%d" tag i
         in
         [| Value.Text g; Value.Text (Printf.sprintf "p%d" i) |]))

let skewed_owner ?backend ~tag ~dominant ~singles () =
  let r = skewed_relation ~tag ~dominant ~singles in
  let policy =
    Snf_core.Policy.create [ ("grp", Scheme.Det); ("pay", Scheme.Ndet) ]
  in
  let g = Snf_deps.Dep_graph.create [ "grp"; "pay" ] in
  System.outsource ?backend ~name:("shard-" ^ tag) ~graph:g r policy

let max_load ~shards assign =
  Array.fold_left max 0 (Backend_sharded.shard_loads ~shards assign)

(* --- placement properties -------------------------------------------------- *)

let test_policy_names () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Backend_sharded.policy_name p ^ " round-trips") true
        (Backend_sharded.policy_of_string (Backend_sharded.policy_name p) = Some p))
    [ Backend_sharded.Hash; Backend_sharded.Skew ];
  Alcotest.(check bool) "unknown policy rejected" true
    (Backend_sharded.policy_of_string "round-robin" = None)

(* Deterministic, total, and in range: a pure function of the image. *)
let test_assignment_deterministic () =
  let o = skewed_owner ~tag:"det" ~dominant:7 ~singles:6 () in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  List.iter
    (fun policy ->
      let a1 = Backend_sharded.assignment policy ~shards:3 o.System.enc in
      let a2 = Backend_sharded.assignment policy ~shards:3 o.System.enc in
      Alcotest.(check bool)
        (Backend_sharded.policy_name policy ^ " assignment is deterministic")
        true (a1 = a2);
      List.iter
        (fun (leaf, owners) ->
          Array.iter
            (fun s ->
              Alcotest.(check bool)
                (Printf.sprintf "%s owner in range" leaf)
                true
                (s >= 0 && s < 3))
            owners)
        a1;
      Alcotest.(check int)
        (Backend_sharded.policy_name policy ^ " loads cover every row")
        (13 * List.length a1)
        (Array.fold_left ( + ) 0 (Backend_sharded.shard_loads ~shards:3 a1)))
    [ Backend_sharded.Hash; Backend_sharded.Skew ]

(* The greedy (LPT) bound holds on any input: max shard load is at most
   the even split plus the largest value group. *)
let lpt_bound_prop =
  let gen =
    QCheck2.Gen.(
      quad (int_range 4 12) (int_range 3 9) (int_range 2 4) (int_range 0 999))
  in
  Helpers.qtest ~count:20 "skew placement obeys the LPT bound" gen
    (fun (dominant, singles, shards, salt) ->
      let tag = Printf.sprintf "lpt%d_%d_%d_%d" dominant singles shards salt in
      let o = skewed_owner ~tag ~dominant ~singles () in
      Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
      let assign =
        Backend_sharded.assignment Backend_sharded.Skew ~shards o.System.enc
      in
      let total = dominant + singles in
      let bound = ((total + shards - 1) / shards) + dominant in
      max_load ~shards assign <= bound)

(* On the planted shape — one dominant group plus unit groups — greedy
   placement is optimal, so hash placement can never beat it: hash's
   max load is at least max(dominant, ceil(total/shards)), which is
   exactly where greedy lands. *)
let skew_beats_hash_prop =
  let gen =
    QCheck2.Gen.(
      quad (int_range 6 14) (int_range 4 10) (int_range 2 4) (int_range 0 999))
  in
  Helpers.qtest ~count:20 "skew max load <= hash max load on planted skew" gen
    (fun (dominant, singles, shards, salt) ->
      let tag = Printf.sprintf "sh%d_%d_%d_%d" dominant singles shards salt in
      let o = skewed_owner ~tag ~dominant ~singles () in
      Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
      let enc = o.System.enc in
      let skew =
        max_load ~shards (Backend_sharded.assignment Backend_sharded.Skew ~shards enc)
      in
      let hash =
        max_load ~shards (Backend_sharded.assignment Backend_sharded.Hash ~shards enc)
      in
      skew <= hash)

(* And strictly beats it somewhere: among a deterministic family of
   two-equal-group relations on two shards, hash placement collides the
   two groups onto one shard for some member (placement is a pure
   function of the ciphertext image, so this witness is stable), while
   skew placement always splits them. *)
let test_skew_strictly_beats_hash_somewhere () =
  let witness = ref None in
  for salt = 0 to 19 do
    if !witness = None then begin
      let tag = Printf.sprintf "split%d" salt in
      let r =
        Relation.create
          (Schema.of_attributes [ Attribute.text "grp"; Attribute.text "pay" ])
          (List.init 12 (fun i ->
               [| Value.Text (if i < 6 then "a_" ^ tag else "b_" ^ tag);
                  Value.Text (Printf.sprintf "p%d" i) |]))
      in
      let policy =
        Snf_core.Policy.create [ ("grp", Scheme.Det); ("pay", Scheme.Ndet) ]
      in
      let g = Snf_deps.Dep_graph.create [ "grp"; "pay" ] in
      let o = System.outsource ~name:("shard-" ^ tag) ~graph:g r policy in
      Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
      let enc = o.System.enc in
      let skew =
        max_load ~shards:2
          (Backend_sharded.assignment Backend_sharded.Skew ~shards:2 enc)
      in
      let hash =
        max_load ~shards:2
          (Backend_sharded.assignment Backend_sharded.Hash ~shards:2 enc)
      in
      Alcotest.(check int) (tag ^ ": skew splits the two groups") 6 skew;
      if skew < hash then witness := Some (tag, skew, hash)
    end
  done;
  match !witness with
  | Some _ -> ()
  | None ->
    Alcotest.fail
      "hash never collided two equal groups across 20 deterministic relations"

(* --- coordinator parity ---------------------------------------------------- *)

(* Every scheme, several leaves — the same shape the backend suite pins. *)
let mixed_owner () =
  let r =
    Relation.create
      (Schema.of_attributes
         [ Attribute.int "id"; Attribute.text "note"; Attribute.text "code";
           Attribute.int "score"; Attribute.int "level"; Attribute.int "amount" ])
      (List.init 12 (fun i ->
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
  System.outsource ~name:"shard-parity" ~graph:g r policy

let queries =
  [ Query.point ~select:[ "note" ] [ ("code", Value.Text "c1") ];
    Query.point ~select:[ "note"; "score" ] [ ("code", Value.Text "c0") ];
    Query.point ~select:[ "id"; "note" ] [ ("code", Value.Text "c2") ];
    Query.point ~select:[ "note" ] [ ("code", Value.Text "nowhere") ] ]

let run_q ?mode ?use_index o q =
  match System.query ?mode ?use_index o q with
  | Ok (ans, tr) -> (Helpers.bag ans, tr)
  | Error e -> Alcotest.fail e

let shard_counter_sums deltas =
  List.fold_left
    (fun (r, u, d) (name, v) ->
      let has suffix =
        let n = String.length name and m = String.length suffix in
        n >= m && String.sub name (n - m) m = suffix
      in
      if has ".requests" then (r + v, u, d)
      else if has ".bytes_up" then (r, u + v, d)
      else if has ".bytes_down" then (r, u, d + v)
      else (r, u, d))
    (0, 0, 0)
    (Metrics.counters_with_prefix "exec.wire.shard" deltas)

(* Mem and sharded twins of one store agree on answers, counters and
   outer wire traffic for placement x shards x domains, and the
   coordinator's per-shard counters reconcile bit-identically with the
   shard connections' own stats. *)
let test_sharded_mem_parity () =
  let saved = Parallel.domain_count () in
  Fun.protect ~finally:(fun () -> Parallel.set_domain_count saved) @@ fun () ->
  List.iter
    (fun (policy, shards) ->
      List.iter
        (fun domains ->
          Parallel.set_domain_count domains;
          let mem = mixed_owner () in
          let st = Backend_sharded.create ~policy ~connect:mem_connect ~shards () in
          let tw = System.with_backend mem (System.sharded st) in
          Fun.protect
            ~finally:(fun () -> System.release tw; System.release mem)
          @@ fun () ->
          let name fmt =
            Printf.sprintf "%s %dx%d domains: %s"
              (Backend_sharded.policy_name policy) shards domains fmt
          in
          Alcotest.(check string) (name "twin is sharded-bound") "sharded"
            (System.backend_kind_name (System.backend tw));
          Alcotest.(check int) (name "coordinator spans the shards") shards
            (Backend_sharded.shard_count st);
          Alcotest.(check int) (name "every row placed")
            (Array.fold_left ( + ) 0
               (Backend_sharded.shard_loads ~shards
                  (Backend_sharded.assignment (Backend_sharded.policy st)
                     ~shards mem.System.enc))
            * 1)
            (Array.fold_left ( + ) 0 (Backend_sharded.loads st));
          List.iter
            (fun (mode, use_index, tag) ->
              List.iteri
                (fun i q ->
                  let qname fmt = name (Printf.sprintf "%s q%d: %s" tag i fmt) in
                  let stats_before = Backend_sharded.shard_stats st in
                  let before = Metrics.snapshot () in
                  let b1, t1 = run_q ~mode ~use_index tw q in
                  let after = Metrics.snapshot () in
                  let stats_after = Backend_sharded.shard_stats st in
                  let b0, t0 = run_q ~mode ~use_index mem q in
                  Alcotest.(check bool) (qname "same answer bag") true (b0 = b1);
                  Alcotest.(check bool)
                    (qname "matches the plaintext reference") true
                    (b0 = Helpers.bag (System.reference mem q));
                  List.iter
                    (fun (what, a, b) -> Alcotest.(check int) (qname what) a b)
                    [ ("scanned cells", t0.Executor.scanned_cells,
                       t1.Executor.scanned_cells);
                      ("index probes", t0.Executor.index_probes,
                       t1.Executor.index_probes);
                      ("comparisons", t0.Executor.comparisons,
                       t1.Executor.comparisons);
                      ("rows processed", t0.Executor.rows_processed,
                       t1.Executor.rows_processed);
                      ("result rows", t0.Executor.result_rows,
                       t1.Executor.result_rows);
                      ("wire requests", t0.Executor.wire_requests,
                       t1.Executor.wire_requests);
                      ("wire bytes up", t0.Executor.wire_bytes_up,
                       t1.Executor.wire_bytes_up);
                      ("wire bytes down", t0.Executor.wire_bytes_down,
                       t1.Executor.wire_bytes_down) ];
                  (* Inner fan-out accounting: summed per-shard counter
                     movement = summed per-shard conn stats movement. *)
                  let cr, cu, cd =
                    shard_counter_sums (Metrics.counter_diff before after)
                  in
                  let sr, su, sd =
                    Array.fold_left
                      (fun (r, u, d) i ->
                        let a = stats_after.(i) and b = stats_before.(i) in
                        ( r + a.Server_api.requests - b.Server_api.requests,
                          u + a.Server_api.bytes_up - b.Server_api.bytes_up,
                          d + a.Server_api.bytes_down - b.Server_api.bytes_down ))
                      (0, 0, 0)
                      (Array.init shards Fun.id)
                  in
                  Alcotest.(check int) (qname "shard requests reconcile") sr cr;
                  Alcotest.(check int) (qname "shard bytes up reconcile") su cu;
                  Alcotest.(check int) (qname "shard bytes down reconcile") sd cd;
                  Alcotest.(check bool) (qname "fan-out is never free") true
                    (cr > 0))
                queries)
            [ (`Sort_merge, false, "sort-merge");
              (`Sort_merge, true, "sort-merge+index");
              (`Binning 4, false, "binning") ])
        [ 1; 4 ])
    (List.concat_map
       (fun policy -> List.map (fun shards -> (policy, shards)) [ 1; 2; 4 ])
       [ Backend_sharded.Hash; Backend_sharded.Skew ])

(* Homomorphic aggregation crosses the coordinator: partial Paillier
   sums recombine to the single backend's ciphertexts, and grouped sums
   come back in the same canonical order, under both placement policies. *)
let test_sharded_aggregation_parity () =
  let r =
    Relation.create
      (Schema.of_attributes
         [ Attribute.text "dept"; Attribute.int "salary"; Attribute.text "name" ])
      [ [| Value.Text "eng"; Value.Int 100; Value.Text "a" |];
        [| Value.Text "eng"; Value.Int 150; Value.Text "b" |];
        [| Value.Text "hr"; Value.Int 90; Value.Text "c" |];
        [| Value.Text "ops"; Value.Int 75; Value.Text "d" |] ]
  in
  let policy =
    Snf_core.Policy.create
      [ ("dept", Scheme.Det); ("salary", Scheme.Phe); ("name", Scheme.Ndet) ]
  in
  let g = Snf_deps.Dep_graph.create [ "dept"; "salary"; "name" ] in
  List.iter
    (fun shard_policy ->
      let mem = System.outsource ~name:"shard-agg" ~graph:g r policy in
      let st =
        (* More shards than distinct groups, so some shards hold zero rows
           of the summed leaf — the empty-partial path must stay exact. *)
        Backend_sharded.create ~policy:shard_policy ~connect:mem_connect ~shards:5 ()
      in
      let tw = System.with_backend mem (System.sharded st) in
      Fun.protect ~finally:(fun () -> System.release tw; System.release mem)
      @@ fun () ->
      let leaf =
        (List.find
           (fun (l : Snf_core.Partition.leaf) -> Snf_core.Partition.mem_leaf l "salary")
           mem.System.plan.Snf_core.Normalizer.representation)
          .Snf_core.Partition.label
      in
      (* The merged ciphertexts themselves equal the single backend's folds
         bit for bit, not only their plaintexts. *)
      let outer = Backend_sharded.connect st in
      let enc_leaf = Enc_relation.find_leaf mem.System.enc leaf in
      Alcotest.(check bool) "merged sum ciphertext" true
        (Snf_bignum.Nat.equal
           (Enc_relation.phe_sum mem.System.enc.Enc_relation.paillier_public enc_leaf "salary")
           (Server_api.phe_sum outer ~leaf ~attr:"salary"));
      Alcotest.(check bool) "merged group ciphertexts" true
        (Enc_relation.phe_group_sum mem.System.enc.Enc_relation.paillier_public enc_leaf ~group_by:"dept" ~sum:"salary"
         = Server_api.group_sum outer ~leaf ~group_by:"dept" ~sum:"salary");
      Alcotest.(check int) "sum agrees across the coordinator"
        (System.sum mem ~leaf ~attr:"salary")
        (System.sum tw ~leaf ~attr:"salary");
      Alcotest.(check int) "sum is the plaintext total" 415
        (System.sum tw ~leaf ~attr:"salary");
      let gs o =
        System.group_sum o ~leaf ~group_by:"dept" ~sum:"salary"
        |> List.map (fun (v, s) -> (Value.to_string v, s))
      in
      Alcotest.(check (list (pair string int))) "group sums agree across the coordinator"
        (gs mem) (gs tw);
      Alcotest.(check (list (pair string int))) "group sums are correct"
        [ ("eng", 250); ("hr", 90); ("ops", 75) ] (gs tw))
    [ Backend_sharded.Skew; Backend_sharded.Hash ]

(* The differential harness's sharded arm end to end: bag, counter,
   wire and per-shard reconciliation checks all green on a generated
   instance. *)
let test_differential_sharded_twin () =
  let spec = { Snf_check.Gen.seed = 17; rows = 12; clusters = [ 3 ]; singles = 3 } in
  let outcome =
    Snf_check.Differential.run_spec ~queries:6 ~backend:(`Sharded 2) spec
  in
  (match outcome.Snf_check.Differential.failures with
   | [] -> ()
   | fs ->
     Alcotest.fail
       (String.concat "; " (List.map Snf_check.Differential.failure_to_string fs)));
  Alcotest.(check bool) "queries actually ran" true
    (outcome.Snf_check.Differential.queries_run >= 6)

(* --- shard responses of the wrong length ----------------------------------
   The coordinator placed a known number of rows on every shard, so a
   shard whose mask, tid column or fetched rows is one row short or one
   row long is damaged storage: the query must end in a typed
   [`Corruption], never a silently shorter answer or a raw exception. *)

let resize_bitmask m n =
  let out = Bitmask.create n false in
  for j = 0 to min n (Bitmask.length m) - 1 do
    if Bitmask.get m j then Bitmask.set out j
  done;
  out

let resize_array a n fill =
  Array.init n (fun j -> if j < Array.length a then a.(j) else fill)

(* [delta] rows added to (or removed from) every answer of [kind] that
   shard 0 sends; other shards and other responses pass untouched. *)
let misreport ~kind ~delta (resp : Wire.response) =
  let n len = max 0 (len + delta) in
  match (kind, resp) with
  | `Mask, Wire.R_batch { results } ->
    Wire.R_batch
      { results =
          List.map
            (List.map (fun (mask, scanned) ->
                 (resize_bitmask mask (n (Bitmask.length mask)), scanned)))
            results }
  | `Tids, Wire.R_tids tids ->
    let fill = if Array.length tids = 0 then "" else tids.(0) in
    Wire.R_tids (resize_array tids (n (Array.length tids)) fill)
  | `Rows, Wire.R_rows cols ->
    Wire.R_rows
      (Array.map
         (fun col ->
           let col = Wire.column_cells col in
           let fill = if Array.length col = 0 then Enc_relation.C_bytes "" else col.(0) in
           Scan_reference.rows_column_of_cells (resize_array col (n (Array.length col)) fill))
         cols)
  | _ -> resp

let misreporting_connect ~kind ~delta i =
  let serve = Server_api.session_handler (Backend_mem.view (Backend_mem.empty ())) in
  let handle up =
    let down = serve up in
    if i <> 0 then down
    else
      Wire.response_to_string (misreport ~kind ~delta (Wire.response_of_string down))
  in
  Server_api.connect_handler ~name:"mem" ~handle ~close:ignore

(* Placement follows a leaf's first canonical column, so the distinct
   [k] spreads both leaves over both shards. *)
let misreport_owner ?(rows = 40) () =
  let attrs = [ "k"; "a"; "b" ] in
  let r =
    Relation.create
      (Schema.of_attributes (List.map Attribute.int attrs))
      (List.init rows (fun i -> [| Value.Int i; Value.Int (i mod 3); Value.Int (i * 7) |]))
  in
  let policy =
    Snf_core.Policy.create [ ("k", Scheme.Det); ("a", Scheme.Det); ("b", Scheme.Det) ]
  in
  System.outsource_prepared ~name:"shard-misreport"
    ~graph:(Snf_deps.Dep_graph.create attrs)
    ~representation:
      [ Snf_core.Partition.leaf "la" [ ("k", Scheme.Det); ("a", Scheme.Det) ];
        Snf_core.Partition.leaf "lb" [ ("b", Scheme.Det) ] ]
    r policy

let test_shard_length_misreports_typed () =
  let mem = misreport_owner () in
  Fun.protect ~finally:(fun () -> System.release mem) @@ fun () ->
  let queries =
    [ ("single leaf", Query.point ~select:[ "a" ] [ ("a", Value.Int 1) ]);
      ("join", Query.point ~select:[ "b" ] [ ("a", Value.Int 1) ]) ]
  in
  List.iter
    (fun (kind, kind_name, applies) ->
      List.iter
        (fun delta ->
          List.iter
            (fun (qname, q) ->
              if applies qname then begin
                let st =
                  Backend_sharded.create ~policy:Backend_sharded.Hash
                    ~connect:(misreporting_connect ~kind ~delta) ~shards:2 ()
                in
                let tw = System.with_backend mem (System.sharded st) in
                Fun.protect ~finally:(fun () -> System.release tw) @@ fun () ->
                let name = Printf.sprintf "%s %+d on a %s query" kind_name delta qname in
                match System.query_checked tw q with
                | Error (`Corruption c) ->
                  Alcotest.(check string) (name ^ ": typed store corruption") "store"
                    c.Integrity.where
                | Error (`Plan e) -> Alcotest.failf "%s: planner error %s" name e
                | Ok (ans, _) ->
                  Alcotest.failf "%s: answered %d rows (oracle %d)" name
                    (Relation.cardinality ans)
                    (Relation.cardinality (System.reference mem q))
                | exception e ->
                  Alcotest.failf "%s: untyped %s" name (Printexc.to_string e)
              end)
            queries)
        [ -1; 1 ])
    [ (`Mask, "R_batch mask", fun _ -> true);
      (`Tids, "R_tids", fun q -> q = "join");
      (`Rows, "R_rows", fun _ -> true) ]

(* --- the coordinator's mask merge --------------------------------------------
   Each shard's filter masks, captured on its own connection and
   scattered bit by bit into the global slots its rows hold (the
   shard's ascending global slots under [assignment]), must give the
   coordinator's merged R_batch exactly, and that must be a single
   backend's answer, for 1-4 shards under both placements. *)

let capturing_connect captured i =
  let serve = Server_api.session_handler (Backend_mem.view (Backend_mem.empty ())) in
  let handle up =
    let down = serve up in
    (match Wire.response_of_string down with
     | Wire.R_batch { results } -> captured.(i) <- results
     | _ -> ());
    down
  in
  Server_api.connect_handler ~name:"mem" ~handle ~close:ignore

let per_bit_merge ~owner ~shards per_shard =
  let n = Array.length owner in
  let merged = Bitmask.create n false in
  for s = 0 to shards - 1 do
    let locals = List.filter (fun g -> owner.(g) = s) (List.init n Fun.id) |> Array.of_list in
    let m = per_shard.(s) in
    for j = 0 to Bitmask.length m - 1 do
      if Bitmask.get m j then Bitmask.set merged locals.(j)
    done
  done;
  merged

let test_merged_masks_per_bit () =
  let rows = 300 in
  let o = misreport_owner ~rows () in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let image = Wire.to_string o.System.enc in
  let labels = List.map (fun l -> l.Enc_relation.label) o.System.enc.Enc_relation.leaves in
  let prng = Snf_crypto.Prng.create 5 in
  let random_slots density =
    List.filter (fun _ -> Snf_crypto.Prng.int prng 1000 < density) (List.init rows Fun.id)
    |> Array.of_list
  in
  (* Slot sets from empty to full, then one descending, as an index
     answer crosses, and one with repeats; [None] is a query with no ops,
     whose masks start all set. *)
  let sets =
    [ Some [||]; Some [| rows - 1 |]; Some [| 0 |]; Some (random_slots 1);
      Some (random_slots 10); Some (random_slots 500); Some (Array.init rows Fun.id); None;
      Some (Array.init rows (fun i -> rows - 1 - i));
      Some (Array.init 40 (fun i -> i * 7 mod 23 * 13)) ]
  in
  let queries =
    List.map
      (fun set ->
        List.map
          (fun l -> (l, match set with Some slots -> [ Wire.F_slots slots ] | None -> []))
          labels)
      sets
  in
  let single = mem_connect 0 in
  Fun.protect ~finally:(fun () -> Server_api.close single) @@ fun () ->
  Server_api.install single image;
  let want = Server_api.filter_batch single ~queries in
  List.iter
    (fun (policy, shards) ->
      let name = Printf.sprintf "%s x%d" (Backend_sharded.policy_name policy) shards in
      let captured = Array.make shards [] in
      let sharded =
        Backend_sharded.connect
          (Backend_sharded.create ~policy ~connect:(capturing_connect captured) ~shards ())
      in
      Fun.protect ~finally:(fun () -> Server_api.close sharded) @@ fun () ->
      Server_api.install sharded image;
      let got = Server_api.filter_batch sharded ~queries in
      Alcotest.(check bool) (name ^ ": a single backend's masks") true (got = want);
      let assign = Backend_sharded.assignment policy ~shards o.System.enc in
      List.iteri
        (fun qi entries ->
          List.iteri
            (fun ei ((mask, _), (label, _)) ->
              let per_shard =
                Array.map (fun res -> fst (List.nth (List.nth res qi) ei)) captured
              in
              let reference =
                per_bit_merge ~owner:(List.assoc label assign) ~shards per_shard
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s: query %d leaf %s merged per bit" name qi label)
                true (mask = reference))
            (List.combine entries (List.nth queries qi)))
        got)
    (List.concat_map
       (fun policy -> List.map (fun shards -> (policy, shards)) [ 1; 2; 3; 4 ])
       [ Backend_sharded.Hash; Backend_sharded.Skew ])

(* A request naming a slot outside its leaf, or an attribute the leaf
   does not hold, fails with the same response bytes whether one backend
   or a coordinator over two shards answers it. *)
let test_bad_slot_error_bytes () =
  let o = skewed_owner ~tag:"slots" ~dominant:4 ~singles:6 () in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let image = Wire.to_string o.System.enc in
  let leaf = List.hd o.System.enc.Enc_relation.leaves in
  let label = leaf.Enc_relation.label in
  let attr = (List.hd leaf.Enc_relation.columns).Enc_relation.attr in
  let on_shard0 =
    let owner = List.assoc label (Backend_sharded.assignment Backend_sharded.Hash ~shards:2 o.System.enc) in
    List.filter (fun g -> owner.(g) = 0) (List.init (Array.length owner) Fun.id)
  in
  Alcotest.(check int) "a 10-row leaf" 10 leaf.Enc_relation.row_count;
  Alcotest.(check bool) "shard 0 owns a row, not all" true
    (on_shard0 <> [] && List.length on_shard0 < 10);
  let single = mem_connect 0 in
  let sharded =
    Backend_sharded.connect (Backend_sharded.create ~connect:mem_connect ~shards:2 ())
  in
  Fun.protect
    ~finally:(fun () -> Server_api.close single; Server_api.close sharded)
  @@ fun () ->
  Server_api.install single image;
  Server_api.install sharded image;
  List.iter
    (fun (name, req) ->
      let up = Wire.request_to_string req in
      let a = Server_api.exchange_raw single up
      and b = Server_api.exchange_raw sharded up in
      (match Wire.response_of_string a with
       | Wire.R_error _ -> ()
       | _ -> Alcotest.failf "%s: the single backend did not answer an error" name);
      Alcotest.(check string) (name ^ ": same response bytes") a b)
    [ ("F_slots [99]", Wire.Q_batch { queries = [ [ (label, [ Wire.F_slots [| 99 |] ]) ] ] });
      ( "F_slots [0; 10]",
        Wire.Q_batch
          { queries = [ [ (label, [ Wire.F_slots [| 0 |]; Wire.F_slots [| 0; 10 |] ]) ] ] } );
      ( "unknown attribute before a bad slot",
        Wire.Q_batch
          { queries =
              [ [ ( label,
                    [ Wire.F_eq ("nope", Enc_relation.Eq_plain (Value.Int 1));
                      Wire.F_slots [| 99 |] ] ) ] ] } );
      ("Fetch_rows [99]", Wire.Fetch_rows { leaf = label; attrs = [ attr ]; slots = [| 99 |] });
      ( "Fetch_rows [3; 10]",
        Wire.Fetch_rows { leaf = label; attrs = [ attr ]; slots = [| 3; 10 |] } );
      ( "an empty fetch of an unknown attribute",
        Wire.Fetch_rows { leaf = label; attrs = [ "nope" ]; slots = [||] } );
      ( "a one-shard fetch of an unknown attribute",
        Wire.Fetch_rows { leaf = label; attrs = [ attr; "nope" ]; slots = Array.of_list on_shard0 } );
      ( "an empty fetch of an unknown leaf",
        Wire.Fetch_rows { leaf = "nope"; attrs = [ attr ]; slots = [||] } ) ]

(* --- dictionary-coded fetches ------------------------------------------------
   A leaf placed by its distinct first column [k], so the repeated values
   of [a] (DET), [b] (OPE) and [c] (ORE) sit on both shards: the
   coordinator must answer the coding a single backend gives, entry
   order and code numbering included, which is the coding of the fetched
   cells themselves. *)

let coded_rows = 100
let coded_fetched = [ "a"; "b"; "c"; "n"; "k" ]

let coded_owner () =
  let attrs = [ "k"; "a"; "b"; "c"; "n" ] in
  let schemes =
    [ ("k", Scheme.Det); ("a", Scheme.Det); ("b", Scheme.Ope); ("c", Scheme.Ore);
      ("n", Scheme.Ndet) ]
  in
  let r =
    Relation.create
      (Schema.of_attributes (List.map Attribute.int attrs))
      (List.init coded_rows (fun i ->
           [| Value.Int i; Value.Int (i mod 3); Value.Int (i mod 4); Value.Int (i mod 5);
              Value.Int (i mod 2) |]))
  in
  System.outsource_prepared ~name:"shard-coded"
    ~graph:(Snf_deps.Dep_graph.create attrs)
    ~representation:[ Snf_core.Partition.leaf "lc" schemes ]
    r (Snf_core.Policy.create schemes)

(* Each named slot list is fetched from a single backend and from a
   2-shard coordinator over [connect]; [check] sees both answers' bytes
   and the coding of the fetched cells. *)
let coded_fetches ~connect check =
  let o = coded_owner () in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let leaf = List.hd o.System.enc.Enc_relation.leaves in
  let label = leaf.Enc_relation.label in
  let owner = List.assoc label (Backend_sharded.assignment Backend_sharded.Hash ~shards:2 o.System.enc) in
  let image = Wire.to_string o.System.enc in
  let single = mem_connect 0 in
  let sharded =
    Backend_sharded.connect (Backend_sharded.create ~policy:Backend_sharded.Hash ~connect ~shards:2 ())
  in
  Fun.protect ~finally:(fun () -> Server_api.close single; Server_api.close sharded)
  @@ fun () ->
  Server_api.install single image;
  Server_api.install sharded image;
  let all = List.init coded_rows Fun.id in
  List.iter
    (fun (name, slots) ->
      let slots = Array.of_list slots in
      let up = Wire.request_to_string (Wire.Fetch_rows { leaf = label; attrs = coded_fetched; slots }) in
      let a = Server_api.exchange_raw single up and b = Server_api.exchange_raw sharded up in
      let reference =
        Wire.R_rows
          (Array.of_list
             (List.map
                (fun attr ->
                  let cells = (Enc_relation.column leaf attr).Enc_relation.cells in
                  let picked = Array.map (Array.get cells) slots in
                  if List.mem attr [ "a"; "b"; "c"; "k" ] then Scan_reference.rows_column_of_cells picked
                  else Wire.Cells picked)
                coded_fetched))
      in
      check ~leaf ~owner name ~single:a ~sharded:b ~reference:(Wire.response_to_string reference))
    [ ("every row", all);
      ("descending", List.rev all);
      ("every third row", List.init (coded_rows / 3) (fun i -> 3 * i));
      ("only shard 0's rows", List.filter (fun g -> owner.(g) = 0) all);
      ("repeated slots", List.init 40 (fun i -> i * 7 mod 50));
      ("a few repeated slots", [ 7; 3; 7; 12; 3; 30; 0 ]);
      ("one row", [ 5 ]);
      ("no rows", []) ]

(* A fetch goes only to the shards that own a requested slot: one whose
   slots all sit on shard 0 moves no request counter of shard 1, and
   still answers a single backend's bytes. *)
let test_fetch_skips_idle_shards () =
  let o = coded_owner () in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let leaf = List.hd o.System.enc.Enc_relation.leaves in
  let label = leaf.Enc_relation.label in
  let owner = List.assoc label (Backend_sharded.assignment Backend_sharded.Hash ~shards:2 o.System.enc) in
  let image = Wire.to_string o.System.enc in
  let single = mem_connect 0 in
  let st = Backend_sharded.create ~policy:Backend_sharded.Hash ~connect:mem_connect ~shards:2 () in
  let sharded = Backend_sharded.connect st in
  Fun.protect ~finally:(fun () -> Server_api.close single; Server_api.close sharded)
  @@ fun () ->
  Server_api.install single image;
  Server_api.install sharded image;
  let shard1 = Snf_obs.Metrics.counter "exec.wire.shard1.requests" in
  List.iter
    (fun (name, slots) ->
      let slots = Array.of_list slots in
      let up = Wire.request_to_string (Wire.Fetch_rows { leaf = label; attrs = coded_fetched; slots }) in
      let stats0 = (Backend_sharded.shard_stats st).(1).Server_api.requests in
      let count0 = Snf_obs.Metrics.value shard1 in
      let b = Server_api.exchange_raw sharded up in
      Alcotest.(check (pair int int)) (name ^ ": shard 1 not asked") (stats0, count0)
        ((Backend_sharded.shard_stats st).(1).Server_api.requests, Snf_obs.Metrics.value shard1);
      Alcotest.(check string) (name ^ ": same response bytes") (Server_api.exchange_raw single up) b)
    [ ("shard 0's rows", List.filter (fun g -> owner.(g) = 0) (List.init coded_rows Fun.id));
      ("one of shard 0's rows", [ Option.get (Array.find_index (( = ) 0) owner) ]);
      ("no rows", []) ]

let test_coded_fetch_bytes () =
  coded_fetches ~connect:mem_connect (fun ~leaf ~owner name ~single ~sharded ~reference ->
      if name = "every row" then begin
        List.iter
          (fun attr ->
            let cells = (Enc_relation.column leaf attr).Enc_relation.cells in
            let on_both =
              Array.exists
                (fun cell ->
                  let shards =
                    List.filter_map
                      (fun g -> if Enc_relation.cell_equal cells.(g) cell then Some owner.(g) else None)
                      (List.init (Array.length cells) Fun.id)
                  in
                  List.mem 0 shards && List.mem 1 shards)
                cells
            in
            Alcotest.(check bool) (attr ^ ": a repeated cell sits on both shards") true on_both)
          [ "a"; "b"; "c" ];
        match Wire.response_of_string single with
        | Wire.R_rows [| Wire.Coded _; Wire.Coded _; Wire.Coded _; Wire.Cells _; Wire.Cells _ |] -> ()
        | _ -> Alcotest.fail "the single backend did not code a, b and c"
      end;
      Alcotest.(check string) (name ^ ": the coding of the fetched cells") reference single;
      Alcotest.(check string) (name ^ ": same response bytes") single sharded)

(* A form the decoder accepts but no server writes: row [r], the last
   whose cell appeared before it, gets an entry of its own, so the
   dictionary holds that cell twice. [None] when no cell repeats. *)
let duplicate_entry cells =
  let class_of, _ = Enc_relation.classes_of_cells cells in
  let seen = Hashtbl.create 16 and r = ref (-1) in
  Array.iteri
    (fun i c -> if Hashtbl.mem seen c then r := i else Hashtbl.add seen c ())
    class_of;
  if !r < 0 then None
  else
    let ids = Hashtbl.create 16 and firsts = ref [] in
    let codes =
      Array.mapi
        (fun i c ->
          let key = if i = !r then -1 else c in
          match Hashtbl.find_opt ids key with
          | Some id -> id
          | None ->
            let id = Hashtbl.length ids in
            Hashtbl.add ids key id;
            firsts := i :: !firsts;
            id)
        class_of
    in
    Some (Wire.Coded { dict = Array.of_list (List.rev_map (Array.get cells) !firsts); codes })

(* Shard 0 sends every column of more than [Wire.small_rows] rows with a
   repeat in a non-canonical form the decoder accepts: [`Dup] with a
   duplicated dictionary entry, [`Plain] as its cells under tag 0. *)
let noncanonical_connect ~form i =
  let serve = Server_api.session_handler (Backend_mem.view (Backend_mem.empty ())) in
  let recode col =
    let cells = Wire.column_cells col in
    if Array.length cells <= Wire.small_rows then col
    else
      match (form, duplicate_entry cells) with
      | `Dup, Some coded -> coded
      | `Plain, Some _ -> Wire.Cells cells
      | _, None -> col
  in
  let handle up =
    let down = serve up in
    if i <> 0 then down
    else
      match Wire.response_of_string down with
      | Wire.R_rows cols ->
        let sent = Wire.response_to_string (Wire.R_rows (Array.map recode cols)) in
        ignore (Wire.response_of_string sent);
        sent
      | _ -> down
  in
  Server_api.connect_handler ~name:"mem" ~handle ~close:ignore

let test_noncanonical_shard_recoded () =
  List.iter
    (fun (form, form_name) ->
      coded_fetches ~connect:(noncanonical_connect ~form)
        (fun ~leaf:_ ~owner:_ name ~single ~sharded ~reference:_ ->
          Alcotest.(check string) (form_name ^ ", " ^ name ^ ": same response bytes") single sharded))
    [ (`Dup, "a duplicated entry"); (`Plain, "repeats under tag 0") ]

(* A shard's part of a store as the coordinator once built it before
   writing it: every leaf cut, record by record, to the slots [assign]
   gives shard [s], ascending. The oracle for the sub-image bytes. *)
let restricted_store (enc : Enc_relation.t) assign s =
  let leaves =
    List.map2
      (fun (l : Enc_relation.enc_leaf) (_, owner) ->
        let globals =
          List.init (Array.length owner) Fun.id
          |> List.filter (fun g -> owner.(g) = s)
          |> Array.of_list
        in
        let pick a = Array.map (Array.get a) globals in
        { l with
          Enc_relation.row_count = Array.length globals;
          tids = pick l.Enc_relation.tids;
          columns =
            List.map
              (fun (c : Enc_relation.enc_column) ->
                Enc_relation.make_column ~attr:c.Enc_relation.attr ~scheme:c.Enc_relation.scheme
                  (pick c.Enc_relation.cells))
              l.Enc_relation.columns })
      enc.Enc_relation.leaves assign
  in
  { enc with Enc_relation.leaves }

(* An Install over S mem shards builds a form for each of the image's D
   deterministic columns at the coordinator's decode and at each shard's,
   (1 + S) * D in all: the sub-images are written from the decoded
   leaves' rows, building none. Each shard receives the bytes of its
   restricted store. *)
let test_install_writes_sub_images () =
  let o = mixed_owner () in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let enc = o.System.enc in
  let image = Wire.to_string enc in
  let d =
    List.fold_left
      (fun acc (l : Enc_relation.enc_leaf) ->
        acc
        + List.length
            (List.filter
               (fun (c : Enc_relation.enc_column) ->
                 Enc_relation.deterministic c.Enc_relation.scheme)
               l.Enc_relation.columns))
      0 enc.Enc_relation.leaves
  in
  Alcotest.(check bool) "the image has deterministic columns" true (d > 0);
  let builds = Metrics.counter "exec.eq_index.builds" in
  List.iter
    (fun shards ->
      let installed = Array.make shards "" in
      let connect i =
        let serve = Server_api.session_handler (Backend_mem.view (Backend_mem.empty ())) in
        let handle up =
          (match Wire.request_of_string up with
           | Wire.Install sub -> installed.(i) <- sub
           | _ -> ());
          serve up
        in
        Server_api.connect_handler ~name:"mem" ~handle ~close:ignore
      in
      let st = Backend_sharded.create ~policy:Backend_sharded.Hash ~connect ~shards () in
      let conn = Backend_sharded.connect st in
      Fun.protect ~finally:(fun () -> Server_api.close conn) @@ fun () ->
      let before = Metrics.value builds in
      Server_api.install conn image;
      Alcotest.(check int)
        (Printf.sprintf "%d shards: form builds" shards)
        ((1 + shards) * d)
        (Metrics.value builds - before);
      let assign = Backend_sharded.assignment Backend_sharded.Hash ~shards enc in
      Array.iteri
        (fun s sub ->
          Alcotest.(check string)
            (Printf.sprintf "%d shards: shard %d's sub-image" shards s)
            (Wire.to_string (restricted_store enc assign s))
            sub)
        installed)
    [ 1; 2; 3 ]

(* On one domain the coordinator runs its legs in turn on the calling
   domain, and a failing leg strands no other: with legs 0 and 2 of a
   Describe raising, every leg still runs, leg 1 counts its round in
   its exec.wire.shard1.* counters, and the exception the outer call
   sees is leg 0's. *)
exception Leg_failed of int

let test_one_domain_legs_run_on_caller () =
  let o = misreport_owner () in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let saved = Parallel.domain_count () in
  Parallel.set_domain_count 1;
  Fun.protect ~finally:(fun () -> Parallel.set_domain_count saved) @@ fun () ->
  let failing = ref false and legs = ref [] in
  let connect i =
    let serve = Server_api.session_handler (Backend_mem.view (Backend_mem.empty ())) in
    Server_api.connect_handler ~name:"mem" ~close:ignore ~handle:(fun up ->
        legs := (i, Domain.self ()) :: !legs;
        if !failing && i <> 1 then raise (Leg_failed i) else serve up)
  in
  let st = Backend_sharded.create ~policy:Backend_sharded.Hash ~connect ~shards:3 () in
  let conn = Backend_sharded.connect st in
  Fun.protect ~finally:(fun () -> Server_api.close conn) @@ fun () ->
  Server_api.install conn (Wire.to_string o.System.enc);
  let caller = Domain.self () in
  Alcotest.(check bool) "the Install legs ran on the calling domain" true
    (List.for_all (fun (_, d) -> d = caller) !legs);
  legs := [];
  failing := true;
  let shard1 = Metrics.counter "exec.wire.shard1.requests" in
  let before = Metrics.value shard1 in
  Alcotest.check_raises "leg 0's failure is re-raised" (Leg_failed 0) (fun () ->
      ignore (Server_api.describe conn));
  Alcotest.(check (list int)) "every leg ran, in shard order" [ 0; 1; 2 ]
    (List.rev_map fst !legs);
  Alcotest.(check bool) "every leg ran on the calling domain" true
    (List.for_all (fun (_, d) -> d = caller) !legs);
  Alcotest.(check int) "leg 1 counted its round" 1 (Metrics.value shard1 - before)

(* Socket legs mostly wait, so a coordinator whose legs are "socket"
   connections gives each its own lane even on one domain: each leg of a
   Describe waits (up to 5 s) until the other has also entered, which
   only overlapping legs do. *)
let test_remote_legs_overlap_on_one_domain () =
  let o = misreport_owner () in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let saved = Parallel.domain_count () in
  Parallel.set_domain_count 1;
  Fun.protect ~finally:(fun () -> Parallel.set_domain_count saved) @@ fun () ->
  let barrier = Atomic.make false and entered = Atomic.make 0 in
  let met = Array.make 2 false in
  let connect i =
    let serve = Server_api.session_handler (Backend_mem.view (Backend_mem.empty ())) in
    Server_api.connect_handler ~name:"socket" ~close:ignore ~handle:(fun up ->
        if Atomic.get barrier then begin
          Atomic.incr entered;
          let deadline = Unix.gettimeofday () +. 5.0 in
          while Atomic.get entered < 2 && Unix.gettimeofday () < deadline do
            Domain.cpu_relax ()
          done;
          met.(i) <- Atomic.get entered >= 2
        end;
        serve up)
  in
  let st =
    Backend_sharded.create ~policy:Backend_sharded.Hash ~connect ~shards:2 ()
  in
  let conn = Backend_sharded.connect st in
  Fun.protect ~finally:(fun () -> Server_api.close conn) @@ fun () ->
  Server_api.install conn (Wire.to_string o.System.enc);
  Atomic.set barrier true;
  ignore (Server_api.describe conn);
  Alcotest.(check (array bool)) "both legs were in flight at once" [| true; true |] met

let suite =
  [ t "policy names round-trip" test_policy_names;
    t "assignment deterministic, total, in range" test_assignment_deterministic;
    lpt_bound_prop;
    skew_beats_hash_prop;
    t "skew strictly beats hash on a colliding family"
      test_skew_strictly_beats_hash_somewhere;
    t "mem/sharded parity: bags, counters, wire, shard accounting"
      test_sharded_mem_parity;
    t "mem/sharded parity: homomorphic aggregation"
      test_sharded_aggregation_parity;
    t "differential sharded twin green" test_differential_sharded_twin;
    t "shard answers of the wrong length are typed corruption"
      test_shard_length_misreports_typed;
    t "bad slots: sharded error bytes equal a single backend's"
      test_bad_slot_error_bytes;
    t "coded fetches: sharded bytes equal a single backend's" test_coded_fetch_bytes;
    t "a fetch skips the shards that own none of its slots" test_fetch_skips_idle_shards;
    t "a shard's non-canonical coding is re-coded by the coordinator"
      test_noncanonical_shard_recoded;
    t "merged masks equal a per-bit scatter of the shards' masks" test_merged_masks_per_bit;
    t "an Install writes each shard's sub-image without building its forms"
      test_install_writes_sub_images;
    t "one domain: legs run in turn on the caller, and a failing leg strands none"
      test_one_domain_legs_run_on_caller;
    t "one domain: remote legs still overlap" test_remote_legs_overlap_on_one_domain ]
