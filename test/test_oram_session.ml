(* Per-session ORAM memory: a server session drops the Path ORAM trees
   of earlier anchor fetches when a new fetch begins, so it never holds
   more trees than the latest query's partners, while answers and the
   recorded SNFT trace stay exactly what they were. *)

open Snf_relational
open Snf_exec
module Scheme = Snf_crypto.Scheme
module Wiretrace = Snf_obs.Wiretrace

let t name f = Alcotest.test_case name `Quick f

(* One attribute per leaf, so the select list picks the partners. *)
let owner () =
  let r =
    Relation.create
      (Schema.of_attributes (List.map Attribute.int [ "A"; "B"; "C"; "D" ]))
      (List.init 12 (fun i ->
           [| Value.Int (i mod 4); Value.Int (i mod 3); Value.Int i; Value.Int (i * 7) |]))
  in
  let policy =
    Snf_core.Policy.create
      [ ("A", Scheme.Det); ("B", Scheme.Det); ("C", Scheme.Det); ("D", Scheme.Ndet) ]
  in
  let g = Snf_deps.Dep_graph.create [ "A"; "B"; "C"; "D" ] in
  System.outsource_prepared ~name:"oram-gen" ~graph:g
    ~representation:
      [ Snf_core.Partition.leaf "l0" [ ("A", Scheme.Det) ];
        Snf_core.Partition.leaf "l1" [ ("B", Scheme.Det) ];
        Snf_core.Partition.leaf "l2" [ ("C", Scheme.Det) ];
        Snf_core.Partition.leaf "l3" [ ("D", Scheme.Ndet) ] ]
    r policy

(* 2-leaf and 3-leaf fetches over different leaf pairs, each with
   anchor survivors (so every fetch reads its trees). *)
let queries =
  [ Query.point ~select:[ "B" ] [ ("A", Value.Int 1) ];
    Query.point ~select:[ "C" ] [ ("B", Value.Int 2) ];
    Query.point ~select:[ "B"; "C" ] [ ("A", Value.Int 2) ];
    Query.point ~select:[ "D" ] [ ("C", Value.Int 5) ];
    Query.point ~select:[ "B"; "C" ] [ ("A", Value.Int 3) ] ]

let test_session_keeps_only_current_partners () =
  let o = owner () in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let backend = Backend_mem.of_store o.System.enc in
  let session = Server_api.session (Backend_mem.view backend) in
  let conn =
    Server_api.connect_handler ~name:"mem" ~handle:(Server_api.session_handle session)
      ~close:ignore
  in
  let rep = o.System.plan.Snf_core.Normalizer.representation in
  List.iteri
    (fun i q ->
      match Executor.run_conn ~mode:`Oram o.System.client conn rep q with
      | Error e -> Alcotest.failf "query %d: %s" i e
      | Ok (ans, tr) ->
        Helpers.check_same_bag (Printf.sprintf "query %d oracle-correct" i)
          (System.reference o q) ans;
        let leaves = tr.Executor.plan.Planner.leaves in
        let live = Server_api.session_oram_leaves session in
        Alcotest.(check int)
          (Printf.sprintf "query %d: one live tree per partner" i)
          (List.length leaves - 1) (List.length live);
        Alcotest.(check bool)
          (Printf.sprintf "query %d: live trees belong to this query" i)
          true
          (List.for_all (fun l -> List.mem l leaves) live))
    queries

(* SNFT trace of the sequence above with timestamps zeroed, recorded
   before sessions pruned their trees: pruning is invisible on the wire.
   Re-recorded when Describe began carrying tid digests; the ORAM path
   fetches no tid column, so only the Describe response bytes moved. *)
let test_trace_unchanged () =
  let o = owner () in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let answers, trace =
    System.record_wire_trace (fun () ->
        List.map
          (fun q ->
            match System.query ~mode:`Oram o q with
            | Ok (ans, _) -> Relation.cardinality ans
            | Error e -> Alcotest.fail e)
          queries)
  in
  Alcotest.(check (list int)) "answer sizes" [ 3; 4; 3; 1; 3 ] answers;
  let events =
    List.map (fun e -> { e with Wiretrace.ts_us = 0.0 }) trace.Wiretrace.events
  in
  Alcotest.(check int) "events" 122 (List.length events);
  Alcotest.(check string) "trace bytes" "92ed128229eb39fbf4899c8539ee0286"
    (Digest.to_hex (Digest.string (Wiretrace.to_binary_string { trace with Wiretrace.events })))

let suite =
  [ t "a session holds only the current fetch's ORAM trees"
      test_session_keeps_only_current_partners;
    t "ORAM SNFT trace bytes unchanged by pruning" test_trace_unchanged ]
