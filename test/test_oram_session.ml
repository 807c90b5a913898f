(* Server-side ORAM without server state: each partner of an anchor fetch
   is one [Oram_fetch] that installs, reads and drops its tree, so a
   session answers every fetch as a fresh session would. Blocks are bound
   to their slots, and the leakage profile counts the touches of the
   reads the executor charged. *)

open Snf_relational
open Snf_exec
module Scheme = Snf_crypto.Scheme
module Wiretrace = Snf_obs.Wiretrace
module Leakage = Snf_obs.Leakage

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

let is_fetch up =
  match Wire.request_of_string up with Wire.Oram_fetch _ -> true | _ -> false

(* A connection over [serve] that hands every ORAM round trip to [spy]. *)
let spied_conn serve spy =
  Server_api.connect_handler ~name:"mem" ~close:ignore ~handle:(fun up ->
      let down = serve up in
      if is_fetch up then spy up down;
      down)

let test_session_holds_no_tree () =
  let o = owner () in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let view = Backend_mem.view (Backend_mem.of_store o.System.enc) in
  let rounds = ref [] in
  let conn =
    spied_conn (Server_api.session_handler view) (fun up down ->
        rounds := (up, down) :: !rounds)
  in
  let rep = o.System.plan.Snf_core.Normalizer.representation in
  List.iteri
    (fun i q ->
      let before = List.length !rounds in
      match Executor.run_conn ~mode:`Oram o.System.client conn rep q with
      | Error e -> Alcotest.failf "query %d: %s" i e
      | Ok (ans, tr) ->
        Helpers.check_same_bag (Printf.sprintf "query %d oracle-correct" i)
          (System.reference o q) ans;
        Alcotest.(check int)
          (Printf.sprintf "query %d: one ORAM round trip per partner" i)
          (List.length tr.Executor.plan.Planner.leaves - 1)
          (List.length !rounds - before))
    queries;
  (* Every fetch, replayed newest first on a session that never saw the
     others, gets the same bytes back: nothing of an earlier fetch
     outlives it. *)
  let fresh = Server_api.session_handler view in
  List.iteri
    (fun i (up, down) ->
      Alcotest.(check string)
        (Printf.sprintf "fetch %d answered as by a fresh session" i)
        down (fresh up))
    !rounds

(* A server answering each slot with the authentic block of the next
   slot: every block it returns opens under the leaf's key, so only the
   slot binding can tell. The query must fail typed, never answer. *)
let test_swapped_block_is_corruption () =
  let o = owner () in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let serve = Server_api.session_handler (Backend_mem.view (Backend_mem.of_store o.System.enc)) in
  let conn =
    Server_api.connect_handler ~name:"mem" ~close:ignore ~handle:(fun up ->
        let down = serve up in
        match (Wire.request_of_string up, Wire.response_of_string down) with
        | Wire.Oram_fetch { blocks; slots; _ }, Wire.R_oram { touches; _ } ->
          let n = Array.length blocks in
          Wire.response_to_string
            (Wire.R_oram
               { blocks = Array.map (fun s -> blocks.((s + 1) mod n)) slots;
                 touches })
        | _ -> down)
  in
  let rep = o.System.plan.Snf_core.Normalizer.representation in
  match Executor.run_conn ~mode:`Oram o.System.client conn rep (List.hd queries) with
  | Ok (ans, _) ->
    Alcotest.failf "swapped blocks answered %d rows instead of failing"
      (Relation.cardinality ans)
  | Error e -> Alcotest.failf "swapped blocks: planner error %s" e
  | exception Integrity.Corruption c ->
    Alcotest.(check string) "typed corruption in the ORAM" "oram" c.Integrity.where

(* The leakage profile's ORAM touches are what the executor charged: the
   reads of every fetch, not the tree's install writes. *)
let test_profile_touches_match_traces () =
  let o = owner () in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let charged, trace =
    System.record_wire_trace (fun () ->
        List.fold_left
          (fun acc q ->
            match System.query ~mode:`Oram o q with
            | Ok (_, tr) -> acc + tr.Executor.oram_bucket_touches
            | Error e -> Alcotest.fail e)
          0 queries)
  in
  Alcotest.(check bool) "the queries touch buckets" true (charged > 0);
  Alcotest.(check int) "profile touches = traced touches" charged
    (Leakage.profile trace).Leakage.p_oram_touches

(* SNFT trace of the sequence above with timestamps zeroed. Re-recorded
   when Describe began carrying tid digests, and again when each partner
   became one Oram_fetch (one message instead of an install plus one
   read per survivor) and Describe took over the shape check (one admin
   message per query instead of two), and again when a query's filters
   became one Q_batch round trip instead of one Filter round per leaf,
   and again when fetched columns became dictionary-coded: only the
   R_rows answers' byte counts moved; and again when SNFM went to
   version 6 (varint integers and slot forms): only byte counts moved.
   The pin is the digest of the trace's SNFT JSON text since the binary
   encoding was deleted; it was recorded beside the binary digest, on
   the same run. *)
let test_trace_pinned () =
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
  Alcotest.(check int) "events" 58 (List.length events);
  Alcotest.(check string) "trace JSON text" "f1dc897fab38bcf5a1cf7ee38f520134"
    (Digest.to_hex
       (Digest.string (Snf_obs.Json.to_string (Wiretrace.to_json { trace with Wiretrace.events }))))

let suite =
  [ t "a session holds no tree after the fetch that built it" test_session_holds_no_tree;
    t "a block answered for another slot is corruption" test_swapped_block_is_corruption;
    t "profile ORAM touches equal the executor's" test_profile_touches_match_traces;
    t "ORAM SNFT trace bytes pinned" test_trace_pinned ]
