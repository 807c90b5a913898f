(* The ORAM arm as the server sees it: each partner of an anchor fetch is
   read whole in one Fetch_rows, so nothing the server receives tells the
   wanted partner rows apart. *)

open Snf_relational
open Snf_exec
module Scheme = Snf_crypto.Scheme
module Wiretrace = Snf_obs.Wiretrace
module Leakage = Snf_obs.Leakage

let t name f = Alcotest.test_case name `Quick f

let rows = 12

(* One attribute per leaf, so the select list picks the partners. *)
let owner () =
  let r =
    Relation.create
      (Schema.of_attributes (List.map Attribute.int [ "A"; "B"; "C"; "D" ]))
      (List.init rows (fun i ->
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

(* The ORAM arm is the linear-scan ORAM: in the server's view of each
   query, every partner leaf is read whole, by one Fetch_rows naming all
   of its rows, and no request names a strict subset of a partner's
   slots. Only the anchor's own fetch names chosen rows, as on every
   path. No round of the retired ORAM phase crosses. *)
let test_partners_read_whole () =
  let o = owner () in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let leaf_of attr = "l" ^ string_of_int (Char.code attr.[0] - Char.code 'A') in
  let answers, trace =
    System.record_wire_trace (fun () ->
        List.map
          (fun q ->
            match System.query ~mode:`Oram o q with
            | Ok (ans, _) -> Relation.cardinality ans
            | Error e -> Alcotest.fail e)
          queries)
  in
  Alcotest.(check int) "every query answered" (List.length queries) (List.length answers);
  List.iter
    (fun (e : Wiretrace.event) ->
      Alcotest.(check bool) "no ORAM round" false (e.Wiretrace.phase = "oram"))
    trace.Wiretrace.events;
  let views = Leakage.queries trace in
  Alcotest.(check int) "one view per query" (List.length queries) (List.length views);
  List.iter2
    (fun (q : Query.t) (v : Leakage.query_view) ->
      let anchor = List.map (fun p -> leaf_of (Query.pred_attr p)) q.Query.where in
      let partners =
        List.sort_uniq String.compare
          (List.filter (fun l -> not (List.mem l anchor)) (List.map leaf_of q.Query.select))
      in
      List.iter
        (fun partner ->
          let fetches = List.filter (fun f -> f.Leakage.f_leaf = partner) v.Leakage.q_fetches in
          Alcotest.(check int)
            (Printf.sprintf "query %d: one fetch of partner %s" v.Leakage.q_index partner)
            1 (List.length fetches);
          List.iter
            (fun f ->
              Alcotest.(check (array int))
                (Printf.sprintf "query %d: partner %s read whole" v.Leakage.q_index partner)
                (Array.init rows Fun.id) f.Leakage.f_slots)
            fetches)
        partners)
    queries views

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
   the same run. Re-recorded when SNFM 7 retired the ORAM round: each
   partner is one whole-leaf Fetch_rows instead of that fetch plus an
   Oram_fetch. *)
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
  Alcotest.(check int) "events" 44 (List.length events);
  Alcotest.(check string) "trace JSON text" "14bcd03f30d8e06f5b2a8bea6629d17f"
    (Digest.to_hex
       (Digest.string (Snf_obs.Json.to_string (Wiretrace.to_json { trace with Wiretrace.events }))))

let suite =
  [ t "partners are read whole, and no request names a subset of them"
      test_partners_read_whole;
    t "ORAM SNFT trace bytes pinned" test_trace_pinned ]
