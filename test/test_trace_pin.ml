(* Pinned wire and trace output of the executor.

   A fixed mix of single queries — 1-, 2- and 3-leaf sort-merge, ORAM,
   Binning 16, the equality index and the tombstone filter — and two
   8-query batches (each with a planner-error slot, leaf sets shared by
   several members and leaf sets used once) run with the clock pinned,
   under 1 and 2 domains, on an in-process store and over a loopback
   socket. Every configuration must produce the same pinned values:

   - a single query is pinned byte-for-byte: the digest of its binary
     SNFT trace and the digest of its [Executor.trace] record;
   - a batch is pinned per query window: the digest of each window's
     events sorted by content (so the order of rounds inside a window
     may move, nothing else), plus each member's trace record.

   The planner is warmed before recording, so every recorded decision is
   a cache hit whatever ran earlier in the process. *)

open Snf_relational
module Scheme = Snf_crypto.Scheme
module Wiretrace = Snf_obs.Wiretrace
open Snf_exec

let t name f = Alcotest.test_case name `Quick f

let with_domains domains f =
  let saved = Parallel.domain_count () in
  Parallel.set_domain_count domains;
  Fun.protect ~finally:(fun () -> Parallel.set_domain_count saved) f

let with_pinned_clock f =
  Snf_obs.Clock.set (fun () -> 0.0);
  Fun.protect ~finally:Snf_obs.Clock.use_real f

(* A is DET and E is OPE in one leaf; B, C and D each live alone, so the
   select list decides how many leaves a query joins. D is NDET: a
   predicate on it cannot be evaluated, which makes the error slots. *)
let representation =
  [ Snf_core.Partition.leaf "p0" [ ("A", Scheme.Det); ("E", Scheme.Ope) ];
    Snf_core.Partition.leaf "p1" [ ("B", Scheme.Det) ];
    Snf_core.Partition.leaf "p2" [ ("C", Scheme.Det) ];
    Snf_core.Partition.leaf "p3" [ ("D", Scheme.Ndet) ] ]

let owner ?backend () =
  let attrs = [ "A"; "B"; "C"; "D"; "E" ] in
  let r =
    Relation.create
      (Schema.of_attributes (List.map Attribute.int attrs))
      (List.init 40 (fun i ->
           [| Value.Int (i mod 5); Value.Int (i mod 4); Value.Int (i mod 7);
              Value.Int (i * 3); Value.Int i |]))
  in
  let policy =
    Snf_core.Policy.create
      [ ("A", Scheme.Det); ("B", Scheme.Det); ("C", Scheme.Det); ("D", Scheme.Ndet);
        ("E", Scheme.Ope) ]
  in
  System.outsource_prepared ?backend ~name:"trace-pin"
    ~graph:(Snf_deps.Dep_graph.create attrs) ~representation r policy

let pt select where = Query.point ~select (List.map (fun (a, v) -> (a, Value.Int v)) where)
let rg select a lo hi = Query.range ~select [ (a, Value.Int lo, Value.Int hi) ]
let drop tid = tid mod 3 = 0

type run = {
  mode : Executor.mode;
  use_index : bool;
  drop_tid : (int -> bool) option;
}

let plain = { mode = `Sort_merge; use_index = false; drop_tid = None }

let singles =
  [ ("1-leaf point", plain, pt [ "E" ] [ ("A", 1) ]);
    ("1-leaf range", plain, rg [ "A" ] "E" 5 20);
    ("2-leaf sort-merge", plain, pt [ "B" ] [ ("A", 2) ]);
    ("3-leaf sort-merge", plain, pt [ "B"; "C" ] [ ("A", 3) ]);
    ("oram", { plain with mode = `Oram }, pt [ "B"; "C" ] [ ("A", 1) ]);
    ("binning 16", { plain with mode = `Binning 16 }, pt [ "C"; "D" ] [ ("B", 2) ]);
    ("index 1-leaf", { plain with use_index = true }, pt [ "E" ] [ ("A", 2) ]);
    ("index 2-leaf", { plain with use_index = true }, pt [ "B" ] [ ("A", 4) ]);
    ("drop_tid", { plain with drop_tid = Some drop }, pt [ "C" ] [ ("B", 1) ]) ]

(* Leaf sets: {p0,p1} and {p2,p3} are each used by two members, the
   3-leaf sets once; slot 1 cannot be planned. *)
let batch_a =
  [ pt [ "B" ] [ ("A", 1) ];
    pt [ "B" ] [ ("D", 3) ];
    pt [ "B"; "C" ] [ ("A", 2) ];
    pt [ "B" ] [ ("A", 3) ];
    pt [ "E" ] [ ("A", 0) ];
    pt [ "D" ] [ ("C", 3) ];
    pt [ "D" ] [ ("C", 4) ];
    pt [ "A"; "D" ] [ ("B", 0) ] ]

let batch_b =
  [ rg [ "B" ] "E" 3 30;
    pt [ "C" ] [ ("B", 1) ];
    pt [ "C" ] [ ("B", 2) ];
    pt [ "C"; "D" ] [ ("A", 4) ];
    pt [ "A" ] [ ("D", 9) ];
    pt [ "C" ] [ ("B", 3) ];
    pt [ "E" ] [ ("A", 2) ];
    pt [ "B"; "D" ] [ ("C", 1) ] ]

let batches =
  [ ("batch sort-merge", plain, batch_a);
    ("batch index+drop_tid", { plain with use_index = true; drop_tid = Some drop }, batch_b) ]

let hex s = Digest.to_hex (Digest.string s)

(* The whole record, by value; sharing is not part of the pin. *)
let trace_digest (tr : Executor.trace) = hex (Marshal.to_string tr [ Marshal.No_sharing ])

let outcome_digest = function
  | Ok (_, tr) -> trace_digest tr
  | Error e -> "error: " ^ e

(* Cut a trace into its query windows; events outside every window (a
   batch's shared prelude) form windows of their own, in order. Each
   window is compared as the sorted list of its events' content. *)
let window_digests (trace : Wiretrace.trace) =
  let content (e : Wiretrace.event) = (e.dir, e.phase, e.tag, e.bytes, e.summary) in
  let digest evs = hex (Marshal.to_string (List.sort compare evs) [ Marshal.No_sharing ]) in
  let rec go acc cur inside = function
    | [] -> List.rev (if cur = [] then acc else digest cur :: acc)
    | (e : Wiretrace.event) :: rest -> (
      match (e.dir, e.phase) with
      | Wiretrace.Mark, "query.begin" ->
        let acc = if cur = [] then acc else digest cur :: acc in
        go acc [ content e ] true rest
      | Wiretrace.Mark, "query.end" when inside ->
        go (digest (content e :: cur) :: acc) [] false rest
      | _ -> go acc (content e :: cur) inside rest)
  in
  go [] [] false trace.Wiretrace.events

let query (o : System.owner) r q =
  System.query ~mode:r.mode ~use_index:r.use_index ?drop_tid:r.drop_tid o q

let query_batch (o : System.owner) r qs =
  System.query_batch ~mode:r.mode ~use_index:r.use_index ?drop_tid:r.drop_tid o qs

(* One line per single query and per batch member: what this
   configuration produced. *)
let observe o =
  let rep = o.System.plan.Snf_core.Normalizer.representation in
  List.iter
    (fun q -> ignore (Planner.decide rep q))
    (List.map (fun (_, _, q) -> q) singles @ batch_a @ batch_b);
  let singles =
    List.map
      (fun (name, r, q) ->
        let outcome, trace = System.record_wire_trace (fun () -> query o r q) in
        Printf.sprintf "%s: snft %s trace %s" name
          (hex (Wiretrace.to_binary_string trace))
          (outcome_digest outcome))
      singles
  in
  let batches =
    List.concat_map
      (fun (name, r, qs) ->
        let outcomes, trace = System.record_wire_trace (fun () -> query_batch o r qs) in
        List.mapi (fun i d -> Printf.sprintf "%s window %d: %s" name i d)
          (window_digests trace)
        @ List.mapi
            (fun i oc -> Printf.sprintf "%s[%d]: trace %s" name i (outcome_digest oc))
            outcomes)
      batches
  in
  singles @ batches

(* Recorded before single queries and batches shared one pipeline. A
   sort-merge query's record carries the comparisons and rows of the tid
   orders it builds, so a query whose leaves are all warm records 0. *)
let pinned =
  [ "1-leaf point: snft c1708e828edd6f2809ce02777ede5172 trace 11f8ae063b64d5ccff03a1aa5cff28eb";
    "1-leaf range: snft 6bfbdeccab0f89ca69a88acdd940b3be trace 4211d0e0e2f1bfb04cc3fd5ac64d2656";
    "2-leaf sort-merge: snft 3a9feae690e25121e82441e87c283b0e trace ea335aeac5cc03c4fad94ae4699b3bfe";
    "3-leaf sort-merge: snft 86beba17b06af48fdfc005c868370a3f trace 8d77c358c047daea7929964eaab3f490";
    "oram: snft 878f9320ae65afab8797e53d974e079b trace 9700fc86e980aa7b352cbac08fe0ddb4";
    "binning 16: snft 05397f7b79ad324ad8f20428a14788dc trace b5e06d717a37565b423394c23696bd7c";
    "index 1-leaf: snft 143fea516f21b38afb51b3f3e44f0de7 trace cdae77c19f4bfcff28bd2e5322b405b0";
    "index 2-leaf: snft 257cc49d8a28aeaafd00093a817a69b9 trace 62c957737b1c683d10def9cda26bf6fb";
    "drop_tid: snft 8c0255fc2a734148b4be2c88b94e1b5d trace 38f53abf3ff8b5e9b656660165577925";
    "batch sort-merge window 0: 6d653c68e41d426423fc289a3529ce3b";
    "batch sort-merge window 1: 274e7d12cb696e9cfe754de57c1e36a3";
    "batch sort-merge window 2: 2524d339fa9bd1adb1071deba3d2a6fb";
    "batch sort-merge window 3: 29f5b5682bdf110e6fc2f872be4abed8";
    "batch sort-merge window 4: ad168229d0355292c62be80a49e30728";
    "batch sort-merge window 5: e04edd1e219f4110cd27e87da7a0ffda";
    "batch sort-merge window 6: f1748d5325c7f2f9f7a21b8f07d76db8";
    "batch sort-merge window 7: 4ce33bf08aa56079fec8d357755b3d02";
    "batch sort-merge window 8: 06b946fab511f7020b27e83e3338515f";
    "batch sort-merge[0]: trace ebf7752a4734a73684d2ce56873ae5aa";
    "batch sort-merge[1]: trace error: no stored copy of \"D\" can evaluate the predicate";
    "batch sort-merge[2]: trace 47c2bd266f6f7ebc0f0e39de85e37121";
    "batch sort-merge[3]: trace 9e43861c9a32aa077396cb90625cc041";
    "batch sort-merge[4]: trace 1b89d5dcffd8bcc78caf236b594172ca";
    "batch sort-merge[5]: trace 7f8bee92f9c6b1d05e813c8c2b5ac0f6";
    "batch sort-merge[6]: trace 3248dc532253afca64d55a9a49b48392";
    "batch sort-merge[7]: trace d37a6cf2bb188c84bccfeb5b8fea8f48";
    "batch index+drop_tid window 0: 142b3db3c85f77222ba370d38e5a1453";
    "batch index+drop_tid window 1: cbbf8b6ca41aa32c1c77326faaf2c0b6";
    "batch index+drop_tid window 2: 678d4acd1cf932537947148cb54fa8d1";
    "batch index+drop_tid window 3: 21954ed87ad5d7516f033226add12a6e";
    "batch index+drop_tid window 4: afc496f5a63510b5cb0b5554c3e3e75f";
    "batch index+drop_tid window 5: 8fa11073befff7b25b1588af3b2cd32a";
    "batch index+drop_tid window 6: 5ec1379e7c6152126cddf4f93d280e8f";
    "batch index+drop_tid window 7: 487a8f90129c8e8185a6e3559fb3f60e";
    "batch index+drop_tid window 8: 06b946fab511f7020b27e83e3338515f";
    "batch index+drop_tid[0]: trace f473d47495bad4596d0a89eb070f76c9";
    "batch index+drop_tid[1]: trace bccf567f888c9322b2055e75bb46bbd1";
    "batch index+drop_tid[2]: trace 9bddd450996235ef54cdca917e08d4eb";
    "batch index+drop_tid[3]: trace 753687743281c190da710ea316d65fc0";
    "batch index+drop_tid[4]: trace error: no stored copy of \"D\" can evaluate the predicate";
    "batch index+drop_tid[5]: trace 06699cfe3a6ad4c214eca04a71eae833";
    "batch index+drop_tid[6]: trace 392e4ad1e252b8d9126cd43fce2fec5a";
    "batch index+drop_tid[7]: trace 710c3a16d464d7a833babfd983857e8f" ]

let fresh_addr () =
  let path = Filename.temp_file "snfpin" ".sock" in
  Sys.remove path;
  "unix:" ^ path

let on_backend backend f =
  match backend with
  | `Mem ->
    let o = owner () in
    Fun.protect ~finally:(fun () -> System.release o) (fun () -> f o)
  | `Socket -> (
    let addr = fresh_addr () in
    match Snf_net.Server.start_mem ~addr () with
    | Error e -> Alcotest.failf "cannot start server on %s: %s" addr e
    | Ok srv ->
      Fun.protect ~finally:(fun () -> Snf_net.Server.stop srv) @@ fun () ->
      let o = owner ~backend:(`Ext (Snf_net.Client.backend addr)) () in
      Fun.protect ~finally:(fun () -> System.release o) (fun () -> f o))

let test_pinned backend domains () =
  let lines =
    with_domains domains (fun () ->
        with_pinned_clock (fun () -> on_backend backend observe))
  in
  Alcotest.(check (list string)) "pinned wire and trace output" pinned lines

let suite =
  [ t "mem, 1 domain" (test_pinned `Mem 1);
    t "mem, 2 domains" (test_pinned `Mem 2);
    t "socket, 1 domain" (test_pinned `Socket 1);
    t "socket, 2 domains" (test_pinned `Socket 2) ]
