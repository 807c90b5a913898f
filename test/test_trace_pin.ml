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
    ("2-leaf sort-merge, warm", plain, pt [ "B" ] [ ("A", 2) ]);
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

(* Recorded before single queries and batches shared one pipeline, and
   again when Describe began carrying tid digests. A sort-merge query's
   record carries the comparisons and rows of the tid orders it builds,
   so a query whose leaves are all warm records 0; and a leaf whose tid
   column this connection already holds is not fetched again, so the
   warm 2-leaf repeat carries no Fetch_tids round. Re-recorded when
   Describe took over the shape check: every query (and each batch's
   shared prelude, charged to its first member) sends one admin message
   instead of two, and the ORAM query sends one Oram_fetch per partner
   instead of an install plus one read per survivor. The other batch
   windows and members did not move. Re-recorded when a lone query's
   filters became one Q_batch round trip instead of one Filter round
   per leaf (and SNFM went to version 4): every single query's trace
   and record move, no batch window or member does. *)
let pinned =
  [ "1-leaf point: snft 162bf05cce83bb1f64467c6143e998c0 trace f77158d9a671fd95dd5b39ce76f06e70";
    "1-leaf range: snft f446f412ab10380c49f03d324b3720e7 trace e6ec21fb45182c3eb634b15b06673ec3";
    "2-leaf sort-merge: snft 6b6dae88a45d078d17114321443d7383 trace 2f00ba50381bbd60911be2f90e0a404b";
    "3-leaf sort-merge: snft 86e09304a4512f371ac36493d89a0b48 trace 839e0d888e79885b3dcd17116d1c58df";
    "2-leaf sort-merge, warm: snft 75f5011687ed5f90acfbb75c7d821337 trace 2135f79ffc7d4a842af5f0f33bf2982a";
    "oram: snft 134c238efcc7c97bfd0b7d8a2a26b86a trace 9c83d321d819bada82495dd7dd24e907";
    "binning 16: snft b08e4aaf713b338767e374a3fc58309c trace 81bc584812619f0021df6c6fe6dec68e";
    "index 1-leaf: snft b1c964cb01a9c60f5185a4646992997a trace 153b65b7ae245346e25918e79500b853";
    "index 2-leaf: snft 8c5096d6c675db6ddb32ea80246034e1 trace 913ec6c66fc793b0fd1778d3840cf608";
    "drop_tid: snft 68abb07aac68b69ce7c295c8cd5daedd trace b93568bc9b041dd6f03d952f8d82e3e2";
    "batch sort-merge window 0: fc97cac50c82ef57905bfe2448805b14";
    "batch sort-merge window 1: 5a4b02080164cb72a01e763503dd21e5";
    "batch sort-merge window 2: 5150cd68268c04b4b4b0ce67dbb735b2";
    "batch sort-merge window 3: 29f5b5682bdf110e6fc2f872be4abed8";
    "batch sort-merge window 4: ad168229d0355292c62be80a49e30728";
    "batch sort-merge window 5: 05aa21d0179e5c646479d689121e5337";
    "batch sort-merge window 6: f1748d5325c7f2f9f7a21b8f07d76db8";
    "batch sort-merge window 7: 309ae8d3b32080cd6c35238114fee741";
    "batch sort-merge window 8: 06b946fab511f7020b27e83e3338515f";
    "batch sort-merge[0]: trace 749db2a274c1413bab8054359ffa3750";
    "batch sort-merge[1]: trace error: no stored copy of \"D\" can evaluate the predicate";
    "batch sort-merge[2]: trace f7008abbcb42d01bfdf8590622288f6c";
    "batch sort-merge[3]: trace 9e43861c9a32aa077396cb90625cc041";
    "batch sort-merge[4]: trace 1b89d5dcffd8bcc78caf236b594172ca";
    "batch sort-merge[5]: trace 9251eb3ff4efd29988c9abc74db3f6b0";
    "batch sort-merge[6]: trace 3248dc532253afca64d55a9a49b48392";
    "batch sort-merge[7]: trace 37168ae9d02b141ad7fb994cf888d9c4";
    "batch index+drop_tid window 0: b446028df7ee4f5e012f0f142b4c12e1";
    "batch index+drop_tid window 1: 8a6d8def69744ca5a3acaf03f8b6beae";
    "batch index+drop_tid window 2: 4072df0dc3eadf369505878129020a1c";
    "batch index+drop_tid window 3: 21954ed87ad5d7516f033226add12a6e";
    "batch index+drop_tid window 4: 7a459c6fbd281286e4b2b83febc3ea94";
    "batch index+drop_tid window 5: 8fa11073befff7b25b1588af3b2cd32a";
    "batch index+drop_tid window 6: 5ec1379e7c6152126cddf4f93d280e8f";
    "batch index+drop_tid window 7: 3ef4d292fb52b4abccf46ef7d0c10edc";
    "batch index+drop_tid window 8: 06b946fab511f7020b27e83e3338515f";
    "batch index+drop_tid[0]: trace c98f943e61b678349f2e18057595442f";
    "batch index+drop_tid[1]: trace 99907374f39ae754664ee29d7f44cef1";
    "batch index+drop_tid[2]: trace 9bddd450996235ef54cdca917e08d4eb";
    "batch index+drop_tid[3]: trace 004ca5651cda114120821cbc77f0c38e";
    "batch index+drop_tid[4]: trace error: no stored copy of \"D\" can evaluate the predicate";
    "batch index+drop_tid[5]: trace 06699cfe3a6ad4c214eca04a71eae833";
    "batch index+drop_tid[6]: trace 392e4ad1e252b8d9126cd43fce2fec5a";
    "batch index+drop_tid[7]: trace ffd357254e3f5e91b5360a0b567e5c0e" ]

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

(* A second query on the same leaf set finds every tid column held under
   the digest Describe announces: it sends no Fetch_tids and no tid
   bytes, and its traffic is the first query's less exactly those
   rounds. *)
let fetch_tids_tag = Wire.request_tag (Wire.Fetch_tids { leaf = "" })

let test_warm_repeat_sends_no_tids backend () =
  on_backend backend @@ fun o ->
  let q = pt [ "B"; "C" ] [ ("A", 3) ] in
  let run () =
    match System.record_wire_trace (fun () -> query o plain q) with
    | Ok (_, tr), trace -> (tr, trace.Wiretrace.events)
    | Error e, _ -> Alcotest.fail e
  in
  let fetches events =
    List.filter
      (fun (e : Wiretrace.event) -> e.dir = Wiretrace.Up && e.tag = fetch_tids_tag)
      events
  in
  let tid_bytes events =
    let rounds = List.map (fun (e : Wiretrace.event) -> e.round) (fetches events) in
    List.fold_left
      (fun (up, down) (e : Wiretrace.event) ->
        if not (List.mem e.round rounds) then (up, down)
        else if e.dir = Wiretrace.Up then (up + e.bytes, down)
        else (up, down + e.bytes))
      (0, 0) events
  in
  let cold, cold_events = run () in
  let warm, warm_events = run () in
  Alcotest.(check int) "the cold query fetches its three columns" 3
    (List.length (fetches cold_events));
  Alcotest.(check int) "the warm repeat fetches none" 0 (List.length (fetches warm_events));
  let up, down = tid_bytes cold_events in
  Alcotest.(check (list int)) "the warm repeat's traffic is the cold one's less its tid rounds"
    [ cold.Executor.wire_requests - 3; cold.Executor.wire_bytes_up - up;
      cold.Executor.wire_bytes_down - down ]
    [ warm.Executor.wire_requests; warm.Executor.wire_bytes_up; warm.Executor.wire_bytes_down ]

let test_pinned backend domains () =
  let lines =
    with_domains domains (fun () ->
        with_pinned_clock (fun () -> on_backend backend observe))
  in
  Alcotest.(check (list string)) "pinned wire and trace output" pinned lines

(* The whole Install image of a store that has one column of each
   encrypted scheme and repeated values in every column: two leaves of 80
   rows, the OPE column with 40 distinct values (enough for [Parallel] to
   fan out over them). Recorded before deterministic cells were encrypted
   once per distinct value and before the Paillier pool went through the
   CRT split; every stored byte must stay as it was, under 1 and 2
   domains. *)
let install_representation =
  [ Snf_core.Partition.leaf "q0"
      [ ("a", Scheme.Det); ("c", Scheme.Ope); ("e", Scheme.Phe) ];
    Snf_core.Partition.leaf "q1" [ ("b", Scheme.Ndet); ("d", Scheme.Ore) ] ]

let install_image () =
  let r =
    Relation.create
      (Schema.of_attributes
         [ Attribute.text "a"; Attribute.text "b"; Attribute.int "c"; Attribute.int "d";
           Attribute.int "e" ])
      (List.init 80 (fun i ->
           [| Value.Text (Printf.sprintf "a%d" (i mod 5));
              Value.Text (Printf.sprintf "b%d" (i mod 3));
              Value.Int (i * 7 mod 40); Value.Int (i mod 6); Value.Int (i mod 7 * 11) |]))
  in
  let client =
    Enc_relation.make_client ~relation_name:"install-pin" ~master:"install-pin-master" ()
  in
  Wire.to_string (Enc_relation.encrypt client r install_representation)

let test_install_image () =
  List.iter
    (fun d ->
      Alcotest.(check string)
        (Printf.sprintf "Install image (domains=%d)" d)
        "19ac0ce46c2341e4123ca1cef5c018eb" (hex (with_domains d install_image)))
    [ 1; 2 ]

let suite =
  [ t "mem, 1 domain" (test_pinned `Mem 1);
    t "mem, 2 domains" (test_pinned `Mem 2);
    t "socket, 1 domain" (test_pinned `Socket 1);
    t "socket, 2 domains" (test_pinned `Socket 2);
    t "mem: a warm repeat sends no tid bytes" (test_warm_repeat_sends_no_tids `Mem);
    t "socket: a warm repeat sends no tid bytes" (test_warm_repeat_sends_no_tids `Socket);
    t "install image of every scheme, 1 and 2 domains" test_install_image ]
