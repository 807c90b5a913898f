(* Pinned wire and trace output of the executor.

   A fixed mix of single queries — 1-, 2- and 3-leaf sort-merge, ORAM,
   Binning 16, the equality index and the tombstone filter — and two
   8-query batches (each with a planner-error slot, leaf sets shared by
   several members and leaf sets used once) run with the clock pinned,
   under 1 and 2 domains, on an in-process store and over a loopback
   socket. Every configuration must produce the same pinned values:

   - a single query is pinned byte-for-byte: the digest of its SNFT
     trace's JSON text and the digest of its [Executor.trace] record;
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

(* The digest of a trace's SNFT JSON text. *)
let json_digest trace = hex (Snf_obs.Json.to_string (Wiretrace.to_json trace))

let outcome_digest = function
  | Ok (_, tr) -> trace_digest tr
  | Error e -> "error: " ^ e

(* What an event shows, with and without its byte count. *)
let full (e : Wiretrace.event) = (e.dir, e.phase, e.tag, e.bytes, e.summary)
let bytes_free (e : Wiretrace.event) = (e.dir, e.phase, e.tag, e.summary)

(* Cut a trace into its query windows; events outside every window (a
   batch's shared prelude) form windows of their own, in order. Each
   window is compared as the sorted list of its events' content. *)
let window_digests ~content (trace : Wiretrace.trace) =
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
        Printf.sprintf "%s: json %s trace %s" name (json_digest trace)
          (outcome_digest outcome))
      singles
  in
  let batches =
    List.concat_map
      (fun (name, r, qs) ->
        let outcomes, trace = System.record_wire_trace (fun () -> query_batch o r qs) in
        List.mapi (fun i d -> Printf.sprintf "%s window %d: %s" name i d)
          (window_digests ~content:full trace)
        @ List.mapi
            (fun i oc -> Printf.sprintf "%s[%d]: trace %s" name i (outcome_digest oc))
            outcomes)
      batches
  in
  singles @ batches

(* The server's view without byte counts: per single query, the digest
   of its events' (dir, phase, tag, summary) in recorded order; per batch
   window, the digest of those sorted, as [observe] cuts them. *)
let observe_view o =
  let rep = o.System.plan.Snf_core.Normalizer.representation in
  List.iter
    (fun q -> ignore (Planner.decide rep q))
    (List.map (fun (_, _, q) -> q) singles @ batch_a @ batch_b);
  let singles =
    List.map
      (fun (name, r, q) ->
        let _, trace = System.record_wire_trace (fun () -> query o r q) in
        Printf.sprintf "%s: view %s" name
          (hex
             (Marshal.to_string
                (List.map bytes_free trace.Wiretrace.events)
                [ Marshal.No_sharing ])))
      singles
  in
  let batches =
    List.concat_map
      (fun (name, r, qs) ->
        let _, trace = System.record_wire_trace (fun () -> query_batch o r qs) in
        List.mapi
          (fun i d -> Printf.sprintf "%s window %d: view %s" name i d)
          (window_digests ~content:bytes_free trace))
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
   and record move, no batch window or member does. Re-recorded when
   fetched columns became dictionary-coded (SNFM version 5): every
   value that covers an R_rows answer moves, through that answer's byte
   count and the record's wire_bytes_down alone (with those two masked,
   every event and record equals the parent's), and [pinned_view] below
   does not move. Re-recorded when a batch's members began to share
   their fetch windows, one Fetch_rows per leaf and attribute list: the
   shared rounds cross in the batch prelude (window 0), before any
   member window opens, so every member window of these two sort-merge
   batches now holds only its marks, and every member record moves,
   since each carries its own traffic and the shared rounds go to the
   first executed member. No single case moved. Re-recorded when SNFM
   went to version 6 (varint integers, slot arrays in the form their
   content selects): every value that covers a message moves through its
   byte counts alone, and [pinned_view] below does not move. A single
   query's trace is pinned by the digest of its SNFT JSON text since the
   binary encoding was deleted; each such digest was first recorded
   beside the binary one, on the same run. Re-recorded when SNFM 7
   retired the ORAM round: only the ORAM single moved, which now reads
   its partner in one whole-leaf Fetch_rows and sends no Oram_fetch (its
   record's estimate now prices that fetch); the version byte is in no
   digest here. *)
let pinned =
  [ "1-leaf point: json 1fa9322849704dbd608827ae720b5b0e trace 7b56bd7fbc6a853c2d92b47b83e3edb5";
    "1-leaf range: json 8e0de99d48027ae9ddc431194016ed32 trace 0cfb00d61dca6546a0ed352c2a39529e";
    "2-leaf sort-merge: json 856d785d6570f34a2ba8c02dc132b8cf trace b41af048a415609e82f196ac912ecc90";
    "3-leaf sort-merge: json e1c66a03105f53b3ecc11a46cf8b9065 trace ffefac7bb3663ba9117bb20a345c94c9";
    "2-leaf sort-merge, warm: json 964a2f0839c4e89b1fac83272fb73ad9 trace a524dda0b40d3a26db1813630fac6808";
    "oram: json 2f41a9671abea637ef226ce47591a87a trace 2f70e5f7d45b17d7126974df6ddd2949";
    "binning 16: json e154fd235e4951ba933e6f1b1e0f9bfd trace 960c43df4a3b037393f6f4953f2816f5";
    "index 1-leaf: json 4b5eee469d3b949406f2a0f35ca1eae8 trace ebb6ad6069b0ec3bfc6668e5c9d594fe";
    "index 2-leaf: json 5065d12c751cdfdce4a68ed8e9280e82 trace caf6bc811945ffdd767a6e01f4dce317";
    "drop_tid: json 923bd9512eacea6ae45e709ba2252011 trace b02d12f0b97d0ba5cd13c633c8b5dc78";
    "batch sort-merge window 0: 2ad4fa7d839ec85adee0c9a214f3858c";
    "batch sort-merge window 1: 465506b6f7e2380148289d2acf16593c";
    "batch sort-merge window 2: 1ff558507ac2c1e8ddc5135c4399b1ac";
    "batch sort-merge window 3: a0035452dd9ababe9ae79c379e42d851";
    "batch sort-merge window 4: 5675556d7fb9bbc7421336440b54a9dc";
    "batch sort-merge window 5: 7ba61bda3a85a35ab1def9fc37101786";
    "batch sort-merge window 6: 90eb9371e1982d0f244ae69627529783";
    "batch sort-merge window 7: 46dfff7b4fa3a9dda8974e986ddce434";
    "batch sort-merge window 8: 06b946fab511f7020b27e83e3338515f";
    "batch sort-merge[0]: trace c290dbdaf530942486efcdfad5938e2c";
    "batch sort-merge[1]: trace error: no stored copy of \"D\" can evaluate the predicate";
    "batch sort-merge[2]: trace 7fdb686c4d128406c38a1d15e9e60b86";
    "batch sort-merge[3]: trace b30683556abe67945da4e5da9210d1fa";
    "batch sort-merge[4]: trace 99c7e3a5161e22f980f1de8f46af07d4";
    "batch sort-merge[5]: trace 9a508dbe00511481fa9905a5299abb5e";
    "batch sort-merge[6]: trace daa4072ac24cf95fedbb261355fd4ede";
    "batch sort-merge[7]: trace 4d5046402496f563a0efbe6eceea5987";
    "batch index+drop_tid window 0: be778bf3ab3f9be32e5112d46adb2fa6";
    "batch index+drop_tid window 1: 465506b6f7e2380148289d2acf16593c";
    "batch index+drop_tid window 2: 1ff558507ac2c1e8ddc5135c4399b1ac";
    "batch index+drop_tid window 3: a0035452dd9ababe9ae79c379e42d851";
    "batch index+drop_tid window 4: 5675556d7fb9bbc7421336440b54a9dc";
    "batch index+drop_tid window 5: 7ba61bda3a85a35ab1def9fc37101786";
    "batch index+drop_tid window 6: 90eb9371e1982d0f244ae69627529783";
    "batch index+drop_tid window 7: 46dfff7b4fa3a9dda8974e986ddce434";
    "batch index+drop_tid window 8: 06b946fab511f7020b27e83e3338515f";
    "batch index+drop_tid[0]: trace b8c14d4f608a93933f4c1a1eeb6a9683";
    "batch index+drop_tid[1]: trace 5c7d8be87c4046ab6733faaa8239a68a";
    "batch index+drop_tid[2]: trace 8d8a6553b0e86090e8ebce8d77383c64";
    "batch index+drop_tid[3]: trace 6669579d0d927b35c756eece9907ce42";
    "batch index+drop_tid[4]: trace error: no stored copy of \"D\" can evaluate the predicate";
    "batch index+drop_tid[5]: trace f26e2e16ced9537740ff1602aad18b33";
    "batch index+drop_tid[6]: trace 94658884eeb35fcb8960b80fde88f704";
    "batch index+drop_tid[7]: trace 98642f259a90680c047d056c40f7c320" ]

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

(* Recorded before fetched columns crossed dictionary-coded: that change
   moved R_rows bytes only, so this bytes-free view must not move with
   it. Its batch windows were re-recorded with [pinned]'s when batch
   members began to share their fetch windows; no single case moved.
   Its ORAM single was re-recorded with [pinned]'s when the ORAM round
   was retired. *)
let pinned_view =
  [ "1-leaf point: view 139d66f69b76ccc79e459c8176eb3d8f";
    "1-leaf range: view c26d56e621c0f8d119abb6c0988e3d86";
    "2-leaf sort-merge: view 8e12bd6014fe871ba3b3900b0dd8fedb";
    "3-leaf sort-merge: view b6ba5c430100fd29ff52e0bd71bff108";
    "2-leaf sort-merge, warm: view a73b3e9c971a10c0e33944c0b61f1a8f";
    "oram: view 58a4eb924c6cd253a1c7ca3bb17a7520";
    "binning 16: view c21ecaa3d7aaee0722df3b65cc28492c";
    "index 1-leaf: view b4feb3da8dbc59cd3e7bb6828450a296";
    "index 2-leaf: view c7ea5b3545e6a76f02b1fe65fa3fd678";
    "drop_tid: view 9e0281a664b2fb89bfe102d112d0869d";
    "batch sort-merge window 0: view 9ef637ceff8ed9a766a513aac8004090";
    "batch sort-merge window 1: view 74f729e60dbedbfc01b8ddf72c54b136";
    "batch sort-merge window 2: view b4aed7d558f4a51781bbdfbfc766a537";
    "batch sort-merge window 3: view b3851ffaea9087a0c4edabd988e23776";
    "batch sort-merge window 4: view e2c03faae7b6664aee24ebcd44c3ff9f";
    "batch sort-merge window 5: view 421d99744b3977cb2177bfa30b2c4948";
    "batch sort-merge window 6: view e12d7c88e3639dadf66673e2a5d46cc5";
    "batch sort-merge window 7: view 8fe89f4f6566d232d53ea5f708a153d1";
    "batch sort-merge window 8: view 2995adf65eea05cc1fbcdec17391fea5";
    "batch index+drop_tid window 0: view 22055b5e4ebf6b3c689f7bf5f44ba894";
    "batch index+drop_tid window 1: view 74f729e60dbedbfc01b8ddf72c54b136";
    "batch index+drop_tid window 2: view b4aed7d558f4a51781bbdfbfc766a537";
    "batch index+drop_tid window 3: view b3851ffaea9087a0c4edabd988e23776";
    "batch index+drop_tid window 4: view e2c03faae7b6664aee24ebcd44c3ff9f";
    "batch index+drop_tid window 5: view 421d99744b3977cb2177bfa30b2c4948";
    "batch index+drop_tid window 6: view e12d7c88e3639dadf66673e2a5d46cc5";
    "batch index+drop_tid window 7: view 8fe89f4f6566d232d53ea5f708a153d1";
    "batch index+drop_tid window 8: view 2995adf65eea05cc1fbcdec17391fea5" ]

let test_pinned_view backend domains () =
  let lines =
    with_domains domains (fun () ->
        with_pinned_clock (fun () -> on_backend backend observe_view))
  in
  Alcotest.(check (list string)) "pinned bytes-free view" pinned_view lines

(* The whole Install image of a store that has one column of each
   encrypted scheme and repeated values in every column: two leaves of 80
   rows, the OPE column with 40 distinct values (enough for [Parallel] to
   fan out over them). Recorded before deterministic cells were encrypted
   once per distinct value and before the Paillier pool went through the
   CRT split; every stored byte must stay as it was, under 1 and 2
   domains. The image digest was re-recorded when SNFE went to version 2
   (varint integers); the digest of the content it decodes to, recorded
   before, did not move. *)
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
      let image = with_domains d install_image in
      Alcotest.(check string)
        (Printf.sprintf "Install image (domains=%d)" d)
        "44a1d5a08df49d26d3e6ee30309d272d" (hex image);
      Alcotest.(check string)
        (Printf.sprintf "decoded store content (domains=%d)" d)
        "9a75f5caa1bf6fdc0b941b0aff586f74" (Helpers.store_content_digest (Wire.of_string image)))
    [ 1; 2 ]

let suite =
  [ t "mem, 1 domain" (test_pinned `Mem 1);
    t "mem, 2 domains" (test_pinned `Mem 2);
    t "socket, 1 domain" (test_pinned `Socket 1);
    t "socket, 2 domains" (test_pinned `Socket 2);
    t "mem: a warm repeat sends no tid bytes" (test_warm_repeat_sends_no_tids `Mem);
    t "socket: a warm repeat sends no tid bytes" (test_warm_repeat_sends_no_tids `Socket);
    t "install image of every scheme, 1 and 2 domains" test_install_image;
    t "bytes-free view, mem and socket, 1 and 2 domains" (fun () ->
        List.iter
          (fun (backend, domains) -> test_pinned_view backend domains ())
          [ (`Mem, 1); (`Mem, 2); (`Socket, 1); (`Socket, 2) ]) ]
