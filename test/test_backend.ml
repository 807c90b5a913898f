(* Backend invisibility, pinned end to end: the in-memory and disk
   backends must be indistinguishable through the trust boundary — same
   answer bags, same exec.query.* accounting, byte-identical wire traffic
   — and the disk backend's lifecycle (temp dir, demand paging, cleanup)
   must leave no residue. *)

open Snf_relational
open Snf_exec
module Scheme = Snf_crypto.Scheme
module Metrics = Snf_obs.Metrics

let t name f = Alcotest.test_case name `Quick f

(* Every scheme, several leaves: point predicates over DET/OPE columns,
   projections that force cross-leaf reconstruction. *)
let owner ?backend () =
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
  System.outsource ?backend ~name:"backend" ~graph:g r policy

let queries =
  [ Query.point ~select:[ "note" ] [ ("code", Value.Text "c1") ];
    Query.point ~select:[ "note"; "score" ] [ ("code", Value.Text "c0") ];
    Query.point ~select:[ "id"; "note" ] [ ("code", Value.Text "c2") ];
    Query.point ~select:[ "note" ] [ ("code", Value.Text "nowhere") ] ]

let run_q ?mode ?use_index o q =
  match System.query ?mode ?use_index o q with
  | Ok (ans, tr) -> (Helpers.bag ans, tr)
  | Error e -> Alcotest.fail e

(* The heart of the tentpole's acceptance: mem and disk twins of one store
   agree on answers, counters and traffic for every reconstruction mode,
   with and without the equality index. *)
let test_mem_disk_parity () =
  let mem = owner () in
  let disk = System.with_backend mem `Disk in
  Fun.protect
    ~finally:(fun () -> System.release disk; System.release mem)
  @@ fun () ->
  Alcotest.(check string) "twin is disk-bound" "disk"
    (System.backend_kind_name (System.backend disk));
  List.iter
    (fun (mode, use_index, tag) ->
      List.iteri
        (fun i q ->
          let name fmt = Printf.sprintf "%s q%d: %s" tag i fmt in
          let b0, t0 = run_q ~mode ~use_index mem q in
          let b1, t1 = run_q ~mode ~use_index disk q in
          Alcotest.(check bool) (name "same answer bag") true (b0 = b1);
          Alcotest.(check bool) (name "matches the plaintext reference") true
            (b0 = Helpers.bag (System.reference mem q));
          List.iter
            (fun (what, a, b) -> Alcotest.(check int) (name what) a b)
            [ ("scanned cells", t0.Executor.scanned_cells, t1.Executor.scanned_cells);
              ("index probes", t0.Executor.index_probes, t1.Executor.index_probes);
              ("comparisons", t0.Executor.comparisons, t1.Executor.comparisons);
              ("rows processed", t0.Executor.rows_processed, t1.Executor.rows_processed);
              ("result rows", t0.Executor.result_rows, t1.Executor.result_rows);
              ("wire requests", t0.Executor.wire_requests, t1.Executor.wire_requests);
              ("wire bytes up", t0.Executor.wire_bytes_up, t1.Executor.wire_bytes_up);
              ("wire bytes down", t0.Executor.wire_bytes_down, t1.Executor.wire_bytes_down) ])
        queries)
    [ (`Sort_merge, false, "sort-merge");
      (`Sort_merge, true, "sort-merge+index");
      (`Oram, false, "oram");
      (`Binning 4, false, "binning") ]

(* Homomorphic aggregation crosses the same boundary: identical sums and
   grouped sums from both backends. *)
let test_aggregation_parity () =
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
  let mem = System.outsource ~name:"backend-agg" ~graph:g r policy in
  let disk = System.with_backend mem `Disk in
  Fun.protect
    ~finally:(fun () -> System.release disk; System.release mem)
  @@ fun () ->
  let leaf =
    (List.find
       (fun (l : Snf_core.Partition.leaf) -> Snf_core.Partition.mem_leaf l "salary")
       mem.System.plan.Snf_core.Normalizer.representation)
      .Snf_core.Partition.label
  in
  Alcotest.(check int) "sum agrees across backends"
    (System.sum mem ~leaf ~attr:"salary")
    (System.sum disk ~leaf ~attr:"salary");
  Alcotest.(check int) "sum is the plaintext total" 415
    (System.sum disk ~leaf ~attr:"salary");
  let gs o =
    System.group_sum o ~leaf ~group_by:"dept" ~sum:"salary"
    |> List.map (fun (v, s) -> (Value.to_string v, s))
  in
  Alcotest.(check (list (pair string int))) "group sums agree across backends"
    (gs mem) (gs disk);
  Alcotest.(check (list (pair string int))) "group sums are correct"
    [ ("eng", 250); ("hr", 90); ("ops", 75) ] (gs disk)

(* Per-query trace wire fields are exactly the delta of the process-wide
   exec.wire.* counters — the two accountings cannot drift apart. *)
let test_trace_matches_global_counters () =
  let o = owner ~backend:`Disk () in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let read () =
    ( Metrics.value (Metrics.counter "exec.wire.requests"),
      Metrics.value (Metrics.counter "exec.wire.bytes_up"),
      Metrics.value (Metrics.counter "exec.wire.bytes_down") )
  in
  List.iter
    (fun q ->
      let r0, u0, d0 = read () in
      let _, tr = run_q o q in
      let r1, u1, d1 = read () in
      Alcotest.(check int) "trace requests = counter delta"
        tr.Executor.wire_requests (r1 - r0);
      Alcotest.(check int) "trace bytes up = counter delta"
        tr.Executor.wire_bytes_up (u1 - u0);
      Alcotest.(check int) "trace bytes down = counter delta"
        tr.Executor.wire_bytes_down (d1 - d0);
      Alcotest.(check bool) "a query is never free" true
        (tr.Executor.wire_requests > 0 && tr.Executor.wire_bytes_down > 0))
    queries

(* Disk backend lifecycle: fresh temp dir, install resets residency,
   leaves page in on demand, close removes everything. *)
let test_disk_lifecycle () =
  let o = owner () in
  let b = Backend_disk.create_temp () in
  let dir = Backend_disk.dir b in
  Alcotest.(check bool) "temp dir exists" true
    (Sys.file_exists dir && Sys.is_directory dir);
  let conn = Server_api.connect (module Backend_disk) b in
  Server_api.install conn (Wire.to_string o.System.enc);
  Alcotest.(check (list string)) "install leaves nothing resident" []
    (Backend_disk.resident_labels b);
  let _, leaves = Server_api.describe conn in
  Alcotest.(check bool) "describe needs no paging" true
    (Backend_disk.resident_labels b = [] && leaves <> []);
  let first, _, digest = List.hd leaves in
  ignore (Server_api.fetch_tids conn ~leaf:first ~digest);
  Alcotest.(check (list string)) "exactly the touched leaf is resident"
    [ first ] (Backend_disk.resident_labels b);
  Alcotest.(check bool) "store files landed on disk" true
    (Array.length (Sys.readdir dir) > 1);
  Server_api.close conn;
  Alcotest.(check bool) "close removes the owned temp dir" false
    (Sys.file_exists dir)

(* Release is idempotent and the next query transparently rebinds —
   an owner handle survives its connection. *)
let test_release_and_rebind () =
  let o = owner ~backend:`Disk () in
  let q = List.hd queries in
  let b0, _ = run_q o q in
  System.release o;
  System.release o;
  let b1, _ = run_q o q in
  Alcotest.(check bool) "same answers after rebind" true (b0 = b1);
  Alcotest.(check bool) "rebound connection carries traffic" true
    ((System.wire_stats o).Server_api.requests > 0);
  System.release o

(* Ciphertexts (and so the serialized traffic) are independent of the
   domain fan-out — the wire is deterministic under parallelism. *)
let test_wire_deterministic_across_domains () =
  let saved = Parallel.domain_count () in
  Fun.protect ~finally:(fun () -> Parallel.set_domain_count saved)
  @@ fun () ->
  let profile domains =
    Parallel.set_domain_count domains;
    let o = owner ~backend:`Disk () in
    Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
    let install = System.wire_stats o in
    List.map
      (fun q ->
        let bag, tr = run_q o q in
        (bag, tr.Executor.wire_requests, tr.Executor.wire_bytes_up,
         tr.Executor.wire_bytes_down))
      queries
    |> fun per_query -> (install.Server_api.bytes_up, per_query)
  in
  let p1 = profile 1 and p4 = profile 4 in
  Alcotest.(check bool) "install bytes and per-query traffic identical" true
    (p1 = p4)

(* --- tid digests -------------------------------------------------------------- *)

let describe_bytes conn = Server_api.exchange_raw conn (Wire.request_to_string Wire.Describe)

(* One store, four servers: the R_described bytes — tid digests included —
   are identical, and each digest is [Wire.tids_digest] of the leaf's
   column in the image. *)
let test_described_bytes_identical () =
  let o = owner () in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let image = Wire.to_string o.System.enc in
  let installed conn =
    Server_api.install conn image;
    conn
  in
  let path = Filename.temp_file "snfdesc" ".sock" in
  Sys.remove path;
  let addr = "unix:" ^ path in
  match Snf_net.Server.start_mem ~addr () with
  | Error e -> Alcotest.failf "cannot start server on %s: %s" addr e
  | Ok srv ->
    Fun.protect ~finally:(fun () -> Snf_net.Server.stop srv) @@ fun () ->
    let socket =
      match Snf_net.Client.connect addr with
      | Ok conn -> conn
      | Error e -> Alcotest.failf "connect: %s" e
    in
    let conns =
      [ ("mem", installed (Server_api.connect (module Backend_mem) (Backend_mem.empty ())));
        ( "disk",
          installed (Server_api.connect (module Backend_disk) (Backend_disk.create_temp ())) );
        ( "sharded",
          installed
            (Backend_sharded.connect
               (Backend_sharded.create
                  ~connect:(fun _ ->
                    Server_api.connect (module Backend_mem) (Backend_mem.empty ()))
                  ~shards:3 ())) );
        ("socket", installed socket) ]
    in
    Fun.protect ~finally:(fun () -> List.iter (fun (_, c) -> Server_api.close c) conns)
    @@ fun () ->
    let want = describe_bytes (snd (List.hd conns)) in
    List.iter
      (fun (name, conn) ->
        Alcotest.(check string) (name ^ ": R_described bytes") want (describe_bytes conn))
      conns;
    match Wire.response_of_string want with
    | Wire.R_described { leaves; _ } ->
      Alcotest.(check (list (triple string int string))) "digests of the image's columns"
        (List.map
           (fun (l : Enc_relation.enc_leaf) ->
             ( l.Enc_relation.label,
               l.Enc_relation.row_count,
               Wire.tids_digest l.Enc_relation.tids ))
           o.System.enc.Enc_relation.leaves)
        leaves
    | _ -> Alcotest.fail "Describe did not answer R_described"

(* The column follows the digest: a key-epoch bump alone keeps the
   server's bytes, so the held column is reused and only the tid orders
   are rebuilt; another store installed over the same connection has
   new digests, and every column is fetched again. Every answer is the
   oracle's for the store being served. *)
let test_reinstall_refetches () =
  let r =
    Relation.create
      (Schema.of_attributes [ Attribute.int "a"; Attribute.int "b" ])
      (List.init 30 (fun i -> [| Value.Int (i mod 4); Value.Int i |]))
  in
  let o =
    System.outsource_prepared ~name:"backend-digest"
      ~graph:(Snf_deps.Dep_graph.create [ "a"; "b" ])
      ~representation:
        [ Snf_core.Partition.leaf "la" [ ("a", Scheme.Det) ];
          Snf_core.Partition.leaf "lb" [ ("b", Scheme.Det) ] ]
      r
      (Snf_core.Policy.create [ ("a", Scheme.Det); ("b", Scheme.Det) ])
  in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let rep = o.System.plan.Snf_core.Normalizer.representation in
  let conn = Server_api.connect (module Backend_disk) (Backend_disk.create_temp ()) in
  Fun.protect ~finally:(fun () -> Server_api.close conn) @@ fun () ->
  Server_api.install conn (Wire.to_string o.System.enc);
  let q = Query.point ~select:[ "b" ] [ ("a", Value.Int 1) ] in
  let fetch_tids = Wire.request_tag (Wire.Fetch_tids { leaf = "" }) in
  let served = ref r in
  let run name =
    match
      System.record_wire_trace (fun () ->
          Executor.run_conn o.System.client conn rep q)
    with
    | Ok (ans, tr), trace ->
      Alcotest.(check (list string)) (name ^ ": oracle answer")
        (Helpers.bag (Query.reference_answer !served q)) (Helpers.bag ans);
      ( List.length
          (List.filter
             (fun (e : Snf_obs.Wiretrace.event) ->
               e.dir = Snf_obs.Wiretrace.Up && e.tag = fetch_tids)
             trace.Snf_obs.Wiretrace.events),
        tr.Executor.rows_processed )
    | Error e, _ -> Alcotest.fail e
  in
  let digests () = List.map (fun (_, _, d) -> d) (snd (Server_api.describe conn)) in
  let cold, _ = run "cold" in
  Alcotest.(check int) "the cold query fetches both columns" 2 cold;
  Alcotest.(check int) "warm: nothing fetched" 0 (fst (run "warm"));
  let d0 = digests () in
  Enc_relation.bump_key_epoch o.System.client;
  Alcotest.(check (list string)) "bump_key_epoch: server digests unchanged" d0 (digests ());
  let fetched, rows = run "after bump_key_epoch" in
  Alcotest.(check int) "after bump_key_epoch: the held columns are reused" 0 fetched;
  Alcotest.(check bool) "after bump_key_epoch: the orders are rebuilt" true (rows > 0);
  served :=
    Relation.create (Relation.schema r)
      (Relation.rows r @ [ [| Value.Int 1; Value.Int 30 |] ]);
  Server_api.install conn (Wire.to_string (Enc_relation.encrypt o.System.client !served rep));
  let d1 = digests () in
  Alcotest.(check bool) "re-install: every digest changes" true
    (List.for_all2 (fun a b -> a <> b) d0 d1);
  Alcotest.(check int) "re-install: every column is fetched again" cold
    (fst (run "after re-install"))

(* A disk store written before manifests carried tid digests (SNFD
   version 1) is refused on reopen; a version-2 store reopens and
   describes itself unchanged. *)
let test_v1_manifest_refused () =
  let o = owner () in
  Fun.protect ~finally:(fun () -> System.release o) @@ fun () ->
  let b = Backend_disk.create_temp () in
  let conn = Server_api.connect (module Backend_disk) b in
  Fun.protect ~finally:(fun () -> Server_api.close conn) @@ fun () ->
  Server_api.install conn (Wire.to_string o.System.enc);
  let dir = Backend_disk.dir b in
  let reopened = Server_api.connect (module Backend_disk) (Backend_disk.create ~dir ()) in
  Alcotest.(check string) "a version-2 store reopens as described" (describe_bytes conn)
    (describe_bytes reopened);
  Server_api.close reopened;
  let manifest = Filename.concat dir "manifest.snfd" in
  let v2 = In_channel.with_open_bin manifest In_channel.input_all in
  let v1 = Buffer.create 64 in
  Buffer.add_string v1 "SNFD";
  Wire.Prim.w_u8 v1 1;
  Wire.Prim.w_string v1 o.System.enc.Enc_relation.relation_name;
  Wire.Prim.w_nat v1 o.System.enc.Enc_relation.paillier_public.Snf_crypto.Paillier.n;
  let leaves = o.System.enc.Enc_relation.leaves in
  Wire.Prim.w_int v1 (List.length leaves);
  List.iteri
    (fun i (l : Enc_relation.enc_leaf) ->
      Wire.Prim.w_string v1 l.Enc_relation.label;
      Wire.Prim.w_int v1 l.Enc_relation.row_count;
      Wire.Prim.w_string v1 (Printf.sprintf "leaf-%03d.snfl" i))
    leaves;
  Out_channel.with_open_bin manifest (fun oc -> Out_channel.output_string oc (Buffer.contents v1));
  Fun.protect
    ~finally:(fun () ->
      Out_channel.with_open_bin manifest (fun oc -> Out_channel.output_string oc v2))
  @@ fun () ->
  Alcotest.check_raises "a version-1 manifest is refused"
    (Invalid_argument "Backend_disk: unsupported manifest version 1") (fun () ->
      ignore (Backend_disk.create ~dir ()))

let suite =
  [ t "mem/disk parity: bags, counters, wire traffic" test_mem_disk_parity;
    t "mem/disk parity: homomorphic aggregation" test_aggregation_parity;
    t "trace wire fields equal global counter deltas" test_trace_matches_global_counters;
    t "disk lifecycle: paging and temp-dir cleanup" test_disk_lifecycle;
    t "release idempotent, queries rebind" test_release_and_rebind;
    t "wire deterministic across domain counts" test_wire_deterministic_across_domains;
    t "R_described bytes identical on mem, disk, sharded and socket"
      test_described_bytes_identical;
    t "re-install changes the digests, columns fetched again" test_reinstall_refetches;
    t "a version-1 disk manifest is refused" test_v1_manifest_refused ]
