(* The networked SNF server, end to end: answers and wire accounting
   over a real socket must be indistinguishable from an in-process
   backend, under concurrency, overload, idle reaping, garbage frames,
   severed connections and graceful drain. *)

open Helpers
open Snf_relational
open Snf_exec
module Server = Snf_net.Server
module Client = Snf_net.Client
module Fault = Snf_check.Fault
module Oracle = Snf_check.Oracle
module Query = Snf_exec.Query
module Metrics = Snf_obs.Metrics

(* A fresh Unix-domain address nothing is listening on yet. *)
let fresh_addr tag =
  let path = Filename.temp_file ("snfnet_" ^ tag) ".sock" in
  Sys.remove path;
  "unix:" ^ path

let small_config ?(domains = 2) ?(queue = 64) ?(idle = 30.) () =
  { Server.default_config with
    Server.domains; queue_capacity = queue; idle_timeout = idle }

let with_mem_server ?config tag f =
  let addr = fresh_addr tag in
  let config = match config with Some c -> c | None -> small_config () in
  match Server.start_mem ~config ~addr () with
  | Error e -> Alcotest.failf "cannot start server on %s: %s" addr e
  | Ok srv -> Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv addr)

(* The same client key material [System.outsource ~name] derives, so a
   per-thread client decrypts what the shared owner installed. *)
let client_for name =
  Enc_relation.make_client ~seed:0x5eed ~relation_name:name ~master:("master:" ^ name)
    ()

(* --- basic round trip: socket owner vs oracle, exact wire parity ---------- *)

let queries =
  [ Query.point ~select:[ "State"; "Income" ] [ ("ZipCode", Value.Int 94016) ];
    { Query.select = [ "State"; "ZipCode" ]; where = [] };
    { Query.select = [ "Income" ];
      where = [ Query.Range ("Income", Value.Int 60, Value.Int 100) ] } ]

let test_round_trip_matches_mem () =
  with_mem_server "rt" @@ fun _srv addr ->
  let r = example1_relation () and policy = example1_policy () in
  let sock_owner =
    System.outsource ~backend:(`Ext (Client.backend addr)) ~name:"nrt" r policy
  in
  let mem_owner = System.outsource ~name:"nrt" r policy in
  Fun.protect
    ~finally:(fun () ->
      System.release sock_owner;
      System.release mem_owner)
  @@ fun () ->
  check_string "backend name" "socket"
    (System.backend_kind_name (System.backend sock_owner));
  List.iter
    (fun q ->
      match (System.query sock_owner q, System.query mem_owner q) with
      | Ok (sa, st), Ok (ma, mt) ->
        check_same_bag "socket bag = mem bag" ma sa;
        check_same_bag "socket bag = oracle" (Oracle.answer r q) sa;
        (* framing is transport bookkeeping, not protocol traffic: the
           SNFM byte accounting must be identical *)
        check_int "wire requests" mt.Executor.wire_requests st.Executor.wire_requests;
        check_int "wire bytes up" mt.Executor.wire_bytes_up st.Executor.wire_bytes_up;
        check_int "wire bytes down" mt.Executor.wire_bytes_down
          st.Executor.wire_bytes_down
      | Error e, _ | _, Error e -> Alcotest.failf "query failed: %s" e)
    queries;
  check_bool "verify over the socket" true (System.verify sock_owner (List.hd queries))

(* The tid-decrypt cache contract survives the transport: while Describe
   announces the digest the column was checked against, [fetch_tids]
   returns the {e same physical array} on a persistent connection, and
   only the first call crosses the socket. *)
let test_tid_memo_stable_over_socket () =
  with_mem_server "tid" @@ fun _srv addr ->
  let r = example1_relation () and policy = example1_policy () in
  let owner =
    System.outsource ~backend:(`Ext (Client.backend addr)) ~name:"ntid" r policy
  in
  Fun.protect ~finally:(fun () -> System.release owner) @@ fun () ->
  match Client.connect addr with
  | Error e -> Alcotest.failf "connect: %s" e
  | Ok conn ->
    Fun.protect ~finally:(fun () -> Server_api.close conn) @@ fun () ->
    let _, leaves = Server_api.describe conn in
    let leaf, _, digest = List.hd leaves in
    let a = Server_api.fetch_tids conn ~leaf ~digest in
    let sent = (Server_api.stats conn).Server_api.requests in
    let b = Server_api.fetch_tids conn ~leaf ~digest in
    check_bool "physically the same array" true (a == b);
    check_int "the repeat sends nothing" sent (Server_api.stats conn).Server_api.requests

(* --- concurrency battery --------------------------------------------------- *)

let wire_counters () =
  ( Metrics.value (Metrics.counter "exec.wire.requests"),
    Metrics.value (Metrics.counter "exec.wire.bytes_up"),
    Metrics.value (Metrics.counter "exec.wire.bytes_down") )

let concurrent_battery ~server_domains () =
  let config = small_config ~domains:server_domains () in
  with_mem_server ~config "conc" @@ fun srv addr ->
  let r = example1_relation () and policy = example1_policy () in
  let name = Printf.sprintf "nc%d" server_domains in
  let owner =
    System.outsource ~backend:(`Ext (Client.backend addr)) ~name r policy
  in
  Fun.protect ~finally:(fun () -> System.release owner) @@ fun () ->
  let rep = owner.System.plan.Snf_core.Normalizer.representation in
  let oracle_bags = List.map (fun q -> bag (Oracle.answer r q)) queries in
  let n_threads = 8 in
  let failures = Atomic.make 0 in
  let noted = Mutex.create () in
  let notes = ref [] in
  let fail_note msg =
    Atomic.incr failures;
    Mutex.protect noted (fun () -> notes := msg :: !notes)
  in
  let stats = Array.make n_threads { Server_api.requests = 0; bytes_up = 0; bytes_down = 0 } in
  let req0, up0, down0 = wire_counters () in
  let worker i () =
    let client = client_for name in
    match Client.connect addr with
    | Error e -> fail_note (Printf.sprintf "thread %d: connect: %s" i e)
    | Ok conn ->
      Fun.protect ~finally:(fun () -> Server_api.close conn) @@ fun () ->
      (* M sequential queries, then the same workload as one batch *)
      for _round = 1 to 2 do
        List.iteri
          (fun j q ->
            match Executor.run_conn client conn rep q with
            | Ok (ans, _) ->
              if bag ans <> List.nth oracle_bags j then
                fail_note (Printf.sprintf "thread %d query %d: wrong bag" i j)
            | Error e -> fail_note (Printf.sprintf "thread %d query %d: %s" i j e))
          queries
      done;
      List.iteri
        (fun j result ->
          match result with
          | Ok (ans, _) ->
            if bag ans <> List.nth oracle_bags j then
              fail_note (Printf.sprintf "thread %d batch %d: wrong bag" i j)
          | Error e -> fail_note (Printf.sprintf "thread %d batch %d: %s" i j e))
        (Executor.run_batch client conn rep queries);
      stats.(i) <- Server_api.stats conn
  in
  let threads = List.init n_threads (fun i -> Thread.create (worker i) ()) in
  List.iter Thread.join threads;
  (match !notes with [] -> () | msgs -> Alcotest.fail (String.concat "; " msgs));
  check_int "no thread failed" 0 (Atomic.get failures);
  (* Per-session accounting must reconcile exactly with the global
     exec.wire.* movement: nothing lost, nothing double-counted. *)
  let req1, up1, down1 = wire_counters () in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 stats in
  check_int "summed session requests = global delta" (req1 - req0)
    (sum (fun s -> s.Server_api.requests));
  check_int "summed session bytes up = global delta" (up1 - up0)
    (sum (fun s -> s.Server_api.bytes_up));
  check_int "summed session bytes down = global delta" (down1 - down0)
    (sum (fun s -> s.Server_api.bytes_down));
  let sstats = Server.stats srv in
  check_bool "server saw every session" true
    (sstats.Server.sessions_opened >= n_threads);
  check_bool "server served every request" true
    (sstats.Server.requests_served >= sum (fun s -> s.Server_api.requests))

let test_concurrent_one_domain () = concurrent_battery ~server_domains:1 ()
let test_concurrent_four_domains () = concurrent_battery ~server_domains:4 ()

(* --- backpressure: overload degrades into typed rejections ---------------- *)

(* A memory backend whose describe dawdles, so one worker + a one-deep
   queue saturate under a burst. *)
module Slow_mem = struct
  type t = Backend_mem.t

  let name = "slow-mem"

  let view b =
    let v = Backend_mem.view b in
    { v with
      Server_api.describe =
        (fun () ->
          Unix.sleepf 0.15;
          v.Server_api.describe ()) }

  let close = Backend_mem.close
end

let test_backpressure_busy_then_complete () =
  let addr = fresh_addr "busy" in
  let r = example1_relation () and policy = example1_policy () in
  let mem_owner = System.outsource ~name:"nbp" r policy in
  let enc = mem_owner.System.enc in
  System.release mem_owner;
  let config = small_config ~domains:1 ~queue:1 () in
  match Server.start ~config ~addr (module Slow_mem) (Backend_mem.of_store enc) with
  | Error e -> Alcotest.failf "cannot start slow server: %s" e
  | Ok srv ->
    Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
    let n = 6 in
    let go = Atomic.make false in
    let busy = Atomic.make 0 and completed = Atomic.make 0 in
    let errors = Atomic.make 0 in
    let worker _i () =
      match Client.connect addr with
      | Error _ -> Atomic.incr errors
      | Ok conn ->
        Fun.protect ~finally:(fun () -> Server_api.close conn) @@ fun () ->
        while not (Atomic.get go) do
          Thread.yield ()
        done;
        let rec attempt retries =
          if retries > 200 then Atomic.incr errors
          else
            match Server_api.describe conn with
            | _ -> Atomic.incr completed
            | exception Server_api.Busy ->
              (* the typed, retryable rejection — never executed, never
                 hung; back off and go again *)
              Atomic.incr busy;
              Unix.sleepf 0.05;
              attempt (retries + 1)
            | exception e ->
              ignore e;
              Atomic.incr errors
        in
        attempt 0
    in
    let threads = List.init n (fun i -> Thread.create (worker i) ()) in
    Atomic.set go true;
    List.iter Thread.join threads;
    check_int "no hard errors" 0 (Atomic.get errors);
    check_int "every request eventually completed" n (Atomic.get completed);
    check_bool "the burst drew at least one busy rejection" true
      (Atomic.get busy >= 1);
    let st = Server.stats srv in
    check_int "server counted exactly the rejections clients saw"
      (Atomic.get busy) st.Server.busy_rejections;
    check_int "server served exactly the completions" n st.Server.requests_served

(* A worker counts a request as served before its answer leaves, so the
   count a client reads once it holds an answer includes that answer. *)
let test_served_counted_before_answer () =
  let addr = fresh_addr "served" in
  let owner = System.outsource ~name:"nsv" (example1_relation ()) (example1_policy ()) in
  let enc = owner.System.enc in
  System.release owner;
  let config = small_config ~domains:1 () in
  match Server.start ~config ~addr (module Backend_mem) (Backend_mem.of_store enc) with
  | Error e -> Alcotest.failf "cannot start server: %s" e
  | Ok srv -> (
    Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
    match Client.connect addr with
    | Error e -> Alcotest.failf "connect: %s" e
    | Ok conn ->
    Fun.protect ~finally:(fun () -> Server_api.close conn) @@ fun () ->
    for completed = 1 to 20 do
      ignore (Server_api.describe conn);
      let served = (Server.stats srv).Server.requests_served in
      if served < completed then
        Alcotest.failf "after %d answers the server reports %d served" completed served
    done)

(* --- session hygiene ------------------------------------------------------- *)

let test_idle_sessions_reaped () =
  let config = small_config ~idle:0.2 () in
  with_mem_server ~config "idle" @@ fun srv addr ->
  match Client.connect addr with
  | Error e -> Alcotest.failf "connect: %s" e
  | Ok conn ->
    (* park a session and let it go stale *)
    Unix.sleepf 0.1;  (* let the accept loop register it *)
    check_int "one active session" 1 (Server.stats srv).Server.sessions_active;
    Unix.sleepf 0.7;
    check_int "idle session reaped" 0 (Server.stats srv).Server.sessions_active;
    (match Server_api.describe conn with
     | _ -> Alcotest.fail "a reaped session must not answer"
     | exception Client.Disconnected _ -> ()
     | exception e ->
       Alcotest.failf "expected Disconnected, got %s" (Printexc.to_string e));
    (* the server itself is fine — fresh sessions serve *)
    (match Client.connect addr with
     | Error e -> Alcotest.failf "reconnect: %s" e
     | Ok conn2 ->
       Fun.protect ~finally:(fun () -> Server_api.close conn2) @@ fun () ->
       check_bool "fresh session alive" true
         (match Server_api.describe conn2 with
          | _ -> true
          | exception Invalid_argument _ -> true))

let test_garbage_frames_reap_only_that_session () =
  with_mem_server "junk" @@ fun srv addr ->
  (match Client.open_handle addr with
   | Error e -> Alcotest.failf "dial: %s" e
   | Ok h ->
     Client.raw_send h "JUNKJUNKJUNKJUNK";
     (* the server drops the stream at the bad magic *)
     let deadline = Unix.gettimeofday () +. 2. in
     let rec wait () =
       if (Server.stats srv).Server.frame_errors >= 1 then ()
       else if Unix.gettimeofday () > deadline then
         Alcotest.fail "server never counted the frame error"
       else (
         Thread.yield ();
         Unix.sleepf 0.02;
         wait ())
     in
     wait ();
     Client.kill h);
  check_int "exactly one frame error" 1 (Server.stats srv).Server.frame_errors;
  (* everyone else is unaffected *)
  match Client.connect addr with
  | Error e -> Alcotest.failf "reconnect after garbage: %s" e
  | Ok conn ->
    Fun.protect ~finally:(fun () -> Server_api.close conn) @@ fun () ->
    check_bool "server still serves" true
      (match Server_api.describe conn with
       | _ -> true
       | exception Invalid_argument _ -> true)

let test_graceful_drain_completes_in_flight () =
  let addr = fresh_addr "drain" in
  let r = example1_relation () and policy = example1_policy () in
  let mem_owner = System.outsource ~name:"ndr" r policy in
  let enc = mem_owner.System.enc in
  System.release mem_owner;
  let config = small_config ~domains:1 () in
  match Server.start ~config ~addr (module Slow_mem) (Backend_mem.of_store enc) with
  | Error e -> Alcotest.failf "cannot start slow server: %s" e
  | Ok srv ->
    let got = ref None in
    (match Client.connect addr with
     | Error e -> Alcotest.failf "connect: %s" e
     | Ok conn ->
       let t =
         Thread.create
           (fun () ->
             got :=
               Some
                 (match Server_api.describe conn with
                  | _ -> `Answered
                  | exception e -> `Raised (Printexc.to_string e)))
           ()
       in
       Unix.sleepf 0.05;  (* let the request reach the worker *)
       Server.stop srv;   (* drain: the in-flight describe must finish *)
       Thread.join t;
       Server_api.close conn);
    (match !got with
     | Some `Answered -> ()
     | Some (`Raised e) -> Alcotest.failf "in-flight request lost to drain: %s" e
     | None -> Alcotest.fail "client thread never finished");
    Server.stop srv;  (* idempotent *)
    check_bool "socket path unlinked" false
      (Sys.file_exists (String.sub addr 5 (String.length addr - 5)))

(* --- connection fault campaign -------------------------------------------- *)

let test_connection_fault_campaign () =
  with_mem_server "fault" @@ fun _srv addr ->
  let inst = Snf_check.Gen.instance { Snf_check.Gen.seed = 23; rows = 8; clusters = [ 2; 2 ]; singles = 4 } in
  let outcomes = Fault.conn_campaign ~addr inst in
  check_int "all four scenarios ran" 4 (List.length outcomes);
  List.iter
    (fun (o : Fault.conn_outcome) ->
      if not (o.Fault.typed && o.Fault.server_alive && o.Fault.recovered) then
        Alcotest.failf "%s: %s" (Fault.conn_fault_name o.Fault.conn_kind)
          o.Fault.conn_detail)
    outcomes

(* --- differential: the socket twin ---------------------------------------- *)

let test_differential_socket_twin () =
  let spec = { Snf_check.Gen.seed = 11; rows = 12; clusters = [ 3 ]; singles = 3 } in
  let outcome =
    Snf_check.Differential.run_spec ~queries:6 ~backend:`Socket spec
  in
  (match outcome.Snf_check.Differential.failures with
   | [] -> ()
   | fs ->
     Alcotest.fail
       (String.concat "; " (List.map Snf_check.Differential.failure_to_string fs)));
  check_bool "queries actually ran" true (outcome.Snf_check.Differential.queries_run >= 6)

let suite =
  [ Alcotest.test_case "socket round trip: bags and exact wire parity" `Quick
      test_round_trip_matches_mem;
    Alcotest.test_case "tid memo physically stable over the socket" `Quick
      test_tid_memo_stable_over_socket;
    Alcotest.test_case "8 threads x 1-domain server: bags and accounting" `Quick
      test_concurrent_one_domain;
    Alcotest.test_case "8 threads x 4-domain server: bags and accounting" `Quick
      test_concurrent_four_domains;
    Alcotest.test_case "overload: typed busy, then full completion" `Quick
      test_backpressure_busy_then_complete;
    Alcotest.test_case "served count includes every answer a client holds" `Quick
      test_served_counted_before_answer;
    Alcotest.test_case "idle sessions reaped, server keeps serving" `Quick
      test_idle_sessions_reaped;
    Alcotest.test_case "garbage frames reap only that session" `Quick
      test_garbage_frames_reap_only_that_session;
    Alcotest.test_case "graceful drain completes in-flight work" `Quick
      test_graceful_drain_completes_in_flight;
    Alcotest.test_case "connection fault campaign" `Quick
      test_connection_fault_campaign;
    Alcotest.test_case "differential socket twin" `Quick
      test_differential_socket_twin ]
