(* Drive the installed snf_cli binary: exit code 0 on success, 1 on
   conformance failure, 2 on command-line misuse with a pointed message.
   The binary is a declared dune dependency of this test, reachable
   relative to the test's build directory. *)

open Helpers

let cli = Filename.concat (Filename.concat ".." "bin") "snf_cli.exe"

let run ?(capture_stderr = false) args =
  let err = Filename.temp_file "snf_cli_test" ".err" in
  let cmd =
    Filename.quote_command cli args ~stdout:Filename.null ~stderr:err
  in
  let code = Sys.command cmd in
  let stderr_text =
    if capture_stderr then (
      let ic = open_in_bin err in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic)))
    else ""
  in
  Sys.remove err;
  (code, stderr_text)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let binary_present () =
  check_bool (cli ^ " exists (dune dep)") true (Sys.file_exists cli)

let help_ok () =
  check_int "--help exits 0" 0 (fst (run [ "--help" ]));
  check_int "--version exits 0" 0 (fst (run [ "--version" ]));
  check_int "subcommand --help exits 0" 0 (fst (run [ "check"; "--help" ]))

let unknown_subcommand () =
  let code, err = run ~capture_stderr:true [ "frobnicate" ] in
  check_int "unknown subcommand exits 2" 2 code;
  check_bool "names the failure" true (contains err "unknown");
  check_bool "points at --help" true (contains err "--help")

let unknown_flag () =
  let code, err = run ~capture_stderr:true [ "check"; "--no-such-flag" ] in
  check_int "unknown flag exits 2" 2 code;
  check_bool "points at --help" true (contains err "--help")

let malformed_value () =
  check_int "non-integer --queries exits 2" 2
    (fst (run [ "check"; "--queries"; "twelve" ]));
  check_int "missing required --csv exits 2" 2 (fst (run [ "analyze" ]))

let check_soak_passes () =
  let out = Filename.temp_file "snf_cli_test" ".json" in
  let code, _ =
    run [ "check"; "--seed"; "5"; "--queries"; "25"; "--rows"; "8"; "--out"; out ]
  in
  check_int "soak exits 0" 0 code;
  let ic = open_in_bin out in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove out;
  (match Snf_obs.Json.of_string text with
   | Error e -> Alcotest.failf "report is not JSON: %s" e
   | Ok json ->
     check_bool "report records the seed" true
       (Snf_obs.Json.member "seed" json = Some (Snf_obs.Json.Int 5));
     check_bool "report records a pass" true
       (Snf_obs.Json.member "passed" json = Some (Snf_obs.Json.Bool true)))

let with_csv f =
  let path = Filename.temp_file "snf_cli_test" ".csv" in
  let oc = open_out_bin path in
  output_string oc "id:int,code:text\n0,c0\n1,c1\n2,c0\n3,c1\n4,c1\n";
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let query_backend_selection () =
  with_csv @@ fun csv ->
  let query backend =
    fst
      (run
         [ "query"; "--csv"; csv; "--enc"; "code=DET"; "--select"; "id";
           "--where"; "code=c1"; "--backend"; backend ])
  in
  check_int "query --backend mem exits 0" 0 (query "mem");
  check_int "query --backend disk exits 0" 0 (query "disk");
  let code, err = run ~capture_stderr:true
      [ "query"; "--csv"; csv; "--select"; "id"; "--backend"; "floppy" ]
  in
  check_int "unknown backend exits 2" 2 code;
  check_bool "rejection names the flag" true (contains err "backend")

let check_rotate_with_metrics () =
  let out = Filename.temp_file "snf_cli_test" ".json" in
  let metrics = Filename.temp_file "snf_cli_test" ".metrics.json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out; Sys.remove metrics)
    (fun () ->
      let code, _ =
        run
          [ "check"; "--seed"; "11"; "--queries"; "20"; "--rows"; "8";
            "--backend"; "rotate"; "--out"; out; "--metrics-out"; metrics ]
      in
      check_int "rotating soak exits 0" 0 code;
      let ic = open_in_bin metrics in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (match Snf_obs.Json.of_string text with
       | Error e -> Alcotest.failf "metrics snapshot is not JSON: %s" e
       | Ok _ -> ());
      check_bool "snapshot carries the wire traffic counters" true
        (contains text "exec.wire.requests");
      check_bool "snapshot carries the per-phase wire counters" true
        (contains text "exec.wire.probe.requests"));
  check_int "unknown check backend exits 2" 2
    (fst (run [ "check"; "--backend"; "floppy" ]))

let with_batch_file lines f =
  let path = Filename.temp_file "snf_cli_test" ".batch" in
  let oc = open_out_bin path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let query_batch_file () =
  with_csv @@ fun csv ->
  (* Good file: point, range and a comment, all in one shared pass. *)
  with_batch_file
    [ "# workload"; "id,code : code=c1"; "code : id=1..3"; "id : code=c0" ]
    (fun batch ->
      check_int "well-formed batch exits 0" 0
        (fst
           (run
              [ "query"; "--csv"; csv; "--enc"; "code=DET,id=OPE"; "--batch";
                batch ])));
  (* Malformed lines are CLI misuse: exit 2 with a pointed message, never
     a crash (3). *)
  let misuse lines want =
    with_batch_file lines (fun batch ->
        let code, err =
          run ~capture_stderr:true
            [ "query"; "--csv"; csv; "--enc"; "code=DET,id=OPE"; "--batch";
              batch ]
        in
        check_int (want ^ " exits 2") 2 code;
        check_bool (want ^ " names the problem") true (contains err want))
  in
  misuse [ "id,code code=c1" ] "expected";
  misuse [ "id : nonsense" ] "bad predicate";
  misuse [ "id : id=abc" ] "bad value";
  misuse [ "id : zz=1" ] "unknown attribute";
  misuse [ " : code=c1" ] "empty projection";
  misuse [ "# nothing but comments" ] "no queries";
  (* --select and --batch are alternatives; neither is misuse too. *)
  let code, err = run ~capture_stderr:true [ "query"; "--csv"; csv ] in
  check_int "neither --select nor --batch exits 2" 2 code;
  check_bool "message offers both" true (contains err "--batch")

let query_wire_trace () =
  with_csv @@ fun csv ->
  let base out =
    [ "query"; "--csv"; csv; "--enc"; "code=DET"; "--select"; "id";
      "--where"; "code=c1"; "--wire-trace-out"; out ]
  in
  (* Every path gets the one SNFT encoding, a JSON document, whatever
     its suffix. *)
  List.iter
    (fun suffix ->
      let path = Filename.temp_file "snf_cli_test" suffix in
      Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
          check_int ("--wire-trace-out " ^ suffix ^ " exits 0") 0 (fst (run (base path)));
          match Snf_obs.Wiretrace.read_json ~path with
          | Error e -> Alcotest.failf "%s trace is not SNFT JSON: %s" suffix e
          | Ok trace ->
            check_bool (suffix ^ " trace has events") true
              (trace.Snf_obs.Wiretrace.events <> [])))
    [ ".json"; ".snft" ]

let trace_out_unwritable () =
  with_csv @@ fun csv ->
  (* An unwritable output path is command-line misuse (2), caught before
     any work runs — not an uncaught Sys_error crash (3). *)
  let bad = Filename.concat Filename.null "trace.json" in
  let misuse flag =
    let code, err =
      run ~capture_stderr:true
        [ "query"; "--csv"; csv; "--enc"; "code=DET"; "--select"; "id";
          "--where"; "code=c1"; flag; bad ]
    in
    check_int (flag ^ " unwritable exits 2") 2 code;
    check_bool (flag ^ " message names the flag") true (contains err flag);
    check_bool (flag ^ " message names the path") true (contains err bad)
  in
  misuse "--trace-out";
  misuse "--wire-trace-out";
  let code, err =
    run ~capture_stderr:true
      [ "check"; "--rows"; "8"; "--queries"; "5"; "--out"; bad ]
  in
  check_int "check --out unwritable exits 2" 2 code;
  check_bool "check message names the flag" true (contains err "--out")

let check_wire_trace () =
  let out = Filename.temp_file "snf_cli_test" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  let code, _ =
    run [ "check"; "--seed"; "3"; "--queries"; "10"; "--rows"; "8";
          "--faults"; "false"; "--wire-trace-out"; out ]
  in
  check_int "check --wire-trace-out exits 0" 0 code;
  match Snf_obs.Wiretrace.read_json ~path:out with
  | Error e -> Alcotest.failf "soak trace is not SNFT JSON: %s" e
  | Ok trace ->
    check_bool "soak trace has events" true (trace.Snf_obs.Wiretrace.events <> [])

let check_batch_sizes () =
  let code, _ =
    run [ "check"; "--seed"; "7"; "--queries"; "15"; "--rows"; "8";
          "--faults"; "false"; "--batch"; "8" ]
  in
  check_int "check --batch 8 exits 0" 0 code;
  let code, err = run ~capture_stderr:true [ "check"; "--batch"; "7" ] in
  check_int "check --batch 7 exits 2" 2 code;
  check_bool "rejection names the flag" true (contains err "batch")

(* --- serve: the networked server as a process ----------------------------- *)

let serve_misuse () =
  let code, err = run ~capture_stderr:true [ "serve"; "--addr"; "floppy:123" ] in
  check_int "bad address exits 2" 2 code;
  check_bool "message explains the grammar" true (contains err "bad address");
  (* a path something already occupies *)
  let taken = Filename.temp_file "snf_cli_test" ".sock" in
  Fun.protect ~finally:(fun () -> try Sys.remove taken with Sys_error _ -> ())
  @@ fun () ->
  let code, err =
    run ~capture_stderr:true [ "serve"; "--addr"; "unix:" ^ taken ]
  in
  check_int "address in use exits 2" 2 code;
  check_bool "message says in use" true (contains err "in use");
  (* unwritable pidfile is caught before binding anything *)
  let bad_pid = Filename.concat Filename.null "pid" in
  let code, err =
    run ~capture_stderr:true
      [ "serve"; "--addr"; "unix:" ^ taken ^ ".2"; "--pidfile"; bad_pid ]
  in
  check_int "unwritable pidfile exits 2" 2 code;
  check_bool "message names --pidfile" true (contains err "--pidfile")

let query_socket_no_server () =
  with_csv @@ fun csv ->
  let code, err =
    run ~capture_stderr:true
      [ "query"; "--csv"; csv; "--enc"; "code=DET"; "--select"; "id";
        "--backend"; "socket:unix:/nonexistent-snf.sock" ]
  in
  check_int "unreachable server exits 2" 2 code;
  check_bool "message points at the server" true (contains err "cannot reach server");
  let code, err =
    run ~capture_stderr:true
      [ "query"; "--csv"; csv; "--select"; "id"; "--backend"; "socket:junk" ]
  in
  check_int "malformed socket address exits 2" 2 code;
  check_bool "rejection names the flag" true (contains err "backend")

let query_sharded_backend () =
  with_csv @@ fun csv ->
  let query backend =
    fst
      (run
         [ "query"; "--csv"; csv; "--enc"; "code=DET"; "--select"; "id";
           "--where"; "code=c1"; "--backend"; backend ])
  in
  check_int "query --backend sharded:2 exits 0" 0 (query "sharded:2");
  check_int "query --backend sharded:3:mem exits 0" 0 (query "sharded:3:mem");
  check_int "query --backend sharded:2:disk exits 0" 0 (query "sharded:2:disk");
  (* Malformed specs are CLI misuse: exit 2 with a message naming the
     precise defect, never a crash. *)
  let misuse backend want =
    let code, err =
      run ~capture_stderr:true
        [ "query"; "--csv"; csv; "--select"; "id"; "--backend"; backend ]
    in
    check_int (backend ^ " exits 2") 2 code;
    check_bool (backend ^ " names the problem") true (contains err want)
  in
  misuse "sharded" "shard count";
  misuse "sharded:0" "at least 1";
  misuse "sharded:-1" "at least 1";
  misuse "sharded:x" "positive integer";
  misuse "sharded:2:floppy" "inner kind";
  misuse "sharded:2:socket:unix:/a.sock" "exactly 2";
  misuse "sharded:1:socket:junk" "address"

let check_sharded_backend () =
  let code, _ =
    run [ "check"; "--seed"; "9"; "--queries"; "10"; "--rows"; "8";
          "--faults"; "false"; "--backend"; "sharded" ]
  in
  check_int "check --backend sharded exits 0" 0 code

(* Spawn `snf_cli serve`, wait until it listens, run the body, then
   SIGTERM it and return its exit status. *)
let with_served_cli f =
  let sock = Filename.temp_file "snf_cli_test" ".sock" in
  Sys.remove sock;
  let pidfile = sock ^ ".pid" in
  let devnull = Unix.openfile Filename.null [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--addr"; "unix:" ^ sock; "--domains"; "2";
         "--pidfile"; pidfile |]
      devnull devnull devnull
  in
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ sock; pidfile ])
  @@ fun () ->
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait_listening () =
    if Sys.file_exists sock then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "server never started listening"
    else (
      Unix.sleepf 0.05;
      wait_listening ())
  in
  wait_listening ();
  f ("socket:unix:" ^ sock);
  check_bool "pidfile written while serving" true (Sys.file_exists pidfile);
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  (status, sock, pidfile)

let serve_then_query_then_sigterm () =
  let status, sock, pidfile =
    with_served_cli (fun backend ->
        with_csv @@ fun csv ->
        check_int "query --backend socket exits 0" 0
          (fst
             (run
                [ "query"; "--csv"; csv; "--enc"; "code=DET"; "--select"; "id";
                  "--where"; "code=c1"; "--backend"; backend ]));
        (* a second client process reuses the same server *)
        check_int "batch over the socket exits 0" 0
          (with_batch_file [ "id,code : code=c1"; "id : code=c0" ] (fun batch ->
               fst
                 (run
                    [ "query"; "--csv"; csv; "--enc"; "code=DET"; "--batch";
                      batch; "--backend"; backend ]))))
  in
  (match status with
   | Unix.WEXITED 0 -> ()
   | Unix.WEXITED n -> Alcotest.failf "SIGTERM drain exited %d, want 0" n
   | _ -> Alcotest.fail "server did not exit normally on SIGTERM");
  check_bool "socket path unlinked on drain" false (Sys.file_exists sock);
  check_bool "pidfile removed on drain" false (Sys.file_exists pidfile)

(* [query --where], [explain --where] and the [--batch] lines share one
   predicate grammar: points and ranges are accepted everywhere, and a
   missing '=', a bad value or an unknown attribute exits 2 in both
   commands. *)
let where_grammar () =
  with_csv @@ fun csv ->
  let run_where cmd where =
    run ~capture_stderr:true
      [ cmd; "--csv"; csv; "--enc"; "code=DET,id=OPE"; "--select"; "code"; "--where";
        where ]
  in
  List.iter
    (fun cmd ->
      check_int (cmd ^ " --where id=1..2 exits 0") 0 (fst (run_where cmd "id=1..2"));
      check_int (cmd ^ " --where code=c1,id=0..3 exits 0") 0
        (fst (run_where cmd "code=c1,id=0..3"));
      List.iter
        (fun (where, want) ->
          let code, err = run_where cmd where in
          check_int (Printf.sprintf "%s --where %s exits 2" cmd where) 2 code;
          check_bool (Printf.sprintf "%s --where %s names the problem" cmd where) true
            (contains err want))
        [ ("id=abc", "bad value");
          ("id=1..x", "bad value");
          ("zz=1", "unknown attribute");
          ("nonsense", "bad predicate") ])
    [ "query"; "explain" ]

let suite =
  [ Alcotest.test_case "binary present" `Quick binary_present;
    Alcotest.test_case "help and version exit 0" `Quick help_ok;
    Alcotest.test_case "unknown subcommand exits 2" `Quick unknown_subcommand;
    Alcotest.test_case "unknown flag exits 2" `Quick unknown_flag;
    Alcotest.test_case "malformed values exit 2" `Quick malformed_value;
    Alcotest.test_case "check soak exits 0 and writes JSON" `Slow check_soak_passes;
    Alcotest.test_case "query --backend mem|disk, exit 2 on unknown" `Slow
      query_backend_selection;
    Alcotest.test_case "check --backend rotate writes wire metrics" `Slow
      check_rotate_with_metrics;
    Alcotest.test_case "query --batch FILE: shared pass, exit 2 on malformed"
      `Slow query_batch_file;
    Alcotest.test_case "query --wire-trace-out json|.snft, both JSON" `Slow query_wire_trace;
    Alcotest.test_case "unwritable output paths exit 2" `Quick trace_out_unwritable;
    Alcotest.test_case "check --wire-trace-out records the soak" `Slow
      check_wire_trace;
    Alcotest.test_case "check --batch 1|8|64" `Slow check_batch_sizes;
    Alcotest.test_case "serve misuse exits 2 with pointed messages" `Quick
      serve_misuse;
    Alcotest.test_case "query --backend socket without a server exits 2" `Quick
      query_socket_no_server;
    Alcotest.test_case "query --backend sharded:N, exit 2 on malformed specs"
      `Slow query_sharded_backend;
    Alcotest.test_case "check --backend sharded exits 0" `Slow
      check_sharded_backend;
    Alcotest.test_case "serve, query over the socket, SIGTERM drains to 0" `Slow
      serve_then_query_then_sigterm;
    Alcotest.test_case "one predicate grammar: --where points and ranges, exit 2"
      `Slow where_grammar ]
