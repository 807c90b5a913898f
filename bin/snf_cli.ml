(* snf_cli — command-line front end for the Secure Normal Form library.

   Subcommands:
     demo       walk through the paper's Example 1 end to end
     analyze    mine dependencies from a CSV and audit a representation
     normalize  partition a CSV into SNF and report the representation
     query      outsource a CSV and run point and range queries securely
     serve      run a networked SNF server on a socket address
     table1 / figure3 / attack   regenerate the paper's experiments *)

open Cmdliner
open Snf_relational
module Scheme = Snf_crypto.Scheme
open Snf_core

(* --- shared argument parsing -------------------------------------------------- *)

let parse_enc_spec spec =
  (* "State=NDET,ZipCode=DET" *)
  String.split_on_char ',' spec
  |> List.filter (fun s -> s <> "")
  |> List.map (fun pair ->
         match String.index_opt pair '=' with
         | None -> failwith (Printf.sprintf "bad annotation %S (want attr=SCHEME)" pair)
         | Some i ->
           let attr = String.sub pair 0 i in
           let scheme_name = String.sub pair (i + 1) (String.length pair - i - 1) in
           (match Scheme.of_string scheme_name with
            | Some s -> (attr, s)
            | None -> failwith (Printf.sprintf "unknown scheme %S" scheme_name)))

let load_csv path = Csv.load path

let policy_of ~enc ~default r =
  let overrides = parse_enc_spec enc in
  let default =
    match Scheme.of_string default with
    | Some s -> s
    | None -> failwith (Printf.sprintf "unknown default scheme %S" default)
  in
  Policy.of_schema ~default ~overrides (Relation.schema r)

let csv_arg =
  Arg.(required & opt (some file) None & info [ "csv" ] ~docv:"FILE"
         ~doc:"Input relation as CSV with a name:type header.")

let enc_arg =
  Arg.(value & opt string "" & info [ "enc" ] ~docv:"SPEC"
         ~doc:"Encryption annotation, e.g. ZipCode=DET,Income=OPE. \
               Schemes: PLAIN, NDET (AES), DET, OPE, ORE, PHE.")

let default_scheme_arg =
  Arg.(value & opt string "NDET" & info [ "default" ] ~docv:"SCHEME"
         ~doc:"Scheme for unannotated attributes (default NDET).")

let strategy_arg =
  let strategy_conv =
    Arg.enum
      [ ("naive", `Naive); ("strawman", `Strawman); ("all-strong", `All_strong);
        ("non-repeating", `Non_repeating); ("max-repeating", `Max_repeating);
        ("exhaustive", `Exhaustive) ]
  in
  Arg.(value & opt strategy_conv `Non_repeating & info [ "strategy" ] ~docv:"STRATEGY"
         ~doc:"Partitioning strategy (default non-repeating).")

let semantics_arg =
  let semantics_conv =
    Arg.enum [ ("strict", Semantics.Strict); ("marginal", Semantics.Marginal) ]
  in
  Arg.(value & opt semantics_conv Semantics.Strict & info [ "semantics" ]
         ~doc:"Leakage semantics: strict (default) also forbids joint exposure \
               of dependent weak columns; marginal follows the paper's literal rule.")

let rows_arg default =
  Arg.(value & opt int default & info [ "rows" ] ~docv:"N" ~doc:"Dataset scale.")

let deps_arg =
  Arg.(value & opt (some file) None & info [ "deps" ] ~docv:"FILE"
         ~doc:"Dependence specification in the Spec_lang format (one \
               declaration per line: `A -> B`, `A ~ B`, `A _|_ B`, \
               `A _|_ B | C = v`). When omitted, dependencies are mined \
               from the data.")

(* File-output flags fail fast: an unwritable destination is CLI misuse
   (exit 2, like any other bad flag value), discovered before the
   expensive work starts — not a Sys_error escaping as exit 3 after the
   queries already ran. The probe appends nothing and leaves existing
   files untouched. *)
let ensure_writable flag = function
  | None -> ()
  | Some path ->
    (match open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path with
     | oc -> close_out oc
     | exception Sys_error msg ->
       Printf.eprintf "snf_cli: %s: cannot write %s (%s)\n" flag path msg;
       exit 2)

(* [--wire-trace-out]: run [f] under an SNFT recording and write the
   trace as an SNFT JSON document. *)
let with_wire_trace out f =
  match out with
  | None -> f ()
  | Some path ->
    let v, trace = Snf_exec.System.record_wire_trace f in
    Snf_obs.Wiretrace.write_json ~path trace;
    Printf.printf "-- wrote %s (SNFT wire trace, %d events)\n" path
      (List.length trace.Snf_obs.Wiretrace.events);
    v

(* [--trace-out]: the recorded spans as Chrome trace_event JSON, with the
   metrics snapshot embedded. *)
let write_span_trace = function
  | None -> ()
  | Some path ->
    Snf_obs.Export.write ~path
      (Snf_obs.Export.chrome_trace ~metrics:(Snf_obs.Metrics.snapshot ())
         (Snf_obs.Span.events ()));
    Printf.printf "-- wrote %s (open in chrome://tracing or Perfetto)\n" path

(* One predicate grammar for every command: comma-separated attr=value
   (point) or attr=lo..hi (inclusive range), values typed against the
   schema. A malformed predicate is an [Error] naming it, which every
   caller reports as CLI misuse (exit 2). *)
let split_once sep s =
  let n = String.length sep in
  let rec find i =
    if i + n > String.length s then None
    else if String.sub s i n = sep then
      Some (String.sub s 0 i, String.sub s (i + n) (String.length s - i - n))
    else find (i + 1)
  in
  find 0

let parse_preds schema text =
  let pred pair =
    let attr, raw =
      match split_once "=" pair with
      | Some (attr, raw) -> (String.trim attr, raw)
      | None ->
        failwith (Printf.sprintf "bad predicate %S (want attr=value or attr=lo..hi)" pair)
    in
    let ty =
      match Schema.find schema attr with
      | Some a -> a.Attribute.ty
      | None -> failwith (Printf.sprintf "unknown attribute %S" attr)
    in
    let value raw =
      try
        match ty with
        | Value.TInt -> Value.Int (int_of_string raw)
        | Value.TFloat -> Value.Float (float_of_string raw)
        | Value.TBool -> Value.Bool (bool_of_string raw)
        | Value.TText -> Value.Text raw
      with Failure _ | Invalid_argument _ ->
        failwith (Printf.sprintf "bad value %S for %s" raw attr)
    in
    match split_once ".." raw with
    | Some (lo, hi) -> Snf_exec.Query.Range (attr, value lo, value hi)
    | None -> Snf_exec.Query.Point (attr, value raw)
  in
  try
    Ok
      (String.split_on_char ',' text |> List.map String.trim |> List.filter (( <> ) "")
      |> List.map pred)
  with Failure msg -> Error msg

(* [--where] on the command line: a malformed predicate exits 2. *)
let where_preds schema where =
  match parse_preds schema where with
  | Ok preds -> preds
  | Error msg ->
    Printf.eprintf "snf_cli: --where: %s\n" msg;
    exit 2

let graph_of ~deps r =
  match deps with
  | None -> Snf_deps.Dep_graph.of_relation r
  | Some path ->
    let ic = open_in path in
    let text =
      Fun.protect ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    (match
       Snf_deps.Spec_lang.parse
         ~universe:(Schema.names (Relation.schema r)) text
     with
     | Ok g -> g
     | Error e -> failwith ("dependence spec: " ^ e))

(* --- demo ---------------------------------------------------------------------- *)

let demo_cmd =
  let run () =
    let r =
      Relation.create
        (Schema.of_attributes
           [ Attribute.int "tid"; Attribute.text "State"; Attribute.int "ZipCode" ])
        [ [| Value.Int 218; Value.Text "TX"; Value.Int 75050 |];
          [| Value.Int 589; Value.Text "TX"; Value.Int 75050 |];
          [| Value.Int 402; Value.Text "CA"; Value.Int 94202 |] ]
    in
    let base = Relation.project r [ "State"; "ZipCode" ] in
    Printf.printf "Example 1 (paper, Fig. 1): a relation with ZipCode -> State\n\n";
    Format.printf "%a@." (Relation.pp ~max_rows:5) r;
    let policy = Policy.create [ ("State", Scheme.Ndet); ("ZipCode", Scheme.Det) ] in
    Printf.printf "Annotation: State=NDET (strong), ZipCode=DET (weak, equality leaks)\n\n";
    let g = Snf_deps.Dep_graph.of_relation base in
    Printf.printf "Mined dependence: ZipCode ~ State: %b\n\n"
      (Snf_deps.Dep_graph.dependent g "ZipCode" "State");
    let strawman = Strategy.strawman policy in
    Printf.printf "Strawman (co-located, as naive CryptDB usage):\n";
    List.iter
      (fun v -> Format.printf "  UNINTENDED: %a@." Audit.pp_violation v)
      (Audit.violations g policy strawman);
    let nr = Strategy.non_repeating g policy in
    Format.printf "@.SNF normalization (non-repeating): %a@." Partition.pp nr;
    Printf.printf "SNF: %b; maximally permissive: %b\n\n"
      (Audit.is_snf g policy nr)
      (Maximal.is_maximally_permissive g policy nr);
    let owner = Snf_exec.System.outsource ~name:"demo" ~graph:g base policy in
    let q = Snf_exec.Query.point ~select:[ "State" ] [ ("ZipCode", Value.Int 75050) ] in
    (match Snf_exec.System.query owner q with
     | Ok (ans, trace) ->
       Format.printf "Query: %a@." Snf_exec.Query.pp q;
       Format.printf "Answer:@.%a@." (Relation.pp ~max_rows:5) ans;
       Format.printf "Trace: %a@." Snf_exec.Executor.pp_trace trace
     | Error e -> Printf.printf "query failed: %s\n" e);
    Printf.printf "\nThe adversary's view: run `snf_cli attack` to see the difference.\n"
  in
  Cmd.v (Cmd.info "demo" ~doc:"Walk through the paper's Example 1 end to end.")
    Term.(const run $ const ())

(* --- analyze -------------------------------------------------------------------- *)

let analyze_cmd =
  let run csv enc default semantics deps =
    let r = load_csv csv in
    let policy = policy_of ~enc ~default r in
    let g = graph_of ~deps r in
    Printf.printf "Mined %d functional dependencies; %.0f%% of pairs decided.\n\n"
      (List.length (Snf_deps.Dep_graph.fds g))
      (100.0 *. Snf_deps.Dep_graph.completeness g);
    List.iter
      (fun fd -> Format.printf "  %a@." Fd.pp fd)
      (Snf_deps.Dep_graph.fds g);
    let strawman = Strategy.strawman policy in
    Printf.printf "\nLeakage closure of the co-located (strawman) representation:\n";
    List.iter
      (fun (attr, leaked, allowed, ok) ->
        Printf.printf "  %-20s leaks %-8s allowed %-8s %s\n" attr
          (Leakage.kind_to_string leaked)
          (Leakage.kind_to_string allowed)
          (if ok then "ok" else "UNINTENDED"))
      (Audit.closure_report g policy strawman);
    print_newline ();
    print_string (Explain.report ~semantics g policy strawman)
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Mine dependencies and audit the co-located representation.")
    Term.(const run $ csv_arg $ enc_arg $ default_scheme_arg $ semantics_arg $ deps_arg)

(* --- normalize ------------------------------------------------------------------ *)

let normalize_cmd =
  let run csv enc default strategy semantics deps =
    let r = load_csv csv in
    let policy = policy_of ~enc ~default r in
    let g = graph_of ~deps r in
    let plan = Normalizer.plan_with_graph ~semantics ~strategy g policy in
    Format.printf "%a@." Normalizer.pp plan;
    Printf.printf "repetition factor: %.2f\n"
      (Partition.repetition_factor plan.Normalizer.representation);
    Printf.printf "maximally permissive: %b\n"
      (Maximal.is_maximally_permissive ~semantics g policy plan.Normalizer.representation);
    if not plan.Normalizer.snf then begin
      Printf.printf "violations:\n";
      List.iter
        (fun v -> Format.printf "  %a@." Audit.pp_violation v)
        (Audit.violations ~semantics g policy plan.Normalizer.representation)
    end
  in
  Cmd.v (Cmd.info "normalize" ~doc:"Partition a relation into secure normal form.")
    Term.(const run $ csv_arg $ enc_arg $ default_scheme_arg $ strategy_arg $ semantics_arg
          $ deps_arg)

(* --- query ----------------------------------------------------------------------- *)

let query_cmd =
  let select_arg =
    Arg.(value & opt (some string) None & info [ "select" ] ~docv:"ATTRS"
           ~doc:"Comma-separated projection attributes (required unless \
                 $(b,--batch) is given).")
  in
  let batch_arg =
    Arg.(value & opt (some file) None & info [ "batch" ] ~docv:"FILE"
           ~doc:"Run a whole batch of queries in one shared pass instead \
                 of a single query: one query per line in the form \
                 'sel1,sel2 : attr=val,attr2=lo..hi' (point and inclusive \
                 range predicates; blank lines and #-comments skipped). \
                 All queries ship in one wire round trip and share the \
                 oblivious reconstruction. Malformed lines exit 2.")
  in
  let where_arg =
    Arg.(value & opt string "" & info [ "where" ] ~docv:"PREDS"
           ~doc:"Comma-separated predicates: attr=value (point) or \
                 attr=lo..hi (inclusive range); values typed against the \
                 schema.")
  in
  let mode_arg =
    let mode_conv =
      Arg.enum [ ("sort-merge", `Sort_merge); ("oram", `Oram); ("binning", `Binning 16) ]
    in
    Arg.(value & opt mode_conv `Sort_merge & info [ "mode" ]
           ~doc:"Oblivious reconstruction mechanism.")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Record spans and write a Chrome trace_event JSON file \
                 (view in chrome://tracing or Perfetto) with the metrics \
                 snapshot embedded.")
  in
  let wire_trace_out_arg =
    Arg.(value & opt (some string) None & info [ "wire-trace-out" ] ~docv:"FILE"
           ~doc:"Record the SNFT wire trace — every client/server message \
                 of the run, with sizes, tags and ciphertext-level \
                 summaries (the honest-but-curious server's transcript) — \
                 and write it here as an SNFT JSON document. Feed it to \
                 the leakage profiler or the trace-replay adversary.")
  in
  let backend_arg =
    (* mem | disk | socket:ADDR | sharded:N[:KIND] — socket dials a
       running `snf_cli serve` instance and sharded fans the store over N
       inner backends, so validate the whole spec shape at flag-parse
       time (exit 2 on garbage, like any other bad flag value). *)
    let backend_conv =
      let sharded_of_spec rest =
        (* N | N:mem | N:disk | N:socket:A1,A2,...  (exactly N addresses) *)
        let count_s, kind_s =
          match String.index_opt rest ':' with
          | None -> (rest, "mem")
          | Some i ->
            (String.sub rest 0 i, String.sub rest (i + 1) (String.length rest - i - 1))
        in
        match int_of_string_opt count_s with
        | None ->
          Error
            (`Msg
              (Printf.sprintf
                 "sharded: shard count must be a positive integer, got %S" count_s))
        | Some n when n < 1 ->
          Error
            (`Msg (Printf.sprintf "sharded: shard count must be at least 1, got %d" n))
        | Some n -> (
          let local connect =
            (* A fresh coordinator per binding, like every other kind: each
               shard is its own private store, populated at Install. *)
            Ok
              (`Ext
                { Snf_exec.System.ext_name = "sharded";
                  ext_connect =
                    (fun () ->
                      Snf_exec.Backend_sharded.connect
                        (Snf_exec.Backend_sharded.create ~shards:n ~connect ())) })
          in
          match kind_s with
          | "mem" ->
            local (fun _ ->
                Snf_exec.Server_api.connect
                  (module Snf_exec.Backend_mem)
                  (Snf_exec.Backend_mem.empty ()))
          | "disk" ->
            local (fun _ ->
                Snf_exec.Server_api.connect
                  (module Snf_exec.Backend_disk)
                  (Snf_exec.Backend_disk.create_temp ()))
          | _ when String.length kind_s > 7 && String.sub kind_s 0 7 = "socket:" ->
            let addrs =
              String.split_on_char ','
                (String.sub kind_s 7 (String.length kind_s - 7))
            in
            if List.length addrs <> n then
              Error
                (`Msg
                  (Printf.sprintf
                     "sharded:%d:socket needs exactly %d comma-separated \
                      addresses (one server per shard), got %d"
                     n n (List.length addrs)))
            else (
              match
                List.find_map
                  (fun a ->
                    match Snf_net.Addr.parse a with
                    | Error e -> Some e
                    | Ok _ -> None)
                  addrs
              with
              | Some e -> Error (`Msg ("sharded socket address: " ^ e))
              | None -> Ok (`Ext (Snf_net.Client.sharded_backend addrs)))
          | other ->
            Error
              (`Msg
                (Printf.sprintf
                   "sharded inner kind must be mem, disk, or socket:A1,A2,... \
                    — got %S"
                   other)))
      in
      let parse s =
        match s with
        | "mem" -> Ok `Mem
        | "disk" -> Ok `Disk
        | _ when String.length s > 7 && String.sub s 0 7 = "socket:" ->
          let addr = String.sub s 7 (String.length s - 7) in
          (match Snf_net.Addr.parse addr with
           | Ok _ -> Ok (`Ext (Snf_net.Client.backend addr))
           | Error e -> Error (`Msg e))
        | _ when String.length s > 8 && String.sub s 0 8 = "sharded:" ->
          sharded_of_spec (String.sub s 8 (String.length s - 8))
        | "sharded" ->
          Error (`Msg "sharded needs a shard count: sharded:N[:mem|disk|socket:...]")
        | _ -> Error (`Msg "expected mem, disk, socket:ADDR, or sharded:N[:KIND]")
      in
      let print fmt k =
        Format.pp_print_string fmt (Snf_exec.System.backend_kind_name k)
      in
      Arg.conv (parse, print)
    in
    Arg.(value & opt backend_conv `Mem
         & info [ "backend" ] ~docv:"mem|disk|socket:ADDR|sharded:N"
             ~doc:"Server backend: 'mem' (default) serves the store \
                   in-process; 'disk' pages it from a private temp \
                   directory, removed on exit; 'socket:unix:/path' or \
                   'socket:tcp:host:port' outsources to a running \
                   $(b,snf_cli serve) instance over the SNFF framed \
                   transport; 'sharded:N' scatter-gathers the store over \
                   N in-process shards ('sharded:N:disk' for file-backed \
                   shards, 'sharded:N:socket:A1,...,AN' for one running \
                   server per shard). Answers and traces are identical in \
                   every case.")
  in
  (* Batch-file grammar, one query per line:
       sel1,sel2 : attr=val,attr2=lo..hi
     Any malformed line is CLI misuse — report it and exit 2 (the same
     code cmdliner uses for unparseable flags), never 3. *)
  let parse_batch_file path schema =
    let ic = open_in path in
    let lines =
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec go acc n =
        match input_line ic with
        | line -> go ((n, line) :: acc) (n + 1)
        | exception End_of_file -> List.rev acc
      in
      go [] 1
    in
    let malformed n msg =
      Printf.eprintf "snf_cli: %s line %d: %s\n" path n msg;
      exit 2
    in
    lines
    |> List.filter (fun (_, line) ->
           let line = String.trim line in
           line <> "" && line.[0] <> '#')
    |> List.map (fun (n, line) ->
           match String.index_opt line ':' with
           | None -> malformed n "expected 'select-attrs : predicates'"
           | Some i ->
             let select =
               String.sub line 0 i |> String.split_on_char ','
               |> List.map String.trim |> List.filter (( <> ) "")
             in
             if select = [] then malformed n "empty projection";
             match
               parse_preds schema (String.sub line (i + 1) (String.length line - i - 1))
             with
             | Ok where -> { Snf_exec.Query.select; where }
             | Error msg -> malformed n msg)
  in
  let run csv enc default select where mode trace_out wire_trace_out backend batch =
    ensure_writable "--trace-out" trace_out;
    ensure_writable "--wire-trace-out" wire_trace_out;
    let r = load_csv csv in
    let policy = policy_of ~enc ~default r in
    let schema = Relation.schema r in
    if trace_out <> None then Snf_obs.Span.set_enabled true;
    (* A socket backend that cannot reach its server is misuse of the
       flag's value, not a crash: report and exit 2. *)
    let outsource () =
      try Snf_exec.System.outsource ~backend ~name:"cli" r policy
      with Snf_net.Client.Disconnected e ->
        Printf.eprintf "snf_cli: cannot reach server: %s\n" e;
        exit 2
    in
    with_wire_trace wire_trace_out @@ fun () ->
    match batch with
    | Some path ->
      let qs = parse_batch_file path schema in
      if qs = [] then begin
        Printf.eprintf "snf_cli: %s: no queries\n" path;
        exit 2
      end;
      let owner = outsource () in
      Fun.protect ~finally:(fun () -> Snf_exec.System.release owner) @@ fun () ->
      let results = Snf_exec.System.query_batch ~mode owner qs in
      List.iteri
        (fun i (q, result) ->
          Format.printf "== query %d: %a@." i Snf_exec.Query.pp q;
          match result with
          | Error e -> Printf.printf "query %d failed: %s\n" i e
          | Ok (ans, trace) ->
            Format.printf "%a@." (Relation.pp ~max_rows:50) ans;
            Format.printf "-- %a@." Snf_exec.Executor.pp_trace trace)
        (List.combine qs results);
      Printf.printf "-- batch of %d queries in one shared pass (backend: %s)\n"
        (List.length qs)
        (Snf_exec.System.backend_kind_name (Snf_exec.System.backend owner));
      write_span_trace trace_out
    | None ->
      let select =
        match select with
        | Some s -> String.split_on_char ',' s |> List.filter (( <> ) "")
        | None ->
          prerr_endline "snf_cli: query needs --select ATTRS (or --batch FILE)";
          exit 2
      in
      let where = where_preds schema where in
      let owner = outsource () in
      (* Release drops the server connection — for the disk backend, that
         removes its temp directory. *)
      Fun.protect ~finally:(fun () -> Snf_exec.System.release owner) @@ fun () ->
      let q = { Snf_exec.Query.select; where } in
      (match Snf_exec.System.query ~mode owner q with
       | Ok (ans, trace) ->
         Format.printf "%a@." (Relation.pp ~max_rows:50) ans;
         Format.printf "-- backend: %s@."
           (Snf_exec.System.backend_kind_name (Snf_exec.System.backend owner));
         Format.printf "-- %a@." Snf_exec.Executor.pp_trace trace;
         (* Export before [verify] re-runs the query, so the embedded
            exec.query.* totals equal the printed trace exactly. *)
         write_span_trace trace_out;
         Printf.printf "-- verified against plaintext reference: %b\n"
           (Snf_exec.System.verify ~mode owner q)
       | Error e -> Printf.printf "query failed: %s\n" e)
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Outsource a CSV and run a point query — or a whole batch of \
             queries in one shared pass — securely.")
    Term.(const run $ csv_arg $ enc_arg $ default_scheme_arg $ select_arg $ where_arg
          $ mode_arg $ trace_out_arg $ wire_trace_out_arg $ backend_arg $ batch_arg)

(* --- explain ------------------------------------------------------------------------ *)

let explain_cmd =
  let module P = Snf_exec.Planner in
  let module Q = Snf_exec.Query in
  let select_arg =
    Arg.(required & opt (some string) None & info [ "select" ] ~docv:"ATTRS"
           ~doc:"Comma-separated projection attributes.")
  in
  let where_arg =
    Arg.(value & opt string "" & info [ "where" ] ~docv:"PREDS"
           ~doc:"Comma-separated predicates: attr=value (point) or \
                 attr=lo..hi (inclusive range); values typed against the \
                 schema.")
  in
  let planner_arg =
    Arg.(value
         & opt (enum [ ("greedy", `Greedy); ("cost", `Cost); ("optimal", `Optimal) ])
             `Cost
         & info [ "planner" ] ~docv:"greedy|cost|optimal"
             ~doc:"Planning handle to explain: 'cost' (default) prices \
                   candidate covers and join orders from server-visible \
                   statistics, 'greedy' is the cover heuristic, 'optimal' \
                   the exhaustive search minimizing leaf count.")
  in
  let run csv enc default select where planner_kind =
    let r = load_csv csv in
    let policy = policy_of ~enc ~default r in
    let schema = Relation.schema r in
    let where = where_preds schema where in
    let select = String.split_on_char ',' select |> List.filter (( <> ) "") in
    let q = { Q.select; where } in
    let owner = Snf_exec.System.outsource ~name:"cli" r policy in
    Fun.protect ~finally:(fun () -> Snf_exec.System.release owner) @@ fun () ->
    let planner =
      match planner_kind with
      | `Greedy -> P.greedy
      | `Cost -> Snf_exec.System.cost_planner owner
      | `Optimal ->
        P.cost_based ~label:"optimal" ~max_orders:1
          ~price:(fun p -> float_of_int (List.length p.P.leaves))
          ~stamp:(fun () -> (0, 0))
          ()
    in
    match Snf_exec.System.query ~planner owner q with
    | Error e ->
      Printf.printf "explain failed: %s\n" e;
      exit 1
    | Ok (ans, trace) ->
      let d = trace.Snf_exec.Executor.decision in
      let pl = d.P.d_plan in
      let pred_text = function
        | Q.Point (a, v) -> Printf.sprintf "%s = %s" a (Value.to_string v)
        | Q.Range (a, lo, hi) ->
          Printf.sprintf "%s in [%s .. %s]" a (Value.to_string lo)
            (Value.to_string hi)
      in
      let report =
        { Explain.pr_query = Format.asprintf "%a" Q.pp q;
          pr_selector = d.P.d_selector;
          pr_cache = d.P.d_cache;
          pr_leaves = pl.P.leaves;
          pr_joins = pl.P.joins;
          pr_pred_homes = List.map (fun (p, l) -> (pred_text p, l)) pl.P.pred_home;
          pr_proj_homes = pl.P.proj_home;
          pr_estimate = d.P.d_estimate;
          pr_enumerated = d.P.d_enumerated;
          pr_rejected =
            List.map (fun c -> (c.P.cand_leaves, c.P.cand_cost)) d.P.d_rejected;
          pr_notes = List.map P.note_to_string d.P.d_notes;
          pr_actual =
            [ ("result_rows", trace.Snf_exec.Executor.result_rows);
              ("scanned_cells", trace.Snf_exec.Executor.scanned_cells);
              ("comparisons", trace.Snf_exec.Executor.comparisons);
              ("rows_processed", trace.Snf_exec.Executor.rows_processed);
              ("wire_requests", trace.Snf_exec.Executor.wire_requests);
              ("wire_bytes_down", trace.Snf_exec.Executor.wire_bytes_down) ] }
      in
      print_string (Explain.render_plan report);
      Printf.printf "-- answer: %d row(s); measured estimate %.6f s\n"
        (Relation.cardinality ans) trace.Snf_exec.Executor.estimated_seconds
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Outsource a CSV, plan one query through the chosen planner, \
             execute it, and render the full planning decision: chosen \
             cover and join order, modeled cost, rejected candidates, \
             truncation notes, and estimated-vs-actual counters.")
    Term.(const run $ csv_arg $ enc_arg $ default_scheme_arg $ select_arg $ where_arg
          $ planner_arg)

(* --- visualize ---------------------------------------------------------------------- *)

let visualize_cmd =
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Write the DOT graph here instead of stdout.")
  in
  let run csv enc default strategy semantics deps out =
    let r = load_csv csv in
    let policy = policy_of ~enc ~default r in
    let g = graph_of ~deps r in
    let rep = Normalizer.(plan_with_graph ~semantics ~strategy g policy).representation in
    let dot = Visualize.leakage_dot ~semantics g policy rep in
    match out with
    | None -> print_string dot
    | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc dot);
      Printf.printf "wrote %s (render with: dot -Tsvg %s -o graph.svg)\n" path path
  in
  Cmd.v
    (Cmd.info "visualize"
       ~doc:"Emit a Graphviz picture of a representation's leakage flows (§V-D).")
    Term.(const run $ csv_arg $ enc_arg $ default_scheme_arg $ strategy_arg
          $ semantics_arg $ deps_arg $ out_arg)

(* --- experiments ------------------------------------------------------------------ *)

let table1_cmd =
  let run rows =
    let config = { Snf_experiments.Table1.default_config with Snf_experiments.Table1.rows } in
    print_string (Snf_experiments.Table1.render (Snf_experiments.Table1.run ~config ()))
  in
  Cmd.v (Cmd.info "table1" ~doc:"Regenerate the paper's Table I.")
    Term.(const run $ rows_arg 20_000)

let figure3_cmd =
  let run rows =
    let config = { Snf_experiments.Figure3.default_config with Snf_experiments.Figure3.rows } in
    print_string (Snf_experiments.Figure3.render (Snf_experiments.Figure3.run ~config ()))
  in
  Cmd.v (Cmd.info "figure3" ~doc:"Regenerate the paper's Figure 3.")
    Term.(const run $ rows_arg 20_000)

let attack_cmd =
  let run rows =
    print_string (Snf_experiments.Attack_eval.render (Snf_experiments.Attack_eval.run ~rows ()))
  in
  Cmd.v (Cmd.info "attack" ~doc:"Frequency-analysis + inference attack: strawman vs SNF.")
    Term.(const run $ rows_arg 4_000)

(* --- check (conformance soak) ----------------------------------------------------- *)

let check_cmd =
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
           ~doc:"Base seed; every instance and workload is a deterministic \
                 function of it, so a failing run reproduces exactly.")
  in
  let queries_arg =
    Arg.(value & opt int 200 & info [ "queries" ] ~docv:"K"
           ~doc:"Keep generating instances until at least K queries have \
                 executed through every representation (default 200).")
  in
  let check_rows_arg =
    Arg.(value & opt int 16 & info [ "rows" ] ~docv:"R"
           ~doc:"Cap on rows per generated instance (default 16).")
  in
  let faults_arg =
    Arg.(value & opt bool true & info [ "faults" ] ~docv:"BOOL"
           ~doc:"Also run the fault-injection campaign per instance \
                 (default true).")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Write the JSON soak report here (what the nightly job \
                 uploads on failure).")
  in
  let backend_arg =
    Arg.(value
         & opt
             (enum
                [ ("mem", `Mem); ("disk", `Disk); ("rotate", `Rotate);
                  ("socket", `Socket); ("sharded", `Sharded 3) ])
             `Mem
         & info [ "backend" ] ~docv:"mem|disk|rotate|socket|sharded"
             ~doc:"Server backend for the soak: 'mem' (default) or 'disk' \
                   run every representation on that backend; 'rotate' \
                   additionally re-executes each query on a disk-backed \
                   twin of the SNF representation and fails on any \
                   mem/disk disagreement (answers, counters, wire bytes); \
                   'socket' does the same against a loopback networked \
                   server over the SNFF framed transport; 'sharded' \
                   against a 3-shard scatter-gather coordinator, also \
                   reconciling the per-shard wire counters against the \
                   shard connections' own stats.")
  in
  let metrics_out_arg =
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"After the soak, write the full metrics snapshot (every \
                 counter, gauge and histogram — including the \
                 exec.wire.* traffic counters) as JSON.")
  in
  let batch_arg =
    Arg.(value
         & opt (some (enum [ ("1", 1); ("8", 8); ("64", 64) ])) None
         & info [ "batch" ] ~docv:"1|8|64"
             ~doc:"Pin the batched pass to one batch size. By default the \
                   pass rotates sizes 1, 8 and the whole workload; batched \
                   answers must stay bag-identical to one-at-a-time \
                   execution and reconcile with the counters either way.")
  in
  let wire_trace_out_arg =
    Arg.(value & opt (some string) None & info [ "wire-trace-out" ] ~docv:"FILE"
           ~doc:"Record the SNFT wire trace of the whole soak — every \
                 client/server message across every representation and \
                 backend — and write it here as an SNFT JSON document.")
  in
  let planner_arg =
    Arg.(value
         & opt (enum [ ("greedy", `Greedy); ("cost", `Cost) ]) `Greedy
         & info [ "planner" ] ~docv:"greedy|cost"
             ~doc:"Planning handle for the differential and batched \
                   passes: 'greedy' (default) runs the cover heuristic \
                   and additionally re-executes part of the workload \
                   through the cost-based planner; 'cost' runs the whole \
                   soak through per-owner cost-based handles priced from \
                   server-visible statistics. Answers must be identical \
                   either way.")
  in
  let run seed queries rows faults backend batch planner out metrics_out
      wire_trace_out =
    ensure_writable "--out" out;
    ensure_writable "--metrics-out" metrics_out;
    ensure_writable "--wire-trace-out" wire_trace_out;
    let batch = match batch with None -> `Rotate | Some n -> `Size n in
    let soak () =
      Snf_check.Differential.soak ~rows ~with_faults:faults ~backend ~batch ~planner
        ~seed ~queries ()
    in
    let report = with_wire_trace wire_trace_out soak in
    Format.printf "%a@." Snf_check.Differential.pp_report report;
    let write_file path content =
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
          output_string oc content;
          output_char oc '\n')
    in
    (match out with
     | None -> ()
     | Some path ->
       write_file path
         (Snf_obs.Json.to_string (Snf_check.Differential.report_to_json report));
       Printf.printf "-- wrote %s\n" path);
    (match metrics_out with
     | None -> ()
     | Some path ->
       write_file path
         (Snf_obs.Json.to_string
            (Snf_obs.Export.metrics_json (Snf_obs.Metrics.snapshot ())));
       Printf.printf "-- wrote %s\n" path);
    if not (Snf_check.Differential.passed report) then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Conformance soak: random schemas and workloads through all five \
             representations against the plaintext oracle, plus fault injection. \
             Exit 0 on pass, 1 on any conformance failure.")
    Term.(const run $ seed_arg $ queries_arg $ check_rows_arg $ faults_arg
          $ backend_arg $ batch_arg $ planner_arg $ out_arg
          $ metrics_out_arg $ wire_trace_out_arg)

(* --- serve (networked SNF server) ------------------------------------------------- *)

let serve_cmd =
  let addr_arg =
    Arg.(required & opt (some string) None & info [ "addr" ] ~docv:"ADDR"
           ~doc:"Listen address: unix:/path/to.sock or tcp:host:port \
                 (tcp:127.0.0.1:0 picks a free port and prints it).")
  in
  let domains_arg =
    Arg.(value & opt int 0 & info [ "domains" ] ~docv:"N"
           ~doc:"Worker pool size in OCaml domains; 0 (default) sizes it \
                 to the machine.")
  in
  let queue_arg =
    Arg.(value & opt int 1024 & info [ "queue" ] ~docv:"N"
           ~doc:"Admission queue capacity; requests past it are answered \
                 with a typed busy rejection instead of queueing.")
  in
  let idle_arg =
    Arg.(value & opt float 60. & info [ "idle-timeout" ] ~docv:"SECONDS"
           ~doc:"Reap sessions idle for this long (0 or negative: never).")
  in
  let pidfile_arg =
    Arg.(value & opt (some string) None & info [ "pidfile" ] ~docv:"FILE"
           ~doc:"Write the server's pid here once listening; removed on \
                 exit.")
  in
  let run addr domains queue idle pidfile =
    ensure_writable "--pidfile" pidfile;
    let config =
      { Snf_net.Server.default_config with
        domains =
          (if domains <= 0 then Snf_net.Server.default_config.Snf_net.Server.domains
           else domains);
        queue_capacity = max 1 queue;
        idle_timeout = idle }
    in
    match Snf_net.Server.start_mem ~config ~addr () with
    | Error e ->
      Printf.eprintf "snf_cli: serve: %s\n" e;
      exit 2
    | Ok srv ->
      (match pidfile with
       | None -> ()
       | Some path ->
         let oc = open_out path in
         Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
             Printf.fprintf oc "%d\n" (Unix.getpid ())));
      Printf.printf "snf_cli: serving on %s (%d domains, queue %d)\n%!"
        (Snf_net.Server.address srv) config.Snf_net.Server.domains
        config.Snf_net.Server.queue_capacity;
      (* Signal handlers must not take locks; they only flip the flag,
         and the main thread polls it and runs the graceful drain. *)
      let stop_requested = Atomic.make false in
      let on_signal _ = Atomic.set stop_requested true in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
      Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
      while not (Atomic.get stop_requested) do
        try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      let st = Snf_net.Server.stats srv in
      Printf.printf
        "snf_cli: draining (%d sessions active, %d requests served)\n%!"
        st.Snf_net.Server.sessions_active st.Snf_net.Server.requests_served;
      Snf_net.Server.stop srv;
      (match pidfile with
       | Some path -> (try Sys.remove path with Sys_error _ -> ())
       | None -> ());
      exit 0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run a networked SNF server: SNFF framed transport, one session \
             per connection, a worker pool on OCaml domains behind a bounded \
             queue. Clients Install stores and query them with $(b,snf_cli \
             query --backend socket:ADDR). SIGTERM/SIGINT drain gracefully \
             and exit 0.")
    Term.(const run $ addr_arg $ domains_arg $ queue_arg $ idle_arg $ pidfile_arg)

let main =
  Cmd.group
    (Cmd.info "snf_cli" ~version:"1.0.0"
       ~doc:"Secure Normal Form: leakage-aware normalization for encrypted databases.")
    [ demo_cmd; analyze_cmd; normalize_cmd; query_cmd; explain_cmd; serve_cmd;
      visualize_cmd; table1_cmd; figure3_cmd; attack_cmd; check_cmd ]

(* Exit codes: 0 success, 1 conformance/verification failure (from the
   subcommand itself), 2 command-line misuse — unknown subcommand, unknown
   flag, unparseable value — with a pointer at --help. *)
let () =
  match Cmd.eval_value main with
  | Ok (`Ok ()) | Ok `Help | Ok `Version -> exit 0
  | Error `Parse | Error `Term ->
    prerr_endline
      "snf_cli: unknown subcommand or malformed flags; run 'snf_cli --help' \
       for the command list.";
    exit 2
  | Error `Exn -> exit 3
