module Prng = Snf_crypto.Prng
module Prf = Snf_crypto.Prf

let g_domains = Snf_obs.Metrics.gauge "exec.parallel.domains"

let parse_env () =
  match Sys.getenv_opt "SNF_DOMAINS" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 1)
  | None -> Domain.recommended_domain_count ()

let configured = ref None

let domain_count () =
  match !configured with
  | Some d -> d
  | None ->
    let d = parse_env () in
    configured := Some d;
    d

let set_domain_count d =
  if d < 1 then invalid_arg "Parallel.set_domain_count: must be >= 1";
  configured := Some d

(* Default-path inputs below this many items run sequentially. The value
   dates from a Domain.spawn per lane, which bench micro-fanout puts at
   ≈250 us per empty fan-out at 2 lanes and ≈1,000 us at 4 (2-core VM);
   on the pool the same call costs ≈2 and ≈5 us. It is kept as is until it
   is re-derived from measured item costs. *)
let min_parallel_items = 32

(* --- the pool --------------------------------------------------------------

   One process-wide set of worker domains, grown lazily to the largest lane
   count ever requested minus one and never shut down. An idle worker
   blocks on [wake]; a queued entry is a claim ticket on one [tabulate]
   call, and running it claims and runs that call's chunks until none is
   left. Entries never raise: chunk failures are caught into the call's
   result slots. *)

let lock = Mutex.create ()
let wake = Condition.create ()
let queue : (unit -> unit) Queue.t = Queue.create ()
let workers = ref 0 (* spawned so far; guarded by [lock] *)

let rec worker_loop () =
  Mutex.lock lock;
  while Queue.is_empty queue do
    Condition.wait wake lock
  done;
  let entry = Queue.pop queue in
  Mutex.unlock lock;
  entry ();
  worker_loop ()

(* Queue [copies] entries, first growing the pool to [copies] workers. A
   failed spawn raises before anything is queued. *)
let offer entry copies =
  let missing =
    Mutex.protect lock (fun () ->
        let k = max 0 (copies - !workers) in
        workers := !workers + k;
        k)
  in
  for _ = 1 to missing do
    ignore (Domain.spawn worker_loop)
  done;
  Mutex.protect lock (fun () ->
      for _ = 1 to copies do
        Queue.push entry queue;
        Condition.signal wake
      done)

let tabulate ?domains n f =
  if n < 0 then invalid_arg "Parallel.tabulate: negative size";
  let d = min (max 1 (Option.value domains ~default:(domain_count ()))) n in
  (* An explicit ?domains is the caller saying the items are coarse-grained
     (e.g. whole-leaf filters); only the default path applies the
     small-input cutoff. *)
  if d <= 1 || (domains = None && n < min_parallel_items) then Array.init n f
  else begin
    (* Contiguous chunks, one per lane; chunk results are concatenated in
       chunk order, so the output is independent of scheduling. *)
    let chunk = (n + d - 1) / d in
    let lanes = (n + chunk - 1) / chunk in
    Snf_obs.Metrics.set_gauge g_domains (float_of_int d);
    let results = Array.make lanes (Ok [||]) in
    let run c =
      let lo = c * chunk in
      results.(c) <-
        (match Array.init (min chunk (n - lo)) (fun i -> f (lo + i)) with
         | r -> Ok r
         | exception e -> Error (e, Printexc.get_raw_backtrace ()))
    in
    let next = Atomic.make 1 and unfinished = Atomic.make (lanes - 1) in
    let done_lock = Mutex.create () and all_done = Condition.create () in
    let finish () =
      if Atomic.fetch_and_add unfinished (-1) = 1 then
        Mutex.protect done_lock (fun () -> Condition.broadcast all_done)
    in
    (* Claim and run chunks until none is left. Each chunk's metric shard
       and span buffer are flushed before it counts as finished, which
       makes Snf_obs totals deterministic under any domain count. *)
    let rec help () =
      let c = Atomic.fetch_and_add next 1 in
      if c < lanes then begin
        run c;
        Snf_obs.flush ();
        finish ();
        help ()
      end
    in
    offer help (lanes - 1);
    (* The caller runs chunk 0, then every chunk no worker has claimed,
       and only then waits — it never waits on a chunk that has not
       started, so nested calls cannot deadlock. *)
    run 0;
    help ();
    Mutex.protect done_lock (fun () ->
        while Atomic.get unfinished > 0 do
          Condition.wait all_done done_lock
        done);
    Array.to_list results
    |> List.map (function Ok r -> r | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    |> Array.concat
  end

let map ?domains f arr = tabulate ?domains (Array.length arr) (fun i -> f arr.(i))

let map_list ?domains f l =
  Array.to_list (map ?domains f (Array.of_list l))

let item_prng ~key i = Prng.of_int64 (Prf.mac_int key i)
