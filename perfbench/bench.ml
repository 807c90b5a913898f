(* The repository benchmark's measuring program: one workload in one
   process, driven only through the public System / Executor /
   Server_api / Snf_net entry points, with every answer bag-checked
   against the plaintext Snf_check.Oracle.

   A run goes: generate the workload from the seed (untimed) -> set up
   (System.outsource onto the workload's backend: [setup_s]) ->
   replay a fixed prefix of the workload's own stream once, sequentially,
   under the SNFT recorder (this is also the warm-up; every count metric
   and the leakage scores come from it, so they do not depend on how many
   operations the timed phase fits) -> the timed phase, a closed loop for
   [--seconds] -> score the recorded trace with the trace-replay
   adversary. One JSON object goes to stdout; perfbench/run.py combines
   processes into the benchmark's result.

   The gated timings are CPU time in reference units, measured against the
   speed probe below; wall-clock figures are reported beside them.

   [--trace 1] adds timers around the calls the benchmark makes into each
   layer (wrapped store views, the spliced connection handler, the shard
   legs) and turns on the spans Executor and Enc_relation already have.
   Nothing is added inside lib/. *)

open Snf_relational
module System = Snf_exec.System
module Executor = Snf_exec.Executor
module Server_api = Snf_exec.Server_api
module Planner = Snf_exec.Planner
module Query = Snf_exec.Query
module Enc_relation = Snf_exec.Enc_relation
module Backend_mem = Snf_exec.Backend_mem
module Backend_disk = Snf_exec.Backend_disk
module Backend_sharded = Snf_exec.Backend_sharded
module Wire = Snf_exec.Wire
module Metrics = Snf_obs.Metrics
module Span = Snf_obs.Span
module Oracle = Snf_check.Oracle
module Adversary = Snf_attack.Trace_adversary
module Scheme = Snf_crypto.Scheme
module Policy = Snf_core.Policy
module Partition = Snf_core.Partition
module Prng = Snf_crypto.Prng
module Acs = Snf_workload.Acs
module Query_gen = Snf_workload.Query_gen
module Net_server = Snf_net.Server
module Net_client = Snf_net.Client

let now = Unix.gettimeofday

(* CPU seconds of the whole process: every thread and domain, user and
   system (getrusage). The gated timings use it rather than wall time: on a
   shared host the hypervisor takes cores away for seconds at a time, and
   the kernel's steal accounting keeps that time out of the CPU clock, so
   it measures the program's own work. Wall-clock figures are reported
   beside them, ungated. *)
let cpu = Sys.time

(* ---- the speed probe ------------------------------------------------------ *)

(* A shared host's cores also change speed under the benchmark, by up to
   1.7x within seconds (a fixed CPU loop on the 2-core box measured
   0.235-0.398 CPU s with no steal at all), and no clock corrects that.
   So the benchmark runs a fixed piece of work of its own, the probe, next
   to every operation it times, and reports CPU time in reference
   milliseconds: the probe's CPU time is taken to be [probe_ref_ms]. The
   probe is an in-place heapsort of 2048 ints and an MD5 over 16 KiB, so it
   mixes memory access and arithmetic, uses no code of the program under
   test and allocates almost nothing, so it never runs the GC on the
   program's heap. *)
let probe_ref_ms = 0.8
let probe_src = Array.init 2048 (fun i -> (i * 2654435761) land 0xFFFFFF)
let probe_buf = Array.make 2048 0
let probe_bytes = Bytes.init 16384 (fun i -> Char.chr ((i * 31) land 255))

let heapsort a =
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let rec sift i n =
    let l = (2 * i) + 1 in
    if l < n then begin
      let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
      if a.(c) > a.(i) then begin
        swap i c;
        sift c n
      end
    end
  in
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    swap 0 last;
    sift 0 last
  done

(* CPU seconds of one probe. *)
let probe () =
  let c0 = cpu () in
  Array.blit probe_src 0 probe_buf 0 (Array.length probe_src);
  heapsort probe_buf;
  ignore (Sys.opaque_identity (Digest.bytes probe_bytes));
  cpu () -. c0

(* ---- command line ---------------------------------------------------- *)

type workload = Point_join | Batch_sharded | Anchor_socket

type opts = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  setup_only : bool;
  domains : int option;  (** Parallel domains; default per workload *)
  tiny : bool;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload point-join|batch-sharded|anchor-socket --seed N\n\
    \       [--seconds S] [--trace 0|1] [--setup-only] [--domains D] [--tiny]";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref 10. in
  let trace = ref false and setup_only = ref false and tiny = ref false in
  let domains = ref None in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      workload :=
        Some
          (match w with
           | "point-join" -> Point_join
           | "batch-sharded" -> Batch_sharded
           | "anchor-socket" -> Anchor_socket
           | _ -> usage ());
      go rest
    | "--seed" :: s :: rest ->
      seed := Some (int_arg s);
      go rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
       | Some x when x > 0. -> seconds := x
       | _ -> usage ());
      go rest
    | "--trace" :: t :: rest ->
      trace := int_arg t <> 0;
      go rest
    | "--domains" :: d :: rest ->
      domains := Some (max 1 (int_arg d));
      go rest
    | "--setup-only" :: rest ->
      setup_only := true;
      go rest
    | "--tiny" :: rest ->
      tiny := true;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed) with
  | Some workload, Some seed ->
    { workload; seed; seconds = !seconds; trace = !trace; setup_only = !setup_only;
      domains = !domains; tiny = !tiny }
  | _ -> usage ()

(* ---- the shared generator ---------------------------------------------- *)

(* A reduced ACS schema: 5 planted clusters + 8 singletons = 30
   attributes. The full 231-attribute default would make set-up dominate
   every run. *)
let cluster_sizes = [ 8; 5; 4; 3; 2 ]
let singletons = 8
let weak_attrs = 22

let rows_of o =
  match (o.workload, o.tiny) with
  | Point_join, false -> 4000
  | Batch_sharded, false -> 2000
  | Anchor_socket, false -> 600
  | (Point_join | Batch_sharded), true -> 600
  | Anchor_socket, true -> 300

(* Parallel domains. point-join keeps two (at most nproc) so the per-call
   domain spawns of Bitonic and the filter fan-out stay on its path. The
   other two run on one: on the shared 2-core box, spawning per call made
   batch-sharded slower (250 vs 287 q/s) and its p90 several times noisier
   between runs, and anchor-socket already runs a server domain. *)
let domains_of o =
  match (o.domains, o.workload) with
  | Some d, _ -> d
  | None, Point_join -> min 2 (Domain.recommended_domain_count ())
  | None, (Batch_sharded | Anchor_socket) -> 1

(* Operations replayed (untimed) before the timed phase. point-join's
   prefix is the longest: its leakage scores follow which queries the seed
   puts first, and at 120 queries leak_access spread 0.11 over ten seeds. *)
let prefix_of o =
  match (o.workload, o.tiny) with
  | Point_join, false -> 240
  | Batch_sharded, false -> 8
  | Anchor_socket, false -> 40  (* one whole cycle of the stream *)
  | Point_join, true -> 24
  | Batch_sharded, true -> 1
  | Anchor_socket, true -> 10

type instance = {
  rel : Relation.t;
  graph : Snf_deps.Dep_graph.t;
  policy : Policy.t;
  protected_attr : string;  (** NDET member of a cluster with a DET root *)
  source_attr : string;  (** that root: the FD source -> protected *)
  phe_attr : string;  (** a singleton re-annotated PHE *)
}

(* The policy depends only on the schema, never on [--seed]: every seed
   outsources the same representation, so seeds vary the data and the
   query constants, not the shape of the store. The first policy seed
   giving a DET-rooted cluster with an NDET member (the leakage target)
   and an NDET singleton (turned PHE) wins. *)
let make_policy (acs : Acs.t) =
  let schema = Relation.schema acs.Acs.relation in
  let rec search s =
    let p = Snf_workload.Sensitivity.annotate ~weak:weak_attrs ~seed:s schema in
    let is k a = Policy.scheme_of p a = k in
    let target =
      List.find_map
        (function
          | root :: rest when is Scheme.Det root ->
            Option.map (fun m -> (root, m)) (List.find_opt (is Scheme.Ndet) rest)
          | _ -> None)
        acs.Acs.clusters
    in
    match (target, List.find_opt (is Scheme.Ndet) acs.Acs.independents) with
    | Some (root, member), Some phe -> (Policy.strengthen p phe Scheme.Phe, root, member, phe)
    | _ -> search (s + 1)
  in
  search 11

(* The data set and the client's key material are fixed too; [--seed]
   draws the query streams. Seeding the data as well made the recode domains
   of the planted clusters, and with them result sizes, swing p90 latency
   by 1.7x between seeds. *)
let data_seed = 2013

(* Query pools are drawn once for every seed too; [--seed] orders them. *)
let pool_seed = 2013

let make_instance o =
  let acs =
    Acs.generate
      { Acs.rows = rows_of o; seed = data_seed; cluster_sizes; independent_attrs = singletons }
  in
  let policy, source_attr, protected_attr, phe_attr = make_policy acs in
  { rel = acs.Acs.relation; graph = acs.Acs.graph; policy; protected_attr; source_attr;
    phe_attr }

(* ---- from-outside timers (--trace 1 only) ------------------------------ *)

let tracing = ref false

type acc = { lock : Mutex.t; mutable total : float }

let new_acc () = { lock = Mutex.create (); total = 0. }
let add acc dt = Mutex.protect acc.lock (fun () -> acc.total <- acc.total +. dt)
let reset_acc acc = Mutex.protect acc.lock (fun () -> acc.total <- 0.)

let timed acc f =
  if not !tracing then f ()
  else begin
    let t0 = now () in
    match f () with
    | v ->
      add acc (now () -. t0);
      v
    | exception e ->
      add acc (now () -. t0);
      raise e
  end

(* Client-side SNFM round trips, whatever the transport. *)
let exchange_acc = new_acc ()

(* Server-side leaf and equality-index loads ([store_view] fields). *)
let leaf_acc = new_acc ()

(* Request/response bytes of the replayed prefix (traced runs only). *)
let captured : (string * string) list ref = ref []
let capturing = ref false

let wrap_view (v : Server_api.store_view) =
  if not !tracing then v
  else
    { v with
      Server_api.leaf = (fun l -> timed leaf_acc (fun () -> v.Server_api.leaf l));
      eq_index = (fun ~leaf ~attr -> timed leaf_acc (fun () -> v.Server_api.eq_index ~leaf ~attr))
    }

(* Every workload's client connection is this splice over its transport,
   traced or not, so the two runs differ only by the timers. *)
let splice ~name ~close handle =
  Server_api.connect_handler ~name ~close ~handle:(fun up ->
      let down = timed exchange_acc (fun () -> handle up) in
      if !capturing then captured := (up, down) :: !captured;
      down)

let view_conn ~name ~close view =
  splice ~name ~close (Server_api.session_handler (wrap_view view))

(* Shard legs of the current fan-out, and what the fan-outs added up to. *)
type legs = {
  leg : float array;
  mutable fanouts : int;
  mutable imbalance_sum : float;  (** Σ slowest leg / mean leg *)
  mutable outer : float;  (** Σ coordinator request time *)
  mutable coordination : float;  (** Σ (coordinator time - slowest leg) *)
}

let new_legs shards =
  { leg = Array.make shards 0.; fanouts = 0; imbalance_sum = 0.; outer = 0.; coordination = 0. }

let reset_legs l =
  l.fanouts <- 0;
  l.imbalance_sum <- 0.;
  l.outer <- 0.;
  l.coordination <- 0.

let shard_conn legs i =
  let m = Backend_mem.empty () in
  let handle = Server_api.session_handler (wrap_view (Backend_mem.view m)) in
  Server_api.connect_handler ~name:Backend_mem.name
    ~close:(fun () -> Backend_mem.close m)
    ~handle:(fun up ->
      if not !tracing then handle up
      else begin
        let t0 = now () in
        let down = handle up in
        legs.leg.(i) <- legs.leg.(i) +. (now () -. t0);
        down
      end)

let sharded_conn legs st =
  let inner = Backend_sharded.connect st in
  splice ~name:"sharded" ~close:(fun () -> Server_api.close inner) (fun up ->
      if not !tracing then Server_api.exchange_raw inner up
      else begin
        Array.fill legs.leg 0 (Array.length legs.leg) 0.;
        let t0 = now () in
        let down = Server_api.exchange_raw inner up in
        let dt = now () -. t0 in
        (match List.filter (fun x -> x > 0.) (Array.to_list legs.leg) with
         | _ :: _ :: _ as ran ->
           let slowest = List.fold_left max 0. ran in
           let mean = List.fold_left ( +. ) 0. ran /. float_of_int (List.length ran) in
           legs.fanouts <- legs.fanouts + 1;
           legs.imbalance_sum <- legs.imbalance_sum +. (slowest /. mean);
           legs.outer <- legs.outer +. dt;
           legs.coordination <- legs.coordination +. (dt -. slowest)
         | _ -> ());
        down
      end)

(* The socket server serves a plain in-process store through a wrapped
   view, so leaf loads are timed on the server side too. *)
module Timed_mem = struct
  type t = Backend_mem.t

  let name = Backend_mem.name
  let view t = wrap_view (Backend_mem.view t)
  let close = Backend_mem.close
end

let socket_conn addr =
  match Net_client.connect addr with
  | Ok inner ->
    splice ~name:"socket" ~close:(fun () -> Server_api.close inner) (Server_api.exchange_raw inner)
  | Error e -> failwith ("cannot connect to the benchmark server: " ^ e)

(* ---- operations ---------------------------------------------------------- *)

type op =
  | Single of Executor.mode * Query.t * Digest.t  (** expected bag *)
  | Batch of (Query.t * Digest.t) list
  | Sum of int
  | Group of (Value.t * int) list

(* Expected answers are kept as digests of their oracle bags: a stream
   holds thousands, and whole bags would weigh on [heap_peak_mb]. *)
let bag_digest r = Digest.string (Marshal.to_string (Oracle.bag r) [])

let queries_of = function Batch items -> List.length items | _ -> 1

type session = {
  query : Executor.mode -> Query.t -> (Relation.t * Executor.trace, string) result;
  batch : Query.t list -> (Relation.t * Executor.trace, string) result list;
  sum : unit -> int;
  group : unit -> (Value.t * int) list;
}

type phe_home = { p_leaf : Partition.leaf; p_group_by : string option }

let phe_home rep attr =
  let leaf = List.find (fun l -> Partition.mem_leaf l attr) rep in
  let canonical (c : Partition.column_spec) =
    c.Partition.name <> attr
    && (c.Partition.scheme = Scheme.Det || c.Partition.scheme = Scheme.Ope)
  in
  { p_leaf = leaf;
    p_group_by =
      Option.map (fun c -> c.Partition.name) (List.find_opt canonical leaf.Partition.columns) }

let group_by_exn home =
  match home.p_group_by with Some g -> g | None -> invalid_arg "no group-by column"

(* The owner's own binding: System entry points. *)
let owner_session ?planner owner ~phe_attr home =
  let leaf = home.p_leaf.Partition.label in
  { query = (fun mode q -> System.query ~mode ?planner owner q);
    batch = (fun qs -> System.query_batch ?planner owner qs);
    sum = (fun () -> System.sum owner ~leaf ~attr:phe_attr);
    group =
      (fun () -> System.group_sum owner ~leaf ~group_by:(group_by_exn home) ~sum:phe_attr) }

(* A further client session with its own keys handle and connection:
   Executor and Server_api entry points. *)
let conn_session owner client conn ~phe_attr home =
  let rep = owner.System.plan.Snf_core.Normalizer.representation in
  let leaf = home.p_leaf.Partition.label in
  let dec n =
    Snf_bignum.Nat.to_int_exn
      (Snf_crypto.Paillier.decrypt (Enc_relation.client_paillier client) n)
  in
  { query = (fun mode q -> Executor.run_conn ~mode client conn rep q);
    batch = (fun qs -> Executor.run_batch client conn rep qs);
    sum = (fun () -> dec (Server_api.phe_sum conn ~leaf ~attr:phe_attr));
    group =
      (fun () ->
        let group_by = group_by_exn home in
        let scheme =
          match Partition.scheme_in_leaf home.p_leaf group_by with
          | Some s -> s
          | None -> raise Not_found
        in
        Server_api.group_sum conn ~leaf ~group_by ~sum:phe_attr
        |> List.map (fun (cell, acc) ->
               (Enc_relation.decrypt_cell client ~leaf ~attr:group_by ~scheme cell, dec acc))
        |> List.sort (fun (a, _) (b, _) -> Value.compare a b)) }

type outcome = {
  o_queries : int;
  o_failed : int;  (** planner errors, typed failures, Busy past the budget, mismatches *)
  o_mismatched : int;
  o_traces : Executor.trace list;
}

let busy_budget = 200

let rec with_retry n f =
  try f ()
  with Server_api.Busy when n < busy_budget ->
    Thread.delay 0.002;
    with_retry (n + 1) f

(* Makes [op]'s session call (with its Busy retries) and returns the
   oracle check of its answers, so that callers can time the call alone. *)
let execute sess op : unit -> outcome =
  let n = queries_of op in
  let answer want = function
    | Ok (ans, tr) ->
      let bad = if bag_digest ans = want then 0 else 1 in
      (bad, bad, [ tr ])
    | Error _ -> (1, 0, [])
  in
  let scalar ok =
    let bad = if ok then 0 else 1 in
    { o_queries = 1; o_failed = bad; o_mismatched = bad; o_traces = [] }
  in
  try
    match op with
    | Single (mode, q, want) ->
      let r = with_retry 0 (fun () -> sess.query mode q) in
      fun () ->
        let f, m, trs = answer want r in
        { o_queries = 1; o_failed = f; o_mismatched = m; o_traces = trs }
    | Batch items ->
      let results = with_retry 0 (fun () -> sess.batch (List.map fst items)) in
      fun () ->
        List.fold_left2
          (fun o (_, want) r ->
            let f, m, trs = answer want r in
            { o with
              o_failed = o.o_failed + f;
              o_mismatched = o.o_mismatched + m;
              o_traces = trs @ o.o_traces })
          { o_queries = n; o_failed = 0; o_mismatched = 0; o_traces = [] }
          items results
    | Sum want ->
      let v = with_retry 0 sess.sum in
      fun () -> scalar (v = want)
    | Group want ->
      let v = with_retry 0 sess.group in
      fun () -> scalar (v = want)
  with
  | Snf_exec.Integrity.Corruption _ | Not_found | Invalid_argument _ | Failure _
  | Server_api.Busy | Net_client.Disconnected _ ->
    fun () -> { o_queries = n; o_failed = n; o_mismatched = 0; o_traces = [] }

(* ---- workload streams ------------------------------------------------------ *)

let expected inst q = bag_digest (Oracle.answer inst.rel q)

(* Sized so that the timed phase does not come back to the replayed
   prefix: at about 75 queries/s a 15 s phase takes 1100 of the 2880.
   The phase sees under half of the pool, and p90 sits on a steep part of
   the latency curve (p85 15 ms, p92 26 ms), so which half moved it: by
   0.21 (IQR / median) over ten seeds under a plain shuffle, and by
   0.08-0.11 with only the kinds interleaved evenly. So the seed deals the
   pool such that every stretch of the stream has the same mix of costs:
   sorted by kind, the leaves of the greedy plan and result size, the pool
   is cut into strata of 10 neighbours, each query is keyed (its seeded
   rank in its stratum + a seeded jitter) / stratum size, and the stream is
   the pool in key order. *)
let point_join_ops o inst rep =
  let per_way, ranges = if o.tiny then (20, 8) else (1200, 480) in
  let prng = Prng.create (o.seed + 7) in
  let cost (q : Query.t) answer =
    let kind = match q.Query.where with Query.Range _ :: _ -> 0 | where -> List.length where in
    let leaves =
      match Planner.plan rep q with Ok p -> List.sort compare p.Planner.leaves | Error _ -> []
    in
    (kind, leaves, Relation.cardinality answer)
  in
  let pool =
    Query_gen.mixed_with_ranges ~count_per_way:per_way ~range_count:ranges ~seed:pool_seed
      inst.rel inst.policy
    |> List.map (fun q ->
           let answer = Oracle.answer inst.rel q in
           (cost q answer, Single (`Sort_merge, q, bag_digest answer)))
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
    |> Array.of_list
  in
  let stratum = 10 and n = Array.length pool in
  List.init ((n + stratum - 1) / stratum) (fun b ->
      let lo = b * stratum in
      let size = min stratum (n - lo) in
      let ranks = Array.init size Fun.id in
      Prng.shuffle prng ranks;
      List.init size (fun i ->
          ((float_of_int ranks.(i) +. Prng.float prng 1.) /. float_of_int size, pool.(lo + i))))
  |> List.concat
  |> List.stable_sort (fun (x, _) (y, _) -> compare x y)
  |> List.map snd
  |> Array.of_list

(* A Zipf re-draw over a pool of 2-way point queries: tokens and result
   windows repeat within and across batches. The pool is drawn once and
   [--seed] drives the re-draw: with a seeded pool, which queries became
   the hot ones moved latency and leakage by 15 % between seeds. A 15 s
   phase takes about 140 of the 160 batches, so p90 comes from as many
   distinct batches: cycling through 48 made it spread 0.14 over ten seeds. *)
let batch_sharded_ops o inst =
  let pool_size, batch, batches = if o.tiny then (24, 16, 4) else (96, 64, 160) in
  let pool =
    Array.of_list
      (Query_gen.point_queries ~count:pool_size ~seed:pool_seed ~way:2 inst.rel inst.policy)
    |> Array.map (fun q -> (q, expected inst q))
  in
  let prng = Prng.create (o.seed + 7) in
  let draw = Prng.zipf_sampler prng ~s:1.1 (Array.length pool) in
  Array.init batches (fun _ -> Batch (List.init batch (fun _ -> pool.(draw ()))))

(* Rows surviving the anchor leaf's own predicates for a 2-leaf plan: one
   ORAM read (or one binned row) per survivor. [None] unless the query
   joins exactly two leaves. *)
let anchor_survivors inst rep (q : Query.t) =
  match Planner.plan rep q with
  | Ok plan when plan.Planner.joins = 1 ->
    let matching label =
      match List.filter_map (fun (p, home) -> if home = label then Some p else None) plan.Planner.pred_home with
      | [] -> Relation.cardinality inst.rel
      | where -> Relation.cardinality (Oracle.answer inst.rel { q with Query.where })
    in
    Some (List.fold_left (fun acc l -> min acc (matching l)) max_int plan.Planner.leaves)
  | _ -> None

(* ORAM and Binning-16 reconstructions of the most selective 2-leaf
   queries in a draw of 2-way point queries, with a PHE SUM / GROUP BY
   SUM every fifth operation. One operation costs a few hundred
   milliseconds and that cost follows how many rows the anchor's constant
   matches, so a seeded pool made per-query wire bytes and latency swing
   by 2x between seeds: the pool is drawn once, [--seed] orders it, and
   the replayed prefix is one whole cycle. *)
let anchor_socket_ops o inst rep home =
  let pool_size = if o.tiny then 8 else 32 in
  let pool =
    Query_gen.point_queries ~count:(4 * pool_size) ~seed:pool_seed ~way:2 inst.rel
      inst.policy
    |> List.filter_map (fun q ->
           match anchor_survivors inst rep q with
           | Some n when n > 0 -> Some (n, q)
           | _ -> None)
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> List.filteri (fun i _ -> i < pool_size)
    |> List.mapi (fun i (_, q) ->
           Single ((if i mod 2 = 0 then `Oram else `Binning 16), q, expected inst q))
    |> Array.of_list
  in
  Prng.shuffle (Prng.create (o.seed + 7)) pool;
  let sum_want =
    Array.fold_left
      (fun acc v -> match v with Value.Int x -> acc + x | _ -> acc)
      0 (Relation.column inst.rel inst.phe_attr)
  in
  let group_want =
    Option.map
      (fun group_by -> Oracle.group_sum inst.rel ~group_by ~sum:inst.phe_attr)
      home.p_group_by
  in
  let n = Array.length pool in
  Array.init (n + (n / 4)) (fun i ->
      let k = i / 5 and r = i mod 5 in
      match (r, group_want) with
      | 4, Some g when k mod 2 = 1 -> Group g
      | 4, _ -> Sum sum_want
      | _ -> pool.(((4 * k) + r) mod n))

(* ---- set-up ------------------------------------------------------------------ *)

let relation_name = "perfbench"
let socket_addr = "unix:perfbench.sock"

type env = {
  owner : System.owner;
  sessions : session list;  (** the first is the owner's own binding *)
  ops : op array Lazy.t;  (** not needed by set-up-only processes *)
  planner : Planner.handle option;
  server : Net_server.t option;
  legs : legs option;
  shard_loads : int array;
  fresh_backend : unit -> System.backend_kind;  (** a second, empty backend of the same kind *)
  serving_conn : unit -> Server_api.conn;
      (** a fresh, empty in-process connection to the kind of store the
          workload's server dispatches on *)
  close : unit -> unit;
}

let disk_counter = ref 0

let disk_conn () =
  incr disk_counter;
  let dir = Filename.concat (Sys.getcwd ()) (Printf.sprintf "snf-backend-%d" !disk_counter) in
  let b = Backend_disk.create ~owns_dir:true ~dir () in
  view_conn ~name:Backend_disk.name ~close:(fun () -> Backend_disk.close b) (Backend_disk.view b)

let disk_backend () = `Ext { System.ext_name = "disk"; ext_connect = disk_conn }

let mem_conn () =
  let m = Backend_mem.empty () in
  view_conn ~name:Backend_mem.name ~close:(fun () -> Backend_mem.close m) (Backend_mem.view m)

let sharded_store legs =
  Backend_sharded.create ~policy:Backend_sharded.Skew ~connect:(shard_conn legs) ~shards:2 ()

let sharded_backend legs =
  let st = sharded_store legs in
  (st, `Ext { System.ext_name = "sharded"; ext_connect = (fun () -> sharded_conn legs st) })

let socket_backend () =
  `Ext { System.ext_name = "socket"; ext_connect = (fun () -> socket_conn socket_addr) }

type clocks = { c_cpu : float; c_wall : float }

let clocked f =
  let c0 = cpu () and t0 = now () in
  let v = f () in
  (v, { c_cpu = cpu () -. c0; c_wall = now () -. t0 })

let outsource inst backend =
  clocked (fun () ->
      System.outsource ~graph:inst.graph ~backend ~name:relation_name inst.rel inst.policy)

let start_server () =
  let config =
    { Net_server.default_config with Net_server.domains = 1; idle_timeout = 0. }
  in
  match Net_server.start ~config ~addr:socket_addr (module Timed_mem) (Backend_mem.empty ()) with
  | Ok srv -> srv
  | Error e -> failwith ("cannot start the benchmark server: " ^ e)

(* Set up the workload; returns the environment and the clocks of its
   [System.outsource]. *)
let setup o inst =
  match o.workload with
  | Point_join ->
    let owner, setup_t = outsource inst (disk_backend ()) in
    let rep = owner.System.plan.Snf_core.Normalizer.representation in
    let home = phe_home rep inst.phe_attr in
    ( { owner;
        sessions = [ owner_session owner ~phe_attr:inst.phe_attr home ];
        ops = lazy (point_join_ops o inst rep);
        planner = None;
        server = None;
        legs = None;
        shard_loads = [||];
        fresh_backend = disk_backend;
        serving_conn = disk_conn;
        close = (fun () -> System.release owner) },
      setup_t )
  | Batch_sharded ->
    let legs = new_legs 2 in
    let st, backend = sharded_backend legs in
    let owner, setup_t = outsource inst backend in
    let rep = owner.System.plan.Snf_core.Normalizer.representation in
    let home = phe_home rep inst.phe_attr in
    let planner = System.cost_planner owner in
    ( { owner;
        sessions = [ owner_session ~planner owner ~phe_attr:inst.phe_attr home ];
        ops = lazy (batch_sharded_ops o inst);
        planner = Some planner;
        server = None;
        legs = Some legs;
        shard_loads = Backend_sharded.loads st;
        fresh_backend = (fun () -> snd (sharded_backend (new_legs 2)));
        serving_conn =
          (fun () ->
            let legs = new_legs 2 in
            sharded_conn legs (sharded_store legs));
        close = (fun () -> System.release owner) },
      setup_t )
  | Anchor_socket ->
    let srv = start_server () in
    (match outsource inst (socket_backend ()) with
     | exception e ->
       Net_server.stop srv;
       raise e
     | owner, setup_t ->
       let rep = owner.System.plan.Snf_core.Normalizer.representation in
       let home = phe_home rep inst.phe_attr in
       let client2 =
         Enc_relation.make_client ~seed:0x5eed ~relation_name
           ~master:("master:" ^ relation_name) ()
       in
       let conn2 = socket_conn socket_addr in
       ( { owner;
           sessions =
             [ owner_session owner ~phe_attr:inst.phe_attr home;
               conn_session owner client2 conn2 ~phe_attr:inst.phe_attr home ];
           ops = lazy (anchor_socket_ops o inst rep home);
           planner = None;
           server = Some srv;
           legs = None;
           shard_loads = [||];
           fresh_backend = socket_backend;
           serving_conn = mem_conn;
           close =
             (fun () ->
               Fun.protect
                 ~finally:(fun () -> Net_server.stop srv)
                 (fun () ->
                   Server_api.close conn2;
                   System.release owner)) },
         setup_t ))

(* ---- measurement ----------------------------------------------------------- *)

type sample = {
  s_lat : float;  (** wall seconds of the session call *)
  s_cpu : float;  (** process CPU seconds of the same call *)
  s_probe : float;  (** CPU seconds of the probe run just before it *)
  s_outcome : outcome;
  s_phe : bool;
}

let is_phe = function Sum _ | Group _ -> true | Single _ | Batch _ -> false

(* Closed loop from one thread: the next operation goes out when the
   previous one returns, and the sessions take turns. One operation at a
   time keeps the process's CPU clock attributable to it: the socket
   server's worker and reader threads run in this process, and they work
   only while the calling session waits for them. *)
let timed_phase env ~start ~seconds =
  let ops = Lazy.force env.ops in
  let sessions = Array.of_list env.sessions in
  let deadline = now () +. seconds in
  let rec loop i acc =
    if now () >= deadline then acc
    else begin
      let op = ops.((start + i) mod Array.length ops) in
      let sess = sessions.(i mod Array.length sessions) in
      let p = probe () in
      let (check, c) = clocked (fun () -> execute sess op) in
      let s =
        { s_lat = c.c_wall; s_cpu = c.c_cpu; s_probe = p; s_outcome = check (); s_phe = is_phe op }
      in
      loop (i + 1) (s :: acc)
    end
  in
  List.rev (loop 0 [])

let quantile sorted p =
  let n = Array.length sorted in
  let x = p *. float_of_int (n - 1) in
  let i = int_of_float x in
  let frac = x -. float_of_int i in
  if i + 1 < n then (sorted.(i) *. (1. -. frac)) +. (sorted.(i + 1) *. frac) else sorted.(i)

let percentile p l =
  let a = Array.of_list l in
  Array.sort compare a;
  if Array.length a = 0 then 0. else quantile a p

let median = percentile 0.5

(* Each sample's CPU time in reference seconds: divided by the median of
   the nine probes around it (its own and four on each side), so one
   probe that an interrupt slowed does not skew it. *)
let ref_seconds samples =
  let a = Array.of_list samples in
  let n = Array.length a in
  Array.to_list
    (Array.mapi
       (fun i s ->
         let lo = max 0 (i - 4) and hi = min (n - 1) (i + 4) in
         let m = median (List.init (hi - lo + 1) (fun k -> a.(lo + k).s_probe)) in
         (s, s.s_cpu /. m *. probe_ref_ms /. 1e3))
       a)

(* The median of [k] probes, in CPU seconds. *)
let probes k = median (List.init k (fun _ -> probe ()))
let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

let sum_traces f outcomes =
  List.fold_left
    (fun acc o -> List.fold_left (fun acc tr -> acc + f tr) acc o.o_traces)
    0 outcomes

(* ---- output ---------------------------------------------------------------- *)

let fields : (string * string) list ref = ref []
let put k v = fields := (k, v) :: !fields
let put_f k x = put k (if Float.is_finite x then Printf.sprintf "%.17g" x else "null")
let put_i k n = put k (string_of_int n)
let put_s k s = put k (Printf.sprintf "%S" s)

let print_fields () =
  let body = List.rev_map (fun (k, v) -> Printf.sprintf "%S: %s" k v) !fields in
  print_string ("{" ^ String.concat ", " body ^ "}\n")

let phases = [ "admin"; "probe"; "filter"; "fetch"; "oram"; "phe" ]

let span_total events name =
  List.fold_left
    (fun acc (e : Span.event) -> if e.Span.name = name then acc +. e.Span.dur_us else acc)
    0. events

let run o =
  tracing := o.trace;
  Snf_exec.Parallel.set_domain_count (domains_of o);
  let inst = make_instance o in
  if o.trace then Span.set_enabled true;
  let probe_before = probes 15 in
  let env, setup_t = setup o inst in
  Fun.protect ~finally:env.close @@ fun () ->
  let probe_s = (probe_before +. probes 15) /. 2. in
  put_f "setup_s" (setup_t.c_cpu /. probe_s *. probe_ref_ms /. 1e3);
  put_f "cpu.setup_s" setup_t.c_cpu;
  put_f "probe.ms" (1e3 *. probe_s);
  put_f "wall.setup_s" setup_t.c_wall;
  if not o.setup_only then begin
    let encrypt_us = span_total (Span.events ()) "enc.encrypt" in
    let s1 = List.hd env.sessions in
    let ops = Lazy.force env.ops in
    let prefix = min (prefix_of o) (Array.length ops) in
    (* -- replay: warm-up, counts and the SNFT trace -- *)
    let before = Metrics.snapshot () in
    capturing := o.trace;
    let replayed, trace =
      System.record_wire_trace (fun () ->
          let out = ref [] in
          for i = 0 to prefix - 1 do
            out := execute s1 ops.(i) () :: !out
          done;
          List.rev !out)
    in
    capturing := false;
    let deltas = Metrics.counter_diff before (Metrics.snapshot ()) in
    let delta name = fi (Option.value (List.assoc_opt name deltas) ~default:0) in
    let rq = fi (List.fold_left (fun acc x -> acc + x.o_queries) 0 replayed) in
    let per_q x = ratio x rq in
    let hit_ratio prefix_name hit miss =
      ratio (delta (prefix_name ^ hit)) (delta (prefix_name ^ hit) +. delta (prefix_name ^ miss))
    in
    (* -- timed phase -- *)
    Span.reset ();
    reset_acc exchange_acc;
    reset_acc leaf_acc;
    Option.iter reset_legs env.legs;
    let server_before = Option.map Net_server.stats env.server in
    let gc0 = Gc.quick_stat () in
    let samples = timed_phase env ~start:prefix ~seconds:o.seconds in
    let gc1 = Gc.quick_stat () in
    let server_after = Option.map Net_server.stats env.server in
    let events = Span.events () in
    let timed_outcomes = List.map (fun s -> s.s_outcome) samples in
    (* Failed operations stay out of the latency samples and count no
       answered query, so failing fast never reads as a speed-up. *)
    let answered =
      List.filter (fun (s, _) -> s.s_outcome.o_failed = 0) (ref_seconds samples)
    in
    if answered = [] then failwith "the timed phase answered no operation";
    let queries = List.fold_left (fun acc o -> acc + o.o_queries) 0 timed_outcomes in
    let all = replayed @ timed_outcomes in
    let failed = List.fold_left (fun acc o -> acc + o.o_failed) 0 all in
    let mismatched = List.fold_left (fun acc o -> acc + o.o_mismatched) 0 all in
    let attempted = List.fold_left (fun acc o -> acc + o.o_queries) 0 all in
    (* -- leakage of the replayed prefix -- *)
    let views = Snf_obs.Leakage.queries trace in
    let aux =
      List.map
        (fun a -> (a, Relation.column inst.rel a))
        (Schema.names (Relation.schema inst.rel))
    in
    let scores =
      Adversary.run ~views ~aux ~ground:(Adversary.ground_of_owner env.owner)
        ~protected_attr:inst.protected_attr ~source_attr:inst.source_attr ()
    in
    put_s "workload"
      (match o.workload with
       | Point_join -> "point-join"
       | Batch_sharded -> "batch-sharded"
       | Anchor_socket -> "anchor-socket");
    put_i "seed" o.seed;
    put_i "rows" (Relation.cardinality inst.rel);
    put_i "attrs" (List.length (Schema.names (Relation.schema inst.rel)));
    put_i "leaves" (List.length env.owner.System.plan.Snf_core.Normalizer.representation);
    put_i "sessions" (List.length env.sessions);
    put_i "parallel_domains" (domains_of o);
    put_i "nproc" (Domain.recommended_domain_count ());
    put_i "replayed_ops" prefix;
    put_i "stream_ops" (Array.length ops);
    put_i "samples" (List.length answered);
    put_i "queries" queries;
    put_i "attempted" attempted;
    put_i "failed" failed;
    put_i "mismatched" mismatched;
    let in_ms f l = 1e3 *. f l in
    let refs = List.map snd answered and cpus = List.map (fun (s, _) -> s.s_cpu) answered in
    let lats = List.map (fun (s, _) -> s.s_lat) answered in
    let answered_queries =
      fi (List.fold_left (fun acc (s, _) -> acc + s.s_outcome.o_queries) 0 answered)
    in
    let total l = List.fold_left ( +. ) 0. l in
    put_f "op_p50_ref_ms" (in_ms median refs);
    put_f "op_p90_ref_ms" (in_ms (percentile 0.9) refs);
    put_f "queries_per_ref_s" (ratio answered_queries (total refs));
    put_f "cpu.op_p50_ms" (in_ms median cpus);
    put_f "wall.latency_p50_ms" (in_ms median lats);
    put_f "wall.latency_p90_ms" (in_ms (percentile 0.9) lats);
    put_f "wall.throughput_qps" (ratio answered_queries (total lats));
    put_f "wire_bytes_per_query"
      (per_q (delta "exec.wire.bytes_up" +. delta "exec.wire.bytes_down"));
    put_f "round_trips_per_query" (per_q (delta "exec.wire.requests"));
    put_f "trace_adversary.frequency" scores.Adversary.s_frequency;
    put_f "leak_access" scores.Adversary.s_access;
    put_f "store_bytes_per_plain_byte"
      (fi (Enc_relation.measured_bytes env.owner.System.enc)
      /. fi (Relation.plaintext_bytes inst.rel));
    (* Per-layer counts of the replay: deterministic for a seed. *)
    put_f "planner.joins_per_query" (per_q (fi (sum_traces (fun t -> t.Executor.plan.Planner.joins) replayed)));
    put_f "planner.cache_hit_ratio" (hit_ratio "plan.cache." "hit" "miss");
    put_f "oblivious_join.comparisons_per_query"
      (per_q (fi (sum_traces (fun t -> t.Executor.comparisons) replayed)));
    put_f "oblivious_join.rows_per_query"
      (per_q (fi (sum_traces (fun t -> t.Executor.rows_processed) replayed)));
    put_f "enc_relation.tid_cache_hit_ratio" (hit_ratio "exec.join.tid_cache." "hits" "misses");
    put_f "enc_relation.mapping_cache_hit_ratio" (hit_ratio "exec.mapping_cache." "hits" "misses");
    put_f "path_oram.bucket_touches_per_query"
      (per_q (fi (sum_traces (fun t -> t.Executor.oram_bucket_touches) replayed)));
    put_f "binning.rows_retrieved_per_query"
      (per_q (fi (sum_traces (fun t -> t.Executor.binning_retrieved) replayed)));
    List.iter
      (fun ph ->
        let c n = delta (Printf.sprintf "exec.wire.%s.%s" ph n) in
        put_f (Printf.sprintf "wire.%s.requests_per_query" ph) (per_q (c "requests"));
        put_f (Printf.sprintf "wire.%s.bytes_per_query" ph) (per_q (c "bytes_up" +. c "bytes_down")))
      phases;
    put_f "backend_sharded.row_imbalance"
      (let loads = Array.map fi env.shard_loads in
       ratio (Array.fold_left max 0. loads)
         (Array.fold_left ( +. ) 0. loads /. fi (max 1 (Array.length loads))));
    if o.trace then begin
      let q = fi queries in
      let us x = 1e6 *. x in
      let phase name = span_total events ("query." ^ name) /. q in
      put_f "executor.mint_tokens_us" (phase "mint_tokens");
      put_f "executor.server_filter_us" (phase "server_filter");
      put_f "executor.reconstruct_us" (phase "reconstruct");
      put_f "executor.client_decrypt_us" (phase "client_decrypt");
      put_f "transport.exchange_us" (us exchange_acc.total /. q);
      put_f "server_api.leaf_load_us" (us leaf_acc.total /. q);
      put_f "enc_relation.encrypt_s" (encrypt_us /. 1e6);
      let busy = List.fold_left (fun acc s -> acc +. s.s_lat) 0. samples in
      let phe_busy =
        List.fold_left (fun acc s -> if s.s_phe then acc +. s.s_lat else acc) 0. samples
      in
      let attributed =
        (List.fold_left
           (fun acc n -> acc +. span_total events ("query." ^ n))
           0. [ "mint_tokens"; "server_filter"; "reconstruct"; "client_decrypt" ]
        /. 1e6)
        +. phe_busy
      in
      put_f "trace.unattributed_share" (1. -. ratio attributed busy);
      put_f "cost_model.est_over_actual"
        (median
           (List.filter_map
              (fun s ->
                match s.s_outcome.o_traces with
                | [] -> None
                | trs ->
                  Some
                    (List.fold_left (fun acc t -> acc +. t.Executor.estimated_seconds) 0. trs
                    /. s.s_lat))
              samples));
      (match env.legs with
       | Some l ->
         put_f "backend_sharded.leg_imbalance" (ratio l.imbalance_sum (fi l.fanouts));
         put_f "backend_sharded.coordination_share" (ratio l.coordination l.outer)
       | None ->
         put_f "backend_sharded.leg_imbalance" 0.;
         put_f "backend_sharded.coordination_share" 0.);
      (match (server_before, server_after) with
       | Some b, Some a ->
         put_i "snf_net.busy_rejections" (a.Net_server.busy_rejections - b.Net_server.busy_rejections);
         put_i "snf_net.requests_served" (a.Net_server.requests_served - b.Net_server.requests_served)
       | _ ->
         put_i "snf_net.busy_rejections" 0;
         put_i "snf_net.requests_served" 0);
      put_f "gc.minor_words_per_query" ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. q);
      put_i "gc.major_collections" (gc1.Gc.major_collections - gc0.Gc.major_collections);
      (* Post-phase passes over the same stream and bindings. *)
      let rep = env.owner.System.plan.Snf_core.Normalizer.representation in
      let stream_queries =
        Array.to_list ops
        |> List.concat_map (function
             | Single (_, q, _) -> [ q ]
             | Batch items -> List.map fst items
             | Sum _ | Group _ -> [])
        |> List.filteri (fun i _ -> i < 200)
      in
      (* One decision takes about a microsecond, the clock's resolution:
         time whole passes over the stream, report the median pass mean. *)
      put_f "planner.decide_us"
        (median
           (List.init 5 (fun _ ->
                let t0 = now () in
                List.iter (fun q -> ignore (Planner.decide ?handle:env.planner rep q)) stream_queries;
                us (now () -. t0) /. fi (List.length stream_queries))));
      let pairs = List.rev !captured in
      let t0 = now () in
      List.iter
        (fun (up, down) ->
          ignore (Wire.request_of_string up);
          ignore (Wire.response_of_string down))
        pairs;
      put_f "wire.decode_us" (us (now () -. t0) /. rq);
      (* The captured requests again, on a copy of the store of the same
         kind as the one serving the workload (disk, the shard coordinator,
         or the memory store behind the socket server). *)
      let conn = env.serving_conn () in
      Fun.protect
        ~finally:(fun () -> Server_api.close conn)
        (fun () ->
          Server_api.install conn (Wire.to_string env.owner.System.enc);
          let t0 = now () in
          List.iter (fun (up, _) -> ignore (Server_api.exchange_raw conn up)) pairs;
          put_f "server_api.dispatch_us" (us (now () -. t0) /. rq));
      put_f "paillier.phe_sum_ms"
        (median
           (List.init 5 (fun _ ->
                let t0 = now () in
                ignore (s1.sum ());
                1e3 *. (now () -. t0))));
      let t0 = now () in
      let twin = System.with_backend env.owner (env.fresh_backend ()) in
      put_f "setup.install_s" (now () -. t0);
      System.release twin
    end;
    put_f "heap_peak_mb"
      (fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.)
  end;
  print_fields ();
  match List.assoc_opt "mismatched" !fields with
  | Some "0" | None -> 0
  | Some _ -> 1

let () =
  let o = parse_args () in
  match run o with
  | code -> exit code
  | exception e ->
    Printf.eprintf "bench: %s\n%!" (Printexc.to_string e);
    exit 1
