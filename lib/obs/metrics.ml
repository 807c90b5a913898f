(* Process-wide metrics registry with per-domain shards.

   Updates go to a domain-local int array (no locks, no cross-domain
   cache traffic on the hot path); [flush] folds the calling domain's
   shard into the global accumulator under a mutex and zeroes it.
   [Snf_exec.Parallel]'s pool workers flush after every chunk, before the
   chunk counts as finished, so totals are plain integer sums — identical
   for any SNF_DOMAINS. Readers ([value],
   [snapshot]) flush the calling domain first, which makes single-domain
   reads exact without any extra discipline. *)

type kind = K_counter | K_gauge | K_histogram

type metric = { name : string; kind : kind; base : int; slots : int }

type counter = metric
type histogram = metric
type gauge = string

(* Histogram slot layout: 64 log-scale buckets (bucket = bit length of the
   observed value, clamped) followed by one running-sum slot. *)
let hist_buckets = 64
let hist_slots = hist_buckets + 1

let lock = Mutex.create ()
let by_name : (string, metric) Hashtbl.t = Hashtbl.create 64
let registered : metric list ref = ref []
let total_slots = ref 0
let global : int array ref = ref [||]
let gauges : (string, float) Hashtbl.t = Hashtbl.create 16

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let kind_name = function
  | K_counter -> "counter"
  | K_gauge -> "gauge"
  | K_histogram -> "histogram"

let register name kind slots =
  locked (fun () ->
      match Hashtbl.find_opt by_name name with
      | Some m ->
        if m.kind <> kind then
          invalid_arg
            (Printf.sprintf "Snf_obs.Metrics: %S already registered as a %s" name
               (kind_name m.kind));
        m
      | None ->
        let m = { name; kind; base = !total_slots; slots } in
        total_slots := !total_slots + slots;
        Hashtbl.add by_name name m;
        registered := m :: !registered;
        m)

let counter name = register name K_counter 1
let histogram name = register name K_histogram hist_slots

let gauge name =
  ignore (register name K_gauge 0);
  name

(* --- per-domain shards ---------------------------------------------------- *)

let shard_key : int array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

(* Shards grow lazily: registration normally happens at module init, before
   any worker domain exists, but a shard created against an older registry
   still works. *)
let shard upto =
  let r = Domain.DLS.get shard_key in
  if Array.length !r < upto then begin
    let bigger = Array.make (max upto (2 * Array.length !r)) 0 in
    Array.blit !r 0 bigger 0 (Array.length !r);
    r := bigger
  end;
  !r

let add (c : counter) n =
  let s = shard (c.base + 1) in
  s.(c.base) <- s.(c.base) + n

let incr c = add c 1

let bucket_of v =
  if v <= 0 then 0
  else begin
    let rec bits acc x = if x = 0 then acc else bits (acc + 1) (x lsr 1) in
    min (hist_buckets - 1) (bits 0 v)
  end

let observe (h : histogram) v =
  let s = shard (h.base + hist_slots) in
  s.(h.base + bucket_of v) <- s.(h.base + bucket_of v) + 1;
  s.(h.base + hist_buckets) <- s.(h.base + hist_buckets) + v

let set_gauge (g : gauge) v = locked (fun () -> Hashtbl.replace gauges g v)

let gauge_value (g : gauge) = locked (fun () -> Hashtbl.find_opt gauges g)

(* --- merge and read ------------------------------------------------------- *)

let flush () =
  let r = Domain.DLS.get shard_key in
  let s = !r in
  if Array.length s > 0 then
    locked (fun () ->
        if Array.length !global < !total_slots then begin
          let bigger = Array.make !total_slots 0 in
          Array.blit !global 0 bigger 0 (Array.length !global);
          global := bigger
        end;
        let n = min (Array.length s) (Array.length !global) in
        for i = 0 to n - 1 do
          !global.(i) <- !global.(i) + s.(i);
          s.(i) <- 0
        done)

let slot i = if i < Array.length !global then !global.(i) else 0

let value (c : counter) =
  flush ();
  locked (fun () -> slot c.base)

type hist = { count : int; sum : int; buckets : (int * int) list }

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist) list;
}

let snapshot () =
  flush ();
  locked (fun () ->
      let by_kind k =
        List.filter (fun m -> m.kind = k) !registered
        |> List.sort (fun a b -> String.compare a.name b.name)
      in
      { counters = List.map (fun m -> (m.name, slot m.base)) (by_kind K_counter);
        gauges =
          List.filter_map
            (fun m ->
              Option.map (fun v -> (m.name, v)) (Hashtbl.find_opt gauges m.name))
            (by_kind K_gauge);
        histograms =
          List.map
            (fun m ->
              let buckets = ref [] and count = ref 0 in
              for b = hist_buckets - 1 downto 0 do
                let n = slot (m.base + b) in
                if n > 0 then begin
                  buckets := (b, n) :: !buckets;
                  count := !count + n
                end
              done;
              (m.name, { count = !count; sum = slot (m.base + hist_buckets); buckets = !buckets }))
            (by_kind K_histogram) })

let counter_diff before after =
  List.filter_map
    (fun (name, v) ->
      let v0 = Option.value (List.assoc_opt name before.counters) ~default:0 in
      if v <> v0 then Some (name, v - v0) else None)
    after.counters

let counters_with_prefix prefix counters =
  let n = String.length prefix in
  List.filter
    (fun (name, _) ->
      String.length name >= n && String.sub name 0 n = prefix)
    counters

let reset () =
  (* Discard, don't merge: zero the calling domain's shard and the global
     accumulator. [Parallel]'s pool workers outlive every call, but each
     flushes its shard before a chunk counts as finished, so between calls
     no other live shard holds residue. *)
  let r = Domain.DLS.get shard_key in
  Array.fill !r 0 (Array.length !r) 0;
  locked (fun () ->
      Array.fill !global 0 (Array.length !global) 0;
      Hashtbl.reset gauges)
