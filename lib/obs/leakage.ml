(* Leakage profiler over SNFT traces. See leakage.mli.

   This module owns both sides of the summary micro-grammar: the
   producer helpers ([slots_csv]/[desc_slots]/[desc_token]/[mask_to_hex])
   used by [Server_api.call] when it records a round, and the parsers
   used here — one place, so they cannot drift apart. *)

type token = {
  t_attr : string;
  t_kind : [ `Eq | `Range ];
  t_scheme : string;
  t_key : string;
}

type op = Op_slots of int array | Op_token of token

type mask_obs = {
  m_leaf : string;
  m_ops : op list;
  m_matched : int;
  m_slots : int array;
}

type fetch_obs = {
  f_round : int;
  f_leaf : string;
  f_attrs : string list;
  f_slots : int array;
}

type query_view = {
  q_index : int;
  q_tokens : token list;
  q_masks : mask_obs list;
  q_fetches : fetch_obs list;
  q_probes : (string * string * int array option) list;
  q_oram : (string * int) list;
  q_leaves : string list;
  q_in_batch : bool;
}

(* --- summary micro-grammar -------------------------------------------------------- *)

let slots_csv slots = String.concat "," (Array.to_list (Array.map string_of_int slots))
let desc_slots slots = "slots:" ^ slots_csv slots

let desc_token ~kind ~scheme ~key ~attr =
  let k = match kind with `Eq -> "eq" | `Range -> "range" in
  String.concat ":" [ k; scheme; key; attr ]

(* A packed mask, bit k of byte i = slot [8i+k], hex-encoded high nibble
   first: the SNFT summary is the very bytes the response carried. *)
let mask_to_hex packed =
  let hex = Buffer.create (2 * String.length packed) in
  String.iter (fun c -> Buffer.add_string hex (Printf.sprintf "%02x" (Char.code c))) packed;
  Buffer.contents hex

let slots_of_hex hex =
  let nyb = function
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
    | _ -> -1
  in
  let byte i =
    let hi = nyb hex.[2 * i] and lo = nyb hex.[(2 * i) + 1] in
    if hi >= 0 && lo >= 0 then (hi lsl 4) lor lo else 0
  in
  (* Counted first, then filled: a view keeps every mask it saw, and an
     array holds a slot in one word where a list takes three. *)
  let bytes = String.length hex / 2 in
  let set = ref 0 in
  for i = 0 to bytes - 1 do
    let b = byte i in
    for k = 0 to 7 do
      if b land (1 lsl k) <> 0 then incr set
    done
  done;
  let out = Array.make !set 0 and j = ref 0 in
  for i = 0 to bytes - 1 do
    let b = byte i in
    for k = 0 to 7 do
      if b land (1 lsl k) <> 0 then begin
        out.(!j) <- (8 * i) + k;
        incr j
      end
    done
  done;
  out

let ints_of_csv s = Array.of_list (List.filter_map int_of_string_opt (String.split_on_char ',' s))

let parse_op desc =
  match String.split_on_char ':' desc with
  | "slots" :: rest -> Some (Op_slots (ints_of_csv (String.concat ":" rest)))
  | kind :: scheme :: key :: attr_parts when kind = "eq" || kind = "range" ->
    let t_kind = if kind = "eq" then `Eq else `Range in
    Some
      (Op_token
         { t_attr = String.concat ":" attr_parts;
           t_kind;
           t_scheme = scheme;
           t_key = key })
  | _ -> None

(* --- trace → query views ---------------------------------------------------------- *)

(* Summaries are ordered assoc lists with repeated keys; these walk them
   positionally. *)
let find k sum = List.assoc_opt k sum
let find_int k sum = Option.bind (find k sum) int_of_string_opt

(* Q_batch request summary: [("k", K); ("q", i); ("leaf", l); ("op", d);
   ... ("q", i+1); ...] → per-query-index list of (leaf, ops). *)
let batch_groups_of_summary sum =
  let groups = Hashtbl.create 8 in
  let cur_q = ref (-1) in
  let cur_leaf = ref None in
  let push_op op =
    match !cur_leaf with
    | None -> ()
    | Some leaf ->
      let qs = try Hashtbl.find groups !cur_q with Not_found -> [] in
      (match qs with
      | (l, ops) :: tl when l = leaf ->
        Hashtbl.replace groups !cur_q ((l, op :: ops) :: tl)
      | _ -> Hashtbl.replace groups !cur_q ((leaf, [ op ]) :: qs))
  in
  List.iter
    (fun (k, v) ->
      match k with
      | "q" -> (
        match int_of_string_opt v with
        | Some i ->
          cur_q := i;
          cur_leaf := None;
          if not (Hashtbl.mem groups i) then Hashtbl.add groups i []
        | None -> ())
      | "leaf" ->
        cur_leaf := Some v;
        let qs = try Hashtbl.find groups !cur_q with Not_found -> [] in
        Hashtbl.replace groups !cur_q ((v, []) :: qs)
      | "op" -> ( match parse_op v with Some op -> push_op op | None -> ())
      | _ -> ())
    sum;
  Hashtbl.fold
    (fun q leaves acc ->
      (q, List.rev_map (fun (l, ops) -> (l, List.rev ops)) leaves) :: acc)
    groups []

(* R_batch response summary: [("q", i); ("mask", "m:s:hex"); ...] →
   per-query-index list of (matched, slots), positional with the
   request's leaf list. The scanned count [s] is not kept. *)
let batch_masks_of_summary sum =
  let groups = Hashtbl.create 8 in
  let cur_q = ref (-1) in
  List.iter
    (fun (k, v) ->
      match k with
      | "q" -> (
        match int_of_string_opt v with
        | Some i ->
          cur_q := i;
          if not (Hashtbl.mem groups i) then Hashtbl.add groups i []
        | None -> ())
      | "mask" -> (
        match String.split_on_char ':' v with
        | [ m; _; hex ] -> (
          match int_of_string_opt m with
          | Some m ->
            let prev = try Hashtbl.find groups !cur_q with Not_found -> [] in
            Hashtbl.replace groups !cur_q ((m, slots_of_hex hex) :: prev)
          | None -> ())
        | _ -> ())
      | _ -> ())
    sum;
  Hashtbl.fold (fun q ms acc -> (q, List.rev ms) :: acc) groups []

type builder = {
  mutable b_tokens : token list; (* reversed *)
  mutable b_masks : mask_obs list;
  mutable b_fetches : fetch_obs list;
  mutable b_probes : (string * string * int array option) list;
  mutable b_oram : (string * int) list;
  b_in_batch : bool;
}

let new_builder in_batch =
  { b_tokens = [];
    b_masks = [];
    b_fetches = [];
    b_probes = [];
    b_oram = [];
    b_in_batch = in_batch }

let finish idx b =
  let leaves =
    List.sort_uniq compare
      (List.map (fun m -> m.m_leaf) b.b_masks
      @ List.map (fun f -> f.f_leaf) b.b_fetches
      @ List.map (fun (l, _, _) -> l) b.b_probes
      @ List.map fst b.b_oram)
  in
  { q_index = idx;
    q_tokens = List.rev b.b_tokens;
    q_masks = List.rev b.b_masks;
    q_fetches = List.rev b.b_fetches;
    q_probes = List.rev b.b_probes;
    q_oram = List.rev b.b_oram;
    q_leaves = leaves;
    q_in_batch = b.b_in_batch }

(* Fold one query's share of a Q_batch round — its (leaf, ops) entries
   and, positionally, their masks — into its window. *)
let attach b ops masks =
  let rec go ops masks =
    match (ops, masks) with
    | (leaf, lops) :: otl, (m, slots) :: mtl ->
      b.b_masks <- { m_leaf = leaf; m_ops = lops; m_matched = m; m_slots = slots } :: b.b_masks;
      List.iter
        (function Op_token t -> b.b_tokens <- t :: b.b_tokens | Op_slots _ -> ())
        lops;
      go otl mtl
    | (leaf, lops) :: otl, [] ->
      (* planner error slot: ops shipped, no mask came back *)
      b.b_masks <- { m_leaf = leaf; m_ops = lops; m_matched = 0; m_slots = [||] } :: b.b_masks;
      go otl []
    | [], _ -> ()
  in
  go ops masks

let group qi groups = try List.assoc qi groups with Not_found -> []

let rec pair_rounds acc (events : Wiretrace.event list) =
  match events with
  | [] -> List.rev acc
  | ({ Wiretrace.dir = Mark; _ } as m) :: tl -> pair_rounds (`Mark m :: acc) tl
  | ({ Wiretrace.dir = Up; _ } as u) :: ({ Wiretrace.dir = Down; _ } as d) :: tl
    when u.Wiretrace.round = d.Wiretrace.round ->
    pair_rounds (`Msg (u, d) :: acc) tl
  | _ :: tl -> pair_rounds acc tl

(* A keyed [Index_probe] searches for its key like an equality token. *)
let probe_token sum =
  match find "key" sum with
  | Some key when key <> "none" ->
    Some
      { t_attr = Option.value ~default:"" (find "attr" sum);
        t_kind = `Eq;
        t_scheme = "det";
        t_key = key }
  | _ -> None

(* A [Fetch_rows] request: its round, leaf, attributes and slots. *)
let fetch_of (u : Wiretrace.event) =
  let sum = u.Wiretrace.summary in
  { f_round = u.Wiretrace.round;
    f_leaf = Option.value ~default:"" (find "leaf" sum);
    f_attrs =
      (match find "attrs" sum with
       | Some "" | None -> []
       | Some s -> String.split_on_char ',' s);
    f_slots = (match find "slots" sum with Some s -> ints_of_csv s | None -> [||]) }

let tokens (trace : Wiretrace.trace) =
  List.concat_map
    (function
      | `Msg ((u : Wiretrace.event), _) when u.Wiretrace.tag = 3 ->
        Option.to_list (probe_token u.summary)
      | `Msg ((u : Wiretrace.event), _) when u.Wiretrace.tag = 11 ->
        List.filter_map
          (fun (k, v) ->
            if k <> "op" then None
            else match parse_op v with Some (Op_token t) -> Some t | _ -> None)
          u.summary
      | _ -> [])
    (pair_rounds [] trace.Wiretrace.events)

let queries (trace : Wiretrace.trace) =
  let views = ref [] in
  let next_idx = ref 0 in
  let current = ref None in
  let in_batch = ref false in
  (* Q_batch groups and shared fetch rounds awaiting their member query
     windows. *)
  let pending_ops = ref [] and pending_masks = ref [] and pending_fetches = ref [] in
  let close () =
    match !current with
    | None -> ()
    | Some b ->
      views := finish !next_idx b :: !views;
      incr next_idx;
      current := None
  in
  let open_window sum =
    close ();
    let b = new_builder !in_batch in
    (* A window opened inside a batch pulls in its share of the shared
       Q_batch round trip, matched by the member index. *)
    (if !in_batch then
       match find_int "q" sum with
       | None -> ()
       | Some qi ->
         let ops = group qi !pending_ops in
         attach b ops (group qi !pending_masks);
         (* The server cannot tell which member asked for a shared fetch
            round, so every member that planned its leaf sees all of it. *)
         List.iter
           (fun f -> if List.mem_assoc f.f_leaf ops then b.b_fetches <- f :: b.b_fetches)
           (List.rev !pending_fetches));
    current := Some b
  in
  let on_msg (u : Wiretrace.event) (d : Wiretrace.event) =
    match u.Wiretrace.tag with
    | 3 -> (
      (* Index_probe *)
      match !current with
      | None -> ()
      | Some b ->
        let leaf = Option.value ~default:"" (find "leaf" u.summary) in
        let attr = Option.value ~default:"" (find "attr" u.summary) in
        let slots = Option.map ints_of_csv (find "slots" d.summary) in
        b.b_probes <- (leaf, attr, slots) :: b.b_probes;
        Option.iter (fun t -> b.b_tokens <- t :: b.b_tokens) (probe_token u.summary))
    | 5 -> (
      (* Fetch_rows: a batch's shared rounds cross before any member
         window opens and are parked for the windows that follow. *)
      match !current with
      | Some b -> b.b_fetches <- fetch_of u :: b.b_fetches
      | None -> if !in_batch then pending_fetches := fetch_of u :: !pending_fetches)
    | 7 -> (
      (* Oram_fetch: the touches of its k reads, install excluded *)
      match !current with
      | None -> ()
      | Some b ->
        let leaf = Option.value ~default:"" (find "leaf" u.summary) in
        let touches = Option.value ~default:0 (find_int "touches" d.summary) in
        b.b_oram <- (leaf, touches) :: b.b_oram)
    | 11 -> (
      let ops = batch_groups_of_summary u.summary in
      let masks = batch_masks_of_summary d.summary in
      if !in_batch then begin
        (* A batch's Q_batch: park the groups for the member windows
           that follow. *)
        pending_ops := ops;
        pending_masks := masks
      end
      else
        (* A lone query's Q_batch of one: group 0 is the open window's. *)
        match !current with
        | Some b -> attach b (group 0 ops) (group 0 masks)
        | None -> ())
    | _ -> ()
  in
  List.iter
    (function
      | `Mark (m : Wiretrace.event) -> (
        match m.Wiretrace.phase with
        | "query.begin" -> open_window m.summary
        | "query.end" -> close ()
        | ("batch.begin" | "batch.end") as phase ->
          close ();
          in_batch := phase = "batch.begin";
          pending_ops := [];
          pending_masks := [];
          pending_fetches := []
        | _ -> ())
      | `Msg (u, d) -> on_msg u d)
    (pair_rounds [] trace.Wiretrace.events);
  close ();
  List.rev !views

(* --- aggregate profile ------------------------------------------------------------ *)

type profile = {
  p_queries : int;
  p_rounds : int;
  p_bytes_up : int;
  p_bytes_down : int;
  p_eq_total : int;
  p_eq_distinct : int;
  p_eq_repeats : int;
  p_eq_max_run : int;
  p_range_total : int;
  p_range_distinct : int;
  p_range_repeats : int;
  p_cooccur_pairs : int;
  p_cooccur_events : int;
  p_volumes : (int * int) list;
  p_volume_distinct : int;
  p_slots_fetched : int;
  p_oram_touches : int;
  p_batches : int;
  p_batch_queries : int;
}

let profile trace =
  let views = queries trace in
  let rounds = ref 0 and up = ref 0 and down = ref 0 and batches = ref 0 in
  (* Fetched slots come from the rounds, not from the views: a batch's
     shared fetch round sits in every view that planned its leaf, yet the
     server was asked for its slots once. *)
  let slots_fetched = ref 0 in
  List.iter
    (fun (e : Wiretrace.event) ->
      match e.Wiretrace.dir with
      | Wiretrace.Up ->
        incr rounds;
        up := !up + e.bytes;
        if e.tag = 5 then
          slots_fetched := !slots_fetched + Array.length (fetch_of e).f_slots
      | Wiretrace.Down -> down := !down + e.bytes
      | Wiretrace.Mark -> if e.phase = "batch.begin" then incr batches)
    trace.Wiretrace.events;
  let eq_tbl = Hashtbl.create 64 and rng_tbl = Hashtbl.create 64 in
  let bump tbl key = Hashtbl.replace tbl key (1 + try Hashtbl.find tbl key with Not_found -> 0) in
  let cooccur = Hashtbl.create 64 in
  let volumes = Hashtbl.create 64 in
  let oram_touches = ref 0 and batch_queries = ref 0 in
  (* Tokens from every round, not from the query windows: inside a batch
     the index probes run before any window opens. *)
  List.iter
    (fun t ->
      let key = (t.t_attr, t.t_scheme, t.t_key) in
      match t.t_kind with
      | `Eq -> bump eq_tbl key
      | `Range -> bump rng_tbl key)
    (tokens trace);
  List.iter
    (fun v ->
      let rec pairs = function
        | [] -> ()
        | l :: tl ->
          List.iter (fun l' -> bump cooccur (l, l')) tl;
          pairs tl
      in
      pairs v.q_leaves;
      List.iter (fun m -> bump volumes m.m_matched) v.q_masks;
      List.iter (fun (_, t) -> oram_touches := !oram_touches + t) v.q_oram;
      if v.q_in_batch then incr batch_queries)
    views;
  let totals tbl =
    Hashtbl.fold (fun _ n (tot, dis, rep, mx) -> (tot + n, dis + 1, rep + n - 1, max mx n)) tbl (0, 0, 0, 0)
  in
  let eq_total, eq_distinct, eq_repeats, eq_max = totals eq_tbl in
  let rng_total, rng_distinct, rng_repeats, _ = totals rng_tbl in
  let co_pairs, co_events = Hashtbl.fold (fun _ n (p, e) -> (p + 1, e + n)) cooccur (0, 0) in
  let vols = List.sort compare (Hashtbl.fold (fun v n acc -> (v, n) :: acc) volumes []) in
  { p_queries = List.length views;
    p_rounds = !rounds;
    p_bytes_up = !up;
    p_bytes_down = !down;
    p_eq_total = eq_total;
    p_eq_distinct = eq_distinct;
    p_eq_repeats = eq_repeats;
    p_eq_max_run = eq_max;
    p_range_total = rng_total;
    p_range_distinct = rng_distinct;
    p_range_repeats = rng_repeats;
    p_cooccur_pairs = co_pairs;
    p_cooccur_events = co_events;
    p_volumes = vols;
    p_volume_distinct = List.length vols;
    p_slots_fetched = !slots_fetched;
    p_oram_touches = !oram_touches;
    p_batches = !batches;
    p_batch_queries = !batch_queries }

let publish p =
  let c name v = Metrics.add (Metrics.counter name) v in
  c "exec.leak.queries" p.p_queries;
  c "exec.leak.rounds" p.p_rounds;
  c "exec.leak.eq.total" p.p_eq_total;
  c "exec.leak.eq.distinct" p.p_eq_distinct;
  c "exec.leak.eq.repeats" p.p_eq_repeats;
  c "exec.leak.range.total" p.p_range_total;
  c "exec.leak.range.distinct" p.p_range_distinct;
  c "exec.leak.range.repeats" p.p_range_repeats;
  c "exec.leak.cooccur.pairs" p.p_cooccur_pairs;
  c "exec.leak.cooccur.events" p.p_cooccur_events;
  c "exec.leak.volume.distinct" p.p_volume_distinct;
  c "exec.leak.fetch.slots" p.p_slots_fetched;
  c "exec.leak.oram.touches" p.p_oram_touches;
  c "exec.leak.batches" p.p_batches;
  c "exec.leak.batch.queries" p.p_batch_queries
