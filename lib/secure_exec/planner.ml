module Scheme = Snf_crypto.Scheme
module Partition = Snf_core.Partition
module Metrics = Snf_obs.Metrics

type plan = {
  leaves : string list;
  joins : int;
  pred_home : (Query.pred * string) list;
  proj_home : (string * string) list;
}

(* Every planning call resolves to exactly one of these two counters —
   the invariant the differential harness checks per query. *)
let m_cache_hit = Metrics.counter "plan.cache.hit"
let m_cache_miss = Metrics.counter "plan.cache.miss"
let m_enumerated = Metrics.counter "plan.candidates.enumerated"

let supports scheme (p : Query.pred) =
  match p with
  | Query.Point _ -> Scheme.supports_equality_predicate scheme
  | Query.Range _ -> Scheme.supports_range_predicate scheme

(* The unit of covering: projections need any copy of the attribute,
   predicates need a copy under a scheme that can evaluate them. *)
type item = Proj of string | Pred of Query.pred

let covers (leaf : Partition.leaf) = function
  | Proj a -> Partition.mem_leaf leaf a
  | Pred p -> (
    match Partition.scheme_in_leaf leaf (Query.pred_attr p) with
    | Some s -> supports s p
    | None -> false)

let items_of_query (q : Query.t) =
  List.map (fun a -> Proj a) q.Query.select @ List.map (fun p -> Pred p) q.Query.where

(* label -> leaf lookup table, built once per planning call so [assemble]
   and [feasible] stop paying O(leaves) List.find per item. First
   occurrence wins, matching the List.find behaviour on duplicate labels. *)
let leaf_table rep =
  let tbl = Hashtbl.create (2 * List.length rep) in
  List.iter
    (fun (l : Partition.leaf) ->
      if not (Hashtbl.mem tbl l.Partition.label) then Hashtbl.add tbl l.Partition.label l)
    rep;
  tbl

let assemble ~tbl q chosen =
  let leaf_of label = Hashtbl.find tbl label in
  let home_for item =
    List.find_opt (fun label -> covers (leaf_of label) item) chosen
  in
  let pred_home =
    List.filter_map
      (fun p -> Option.map (fun l -> (p, l)) (home_for (Pred p)))
      q.Query.where
  in
  let proj_home =
    List.filter_map
      (fun a -> Option.map (fun l -> (a, l)) (home_for (Proj a)))
      q.Query.select
  in
  { leaves = chosen;
    joins = max 0 (List.length chosen - 1);
    pred_home;
    proj_home }

let feasible ~tbl q chosen =
  let leaf_of label = Hashtbl.find tbl label in
  List.for_all
    (fun item -> List.exists (fun label -> covers (leaf_of label) item) chosen)
    (items_of_query q)

let check_items_coverable rep q =
  let uncoverable =
    List.find_opt
      (fun item -> not (List.exists (fun l -> covers l item) rep))
      (items_of_query q)
  in
  match uncoverable with
  | None -> Ok ()
  | Some (Proj a) -> Error (Printf.sprintf "attribute %S is stored in no leaf" a)
  | Some (Pred p) ->
    Error
      (Printf.sprintf "no stored copy of %S can evaluate the predicate"
         (Query.pred_attr p))

let greedy rep q =
  let rec go chosen uncovered =
    if uncovered = [] then Ok (List.rev chosen)
    else begin
      let candidates =
        List.filter
          (fun (l : Partition.leaf) -> not (List.mem l.label chosen))
          rep
      in
      let scored =
        List.filter_map
          (fun (l : Partition.leaf) ->
            let gain = List.length (List.filter (covers l) uncovered) in
            if gain = 0 then None else Some (gain, List.length l.columns, l))
          candidates
      in
      match
        List.sort
          (fun (g1, w1, _) (g2, w2, _) ->
            match Int.compare g2 g1 with 0 -> Int.compare w1 w2 | c -> c)
          scored
      with
      | [] -> Error "uncoverable query (internal: coverable check passed?)"
      | (_, _, best) :: _ ->
        go (best.label :: chosen)
          (List.filter (fun item -> not (covers best item)) uncovered)
    end
  in
  go [] (items_of_query q)

let rec subsets_upto k = function
  | [] -> [ [] ]
  | x :: rest ->
    let without = subsets_upto k rest in
    let with_x =
      if k = 0 then []
      else List.map (fun s -> x :: s) (subsets_upto (k - 1) rest)
    in
    with_x @ List.filter (fun s -> List.length s <= k) without

(* --- candidates, notes, decisions -------------------------------------------- *)

type candidate = { cand_leaves : string list; cand_cost : float }

type note =
  | Truncated_covers of { bound : int; relevant : int }
  | Truncated_orders of { bound : int; cover_size : int }

let note_to_string = function
  | Truncated_covers { bound; relevant } ->
    Printf.sprintf
      "cover enumeration truncated: %d relevant leaves, subsets capped at %d"
      relevant bound
  | Truncated_orders { bound; cover_size } ->
    Printf.sprintf
      "join-order enumeration truncated: %d-leaf cover, orders capped at %d"
      cover_size bound

type decision = {
  d_plan : plan;
  d_estimate : float option;
  d_rejected : candidate list;
  d_notes : note list;
  d_enumerated : int;
  d_cache : [ `Hit | `Miss ];
  d_selector : string;
}

(* --- planner handles ---------------------------------------------------------- *)

type pricing = {
  price : plan -> float;
  stamp : unit -> int * int;  (* (key epoch, stats version) at call time *)
  max_cover : int;
  max_orders : int;
  p_label : string;
  p_id : int;
}

type handle =
  | Greedy
  | Priced of pricing

let next_handle_id = Atomic.make 0

let cost_based ?(max_cover = 6) ?(max_orders = 6) ?(label = "cost") ~price ~stamp
    () =
  Priced
    { price;
      stamp;
      max_cover = max 1 max_cover;
      max_orders = max 1 max_orders;
      p_label = label;
      p_id = Atomic.fetch_and_add next_handle_id 1 }

let selector_name = function
  | Greedy -> "greedy"
  | Priced p -> p.p_label

let rec factorial n = if n <= 1 then 1 else n * factorial (n - 1)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        List.map
          (fun p -> x :: p)
          (permutations (List.filter (fun y -> y <> x) l)))
      l

let max_rejected_kept = 8

(* Price every feasible cover (and, when cheap enough, every join order
   of it); the caller's pricer decides. Ties keep the earliest candidate
   in enumeration order, so the answer is deterministic. *)
let enumerate ~tbl ~price ~max_cover ~max_orders rep q =
  let items = items_of_query q in
  let relevant =
    List.filter
      (fun (l : Partition.leaf) -> List.exists (covers l) items)
      rep
    |> List.map (fun (l : Partition.leaf) -> l.label)
  in
  let notes = ref [] in
  if List.length relevant > max_cover then
    notes :=
      Truncated_covers { bound = max_cover; relevant = List.length relevant }
      :: !notes;
  let covers_ =
    subsets_upto max_cover relevant
    |> List.filter (fun s -> s <> [] && feasible ~tbl q s)
  in
  match covers_ with
  | [] -> Error "no feasible cover within the size bound"
  | _ ->
    let priced = ref [] and count = ref 0 in
    List.iter
      (fun cover ->
        let k = List.length cover in
        let orders =
          if factorial k <= max_orders then permutations cover
          else begin
            if
              k > 1
              && not
                   (List.exists
                      (function Truncated_orders _ -> true | _ -> false)
                      !notes)
            then
              notes :=
                Truncated_orders { bound = max_orders; cover_size = k } :: !notes;
            [ cover ]
          end
        in
        List.iter
          (fun order ->
            let p = assemble ~tbl q order in
            incr count;
            priced := (price p, p) :: !priced)
          orders)
      covers_;
    let cands = List.rev !priced in
    let best =
      List.fold_left
        (fun acc (c, p) ->
          match acc with Some (c0, _) when c0 <= c -> acc | _ -> Some (c, p))
        None cands
    in
    (match best with
     | None -> Error "unreachable"
     | Some (c, p) ->
       let rejected =
         List.filter (fun (_, p') -> p' != p) cands
         |> List.map (fun (c', p') -> { cand_leaves = p'.leaves; cand_cost = c' })
         |> List.stable_sort (fun a b -> compare a.cand_cost b.cand_cost)
         |> List.filteri (fun i _ -> i < max_rejected_kept)
       in
       Ok (p, c, rejected, List.rev !notes, !count))

(* --- plan memoization ------------------------------------------------------ *)

(* A greedy plan depends only on the representation and the query's
   SHAPE — the projection list plus, per predicate, its attribute and
   kind (point vs range); the searched constants influence nothing
   ([covers] only looks at schemes). A cost-based plan additionally
   depends on the statistics version and the key epoch its handle
   reports, so its cache entries carry that stamp and a stale stamp
   reads as a miss. The memo is per-domain ([Domain.DLS]): [plan] runs
   inside [Parallel] workers (the experiment planning loops), and a
   shared table would race. *)

type memo_plan = {
  m_leaves : string list;
  m_joins : int;
  m_pred_labels : string option list; (* one per [q.where] position *)
  m_proj_home : (string * string) list;
}

type memo_decision = {
  e_result : (memo_plan * float option * candidate list * note list, string) result;
  e_stamp : (int * int) option;  (* None for greedy (stamp-independent) *)
  e_hits : (Query.pred list, decision) Hashtbl.t;
      (* The decision a hit returns, per [q.where]: a pure function of
         this entry and the constants, so a repeated query gets the same
         immutable value, not a fresh copy of it for every call. *)
}

type memo_state = {
  (* The DLS slot is per-domain, but every systhread of the domain (a
     networked server's clients, the concurrency tests) shares it. *)
  lock : Mutex.t;
  (* Representation digests keyed by physical identity — the experiment
     loops plan thousands of queries against a handful of long-lived
     representation values, so digesting once per value is enough. *)
  mutable digests : (Partition.t * string) list;
  plans : (string * string * string, memo_decision) Hashtbl.t;
}

let max_digest_entries = 16
let max_plan_entries = 1024
let max_hit_decisions = 256

let memo_key : memo_state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { lock = Mutex.create (); digests = []; plans = Hashtbl.create 64 })

let rep_digest st rep =
  match List.find_opt (fun (r, _) -> r == rep) st.digests with
  | Some (_, d) -> d
  | None ->
    let d = Digest.string (Marshal.to_string rep []) in
    st.digests <-
      (rep, d)
      :: (if List.length st.digests >= max_digest_entries then
            List.filteri (fun i _ -> i < max_digest_entries - 1) st.digests
          else st.digests);
    d

let shape_key (q : Query.t) =
  let b = Buffer.create 64 in
  List.iter
    (fun a ->
      Buffer.add_string b a;
      Buffer.add_char b '\x00')
    q.Query.select;
  Buffer.add_char b '\x01';
  List.iter
    (fun p ->
      Buffer.add_char b (match p with Query.Point _ -> 'P' | Query.Range _ -> 'R');
      Buffer.add_string b (Query.pred_attr p);
      Buffer.add_char b '\x00')
    q.Query.where;
  Buffer.contents b

let to_memo (p : plan) (q : Query.t) =
  { m_leaves = p.leaves;
    m_joins = p.joins;
    (* Record, per where-position, the home label (or None for a dropped
       predicate) so the plan can be rebuilt around the actual constants
       of a same-shape query. *)
    m_pred_labels =
      List.map (fun p0 -> List.assoc_opt p0 p.pred_home) q.Query.where;
    m_proj_home = p.proj_home }

let of_memo (m : memo_plan) (q : Query.t) =
  { leaves = m.m_leaves;
    joins = m.m_joins;
    pred_home =
      List.concat
        (List.map2
           (fun p -> function Some l -> [ (p, l) ] | None -> [])
           q.Query.where m.m_pred_labels);
    proj_home = m.m_proj_home }

(* Plan once, uncached. Returns the full decision payload minus cache
   status; [d_enumerated] counts candidates priced by THIS call. *)
let plan_fresh handle rep q =
  match check_items_coverable rep q with
  | Error e -> Error e
  | Ok () ->
    let tbl = leaf_table rep in
    (match handle with
     | Greedy ->
       Result.map
         (fun chosen -> (assemble ~tbl q chosen, None, [], [], 1))
         (greedy rep q)
     | Priced p ->
       Result.map
         (fun (pl, c, rej, notes, n) -> (pl, Some c, rej, notes, n))
         (enumerate ~tbl ~price:p.price ~max_cover:p.max_cover
            ~max_orders:p.max_orders rep q))

let mode_tag = function
  | Greedy -> "G"
  | Priced p -> Printf.sprintf "C%d" p.p_id

let decide ?(handle = Greedy) rep q =
  let finish ~cache ~enumerated result =
    (match cache with
     | `Hit -> Metrics.incr m_cache_hit
     | `Miss ->
       Metrics.incr m_cache_miss;
       if enumerated > 0 then Metrics.add m_enumerated enumerated);
    Result.map
      (fun (pl, est, rej, notes) ->
        { d_plan = pl;
          d_estimate = est;
          d_rejected = rej;
          d_notes = notes;
          d_enumerated = enumerated;
          d_cache = cache;
          d_selector = selector_name handle })
      result
  in
  let stamp = match handle with Priced p -> Some (p.stamp ()) | Greedy -> None in
  let st = Domain.DLS.get memo_key in
  let key, hit =
    Mutex.protect st.lock (fun () ->
        let key = (mode_tag handle, rep_digest st rep, shape_key q) in
        (key, Hashtbl.find_opt st.plans key))
  in
  match hit with
  | Some e when e.e_stamp = stamp -> (
    match Mutex.protect st.lock (fun () -> Hashtbl.find_opt e.e_hits q.Query.where) with
    | Some d ->
      Metrics.incr m_cache_hit;
      Ok d
    | None ->
      let result =
        finish ~cache:`Hit ~enumerated:0
          (Result.map (fun (m, est, rej, notes) -> (of_memo m q, est, rej, notes)) e.e_result)
      in
      Result.iter
        (fun d ->
          Mutex.protect st.lock (fun () ->
              if Hashtbl.length e.e_hits >= max_hit_decisions then Hashtbl.reset e.e_hits;
              Hashtbl.replace e.e_hits q.Query.where d))
        result;
      result)
  | _ ->
    (* Planning itself runs unlocked; a concurrent same-shape miss
       just plans twice and the second replace wins harmlessly. *)
    let result = plan_fresh handle rep q in
    let enumerated =
      match result with Ok (_, _, _, _, n) -> n | Error _ -> 0
    in
    Mutex.protect st.lock (fun () ->
        if Hashtbl.length st.plans >= max_plan_entries then
          Hashtbl.reset st.plans;
        Hashtbl.replace st.plans key
          { e_result =
              Result.map
                (fun (pl, est, rej, notes, _) -> (to_memo pl q, est, rej, notes))
                result;
            e_stamp = stamp;
            e_hits = Hashtbl.create 8 });
    finish ~cache:`Miss ~enumerated
      (Result.map
         (fun (pl, est, rej, notes, _) -> (pl, est, rej, notes))
         result)

let plan ?handle rep q = Result.map (fun d -> d.d_plan) (decide ?handle rep q)

(* Shadows the internal greedy-cover function on purpose: from outside,
   [Planner.greedy] is the default handle. *)
let greedy = Greedy

let pp fmt p =
  Format.fprintf fmt "leaves [%s], %d joins" (String.concat "; " p.leaves) p.joins
