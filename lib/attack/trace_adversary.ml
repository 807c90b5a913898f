open Snf_relational
module Leakage = Snf_obs.Leakage
module Json = Snf_obs.Json
module Enc_relation = Snf_exec.Enc_relation
module System = Snf_exec.System

type ground = {
  g_rows : int;
  g_row : leaf:string -> slot:int -> int;
  g_value : int -> string -> Value.t;
}

let ground_of_owner (owner : System.owner) =
  let plain = owner.System.plaintext in
  let maps = Hashtbl.create 8 in
  List.iter
    (fun (leaf : Enc_relation.enc_leaf) ->
      Hashtbl.replace maps leaf.Enc_relation.label
        (Enc_relation.decrypt_tids owner.System.client leaf))
    owner.System.enc.Enc_relation.leaves;
  {
    g_rows = Relation.cardinality plain;
    g_row =
      (fun ~leaf ~slot ->
        match Hashtbl.find_opt maps leaf with
        | Some tids when slot >= 0 && slot < Array.length tids -> tids.(slot)
        | _ -> invalid_arg "Trace_adversary.ground: unknown leaf or slot");
    g_value = (fun row attr -> Relation.get plain ~row attr);
  }

type scores = {
  s_frequency : float;
  s_access : float;
  s_access_token : float;
  s_access_result : float;
  s_sorting : float;
  s_inference : float;
  s_linked_rows : int;
  s_baseline : float;
}

(* ---------- small helpers over the aux sample ---------- *)

let aux_column aux attr =
  match List.assoc_opt attr aux with
  | Some col -> col
  | None -> invalid_arg ("Trace_adversary: aux lacks column " ^ attr)

(* Most frequent first; ties broken by Value.compare so every choice
   made from a count is deterministic. *)
let by_count_desc (v1, n1) (v2, n2) = if n1 <> n2 then compare n2 n1 else Value.compare v1 v2

(* Distinct values with multiplicities, most frequent first. *)
let counts_desc (col : Value.t array) =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun v ->
      let k = Value.encode v in
      match Hashtbl.find_opt tbl k with
      | Some (v, n) -> Hashtbl.replace tbl k (v, n + 1)
      | None -> Hashtbl.add tbl k (v, 1))
    col;
  Hashtbl.fold (fun _ vn acc -> vn :: acc) tbl [] |> List.sort by_count_desc

let mode_of col =
  match counts_desc col with (v, _) :: _ -> v | [] -> Value.Null

(* Most frequent target value per source value — the aux estimate of the
   functional dependency source -> target. *)
let joint_mapping ~source ~target aux =
  let src = aux_column aux source and tgt = aux_column aux target in
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun i sv ->
      let k = Value.encode sv in
      let inner =
        match Hashtbl.find_opt tbl k with
        | Some inner -> inner
        | None ->
          let inner = Hashtbl.create 4 in
          Hashtbl.add tbl k inner;
          inner
      in
      let tk = Value.encode tgt.(i) in
      match Hashtbl.find_opt inner tk with
      | Some (v, n) -> Hashtbl.replace inner tk (v, n + 1)
      | None -> Hashtbl.add inner tk (tgt.(i), 1))
    src;
  fun v ->
    match Hashtbl.find_opt tbl (Value.encode v) with
    | None -> None
    | Some inner ->
      Hashtbl.fold (fun _ vn acc -> vn :: acc) inner []
      |> List.sort by_count_desc
      |> fun l -> Option.map fst (List.nth_opt l 0)

(* ---------- trace-side bookkeeping ---------- *)

let token_id (t : Leakage.token) = (t.Leakage.t_attr, t.t_scheme, t.t_key)

let is_eq_on attr (t : Leakage.token) =
  t.Leakage.t_attr = attr && t.t_kind = `Eq

(* Which attributes the server has seen named next to each leaf: filter
   ops carry attribute names, fetches carry the projected attributes,
   probes carry the probed attribute. This is the adversary's (honest)
   schema knowledge — co-location is wire-visible metadata. *)
let leaf_attrs views =
  let tbl = Hashtbl.create 16 in
  let add leaf attr =
    let s = Option.value (Hashtbl.find_opt tbl leaf) ~default:[] in
    if not (List.mem attr s) then Hashtbl.replace tbl leaf (attr :: s)
  in
  List.iter
    (fun (v : Leakage.query_view) ->
      List.iter
        (fun (m : Leakage.mask_obs) ->
          List.iter
            (function
              | Leakage.Op_token t -> add m.Leakage.m_leaf t.Leakage.t_attr
              | Leakage.Op_slots _ -> ())
            m.Leakage.m_ops)
        v.Leakage.q_masks;
      List.iter
        (fun (f : Leakage.fetch_obs) ->
          List.iter (add f.Leakage.f_leaf) f.Leakage.f_attrs)
        v.Leakage.q_fetches;
      List.iter (fun (leaf, attr, _) -> add leaf attr) v.Leakage.q_probes)
    views;
  fun leaf attr ->
    match Hashtbl.find_opt tbl leaf with
    | Some attrs -> List.mem attr attrs
    | None -> false

module Rows = Set.Make (Int)

(* Each row behind a leaf's slots; a slot the ground truth cannot map is
   skipped. *)
let iter_rows ground ~leaf f slots =
  Array.iter
    (fun slot ->
      match ground.g_row ~leaf ~slot with
      | row -> f row
      | exception Invalid_argument _ -> ())
    slots

(* Built from a list, not by one [Rows.add] per row: a set grown row by
   row leaves a garbage path behind each add, and scoring runs at the
   benchmark's heap peak. *)
let rows_of_slots ground ~leaf slots =
  let rows = ref [] in
  iter_rows ground ~leaf (fun row -> rows := row :: !rows) slots;
  Rows.of_list !rows

(* A fetch that touches every slot of the store carries no selection
   information — it is exactly what an oblivious pass looks like on the
   wire — so the adversary treats it as noise rather than as a result
   set. *)
let informative_fetch ground (f : Leakage.fetch_obs) =
  Array.length f.Leakage.f_slots < ground.g_rows

(* Tokens by identity, each once, in first-seen order. *)
let distinct_tokens toks =
  List.fold_left
    (fun acc t -> if List.exists (fun u -> token_id u = token_id t) acc then acc else t :: acc)
    [] toks
  |> List.rev

(* The slot channels of a view that reach rows of the protected
   attribute: masks with ops on a leaf known to hold it, informative
   fetches that name it, and probe answers on such a leaf. The frequency
   row and result exposure both read them here. *)
let reach ground contains protected_attr (v : Leakage.query_view) =
  List.filter_map
    (fun (m : Leakage.mask_obs) ->
      if m.Leakage.m_ops <> [] && contains m.m_leaf protected_attr then Some (m.m_leaf, m.m_slots)
      else None)
    v.Leakage.q_masks
  @ List.filter_map
      (fun (f : Leakage.fetch_obs) ->
        if List.mem protected_attr f.Leakage.f_attrs && informative_fetch ground f then
          Some (f.f_leaf, f.f_slots)
        else None)
      v.Leakage.q_fetches
  @ List.filter_map
      (fun (leaf, _, slots) ->
        match slots with
        | Some s when contains leaf protected_attr -> Some (leaf, s)
        | _ -> None)
      v.Leakage.q_probes

(* Rows certified to satisfy each token: the union, over every mask whose
   op list contains the token, of the mask's slot positions (rows in a
   conjunctive mask satisfy every conjunct). Masks travel in every
   execution mode, so this channel is mode-independent. Slot-returning
   index probes certify too: when a view carries exactly one eq token on
   the probed attribute, the probe's answer is that token's row set. *)
let certified_rows views ground =
  let tbl = Hashtbl.create 64 in
  let certify t rows =
    let id = token_id t in
    let prev = Option.value (Hashtbl.find_opt tbl id) ~default:Rows.empty in
    Hashtbl.replace tbl id (Rows.union prev rows)
  in
  List.iter
    (fun (v : Leakage.query_view) ->
      List.iter
        (fun (m : Leakage.mask_obs) ->
          let rows = lazy (rows_of_slots ground ~leaf:m.Leakage.m_leaf m.m_slots) in
          List.iter
            (function
              | Leakage.Op_slots _ -> ()
              | Leakage.Op_token t -> certify t (Lazy.force rows))
            m.Leakage.m_ops)
        v.Leakage.q_masks;
      List.iter
        (fun (leaf, pattr, slots) ->
          match
            (slots, List.filter (is_eq_on pattr) (distinct_tokens v.Leakage.q_tokens))
          with
          | Some s, [ t ] -> certify t (rows_of_slots ground ~leaf s)
          | _ -> ())
        v.Leakage.q_probes)
    views;
  fun t -> Option.value (Hashtbl.find_opt tbl (token_id t)) ~default:Rows.empty

(* True row set of a token, reconstructed by the evaluator: an eq token's
   plaintext is betrayed by any certified row; a range token is exact
   exactly when some solo mask certified it. [None] when ground truth is
   unrecoverable (nothing certified). *)
let true_rows views ground certified =
  let solo_exact = Hashtbl.create 64 in
  List.iter
    (fun (v : Leakage.query_view) ->
      List.iter
        (fun (m : Leakage.mask_obs) ->
          match m.Leakage.m_ops with
          | [ Leakage.Op_token t ] ->
            Hashtbl.replace solo_exact (token_id t) (rows_of_slots ground ~leaf:m.Leakage.m_leaf m.m_slots)
          | _ -> ())
        v.Leakage.q_masks)
    views;
  fun (t : Leakage.token) ->
    match Hashtbl.find_opt solo_exact (token_id t) with
    | Some rows -> Some rows
    | None -> (
      match t.Leakage.t_kind with
      | `Range -> None
      | `Eq -> (
        match Rows.choose_opt (certified t) with
        | None -> None
        | Some row ->
          let v = ground.g_value row t.Leakage.t_attr in
          let all = ref Rows.empty in
          for r = 0 to ground.g_rows - 1 do
            if Value.compare (ground.g_value r t.Leakage.t_attr) v = 0 then
              all := Rows.add r !all
          done;
          Some !all))

(* ---------- frequency: token volumes -> values -> rows ---------- *)

(* Estimated result volume of every eq token on [attr]: exact from solo
   masks or slot-returning index probes, otherwise the best confounded
   lower bound any conjunctive mask gives. *)
let volume_estimates views attr =
  let exact = Hashtbl.create 32 and bound = Hashtbl.create 32 in
  let bump tbl id n =
    match Hashtbl.find_opt tbl id with
    | Some m when m >= n -> ()
    | _ -> Hashtbl.replace tbl id n
  in
  List.iter
    (fun (v : Leakage.query_view) ->
      List.iter
        (fun (m : Leakage.mask_obs) ->
          let toks =
            List.filter_map
              (function Leakage.Op_token t when is_eq_on attr t -> Some t | _ -> None)
              m.Leakage.m_ops
          in
          match (m.Leakage.m_ops, toks) with
          | [ Leakage.Op_token _ ], [ t ] -> bump exact (token_id t) m.m_matched
          | _, toks -> List.iter (fun t -> bump bound (token_id t) m.m_matched) toks)
        v.Leakage.q_masks;
      (* a slot-returning probe on a single-token view pins that token's
         volume exactly — the leaky equality-index channel *)
      match (List.filter (is_eq_on attr) (distinct_tokens v.Leakage.q_tokens), v.Leakage.q_probes) with
      | [ t ], probes ->
        List.iter
          (fun (_, pattr, slots) ->
            match slots with
            | Some s when pattr = attr -> bump exact (token_id t) (Array.length s)
            | _ -> ())
          probes
      | _ -> ())
    views;
  let ids = Hashtbl.create 32 in
  List.iter
    (fun (v : Leakage.query_view) ->
      List.iter
        (fun t -> if is_eq_on attr t then Hashtbl.replace ids (token_id t) t)
        v.Leakage.q_tokens)
    views;
  Hashtbl.fold
    (fun id _ acc ->
      let est, exactp =
        match Hashtbl.find_opt exact id with
        | Some n -> (n, true)
        | None -> (Option.value (Hashtbl.find_opt bound id) ~default:0, false)
      in
      (id, est, exactp) :: acc)
    ids []
  |> List.sort (fun ((_, _, k1), n1, _) ((_, _, k2), n2, _) ->
         if n1 <> n2 then compare n2 n1 else compare k1 k2)

(* Rank-match token volumes against the aux marginal; surplus tokens get
   the aux mode (Frequency_attack's convention). *)
let match_tokens_to_values estimates aux_counts aux_mode =
  let tbl = Hashtbl.create 32 in
  let rec go ests vals =
    match (ests, vals) with
    | [], _ -> ()
    | (id, _, _) :: rest, (v, _) :: vrest ->
      Hashtbl.replace tbl id v;
      go rest vrest
    | (id, _, _) :: rest, [] ->
      Hashtbl.replace tbl id aux_mode;
      go rest []
  in
  go estimates aux_counts;
  fun t -> Hashtbl.find_opt tbl (token_id t)

(* ---------- the vote rule ---------- *)

(* Every guess a row receives is one vote in its tally of (value, votes).
   The row keeps the value with the most votes, a tie going to the least
   value by [Value.compare]. A tally is a multiset, so the order the
   views come in never moves it. *)
let add_vote tally g =
  match List.partition (fun (v, _) -> Value.compare v g = 0) tally with
  | [ (_, k) ], rest -> (g, k + 1) :: rest
  | _ -> (g, 1) :: tally

let winner tally = match List.sort by_count_desc tally with (v, _) :: _ -> v | [] -> Value.Null

(* ---------- the replay ---------- *)

(* Mean of per-token or per-query scores, summed in ascending order:
   float addition is not associative, so a sum in list order would let
   the order a view lists the same tokens or masks move the last bit. *)
let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 (List.sort Float.compare l) /. float_of_int (List.length l)

let run ~views ~aux ~ground ~protected_attr ~source_attr ?(range_truth = []) () =
  let n = ground.g_rows in
  let contains = leaf_attrs views in
  let certified = certified_rows views ground in
  let truth_of = true_rows views ground certified in
  (* frequency machinery *)
  let src_col = aux_column aux source_attr in
  let estimates = volume_estimates views source_attr in
  let guess_src =
    match_tokens_to_values estimates (counts_desc src_col) (mode_of src_col)
  in
  let joint = joint_mapping ~source:source_attr ~target:protected_attr aux in
  let reach = reach ground contains protected_attr in
  let votes : (int, (Value.t * int) list) Hashtbl.t = Hashtbl.create 256 in
  let vote g row =
    Hashtbl.replace votes row (add_vote (Option.value (Hashtbl.find_opt votes row) ~default:[]) g)
  in
  List.iter
    (fun (v : Leakage.query_view) ->
      match List.filter (is_eq_on source_attr) (distinct_tokens v.Leakage.q_tokens) with
      | [ t ] ->
        Option.iter
          (fun g ->
            List.iter
              (fun (leaf, slots) -> iter_rows ground ~leaf (vote g) slots)
              (reach v))
          (Option.bind (guess_src t) joint)
      | _ -> ())
    views;
  let linked = Hashtbl.length votes in
  let correct =
    Hashtbl.fold
      (fun row tally acc ->
        if Value.compare (winner tally) (ground.g_value row protected_attr) = 0 then acc + 1
        else acc)
      votes 0
  in
  let s_frequency = if n = 0 then 0.0 else float_of_int correct /. float_of_int n in
  let s_inference =
    if linked = 0 then 0.0 else float_of_int correct /. float_of_int linked
  in
  (* access sub-score 1: token exposure *)
  let all_tokens = distinct_tokens (List.concat_map (fun v -> v.Leakage.q_tokens) views) in
  let exposures =
    List.map
      (fun t ->
        match truth_of t with
        | None -> 0.0
        | Some truth when Rows.is_empty truth -> 0.0
        | Some truth ->
          float_of_int (Rows.cardinal (Rows.inter (certified t) truth))
          /. float_of_int (Rows.cardinal truth))
      all_tokens
  in
  let s_access_token = mean exposures in
  (* access sub-score 2: result exposure on protected-attribute leaves *)
  let result_scores =
    List.filter_map
      (fun (v : Leakage.query_view) ->
        let toks = distinct_tokens v.Leakage.q_tokens in
        if toks = [] then None
        else
          let truths = List.map truth_of toks in
          if List.exists Option.is_none truths then None
          else
            (* the relation's rows in every token's truth; built from the
               first truth, not from a set of all rows per view *)
            let t_set =
              match List.map Option.get truths with
              | first :: rest ->
                List.fold_left Rows.inter (Rows.filter (fun r -> r >= 0 && r < n) first) rest
              | [] -> Rows.empty
            in
            let o =
              List.fold_left
                (fun o (leaf, slots) -> Rows.union o (rows_of_slots ground ~leaf slots))
                Rows.empty (reach v)
            in
            if Rows.is_empty t_set && Rows.is_empty o then None
            else
              let union = Rows.cardinal (Rows.union t_set o) in
              Some (float_of_int (Rows.cardinal (Rows.inter t_set o)) /. float_of_int union))
      views
  in
  let s_access_result = mean result_scores in
  let s_access = (s_access_token +. s_access_result) /. 2.0 in
  (* sorting: quantile-match observed OPE ordinals against aux *)
  let s_sorting =
    let obs_by_attr = Hashtbl.create 4 in
    List.iter
      (fun (v : Leakage.query_view) ->
        List.iter
          (fun (t : Leakage.token) ->
            if t.Leakage.t_kind = `Range && t.t_scheme = "ord" then
              match String.index_opt t.t_key '.' with
              | Some i
                when i + 1 < String.length t.t_key && t.t_key.[i + 1] = '.' -> (
                match
                  ( int_of_string_opt (String.sub t.t_key 0 i),
                    int_of_string_opt
                      (String.sub t.t_key (i + 2) (String.length t.t_key - i - 2)) )
                with
                | Some lo, Some hi ->
                  let prev =
                    Option.value (Hashtbl.find_opt obs_by_attr t.t_attr) ~default:[]
                  in
                  if not (List.mem (lo, hi) prev) then
                    Hashtbl.replace obs_by_attr t.t_attr ((lo, hi) :: prev)
                | _ -> ())
              | _ -> ())
          v.Leakage.q_tokens)
      views;
    let truth_endpoints =
      List.concat_map (fun (a, lo, hi) -> [ (a, lo); (a, hi) ]) range_truth
    in
    if truth_endpoints = [] then 0.0
    else
      let guesses =
        Hashtbl.fold (fun attr ranges acc -> (attr, ranges) :: acc) obs_by_attr []
        |> List.sort (fun (a1, _) (a2, _) -> compare a1 a2)
        |> List.concat_map (fun (attr, ranges) ->
               let ords =
                 List.concat_map (fun (lo, hi) -> [ lo; hi ]) ranges
                 |> List.sort_uniq compare
               in
               let col =
                 match List.assoc_opt attr aux with
                 | Some c -> Array.copy c
                 | None -> [||]
               in
               Array.sort Value.compare col;
               let m = Array.length col and k = List.length ords in
               if m = 0 then []
               else
                 List.mapi
                   (fun i _ ->
                     let q =
                       if k <= 1 then (m - 1) / 2
                       else i * (m - 1) / (k - 1)
                     in
                     (attr, col.(q)))
                   ords)
      in
      (* multiset intersection of guesses and true endpoints, per attr *)
      let consume lst x =
        let rec go acc = function
          | [] -> None
          | y :: rest when compare y x = 0 -> Some (List.rev_append acc rest)
          | y :: rest -> go (y :: acc) rest
        in
        go [] lst
      in
      let hits, _ =
        List.fold_left
          (fun (hits, pool) (attr, v) ->
            match consume pool (attr, Value.encode v) with
            | Some rest -> (hits + 1, rest)
            | None -> (hits, pool))
          (0, List.map (fun (a, v) -> (a, Value.encode v)) truth_endpoints)
          guesses
      in
      float_of_int hits /. float_of_int (List.length truth_endpoints)
  in
  {
    s_frequency;
    s_access;
    s_access_token;
    s_access_result;
    s_sorting;
    s_inference;
    s_linked_rows = linked;
    s_baseline = Frequency_attack.mode_baseline (aux_column aux protected_attr);
  }

let scores_to_json s =
  Json.Obj
    [
      ("frequency", Json.Float s.s_frequency);
      ("access", Json.Float s.s_access);
      ("access_token", Json.Float s.s_access_token);
      ("access_result", Json.Float s.s_access_result);
      ("sorting", Json.Float s.s_sorting);
      ("inference", Json.Float s.s_inference);
      ("linked_rows", Json.Int s.s_linked_rows);
      ("baseline", Json.Float s.s_baseline);
    ]
