(** QUERYMATCHING (Algorithm 1, line 9): pick the sub-relations that
    answer a query.

    If one leaf hosts every attribute the query touches {e and} can
    evaluate every predicate on ciphertexts, the query runs leaf-locally
    with zero oblivious joins — the case SNF normalization tries to make
    common (maximal permissiveness). Otherwise the planner chooses a cover
    of leaves; reconstructing across [k] leaves costs [k - 1] oblivious
    joins, the unit of the paper's query-cost metric.

    Planning goes through a {!handle}: the greedy cover heuristic
    (largest uncovered contribution first, ties to narrower leaves), a
    statistics-driven cost-based optimizer ({!cost_based} — candidate
    covers {e and} join orders, priced by a caller-supplied model,
    cached per query shape with epoch/stats-stamped invalidation).
    Exhaustive search for the fewest leaves is a {!cost_based} handle
    pricing a plan by its leaf count. Every call resolves to
    a {!decision} that records what was enumerated, what was rejected
    and why — the payload [snf_cli explain] renders. *)

type plan = {
  leaves : string list;                  (** labels, join order *)
  joins : int;                           (** = max 0 (|leaves| - 1) *)
  pred_home : (Query.pred * string) list; (** evaluating leaf per predicate *)
  proj_home : (string * string) list;     (** (attribute, leaf) per projection *)
}

val supports : Snf_crypto.Scheme.kind -> Query.pred -> bool
(** Can a column under this scheme evaluate the predicate server-side? *)

(** A candidate the optimizer priced but did not choose. *)
type candidate = { cand_leaves : string list; cand_cost : float }

(** Typed planner diagnostics: when enumeration was truncated, the
    decision says so instead of silently returning a possibly
    non-minimal answer (EXPLAIN renders them). *)
type note =
  | Truncated_covers of { bound : int; relevant : int }
      (** more leaves were relevant than the subset bound explores *)
  | Truncated_orders of { bound : int; cover_size : int }
      (** some cover had more join orders than the budget prices *)

val note_to_string : note -> string

type decision = {
  d_plan : plan;                     (** the chosen plan *)
  d_estimate : float option;         (** its modeled cost; [None] under greedy *)
  d_rejected : candidate list;       (** cheapest-first, capped at 8 *)
  d_notes : note list;
  d_enumerated : int;                (** candidates priced by THIS call (0 on a hit) *)
  d_cache : [ `Hit | `Miss ];
  d_selector : string;               (** "greedy" / the cost handle's label *)
}

type handle

val greedy : handle
(** The default: greedy cover, no pricing, memoized per
    (representation digest, query shape). *)

val cost_based :
  ?max_cover:int ->
  ?max_orders:int ->
  ?label:string ->
  price:(plan -> float) ->
  stamp:(unit -> int * int) ->
  unit ->
  handle
(** A cost-based optimizer handle. [price] must be a pure function of
    the plan's {e shape} (leaves, homes, predicate kinds) and of the
    statistics behind it — never of searched constants — because its
    decisions are cached per (representation digest, query shape) and
    replayed for same-shape queries. [stamp] is read at every planning
    call and stored with each cache entry: when it changes (key-epoch
    rotation, statistics drift past threshold), the entry is stale and
    the next call re-plans. Covers are enumerated up to [max_cover]
    leaves (default 6) and each cover's join orders up to [max_orders]
    permutations (default 6, i.e. covers of ≤ 3 leaves are fully
    ordered); truncation is recorded as typed {!note}s, never silent. *)

val selector_name : handle -> string

val decide :
  ?handle:handle -> Snf_core.Partition.t -> Query.t -> (decision, string) result
(** Plan one query. Errors when some attribute is stored nowhere, or
    some predicate has no leaf whose copy of the attribute supports it.

    Caching: decisions are memoized per
    (handle, representation digest, query shape) — the shape being the
    projection list plus each predicate's attribute and point/range
    kind; searched constants do not influence the cover. The memo lives
    in domain-local storage, so concurrent planning from [Parallel]
    workers never races, and memoized answers are bit-identical to
    uncached planning. Every call moves exactly one of the
    [plan.cache.hit] / [plan.cache.miss] counters, and misses add the
    candidates they priced to [plan.candidates.enumerated]. *)

val plan :
  ?handle:handle -> Snf_core.Partition.t -> Query.t -> (plan, string) result
(** {!decide}'s plan, for callers that don't need the diagnostics. Same
    caching and counter movement. *)

val pp : Format.formatter -> plan -> unit
