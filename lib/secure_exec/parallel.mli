(** Multicore fan-out with deterministic results (OCaml 5 [Domain]s).

    The execution layer for bulk crypto work: column encryption, randomizer
    pool precomputation, per-partition server filters, join-side tid
    decryption, the blocked bitonic sort and the sharded coordinator's legs
    all fan out through [tabulate]/[map]. Work is split into contiguous
    chunks, one per lane, and chunk results are concatenated in chunk
    order — outputs are bit-identical for every domain count.

    {b The pool.} Chunks run on one process-wide pool of worker domains,
    built from stdlib [Domain], [Mutex], [Condition] and [Atomic]. It
    starts empty and is grown lazily to the largest lane count any call
    has requested, minus one; its workers live for the rest of the
    process. An idle worker blocks on a condition variable and never
    spins. There is no size setting.

    {b What the caller runs.} The calling domain runs chunk 0, then every
    chunk no worker has claimed yet (each chunk is claimed once,
    atomically), and only then blocks until the chunks workers claimed
    have finished. Nobody waits on a chunk that has not started, so a
    chunk may itself call [tabulate] without deadlock, and short calls
    often finish before any worker wakes.

    {b Observability.} Whichever domain claimed a chunk calls
    [Snf_obs.flush] after it, before marking it finished, so worker
    counters, histograms and spans are merged before [tabulate] returns —
    the same totals a sequential run gives. A worker's shard is therefore
    empty between calls, which is what keeps [Snf_obs.Metrics.reset]
    exact.

    {b Failures.} A chunk's exception is caught on whichever domain ran
    it; workers survive it. [tabulate] returns, or re-raises the first
    failure by chunk index with its backtrace, only after every chunk has
    finished.

    {b Cost.} An empty pooled fan-out costs a few us where spawning and
    joining a domain per lane costs a few hundred (bench [micro-fanout]).
    The pool is not free while idle: OCaml 5's minor collections stop
    every domain, so each parked worker still joins every minor GC. On
    the sharded batch benchmark (2-core VM), one parked worker added
    ≈8 ref-ms to a 64-query batch whose shard legs ran on one domain
    (p50 ≈55 → ≈63 ref-ms).

    Randomness discipline: workers never share a mutable PRNG. Any job
    that needs randomness derives a {e per-item} generator with
    [item_prng], whose stream depends only on (key, item index) — see
    [Snf_crypto.Prng.of_int64]. That is what makes ciphertexts independent
    of the worker count, and it is enforced by the determinism tests.

    The default domain count comes from the [SNF_DOMAINS] environment
    variable when set, else [Domain.recommended_domain_count ()]. *)

val domain_count : unit -> int

val set_domain_count : int -> unit
(** Override the default for subsequent calls (benchmarks and tests).
    @raise Invalid_argument below 1. *)

val tabulate : ?domains:int -> int -> (int -> 'a) -> 'a array
(** [tabulate n f] is [Array.init n f], computed in up to [?domains]
    (default [domain_count ()]) lanes on the pool. [f] must be safe to
    call from any domain and must not share mutable state across items.
    Small inputs run sequentially unless [?domains] is passed explicitly —
    an explicit count marks the items as coarse-grained.
    @raise Invalid_argument if [n < 0]; otherwise re-raises the first
    exception by chunk index, after every chunk has finished. *)

val map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array

val map_list : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list

val item_prng : key:Snf_crypto.Prf.key -> int -> Snf_crypto.Prng.t
(** [item_prng ~key i] is the private randomness stream of item [i]:
    a splitmix64 generator seeded by a PRF of the index. *)
