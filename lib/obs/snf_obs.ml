(** [Snf_obs]: span tracing, metrics, and trace export for the
    secure-execution path.

    - {!Metrics}: always-on named counters, gauges, and log-scale
      histograms, sharded per domain and merged after each [Parallel] chunk so
      totals are deterministic under any [SNF_DOMAINS].
    - {!Span}: nested monotonic spans, off by default
      ([Span.set_enabled true] to record), exported as Chrome
      [trace_event] JSON via {!Export}.
    - {!Json}: the self-contained JSON used by the exporters, the
      conformance reports and the bench's BENCH_*.json files.
    - {!Wiretrace}: the SNFT wire-trace recorder — a deterministic log
      of every SNFM message as the server sees it.
    - {!Leakage}: folds an SNFT trace into per-query leakage metrics
      ([exec.leak.*]).

    Naming and usage conventions are documented in DESIGN.md
    §Observability. *)

module Clock = Clock
module Metrics = Metrics
module Span = Span
module Json = Json
module Export = Export
module Wiretrace = Wiretrace
module Leakage = Leakage

let flush () =
  Metrics.flush ();
  Span.flush ()
(** Merge this domain's metric shard and span buffer into the global
    accumulators. Called by [Snf_exec.Parallel]'s pool workers after each
    chunk. *)
