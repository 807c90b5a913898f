#!/usr/bin/env python3
"""Check bench/perf_history.jsonl against BENCHMARK.json.

    python3 bench/check_perf_history.py

Run from the root of a checkout. Every line of the history must parse as
one JSON object with the fields EXPERIMENTS.md ("Perf history") lists,
and may name only workloads and end-to-end metrics that BENCHMARK.json
declares. Each side of each metric must satisfy q1 <= median <= q3.
Exits 1 on the first bad line.

Then, per workload, the heap must not have drifted: the newest line's
`change` median of `heap_peak_mb` may exceed the oldest line's `parent`
median by at most the metric's BENCHMARK.json bound. Each line stays
inside its own bound, so only this catches a rise spread over many.
"""

import json
import sys

HISTORY = "bench/perf_history.jsonl"
TOP = ("pr", "claim", "side_order", "nproc", "seconds", "workloads")
WORKLOAD = ("seeds", "pairs", "metrics")
STATS = ("median", "q1", "q3")


def fail(lineno, msg):
    print("%s:%d: %s" % (HISTORY, lineno, msg), file=sys.stderr)
    sys.exit(1)


def check_heap_drift(lines, bound):
    """The newest change median against the oldest parent median, per workload."""
    oldest, newest = {}, {}
    for lineno, line in enumerate(lines, 1):
        for wl, body in json.loads(line)["workloads"].items():
            heap = body["metrics"].get("heap_peak_mb")
            if heap is not None:
                oldest.setdefault(wl, (lineno, heap["parent"]["median"]))
                newest[wl] = (lineno, heap["change"]["median"])
    drifted = None
    for wl in sorted(oldest):
        (first, base), (last, now) = oldest[wl], newest[wl]
        print("heap drift %s: line %d parent %.3f MB -> line %d change %.3f MB (%+.1f%%)"
              % (wl, first, base, last, now, 100 * (now / base - 1)))
        if now > base * (1 + bound) and drifted is None:
            drifted = (last, "%s: heap_peak_mb drifted %+.1f%% since line %d, past the %.0f%% bound"
                       % (wl, 100 * (now / base - 1), first, 100 * bound))
    if drifted is not None:
        fail(*drifted)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    with open(HISTORY) as f:
        lines = f.read().splitlines()
    if not lines:
        fail(0, "empty history")
    for lineno, line in enumerate(lines, 1):
        try:
            entry = json.loads(line)
        except ValueError as e:
            fail(lineno, "not JSON: %s" % e)
        if not isinstance(entry, dict):
            fail(lineno, "not a JSON object")
        for key in TOP:
            if key not in entry:
                fail(lineno, "missing %r" % key)
        claim = entry["claim"]
        if claim is not None:
            if claim.get("workload") not in workloads:
                fail(lineno, "claim names unknown workload %r" % claim.get("workload"))
            if claim.get("metric") not in metrics:
                fail(lineno, "claim names unknown metric %r" % claim.get("metric"))
        for wl, body in entry["workloads"].items():
            if wl not in workloads:
                fail(lineno, "unknown workload %r" % wl)
            for key in WORKLOAD:
                if key not in body:
                    fail(lineno, "%s: missing %r" % (wl, key))
            for name, sides in body["metrics"].items():
                if name not in metrics:
                    fail(lineno, "%s: unknown metric %r" % (wl, name))
                for side in ("parent", "change"):
                    stats = sides.get(side)
                    if not isinstance(stats, dict) or any(
                            not isinstance(stats.get(k), (int, float)) for k in STATS):
                        fail(lineno, "%s/%s: %s needs numeric %s" % (wl, name, side, STATS))
                    if not stats["q1"] <= stats["median"] <= stats["q3"]:
                        fail(lineno, "%s/%s: %s quartiles out of order" % (wl, name, side))
    check_heap_drift(lines, bounds["heap_peak_mb"])
    print("perf history: %d line(s) ok" % len(lines))


if __name__ == "__main__":
    main()
