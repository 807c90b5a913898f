#!/usr/bin/env python3
"""Check bench/perf_history.jsonl against BENCHMARK.json.

    python3 bench/check_perf_history.py

Run from the root of a checkout. Every line of the history must parse as
one JSON object with the fields EXPERIMENTS.md ("Perf history") lists,
and may name only workloads and end-to-end metrics that BENCHMARK.json
declares. Each side of each metric must satisfy q1 <= median <= q3.
Exits 1 on the first bad line.
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


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
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
    print("perf history: %d line(s) ok" % len(lines))


if __name__ == "__main__":
    main()
