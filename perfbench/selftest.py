#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Run from the root of a source checkout; takes about a minute.

* Smoke: every workload runs end to end through run.py at tiny scale, on
  the default seed and on a held-out seed, with --trace 0 and --trace 1,
  and must report every metric BENCHMARK.json names, with its unit, with
  correct answers and no failed operation.
* Determinism: the count metrics below must be bit-identical across two
  runs of one seed and across Parallel domain counts 1 and 2.

Exits 1 on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("point-join", "batch-sharded", "anchor-socket")
SMOKE_SEEDS = (1, 90210)  # the default seed, and one used nowhere else
PHASES = ("admin", "probe", "filter", "fetch", "oram", "phe")
DETERMINISTIC = [
    "wire_bytes_per_query",
    "round_trips_per_query",
    "leak_access",
    "trace_adversary.frequency",
    "store_bytes_per_plain_byte",
    "planner.joins_per_query",
    "oblivious_join.comparisons_per_query",
    "oblivious_join.rows_per_query",
    "path_oram.bucket_touches_per_query",
    "binning.rows_retrieved_per_query",
] + ["wire.%s.%s_per_query" % (p, k) for p in PHASES for k in ("requests", "bytes")]


def check(ok, msg):
    if not ok:
        print("FAIL: " + msg)
        sys.exit(1)


def smoke(root, spec):
    for workload in WORKLOADS:
        for seed in SMOKE_SEEDS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                       "--seconds", "1", "--trace", str(trace), "--tiny"]
                done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
                what = "%s seed %d trace %d" % (workload, seed, trace)
                check(done.returncode == 0, "%s: run.py exited %d" % (what, done.returncode))
                res = json.loads(done.stdout.strip().splitlines()[-1])
                check(set(res) == {"correct", "attempted", "failed", "metrics"},
                      "%s: result keys %s" % (what, sorted(res)))
                check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                      "%s: correct=%s failed=%s" % (what, res["correct"], res["failed"]))
                for m in spec[key]:
                    got = res["metrics"].get(m["name"])
                    check(got is not None and got["unit"] == m["unit"]
                          and isinstance(got["value"], (int, float)),
                          "%s: metric %s missing or malformed: %r" % (what, m["name"], got))
                print("smoke ok: " + what)


def determinism(root):
    exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
    work = os.path.join(root, ".perfbench-work", "selftest-%d" % os.getpid())
    os.makedirs(work)
    env = dict(os.environ, TMPDIR=work)
    try:
        for workload in WORKLOADS:
            outs = []
            for domains in (2, 2, 1):
                cmd = [exe, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                       "--domains", str(domains), "--tiny"]
                done = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.PIPE, text=True)
                check(done.returncode == 0, "%s: bench.exe exited %d" % (workload, done.returncode))
                outs.append(json.loads(done.stdout.strip().splitlines()[-1]))
            for m in DETERMINISTIC:
                values = [o[m] for o in outs]
                check(values[0] == values[1] == values[2],
                      "%s: %s differs (runs with 2, 2, 1 domains): %r" % (workload, m, values))
            print("determinism ok: %s (%d metrics)" % (workload, len(DETERMINISTIC)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, ".perfbench-work"))
        except OSError:
            pass


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    smoke(root, spec)  # also builds bench.exe
    determinism(root)
    print("selftest: PASS")


if __name__ == "__main__":
    main()
