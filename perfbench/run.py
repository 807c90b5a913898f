#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload point-join --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The script builds
perfbench/bench.exe with dune, runs the workload in fresh processes and
prints, as its last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`:

* `--trace 0`: every `end_to_end` metric of BENCHMARK.json. `setup_s` is
  the median of three set-ups, each in a fresh process; the other metrics
  come from one untraced measuring process.
* `--trace 1`: every `per_layer` metric, from a traced measuring process,
  except the raw clock figures (`wall.*`, `cpu.*`, `probe.ms`), which come
  from an untraced process run just before; `trace.overhead_ratio` compares
  the two.

Exits 1 if any answer disagrees with the plaintext oracle or a process
fails, and 2 when run outside a source checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ("point-join", "batch-sharded", "anchor-socket")
SETUPS = 3
UNTRACED = ("wall", "cpu", "probe")  # per-layer metrics taken from the untraced process
CHILD_TIMEOUT_S = 150
WORK_ROOT = ".perfbench-work"


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def metric_units(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def build(root, env):
    cmd = ["dune", "build", "--root", root, "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed (dune exit %d)" % done.returncode)
    return os.path.join(root, "_build", "default", "perfbench", "bench.exe")


def child(exe, args, work, env):
    """Run one bench.exe process; returns (exit code, parsed JSON or None)."""
    try:
        done = subprocess.run(
            [exe] + args, cwd=work, env=env, stdout=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("bench.exe %s timed out" % " ".join(args))
    lines = done.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else None
    except ValueError:
        out = None
    return done.returncode, out


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the tests")
    a = p.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib"))):
        fail("run from the root of a source checkout (no dune-project or lib/ here)", 2)
    e2e_units, layer_units = metric_units(root)

    work = os.path.join(root, WORK_ROOT, "%s-%d" % (a.workload, os.getpid()))
    os.makedirs(work)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=work)
    try:
        exe = build(root, env)
        base = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
        if a.tiny:
            base.append("--tiny")

        runs = []  # (exit code, output) of every measuring process

        def measure(extra):
            code, out = child(exe, base + extra, work, env)
            if out is None:
                fail("bench.exe %s exited %d without a result" % (" ".join(extra), code))
            runs.append((code, out))
            return out

        if a.trace == 0:
            setups = []
            for _ in range(SETUPS - 1):
                code, out = child(exe, base + ["--setup-only"], work, env)
                if code != 0 or out is None:
                    fail("set-up process exited %d" % code)
                setups.append(out["setup_s"])
            main_run = measure(["--trace", "0"])
            values = dict(main_run, setup_s=statistics.median(setups + [main_run["setup_s"]]))
            units = e2e_units
        else:
            plain = measure(["--trace", "0"])
            traced = measure(["--trace", "1"])
            values = dict(traced)
            values.update((k, v) for k, v in plain.items() if k.split(".")[0] in UNTRACED)
            values["trace.overhead_ratio"] = traced["op_p50_ref_ms"] / plain["op_p50_ref_ms"]
            main_run = traced
            units = layer_units

        missing = [m for m in units if m not in values]
        if missing:
            fail("bench.exe did not report: " + ", ".join(missing))
        mismatched = sum(out["mismatched"] for _, out in runs)
        result = {
            "correct": mismatched == 0 and all(code == 0 for code, _ in runs),
            "attempted": main_run["attempted"],
            "failed": main_run["failed"],
            "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
        }
        for key in ("rows", "attrs", "leaves", "sessions", "parallel_domains", "nproc",
                    "samples", "queries", "replayed_ops", "stream_ops"):
            print("%s: %s" % (key, main_run[key]))
        print(json.dumps(result))
        sys.exit(0 if result["correct"] else 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_ROOT))
        except OSError:
            pass


if __name__ == "__main__":
    main()
