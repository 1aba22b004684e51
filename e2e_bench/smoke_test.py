#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at tiny sizes.

    python3 e2e_bench/smoke_test.py

For every workload in BENCHMARK.json, and for mesh_sharded (a driver
workload kept out of BENCHMARK.json, see README.md), it makes a small
untraced and a small traced run and checks that:
  * the last stdout line is the result object, the run is correct and
    no job failed;
  * every end-to-end metric (untraced) or per-layer metric (traced)
    named in BENCHMARK.json prints, with its unit, and nothing else;
  * the outcome digest repeats for the same seed, changes with the
    seed, and is the same at sweep threads 1 and 2 (mc_trials) and at
    shards 1, 2 and 4 (mesh_sharded).
Exits non-zero on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = {
    "mc_trials": ["--jobs", "4"],
    "mesh_response": ["--jobs", "3", "--mesh", "16"],
    "mesh_sharded": ["--jobs", "3", "--mesh", "16"],
    "soc_observed": ["--jobs", "2"],
}
# Flags whose values must not change a workload's digest.
INVARIANT = {
    "mc_trials": [["--threads", "1"], ["--threads", "2"]],
    "mesh_sharded": [["--shards", "1"], ["--shards", "2"],
                     ["--shards", "4"]],
}


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def run(workload, seed, trace, extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)] + TINY[workload] + extra
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        fail("%s exited %d: %s" % (" ".join(cmd), out.returncode,
                                  out.stderr[-2000:]))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = re.search(r"digest ([0-9a-f]{16})", out.stdout)
    if not digest:
        fail("%s printed no digest" % workload)
    return result, digest.group(1)


def check_result(workload, result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s: correct=%s failed=%s" % (workload, result["correct"],
                                           result["failed"]))
    if result["attempted"] < 1:
        fail("%s: nothing attempted" % workload)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        fail("%s: metrics/units differ from BENCHMARK.json: missing %s, "
             "extra %s" % (workload, sorted(set(want) - set(got)),
                           sorted(set(got) - set(want))))
    for name, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            fail("%s: %s is not a number" % (workload, name))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]] + ["mesh_sharded"]
    for name in names:
        result, d1 = run(name, 1, 0, [])
        check_result(name, result, bench["end_to_end"])
        for metric in bench["end_to_end"]:
            if result["metrics"][metric["name"]]["value"] <= 0:
                fail("%s: %s is not positive" % (name, metric["name"]))
        traced, dt = run(name, 1, 1, [])
        check_result(name, traced, bench["per_layer"])
        _, d2 = run(name, 2, 0, [])
        if d1 != dt:
            fail("%s: traced digest %s != untraced %s" % (name, dt, d1))
        if d1 == d2:
            fail("%s: seeds 1 and 2 gave the same digest" % name)
        for extra in INVARIANT.get(name, []):
            _, d = run(name, 1, 0, extra)
            if d != d1:
                fail("%s %s: digest %s != %s" % (name, " ".join(extra),
                                                 d, d1))
        print("ok   %-14s digest %s" % (name, d1))
    print("smoke test passed")


if __name__ == "__main__":
    main()
