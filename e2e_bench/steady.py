#!/usr/bin/env python3
"""Check that the benchmark is steady, and record a baseline.

    python3 e2e_bench/steady.py [--runs 10] [--first-seed 100]
                                [--workloads a,b] [--baseline PATH]

Runs every workload of BENCHMARK.json --runs times, each with another
seed (first-seed, first-seed+1, ...), untraced, for run_seconds each.
For every end-to-end metric it prints the median of the runs and their
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A spread
above the metric's bound fails the check (setup_s is exempt); one above
a third of the bound is flagged. --baseline writes the medians, the
spreads and the host fingerprint as JSON. Exits non-zero if any run is
incorrect or any spread fails.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fingerprint():
    """CPU, core count, compiler and build type of this host's build."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            m = re.search(r"model name\s*:\s*(.*)", f.read())
            cpu = m.group(1).strip() if m else cpu
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(ROOT, ".bench_build", "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)",
                             line)
                if m:
                    cache[m.group(1)] = m.group(2).strip()
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"],
                                 capture_output=True, text=True
                                 ).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {"cpu": cpu, "nproc": os.cpu_count(), "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "kernel": platform.release()}


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError("%s seed %d exited %d: %s" % (
            workload, seed, out.returncode, out.stderr[-2000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--baseline", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    ok = True
    report = {"host": fingerprint(), "runs": args.runs,
              "seeds": [args.first_seed, args.first_seed + args.runs - 1],
              "run_seconds": bench["run_seconds"], "workloads": {}}
    for name in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(args.runs):
            res = run_once(name, args.first_seed + i, bench["run_seconds"])
            if not res["correct"] or res["failed"]:
                print("INCORRECT: %s seed %d" % (name, args.first_seed + i))
                ok = False
            for k in values:
                values[k].append(res["metrics"][k]["value"])
            print("  seed %d: %s" % (args.first_seed + i, " ".join(
                "%s=%.4g" % (k, v[-1]) for k, v in values.items())))
        print("%s (%d runs)" % (name, args.runs))
        report["workloads"][name] = {}
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            verdict = "ok"
            if spread > m["bound"] and m["name"] != "setup_s":
                verdict = "FAIL"
                ok = False
            elif spread > m["bound"] / 3:
                verdict = "wide"
            print("  %-22s median %12.6g %-10s spread %.4f (bound %.2f) %s"
                  % (m["name"], med, m["unit"], spread, m["bound"],
                     verdict))
            report["workloads"][name][m["name"]] = {
                "median": med, "spread": spread, "unit": m["unit"],
                "values": v}
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
