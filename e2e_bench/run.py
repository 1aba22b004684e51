#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 e2e_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the simulator libraries and the
benchmark driver into .bench_build/ (RelWithDebInfo, the repository's
default build type); later calls only re-check the build. Build output
goes to stderr, so the last line of stdout is the driver's JSON result.
Every argument is passed to the driver unchanged; a traced run also
writes its spans to .bench_build/spans-<workload>-<seed>.json.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2e_bench")


def build():
    """Configure (once) and build; returns False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "e2e_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def spans_path(args):
    """Spans file of a traced run, or None for an untraced one."""
    opts = dict(zip(args[::2], args[1::2]))
    if opts.get("--trace") != "1" or "--spans" in opts:
        return None
    name = "spans-%s-%s.json" % (opts.get("--workload", "x"),
                                 opts.get("--seed", "x"))
    return os.path.join(BUILD, os.path.basename(name))


def main():
    args = sys.argv[1:]
    if not build():
        print("e2e_bench: build failed", file=sys.stderr)
        return 1
    spans = spans_path(args)
    if spans:
        args += ["--spans", spans]
    sys.stdout.flush()
    return subprocess.run([BINARY] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
