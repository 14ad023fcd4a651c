#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload night|paper|armed-night \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The OCaml program is built with dune into
.bench_build/ (the dune cache is off, so nothing is written outside the
checkout) and run once. Its last stdout line is one JSON object whose
metric names come from BENCHMARK.json; its keys are checked before it is
passed on. Exits non-zero without a result line if the build, the run or
that check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(env):
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=800)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed (exit %d)" % done.returncode)


def run_env():
    """The run's environment: glibc keeps the memory the program frees.

    The OCaml runtime takes every block over 1 KiB (a 4 KiB file-system
    block, an 8 MiB volume) from malloc. By default glibc hands freed
    memory back to the kernel and faults it in again on the next pass, and
    on a virtual machine those faults cost a varying share of a pass.
    """
    return dict(os.environ,
                MALLOC_TRIM_THRESHOLD_=str(1 << 34),
                MALLOC_MMAP_MAX_="0",
                MALLOC_TOP_PAD_=str(1 << 26))


def check_result(line):
    try:
        r = json.loads(line)
    except ValueError:
        fail("last line is not JSON: %r" % line[:200])
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys %s" % sorted(r))
    if not isinstance(r["attempted"], int) or r["attempted"] < 1:
        fail("attempted %r" % r["attempted"])
    return r


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["night", "paper", "armed-night"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout of the repository")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build(env)
    out = os.path.join(BUILD_DIR, "out")
    os.makedirs(out, exist_ok=True)
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace), "--out", out,
           "--spec", "BENCHMARK.json"]
    t0 = time.time()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=run_env())
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail("run failed (exit %d)" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("run printed no result")
    r = check_result(lines[-1])
    if not r["correct"]:
        print("perfbench: outputs failed their checks (see above)",
              file=sys.stderr)
    print("perfbench: %s ran %.1f s" % (a.workload, time.time() - t0),
          file=sys.stderr)
    print(lines[-1])


if __name__ == "__main__":
    main()
