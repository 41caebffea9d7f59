#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload compute --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Builds the benchmark and `rpb` with dune
into .bench_build/ (no dune cache, so nothing is written outside the
checkout), then runs perfbench/main.exe, which prints one JSON result as
its last line of standard output.  A run with a wrong output still prints
its result, with "correct": false, and exits 1; a failed build or a run
that crashes or takes longer than TIMEOUT_S seconds prints no result and
exits non-zero.
"""

import argparse
import os
import signal
import subprocess
import sys

BUILD = ".bench_build"
TIMEOUT_S = 175


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    out = os.path.join(BUILD, "perfbench")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir",
         os.path.join(root, BUILD, "dune"),
         "./perfbench/main.exe", "./bin/rpb.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    exe = os.path.join(BUILD, "dune", "default")
    # Own process group, so the rpb server it starts cannot outlive the run.
    proc = subprocess.Popen(
        [os.path.join(exe, "perfbench", "main.exe"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--rpb", os.path.join(exe, "bin", "rpb.exe"), "--out", out],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % TIMEOUT_S, file=sys.stderr)
        stdout = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    # A run whose outputs were wrong still reports, then fails.
    if lines and lines[-1].startswith("{") and proc.returncode in (0, 1):
        print(lines[-1])
        return proc.returncode
    print("perfbench: run failed (exit %d)" % proc.returncode, file=sys.stderr)
    return proc.returncode or 1


if __name__ == "__main__":
    sys.exit(main())
