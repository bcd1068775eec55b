#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload sweep-mc --seed 42 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  The build goes to ./_build (dune, shared
cache off).  The OCaml program prints the run description on lines
starting with "#" and one JSON result as its last line; this wrapper
checks that the result names exactly the metrics BENCHMARK.json lists
for the chosen trace mode, and exits with the program's exit code.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXES = ["./perfbench/main.exe", "./perfbench/selftest.exe"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def git_rev():
    """The commit from .git without running git (it may walk out of the
    checkout); "unknown" outside a git checkout."""
    try:
        with open(".git/HEAD") as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown"


def build(env):
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet"] + EXES,
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed (dune exit %d)" % r.returncode)


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and (not args.workload or args.seconds is None):
        fail("--workload and --seconds are required")
    if not os.path.isfile("dune-project"):
        fail("run from the repository root (no dune-project here)")

    env = dict(os.environ, DUNE_CACHE="disabled")
    build(env)
    exe = os.path.join("_build", "default", "perfbench")
    if args.self_test:
        cmd = [os.path.join(exe, "selftest.exe")]
    else:
        cmd = [os.path.join(exe, "main.exe"),
               "--workload", args.workload,
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--nproc", str(len(os.sched_getaffinity(0))),
               "--git-rev", git_rev()]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.splitlines()
    if args.self_test:
        sys.stdout.write(r.stdout)
        sys.exit(r.returncode)
    if r.returncode not in (0, 1) or not lines:
        sys.stdout.write(r.stdout)
        fail("benchmark exited %d without a result" % r.returncode)

    try:
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError) as e:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("malformed result line: %s" % e)
    want = expected_metrics(args.trace == 1)
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("result metrics %s differ from BENCHMARK.json %s" % (got, want))
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
