#!/usr/bin/env python3
"""Build and run the in-process skope benchmark (perfbench/bench.ml).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from anywhere inside a source tree of the repository; the tree is
located from this file.  The program is built with dune from source.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  A readable
summary goes to standard error.

`setup_s` is the median set-up time of SETUP_RUNS processes: the
measured run and SETUP_RUNS - 1 set-up-only runs, each with its own
fresh dispatcher.  Everything else comes from the measured run alone.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["warm_hits", "cold_whatif", "explore_grid", "static_checks"]
SETUP_RUNS = 5
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", os.path.join("lib", "service", "dispatch.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} is missing: run inside a full source tree of the repository")
    # The shared dune cache lives outside the tree; keep the build inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if proc.returncode != 0:
        fail(f"build failed with exit code {proc.returncode}")


def bench(*args, timeout):
    """Run the benchmark program; its last stdout line is JSON."""
    try:
        proc = subprocess.run([EXE, *map(str, args)], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark program failed: {e}")
    if proc.returncode != 0:
        fail(f"benchmark program exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("benchmark program printed no result")
    return json.loads(lines[-1])


def run_one(workload, seed, seconds, trace):
    common = ["--workload", workload, "--seed", seed, "--seconds", seconds]
    if trace:
        return bench(*common, "--trace", 1, timeout=seconds + 100)
    setups = []
    # Set-up-only runs on both sides of the measured run.
    for _ in range((SETUP_RUNS - 1) // 2):
        setups.append(bench(*common, "--setup-only", timeout=30)["setup_s"])
    result = bench(*common, "--trace", 0, timeout=seconds + 100)
    setups.append(result["metrics"]["setup_s"]["value"])
    while len(setups) < SETUP_RUNS:
        setups.append(bench(*common, "--setup-only", timeout=30)["setup_s"])
    result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(f"  setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}",
          file=sys.stderr)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return
    rows = []
    for w in WORKLOADS:
        r = run_one(w, args.seed, args.seconds, args.trace)
        rows.append((w, r))
    all_ok = True
    for w, r in rows:
        all_ok = all_ok and r["correct"]
        print(f"{w}: correct={r['correct']} attempted={r['attempted']} "
              f"succeeded={r['attempted'] - r['failed']} failed={r['failed']}")
        for name, m in r["metrics"].items():
            print(f"  {name:36s} {m['value']:14.4f} {m['unit']}")
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
