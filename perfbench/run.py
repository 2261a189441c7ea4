"""Benchmark of the csobstruct library and CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Each workload runs in a fresh process (child.py) whose environment pins
the BLAS pool to one thread and whose address space is not randomized, so
timings and peak memory belong to that workload alone and repeat.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json; with --trace 1 they are the per-layer
ones.  Results and spans are also written to perfbench/out/.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("cold-reports", "warm-bundles", "cech-descent")
CHILD_TIMEOUT_S = 175

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    # every run compiles the package the same way instead of the first
    # run paying for bytecode that later runs reuse
    "PYTHONDONTWRITEBYTECODE": "1",
}
ADDR_NO_RANDOMIZE = 0x0040000   # Linux personality flag


def _fixed_layout():
    """Turn off address-space randomization in the child about to exec.

    With it on, the peak resident set of one workload took one of two
    values 8% apart from run to run; the flag acts on this process only.
    """
    libc = ctypes.CDLL(None)
    persona = libc.personality(0xFFFFFFFF)   # query, changes nothing
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


def run_workload(name, seed, seconds, trace):
    """Run one workload in a fresh process; return (exit code, result)."""
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    cmd = [sys.executable, os.path.join(HERE, "child.py"), name, str(seed),
           str(seconds), str(trace), OUT]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S,
                              preexec_fn=_fixed_layout)
    except subprocess.TimeoutExpired:
        print(f"error: {name} ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1, None
    return 0, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isdir(os.path.join(SRC, "csobstruct")):
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        code, result = run_workload(name, args.seed, args.seconds, args.trace)
        if code != 0:
            return code
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0

    combined = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {}}
    for name, r in results.items():
        print(f"{name}: attempted {r['attempted']}, failed {r['failed']}, "
              f"correct {r['correct']}")
        for metric, m in r["metrics"].items():
            print(f"  {metric:32s} {m['value']:14.4f} {m['unit']}")
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
