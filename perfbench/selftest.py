"""Fast self-test of the benchmark.

Runs one short pass of every workload (--seconds 1 stops after the first
whole pass) and requires a well-formed result line with every end-to-end
metric, correct outputs and 0 failed ops.  Then checks that the benchmark,
copied without the package source, exits non-zero without a result.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    problems = []
    for w in spec["workloads"]:
        proc = run(ROOT, "--workload", w["name"], "--seed", "0",
                   "--seconds", "1", "--trace", "0")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            problems.append(f"{w['name']}: exit {proc.returncode}\n"
                            f"{proc.stderr}")
            continue
        result = json.loads(lines[-1])
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"{w['name']}: result keys {sorted(result)}")
        if units != wanted:
            problems.append(f"{w['name']}: metrics {units}")
        if not result["correct"] or result["failed"] or \
                result["attempted"] < 1:
            problems.append(f"{w['name']}: {result}\n{proc.stderr}")
        print(f"{w['name']}: attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(bare, "--workload", spec["workloads"][0]["name"], "--seed",
               "0", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without the package source: exit "
                        f"{proc.returncode}, output {proc.stdout!r}")
    else:
        print(f"without the package source: exit {proc.returncode}")

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
