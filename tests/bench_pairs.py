"""Paired timings of two checkouts, for the BENCH_*.json files.

    python3 tests/bench_pairs.py fresh P C --pairs 9 --out B.json
    python3 tests/bench_pairs.py perfbench P C --pairs 10 --out B.json
    python3 tests/bench_pairs.py scaling P C --pairs 5 --out B.json
    python3 tests/bench_pairs.py solve P C --pairs 5 --out B.json
    python3 tests/bench_pairs.py bundle P C --pairs 10 --out B.json

P (the parent) and C (the change) are the roots of two checkouts; give
them paths of equal length.  In each pair both sides run once, the parent
first in odd pairs and the change first in even ones.

Each side's run in a pair gets its own new PYTHONPYCACHEPREFIX and
PYTHONDONTWRITEBYTECODE=1.  Python then reads no __pycache__ left in a
side's src/ by a test run, which made that side's import and set-up
read low.  Before the run, one process with writing allowed imports the
package, perfbench's modules and what they import into the prefix, and
the bytecode of the side's own files is then deleted: the standard
library, numpy and scipy load from bytecode, as they do from an
installed Python, and every run compiles the side's files from source,
as a new checkout does.

fresh: what a user pays for one command.  Each case runs in a new Python
process that imports the package from the side's src/: the bare import
of csobstruct.cli, and cli.run of chern on t3, sharpness on rp3,
homology --degree 1 --ring int on t3 and cs-grad-check on T^3(7).  The
inputs (the two fixtures, T^3(7), an int 2-cocycle on t3 that sums its
free generators and the torsion generator of rp3) are written once, by
this tree's package, to a temporary directory.  Each run records its
wall time and its CPU time (RUSAGE_CHILDREN), in ms.

perfbench: python3 perfbench/run.py --seed <pair> --trace 0 in the
side's root; each run records the end-to-end metrics of its last line.

scaling: integer cohomology of every degree (homology_groups with the
int ring, then integral_generators) of T^3(5), T^3(6), T^3(7) and
S^1 x S^2 x S^2 (ordered_product of s1xs2 and sphere2), one fresh
process per case that imports the package from the side's src/.  The
child times the cohomology alone, after building the complex, and
reports its own peak RSS (ru_maxrss of RUSAGE_SELF): RUSAGE_CHILDREN
keeps one maximum over all children, so it cannot give per-run peaks.
It also prints a sha256 of the groups, generators and class maps P_k of
every degree, and main stops with an error when the two sides' digests
differ on any case: the change must give bit-identical outputs.

solve: homology._least_squares at degree 2 (the flatten and primitive
solve) on t3, rp3, T^3(5) and T^3(6), one fresh process per case that
imports the package from the side's src/, with the BLAS pool pinned to
one thread as in perfbench.  The right-hand side is b = d_1 y for a
fixed-seed normal y, so it is exact.  The child times the first solve
on the new complex (which builds whatever the solve memoizes) and a
repeated one, and prints its peak RSS (ru_maxrss), how much the first
solve raised it, and max |d x - b| of the repeated solve.

bundle: the library calls of one warm-bundles op of perfbench
(make_bundle, flatten, real_chern_class, sharpness_check and
obstruction_class) on t3 and rp3, one fresh process per case that
imports the package from the side's src/, with the BLAS pool pinned to
one thread.  The child fills the caches the op reads (the real bases of
degrees 1 to 3 and one whole op), then times each call on its own, 300
times, and records the median in microseconds.  The Chern cocycle is the
sum of the free H^2 generators on t3 (not flat) and the torsion
generator on rp3 (flat); gamma is the witness, or an exact 1-cochain when
there is none.  In the first op the child counts the as_float calls on
the Chern cocycle, and it prints a sha256 of the op's outputs; main
stops with an error when the two sides' digests differ.

Results merge into --out under the mode's name: every run, and per
metric the medians, the parent's quartiles, and in how many pairs the
change was better.  The file name does not match test_*.py, so pytest
does not collect it.
"""

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import csobstruct as cs                                     # noqa: E402

ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS")}
RUN = "import sys, csobstruct.cli as c; sys.exit(c.run(sys.argv[1:]))"
CASES = {
    "import": ["-c", "import csobstruct.cli"],
    "chern t3": ["-c", RUN, "chern", "{t3}", "{t3_int2}"],
    "sharpness rp3": ["-c", RUN, "sharpness", "{rp3}", "{rp3_int2}"],
    "homology t3 --degree 1 --ring int":
        ["-c", RUN, "homology", "{t3}", "--degree", "1", "--ring", "int"],
    "cs-grad-check t3(7)": ["-c", RUN, "cs-grad-check", "{t3_7}"],
}
SCALING = ["t3(5)", "t3(6)", "t3(7)", "s1xs2xs2"]
SOLVE = ["t3", "rp3", "t3(5)", "t3(6)"]
SOLVE_RUN = """
import json, resource, sys, time
import numpy as np
import csobstruct as cs
from csobstruct.homology import _least_squares
K = cs.generate(sys.argv[1])
y = np.random.default_rng(0).standard_normal(K.n_simplices(1))
b = cs.apply_d(K, cs.Cochain(1, "real", y)).values
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
t0 = time.perf_counter()
_least_squares(K, 2, b)
t1 = time.perf_counter()
_, residual = _least_squares(K, 2, b)
t2 = time.perf_counter()
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"first_ms": 1e3 * (t1 - t0), "repeat_ms": 1e3 * (t2 - t1),
                  "peak_rss_mb": peak, "first_rss_increment_mb": peak - before,
                  "max_residual": float(np.max(np.abs(residual)))}))
"""
BUNDLE = ["t3", "rp3"]
BUNDLE_RUN = """
import hashlib, json, statistics, sys, time
import numpy as np
import csobstruct as cs
from csobstruct import bundle, obstruction
K = cs.generate(sys.argv[1])
for k in (1, 2, 3):
    cs.basis(K, k)
free, torsion = cs.integral_generators(K, 2)
c = cs.Cochain(2, "int", sum(free) if free else torsion[0][1])
gamma = cs.apply_d(K, cs.Cochain(0, "real", np.random.default_rng(0)
                                 .standard_normal(K.n_simplices(0))))
as_float, calls = cs.Cochain.as_float, []

def spy(self):
    calls.append(self is c)
    return as_float(self)

cs.Cochain.as_float = spy
b = bundle.make_bundle(K, c)
flat = bundle.flatten(b)
chern = bundle.real_chern_class(b)
verdict = obstruction.sharpness_check(K, b)
sym = obstruction.VerticalSymmetry(
    gamma if verdict.witness is None else verdict.witness[0])
cls = obstruction.obstruction_class(K, sym, b, flat.connection)
cs.Cochain.as_float = as_float
out = {"as_float_calls": calls.count(True)}
steps = {
    "make_bundle": lambda: bundle.make_bundle(K, c),
    "flatten": lambda: bundle.flatten(b),
    "real_chern_class": lambda: bundle.real_chern_class(b),
    "sharpness_check": lambda: obstruction.sharpness_check(K, b),
    "obstruction_class": lambda: obstruction.obstruction_class(
        K, sym, b, flat.connection)}
for name, call in steps.items():
    times = []
    for _ in range(300):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    out[f"{name}_us"] = 1e6 * statistics.median(times)
parts = [flat.connection.values, np.array([flat.residual, flat.tolerance]),
         flat.obstruction_coords, chern, verdict.all_pairings, cls]
text = repr((flat.flat, verdict.flat_exists, verdict.bundle_id,
             verdict.witness and verdict.witness[1]))
out["digest"] = hashlib.sha256(b"".join(
    [p.tobytes() for p in parts] + [text.encode()])).hexdigest()
print(json.dumps(out))
"""
WARM = ("import csobstruct.cli, gc, json, resource, shutil, statistics, "
        "traceback, layertrace, workloads")
SCALING_RUN = """
import hashlib, json, resource, sys, time
import csobstruct as cs
from csobstruct.homology import _cohomology
name = sys.argv[1]
K = cs.ordered_product(cs.generate("s1xs2"), cs.generate("sphere2")) \\
    if name == "s1xs2xs2" else cs.generate(name)
t0 = time.perf_counter()
for k in range(K.dim + 1):
    cs.homology_groups(K, k, "int")
    cs.integral_generators(K, k)
wall = time.perf_counter() - t0
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
doc = []
for k in range(K.dim + 1):
    free, torsion, P = _cohomology(K, k)
    doc.append([str(cs.homology_groups(K, k, "int")),
                [[int(x) for x in g] for g in free],
                [[int(o), [int(x) for x in g]] for o, g in torsion],
                [[int(x) for x in row] for row in P]])
digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
print(json.dumps({"wall_s": wall, "peak_rss_mb": peak, "digest": digest}))
"""


def _write_inputs(root):
    paths = {}
    for name in ("t3", "rp3"):
        K = cs.generate(name)
        free, torsion = cs.integral_generators(K, 2)
        vals = sum(free) if free else torsion[0][1]
        paths[name] = root / f"{name}.json"
        paths[name].write_text(cs.dump_complex(K))
        paths[f"{name}_int2"] = root / f"{name}.int2.json"
        paths[f"{name}_int2"].write_text(cs.dump_cochain(
            cs.Cochain(2, "int", np.asarray(vals, dtype=object))))
    paths["t3_7"] = root / "t3(7).json"
    paths["t3_7"].write_text(cs.dump_complex(cs.generate("t3(7)")))
    return {k: str(v) for k, v in paths.items()}


def _bytecode_env(side, prefix):
    """The environment of one side's run: bytecode is read from prefix
    and never written.  The prefix gets what WARM imports, less the
    bytecode of the files under side."""
    side = os.path.abspath(side)
    env = dict(os.environ, PYTHONPYCACHEPREFIX=prefix,
               PYTHONDONTWRITEBYTECODE="1")
    warm = dict(env, PYTHONPATH=os.pathsep.join(
        (os.path.join(side, "src"), os.path.join(side, "perfbench"))))
    del warm["PYTHONDONTWRITEBYTECODE"]
    subprocess.run([sys.executable, "-c", WARM], env=warm, check=True)
    shutil.rmtree(os.path.join(prefix, side.lstrip(os.sep)))
    return env


def _fresh_run(side, env, inputs):
    env = dict(env, PYTHONPATH=str(pathlib.Path(side) / "src"))
    out = {}
    for case, argv in CASES.items():
        argv = [a.format(**inputs) for a in argv]
        cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        subprocess.run([sys.executable] + argv, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
        out[f"{case}.wall_ms"] = 1e3 * wall
        out[f"{case}.cpu_ms"] = 1e3 * cpu
    return out


def _child_run(side, env, script, cases):
    env = dict(env, PYTHONPATH=str(pathlib.Path(side) / "src"))
    out = {}
    for case in cases:
        proc = subprocess.run([sys.executable, "-c", script, case],
                              env=env, check=True, capture_output=True,
                              text=True)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        out.update({f"{case}.{k}": v for k, v in last.items()})
    return out


def _perfbench_run(side, env, seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", str(seed),
         "--trace", "0"], cwd=side, env=env, check=True,
        capture_output=True, text=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return {**{k: m["value"] for k, m in last["metrics"].items()},
            "failed": last["failed"], "correct": last["correct"]}


def _summary(pairs, better):
    out = {}
    for metric in pairs[0]["parent"]:
        if metric in ("failed", "correct") or metric.endswith(".digest"):
            continue
        p = [r["parent"][metric] for r in pairs]
        c = [r["change"][metric] for r in pairs]
        q1, _, q3 = statistics.quantiles(p, n=4)
        lower = better(metric) == "lower"
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        out[metric] = {
            "better": better(metric),
            "parent_median": statistics.median(p),
            "parent_quartiles": [q1, q3],
            "change_median": statistics.median(c),
            "change_over_parent": statistics.median(c) / statistics.median(p),
            "change_better_in": f"{wins}/{len(pairs)}",
            "parent_range": [min(p), max(p)],
            "change_range": [min(c), max(c)],
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode",
                        choices=("fresh", "perfbench", "scaling", "solve",
                                 "bundle"))
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--pairs", type=int, default=9)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("quartiles need at least 2 pairs")
    if len(str(args.parent.resolve())) != len(str(args.change.resolve())):
        parser.error("the two checkout paths must have equal length")

    with tempfile.TemporaryDirectory() as tmp:
        inputs = _write_inputs(pathlib.Path(tmp))
        pairs = []
        for i in range(1, args.pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            pair = {}
            for side in order:
                root = getattr(args, side)
                with tempfile.TemporaryDirectory(dir=tmp) as prefix:
                    env = _bytecode_env(root, prefix)
                    if args.mode == "fresh":
                        pair[side] = _fresh_run(root, env, inputs)
                    elif args.mode == "scaling":
                        pair[side] = _child_run(root, env, SCALING_RUN,
                                                SCALING)
                    elif args.mode in ("solve", "bundle"):
                        script, cases = (SOLVE_RUN, SOLVE) if args.mode == \
                            "solve" else (BUNDLE_RUN, BUNDLE)
                        pair[side] = _child_run(root, dict(env, **ONE_THREAD),
                                                script, cases)
                    else:
                        pair[side] = _perfbench_run(root, env, i)
            checked = {"scaling": SCALING, "bundle": BUNDLE}
            moved = [case for case in checked.get(args.mode, []) if
                     pair["parent"][f"{case}.digest"] !=
                     pair["change"][f"{case}.digest"]]
            if moved:
                sys.exit(f"pair {i}: outputs differ on {', '.join(moved)}")
            pairs.append(pair)
            print(f"pair {i}/{args.pairs} done", file=sys.stderr)

    bounds = json.loads((args.change / "BENCHMARK.json").read_text())
    direction = {m["name"]: m["better"] for m in bounds["end_to_end"]}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[args.mode] = {
        "host": f"{os.cpu_count()} cores, {platform.machine()}, Python "
                f"{platform.python_version()}, numpy {np.__version__}",
        "order": "the parent first in odd pairs, the change in even ones",
        "summary": _summary(pairs, lambda m: direction.get(
            m.rsplit(".", 1)[-1], "lower")),
        "pairs": pairs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
