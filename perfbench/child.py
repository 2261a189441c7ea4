"""Runs one workload in this process and prints its result line.

Started by run.py with a pinned environment; not meant to be run by hand.
Usage: child.py WORKLOAD SEED SECONDS TRACE OUTDIR
"""

from __future__ import annotations

from time import perf_counter

_T_IMPORT = perf_counter()
import csobstruct  # noqa: E402  (the import is part of set-up time)
IMPORT_S = perf_counter() - _T_IMPORT

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from layertrace import COUNTERS, LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# pass index whose inputs feed the warm-up op; no timed pass reaches it
WARMUP_PASS = 2 ** 32 - 1
# the layers set-up calls: building complexes and filling caches
SETUP_LAYERS = ("manifolds", "complex_core", "snf", "homology")


class Tally:
    """Op times and outcomes of a sequence of whole passes."""

    def __init__(self):
        self.times = []           # seconds per op that did not fail
        self.ids = []             # op ids of those ops
        self.labels = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def run_op(self, op, tracer=None):
        gc.collect()
        op_id = self.attempted
        if tracer is not None:
            tracer.current_op = op_id
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = op.call()
        except Exception:
            self.failed += 1
            print(f"FAILED {op.label}:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return
        finally:
            if tracer is not None:
                tracer.current_op = -1
        self.times.append(perf_counter() - t0)
        self.ids.append(op_id)
        self.labels.append(op.label)
        try:
            err = op.check(result)
        except Exception:
            err = traceback.format_exc()
        if err:
            self.wrong += 1
            print(f"WRONG {op.label}: {err}", file=sys.stderr)


def run_passes(workload, seconds):
    """Whole passes until `seconds` have gone by."""
    tally = Tally()
    start = perf_counter()
    p = 0
    while p == 0 or perf_counter() - start < seconds:
        for op in workload.pass_ops(p):
            tally.run_op(op)
        p += 1
    return tally


def warm_up(workload):
    """One op, untimed, so first-call costs stay out of the timed runs.

    Then everything set-up left alive moves to the collector's permanent
    generation, so the collection before each op stays short and the same
    size whatever set-up cached.
    """
    tally = Tally()
    tally.run_op(workload.pass_ops(WARMUP_PASS)[0])
    gc.collect()
    gc.freeze()
    return tally.failed == 0 and tally.wrong == 0


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def timed_metrics(workload, seconds):
    setups = [workload.setup() for _ in range(workload.setup_repeats)]
    warm_ok = warm_up(workload)
    tally = run_passes(workload, seconds)
    times = np.asarray(tally.times)
    metrics = {
        "setup_s": metric(IMPORT_S + statistics.median(setups), "s"),
        "op_p50_ms": metric(np.percentile(times, 50) * 1e3, "ms"),
        "op_p90_ms": metric(np.percentile(times, 90) * 1e3, "ms"),
        "ops_per_s": metric(len(times) / times.sum(), "1/s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return tally, warm_ok, metrics


def traced_metrics(workload, seconds, spans_path):
    """Per-layer metrics per op of a traced run, plus the tracing overhead.

    For the first half of the run each op runs twice, untraced and then
    traced, so the overhead compares the same op at nearly the same time;
    after that, ops run traced only until the pass ends.  The traced ops
    make whole passes and are the ones counted as attempted.
    """
    tracer = Tracer()
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    warm_ok = warm_up(workload)
    plain, tally = Tally(), Tally()
    start = perf_counter()
    paired = True
    p = 0
    while paired:
        for op in workload.pass_ops(p):
            if paired:
                plain.run_op(op)
            tracer.install()
            try:
                tally.run_op(op, tracer)
            finally:
                tracer.uninstall()
            paired = paired and perf_counter() - start < seconds / 2
        p += 1
    tracer.write(spans_path)

    n_ops = max(len(tally.times), 1)
    per_op = {}
    self_s, calls = tracer.layer_totals(in_setup=False)
    for layer in LAYERS:
        per_op[f"{layer}.self_ms"] = metric(self_s[layer] * 1e3 / n_ops, "ms")
        per_op[f"{layer}.calls"] = metric(calls[layer] / n_ops, "count")
    for counter in COUNTERS:
        per_op[counter] = metric(tracer.counts[(False, counter)] / n_ops,
                                 "count")
    roots = tracer.root_seconds()
    covered = sum(roots[i] for i in tally.ids)
    per_op["trace.coverage"] = metric(covered / max(sum(tally.times), 1e-12),
                                      "fraction")
    traced = dict(zip(tally.ids, tally.times))
    pairs = [(traced[i], t) for i, t in zip(plain.ids, plain.times)
             if i in traced]
    per_op["trace.overhead_ms"] = metric(
        1e3 * sum(a - b for a, b in pairs) / max(len(pairs), 1), "ms")
    per_op["trace.op_ms"] = metric(1e3 * sum(tally.times) / n_ops, "ms")
    setup_self, _ = tracer.layer_totals(in_setup=True)
    for layer in SETUP_LAYERS:
        per_op[f"setup.{layer}.self_ms"] = metric(setup_self[layer] * 1e3,
                                                  "ms")
    for counter in ("snf.entries", "snf.repeat_calls"):
        per_op[f"setup.{counter}"] = metric(
            tracer.counts[(True, counter)], "count")

    return tally, warm_ok and plain.wrong == 0, per_op


def main(argv):
    name, seed, seconds, trace, outdir = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    workdir = os.path.join(outdir, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[name](workdir, seed)
        if trace:
            spans = os.path.join(outdir, f"spans-{name}-seed{seed}.jsonl")
            tally, warm_ok, metrics = traced_metrics(workload, seconds, spans)
        else:
            tally, warm_ok, metrics = timed_metrics(workload, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": warm_ok and tally.wrong == 0,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    path = os.path.join(outdir,
                        f"result-{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(dict(result, op_ms=[[label, t * 1e3] for label, t in
                                      zip(tally.labels, tally.times)]),
                  fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
