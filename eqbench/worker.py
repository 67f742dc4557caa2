"""Runs one workload in this process and prints its figures as one JSON line.

Started by run.py in a fresh process with the thread variables pinned to 1
and PYTHONPATH set to the checkout's src/.  A run repeats whole passes over
the workload's operations until --seconds have gone by (and at least
MIN_OPS operations have run), so every run attempts whole rounds of the same
operations.  Only the operations are timed; their outputs are checked after
each pass.  With --trace 1, traced and untraced passes alternate and the
per-layer figures come from the traced ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import eqmap

import refs
import trace
from workloads import WORKLOADS

MIN_OPS = 100
MIN_PASSES = 3
OUT_DIR = Path(__file__).resolve().parent / "out"


class Run:
    def __init__(self, workload):
        self.workload = workload
        self.acc = refs.Accuracy()
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.untraced_walls = []
        self.traced_walls = []
        self.op_ms = []
        self.tracers = []

    def note(self, msg):
        sys.stderr.write(msg + "\n")

    def run_pass(self, tracer=None):
        ops = self.workload.ops
        self.workload.reset()
        results = []
        times = []
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            for op in ops:
                t0 = time.perf_counter()
                try:
                    value, exc = op.fn(), None
                except Exception as err:  # an operation's failure is counted, not fatal
                    value, exc = None, err
                times.append(time.perf_counter() - t0)
                results.append((value, exc))
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is None:
            self.untraced_walls.append(wall)
            self.op_ms += [1000 * t for t in times]
        else:
            self.traced_walls.append(wall)
            self.tracers.append(tracer)
        self.check(ops, results)

    def check(self, ops, results):
        outputs = {op.name: value for op, (value, exc) in zip(ops, results) if exc is None}
        for op, (value, exc) in zip(ops, results):
            self.attempted += 1
            if op.expect is not None:
                if not isinstance(exc, op.expect):
                    self.failed += 1
                    self.note("FAILED %s: expected %s, got %r"
                              % (op.name, op.expect.__name__, exc if exc else value))
            elif exc is not None:
                self.failed += 1
                self.note("FAILED %s: %s: %s" % (op.name, type(exc).__name__, exc))
            elif op.check is not None:
                try:
                    op.check(value, self.acc, outputs)
                except refs.Wrong as wrong:
                    self.correct = False
                    self.note("WRONG %s: %s" % (op.name, wrong))


def _quantile(values, q):
    cuts = statistics.quantiles(values, n=10) if len(values) > 1 else values * 9
    return cuts[q - 1]


def end_to_end(run):
    return {
        "wall_s": statistics.median(run.untraced_walls),
        "op_p50_ms": _quantile(run.op_ms, 5),
        "op_p90_ms": _quantile(run.op_ms, 9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "accuracy_digits": run.acc.worst_digits,
    }


def per_layer(run, seed, workload_name, smoke):
    per_pass = [t.metrics() for t in run.tracers]
    out = {}
    for name in trace.metric_names():
        values = [m[name] for m in per_pass]
        if name.endswith("_s"):
            out[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                run.note("count %s differs between traced passes: %r" % (name, values))
            out[name] = values[-1]
    out["trace.overhead_pct"] = 100 * (statistics.median(run.traced_walls)
                                       / statistics.median(run.untraced_walls) - 1)
    if smoke:
        return out
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / ("trace-%s-%d.jsonl" % (workload_name, seed)), "w") as fh:
        for index, tracer in enumerate(run.tracers):
            tracer.write(fh, index)
    from eqmap.acceptance import run_all
    run.workload.reset()
    for res in run_all():
        out["acceptance.c%02d_s" % res.number] = res.seconds
        if not res.passed:
            run.correct = False
            run.note("acceptance criterion %d failed: %s" % (res.number, res.detail))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    src = Path(os.environ.get("PYTHONPATH", "")).resolve()
    if Path(eqmap.__file__).resolve().parent != src / "eqmap":
        sys.exit("eqmap was imported from %s, not from %s" % (eqmap.__file__, src))

    run = Run(WORKLOADS[args.workload](args.seed, smoke=args.smoke))
    unrejected = refs.unrejected_controls()
    if unrejected:
        run.correct = False
        run.note("negative controls not rejected: %s" % unrejected)

    start = time.perf_counter()
    while True:
        run.run_pass()
        if args.trace:
            run.run_pass(trace.Tracer())
        if args.smoke:
            break
        if (time.perf_counter() - start >= args.seconds
                and len(run.op_ms) >= MIN_OPS
                and (args.trace or len(run.untraced_walls) >= MIN_PASSES)):
            break

    metrics = (per_layer(run, args.seed, args.workload, args.smoke) if args.trace
               else end_to_end(run))
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
