"""Benchmark of eqmap: one workload per call, in a fresh single-threaded process.

    python3 eqbench/run.py --workload solve|density|maps --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from src/ of the checkout this
file sits in.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  --smoke runs
one short pass of each check instead of a measurement.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
WORKLOADS = ("solve", "density", "maps")
SETUP_SAMPLES = 9
CHILD_LIMIT_S = 170.0

PINNED = {
    "EQMAP_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
}

# What a program start pays before its first operation can run.
PROBE = "import numpy, eqmap, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return "count"


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC), **PINNED)
    env.pop("PYTHONSTARTUP", None)
    return env


def setup_seconds(env):
    """Median time from process start until eqmap and numpy are imported.

    The first start is not counted: it may write the bytecode cache.
    """
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", PROBE], stdout=subprocess.PIPE,
                                env=env, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != b"ready" or code != 0:
            sys.exit("importing eqmap failed (exit code %d)" % code)
        samples.append(elapsed)
    return statistics.median(samples[1:])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one short pass of every check, for the benchmark's own tests")
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "eqmap" / "__init__.py").is_file():
        sys.exit("no eqmap package under %s: run from a full checkout" % SRC)
    env = child_env()
    setup = None if args.trace else setup_seconds(env)

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
    limit = CHILD_LIMIT_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, timeout=limit)
    except subprocess.TimeoutExpired:
        sys.exit("workload %s did not finish within %.0f s" % (args.workload, limit))
    if proc.returncode != 0:
        sys.exit("workload %s exited with code %d" % (args.workload, proc.returncode))
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])

    raw = result["metrics"]
    if setup is not None:
        raw["setup_s"] = setup
    units = UNITS if not args.trace else {name: layer_unit(name) for name in raw}
    result["metrics"] = {name: {"value": raw[name], "unit": units[name]} for name in units}

    if not args.smoke:
        OUT_DIR.mkdir(exist_ok=True)
        name = "result-%s-%d-trace%d.json" % (args.workload, args.seed, args.trace)
        (OUT_DIR / name).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
