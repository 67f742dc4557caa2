"""Median and spread of every end-to-end metric over the saved untraced runs.

    python3 eqbench/summary.py

Reads eqbench/out/result-<workload>-<seed>-trace0.json and prints, per
workload and metric, the median over the seeds and the distance between the
first and third quartile as a share of the median.
"""

import json
import statistics
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"


def main():
    runs = {}
    for path in sorted(OUT_DIR.glob("result-*-trace0.json")):
        workload = path.name.split("-")[1]
        runs.setdefault(workload, []).append(json.loads(path.read_text()))
    for workload, results in runs.items():
        shares = {(r["failed"], r["attempted"]) for r in results}
        print("%s: %d runs, all correct: %s, failed/attempted: %s"
              % (workload, len(results), all(r["correct"] for r in results), sorted(shares)))
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            print("  %-16s %12.6g %-7s spread %.3f" % (name, median, first["unit"],
                                                        (q3 - q1) / median if median else 0.0))


if __name__ == "__main__":
    main()
