"""Tests of the benchmark itself: negative controls, smoke runs of every
workload (untraced and traced) and the refusal to run without the program.

    python3 -m pytest eqbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import refs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "eqbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170)


def test_negative_controls_are_rejected():
    assert refs.unrejected_controls() == []


def test_every_table_entry_of_the_printed_rows_matters():
    for k, (phi, psi) in enumerate(zip(refs.PRINTED_C_PHI, refs.PRINTED_C_PSI)):
        for row in (phi, psi):
            for m, entry in enumerate(row):
                if entry:
                    row[m] = -entry
                    assert not refs.identity_holds(k, phi, psi, refs.Fraction(3))
                    row[m] = entry
        assert refs.identity_holds(k, phi, psi, refs.Fraction(3))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("traced", [0, 1])
def test_smoke(workload, traced):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--trace", str(traced), "--smoke")
    assert proc.returncode == 0, proc.stderr.decode()
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr.decode()
    assert result["attempted"] >= 1
    # the density workload keeps one operation that fails today, once a pass
    assert result["failed"] == (1 + traced if workload == "density" else 0)
    if traced:
        # the acceptance timings are left out of a smoke run
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]
                if not m["name"].startswith("acceptance.")}
    else:
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "eqbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == b""
