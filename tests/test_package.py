import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eqmap
from eqmap import acceptance, endpoints


def test_package_has_no_assert_statements():
    # python -O strips assert, so invariants must raise explicitly
    sources = sorted(Path(eqmap.__file__).parent.glob("*.py"))
    assert any(p.name == "endpoints.py" for p in sources)
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []



# the Newton tolerance, the continuation step cap, the table argument and the
# fixed grid, window and relative tolerances are constants, not options; the
# census has no worker count, and the uniformizing substitution has one mode
SIGNATURES = {
    eqmap.solve_endpoints: ["pot"],
    eqmap.uz_jets: ["pot", "x_order", "t_order"],
    eqmap.equilibrium_measure: ["pot"],
    eqmap.correlator_context: ["pot"],
    eqmap.h_general: ["pot", "ep"],
    eqmap.check_diagonal_conjecture: ["kmax"],
    eqmap.one_cut_certificate: ["h", "alpha_minus", "alpha_plus"],
    eqmap.verify_residue_representation: ["pot", "ep", "m"],
    eqmap.verify_even_residue_formula: ["pot", "ep", "m"],
    eqmap.variational_report: ["em", "grid_size"],
    eqmap.total_mass: ["em"],
    endpoints._newton: ["pot", "u", "z"],
    endpoints._locate_fold: ["pot", "u", "z", "s0"],
    acceptance._corpus_with_jets: [],
    eqmap.census: ["profile"],
    eqmap.substitute_uniformizer: ["coeffs", "u", "z", "_band"],
}


@pytest.mark.parametrize("fn", list(SIGNATURES), ids=lambda fn: fn.__name__)
def test_single_value_options_stay_removed(fn):
    assert list(inspect.signature(fn).parameters) == SIGNATURES[fn]


def test_import_loads_no_process_pool():
    # the census runs serial, so importing the package pulls in no pool
    code = ("import sys, eqmap; print(sorted({'concurrent.futures', 'multiprocessing'}"
            " & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(eqmap.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
