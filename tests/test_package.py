import ast
import inspect
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
# fixed grid, window and relative tolerances are constants, not options
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
    eqmap.variational_report: ["em", "grid_size", "n_quad"],
    endpoints._newton: ["pot", "u", "z"],
    endpoints._locate_fold: ["pot", "u", "z", "s0"],
    acceptance._corpus_with_jets: [],
}


@pytest.mark.parametrize("fn", list(SIGNATURES), ids=lambda fn: fn.__name__)
def test_single_value_options_stay_removed(fn):
    assert list(inspect.signature(fn).parameters) == SIGNATURES[fn]
