import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eqmap
from eqmap import acceptance, correlators, endpoints
from eqmap.errors import DegeneratePointError, EqmapError, InvalidParameterError


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
    endpoints._newton: ["x", "coeffs", "u", "z"],
    endpoints._locate_fold: ["pot", "u", "z", "s0"],
    acceptance._corpus_with_jets: [],
    eqmap.census: ["profile"],
    eqmap.substitute_uniformizer: ["coeffs", "u", "z"],
    eqmap.endpoint_residuals: ["u", "z", "pot"],
    endpoints._residual_and_jacobian: ["u", "z", "x", "coeffs"],
    endpoints._uz_residuals: ["u", "z", "x", "coeffs", "dcoeffs"],
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


def test_import_makes_no_jet_product():
    # truncated products are made on first use: a fresh import makes none,
    # and a solve that runs into its fold (Newton, then the fold search)
    # makes the product of the (u, z) triangle alone, no box product
    code = ("import eqmap\nfrom eqmap import algebra, endpoints\n"
            "print(len(algebra._PRODUCTS))\n"
            "try:\n"
            "    eqmap.solve_endpoints(eqmap.PotentialSpec(1.0, {3: 0.05, 4: -0.03}))\n"
            "except eqmap.errors.NoOneCutSolutionError:\n"
            "    pass\n"
            "print(len(algebra._PRODUCTS), endpoints._UZ_LAYOUT in algebra._PRODUCTS)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(eqmap.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["0", "1", "True"]


def test_solver_census_series_and_tables_load_no_numpy():
    # numpy is imported by the functions that build arrays: a fold solve, a
    # census, an e1 series and a coefficient table run without it, and no band
    # kernel exists before the first solve; the measure then loads it
    code = ("import sys, eqmap\nfrom eqmap import endpoints\n"
            "print(len(endpoints._KERNELS))\n"
            "try:\n"
            "    eqmap.solve_endpoints(eqmap.PotentialSpec(1.0, {3: 0.05, 4: -0.03}))\n"
            "except eqmap.errors.NoOneCutSolutionError:\n"
            "    pass\n"
            "eqmap.census({4: 2})\n"
            "eqmap.e1_series(eqmap.PotentialSpec(1.0, {4: 0.0}), 2)\n"
            "eqmap.build_c_table(4)\n"
            "print(len(endpoints._KERNELS) > 0, 'numpy' in sys.modules)\n"
            "em = eqmap.equilibrium_measure(eqmap.PotentialSpec(1.0, {4: 0.01}))\n"
            "print('numpy' in sys.modules, round(eqmap.total_mass(em), 12))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(eqmap.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["0", "True", "False", "True", "1.0"]


def test_public_preconditions_raise_typed_errors(monkeypatch):
    # a refused input is an InvalidParameterError, still a ValueError; a
    # vanishing h at an endpoint is a DegeneratePointError
    even, odd = eqmap.PotentialSpec(1.0, {4: 0.01}), eqmap.PotentialSpec(1.0, {3: 0.05})
    bare = eqmap.solve_endpoints(even)
    refused = {
        "h_even on an odd potential": lambda: eqmap.h_even(odd, eqmap.uz_jets(odd, 3)),
        "even residue formula on an odd potential":
            lambda: eqmap.verify_even_residue_formula(odd, eqmap.uz_jets(odd, 3), 1),
        "du without jets": lambda: bare.du(),
        "phi_psi without jets": lambda: eqmap.phi_psi(even, bare, 1),
        "h_even short of x-order": lambda: eqmap.h_even(even, eqmap.uz_jets(even, 1)),
        "h_at_endpoints short of x-order":
            lambda: eqmap.h_at_endpoints(even, eqmap.uz_jets(even, 1)),
        "a point on the cut": lambda: eqmap.w1_leading(eqmap.correlator_context(even), 0.1),
    }
    for name, call in refused.items():
        with pytest.raises(EqmapError) as info:
            call()
        assert type(info.value) is InvalidParameterError, name
        assert isinstance(info.value, ValueError), name
    em = eqmap.equilibrium_measure(even)
    flat_h = type("FlatH", (), {"value": lambda self, y: 0.0, "deriv": lambda self, y: 1.0})()
    monkeypatch.setattr(correlators, "equilibrium_measure",
                        lambda pot: type(em)(em.ep, flat_h, pot.x))
    with pytest.raises(DegeneratePointError, match="h vanishes"):
        eqmap.correlator_context(even)
