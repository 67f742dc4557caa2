import math

import numpy as np
import pytest

from eqmap.endpoints import EndpointSolution, PotentialSpec, solve_endpoints
from eqmap.hfunc import h_classical
from eqmap.measure import (
    EquilibriumMeasure,
    density,
    equilibrium_measure,
    total_mass,
    variational_report,
)

GUE = PotentialSpec(1.0, {})


def test_density_gue_center():
    em = equilibrium_measure(GUE)
    assert density(em, 0.0) == pytest.approx(1 / math.pi, abs=1e-15)


def test_density_vanishes_at_and_beyond_endpoints():
    em = equilibrium_measure(PotentialSpec(1.0, {4: 0.01}))
    am, ap = em.support
    assert density(em, am) == 0.0
    assert density(em, ap) == 0.0
    assert density(em, ap + 0.5) == 0.0
    assert density(em, am - 3.0) == 0.0


def test_density_vectorized_matches_scalar():
    em = equilibrium_measure(PotentialSpec(1.0, {3: 0.04}))
    lam = np.linspace(-3, 3, 11)
    vec = density(em, lam)
    for x, v in zip(lam, vec):
        assert density(em, float(x)) == v


def test_density_nonnegative_on_certified_support():
    from eqmap.endpoints import one_cut_certificate

    for pot in (GUE, PotentialSpec(1.0, {4: 0.01}), PotentialSpec(1.0, {3: 0.05})):
        em = equilibrium_measure(pot)
        am, ap = em.support
        assert one_cut_certificate(em.h, am, ap)
        lam = np.linspace(am, ap, 1001)
        assert np.min(density(em, lam)) >= 0.0


def test_total_mass_gue():
    em = equilibrium_measure(GUE)
    assert abs(total_mass(em, 64) - 1) < 1e-14


@pytest.mark.parametrize("pot", [PotentialSpec(1.0, {4: 0.01}),
                                 PotentialSpec(1.0, {3: 0.05}),
                                 PotentialSpec(1.2, {2: 0.01, 5: 0.005, 3: -0.01})])
def test_total_mass_perturbed(pot):
    em = equilibrium_measure(pot)
    assert abs(total_mass(em) - 1) < 1e-12


def test_total_mass_quadrature_is_exact_for_small_node_counts():
    # h is a polynomial, so the rule is exact once 2n-1 >= deg h
    pot = PotentialSpec(1.0, {6: 0.002})
    em = equilibrium_measure(pot)
    assert abs(total_mass(em, 4) - total_mass(em, 4096)) < 1e-13


def test_variational_gue():
    em = equilibrium_measure(GUE)
    rep = variational_report(em)
    # the known flat value of 2*g - V on the support is -1 at x = 1
    assert rep.lagrange_constant == pytest.approx(-1.0, abs=1e-6)
    assert rep.max_support_deviation < 1e-6
    assert rep.min_offsupport_margin >= 0


def test_variational_quartic():
    em = equilibrium_measure(PotentialSpec(1.0, {4: 0.01}))
    rep = variational_report(em)
    assert rep.max_support_deviation < 1e-5
    assert rep.min_offsupport_margin >= 0


def test_variational_deviation_shrinks_with_refinement():
    em = equilibrium_measure(PotentialSpec(1.0, {4: 0.01}))
    coarse = variational_report(em, n_quad=256).max_support_deviation
    fine = variational_report(em, n_quad=512).max_support_deviation
    assert fine < coarse


def test_variational_negative_control():
    # keep the true polynomial factor but move the endpoints: the result is
    # no longer any potential's equilibrium measure and the equality breaks
    pot = PotentialSpec(1.0, {4: 0.01})
    good = solve_endpoints(pot)
    h_true = h_classical(pot, good)
    bad = EndpointSolution(good.u, good.z + 0.1, pot, 0.0)
    em = EquilibriumMeasure(bad, h_true, pot.x)
    rep = variational_report(em)
    assert rep.max_support_deviation > 1e-2


def test_variational_negative_control_with_recomputed_h_stays_flat():
    # recomputing h for the shifted endpoints builds a measure that is again
    # a resolvent boundary value, so the on-support equality survives; only
    # the mass and the off-support inequality notice.  This pins down why the
    # negative control above must reuse the original h.
    pot = PotentialSpec(1.0, {4: 0.01})
    good = solve_endpoints(pot)
    bad = EndpointSolution(good.u, good.z + 0.1, pot, 0.0)
    em = EquilibriumMeasure(bad, h_classical(pot, bad), pot.x)
    assert abs(total_mass(em) - 1) > 1e-2
    rep = variational_report(em)
    assert rep.max_support_deviation < 1e-6


def _allocating_variational_report(em, grid_size=64, n_quad=8192):
    """The variational report as computed with a fresh log kernel per grid."""
    from eqmap.measure import _chebyshev2_nodes

    pot = em.ep.potential
    am, ap = em.support
    c, r = (ap + am) / 2, (ap - am) / 2
    nodes, w, _ = _chebyshev2_nodes(em, n_quad)
    theta = np.arange(1, n_quad + 1) * math.pi / (n_quad + 1)
    w_semi = 2 * np.sin(theta) ** 2 / (n_quad + 1)

    def g2_support(lams):
        logs = np.log(np.abs(lams[:, None] - nodes[None, :]))
        amp = r * r * em.h.value(lams) / (4 * em.x)
        rough = logs @ w - amp * (logs @ w_semi)
        scaled = 2 * (lams - c) / r
        exact = amp * (math.log(r / 2) + scaled**2 / 4 - 0.5)
        return 2 * (rough + exact)

    offset = (ap - am) / (2 * grid_size)
    support = np.linspace(am + offset, ap - offset, grid_size)
    gvals = g2_support(support) - pot.v(support)
    ell = float(np.median(gvals))
    max_dev = float(np.max(np.abs(gvals - ell)))
    left = np.linspace(am - 2.0, am - offset, grid_size // 2)
    right = np.linspace(ap + offset, ap + 2.0, grid_size // 2)
    off = np.concatenate([left, right])
    margin = float(np.min(pot.v(off) + ell
                          - 2 * (np.log(np.abs(off[:, None] - nodes[None, :])) @ w)))
    return ell, max_dev, margin


@pytest.mark.parametrize("pot", [GUE, PotentialSpec(1.0, {4: 0.01}),
                                 PotentialSpec(1.2, {2: 0.01, 5: 0.005, 3: -0.01})])
@pytest.mark.parametrize("grid_size,n_quad", [(64, 8192), (17, 300)])
def test_variational_report_bit_identical_to_allocating_kernel(pot, grid_size, n_quad):
    em = equilibrium_measure(pot)
    rep = variational_report(em, grid_size=grid_size, n_quad=n_quad)
    got = (rep.lagrange_constant, rep.max_support_deviation, rep.min_offsupport_margin)
    want = _allocating_variational_report(em, grid_size, n_quad)
    assert [v.hex() for v in got] == [v.hex() for v in want]
