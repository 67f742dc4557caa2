import dataclasses
import math

import numpy as np
import pytest

from eqmap.acceptance import one_cut_corpus
from eqmap.endpoints import EndpointSolution, PotentialSpec, solve_endpoints
from eqmap.errors import InvalidParameterError
from eqmap.hfunc import h_classical
from eqmap.measure import (
    EquilibriumMeasure,
    _log_potential,
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


@pytest.mark.parametrize("lam", [math.nan, np.float64(math.nan), [0.0, math.nan],
                                 np.array([[0.1], [math.nan]])])
def test_density_refuses_a_nan_point(lam):
    # a NaN fails both support comparisons and used to read as off the support
    em = equilibrium_measure(PotentialSpec(1.0, {4: 0.01}))
    with pytest.raises(InvalidParameterError, match="lam"):
        density(em, lam)


def test_density_is_zero_at_infinite_points():
    em = equilibrium_measure(PotentialSpec(1.0, {4: 0.01}))
    with np.errstate(invalid="ignore", over="ignore"):
        assert density(em, math.inf) == 0.0 and density(em, -math.inf) == 0.0
        assert list(density(em, [-math.inf, 0.0, math.inf])) == [0.0, density(em, 0.0), 0.0]


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
    assert abs(total_mass(em) - 1) < 1e-14


@pytest.mark.parametrize("pot", [PotentialSpec(1.0, {4: 0.01}),
                                 PotentialSpec(1.0, {3: 0.05}),
                                 PotentialSpec(1.2, {2: 0.01, 5: 0.005, 3: -0.01})])
def test_total_mass_perturbed(pot):
    em = equilibrium_measure(pot)
    assert abs(total_mass(em) - 1) < 1e-12


def test_measure_makes_its_chebyshev_coefficients_once():
    # total_mass and variational_report share them, with the bits of a fresh measure
    pot = PotentialSpec(1.2, {2: 0.01, 5: 0.005, 3: -0.01})
    em, fresh = equilibrium_measure(pot), equilibrium_measure(pot)
    assert em.u_coeffs is None and "u_coeffs" not in repr(em)
    mass = total_mass(em)
    kept = em.u_coeffs
    assert not kept[2].flags.writeable
    report = variational_report(em)
    assert em.u_coeffs is kept
    assert report == variational_report(fresh) and mass == total_mass(fresh)
    with pytest.raises(dataclasses.FrozenInstanceError):
        em.x = 2.0


@pytest.fixture(scope="module")
def corpus_measures():
    return [equilibrium_measure(pot) for pot in one_cut_corpus(100)]


def test_total_mass_quadrature_is_exact_for_small_node_counts(corpus_measures):
    # h is a polynomial, so the reference rule is exact once 2n-1 >= deg h and
    # matches the closed-form mass up to rounding
    for em in [equilibrium_measure(PotentialSpec(1.0, {6: 0.002}))] + corpus_measures:
        assert abs(total_mass(em) - _chebyshev2_nodes(em, 4)[1].sum()) < 1e-14


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
    # the reference quadrature converges to the closed form
    em = equilibrium_measure(PotentialSpec(1.0, {4: 0.01}))
    rep = variational_report(em)

    def errors(n_quad):
        ell, _, margin = _allocating_variational_report(em, 64, n_quad)
        return abs(ell - rep.lagrange_constant), abs(margin - rep.min_offsupport_margin)

    assert all(fine < coarse for fine, coarse in zip(errors(512), errors(256)))


def test_variational_closed_form_is_exact_to_rounding(corpus_measures):
    rep = variational_report(equilibrium_measure(GUE))
    assert rep.lagrange_constant == pytest.approx(-1.0, abs=1e-14)
    for em in corpus_measures:
        assert variational_report(em).max_support_deviation < 1e-12


@pytest.mark.parametrize("bad", [0, 1, -3, 64.0, 2.5, math.nan, "64"])
def test_variational_rejects_small_grids(bad):
    with pytest.raises(InvalidParameterError, match="grid_size"):
        variational_report(equilibrium_measure(GUE), grid_size=bad)


def test_variational_accepts_a_numpy_int_grid():
    em = equilibrium_measure(GUE)
    assert variational_report(em, np.int64(64)) == variational_report(em, 64)


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


def _chebyshev2_nodes(em, n):
    """Support nodes, weights with integral(f dpsi) ~ sum w f, and sin(angle)**2."""
    am, ap = em.support
    c = (ap + am) / 2
    r = (ap - am) / 2
    theta = np.arange(1, n + 1) * math.pi / (n + 1)
    sin2 = np.sin(theta) ** 2
    nodes = c + r * np.cos(theta)
    weights = (r * r / (2 * em.x * (n + 1))) * sin2 * em.h.value(nodes)
    return nodes, weights, sin2


def _allocating_variational_report(em, grid_size=64, n_quad=8192):
    """Reference report by Gauss-Chebyshev quadrature of the log kernel.

    On the support the singularity is subtracted first: a unit semicircle on
    the same interval, scaled to match the density at the singular point, has
    a known log-potential, so only a smooth remainder is quadratured.
    """
    pot = em.ep.potential
    am, ap = em.support
    c, r = (ap + am) / 2, (ap - am) / 2
    nodes, w, sin2 = _chebyshev2_nodes(em, n_quad)
    w_semi = 2 * sin2 / (n_quad + 1)

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


def _c07_measures():
    """c07's GUE and quartic measures and its negative control (z + 0.1, true h)."""
    quartic = PotentialSpec(1.0, {4: 0.01})
    good = equilibrium_measure(quartic)
    bad = EndpointSolution(good.ep.u, good.ep.z + 0.1, quartic, 0.0)
    return [equilibrium_measure(GUE), good, EquilibriumMeasure(bad, good.h, quartic.x)]


@pytest.mark.parametrize("grid_size", [64, 17])
def test_variational_report_agrees_with_reference_quadrature(corpus_measures, grid_size):
    # the 8192-node reference is accurate to ~1e-9, so agreement within 1e-8
    # checks the closed form to the quadrature's own error
    for em in corpus_measures + _c07_measures():
        rep = variational_report(em, grid_size=grid_size)
        ell, _, margin = _allocating_variational_report(em, grid_size)
        assert abs(rep.lagrange_constant - ell) < 1e-8
        assert abs(rep.min_offsupport_margin - margin) < 1e-8


@pytest.mark.parametrize("pot", [GUE, PotentialSpec(1.0, {4: 0.01}),
                                 PotentialSpec(1.2, {2: 0.01, 5: 0.005, 3: -0.01})])
@pytest.mark.parametrize("grid_size,n_quad", [(64, 8192), (17, 300)])
def test_variational_report_bit_identical_to_allocating_kernel(pot, grid_size, n_quad):
    # The name dates from a quadrature that reused one kernel buffer and matched
    # the allocating reference bit for bit.  The closed form has no kernel; it
    # must now match the reference at n_quad nodes within that reference's own
    # error, which its support deviation (zero for the exact potential) bounds.
    em = equilibrium_measure(pot)
    rep = variational_report(em, grid_size=grid_size)
    ell, ref_dev, margin = _allocating_variational_report(em, grid_size, n_quad)
    assert rep.max_support_deviation < 1e-12
    assert abs(rep.lagrange_constant - ell) <= ref_dev + 1e-14
    assert abs(rep.min_offsupport_margin - margin) <= ref_dev + 1e-14


def _two_call_variational_report(em, grid_size):
    """The report as two log-potential passes, one on the support grid and one
    on the off-support grids."""
    pot = em.ep.potential
    am, ap = em.support
    offset = (ap - am) / (2 * grid_size)
    support = np.linspace(am + offset, ap - offset, grid_size)
    gvals = 2 * _log_potential(em, support) - pot.v(support)
    ell = float(np.median(gvals))
    max_dev = float(np.max(np.abs(gvals - ell)))
    off = np.concatenate([np.linspace(am - 2.0, am - offset, grid_size // 2),
                          np.linspace(ap + offset, ap + 2.0, grid_size // 2)])
    margin = float(np.min(pot.v(off) + ell - 2 * _log_potential(em, off)))
    return ell, max_dev, margin


@pytest.mark.parametrize("grid_size", [64, 17, 2, 3, 128])
def test_variational_report_matches_two_log_potential_passes(corpus_measures, grid_size):
    for em in corpus_measures + _c07_measures():
        rep = variational_report(em, grid_size=grid_size)
        got = (rep.lagrange_constant, rep.max_support_deviation, rep.min_offsupport_margin)
        want = _two_call_variational_report(em, grid_size)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert type(rep.lagrange_constant) is float and rep.grid_size == grid_size
