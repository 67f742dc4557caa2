import cmath
import math

import numpy as np
import pytest

from eqmap.correlators import (
    apply_K,
    correlator_context,
    int_over_linear_factor,
    w1_leading,
    w1_subleading,
    w1_subleading_antiderivative,
    w2_diag,
)
from eqmap.endpoints import PotentialSpec
from eqmap.errors import ContourGeometryError
from eqmap.measure import density, equilibrium_measure

GUE = PotentialSpec(1.0, {})
QUARTIC = PotentialSpec(1.0, {4: 0.01})


def test_w1_leading_gue_value():
    ctx = correlator_context(GUE)
    assert w1_leading(ctx, 3.0) == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-14)


def test_w1_leading_decays_like_one_over_y():
    # total mass 1 fixes the 1/y coefficient; y is kept moderate because the
    # closed form subtracts two O(y) quantities
    ctx = correlator_context(GUE)
    y = 1e4
    assert w1_leading(ctx, y) * y == pytest.approx(1.0, rel=1e-6)


def test_w1_leading_rejects_points_on_cut():
    ctx = correlator_context(GUE)
    with pytest.raises(ValueError):
        w1_leading(ctx, 0.5)


def test_w1_leading_matches_density_quadrature():
    # Gauss-Chebyshev nodes of the second kind on the support
    em = equilibrium_measure(QUARTIC)
    ctx = correlator_context(QUARTIC)
    am, ap = em.support
    r, n = (ap - am) / 2, 4096
    theta = np.arange(1, n + 1) * math.pi / (n + 1)
    nodes = (ap + am) / 2 + r * np.cos(theta)
    w = density(em, nodes) * r * math.pi * np.sin(theta) / (n + 1)
    rng = np.random.default_rng(3)
    for _ in range(10):
        y = complex(rng.uniform(2.5, 5), rng.uniform(-2, 2))
        quad = np.sum(w / (y - nodes))
        assert abs(w1_leading(ctx, y) - quad) < 1e-8 * abs(quad)


def test_w2_diag_gue_value():
    ctx = correlator_context(GUE)
    assert w2_diag(ctx, 3.0) == pytest.approx(-0.04, abs=1e-15)


def test_w2_diag_leading_term_cancels():
    # the 1/y^2 coefficients cancel (-1/16 + 1/8 - 1/16), leaving O(y^-3)
    ctx = correlator_context(GUE)
    y = 1e5
    assert abs(w2_diag(ctx, y)) < 10 / y**3


def test_w2_diag_symmetric_potential_even_in_y():
    ctx = correlator_context(QUARTIC)
    for y in (3.0, 2.5 + 1j, 4j):
        assert w2_diag(ctx, y) == pytest.approx(w2_diag(ctx, -y), rel=1e-13)


def test_w1_subleading_gue_spot_value():
    ctx = correlator_context(GUE)
    got = w1_subleading(ctx, 3.0)
    assert got.imag == pytest.approx(0.0, abs=1e-15)
    assert got.real == pytest.approx(-(5 ** -2.5), abs=1e-15)


def test_w1_subleading_gue_odd_in_y():
    ctx = correlator_context(GUE)
    for y in (3.0, 2.4 + 0.7j):
        assert w1_subleading(ctx, -y) == pytest.approx(-w1_subleading(ctx, y), rel=1e-12)


def test_int_over_linear_factor_gue():
    ctx = correlator_context(GUE)
    want = 0.5 * (1 - 1 / math.sqrt(5))
    assert int_over_linear_factor(ctx, 3.0) == pytest.approx(want, abs=1e-14)


def test_antiderivative_differentiates_back():
    for pot in (GUE, QUARTIC):
        ctx = correlator_context(pot)
        y, h = 3.0, 1e-5
        fd = (w1_subleading_antiderivative(ctx, y + h)
              - w1_subleading_antiderivative(ctx, y - h)) / (2 * h)
        want = -w1_subleading(ctx, y) / pot.x
        assert abs(fd - want) < 1e-7


def test_antiderivative_vanishes_at_infinity():
    ctx = correlator_context(QUARTIC)
    assert abs(w1_subleading_antiderivative(ctx, 1e8)) < 1e-7


def test_apply_K_zero_function():
    ctx = correlator_context(GUE)
    assert apply_K(ctx, lambda y: 0.0, 3.0) == 0.0


def test_apply_K_rejects_interior_points():
    ctx = correlator_context(GUE)
    with pytest.raises(ContourGeometryError):
        apply_K(ctx, lambda y: 1 / y**2, 1.0)


@pytest.mark.parametrize("pot", [GUE, QUARTIC])
def test_loop_equation_residual(pot):
    ctx = correlator_context(pot)
    radius = ctx.ep.alpha_plus + 2
    for k in range(8):
        y = radius * cmath.exp(2j * math.pi * (k + 0.5) / 8)
        res = w2_diag(ctx, y) + apply_K(ctx, lambda s: w1_subleading(ctx, s), y)
        assert abs(res) < 1e-6


def test_loop_equation_gue_sign():
    # K applied to the subleading correlator reproduces +0.04 at y = 3
    ctx = correlator_context(GUE)
    got = apply_K(ctx, lambda s: w1_subleading(ctx, s), 3.0)
    assert got.real == pytest.approx(0.04, abs=1e-10)
    assert abs(got.imag) < 1e-12


def test_apply_K_node_doubling_converges():
    ctx = correlator_context(QUARTIC)
    y = 3.5 + 0.5j
    errs = []
    for n in (32, 64, 128):
        res = w2_diag(ctx, y) + apply_K(ctx, lambda s: w1_subleading(ctx, s), y,
                                        n_nodes=n)
        errs.append(abs(res))
    assert errs[1] <= errs[0] / 2 or errs[1] < 1e-12
    assert errs[2] <= errs[1] / 2 or errs[2] < 1e-12


MIXED = PotentialSpec(1.1, {3: 0.02, 4: 0.015, 6: 0.001})


def _rel(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("pot", [GUE, QUARTIC, MIXED])
def test_w1_subleading_on_arrays_matches_points(pot):
    ctx = correlator_context(pot)
    ys = np.array([3.0, -3.5, 2.5 + 1j, 4j, -0.3 - 2j])
    got = w1_subleading(ctx, ys)
    assert got.shape == ys.shape
    for g, y in zip(got, ys):
        assert _rel(g, w1_subleading(ctx, complex(y))) < 1e-14
    with pytest.raises(ValueError, match="branch cut"):
        w1_subleading(ctx, np.array([3.0, 0.5]))


@pytest.mark.parametrize("pot", [GUE, QUARTIC, MIXED])
def test_apply_K_matches_node_by_node_quadrature(pot):
    # K as a per-node loop of scalar evaluations of f and V'
    ctx = correlator_context(pot)
    f = lambda s: w1_subleading(ctx, s)  # noqa: E731
    u, z, n = ctx.ep.u, ctx.ep.z, 256
    a, b = 2 * math.sqrt(z) + 0.5, 0.5 * math.sqrt(z)
    theta = 2 * math.pi * np.arange(n) / n
    xi = u + a * np.cos(theta) + 1j * b * np.sin(theta)
    dxi = -a * np.sin(theta) + 1j * b * np.cos(theta)
    for y in (3.5, 2.5 + 1j, -4.0, 4j):
        vals = np.array([pot.vprime(complex(x)) * f(complex(x)) / (y - x) for x in xi])
        want = 2 * w1_leading(ctx, y) * f(y) - np.sum(vals * dxi) / (1j * n)
        assert _rel(apply_K(ctx, f, y), want) < 1e-14


def test_scalar_correlators_return_python_complex():
    ctx = correlator_context(QUARTIC)
    for y in (3.0, 2.5 + 1j, np.float64(3.0)):
        assert type(w1_subleading(ctx, y)) is complex
        assert type(w2_diag(ctx, y)) is complex
