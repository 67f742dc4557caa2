import math
import random
from fractions import Fraction

import numpy as np
import pytest

import eqmap.endpoints as endpoints
from eqmap.algebra import Jet, inv_sqrt_R_series, series_times_poly_coeff
from eqmap.endpoints import (
    PotentialSpec,
    endpoint_residuals,
    one_cut_certificate,
    solve_endpoints,
    uz_jets,
    xvprime_coeffs,
)
from eqmap.errors import (
    DegeneratePotentialError,
    EqmapError,
    InvalidParameterError,
    NoOneCutSolutionError,
)
from eqmap.hfunc import h_classical


def quartic_z(t, x=1.0):
    """Positive root of z + 12 t z**2 = x, the independent endpoint oracle."""
    if t == 0:
        return x
    return (-1 + math.sqrt(1 + 48 * t * x)) / (24 * t)


def test_residuals_vanish_at_gaussian_point():
    pot = PotentialSpec(1.7, {})
    r1, r2 = endpoint_residuals(0.0, 1.7, pot)
    assert r1 == 0 and r2 == 0


def test_residual_r2_quartic_closed_form_exact():
    # [T^0] T V'(T + z/T) - 1 = (z + 12 t z^2)/x - 1, checked in exact arithmetic
    t, x = Fraction(1, 50), Fraction(3, 2)
    pot = PotentialSpec(x, {4: t})
    for z in (Fraction(1), Fraction(5, 7), Fraction(9, 4)):
        _, r2 = endpoint_residuals(Fraction(0), z, pot)
        assert r2 == (z + 12 * t * z**2) / x - 1


def test_residual_r1_cubic_closed_form_exact():
    t, x = Fraction(1, 20), Fraction(1)
    pot = PotentialSpec(x, {3: t})
    for u, z in ((Fraction(1, 3), Fraction(2)), (Fraction(-1, 2), Fraction(3, 4))):
        r1, _ = endpoint_residuals(u, z, pot)
        assert r1 == (u + 3 * t * (u**2 + 2 * z)) / x


def test_residuals_match_series_route():
    # same equations evaluated through the inverse-sqrt series at infinity:
    # r1 = [y^-1] V'/sqrt(R2), r2 = [y^-2] V'/sqrt(R2) - 2 (up to scaling)
    rng = random.Random(3)
    done = 0
    while done < 20:
        d = rng.choice([3, 4, 5, 6])
        t = {j: rng.uniform(-0.02, 0.02) for j in range(1, d + 1)}
        if d % 2 == 0:
            t[d] = abs(t[d]) + 1e-3
        pot = PotentialSpec(rng.uniform(0.8, 1.2), t)
        try:
            ep = solve_endpoints(pot)
        except NoOneCutSolutionError:
            continue  # draw left the one-cut phase; resample
        done += 1
        u, z = ep.u, ep.z
        w = [c / pot.x for c in xvprime_coeffs(pot)]  # coefficients of V'
        series = inv_sqrt_R_series(ep.alpha_minus, ep.alpha_plus, pot.degree + 2)
        r1 = series_times_poly_coeff(w, series, -1)
        r2 = series_times_poly_coeff(w, series, -2)
        assert abs(r1) < 1e-10
        assert abs(r2 - 2) < 1e-10


def test_solve_gue():
    ep = solve_endpoints(PotentialSpec(1.0, {}))
    assert ep.u == 0.0 and ep.z == 1.0
    assert ep.alpha_minus == -2.0 and ep.alpha_plus == 2.0


def test_solve_quartic_matches_quadratic_formula():
    pot = PotentialSpec(1.0, {4: 0.01})
    ep = solve_endpoints(pot)
    assert ep.u == 0.0
    assert abs(ep.z - quartic_z(0.01)) < 1e-13


def test_solve_cubic_residuals_small():
    pot = PotentialSpec(1.0, {3: 0.05})
    ep = solve_endpoints(pot)
    assert ep.u < 0  # cubic perturbation pulls the center left
    r1, r2 = endpoint_residuals(ep.u, ep.z, pot)
    assert abs(r1) < 1e-12 and abs(r2) < 1e-12


def test_solve_beyond_critical_quartic_raises():
    with pytest.raises(NoOneCutSolutionError):
        solve_endpoints(PotentialSpec(1.0, {4: -0.1}))


@pytest.mark.parametrize("x", [0.8, 1.0, 1.2])
@pytest.mark.parametrize("c", [1.1, 1.5, 2.0])
@pytest.mark.parametrize("j", [4, 6])
def test_fold_located_at_critical_coupling(monkeypatch, j, c, x):
    # pure quartic: z + 12 t z**2 = x folds at t = -1/(48 x) (Bessis-Itzykson-
    # Zuber); pure sextic: z + 60 t z**3 = x folds at t = -1/(405 x**2)
    t_c = -1 / (48 * x) if j == 4 else -1 / (405 * x * x)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return endpoint_residuals(*args, **kwargs)

    monkeypatch.setattr(endpoints, "endpoint_residuals", counted)
    with pytest.raises(NoOneCutSolutionError) as info:
        solve_endpoints(PotentialSpec(x, {j: c * t_c}))
    err = info.value
    assert set(err.t_star) == {j}
    assert err.t_star[j] == pytest.approx(t_c, rel=1e-10)
    assert err.s_star == pytest.approx(1 / c, rel=1e-10)
    assert repr(err.s_star) in str(err) and repr(err.t_star) in str(err)
    assert len(calls) <= 100


def test_newton_builds_no_jacobian_it_does_not_use(monkeypatch):
    # the quartic converges in one Newton solve of four steps; the polished
    # point is checked with the float residual, so only the four points that
    # take a step pay for an order-1 Taylor Jacobian
    points = []
    full = endpoints._residual_and_jacobian

    def counted(u, z, pot):
        points.append((u, z))
        return full(u, z, pot)

    monkeypatch.setattr(endpoints, "_residual_and_jacobian", counted)
    ep = solve_endpoints(PotentialSpec(1.0, {4: 0.01}))
    assert abs(ep.z - quartic_z(0.01)) < 1e-13
    assert len(points) == 4
    assert (ep.u, ep.z) not in points
    assert ep.residual_norm == max(abs(r) for r in endpoint_residuals(ep.u, ep.z, ep.potential))


def test_fold_beyond_target_is_not_declared(monkeypatch):
    # the quartic at 1.1 t_c folds at s* = 1/1.1; with that fold reported
    # beyond every target, a failed step must go on halving as before
    pot = PotentialSpec(1.0, {4: 1.1 * -1 / 48})
    assert endpoints._locate_fold(pot, 0.0, 1.0, 0.0) == pytest.approx(1 / 1.1, rel=1e-12)
    monkeypatch.setattr(endpoints, "_locate_fold", lambda *args: 2.0)
    with pytest.raises(NoOneCutSolutionError, match="step underflow") as info:
        solve_endpoints(pot)
    assert info.value.s_star is None and info.value.t_star is None


@pytest.mark.parametrize("t,s_zero", [({2: -0.6}, 1 / 1.2), ({2: -0.5}, 1.0),
                                      ({1: 0.3, 2: -0.5}, 1.0)])
def test_non_confining_quadratic_named_before_any_residual(monkeypatch, t, s_zero):
    # (1/2 + s t2) y**2 loses its confinement at s = -1/(2 t2) <= 1
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return endpoint_residuals(*args, **kwargs)

    monkeypatch.setattr(endpoints, "endpoint_residuals", counted)
    with pytest.raises(NoOneCutSolutionError) as info:
        solve_endpoints(PotentialSpec(1.0, t))
    assert calls == []
    msg = str(info.value)
    assert "t2=%r" % t[2] in msg and "s=-1/(2 t2)=%r" % s_zero in msg


def test_step_underflow_names_s_unrounded(monkeypatch):
    # the quartic beyond its fold with the fold search switched off stalls
    # short of s = 1; the message carries s exactly, not rounded to 1
    monkeypatch.setattr(endpoints, "_locate_fold", lambda *args: None)
    with pytest.raises(NoOneCutSolutionError, match="step underflow") as info:
        solve_endpoints(PotentialSpec(1.0, {4: (1 + 1e-9) * -1 / 48}))
    s = float(str(info.value).split("s=")[1].split(";")[0])
    assert s < 1.0
    assert "s=%r;" % s in str(info.value)


def test_fold_located_for_general_potential():
    # no symmetry: the fold is a simple root of det J on the full system
    pot = PotentialSpec(1.0, {3: 0.05, 4: -0.03})
    with pytest.raises(NoOneCutSolutionError) as info:
        solve_endpoints(pot)
    s_star = info.value.s_star
    assert 0 < s_star < 1
    # the one-cut branch reaches just short of the fold and not past it
    solve_endpoints(pot.scaled(s_star * (1 - 1e-6)))
    with pytest.raises(NoOneCutSolutionError):
        solve_endpoints(pot.scaled(s_star * (1 + 1e-6)))


@pytest.mark.parametrize("x,t,name", [
    (math.inf, {}, "face weight x"),
    (math.nan, {}, "face weight x"),
    (1.0, {4: math.nan}, "t4"),
    (1.0, {3: 0.01, 6: -math.inf}, "t6"),
])
def test_potential_rejects_non_finite_parameters(x, t, name):
    with pytest.raises(InvalidParameterError, match=name) as info:
        PotentialSpec(x, t)
    assert isinstance(info.value, EqmapError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize("x,t,bad", [
    (0.0, {}, "0.0"),
    (-1.0, {4: 0.01}, "-1.0"),
    (1.0, {0: 0.1}, "0"),
    (1.0, {4.5: 0.01}, "4.5"),
    (1.0, {4.0: 0.01}, "4.0"),
    (1.0, {-2: 0.01}, "-2"),
])
def test_potential_refuses_a_bad_face_weight_or_valence_by_name(x, t, bad):
    # a fractional valence is refused, not truncated to its integer part
    with pytest.raises(EqmapError, match="must be") as info:
        PotentialSpec(x, t)
    assert isinstance(info.value, InvalidParameterError) and bad in str(info.value)


def test_potential_stores_numpy_int_valences_as_ints():
    t = PotentialSpec(1.0, {np.int64(3): 0.02}).t
    assert t == {3: 0.02} and type(next(iter(t))) is int


def test_potential_accepts_large_rationals():
    pot = PotentialSpec(Fraction(10**400), {4: Fraction(1, 10**400)})
    assert pot.t == {4: Fraction(1, 10**400)}


def test_gaussian_point_degenerate_for_huge_face_weight():
    # det J = 1/x**2 at the Gaussian point falls below the singularity gate
    with pytest.raises(DegeneratePotentialError, match=r"x = 100000000\.0"):
        solve_endpoints(PotentialSpec(1e8, {4: 0.01}))


def _jet_residual_and_jacobian(u, z, pot):
    """The order-(1, 1) Jet route that the (u, z) Taylor scalar replaced."""
    rs = endpoint_residuals(Jet.variable(float(u), 0, (1, 1)), Jet.variable(float(z), 1, (1, 1)), pot)
    rs = [r if isinstance(r, Jet) else Jet.constant(r, (1, 1)) for r in rs]
    return ([float(r.constant_term) for r in rs],
            [[float(r.partial((1, 0))), float(r.partial((0, 1)))] for r in rs])


_FOLD_PARTIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _scalar_route_points():
    """Corpus roots, Gaussian starts, even potentials at u = 0 and random points."""
    from eqmap.acceptance import one_cut_corpus

    for pot in one_cut_corpus(10):
        ep = solve_endpoints(pot)
        yield pot, ep.u, ep.z
        yield pot, 0.0, float(pot.x)
    rng = random.Random(11)
    for _ in range(20):
        d = rng.choice([3, 4, 5, 6])
        t = {j: rng.uniform(-0.1, 0.1) for j in range(1, d + 1)}
        yield PotentialSpec(rng.uniform(0.6, 1.4), t), rng.uniform(-1, 1), rng.uniform(0.1, 2)
        even = PotentialSpec(rng.uniform(0.6, 1.4), {j: v for j, v in t.items() if j % 2 == 0})
        yield even, 0.0, rng.uniform(0.1, 2)
    yield PotentialSpec(Fraction(11, 10), {3: Fraction(1, 50), 4: Fraction(1, 100)}), -0.1, 1.0
    # x V'(y) = 0.3 here, so no offset reaches either residual
    yield PotentialSpec(1.0, {1: 0.3, 2: -0.5}), 0.0, 1.0


def test_scalar_jacobian_and_fold_partials_bit_identical_to_jets():
    for pot, u, z in _scalar_route_points():
        r, jac = endpoints._residual_and_jacobian(u, z, pot)
        want_r, want_jac = _jet_residual_and_jacobian(u, z, pot)
        assert _hex(r) == _hex(want_r) and _hex(jac) == _hex(want_jac), (pot, u, z)
        # the fold search's order-2 data: partials of the perturbation part
        coeffs = endpoints._perturbation_coeffs(pot)
        got = endpoints._uz_residuals(u, z, 2, pot, _coeffs=coeffs)
        p1, p2 = endpoint_residuals(Jet.variable(u, 0, (2, 2)), Jet.variable(z, 1, (2, 2)), pot,
                                    _coeffs=coeffs)
        want = [[p.partial(k) if isinstance(p, Jet) else (p if k == (0, 0) else 0.0)
                 for k in _FOLD_PARTIALS] for p in (p1, p2)]
        assert _hex(got) == _hex(want), (pot, u, z)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("n", [1, 2])
def test_uz_taylor_arithmetic_matches_box_jets(n):
    # entries of total order > n are random too: the kept entries must not
    # depend on them
    rng = random.Random(n)
    kept = [(i, j) for i in range(n + 1) for j in range(n + 1) if i + j <= n]

    def draw():
        k = rng.random()
        if k < 0.25:
            return rng.choice([0.0, -0.0])
        if k < 0.3:  # a zero left entry is skipped, not multiplied into inf
            return rng.choice([math.inf, -math.inf])
        return rng.choice([-1, 1]) * rng.uniform(0.1, 10) * 10.0 ** rng.randint(-6, 6)

    def pair():
        jet = Jet(np.array([[draw() for _ in range(n + 1)] for _ in range(n + 1)]))
        return jet, endpoints._UZTaylor(tuple(float(jet.coeffs[m]) for m in kept))

    def same(jet, scalar):
        return _hex([jet.coeffs[m] for m in kept]) == _hex(scalar)

    for _ in range(300):
        (ja, sa), (jb, sb) = pair(), pair()
        c = draw()
        q = rng.choice([3, Fraction(2, 7), 0.7, -1.3])
        assert same(ja * jb, sa * sb)
        assert same(ja + jb, sa + sb) and same(ja - jb, sa - sb) and same(-ja, -sa)
        assert same(ja * c, sa * c) and same(c * ja, c * sa) and same(ja / q, sa / q)
        assert same(ja + q, sa + q) and same(ja - q, sa - q) and same(q - ja, q - sa)
        assert same(0 + ja, 0 + sa)
        zero = not any(float(ja.coeffs[m]) != 0 for m in kept)
        assert (sa == 0) is zero
    assert endpoints._UZTaylor((0.0, -0.0, 0.0)) == 0
    assert not endpoints._UZTaylor((0.0, 0.0, 1e-300)) == 0


# per entry of a left factor, the (product entry, right entry) pairs, keyed by
# the entry count: entries (1, z, u) at order 1, (1, z, z2, u, uz, u2) at order 2;
# the hand-written table the (u, z) scalar multiplied with before the shared kernel
_UZ_PAIRS = {3: (((0, 0), (1, 1), (2, 2)), ((1, 0),), ((2, 0),)),
             6: (((0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5)), ((1, 0), (2, 1), (4, 3)),
                 ((2, 0),), ((3, 0), (4, 1), (5, 3)), ((4, 0),), ((5, 0),))}


def test_uz_triangle_tables_reproduce_the_pair_literal():
    got = {k: tuple(tuple(zip(row[::2], row[1::2])) for row in table)
           for k, table in endpoints._UZ_TABLES.items()}
    assert got == _UZ_PAIRS


def test_solve_endpoints_multiplies_no_jet(monkeypatch):
    products = []
    mul = Jet.__mul__

    def counted(self, other):
        products.append(None)
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counted)
    monkeypatch.setattr(Jet, "__rmul__", counted)
    solve_endpoints(PotentialSpec(1.0, {3: 0.02, 4: 0.01, 5: -0.002, 6: 0.001}))
    with pytest.raises(NoOneCutSolutionError) as info:
        solve_endpoints(PotentialSpec(1.0, {3: 0.05, 4: -0.03}))
    assert info.value.s_star is not None
    assert products == []
    uz_jets(PotentialSpec(1.0, {4: 0.01}), x_order=2)
    assert products  # the jet lift still multiplies jets


def test_uz_jets_gue_linear_z():
    ep = uz_jets(PotentialSpec(1.0, {}), x_order=4)
    assert ep.dz(1) == pytest.approx(1.0, abs=1e-14)
    for k in range(2, 5):
        assert ep.dz(k) == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(ep.u_jet.coeffs.astype(float))) == 0.0


def test_uz_jets_quartic_zx_implicit_differentiation():
    t = 0.01
    ep = uz_jets(PotentialSpec(1.0, {4: t}), x_order=3)
    want = 1.0 / (1 + 24 * t * ep.z)
    assert ep.dz(1) == pytest.approx(want, rel=1e-12)


def test_uz_jets_match_finite_differences():
    pot = PotentialSpec(1.0, {3: 0.02, 4: 0.015})
    ep = uz_jets(pot, x_order=4)

    def uz(x):
        s = solve_endpoints(PotentialSpec(x, pot.t))
        return s.u, s.z

    # central differences; the step per order balances O(h^2) truncation
    # against the solver tolerance amplified by h**-k
    for k, h, tol in ((1, 1e-5, 1e-8), (2, 1e-4, 1e-6), (3, 2e-3, 1e-4)):
        if k == 1:
            du = (uz(1 + h)[0] - uz(1 - h)[0]) / (2 * h)
            dz = (uz(1 + h)[1] - uz(1 - h)[1]) / (2 * h)
        elif k == 2:
            du = (uz(1 + h)[0] - 2 * uz(1)[0] + uz(1 - h)[0]) / h**2
            dz = (uz(1 + h)[1] - 2 * uz(1)[1] + uz(1 - h)[1]) / h**2
        else:
            du = (uz(1 + 2 * h)[0] - 2 * uz(1 + h)[0] + 2 * uz(1 - h)[0]
                  - uz(1 - 2 * h)[0]) / (2 * h**3)
            dz = (uz(1 + 2 * h)[1] - 2 * uz(1 + h)[1] + 2 * uz(1 - h)[1]
                  - uz(1 - 2 * h)[1]) / (2 * h**3)
        assert ep.du(k) == pytest.approx(du, rel=tol, abs=tol)
        assert ep.dz(k) == pytest.approx(dz, rel=tol, abs=tol)


def test_even_potential_u_identically_zero():
    ep = uz_jets(PotentialSpec(1.0, {2: 0.01, 4: 0.01, 6: 0.005}), x_order=5)
    assert np.max(np.abs(ep.u_jet.coeffs.astype(float))) == 0.0


def test_uz_jets_with_t_directions():
    # z(x, t) for the quartic family: z = x - 12 t x^2 + 288 t^2 x^3 + ...
    ep = uz_jets(PotentialSpec(1.0, {4: 0.0}), x_order=1, t_order=2)
    z = ep.z_jet
    assert float(z.coeffs[0, 0]) == pytest.approx(1.0, abs=1e-13)
    assert float(z.coeffs[0, 1]) == pytest.approx(-12.0, rel=1e-11)
    assert float(z.coeffs[0, 2]) == pytest.approx(288.0, rel=1e-10)
    assert float(z.coeffs[1, 1]) == pytest.approx(-24.0, rel=1e-10)


def test_uz_jets_lifts_through_endpoint_residuals(monkeypatch):
    # one residual per lifting pass, sum(orders) + 1 of them, plus the final
    # convergence check; the Newton solve before uses no jets
    orders = (3, 2)
    lifts = []

    def counted(u, z, pot, **kwargs):
        if isinstance(u, Jet) and u.orders == orders:
            lifts.append(None)
        return endpoint_residuals(u, z, pot, **kwargs)

    monkeypatch.setattr(endpoints, "endpoint_residuals", counted)
    uz_jets(PotentialSpec(1.0, {4: 0.01}), x_order=3, t_order=2)
    assert len(lifts) == sum(orders) + 2


def test_float_jets_stay_float64_and_public_floats_stay_python_floats():
    pot = PotentialSpec(1.1, {3: 0.01, 4: 0.02})
    ep = uz_jets(pot, x_order=4, t_order=1)
    assert ep.u_jet.coeffs.dtype == ep.z_jet.coeffs.dtype == np.float64
    assert type(ep.u) is float and type(ep.z) is float and type(ep.residual_norm) is float
    assert "np.float64(" not in repr(solve_endpoints(pot))
    with pytest.raises(NoOneCutSolutionError) as info:
        solve_endpoints(PotentialSpec(1.0, {4: -1.5 / 48}))
    assert "np.float64(" not in str(info.value)


def test_one_cut_certificate():
    pot = PotentialSpec(1.0, {4: 0.01})
    ep = solve_endpoints(pot)
    h = h_classical(pot, ep)
    assert one_cut_certificate(h, ep.alpha_minus, ep.alpha_plus)

    gue = PotentialSpec(1.0, {})
    epg = solve_endpoints(gue)
    assert one_cut_certificate(h_classical(gue, epg), -2, 2)

    # a polynomial dipping negative inside the interval must be rejected
    import dataclasses
    bad = dataclasses.replace(h, monomial=np.array([-0.05, 0.0, 1.0]))
    assert not one_cut_certificate(bad, ep.alpha_minus, ep.alpha_plus)


@pytest.mark.parametrize("kwargs,name", [
    ({"x_order": 0}, "x_order"),
    ({"x_order": -1}, "x_order"),
    ({"x_order": 1.0}, "x_order"),
    ({"x_order": True}, "x_order"),
    ({"x_order": "2"}, "x_order"),
    ({"x_order": 1, "t_order": -1}, "t_order"),
    ({"x_order": 1, "t_order": 0.5}, "t_order"),
])
def test_uz_jets_names_a_bad_order_before_solving(monkeypatch, kwargs, name):
    def no_solve(pot):
        raise AssertionError("solved before checking the orders")

    monkeypatch.setattr(endpoints, "solve_endpoints", no_solve)
    with pytest.raises(InvalidParameterError, match=name):
        uz_jets(PotentialSpec(1.0, {4: 0.01}), **kwargs)


def test_uz_jets_accepts_numpy_int_orders():
    ep = uz_jets(PotentialSpec(1.0, {4: 0.01}), x_order=np.int64(2), t_order=np.int64(0))
    assert ep.u_jet.orders == (2,)
