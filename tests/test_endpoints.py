import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import eqmap.algebra as algebra
import eqmap.endpoints as endpoints
from eqmap.algebra import Jet, _is_zero, _jet, inv_sqrt_R_series, series_times_poly_coeff
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
from eqmap.genfun import e1_value
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


def _count_residuals(monkeypatch):
    """A list that grows by one per residual evaluation: endpoint_residuals
    and the plain-float kernel of Newton and the fold search."""
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("endpoint_residuals", "_uz_residuals"):
        monkeypatch.setattr(endpoints, name, counted(getattr(endpoints, name)))
    return calls


@pytest.mark.parametrize("x", [0.8, 1.0, 1.2])
@pytest.mark.parametrize("c", [1.1, 1.5, 2.0])
@pytest.mark.parametrize("j", [4, 6])
def test_fold_located_at_critical_coupling(monkeypatch, j, c, x):
    # pure quartic: z + 12 t z**2 = x folds at t = -1/(48 x) (Bessis-Itzykson-
    # Zuber); pure sextic: z + 60 t z**3 = x folds at t = -1/(405 x**2)
    t_c = -1 / (48 * x) if j == 4 else -1 / (405 * x * x)
    calls = _count_residuals(monkeypatch)
    with pytest.raises(NoOneCutSolutionError) as info:
        solve_endpoints(PotentialSpec(x, {j: c * t_c}))
    err = info.value
    assert set(err.t_star) == {j}
    assert err.t_star[j] == pytest.approx(t_c, rel=1e-10)
    assert err.s_star == pytest.approx(1 / c, rel=1e-10)
    assert repr(err.s_star) in str(err) and repr(err.t_star) in str(err)
    assert "_uz_residuals" in calls and len(calls) <= 100


def test_newton_builds_no_jacobian_it_does_not_use(monkeypatch):
    # the quartic converges in one Newton solve of four steps; the polished
    # point is checked with the float residual, so only the four points that
    # take a step pay for an order-1 Taylor Jacobian
    points = []
    full = endpoints._residual_and_jacobian

    def counted(u, z, pot, **kwargs):
        points.append((u, z))
        return full(u, z, pot, **kwargs)

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
    calls = _count_residuals(monkeypatch)
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


# Potentials whose first Newton from the Gaussian point used to wander: the
# first two settled on a root off the one-cut branch, (u, z) = (3.0035, 8.1171)
# and (2.42, 3.50), and the third reported a fold at s* = 0.1145.  Each bracket
# is where a 40000-step continuation in s from the Gaussian point first fails
# (det J x**2 has fallen to 0.002, 0.002 and 0.03 there).
@pytest.mark.parametrize("pot,lo,hi", [
    (PotentialSpec(0.6910557466011572, {
        1: -0.060708953139370206, 2: -0.011363233775659176, 3: 0.0011453537255268903,
        4: -0.07109678194292464, 5: 0.006838368949948659}), 0.3397, 0.339725),
    (PotentialSpec(1.1050244746764066, {
        1: 0.019425607931382326, 2: -0.01986618839483873, 3: -0.0036057496398430207,
        4: 0.0010232821528755667, 5: -0.016343003692352635, 6: 0.0022436309749089313}),
     0.58345, 0.583475),
    (PotentialSpec(4.712069793007642, {
        1: 6.045646370246224e-05, 2: -0.004981753945152314, 3: 0.0016467379250415179,
        4: -0.01829772606038095, 5: 0.016797815570893212, 6: 0.0011285098276531125}),
     0.052325, 0.05235),
], ids=["off-branch-quintic", "off-branch-sextic", "early-fold-sextic"])
def test_wandering_newton_stops_at_the_branch_fold(pot, lo, hi):
    with pytest.raises(NoOneCutSolutionError) as info:
        solve_endpoints(pot)
    assert lo < info.value.s_star < hi


@pytest.mark.parametrize("x", [0.8, 1.0, 1.2])
@pytest.mark.parametrize("c", [1.1, 1.25, 1.5])
def test_failing_newton_stops_once_a_step_does_not_halve_the_residual(monkeypatch, c, x):
    # past its critical coupling the pure quartic has no real root; Newton
    # from the Gaussian point used to take up to 16 order-1 evaluations
    # before giving up, and the monotonicity test stops it within 4
    calls = _count_residuals(monkeypatch)
    assert endpoints._newton(PotentialSpec(x, {4: -c / (48 * x)}), 0.0, x)[3] is False
    assert calls == ["_uz_residuals"] * len(calls) and len(calls) <= 4


@pytest.mark.parametrize("t", [{4: -1.5 / 48}, {6: -1.5 / 405}, {3: 0.05, 4: -0.03}])
def test_fold_search_makes_no_numpy_solve(monkeypatch, t):
    # the turning-point systems are solved by Cramer's rule over Python floats
    def refuse(*args):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    with pytest.raises(NoOneCutSolutionError) as info:
        solve_endpoints(PotentialSpec(1.0, t))
    assert 0 < info.value.s_star < 1
    if len(t) == 1:  # the pure quartic and sextic fold at 1/1.5
        assert info.value.s_star == pytest.approx(1 / 1.5, rel=1e-12)


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


def test_potential_converts_numpy_scalars_and_refuses_non_numbers():
    # an np.float64 coefficient once broadcast over the solver's (u, z) arithmetic
    def bits(pot):
        ep, jets, e1 = solve_endpoints(pot), uz_jets(pot, x_order=3), e1_value(pot)
        assert type(e1.log_argument) is float
        return (_hex([ep.u, ep.z, ep.residual_norm]), _hex(jets.u_jet.coeffs),
                _hex(jets.z_jet.coeffs), _hex(dataclasses.astuple(e1)))

    for x, t in [(np.float64(1.1), {3: np.float64(0.02), 4: np.float64(0.01)}),
                 (np.float32(0.9), {4: np.float32(0.01), 6: np.float32(0.001)}),
                 (np.int64(2), {2: np.int64(0), 4: np.int64(1)})]:
        pot = PotentialSpec(x, t)
        assert type(pot.x) is type(x.item())
        assert [type(v) for v in pot.t.values()] == [type(v.item()) for v in t.values()]
        assert bits(pot) == bits(PotentialSpec(x.item(), {j: v.item() for j, v in t.items()}))
    for bad in [True, np.bool_(False), 1j, np.complex128(1), "1", None]:
        with pytest.raises(InvalidParameterError, match="face weight x"):
            PotentialSpec(bad, {4: 0.01})
        with pytest.raises(InvalidParameterError, match="t4"):
            PotentialSpec(1.0, {3: 0.01, 4: bad})


def test_potential_accepts_large_rationals():
    pot = PotentialSpec(Fraction(10**400), {4: Fraction(1, 10**400)})
    assert pot.t == {4: Fraction(1, 10**400)}


def test_gaussian_point_degenerate_for_huge_face_weight():
    # det J = 1/x**2 at the Gaussian point falls below the singularity gate
    with pytest.raises(DegeneratePotentialError, match=r"x = 100000000\.0"):
        solve_endpoints(PotentialSpec(1e8, {4: 0.01}))


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


def _box_jet_partials(u, z, n, pot, coeffs):
    """The order-(n, n) box-jet route: value, d/du, d/dz and, at n = 2, the
    second partials of both residuals of ``coeffs``."""
    rs = endpoint_residuals(Jet.variable(float(u), 0, (n, n)), Jet.variable(float(z), 1, (n, n)),
                            pot, _coeffs=coeffs)
    return [[r.partial(k) if isinstance(r, Jet) else (r if k == (0, 0) else 0.0)
             for k in _FOLD_PARTIALS[:3 * n]] for r in rs]


def test_scalar_jacobian_and_fold_partials_bit_identical_to_jets():
    from test_algebra import _residual_points, _residual_potentials

    points = list(_scalar_route_points())
    # explicit 0.0 and -0.0 coefficients, a Fraction face weight, even potentials
    points += [(pot, u, z) for pot in _residual_potentials() for u, z in _residual_points(pot)]
    special = [math.inf, -math.inf, math.nan]
    points += [(pot, u, z) for pot, _, _ in points[::40]
               for u, z in [(v, 1.0) for v in special] + [(0.3, v) for v in special]
               + [(v, v) for v in special]]
    for pot, u, z in points:
        r, jac = endpoints._residual_and_jacobian(u, z, pot)
        (a, a_u, a_z), (b, b_u, b_z) = _box_jet_partials(u, z, 1, pot, None)
        assert _hex(r + jac[0] + jac[1]) == _hex([a, b, a_u, a_z, b_u, b_z]), (pot, u, z)
        # Newton's coefficients and the fold search's perturbation part
        for coeffs in (None, endpoints._perturbation_coeffs(pot)):
            for n in (1, 2):
                got = endpoints._uz_residuals(u, z, n, pot, _coeffs=coeffs)
                assert _hex(got) == _hex(_box_jet_partials(u, z, n, pot, coeffs)), (pot, u, z, n)


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

    triangle = endpoints._UZ_LAYOUTS[n]

    def pair():
        box = Jet(np.array([[draw() for _ in range(n + 1)] for _ in range(n + 1)]))
        return box, _jet([float(box.coeffs[m]) for m in kept], triangle, True)

    def same(box, tri):
        assert tri.lay is triangle and box.orders == (n, n)
        return _hex([box.coeffs[m] for m in kept]) == _hex(tri.c)

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
        assert _is_zero(sa) is zero
    assert _is_zero(_jet([0.0, -0.0, 0.0], endpoints._UZ_LAYOUTS[1], True))
    assert not _is_zero(_jet([0.0, 0.0, 1e-300], endpoints._UZ_LAYOUTS[1], True))


# per entry of a left factor, the (product entry, right entry) pairs, keyed by
# the entry count: entries (1, z, u) at order 1, (1, z, z2, u, uz, u2) at order 2;
# the hand-written table the (u, z) jets multiplied with before the shared kernel
_UZ_PAIRS = {3: (((0, 0), (1, 1), (2, 2)), ((1, 0),), ((2, 0),)),
             6: (((0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5)), ((1, 0), (2, 1), (4, 3)),
                 ((2, 0),), ((3, 0), (4, 1), (5, 3)), ((4, 0),), ((5, 0),))}


def test_uz_triangle_tables_reproduce_the_pair_literal():
    # the triangle layouts' products against a loop over the literal pairs
    rng = random.Random(4)
    for n, k in ((1, 3), (2, 6)):
        for _ in range(200):
            a, b = ([rng.choice([0.0, -0.0, rng.uniform(-9, 9)]) for _ in range(k)]
                    for _ in range(2))
            want = [0.0] * k
            for x, row in zip(a, _UZ_PAIRS[k]):
                if x != 0:
                    for m, src in row:
                        want[m] += x * b[src]
            assert _hex(algebra._PRODUCTS[endpoints._UZ_LAYOUTS[n]](a, b, 0.0)) == _hex(want)
    # the products by U = (u, 0, 1, ...) and Z = (z, 1, 0, ...) of Newton and
    # the fold search, with infinities and NaN that meet the zero entries
    special = [0.0, -0.0, math.inf, -math.inf, math.nan]
    for n, k in ((1, 3), (2, 6)):
        exps = endpoints._UZ_LAYOUTS[n].exps
        for _ in range(200):
            a = [rng.choice(special + [rng.uniform(-9, 9)] * 3) for _ in range(k)]
            y = rng.choice(special + [rng.uniform(-9, 9)] * 3)
            for product, unit in zip(endpoints._uz_products(n), ((1, 0), (0, 1))):
                b = [y] + [1.0 if e == unit else 0.0 for e in exps[1:]]
                want = [0.0] * k
                for x, row in zip(a, _UZ_PAIRS[k]):
                    if x != 0:
                        for m, src in row:
                            want[m] += x * b[src]
                assert _hex(product(a, b)) == _hex(want)
                s = [rng.choice(special + [rng.uniform(-9, 9)] * 3) for _ in range(k)]
                assert _hex(product(a, b, s)) == _hex([v + w for v, w in zip(s, want)])


def test_solve_endpoints_multiplies_no_jet(monkeypatch):
    # Newton and the fold search run on plain floats: a solve, also one that
    # runs into its fold, builds no jet and multiplies none; the lift
    # multiplies over the box of its orders
    layouts = []
    mul, make = Jet.__mul__, algebra._jet

    def counted(self, other):
        layouts.extend(v.lay for v in (self, other) if isinstance(v, Jet))
        return mul(self, other)

    def made(c, lay, f64):
        layouts.append(lay)
        return make(c, lay, f64)

    monkeypatch.setattr(Jet, "__mul__", counted)
    monkeypatch.setattr(Jet, "__rmul__", counted)
    monkeypatch.setattr(algebra, "_jet", made)
    solve_endpoints(PotentialSpec(1.0, {3: 0.02, 4: 0.01, 5: -0.002, 6: 0.001}))
    with pytest.raises(NoOneCutSolutionError) as info:
        solve_endpoints(PotentialSpec(1.0, {3: 0.05, 4: -0.03}))
    assert info.value.s_star is not None
    assert layouts == []
    uz_jets(PotentialSpec(1.0, {4: 0.01}), x_order=2)
    assert algebra._box((2,)) in layouts


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
    # the lift's kernel runs once per lifting pass, sum(orders) + 1 times,
    # plus the final convergence check; the Newton solve before uses no jets
    orders = (3, 2)
    lifts = []
    jet_residuals = endpoints._jet_residuals

    def counted(U, Z, lay, coeffs, xinv):
        if lay is algebra._box(orders):
            lifts.append(None)
        return jet_residuals(U, Z, lay, coeffs, xinv)

    monkeypatch.setattr(endpoints, "_jet_residuals", counted)
    uz_jets(PotentialSpec(1.0, {4: 0.01}), x_order=3, t_order=2)
    assert len(lifts) == sum(orders) + 2


def _jet_object_residuals(U, Z, coeffs, xinv):
    """endpoint_residuals over jets with the face weight's reciprocal ``xinv``
    multiplied in: the Jet-object route of the lift's kernel."""
    w = algebra.substitute_uniformizer(coeffs, U, Z, _band=(-1, 0))
    return w.coeff(0) * xinv, w.coeff(-1) * xinv - 1


def _jet_object_uz_jets(pot, x_order, t_order=0):
    """uz_jets over Jet objects, every pass through _jet_object_residuals: the
    jets of (u, z) and the largest entry of the gate's residuals."""
    base = solve_endpoints(pot)
    tkeys = sorted(pot.t) if t_order > 0 else []
    orders = (x_order,) + (t_order,) * len(tkeys)
    xinv = Jet.variable(float(pot.x), 0, orders).reciprocal()
    coeffs = xvprime_coeffs(pot, {j: Jet.variable(float(pot.t[j]), 1 + i, orders)
                                  for i, j in enumerate(tkeys)})
    _, ((a, b), (c, d)) = endpoints._residual_and_jacobian(base.u, base.z, pot)
    det = a * d - b * c
    (a, b), (c, d) = (d / det, -b / det), (-c / det, a / det)
    U, Z = Jet.constant(base.u, orders), Jet.constant(base.z, orders)
    for _ in range(sum(orders) + 1):
        r1, r2 = _jet_object_residuals(U, Z, coeffs, xinv)
        U = U - (a * r1 + b * r2)
        Z = Z - (c * r1 + d * r2)
    r1, r2 = _jet_object_residuals(U, Z, coeffs, xinv)
    return U, Z, np.max(np.abs(r1.c + r2.c))


def _lift_cases():
    """x-jets of corpus members, pure quartic and sextic potentials on both
    sides of their folds, even potentials (one with an all-zero u jet) and
    explicit zero coefficients, each at x-order 1 and max(deg, 5) + 1; then
    t-jets of orders 1 and 2, one of which fails the convergence gate."""
    from eqmap.acceptance import one_cut_corpus

    pots = list(one_cut_corpus(12))
    pots += [PotentialSpec(x, {j: c}) for x in (0.8, 1.2)
             for j, c in ((4, -0.02), (4, -1.5 / 48), (4, 0.1), (6, -0.003), (6, 0.01))]
    pots += [PotentialSpec(1.0, {2: 0.1, 4: 0.005, 6: 0.0005}), PotentialSpec(1.0, {4: 0.0}),
             PotentialSpec(1.0, {2: 0.0, 4: -0.0, 6: 0.001}),
             PotentialSpec(1.3, {1: 0.0, 2: -0.0014, 3: 0.0, 4: 0.0})]
    for pot in pots:
        for x_order in (1, max(pot.degree, 5) + 1):
            yield pot, x_order, 0
    for t in ({4: 0.01}, {3: 0.02, 4: 0.015}, {2: 0.1, 4: 0.005, 6: 0.0005}, {3: -0.01, 6: 0.001}):
        for x_order, t_order in ((2, 1), (1, 2)):
            yield PotentialSpec(1.1, t), x_order, t_order
    yield PotentialSpec(1, {3: 0.01, 4: 0.01, 5: 0.002}), 2, 2


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_lift_kernel_matches_jet_residuals_at_special_entries():
    # entries of U, Z and the coefficient jets drawn with signed zeros,
    # infinities and NaN, all-zero U (as for an even potential), Z and
    # coefficients; float jets with an x-jet reciprocal, int jets without
    rng = random.Random(5)
    special = [0.0, -0.0, 0.0, math.inf, -math.inf, math.nan]
    for _ in range(300):
        orders = rng.choice([(2,), (1, 1), (3, 1)])
        lay, f64 = algebra._box(orders), rng.random() < 0.7
        k = len(lay.exps)

        def draw(zero_share):
            if rng.random() < zero_share:
                return [0.0 if f64 else 0] * k
            if f64:
                return [rng.choice(special + [rng.uniform(-2, 2)] * 6) for _ in range(k)]
            return [rng.choice([0, 0, rng.randint(-5, 5)]) for _ in range(k)]

        U, Z = draw(0.3), draw(0.1)
        coeffs = [rng.choice([0, 0.0, -0.0, 1, rng.uniform(-1, 1), None, None])
                  for _ in range(rng.randint(2, 6))]
        coeffs = [_jet(draw(0.2), lay, f64) if c is None else c if f64 else int(c)
                  for c in coeffs]
        xinv = Jet.variable(rng.uniform(0.5, 2), 0, orders).reciprocal() if f64 else None
        got = endpoints._jet_residuals(U, Z, lay, coeffs, None if xinv is None else xinv.c)
        want = _jet_object_residuals(_jet(U, lay, f64), _jet(Z, lay, f64), coeffs,
                                     1 if xinv is None else xinv)
        for g, w in zip(got, want):
            w = w.c if isinstance(w, Jet) else [w] + [0] * (k - 1)
            assert _hex(g) == _hex(w) and [type(v) for v in g] == [type(v) for v in w]


def test_flat_lift_matches_the_jet_object_lift_bit_for_bit():
    gated, lifted = 0, 0
    for pot, x_order, t_order in _lift_cases():
        try:
            U, Z, worst = _jet_object_uz_jets(pot, x_order, t_order)
        except EqmapError:  # no endpoint solution to lift
            continue
        if worst <= 1e-7:
            ep = uz_jets(pot, x_order, t_order)
            assert (_hex(ep.u_jet.c), _hex(ep.z_jet.c)) == (_hex(U.c), _hex(Z.c)), pot
            assert ep.u_jet.lay is U.lay and ep.z_jet.lay is Z.lay
            lifted += 1
        else:
            gated += 1
            with pytest.raises(DegeneratePotentialError, match="residual %.3g" % worst):
                uz_jets(pot, x_order, t_order)
    assert gated >= 1 and lifted >= 50


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


def test_one_cut_certificate_refuses_nan():
    # NaN <= 0 is False, so a NaN h or endpoint used to pass every check
    class NanValued:
        monomial = np.array([1.0])

        def value(self, lam):
            return np.full_like(lam, math.nan)

    assert not one_cut_certificate(NanValued(), -1.0, 1.0)
    pot = PotentialSpec(1.0, {4: 0.01})
    ep = solve_endpoints(pot)
    h = h_classical(pot, ep)
    nan_h = dataclasses.replace(h, monomial=np.array([math.nan, 0.0, 1.0]))
    assert not one_cut_certificate(nan_h, -1.0, 1.0)
    for lo, hi, name in ((math.nan, 1.0, "alpha_minus"), (-1.0, math.nan, "alpha_plus"),
                         (-math.inf, 1.0, "alpha_minus"), (-1.0, math.inf, "alpha_plus")):
        with pytest.raises(InvalidParameterError, match=name):
            one_cut_certificate(h, lo, hi)


@pytest.mark.parametrize("which", [0, 1])
def test_newton_never_accepts_a_nan_residual(monkeypatch, which):
    # Python's max(1e-17, nan) is 1e-17: a residual NaN in one entry alone,
    # next to one below the tolerance, must not read as converged
    def nan_residual(u, z, pot, **kwargs):
        r = [1e-17, 1e-17]
        r[which] = math.nan
        return tuple(r), ((1.0, 0.0), (0.0, 1.0))

    monkeypatch.setattr(endpoints, "_residual_and_jacobian", nan_residual)
    assert endpoints._newton(PotentialSpec(1.0, {4: 0.01}), 0.0, 1.0)[3] is False
    with pytest.raises(NoOneCutSolutionError):
        solve_endpoints(PotentialSpec(1.0, {4: 0.01}))


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


def test_uz_jets_refuses_nan_jets():
    # at a tiny face weight the x-jet reciprocal overflows and the lift
    # produces NaN entries, which the convergence gate must refuse
    with pytest.raises(DegeneratePotentialError, match="residual nan"):
        uz_jets(PotentialSpec(1e-100, {4: 0.01}), x_order=3)


@pytest.mark.parametrize("which", [0, 1])
def test_jet_gate_refuses_a_nan_in_either_residual(monkeypatch, which):
    # `worst > 1e-7` passed a NaN, and max() dropped one that came second
    lift_calls = []
    jet_residuals = endpoints._jet_residuals

    def nan_at_gate(U, Z, lay, coeffs, xinv):
        r = jet_residuals(U, Z, lay, coeffs, xinv)
        lift_calls.append(None)  # a lift pass or the gate
        if len(lift_calls) == 4:  # the gate, after the 3 passes of an order-2 lift
            r[which] = [r[which][0] + math.nan] + r[which][1:]
        return r

    monkeypatch.setattr(endpoints, "_jet_residuals", nan_at_gate)
    with pytest.raises(DegeneratePotentialError, match="residual nan"):
        uz_jets(PotentialSpec(1.0, {4: 0.01}), x_order=2)


@pytest.mark.parametrize("k", [2, 3, -1])
def test_endpoint_derivative_outside_the_jets_is_refused_by_name(k):
    ep = uz_jets(PotentialSpec(1.0, {4: 0.01}), x_order=1, t_order=1)
    for derivative in (ep.du, ep.dz):
        with pytest.raises(InvalidParameterError, match=r"\(%d, 0\).*orders \(1, 1\)" % k):
            derivative(k)
