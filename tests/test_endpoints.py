import dataclasses
import hashlib
import itertools
import math
import operator
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
from test_algebra import _UZ_LAYOUTS


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
    """A list that grows by one per residual evaluation: endpoint_residuals,
    Newton's residual and Jacobian, and the fold search's partials."""
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("endpoint_residuals", "_residual_and_jacobian", "_uz_residuals"):
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


def test_newton_reads_one_residual_route(monkeypatch):
    # the quartic converges in one Newton solve of four steps, and the polished
    # point is checked by the same kernel: five points, none of them through
    # endpoint_residuals or substitute_uniformizer; a fold solve neither
    points = []
    full = endpoints._residual_and_jacobian

    def counted(u, z, x, coeffs):
        points.append((u, z))
        return full(u, z, x, coeffs)

    def refused(*args, **kwargs):
        raise AssertionError("the solver left the band kernel")

    monkeypatch.setattr(endpoints, "_residual_and_jacobian", counted)
    for module, name in ((endpoints, "endpoint_residuals"), (endpoints, "substitute_uniformizer"),
                         (algebra, "substitute_uniformizer")):
        monkeypatch.setattr(module, name, refused)
    ep = solve_endpoints(PotentialSpec(1.0, {4: 0.01}))
    assert abs(ep.z - quartic_z(0.01)) < 1e-13
    assert len(points) == 5 and points[-1] == (ep.u, ep.z)
    with pytest.raises(NoOneCutSolutionError) as info:
        solve_endpoints(PotentialSpec(1.0, {4: -1.5 / 48}))
    assert info.value.s_star == pytest.approx(1 / 1.5, rel=1e-10) and len(points) > 5
    monkeypatch.undo()
    assert ep.residual_norm == max(abs(r) for r in endpoint_residuals(ep.u, ep.z, ep.potential))


def _step_parameter(pot, coeffs):
    """The homotopy parameter s of a step, read back from the entry
    j * (t_j * s) of its coefficient list at a float t_j != 0 (j != 2): every
    target of the continuation is a multiple of 2**-23, the smallest step."""
    j = min(j for j, v in pot.t.items() if j != 2 and type(v) is float and v != 0)
    return round(coeffs[j - 1] / (j * pot.t[j]) * 2**23) / 2**23


# a solve of two accepted steps in three, and a fold solve of four in ten;
# t1 as a Fraction of its float and the explicit int and signed zeros keep
# each path, since Fraction(v) * s and v * s round alike
_STEPPED = PotentialSpec(2.1764363647503373, {
    1: Fraction(0.008927961291368275), 2: 0.01088664261218368, 3: -0.04569039157648682,
    4: -0.0328479807819946, 5: -0.037103886997333344, 6: 0.0089174653680541, 7: 0, 8: -0.0})
_STEPPED_FOLD = PotentialSpec(0.39592527181269, {
    1: Fraction(0.04335174740595932), 2: -0.08631692403009769, 3: -0.10447073215195168,
    4: -0.14534098187014508, 5: -0.1485650159210098, 6: 0.05512832403786383, 7: 0, 8: -0.0,
    9: 0.0})


@pytest.mark.parametrize("pot,accepted,tried", [(_STEPPED, 2, 3), (_STEPPED_FOLD, 4, 10)],
                         ids=["solved", "fold"])
def test_continuation_builds_no_potential_per_step(monkeypatch, pot, accepted, tried):
    # each step hands Newton its own coefficient list; the one PotentialSpec
    # a solve may build is the fold's, for t_star
    steps, built = [], []
    newton, post_init = endpoints._newton, PotentialSpec.__post_init__

    def recorded(x, coeffs, u, z):
        out = newton(x, coeffs, u, z)
        steps.append((coeffs, out[3]))
        return out

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(endpoints, "_newton", recorded)
    monkeypatch.setattr(PotentialSpec, "__post_init__", counted)
    if pot is _STEPPED:
        solve_endpoints(pot)
        assert built == []
    else:
        with pytest.raises(NoOneCutSolutionError) as info:
            solve_endpoints(pot)
        assert len(built) == 1 and built[0].t == info.value.t_star
    monkeypatch.undo()
    assert (sum(ok for _, ok in steps), len(steps)) == (accepted, tried)
    for coeffs, _ in steps:
        want = xvprime_coeffs(pot.scaled(_step_parameter(pot, coeffs)))
        assert [float(v).hex() for v in coeffs] == [float(v).hex() for v in want]


@pytest.mark.parametrize("t", [
    {4: 0.01},
    {1: 3, 2: Fraction(-1, 7), 3: 0.0, 4: -0.0125, 6: -0.0},
    {2: 2, 3: Fraction(2, 3), 4: 1e-300, 5: -0.0, 6: 0},
    {1: -0.0, 2: 0.0, 3: 0.1, 4: 5, 5: Fraction(-10**30, 3)},
], ids=["float", "mixed", "tiny", "huge"])
def test_step_coefficients_round_as_the_scaled_potential(monkeypatch, t):
    # Newton is replaced by a script that accepts every third step and never
    # moves the point, so the targets walk a grid of s from 1 to spacings
    # below 2**-15; each list must be xvprime_coeffs(pot.scaled(s)) bit for bit
    pot, steps = PotentialSpec(0.75, t), []

    def scripted(x, coeffs, u, z):
        steps.append(coeffs)
        return u, z, 0.0, len(steps) % 3 == 0

    monkeypatch.setattr(endpoints, "_newton", scripted)
    monkeypatch.setattr(endpoints, "_locate_fold", lambda *args: None)
    with pytest.raises(NoOneCutSolutionError):
        solve_endpoints(pot)
    grid = sorted({_step_parameter(pot, coeffs) for coeffs in steps})
    assert len(steps) == 64 and len(grid) > 20 and min(map(operator.sub, grid[1:], grid)) < 2**-15
    for coeffs in steps:
        want = xvprime_coeffs(pot.scaled(_step_parameter(pot, coeffs)))
        assert [float(v).hex() for v in coeffs] == [float(v).hex() for v in want]


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
    pot = PotentialSpec(x, {4: -c / (48 * x)})
    assert endpoints._newton(pot.x, xvprime_coeffs(pot), 0.0, x)[3] is False
    assert calls == ["_residual_and_jacobian"] * len(calls) and 1 <= len(calls) <= 4


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
    """The order-(n, n) box-jet route through substitute_uniformizer: value,
    d/du, d/dz and, at n = 2, the second partials of [T^0] and [T^-1] of
    ``coeffs`` over x, the residuals before r2's Gaussian 1 is taken off."""
    U, Z = Jet.variable(float(u), 0, (n, n)), Jet.variable(float(z), 1, (n, n))
    w = algebra.substitute_uniformizer(coeffs, U, Z)
    rs = w.coeff(0) / pot.x, w.coeff(-1) / pot.x
    return [[r.partial(k) if isinstance(r, Jet) else (r if k == (0, 0) else 0.0)
             for k in _FOLD_PARTIALS[:3 * n]] for r in rs]


def _hex_value(values):
    """float.hex of each value with a zero's sign dropped: bits up to the sign of a zero."""
    return [(float(v) + 0.0).hex() for v in np.ravel(values)]


def _newton_half_points():
    """The scalar-route points, the residual points of test_algebra (explicit 0.0
    and -0.0 coefficients, a Fraction face weight, even potentials), then
    every 40th point again at infinite and NaN coordinates."""
    from test_algebra import _residual_points, _residual_potentials

    points = list(_scalar_route_points())
    points += [(pot, u, z) for pot in _residual_potentials() for u, z in _residual_points(pot)]
    special = [math.inf, -math.inf, math.nan]
    return points + [(pot, u, z) for pot, _, _ in points[::40]
                     for u, z in [(v, 1.0) for v in special] + [(0.3, v) for v in special]
                     + [(v, v) for v in special]]


def test_scalar_jacobian_bit_identical_to_jets():
    """Newton's residuals and Jacobian against the box-jet route, bit for bit
    up to the sign of a zero: the band kernel forms terms that the jets skip
    as zero, which may flip a zero's sign, never a value's bits.
    test_signed_zero_coefficients_keep_their_output_bits pins the signs that
    reach an output."""
    for pot, u, z in _newton_half_points():
        # Newton's coefficients and the fold search's perturbation part
        for coeffs in (xvprime_coeffs(pot), endpoints._perturbation_coeffs(pot)):
            r, jac = endpoints._residual_and_jacobian(float(u), float(z), float(pot.x),
                                                      [float(c) for c in coeffs])
            (a, a_u, a_z), (b, b_u, b_z) = _box_jet_partials(u, z, 1, pot, coeffs)
            assert _hex_value(r + jac[0] + jac[1]) == _hex_value([a, b - 1, a_u, a_z, b_u, b_z]), \
                (pot, u, z, coeffs)


def _derivative_coeffs(coeffs, zero):
    """P' of the ascending list P, padded with ``zero`` to P's length, as the fold search forms it."""
    return [i * c for i, c in enumerate(coeffs)][1:] + [zero]


class _ExactKernels(dict):
    """_band over the exact triangle jets in place of each traced kernel: the
    entry lists of [T^0] and [T^-1], with a zero or a number padded out."""

    def __missing__(self, m):
        def kernel(u, z, *coeffs):
            out = endpoints._band(coeffs, [u, 0, 1], [z, 1, 0], endpoints._UZ_LAYOUT, 0,
                                  operator.pos)
            return [v if type(v) is list else [0 if v is None else v, 0, 0] for v in out]
        self[m] = kernel
        return kernel


def test_fold_partials_equal_the_order_two_jets_exactly(monkeypatch):
    """The fold search's second partials come from the kernel on P': d/du
    [T^k] P = [T^k] P', d/dz [T^k] P = [T^(k+1)] P' and [T^1] P' = [T^-1] P' / z.
    Over Fractions, with _band standing in for the float kernel, every value
    and partial equals the order-2 box jets of substitute_uniformizer by ==."""
    monkeypatch.setattr(endpoints, "_KERNELS", _ExactKernels())
    rng = random.Random(33)
    for _ in range(30):
        coeffs = [Fraction(rng.choice([0, rng.randint(-9, 9)]), rng.randint(1, 7))
                  for _ in range(rng.randint(2, 8))]
        u = rng.choice([0, Fraction(rng.randint(-5, 5), rng.randint(1, 6))])
        z = Fraction(rng.randint(1, 30), rng.randint(1, 7))
        x = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        got = endpoints._uz_residuals(u, z, x, coeffs, _derivative_coeffs(coeffs, 0))
        U, Z = Jet.variable(u, 0, (2, 2)), Jet.variable(z, 1, (2, 2))
        w = algebra.substitute_uniformizer(coeffs, U, Z)
        want = [[r.partial(k) / x if isinstance(r, Jet) else (r / x if k == (0, 0) else 0)
                 for k in _FOLD_PARTIALS] for r in (w.coeff(0), w.coeff(-1))]
        assert list(got) == want, (coeffs, u, z, x)


# the fold partials' worst distance from the order-2 box jets over the points
# below is 5.2e-16 of the largest entry of the residue
_FOLD_PARTIALS_BOUND = 2e-15


def test_fold_partials_match_the_order_two_jets_on_floats():
    """The fold search's values and partials on floats against the order-2
    box jets, at the finite points of the Newton half, within
    _FOLD_PARTIALS_BOUND of the largest entry of each residue; the values and
    first partials bit for bit up to the sign of a zero, which keeps the
    turning-point residual's bits."""
    checked = 0
    for pot, u, z in _newton_half_points():
        if not math.isfinite(u) or not math.isfinite(z):
            continue  # the fold search ends at a non-finite iterate
        for coeffs in (xvprime_coeffs(pot), endpoints._perturbation_coeffs(pot)):
            floats = [float(c) for c in coeffs]
            got = endpoints._uz_residuals(float(u), float(z), float(pot.x), floats,
                                          _derivative_coeffs(floats, 0.0))
            for g, w in zip(got, _box_jet_partials(u, z, 2, pot, coeffs)):
                w = [float(v) for v in w]
                assert _hex_value(g[:3]) == _hex_value(w[:3]), (pot, u, z, coeffs)
                top = max(map(abs, w))
                assert max(abs(a - b) for a, b in zip(g, w)) <= _FOLD_PARTIALS_BOUND * top, \
                    (pot, u, z, coeffs)
                checked += top > 0
    assert checked > 2000


def test_band_kernel_matches_band_bit_for_bit():
    """The band kernel of each coefficient count against _band itself, bit
    for bit up to the sign of a zero: corpus points,
    signed zeros, int and Fraction coefficients, non-finite points and raw
    coefficient lists.  The kernel forms every term; _band skips and drops
    zeros, and its None and number outputs read as zero-padded entry lists.
    Where an input is not finite, a term _band skips may make the kernel's
    entry NaN."""
    from eqmap.acceptance import one_cut_corpus

    def kernel(u, z, coeffs):
        return endpoints._KERNELS[len(coeffs)](float(u), float(z), *map(float, coeffs))

    def band(u, z, coeffs):
        U, Z = endpoints._uz_entries(u, z)
        return [v if type(v) is list else [0.0 if v is None else float(v), 0.0, 0.0]
                for v in endpoints._band(coeffs, U, Z, endpoints._UZ_LAYOUT, 0.0, float)]

    exact = [PotentialSpec(2, {4: 1}),  # c[1] = 1, an int, with t2 absent
             PotentialSpec(Fraction(3, 2), {3: Fraction(1, 50), 4: Fraction(-1, 300)})]
    pots = list(one_cut_corpus(12)) + exact + [PotentialSpec(1.0, {2: 0.0, 4: -0.0, 6: 0.001})]
    special = [math.inf, -math.inf, math.nan]
    points = [(0.0, 1.0), (-0.0, 1.0), (0.3, -0.0)] + [(v, 1.0) for v in special] \
        + [(0.0, v) for v in special] + [(0.3, v) for v in special]
    cases = []
    for pot in pots:
        ep = solve_endpoints(pot)
        for u, z in points + [(ep.u, ep.z), (0.0, float(pot.x))]:
            for coeffs in (xvprime_coeffs(pot), endpoints._perturbation_coeffs(pot)):
                cases.append((u, z, coeffs))
    cases += [(math.inf, 1e-300, [1, 1, -0.0, 0.0, 1e300, 1e-300]),
              (0.0, 0.0, [0, -0.0, 0.0, math.inf]), (1.5, -0.0, [1.5, 1e-300, 0.0, -0.0])]
    # [T^0] of y**3 - 3 y**2 - 3 y + 5 vanishes with both its first partials
    # at (u, z) = (1, 1)
    cases.append((1.0, 1.0, [5.0, -3.0, -3.0, 1.0]))
    # x V'(y) = y**3 + y**2 * 3 t3 + ... with 3 t3 = -u * 4 t4: the first sum
    # of the Horner pass, u * 4 t4 + 3 t3, is exactly zero at u = 1/2
    cancel = PotentialSpec(1.0, {3: Fraction(-1, 3), 4: Fraction(1, 2)})
    cases.append((0.5, 0.7, xvprime_coeffs(cancel)))
    rng = random.Random(1)
    pool = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.5, -0.7, 2.0, 1e300, 1e-300]
    for _ in range(400):
        coeffs = [rng.choice(pool + [0, 1, rng.uniform(-1, 1)]) for _ in range(rng.randint(2, 5))]
        rng.randrange(2)  # this draw once chose a kernel order; kept, the cases stay drawn alike
        cases.append((rng.choice(pool), rng.choice(pool), coeffs))
    nan_cases = 0
    for u, z, coeffs in cases:
        got, want = _hex_value(kernel(u, z, coeffs)), _hex_value(band(u, z, coeffs))
        # with every input finite a term that _band skips is a signed zero;
        # with an infinite or NaN input it may be 0 * inf, which is NaN
        finite = all(map(math.isfinite, [u, z, *coeffs]))
        assert all(g == w or g == "nan" and not finite for g, w in zip(got, want)), \
            (u, z, coeffs)
        nan_cases += got != want
    assert 0 < nan_cases < 0.05 * len(cases)


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

    triangle = _UZ_LAYOUTS[n]

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
    assert _is_zero(_jet([0.0, -0.0, 0.0], _UZ_LAYOUTS[1], True))
    assert not _is_zero(_jet([0.0, 0.0, 1e-300], _UZ_LAYOUTS[1], True))


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
            assert _hex(algebra._PRODUCTS[_UZ_LAYOUTS[n]](a, b, 0.0)) == _hex(want)
    # the products by U = (u, 0, 1, ...) and Z = (z, 1, 0, ...), the jets the
    # band kernel is traced over at order 1, with infinities and NaN that meet
    # the zero entries
    special = [0.0, -0.0, math.inf, -math.inf, math.nan]
    for n, k in ((1, 3), (2, 6)):
        lay = _UZ_LAYOUTS[n]
        product = algebra._PRODUCTS[lay]
        for _ in range(200):
            a = [rng.choice(special + [rng.uniform(-9, 9)] * 3) for _ in range(k)]
            y = rng.choice(special + [rng.uniform(-9, 9)] * 3)
            for unit in ((1, 0), (0, 1)):
                b = [y] + [1.0 if e == unit else 0.0 for e in lay.exps[1:]]
                want = [0.0] * k
                for x, row in zip(a, _UZ_PAIRS[k]):
                    if x != 0:
                        for m, src in row:
                            want[m] += x * b[src]
                assert _hex(product(a, b, 0.0)) == _hex(want)
                s = [rng.choice(special + [rng.uniform(-9, 9)] * 3) for _ in range(k)]
                assert _hex(product(a, b, 0.0, s)) == _hex([v + w for v, w in zip(s, want)])


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
    w = algebra.substitute_uniformizer(coeffs, U, Z)
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
    ((a, b), (c, d)), det = endpoints._root_jacobian(base.u, base.z, pot)
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


def test_one_cut_certificate_refuses_ends_out_of_order():
    # (y - 0.3)**2 vanishes inside [-1, 1]; with the ends reversed the root
    # and critical-point tests selected nothing and the call returned True
    pot = PotentialSpec(1.0, {4: 0.01})
    h = dataclasses.replace(h_classical(pot, solve_endpoints(pot)),
                            monomial=np.array([0.09, -0.6, 1.0]))
    assert not one_cut_certificate(h, -1.0, 1.0)
    for lo, hi in ((1.0, -1.0), (0.5, 0.5)):
        with pytest.raises(InvalidParameterError, match="alpha_minus must be below") as info:
            one_cut_certificate(h, lo, hi)
        assert "alpha_minus=%r" % lo in str(info.value) and "alpha_plus=%r" % hi in str(info.value)


@pytest.mark.parametrize("which", [0, 1])
def test_newton_never_accepts_a_nan_residual(monkeypatch, which):
    # Python's max(1e-17, nan) is 1e-17: a residual NaN in one entry alone,
    # next to one below the tolerance, must not read as converged
    def nan_residual(u, z, x, coeffs):
        r = [1e-17, 1e-17]
        r[which] = math.nan
        return tuple(r), ((1.0, 0.0), (0.0, 1.0))

    monkeypatch.setattr(endpoints, "_residual_and_jacobian", nan_residual)
    assert endpoints._newton(1.0, xvprime_coeffs(PotentialSpec(1.0, {4: 0.01})), 0.0, 1.0)[3] is False
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


# sha256 of the solver's bits on the draws of test_solver_bits_are_pinned
_SOLVER_DIGEST = "62829e6477f1095c720b0ac92281e31250c8917c57fe43d62395b1aa585e4e8d"


def test_solver_bits_are_pinned():
    """The solver's bits on 40 seeded potentials of degree 3-6, 12 of which
    end at a fold: float.hex of (u, z, residual_norm) of each solve, or the
    error type and s_star, and the entries of uz_jets(pot, 3) of the first
    five that solve.  The draws use Random.uniform and arithmetic alone, so
    no platform's pow or LAPACK enters the inputs.  A change that moves these
    bits on purpose updates _SOLVER_DIGEST and says so in CHANGES.md."""
    rng, digest, folds, jets = random.Random(2), hashlib.sha256(), 0, 0
    for i in range(40):
        d = 3 + i % 4
        amp = 0.015 * (1 + i % 5) / (d - 2)
        x = rng.uniform(0.5, 2.0)
        pot = PotentialSpec(x, {j: rng.uniform(-amp, amp) for j in range(1, d + 1)})
        try:
            ep = solve_endpoints(pot)
        except NoOneCutSolutionError as exc:
            folds += exc.s_star is not None
            line = [type(exc).__name__, None if exc.s_star is None else exc.s_star.hex()]
        else:
            line = [v.hex() for v in (ep.u, ep.z, ep.residual_norm)]
            if jets < 5:
                jets += 1
                ep = uz_jets(pot, 3)
                line += [v.hex() for v in ep.u_jet.c + ep.z_jet.c]
        digest.update(repr(line).encode())
    assert folds >= 8
    assert digest.hexdigest() == _SOLVER_DIGEST


# sha256 of the outputs of test_signed_zero_coefficients_keep_their_output_bits
_SIGNED_ZERO_DIGEST = "0a569aa670ad396f10c6f01e7f67d5a4d4d89dee4de7160118c604a5e230ccf3"


def test_signed_zero_coefficients_keep_their_output_bits():
    """Output bits, signs of zeros included, on 360 potentials whose
    coefficients are explicit 0.0 and -0.0 or small: float.hex of (u, z,
    residual_norm) of each solve, or the error type and s_star, every field
    of e1_value, or its error type, and the entries of uz_jets(pot, 3)."""
    digest = hashlib.sha256()
    for t2, t4, t6, odd, x in itertools.product(
            (0.0, -0.0, 0.01, -0.004), (0.0, -0.0, 0.005), (0.0, -0.0, 0.001),
            (None, (0.0, 0.0), (-0.0, 0.0), (0.01, 0.0), (0.0, -0.0)), (1.0, 0.7)):
        t = {2: t2, 4: t4, 6: t6, **({} if odd is None else {1: odd[0], 3: odd[1]})}
        pot = PotentialSpec(x, t)
        try:
            ep = solve_endpoints(pot)
        except EqmapError as exc:
            s = getattr(exc, "s_star", None)
            line = [type(exc).__name__, None if s is None else s.hex()]
        else:
            line = [v.hex() for v in (ep.u, ep.z, ep.residual_norm)]
            try:
                line += [float(v).hex() for v in dataclasses.astuple(e1_value(pot))]
            except EqmapError as exc:
                line.append(type(exc).__name__)
            jets = uz_jets(pot, 3)
            line += [v.hex() for v in jets.u_jet.c + jets.z_jet.c]
        digest.update(repr(line).encode())
    assert digest.hexdigest() == _SIGNED_ZERO_DIGEST


# sha256 of the solver's bits on the draws of test_solver_bits_hold_over_three_seeds
_MULTI_SEED_DIGEST = "b5940d74d76a60a022293906bc8434e527ef58983018005e8cffd81092550a61"


def test_solver_bits_hold_over_three_seeds():
    """The solver's bits on 1050 seeded potentials, 350 each from seeds 5,
    2026 and 7, of degree 3-6, every third one even: float.hex of (u, z,
    residual_norm) of each solve, or the error type and s_star, and the
    entries of uz_jets(pot, 4) of every tenth draw.  x and the t_j come from
    Random.uniform and arithmetic alone, so no platform's pow enters.  A
    change that moves these bits on purpose updates _MULTI_SEED_DIGEST and
    says so in CHANGES.md."""
    digest, counts = hashlib.sha256(), {"solved": 0, "folds": 0, "jets": 0}
    for seed, amp in ((5, 0.08), (2026, 0.08), (7, 0.15)):
        rng = random.Random(seed)
        for i in range(350):
            d = 3 + i % 4
            keys = range(2, d + 1 + d % 2, 2) if i % 3 == 0 else range(1, d + 1)
            x = rng.uniform(0.1, 3.0)
            pot = PotentialSpec(x, {j: rng.uniform(-amp, amp) for j in keys})
            try:
                ep = solve_endpoints(pot)
            except EqmapError as exc:
                s = getattr(exc, "s_star", None)
                counts["folds"] += s is not None
                line = [type(exc).__name__, None if s is None else s.hex()]
            else:
                counts["solved"] += 1
                line = [v.hex() for v in (ep.u, ep.z, ep.residual_norm)]
                if i % 10 == 0:
                    try:
                        jets = uz_jets(pot, 4)
                    except EqmapError as exc:
                        line.append(type(exc).__name__)
                    else:
                        counts["jets"] += 1
                        line += [v.hex() for v in jets.u_jet.c + jets.z_jet.c]
            digest.update(repr(line).encode())
    assert counts == {"solved": 542, "folds": 508, "jets": 52}
    assert digest.hexdigest() == _MULTI_SEED_DIGEST
