import math
from fractions import Fraction

import pytest

import eqmap.endpoints as endpoints
import eqmap.genfun as genfun
from eqmap.algebra import Jet
from eqmap.endpoints import PotentialSpec, endpoint_residuals, solve_endpoints, uz_jets
from eqmap.errors import EqmapError, InvalidParameterError
from eqmap.genfun import e1_monomial, e1_series, e1_value, verify_relations


def pure_even_series(nu, order):
    """Exact t-coefficients of e1 = -log(nu - (nu - 1) z)/12 at x = 1 for
    y**2/2 + t y**(2 nu), where z + 2 nu C(2 nu - 1, nu) t z**nu = 1; for
    nu = 2 these are the BIZ quartic numbers."""
    c = 2 * nu * math.comb(2 * nu - 1, nu)

    def mul(a, b):
        return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(order + 1)]

    one = [Fraction(1)] + [Fraction(0)] * order
    z = one
    for _ in range(order):
        zn = one
        for _ in range(nu):
            zn = mul(zn, z)
        z = [Fraction(1)] + [-c * zn[n - 1] for n in range(1, order + 1)]
    # nu - (nu - 1) z = 1 + w with w = (nu - 1)(1 - z)
    w = [Fraction(0)] + [-(nu - 1) * zk for zk in z[1:]]
    log, p = [Fraction(0)] * (order + 1), one
    for m in range(1, order + 1):
        p = mul(p, w)
        log = [a + Fraction((-1) ** (m + 1), m) * b for a, b in zip(log, p)]
    return [-a / 12 for a in log]


def test_e1_vanishes_at_zero_perturbation():
    for x in (0.5, 1.0, 2.0, 3.7):
        res = e1_value(PotentialSpec(x, {}))
        assert res.value == pytest.approx(0.0, abs=1e-13)


def test_e1_quartic_reference_formula():
    for t in (-0.015, -0.005, 0.01, 0.03, 0.05):
        res = e1_value(PotentialSpec(1.0, {4: t}))
        assert res.value == pytest.approx(-math.log(2 - res.z) / 12, abs=1e-12)


def test_e1_quartic_spot_value():
    # z solves z + 0.12 z^2 = 1; e1 = -log(2 - z)/12 = -0.0077679300666...
    res = e1_value(PotentialSpec(1.0, {4: 0.01}))
    z = (-1 + math.sqrt(1.48)) / 0.24
    assert res.z == pytest.approx(z, abs=1e-13)
    assert res.value == pytest.approx(-math.log(2 - z) / 12, abs=1e-13)
    assert res.value == pytest.approx(-0.007767930066688, abs=1e-12)


def test_e1_sextic_reference_formula():
    for t in (0.001, 0.004, 0.008):
        res = e1_value(PotentialSpec(1.0, {6: t}))
        assert res.value == pytest.approx(-math.log(3 - 2 * res.z) / 12, abs=1e-12)


def test_e1_monomial_reduces_to_quartic_form():
    t = 0.02
    got = e1_monomial(4, t)
    z = solve_endpoints(PotentialSpec(1.0, {4: t})).z
    assert got == pytest.approx(-math.log(2 - z) / 12, abs=1e-13)


def test_e1_monomial_even_valence_closed_form():
    # j = 2*nu with u = 0 collapses to -(1/12) log(nu - (nu-1) z)
    t = 0.004
    got = e1_monomial(6, t)
    z = solve_endpoints(PotentialSpec(1.0, {6: t})).z
    assert got == pytest.approx(-math.log(3 - 2 * z) / 12, abs=1e-13)


def test_e1_monomial_odd_valence_matches_general_route():
    for t in (0.02, 0.05):
        assert e1_monomial(3, t) == pytest.approx(
            e1_value(PotentialSpec(1.0, {3: t})).value, abs=1e-12)


def test_e1_beyond_the_fold_raises():
    # past t4 = -1/48 the endpoint system has no real one-cut root at all,
    # so the failure surfaces from the continuation rather than the log
    from eqmap.errors import NoOneCutSolutionError

    with pytest.raises(NoOneCutSolutionError):
        e1_monomial(4, -0.0209)


def test_e1_series_quartic_low_orders():
    ser = e1_series(PotentialSpec(1.0, {4: 0.0}), order=3)
    assert ser.coeff({}) == 0.0
    assert ser.coeff({4: 1}) == pytest.approx(-1.0, rel=1e-10)
    assert ser.coeff({4: 2}) == pytest.approx(30.0, rel=1e-9)


def test_e1_series_requires_zero_base():
    with pytest.raises(ValueError):
        e1_series(PotentialSpec(1.0, {4: 0.01}), order=2)


@pytest.mark.parametrize("t,name", [({}, "no perturbation directions"), ({4: 0.01}, "0.01")])
def test_e1_series_names_a_failed_precondition(t, name):
    with pytest.raises(EqmapError, match=name) as info:
        e1_series(PotentialSpec(1.0, t), order=2)
    assert isinstance(info.value, InvalidParameterError)


def test_e1_series_lifts_over_python_ints(monkeypatch):
    # at x = 1, t = 0 every Taylor coefficient of (u, z) is a signed map count;
    # the lift carries them as ints and makes no Fraction before the final steps
    seen = []

    def recorded(u, z, pot, **kwargs):
        r1, r2 = endpoint_residuals(u, z, pot, **kwargs)
        seen.extend((u, z, r1, r2))
        return r1, r2

    monkeypatch.setattr(genfun, "endpoint_residuals", recorded)
    ser = e1_series(PotentialSpec(1, {3: 0, 4: 0}), 4)
    assert len(seen) == 4 * 8
    assert all(type(c) is int for v in seen for c in (v.coeffs.flat if isinstance(v, Jet) else [v]))
    assert ser.coeff({4: 1}) == pytest.approx(-1.0, rel=1e-12)


def test_e1_series_against_finite_differences_of_e1_value():
    # independent route: central differences of e1_value over t4
    ser = e1_series(PotentialSpec(1.0, {4: 0.0}), order=2)
    h = 1e-4
    f = lambda t: e1_value(PotentialSpec(1.0, {4: t})).value
    d1 = (f(h) - f(-h)) / (2 * h)
    d2 = (f(h) - 2 * f(0.0) + f(-h)) / h**2
    # truncation error carries the large t^3, t^4 series coefficients
    assert ser.coeff({4: 1}) == pytest.approx(d1, abs=5e-5)
    assert ser.coeff({4: 2}) == pytest.approx(d2 / 2, rel=1e-3)


def test_e1_series_mixed_family_cross_terms():
    # two directions at once: d^2 e1/(dt3 dt4) via finite differences
    fam = PotentialSpec(1.0, {3: 0.0, 4: 0.0})
    ser = e1_series(fam, order=2)
    h = 2e-3

    def f(t3, t4):
        return e1_value(PotentialSpec(1.0, {3: t3, 4: t4})).value

    mixed = (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4 * h * h)
    assert ser.coeff({3: 1, 4: 1}) == pytest.approx(mixed, rel=2e-3, abs=1e-4)


def test_e1_series_calls_no_solver(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for module in (endpoints, genfun):
        for name in ("solve_endpoints", "uz_jets"):
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
    e1_series(PotentialSpec(1.3, {3: 0.0, 4: 0.0}), order=2)
    assert calls == []


def test_e1_series_jets_stay_exact(monkeypatch):
    seen = []

    def recorded(u, z, pot, **kwargs):
        seen.extend((u, z))
        return endpoint_residuals(u, z, pot, **kwargs)

    def recorded_log(self):
        seen.append(self)
        return jet_log(self)

    jet_log = Jet.log
    monkeypatch.setattr(genfun, "endpoint_residuals", recorded)
    monkeypatch.setattr(Jet, "log", recorded_log)
    e1_series(PotentialSpec(1.3, {3: 0, 4: 0}), order=2)
    assert len(seen) == 2 * 4 + 1  # (U, Z) of each pass, then the log argument
    for jet in seen:
        assert jet.coeffs.dtype == object
        assert all(type(v) in (int, Fraction) for v in jet.coeffs.flat)


@pytest.mark.parametrize("x", [1, 1.1])
def test_e1_result_fields_are_python_floats(x):
    res = e1_value(PotentialSpec(x, {3: 0.01, 4: 0.02}))
    assert all(type(v) is float for v in vars(res).values())


@pytest.mark.parametrize("x", [1.0, 2.0])
def test_e1_series_quartic_biz_numbers_exact(x):
    assert pure_even_series(2, 4)[1:] == [-1, 30, -1056, 40176]
    ser = e1_series(PotentialSpec(x, {4: 0}), order=4)
    assert [ser.coeff({4: k}) for k in range(1, 5)] == [
        c * x**k for k, c in enumerate((-1, 30, -1056, 40176), start=1)]


def test_e1_series_at_face_weight_off_one():
    # both once failed at the absolute gate of the float jet route
    x = 1.3
    quartic, sextic = pure_even_series(2, 6), pure_even_series(3, 2)
    ser = e1_series(PotentialSpec(x, {4: 0}), order=6)
    for k in range(1, 7):
        assert ser.coeff({4: k}) == pytest.approx(float(quartic[k] * Fraction(x) ** k),
                                                  rel=1e-14)
    ser = e1_series(PotentialSpec(x, {4: 0, 6: 0}), order=2)
    for k in (1, 2):
        assert ser.coeff({4: k}) == pytest.approx(float(quartic[k] * Fraction(x) ** k),
                                                  rel=1e-14)
        assert ser.coeff({6: k}) == pytest.approx(float(sextic[k] * Fraction(x) ** (2 * k)),
                                                  rel=1e-14)


@pytest.mark.parametrize("x", [1.0, 1.3])
def test_e1_series_valence_two_family_matches_e1_value(x):
    # valence 2 shifts the Gaussian term y**2/2 rather than adding a new one
    ser = e1_series(PotentialSpec(x, {2: 0, 3: 0}), order=4)
    assert ser.coeff({2: 4}) == 0.0
    for t2, t3 in ((0.002, 0.002), (-0.002, 0.001), (0.001, -0.002)):
        summed = sum(v * t2**a * t3**b for (a, b), v in ser.coeffs.items())
        want = e1_value(PotentialSpec(x, {2: t2, 3: t3})).value
        # the t3**6 remainder is a few 1e-12 here
        assert summed == pytest.approx(want, abs=1e-11)


def test_dx_of_e1_matches_derivative_display():
    # the x-derivative display in terms of (u, z) jets; the normalized value
    # adds 1/(12x) coming from the x**2 factor inside the log
    pot_of = lambda x: PotentialSpec(x, {3: 0.02, 4: 0.01})
    h = 1e-5
    fd = (e1_value(pot_of(1 + h)).value - e1_value(pot_of(1 - h)).value) / (2 * h)
    ep = uz_jets(pot_of(1.0), x_order=2)
    z, ux, zx = ep.z, ep.du(1), ep.dz(1)
    uxx, zxx = ep.du(2), ep.dz(2)
    display = (-zx / (12 * z)
               + (zx * ux**2 + 2 * z * ux * uxx - 2 * zx * zxx)
               / (24 * (z * ux**2 - zx**2)))
    assert fd == pytest.approx(display + 1 / 12, abs=1e-8)


def test_relations_gue_limit_scaling():
    ep = uz_jets(PotentialSpec(1.0, {}), x_order=1)
    assert 2 * ep.z == pytest.approx(2 * 1.0 * ep.dz(1))


@pytest.mark.parametrize("j,t", [(3, 0.05), (4, 0.01), (6, 0.002)])
def test_relation_suite(j, t):
    residuals = verify_relations(j, t)
    assert max(residuals.values()) < 1e-9


def test_relation_suite_odd_valence_has_nonzero_u():
    ep = solve_endpoints(PotentialSpec(1.0, {3: 0.05}))
    assert ep.u != 0.0
    residuals = verify_relations(3, 0.05)
    assert max(residuals.values()) < 1e-9


@pytest.mark.parametrize("order", [0, -2, 2.0, True, None])
def test_e1_series_names_a_bad_order(order):
    with pytest.raises(InvalidParameterError, match="order"):
        e1_series(PotentialSpec(1.0, {4: 0}), order)
