import math
from fractions import Fraction

import pytest

import eqmap.algebra as algebra
import eqmap.endpoints as endpoints
import eqmap.genfun as genfun
from eqmap.algebra import Jet, _jet
from eqmap.endpoints import PotentialSpec, solve_endpoints, uz_jets, xvprime_coeffs
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
    # the lift carries them, its coefficients and its residuals as ints
    seen, coefficients = [], []
    jet_residuals = endpoints._jet_residuals

    def recorded(U, Z, lay, coeffs, xinv):
        r1, r2 = jet_residuals(U, Z, lay, coeffs, xinv)
        seen.extend((U, Z, r1, r2))
        coefficients.extend(c.c if isinstance(c, Jet) else [c] for c in coeffs)
        assert xinv is None  # the unit face weight
        return r1, r2

    monkeypatch.setattr(endpoints, "_jet_residuals", recorded)  # the shared lift's kernel
    ser = e1_series(PotentialSpec(1, {3: 0, 4: 0}), 4)
    assert len(seen) == 4 * 8
    assert all(type(c) is int for v in seen + coefficients for c in v)
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
    # every entry of the lift, of every product that forms the log argument
    # and of the log's powers is an int; the log makes one Fraction per entry
    seen, products, logs = [], [], []
    jet_residuals, jet_log, made = endpoints._jet_residuals, Jet.log, algebra._PRODUCTS

    def recorded(U, Z, lay, coeffs, xinv):
        seen.extend((U, Z))
        return jet_residuals(U, Z, lay, coeffs, xinv)

    def recorded_log(self):
        seen.append(self.c)
        logs.append(jet_log(self))
        return logs[-1]

    class Recorded(dict):
        def __missing__(self, lay):
            def product(a, b, zero, s=None):
                products.append((a, b, made[lay](a, b, zero, s), [zero], s or []))
                return products[-1][2]
            self[lay] = product
            return product

    monkeypatch.setattr(endpoints, "_jet_residuals", recorded)  # the shared lift's kernel
    monkeypatch.setattr(Jet, "log", recorded_log)
    monkeypatch.setattr(algebra, "_PRODUCTS", Recorded())
    e1_series(PotentialSpec(1.3, {3: 0, 4: 0}), order=2)
    assert len(seen) == 2 * 4 + 1  # (U, Z) of each pass, then the log argument
    assert seen[-1][0] == 4  # the log argument times 4
    assert len(products) > 4 * 8  # the lift's, the argument's and the log's
    assert all(type(v) is int for entries in seen for v in entries)
    assert all(type(v) is int for p in products for entries in p for v in entries)
    assert all(type(v) is Fraction for v in logs[0].c[1:])


def test_e1_series_matches_the_jet_object_route():
    """The series of the families of the maps benchmark, at four face weights,
    by float.hex against the Jet-object route: the lift over Jet objects
    through substitute_uniformizer, and the log and reciprocal summed over
    Fractions."""
    for valences, order in [((3,), 4), ((4,), 4), ((5,), 2), ((6,), 2), ((8,), 1), ((10,), 1),
                            ((12,), 1), ((3, 4), 2), ((3, 5), 2)]:
        e1, weight = _fraction_e1(valences, order)
        for x in (0.5, 1, 1.2, 2):
            got = e1_series(PotentialSpec(x, {j: 0 for j in valences}), order).coeffs
            want = {e: float(v * Fraction(x) ** Fraction(w, 2) / 24)
                    for e, v, w in zip(e1.lay.exps, e1.c, weight)}
            assert list(got) == list(want)
            assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]


def test_exact_log_argument_and_log_equal_the_fraction_route(monkeypatch):
    # {3, 4} at order 4: the int argument M is 4 times the Fraction route's,
    # and its log has the same rationals; only log(4) in its constant differs
    logs = []
    jet_log = Jet.log

    def recorded_log(self):
        logs.append((self, jet_log(self)))
        return logs[-1][1]

    monkeypatch.setattr(Jet, "log", recorded_log)
    e1_series(PotentialSpec(1, {3: 0, 4: 0}), 4)
    (arg, log), = logs
    monkeypatch.undo()
    want, _ = _fraction_e1((3, 4), 4, argument=True)
    assert [v / 4 for v in arg.c] == want.c
    assert log.c[1:] == _fraction_log(want).c[1:]
    assert [type(v) for v in log.c[1:]] == [Fraction] * (len(log.c) - 1)
    assert log.c[0] == math.log(4)


def _fraction_log(jet):
    """Jet.log over Fractions, as it was before the int series."""
    eta = jet / jet.constant_term - 1
    out = jet._nilpotent_series(eta, lambda k: Fraction((-1) ** (k + 1), k) if k else 0)
    return out + math.log(float(jet.constant_term))


def _fraction_e1(valences, order, argument=False):
    from test_endpoints import _jet_object_residuals

    """The exact e1 jet (or its log argument) of e1_series at x = 1 through the
    Jet-object lift and the Fraction reciprocal and log, and the weights E of
    its entries."""
    orders = (order,) * len(valences)
    pot = PotentialSpec(1, {j: 0 for j in valences})
    coeffs = xvprime_coeffs(pot, {j: Jet.variable(0, i, orders) for i, j in enumerate(valences)})
    U, Z = Jet.constant(0, orders), Jet.constant(1, orders)
    for _ in range(sum(orders)):
        r1, r2 = _jet_object_residuals(U, Z, coeffs, 1)
        U, Z = U - r1, Z - r2
    weight = [sum(k * (j - 2) for k, j in zip(e, valences)) for e in U.lay.exps]
    ux = (U + _jet([v * w for v, w in zip(U.c, weight)], U.lay, False)) / 2
    zx = Z + _jet([v * w for v, w in zip(Z.c, weight)], Z.lay, False) / 2
    zz = Z * Z
    eta = -(zz / zz.constant_term) + 1
    arg = (zx * zx - Z * (ux * ux)) * zz._nilpotent_series(eta, lambda k: 1)
    return (arg if argument else _fraction_log(arg)), weight


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


def test_e1_value_reads_the_root_jacobian_without_a_lift(monkeypatch):
    """(u_x, z_x) = J**-1 (0, 1/x) at the root agree with the order-1 jet lift
    to a few ulps, and e1_value runs no lift."""
    from eqmap.acceptance import one_cut_corpus

    pots = list(one_cut_corpus(100))
    lifted = [uz_jets(pot, x_order=1) for pot in pots]

    def no_lift(*args):
        raise AssertionError("e1_value ran the jet lift")

    monkeypatch.setattr(endpoints, "_lift", no_lift)
    monkeypatch.setattr(genfun, "_lift", no_lift)
    for pot, ep in zip(pots, lifted):
        got = e1_value(pot)
        assert (got.u, got.z) == (ep.u, ep.z)
        for value, want in ((got.ux, ep.du(1)), (got.zx, ep.dz(1))):
            assert abs(value - want) <= 2e-15 * abs(want), pot
        assert got.log_argument > 0 and math.isfinite(got.value)


@pytest.mark.parametrize("j", [2.5, 4.0, True, "4", None])
def test_single_valence_routes_refuse_a_valence_that_is_not_an_int(j):
    for call in (lambda: e1_monomial(j, 0.01), lambda: verify_relations(j, 0.01)):
        with pytest.raises(InvalidParameterError, match="valence"):
            call()
