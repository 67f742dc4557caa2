import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from eqmap.acceptance import one_cut_corpus
import eqmap.algebra as algebra
import eqmap.endpoints as endpoints
from eqmap.algebra import (
    Jet,
    LaurentPoly,
    _is_zero,
    _jet,
    _pair_table,
    _truncated_product,
    inv_sqrt_R_series,
    series_times_poly_coeff,
    substitute_uniformizer,
)
from eqmap.endpoints import (
    PotentialSpec,
    _perturbation_coeffs,
    endpoint_residuals,
    solve_endpoints,
    uz_jets,
    xvprime_coeffs,
)
from eqmap.errors import EqmapError, InvalidParameterError, SingularJetError

# the (u, z) triangles i + j <= n, entries (1, z, u) at order 1, the solver's
# layout, and (1, z, z2, u, uz, u2) at order 2, which jet arithmetic still holds
_UZ_LAYOUTS = {n: algebra._layout(tuple(e for e in itertools.product(range(n + 1), repeat=2)
                                        if sum(e) <= n))
               for n in (1, 2)}


def test_zero_coeff_reads_off_constant():
    p = LaurentPoly({1: 1, 0: 3, -1: 1})
    assert p.coeff(0) == 3


def test_zero_coeff_absent_exponent():
    assert LaurentPoly({2: 1}).coeff(0) == 0


def test_zero_coeff_of_t_times_cubed_substitution():
    # [T^0] of T*(T + z/T)^3 = 3 z^2, checked against an explicit binomial sum
    z = Fraction(7, 3)
    y = LaurentPoly({1: 1, -1: z})
    p = y * y * y * LaurentPoly({1: 1})
    expected = sum(
        math.comb(3, k) * z**k for k in range(4) if 3 - 2 * k + 1 == 0
    )
    assert p.coeff(0) == expected == 3 * z**2


def test_zero_coeff_shift_picks_any_coefficient():
    rng = random.Random(0)
    p = LaurentPoly({k: rng.randint(-5, 5) for k in range(-3, 4)})
    for r in range(-3, 4):
        assert p.shifted(-r).coeff(0) == p.coeff(r)


def test_substitute_affine_linear():
    p = substitute_uniformizer([0, 1], u=0, z=2)
    assert p == LaurentPoly({1: 1, -1: 2})


def test_substitute_affine_square():
    # (T + 1 + 1/T)^2 expanded by hand
    p = substitute_uniformizer([0, 0, 1], u=1, z=1)
    assert p == LaurentPoly({2: 1, 1: 2, 0: 3, -1: 2, -2: 1})


def test_substitution_zero_coeff_symmetric_under_T_to_z_over_T():
    # coefficient symmetry c_k = z^k c_{-k} for affine substitutions
    rng = random.Random(1)
    for _ in range(10):
        u = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        z = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 6))]
        p = substitute_uniformizer(coeffs, u, z)
        # T -> z/T leaves the substituted polynomial invariant, which pins
        # every negative coefficient to a positive one
        for k in range(0, p.max_exp + 1):
            assert p.coeff(-k) == p.coeff(k) * z**k


def test_sqrt_z_rescaling_gives_the_symmetric_substitution():
    # with T = s S and z = s**2, T + z/T = s (S + 1/S): verify_even_residue_formula
    # reads P(s (S + 1/S)) as [T^k] P(T + z/T) times s**k
    rng = random.Random(6)
    for _ in range(20):
        s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 8))]
        want = LaurentPoly()
        for c in reversed(coeffs):
            want = want * LaurentPoly({1: s, -1: s}) + c
        p = substitute_uniformizer(coeffs, 0, s * s)
        assert LaurentPoly({k: v * s**k for k, v in p.coeffs.items()}) == want


# ---- jets ----------------------------------------------------------------


def test_jet_log_mercator():
    a = 0.7
    x = Jet([1.0, a, 0.0])  # 1 + a*eps to order 2
    lg = x.log()
    assert lg.coeffs[0] == pytest.approx(0.0)
    assert lg.coeffs[1] == pytest.approx(a)
    assert lg.coeffs[2] == pytest.approx(-a * a / 2)


def test_jet_product_difference_of_squares():
    a = 1.3
    one_plus = Jet([1.0, a, 0.0])
    one_minus = Jet([1.0, -a, 0.0])
    prod = one_plus * one_minus
    assert prod.coeffs[0] == pytest.approx(1.0)
    assert prod.coeffs[1] == pytest.approx(0.0)
    assert prod.coeffs[2] == pytest.approx(-a * a)


def test_jet_partial_extraction_includes_factorials():
    j = Jet.constant(0, (3,))
    arr = j.coeffs.copy()  # coeffs is read-only
    arr[2] = 5.0
    assert Jet(arr).partial((2,)) == pytest.approx(10.0)


def test_jet_log_of_product_is_sum_of_logs():
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=(2, 3, 3))
    a[0, 0], b[0, 0] = 2.0, 0.5
    ja, jb = Jet(a.astype(object)), Jet(b.astype(object))
    err = np.max(np.abs(((ja * jb).log() - ja.log() - jb.log()).coeffs.astype(float)))
    assert err < 1e-12 * np.max(np.abs(a))


def test_jet_mul_div_round_trip():
    rng = np.random.default_rng(11)
    a = Jet(rng.normal(size=5).astype(object))
    b = Jet((rng.normal(size=5) + np.array([3, 0, 0, 0, 0])).astype(object))
    back = (a * b) / b
    err = np.max(np.abs((back - a).coeffs.astype(float)))
    assert err < 1e-12


def test_jet_reciprocal_rejects_zero_constant():
    with pytest.raises(SingularJetError):
        Jet([0.0, 1.0]).reciprocal()


@pytest.mark.parametrize("index,orders", [
    ((1,), (2, 1)), ((1, 0, 0), (2, 1)), ((-1, 0), (2, 1)), ((0, -1), (2, 1)),
    ((3, 0), (2, 1)), ((0, 2), (2, 1)), ((2, 0), (1, 1))])
def test_jet_partial_refuses_an_index_outside_the_orders_by_name(index, orders):
    # a flat entry list has no shape to catch a short, negative or long index
    jet = Jet.variable(0.5, 0, orders)
    with pytest.raises(InvalidParameterError) as info:
        jet.partial(index)
    assert str(index) in str(info.value) and "orders %r" % (orders,) in str(info.value)


@pytest.mark.parametrize("var,orders", [(5, (2, 1)), (2, (2, 1)), (-1, (2, 1)), (1, (2, 0)),
                                        ([0], (2, 1))])
def test_jet_dx_refuses_a_variable_outside_the_orders_by_name(var, orders):
    jet = Jet.variable(0.5, 0, orders)
    with pytest.raises(InvalidParameterError) as info:
        jet.dx(var)
    assert "variable %r" % (var,) in str(info.value) and "orders %r" % (orders,) in str(info.value)


def test_jet_dx_takes_no_float_variable_also_after_its_int():
    jet = Jet.variable(0.5, 0, (2, 1))
    jet.dx(0)
    with pytest.raises(TypeError):
        jet.dx(0.0)


def test_jet_derivative_consumes_one_order():
    j = Jet([1.0, 2.0, 3.0, 4.0])
    d = j.dx(0)
    assert d.orders == (2,)
    assert list(d.coeffs) == [2.0, 6.0, 12.0]


def _per_exponent_dx(jet, var):
    """Jet.dx by its definition, kept here so a faster Jet.dx is held to it:
    the entry of each exponent e with e[var] > 0 moves to e - 1 in var,
    times e[var]."""
    src = [(k, e) for k, e in enumerate(jet.lay.exps) if e[var]]
    lay = algebra._layout(tuple(e[:var] + (e[var] - 1,) + e[var + 1:] for _, e in src))
    return _jet([jet.c[k] * e[var] for k, e in src], lay, jet.f64)


def _per_exponent_sum(a, b):
    """a + b over the exponents both jets hold, in a's order, looked up by exponent."""
    exps = tuple(e for e in a.lay.exps if e in b.lay.index)
    return _jet([a.c[a.lay.index[e]] + b.c[b.lay.index[e]] for e in exps],
                algebra._layout(exps), a.f64 and b.f64)


def _assert_same_jet(got, want):
    """Same layout object and kind; floats by float.hex, exact entries by value and type."""
    assert got.lay is want.lay and got.f64 == want.f64

    def bits(jet):
        return [v.hex() if type(v) is float else (v, type(v)) for v in jet.c]
    assert bits(got) == bits(want)


def _draw_entries(rng, n, kind):
    if kind == "float":
        return [rng.choice([0.0, -0.0, rng.uniform(-9, 9) * 10.0 ** rng.randint(-6, 6)])
                for _ in range(n)]
    ints = [rng.choice([0, rng.randint(-9, 9)]) for _ in range(n)]
    return ints if kind == "int" else [Fraction(v, rng.randint(1, 7)) for v in ints]


_DX_LAYOUTS = {"triangle1": _UZ_LAYOUTS[1], "triangle2": _UZ_LAYOUTS[2],
               "box5": algebra._box((5,)), "box2x3": algebra._box((2, 3)),
               "box2x1x2": algebra._box((2, 1, 2))}


@pytest.mark.parametrize("kind", ["float", "int", "fraction"])
@pytest.mark.parametrize("name", list(_DX_LAYOUTS))
def test_jet_dx_and_difference_match_the_per_exponent_forms(name, kind):
    # dx keeps the bits of the per-exponent derivation, and a - b those of
    # a + (-b), over triangles, boxes, mismatched layouts and mixed kinds
    lay, rng = _DX_LAYOUTS[name], random.Random(name + kind)
    other = {"triangle1": _UZ_LAYOUTS[2], "triangle2": algebra._box((1, 1)),
             "box5": algebra._box((3,)), "box2x3": algebra._box((3, 1)),
             "box2x1x2": algebra._box((1, 1, 3))}[name]
    for _ in range(8):
        a = _jet(_draw_entries(rng, len(lay.exps), kind), lay, kind == "float")
        for var in range(len(lay.orders)):
            _assert_same_jet(a.dx(var), _per_exponent_dx(a, var))
        for b_lay in (lay, other):
            for b_kind in ("float", kind):
                b = _jet(_draw_entries(rng, len(b_lay.exps), b_kind), b_lay, b_kind == "float")
                for x, y in ((a, b), (b, a)):
                    _assert_same_jet(x - y, x + (-y))
                    _assert_same_jet(x + (-y), _per_exponent_sum(x, -y))
        for s in (-0.0, 3, Fraction(2, 3)):
            _assert_same_jet(a - s, a + -1 * s)


def test_jet_multiplication_truncates_to_min_orders():
    a = Jet([1.0, 1.0, 1.0])
    b = Jet([1.0, 1.0])
    assert (a * b).orders == (1,)


def test_jet_exact_rational_arithmetic():
    a = Jet([Fraction(1), Fraction(1, 3)])
    inv = a.reciprocal()
    assert inv.coeffs[0] == Fraction(1)
    assert inv.coeffs[1] == Fraction(-1, 3)


def test_exact_jet_divided_by_int_stays_exact():
    q = Jet([Fraction(1, 3), 2, 0, -5]) / 3
    assert q.coeffs.dtype == object
    assert list(q.coeffs) == [Fraction(1, 9), Fraction(2, 3), 0, Fraction(-5, 3)]
    assert all(isinstance(v, (int, Fraction)) for v in q.coeffs)
    f = Jet.variable(0.7, 0, (3,)) * 1.1
    assert _hex(f / 3) == [(v / 3).hex() for v in f.coeffs.tolist()]


def test_float_jets_keep_float64_storage():
    j = Jet.variable(0.8, 0, (4, 2)) * 0.5 + Jet.variable(1.3, 1, (4, 2))
    assert j.coeffs.dtype == np.float64
    for out in (j.reciprocal(), j.log(), j * j * j, j.dx(0), j.dx(1),
                j / 3, j / j, j - Fraction(1, 3), j * Fraction(2, 3), Fraction(2, 3) * j):
        assert out.coeffs.dtype == np.float64
    # a Fraction scalar is cast with float(), as Python's float * Fraction does
    assert _hex(j * Fraction(2, 3)) == [float(v * Fraction(2, 3)).hex() for v in j.coeffs.flat]


def test_exact_jets_keep_object_storage():
    j = Jet.variable(Fraction(1, 2), 0, (3,)) + 1
    for out in (j.reciprocal(), j * j * j, j.dx(0), j / 3, j * j, j * Fraction(2, 3)):
        assert out.coeffs.dtype == object
        assert all(isinstance(v, (int, Fraction)) for v in out.coeffs)


def test_exact_reciprocal_and_log_equal_the_fraction_route():
    # the int series with one common denominator against the Mercator and
    # geometric series summed over Fractions, on int and Fraction jets
    rng = random.Random(9)
    for orders in [(4,), (2, 3), (1, 1, 2)]:
        for _ in range(12):
            n = math.prod(o + 1 for o in orders)
            c = [rng.choice([0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 6))])
                 for _ in range(n)]
            c[0] = rng.choice([1, -1, 4, Fraction(3, 2), Fraction(-5, 7)])
            if rng.random() < 0.5:
                c = [int(v) for v in c]
            f = Jet(np.array(c, dtype=object).reshape(tuple(o + 1 for o in orders)))
            eta = -(f / f.constant_term) + 1
            want = f._nilpotent_series(eta, lambda k: 1) / f.constant_term
            got = f.reciprocal()
            assert got.c == want.c and got.lay is want.lay
            unit = all(type(v) is int for v in c) and c[0] in (1, -1)
            assert all(type(v) is (int if unit else Fraction) for v in got.c), c
            if f.constant_term > 0:
                eta = f / f.constant_term - 1
                want = f._nilpotent_series(eta, lambda k: Fraction((-1) ** (k + 1), k) if k else 0)
                want = want + math.log(float(f.constant_term))
                got = f.log()
                assert got.c == want.c and type(got.c[0]) is float
                assert all(type(v) is Fraction for v in got.c[1:])


# ---- the product engine ----------------------------------------------------


def _slice_loop_mul(self, other):
    """The jet product as a loop over the entries of the first factor, each
    nonzero one adding its multiple of the shifted second factor into an
    object array.  The engine's product must form the same sums bit for bit."""
    if isinstance(other, LaurentPoly):
        return NotImplemented
    if not isinstance(other, Jet):
        return Jet(self.coeffs * other)
    if other.coeffs.ndim != self.coeffs.ndim:
        raise ValueError("jets over different variable sets")
    shape = tuple(min(x, y) for x, y in zip(self.coeffs.shape, other.coeffs.shape))
    box = tuple(slice(0, n) for n in shape)
    a, b = self.coeffs[box], other.coeffs[box]
    out = np.zeros(shape, dtype=object)
    for idx in np.ndindex(shape):
        v = a[idx]
        if v == 0:
            continue
        src = tuple(slice(0, n - i) for i, n in zip(idx, shape))
        dst = tuple(slice(i, n) for i, n in zip(idx, shape))
        out[dst] += v * b[src]
    return Jet(out)


def _hex(jet):
    return [float(v).hex() for v in jet.coeffs.flat]


def _random_float_jet(rng, shape):
    """float64 jet spanning six decades, with exact zeros and both signs."""
    c = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    c[rng.random(size=shape) < 0.3] = 0.0
    return Jet(c)


@pytest.mark.parametrize("shape", [(8,), (2, 2), (3, 3), (2, 3, 2), (3, 3, 3, 3)])
def test_float_jet_product_matches_slice_loop_bit_for_bit(shape):
    rng = np.random.default_rng(len(shape) * 10 + shape[0])
    for _ in range(25):
        a, b = _random_float_jet(rng, shape), _random_float_jet(rng, shape)
        prod = a * b
        assert prod.coeffs.dtype == np.float64
        assert _hex(prod) == _hex(_slice_loop_mul(a, b))


def test_jet_product_truncates_mismatched_shapes_like_slice_loop():
    rng = np.random.default_rng(5)
    a, b = _random_float_jet(rng, (4, 3)), _random_float_jet(rng, (3, 5))
    assert (a * b).orders == (b * a).orders == (2, 2)
    assert _hex(a * b) == _hex(_slice_loop_mul(a, b))
    assert _hex(b * a) == _hex(_slice_loop_mul(b, a))
    with pytest.raises(ValueError):
        a * Jet(np.ones(3))


def test_exact_jet_product_matches_slice_loop():
    rng = random.Random(3)
    for shape in [(5,), (3, 3), (2, 3, 2)]:
        a, b = (Jet(np.array([Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
                              for _ in range(math.prod(shape))], dtype=object).reshape(shape))
                for _ in range(2))
        prod = a * b
        assert prod.coeffs.dtype == object
        assert all(type(v) is Fraction for v in prod.coeffs.flat)
        assert (prod.coeffs == _slice_loop_mul(a, b).coeffs).all()


def _loop_product(a, b, table, zero):
    """The truncated product as a loop over the pair table, the kernel that the
    generated straight-line code replaced: the same pairs in the same order,
    zero left entries skipped, every entry summed from ``zero``."""
    out = [zero] * len(b)
    for x, row in zip(a, table):
        if x != 0:
            pairs = iter(row)
            for m in pairs:
                out[m] += x * b[next(pairs)]
    return out


def _triangle(n):
    return tuple(e for e in np.ndindex(n + 1, n + 1) if sum(e) <= n)


@pytest.mark.parametrize("exponents", [
    _triangle(1), _triangle(2), tuple(np.ndindex(8)), tuple(np.ndindex(3, 3)),
    tuple(np.ndindex(3, 3, 3, 3)), tuple(np.ndindex(16)), tuple(np.ndindex(2, 3, 4))],
    ids=["triangle1", "triangle2", "box8", "box3x3", "box3x3x3x3", "box16", "box2x3x4"])
def test_generated_product_matches_the_loop(exponents):
    table = _pair_table(exponents)
    product = _truncated_product(table)
    n, rng = len(table), random.Random(len(table))

    def draw():
        k = rng.random()
        if k < 0.3:
            return rng.choice([0.0, -0.0])
        if k < 0.33:  # a zero left entry is skipped, not multiplied into inf
            return rng.choice([math.inf, -math.inf])
        return rng.choice([-1, 1]) * rng.uniform(0.1, 10) * 10.0 ** rng.randint(-6, 6)

    for _ in range(40):
        # the product alone, and given entries s, s plus it
        a, b, s = ([draw() for _ in range(n)] for _ in range(3))
        want = _loop_product(a, b, table, 0.0)
        assert [v.hex() for v in product(a, b, 0.0)] == [v.hex() for v in want]
        want = [v + w for v, w in zip(s, want)]
        assert [v.hex() for v in product(a, b, 0.0, s)] == [v.hex() for v in want]
        ints = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(3)]
        fracs = [[Fraction(v, rng.randint(1, 7)) for v in row] for row in ints]
        for a, b, s in (ints, fracs):  # ints stay ints
            loop = _loop_product(a, b, table, 0)
            for got, want in ((product(a, b, 0), loop),
                              (product(a, b, 0, s), [v + w for v, w in zip(s, loop)])):
                assert got == want and list(map(type, got)) == list(map(type, want))
    if len(exponents) >= 16:  # these run in several compiled pieces
        assert sum(len(row) for row in table) // 2 > algebra._BLOCK


class _LoopProducts(dict):
    """The loop over each layout's pair table, in place of its generated
    product: the jet boxes of the lift and the h routes, and the (u, z)
    triangles of Newton and the fold search."""

    def __missing__(self, lay):
        table = _pair_table(lay.exps)

        def product(a, b, zero, s=None):
            out = _loop_product(a, b, table, zero)
            return out if s is None else [v + w for v, w in zip(s, out)]
        self[lay] = product
        return product


def test_solver_path_matches_slice_loop_bit_for_bit(monkeypatch):
    """Newton's residual and Jacobian, the fold search, one x-jet lift and one
    t-jet lift on five corpus members and e1, with the generated products and
    with the loops."""
    from eqmap.acceptance import one_cut_corpus
    from eqmap.endpoints import (PotentialSpec, _locate_fold, _residual_and_jacobian, uz_jets,
                                 xvprime_coeffs)
    from eqmap.genfun import e1_value

    pots = one_cut_corpus(5)
    folds = [PotentialSpec(1.0, {4: -1.5 / 48}), PotentialSpec(1.0, {3: 0.05, 4: -1.5 / 48})]

    def fingerprint():
        out = []
        for pot in pots:
            ep = uz_jets(pot, x_order=max(pot.degree, 5) + 1)
            r, jac = _residual_and_jacobian(ep.u, ep.z, float(pot.x),
                                            [float(c) for c in xvprime_coeffs(pot)])
            out += [float(v).hex() for v in (ep.u, ep.z, *r, *jac[0], *jac[1])]
            out += _hex(ep.u_jet) + _hex(ep.z_jet)
            tj = uz_jets(pot, x_order=2, t_order=1)
            out += _hex(tj.u_jet) + _hex(tj.z_jet)
            out += [float(v).hex() for v in dataclasses.astuple(e1_value(pot))]
        for pot in pots + folds:
            s = _locate_fold(pot, 0.0, float(pot.x), 0.0)
            out.append(None if s is None else s.hex())
        return out

    fast = fingerprint()
    assert None not in fast[-2:]  # both fold searches converge
    # the band kernels are traced anew, through the loops
    monkeypatch.setattr(algebra, "_PRODUCTS", _LoopProducts())
    monkeypatch.setattr(endpoints, "_KERNELS", endpoints._Kernels())
    assert fingerprint() == fast


# ---- the dense Horner kernel -------------------------------------------------


def _laurent_horner(coeffs, u, z):
    """Horner's rule with one LaurentPoly per step, the way substitute_uniformizer
    evaluated before its dense kernel; the kernel must reproduce it bit for bit."""
    y = LaurentPoly({1: 1, 0: u, -1: z})
    out = LaurentPoly()
    for c in reversed(list(coeffs)):
        out = out * y + c
    return out


def _over(c, x):
    """c / x, as x's reciprocal times c for a number c over a jet x."""
    return x.reciprocal() * c if isinstance(x, Jet) and not isinstance(c, Jet) else c / x


def _reference_residuals(u, z, pot, coeffs=None, x=None):
    """endpoint_residuals over the object-per-step Horner, dividing by x."""
    w = _laurent_horner(xvprime_coeffs(pot) if coeffs is None else coeffs, u, z)
    x = pot.x if x is None else x
    return _over(w.coeff(0), x), _over(w.coeff(-1), x) - 1


def _substituted_residuals(u, z, pot, coeffs):
    """endpoint_residuals with ``coeffs`` in place of those of x V'(y): the
    substitute_uniformizer route, dividing by x."""
    w = substitute_uniformizer(coeffs, u, z)
    return w.coeff(0) / pot.x, w.coeff(-1) / pot.x - 1


def _bits(v):
    """Type and float.hex of every entry of a scalar or a jet, with the jet's
    kind and layout."""
    if isinstance(v, Jet):
        return "jet", v.f64, v.lay.exps, [float(e).hex() for e in v.c]
    return type(v).__name__, float(v).hex()


def _residual_potentials():
    """The corpus, pure quartic and sextic potentials on both sides of their
    folds, even potentials (structural zero coefficients, an all-zero u jet)
    and potentials with explicit zero coefficients, the leading one included."""
    pots = list(one_cut_corpus(100))
    for x in (0.8, 1.0, 1.2):
        pots += [PotentialSpec(x, {4: c}) for c in (-0.02, -1.5 / 48, 0.01, 0.1)]
        pots += [PotentialSpec(x, {6: c}) for c in (-0.003, 0.001, 0.01)]
        pots += [PotentialSpec(x, {2: 0.1, 4: 0.005, 6: 0.0005}),
                 PotentialSpec(x, {2: -0.2, 4: 0.01})]
    pots += [PotentialSpec(1.0, {3: 0.05, 4: 0.0}), PotentialSpec(0.5, {1: 0.006, 2: 0.0}),
             PotentialSpec(1.3, {1: 0.0, 2: -0.0014, 3: 0.0, 4: 0.0}),
             PotentialSpec(1.0, {2: 0.0, 4: -0.0, 6: 0.001}), PotentialSpec(1.0, {4: 0.0})]
    return pots


def _residual_points(pot):
    """The solved root where the solve succeeds, the Gaussian start point and
    three fixed points, one of them with integer coordinates."""
    pts = [(0.0, float(pot.x)), (-0.37, 0.81), (1.0, 1.0)]
    try:
        ep = solve_endpoints(pot)
    except EqmapError:
        return pts
    return pts + [(ep.u, ep.z)]


def test_endpoint_residuals_match_laurent_horner_on_floats_and_taylor_scalars():
    for pot in _residual_potentials():
        perturbation = _perturbation_coeffs(pot)
        for u, z in _residual_points(pot):
            want = _reference_residuals(u, z, pot)
            assert list(map(_bits, endpoint_residuals(u, z, pot))) == list(map(_bits, want))
            for n, lay in _UZ_LAYOUTS.items():
                k = len(lay.exps)
                U = _jet([u] + [0.0] * n + [1.0] + [0.0] * (k - n - 2), lay, True)
                Z = _jet([z, 1.0] + [0.0] * (k - 2), lay, True)
                for coeffs in (None, perturbation):  # Newton's and the fold search's
                    got = (endpoint_residuals(U, Z, pot) if coeffs is None
                           else _substituted_residuals(U, Z, pot, coeffs))
                    want = _reference_residuals(U, Z, pot, coeffs)
                    assert list(map(_bits, got)) == list(map(_bits, want)), (pot, u, z, n)


def test_x_jet_lift_matches_laurent_horner_pass_by_pass(monkeypatch):
    """uz_jets at x_order = max(deg, 5) + 1, with the residuals of every pass
    of the lift's kernel compared with the Horner reference over jets, which
    divides by the x-jet itself."""
    lifts, pots = [], []
    jet_residuals = endpoints._jet_residuals

    def compared(U, Z, lay, coeffs, xinv):
        got = jet_residuals(U, Z, lay, coeffs, xinv)
        pot = pots[-1]
        u, z = _jet(U, lay, True), _jet(Z, lay, True)
        want = _reference_residuals(u, z, pot, coeffs, Jet.variable(float(pot.x), 0, lay.orders))
        assert [_bits(_jet(r, lay, True)) for r in got] == list(map(_bits, want)), pot
        lifts.append(pot)
        return got

    monkeypatch.setattr(endpoints, "_jet_residuals", compared)
    for pot in _residual_potentials():
        pots.append(pot)
        try:
            uz_jets(pot, x_order=max(pot.degree, 5) + 1)
        except EqmapError:
            continue
    assert len(set(map(repr, lifts))) > 100


def test_fraction_residuals_are_the_full_band_coefficients():
    rng = random.Random(12)
    for _ in range(40):
        x = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        t = {j: Fraction(rng.randint(-6, 6), rng.randint(1, 50)) for j in rng.sample(range(1, 8), 3)}
        pot = PotentialSpec(x, t)
        u, z = Fraction(rng.randint(-5, 5), rng.randint(1, 7)), Fraction(rng.randint(1, 9), rng.randint(1, 7))
        full = substitute_uniformizer(xvprime_coeffs(pot), u, z)
        r1, r2 = endpoint_residuals(u, z, pot)
        assert (r1, r2) == (full.coeff(0) / x, full.coeff(-1) / x - 1)
        assert (r1, r2) == _reference_residuals(u, z, pot)
        assert type(r1) is type(r2) is Fraction


def _full_band_cases():
    """The hand-checked substitutions above, then random exact inputs with
    zero coefficients and zero u."""
    yield [0, 1], 0, 2
    yield [0, 0, 1], 1, 1
    yield [7], 2, 3
    rng = random.Random(4)
    for _ in range(60):
        coeffs = [Fraction(rng.choice([0, 0, rng.randint(-9, 9)]), rng.randint(1, 4))
                  for _ in range(rng.randint(1, 8))]
        u = rng.choice([0, Fraction(rng.randint(-5, 5), rng.randint(1, 6))])
        z = Fraction(rng.randint(1, 30), rng.randint(1, 7))
        yield coeffs, u, z


def test_full_band_substitution_equals_laurent_horner():
    for coeffs, u, z in _full_band_cases():
        got = substitute_uniformizer(coeffs, u, z)
        want = _laurent_horner(coeffs, u, z)
        assert got == want
        assert set(got.coeffs) == set(want.coeffs)
        assert not any(_is_zero(v) for v in got.coeffs.values())  # max_exp reads the keys
        assert got.max_exp == want.max_exp
        # the same values over floats, the way the h routes call it
        fgot = substitute_uniformizer([float(c) for c in coeffs], float(u), float(z))
        fwant = _laurent_horner([float(c) for c in coeffs], float(u), float(z))
        assert {k: _bits(v) for k, v in fgot.coeffs.items()} == \
            {k: _bits(v) for k, v in fwant.coeffs.items()}


# ---- the series of ((y - a)(y - b))**(-1/2) at infinity --------------------


def test_inv_sqrt_series_semicircle_endpoints():
    assert inv_sqrt_R_series(-2, 2, 4) == [1, 0, 2, 0]


def test_inv_sqrt_series_degenerate_is_inverse_y():
    assert inv_sqrt_R_series(0, 0, 6) == [1, 0, 0, 0, 0, 0]


def test_inv_sqrt_series_odd_terms_vanish_for_symmetric_endpoints():
    s = inv_sqrt_R_series(Fraction(-5, 3), Fraction(5, 3), 9)
    assert all(s[i] == 0 for i in range(1, 9, 2))


def test_inv_sqrt_series_square_is_exact_inverse():
    # Q(y)^2 (y-a)(y-b) = 1 + O(y^-n) exactly in rational arithmetic
    a, b = Fraction(-3, 2), Fraction(5, 4)
    n = 10
    q = inv_sqrt_R_series(a, b, n)
    s, p = a + b, a * b
    # c_m = sum_{i+j=m} q_i q_j, then Q^2 R2 coefficient of y^-m must vanish
    c = [sum(q[i] * q[m - i] for i in range(m + 1)) for m in range(n)]
    assert c[0] == 1
    assert c[1] - s * c[0] == 0
    for m in range(2, n):
        assert c[m] - s * c[m - 1] + p * c[m - 2] == 0


def test_series_times_poly_coeff():
    s = inv_sqrt_R_series(-2, 2, 4)
    # y * (y^-1 + 2 y^-3) has coefficient 2 at y^-2 and 1 at y^0
    assert series_times_poly_coeff([0, 1], s, 0) == 1
    assert series_times_poly_coeff([0, 1], s, -2) == 2
    with pytest.raises(ValueError, match="truncated"):
        series_times_poly_coeff([0, 1], s, -4)
