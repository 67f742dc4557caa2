"""Generic scalar substrate: truncated Taylor jets over the truncated
product they all share (straight-line Python generated once per layout), and
Laurent polynomials in a uniformizing variable T.

Everything here is written once over a "scalar" supporting field operations.
Plain Python numbers, ``fractions.Fraction`` and :class:`Jet` all flow
through the same code paths, so exact rational verification, float
evaluation, and automatic propagation of Taylor coefficients share a single
implementation of every residue-extraction formula.  A jet is a flat list of
Python numbers over a layout of exponents, such as the row-major box of its
orders or a triangle of the endpoint solver's (u, z) offsets; floats give
fast float64 arithmetic, ints and Fractions exact arithmetic.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidParameterError, SingularJetError, _require_int

__all__ = [
    "Jet",
    "LaurentPoly",
    "inv_sqrt_R_series",
    "substitute_uniformizer",
    "series_times_poly_coeff",
]


def _is_zero(v):
    if isinstance(v, Jet):
        return not any(v.c)
    return v == 0


def _pair_table(exponents):
    """Pair table of a truncated product over an ordered list of exponent
    tuples that holds every exponent below a listed one, such as a box or a
    triangle: per entry i, the flat tuple (m, src, m, src, ...) of every entry
    src whose exponent adds to entry i's to give a listed one, entry m."""
    index = {e: k for k, e in enumerate(exponents)}
    top = [max(c) for c in zip(*exponents)]
    table = []
    for e in exponents:
        row = []
        for f in itertools.product(*(range(t - k + 1) for t, k in zip(top, e))):
            m = index.get(tuple(map(operator.add, e, f)))
            if m is not None:
                row += (m, index[f])
        table.append(tuple(row))
    return tuple(table)


_BLOCK = 128  # pairs per compiled piece: compiling holds memory per statement


def _truncated_product(table):
    """The truncated product over ``table`` as straight-line Python code:
    f(a, b, zero, s=None) of the flat coefficient sequences a and b, and given
    entries s, s plus the product, s[k] + o[k] per entry.

    Each entry is summed from ``zero`` over the nonzero entries a[i] in
    storage order, adding a[i] * b[src] per pair of row i of ``table``, so
    every sum is rounded as a loop over the entries of a forms it (Griewank &
    Walther, Evaluating Derivatives, 2008).  Every truncated product in the
    package runs here, float and exact alike.
    """
    n = len(table)
    pairs = [(i, m, src) for i, row in enumerate(table) for m, src in zip(row[::2], row[1::2])]
    if len(pairs) <= _BLOCK:  # one piece, the entries of b and the sums in locals
        b, o = (["%s%d" % (v, k) for k in range(n)] for v in "bo")
        head = ["def f(a, b, zero, s=None):", "    %s, = b" % ", ".join(b),
                "    %s = zero" % " = ".join(o)]
        plus = ", ".join("s[%d] + %s" % (k, v) for k, v in enumerate(o))
        tail = "    if s is None:\n        return [%s]\n    return [%s]" % (", ".join(o), plus)
        return _compiled(head, pairs, "o%d", "b%d", tail)
    pieces = [_compiled(["def f(a, b, o):"], pairs[k:k + _BLOCK], "o[%d]", "b[%d]")
              for k in range(0, len(pairs), _BLOCK)]

    def product(a, b, zero, s=None):
        o = [zero] * n
        for piece in pieces:
            piece(a, b, o)
        return o if s is None else list(map(operator.add, s, o))
    return product


def _compiled(head, pairs, out, src, tail=""):
    """Compile f: head, then per (i, m, src) entry m += x * b[src] if x = a[i] != 0, then tail."""
    lines, row = head, None
    for i, m, s in pairs:
        if i != row:
            row = i
            lines += ["    x = a[%d]" % i, "    if x != 0:"]
        lines.append("        %s += x * %s" % (out % m, src % s))
    namespace = {}
    exec(compile("\n".join(lines + [tail]), "<truncated product>", "exec"), namespace)
    return namespace["f"]


class _Layout:
    """Where a jet keeps its entries: an ordered tuple of exponents that holds
    every exponent below a listed one, each exponent's position in it, and
    the largest exponent per variable.  ``_layout`` makes one per tuple, so
    layouts compare by identity."""

    __slots__ = ("exps", "index", "orders")

    def __init__(self, exps):
        self.exps = exps
        self.index = {e: k for k, e in enumerate(exps)}
        self.orders = tuple(map(max, zip(*exps)))


_layout = lru_cache(maxsize=None)(_Layout)


def _box(orders):
    """The layout of the row-major jet box of ``orders``."""
    return _layout(tuple(itertools.product(*(range(o + 1) for o in orders))))


class _Products(dict):
    """The truncated product of each layout, made on its first use."""

    def __missing__(self, lay):
        product = self[lay] = _truncated_product(_pair_table(lay.exps))
        return product


_PRODUCTS = _Products()


@lru_cache(maxsize=None)
def _common(la, lb):
    """The layout of the exponents both layouts hold, and their positions in each."""
    if len(la.orders) != len(lb.orders):
        raise ValueError("jets over different variable sets")
    lay = _layout(tuple(e for e in la.exps if e in lb.index))
    return lay, [la.index[e] for e in lay.exps], [lb.index[e] for e in lay.exps]


def _jet(c, lay, f64):
    """The jet holding the entries ``c`` over the layout ``lay``."""
    jet = object.__new__(Jet)
    jet.c, jet.lay, jet.f64 = c, lay, f64
    return jet


def _constant(value, lay, f64):
    """The jet of ``value`` alone over the layout ``lay``, of floats if ``f64``."""
    zero = 0.0 if f64 else 0
    return _jet([float(value) if f64 else value] + [zero] * (len(lay.exps) - 1), lay, f64)


class Jet:
    """Truncated Taylor expansion around a base point.

    The entries ``c`` form a flat list over the layout ``lay``: the entry of
    the exponent (k0, k1, ...) is the coefficient of ``offset0**k0 *
    offset1**k1 * ...``, and the first, of (0, 0, ...), is the value at the
    base point.  Jets made here use the row-major box of their truncation
    orders; a (u, z) triangle of the endpoint solver is a layout too.  Binary
    operations truncate to the exponents both operands hold (for boxes, the
    elementwise minimum of the orders), so information never silently
    exceeds what both operands carry.

    Jets built from a float hold Python floats (``f64``), which round as
    float64 arrays do, and take a scalar as float(scalar), which moves no
    bit: Python's float * Fraction is float(c) * x.  Those built from an int
    or Fraction hold those and stay exact.  Every operation keeps the kind,
    and ``coeffs`` shows the entries as a float64 or an object array.
    """

    __slots__ = ("c", "lay", "f64")

    def __init__(self, coeffs):
        import numpy as np
        self.f64 = isinstance(coeffs, np.ndarray) and coeffs.dtype == np.float64
        arr = np.array(coeffs, dtype=np.float64 if self.f64 else object, ndmin=1)
        self.c = arr.ravel().tolist()
        self.lay = _box(tuple(n - 1 for n in arr.shape))

    @classmethod
    def constant(cls, value, orders):
        return _constant(value, _box(orders), isinstance(value, float))

    @classmethod
    def variable(cls, value, index, orders):
        """Jet of the coordinate function: value plus a unit first-order offset."""
        if orders[index] < 1:
            raise ValueError("variable %d needs truncation order >= 1" % index)
        jet = cls.constant(value, orders)
        unit = tuple(int(k == index) for k in range(len(orders)))
        jet.c[jet.lay.index[unit]] = 1.0 if jet.f64 else 1
        return jet

    @property
    def orders(self):
        return self.lay.orders

    @property
    def constant_term(self):
        return self.c[0]

    @property
    def coeffs(self):
        """The entries as a read-only array of shape orders + 1, float64 for
        a float jet and object otherwise; exponents off the layout read 0."""
        import numpy as np
        arr = np.zeros(tuple(o + 1 for o in self.orders), dtype=np.float64 if self.f64 else object)
        arr[tuple(zip(*self.lay.exps))] = self.c
        arr.flags.writeable = False
        return arr

    def partial(self, index):
        """Partial derivative value: k! times the coefficient of the k-th offset power."""
        index = tuple(index)
        m = self.lay.index.get(index)
        if m is None:
            raise InvalidParameterError("jet index %r is not held by a jet of orders %r"
                                        % (index, self.orders))
        return self.c[m] * math.prod(map(math.factorial, index))

    def dx(self, var=0):
        """Derivative jet with respect to one variable; its order drops by one."""
        if var not in range(len(self.orders)) or self.orders[var] < 1:
            raise InvalidParameterError("a jet of orders %r carries no derivative information "
                                        "in variable %r" % (self.orders, var))
        # the entry of exponent e moves to e - 1 in var, times e[var]
        src = [(k, e) for k, e in enumerate(self.lay.exps) if e[var]]
        lay = _layout(tuple(e[:var] + (e[var] - 1,) + e[var + 1:] for _, e in src))
        return _jet([self.c[k] * e[var] for k, e in src], lay, self.f64)

    # ---- arithmetic -----------------------------------------------------

    def _operands(self, other):
        """Both entry lists over the exponents both jets hold, and their layout."""
        lay, pa, pb = _common(self.lay, other.lay)
        a, b = self.c, other.c
        return [a[i] for i in pa], [b[i] for i in pb], lay

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b, lay = self.c, other.c, self.lay
            if lay is not other.lay:
                a, b, lay = self._operands(other)
            return _jet(list(map(operator.add, a, b)), lay, self.f64 and other.f64)
        if isinstance(other, LaurentPoly):
            return NotImplemented
        c = self.c
        return _jet([c[0] + (float(other) if self.f64 else other)] + c[1:], self.lay, self.f64)

    __radd__ = __add__

    def __neg__(self):
        return _jet(list(map(operator.neg, self.c)), self.lay, self.f64)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return self.lay is other.lay and self.c == other.c

    __hash__ = None

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b, lay = self.c, other.c, self.lay
            if lay is not other.lay:
                a, b, lay = self._operands(other)
            f64 = self.f64 and other.f64
            return _jet(_PRODUCTS[lay](a, b, 0.0 if f64 else 0), lay, f64)
        if isinstance(other, LaurentPoly):
            return NotImplemented
        other = float(other) if self.f64 else other
        return _jet([v * other for v in self.c], self.lay, self.f64)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        if self.f64:
            other = float(other)
        elif isinstance(other, int):
            other = Fraction(other)  # int entries stay exact
        return _jet([v / other for v in self.c], self.lay, self.f64)

    # ---- analytic operations --------------------------------------------

    def reciprocal(self):
        """1/f.  A float jet sums (1/c0) sum_k (1 - f/c0)**k, finite to the
        truncation order because 1 - f/c0 has no constant term, over its
        entry list: eta = -(f/c0) + 1, its powers added to a sum started at
        1.0 (adding eta**k adds the generic series' term eta**k * 1
        exactly), then / c0 per entry.  An exact jet f = N/q, N and q over
        ints and n0 = N[0], sums q sum_k (n0 - N)**k n0**(K-k) over ints, K =
        sum(orders), and divides by n0**(K+1) once per entry; int entries
        with a unit constant stay ints.  Other jets sum the float series over
        Jet operations."""
        c0, K = self.constant_term, sum(self.orders)
        if _is_zero(c0):
            raise SingularJetError("reciprocal of a jet with zero constant term")
        if self.f64:
            eta = [-(v / c0) for v in self.c]
            eta[0] += 1.0
            product, out, p = _PRODUCTS[self.lay], [1.0] + [0.0] * (len(eta) - 1), eta
            for k in range(K):
                if k:
                    p = product(p, eta, 0.0)
                out = list(map(operator.add, out, p))
            return _jet([v / c0 for v in out], self.lay, True)
        exact = self._int_series(lambda k, n0: (-1) ** k * n0 ** (K - k))
        if exact:
            n0, q, s = exact
            den = n0 ** (K + 1)
            if den in (1, -1) and all(type(v) is int for v in self.c):
                return _jet([v * den for v in s], self.lay, False)
            return _jet([Fraction(q * v, den) for v in s], self.lay, False)
        eta = -(self / c0) + 1
        return self._nilpotent_series(eta, lambda k: 1) / c0

    def log(self):
        """log f = log c0 + sum_k (-1)**(k+1) (f/c0 - 1)**k / k for a positive
        constant term c0.  An exact jet, f/c0 = N/n0 with N over ints, sums
        sum_k (-1)**(k+1) (lcm(1..K)/k) n0**(K-k) (N - n0)**k over ints, K =
        sum(orders), and divides by lcm(1..K) n0**K once per entry."""
        c0, K = self.constant_term, sum(self.orders)
        if isinstance(c0, Fraction):
            c0 = float(c0)
        if not c0 > 0:
            raise SingularJetError("jet log requires a positive constant term")
        lcm = math.lcm(*range(1, K + 1))
        exact = self._int_series(lambda k, n0: (-1) ** (k + 1) * lcm // k * n0 ** (K - k)
                                 if k else 0)
        if exact:
            n0, _, s = exact
            den = lcm * n0 ** K
            return _jet([math.log(c0)] + [Fraction(v, den) for v in s[1:]], self.lay, False)
        eta = self / self.constant_term - 1
        out = self._nilpotent_series(eta, lambda k: Fraction((-1) ** (k + 1), k) if k else 0)
        return out + math.log(c0)

    def _int_series(self, coeff):
        """For a jet of ints and Fractions, N/q with ints N and q and n0 = N[0]: n0, q
        and the entries of sum_k coeff(k, n0) (N - n0)**k, all ints; None otherwise."""
        if self.f64 or not all(type(v) in (int, Fraction) for v in self.c):
            return None
        q = math.lcm(*(v.denominator for v in self.c))
        N = [v.numerator * (q // v.denominator) for v in self.c]
        d = _jet([0] + N[1:], self.lay, False)
        return N[0], q, self._nilpotent_series(d, lambda k: coeff(k, N[0])).c

    def _nilpotent_series(self, eta, coeff):
        """sum_k coeff(k) * eta**k for eta with zero constant term."""
        total = sum(eta.orders)
        out = _constant(coeff(0), eta.lay, eta.f64)
        p = eta
        for k in range(1, total + 1):
            c = coeff(k)
            if not _is_zero(c):
                out = out + p * c
            if k < total:
                p = p * eta
        return out

    def __repr__(self):
        return "Jet(orders=%r, coeffs=%r)" % (self.orders, self.coeffs.tolist())


class LaurentPoly:
    """Laurent polynomial in T with generic scalar coefficients.

    Coefficients live in a dict keyed by integer exponent; absent keys are
    zero.  Arithmetic is closed: sums and products carry the exact exponent
    range of the inputs, which is what makes coefficient extraction a total
    operation.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for k, v in coeffs.items():
                if not _is_zero(v):
                    d[int(k)] = v
        self.coeffs = d

    def coeff(self, k):
        return self.coeffs.get(k, 0)

    @property
    def max_exp(self):
        return max(self.coeffs) if self.coeffs else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if isinstance(other, LaurentPoly):
            out = dict(self.coeffs)
            for k, v in other.coeffs.items():
                out[k] = out.get(k, 0) + v
            return LaurentPoly(out)
        out = dict(self.coeffs)
        out[0] = out.get(0, 0) + other
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, LaurentPoly) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            out = {}
            for k1, v1 in self.coeffs.items():
                for k2, v2 in other.coeffs.items():
                    k = k1 + k2
                    # x * 1 == x exactly, so the unit coefficient of T is not multiplied
                    p = v1 if type(v2) is int and v2 == 1 else v1 * v2
                    out[k] = out.get(k, 0) + p
            return LaurentPoly(out)
        return LaurentPoly({k: v * other for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("Laurent powers must be nonnegative integers")
        out = LaurentPoly({0: 1})
        for _ in range(n):
            out = out * self
        return out

    def shifted(self, r):
        """Multiply by T**r."""
        return LaurentPoly({k + r: v for k, v in self.coeffs.items()})

    def derivative(self):
        """d/dT, valid for negative exponents as well."""
        return LaurentPoly({k - 1: k * v for k, v in self.coeffs.items() if k != 0})

    def __call__(self, tval):
        total = 0
        for k, v in self.coeffs.items():
            total = total + v * tval ** k
        return total

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coeff(k) == other.coeff(k) for k in keys)

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "LaurentPoly(0)"
        items = ", ".join("T^%d: %r" % (k, v) for k, v in sorted(self.coeffs.items()))
        return "LaurentPoly({%s})" % items


def substitute_uniformizer(coeffs, u, z):
    """Evaluate a polynomial P(y) at the uniformizing substitution y = T + u + z/T.

    ``coeffs`` lists P's coefficients in ascending degree; the scalars may be
    numbers, Fractions or jets.  The result is a LaurentPoly with exponent
    range [-deg P, deg P].  This is the generic route, which the tests take
    as the reference and c06 checks the residue formulas on; the endpoint
    solver and the jet lift run endpoints._band, the same Horner's rule over
    flat entry lists cut to T**0 and T**-1.

    Horner's rule over a dense list, highest exponent first.  A product by y
    sums each coefficient as LaurentPoly.__mul__ does, (a[k+1]*z + a[k]*u)
    + a[k-1] with the coefficient on the left, and skips zero entries of y,
    so every scalar type gets the bits of Horner's rule over LaurentPoly.
    """
    coeffs = list(coeffs)
    n = len(coeffs)
    if not n:
        return LaurentPoly()
    # y = T + y0 + y_1/T; a zero entry is skipped (None marks it), and
    # x * 1 == x exactly, so the unit coefficient of T is not multiplied
    y0 = None if _is_zero(u) else u
    y_1 = None if _is_zero(z) else z
    # a[j] is the coefficient of T**(top - j), None where no term reached it;
    # a coefficient that sums to zero after + c is dropped, as LaurentPoly drops it
    top, a = 0, [None if _is_zero(coeffs[-1]) else 0 + coeffs[-1]]
    for i in range(n - 2, -1, -1):
        # multiply by y, which widens the range by one exponent at each end:
        # T**k gathers T**(k+1) times y_1, T**k times y0 and T**(k-1)
        q = [None, None] + a + [None, None]
        b = []
        for above, at, below in zip(q, q[1:], q[2:]):
            s = None if above is None or y_1 is None else above * y_1
            if at is not None and y0 is not None:
                s = at * y0 if s is None else s + at * y0
            if below is not None:
                s = below if s is None else s + below
            b.append(s)
        top, a = top + 1, b
        v = (0 if a[top] is None else a[top]) + coeffs[i]
        a[top] = None if _is_zero(v) else v
    return LaurentPoly({top - j: v for j, v in enumerate(a) if v is not None})


def inv_sqrt_R_series(alpha_minus, alpha_plus, n_terms):
    """The first n_terms coefficients q_n of ((y - a)(y - b))**(-1/2) =
    sum_n q_n y**(-n-1) at infinity.

    The coefficients solve Q(y)**2 * (y - a)(y - b) = 1 term by term with
    q_0 = 1; over int/Fraction endpoints the recursion is exact.
    """
    _require_int("n_terms", n_terms, 1)
    exact = all(isinstance(v, (int, Fraction)) for v in (alpha_minus, alpha_plus))
    if exact:
        alpha_minus, alpha_plus = Fraction(alpha_minus), Fraction(alpha_plus)
    s = alpha_minus + alpha_plus
    p = alpha_minus * alpha_plus
    q = [Fraction(1) if exact else 1.0]
    c = [q[0]]  # c[m] = sum_{i+j=m} q_i q_j
    for n in range(1, n_terms):
        cn = s * c[n - 1] - (p * c[n - 2] if n >= 2 else 0)
        rest = sum(q[i] * q[n - i] for i in range(1, n))
        q.append((cn - rest) / 2)
        c.append(cn)
    return q


def series_times_poly_coeff(poly_coeffs, q, r):
    """Coefficient of y**r in P(y) * sum_n q[n] y**(-n-1), P ascending."""
    total = 0
    for k, a in enumerate(poly_coeffs):
        n = k - r - 1
        if _is_zero(a) or n < 0:
            continue
        if n >= len(q):
            raise ValueError("series truncated before y**%d" % (r - k))
        total = total + a * q[n]
    return total
