"""Generic scalar substrate: truncated Taylor jets, the truncated product they
share with the endpoint layer's Taylor scalar (straight-line Python generated
once per pair table), and Laurent polynomials in a uniformizing variable T.

Everything here is written once over a "scalar" supporting field operations.
Plain Python numbers, ``fractions.Fraction``, :class:`Jet` and the Taylor
scalar all flow through the same code paths, so exact rational verification,
float evaluation, and automatic propagation of Taylor coefficients share a
single implementation of every residue-extraction formula.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import SingularJetError

__all__ = [
    "Jet",
    "LaurentPoly",
    "inv_sqrt_R_series",
    "substitute_uniformizer",
    "series_times_poly_coeff",
]


def _is_zero(v):
    if isinstance(v, Jet):
        return not np.count_nonzero(v.coeffs)
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
    """The truncated product over ``table`` as straight-line Python code: a
    function of the flat coefficient sequences a and b and a ``zero``.

    Each entry is summed from ``zero`` over the nonzero entries a[i] in
    storage order, adding a[i] * b[src] per pair of row i of ``table``, so
    every sum is rounded as a loop over the entries of a forms it (Griewank &
    Walther, Evaluating Derivatives, 2008).  Jets and the endpoint solver's
    Taylor scalar both multiply here, so their products agree bit for bit.
    """
    n = len(table)
    pairs = [(i, m, src) for i, row in enumerate(table) for m, src in zip(row[::2], row[1::2])]
    if len(pairs) <= _BLOCK:  # one piece, the entries of b and the sums in locals
        b, o = (["%s%d" % (v, k) for k in range(n)] for v in "bo")
        head = ["def f(a, b, zero):", "    %s, = b" % ", ".join(b), "    %s = zero" % " = ".join(o)]
        return _compiled(head, pairs, "o%d", "b%d", "    return [%s]" % ", ".join(o))
    pieces = [_compiled(["def f(a, b, o):"], pairs[k:k + _BLOCK], "o[%d]", "b[%d]")
              for k in range(0, len(pairs), _BLOCK)]

    def product(a, b, zero):
        o = [zero] * n
        for piece in pieces:
            piece(a, b, o)
        return o
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


@lru_cache(maxsize=None)
def _box_product(shape):
    """Truncated product of the row-major jet box ``shape``."""
    return _truncated_product(_pair_table(tuple(np.ndindex(shape))))


class Jet:
    """Dense truncated Taylor expansion around a base point.

    ``coeffs[k0, k1, ...]`` is the coefficient of ``offset0**k0 * offset1**k1
    * ...``; the all-zero index holds the value at the base point.  The
    truncation order in each variable is the array extent minus one.  Binary
    operations truncate to the elementwise minimum of the operand orders, so
    information never silently exceeds what both operands carry.

    Jets built from a float are stored as float64 arrays, those built from an
    int or Fraction as object arrays, and every operation keeps the storage.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        if isinstance(coeffs, np.ndarray) and coeffs.ndim and coeffs.dtype in (np.float64, object):
            self.coeffs = coeffs
            return
        arr = np.array(coeffs, dtype=object)
        if arr.ndim == 0:
            arr = arr.reshape((1,))
        self.coeffs = arr

    @classmethod
    def constant(cls, value, orders):
        arr = np.zeros(tuple(o + 1 for o in orders),
                       dtype=np.float64 if isinstance(value, float) else object)
        arr[(0,) * len(orders)] = value
        return cls(arr)

    @classmethod
    def variable(cls, value, index, orders):
        """Jet of the coordinate function: value plus a unit first-order offset."""
        if orders[index] < 1:
            raise ValueError("variable %d needs truncation order >= 1" % index)
        jet = cls.constant(value, orders)
        jet.coeffs[tuple(int(k == index) for k in range(len(orders)))] = 1
        return jet

    @property
    def orders(self):
        return tuple(n - 1 for n in self.coeffs.shape)

    @property
    def constant_term(self):
        return self.coeffs[(0,) * self.coeffs.ndim]

    def partial(self, index):
        """Partial derivative value: k! times the coefficient of the k-th offset power."""
        index = tuple(index)
        factor = 1
        for k in index:
            factor *= math.factorial(k)
        return self.coeffs[index] * factor

    def dx(self, var=0):
        """Derivative jet with respect to one variable; its order drops by one."""
        n = self.coeffs.shape[var]
        if n < 2:
            raise ValueError("jet carries no derivative information in variable %d" % var)
        sl = [slice(None)] * self.coeffs.ndim
        sl[var] = slice(1, None)
        shifted = self.coeffs[tuple(sl)]
        shape = [1] * self.coeffs.ndim
        shape[var] = n - 1
        mult = np.arange(1, n, dtype=self.coeffs.dtype).reshape(shape)
        return Jet(shifted * mult)

    # ---- arithmetic -----------------------------------------------------

    def _operands(self, other):
        """Both coefficient arrays, truncated to the common orders."""
        a, b = self.coeffs, other.coeffs
        if a.shape == b.shape:
            return a, b
        if a.ndim != b.ndim:
            raise ValueError("jets over different variable sets")
        box = tuple(slice(0, min(x, y)) for x, y in zip(a.shape, b.shape))
        return a[box], b[box]

    def _like(self, value):
        """A scalar in this jet's storage.  float64 storage takes float(value),
        which moves no bit: Python's float * Fraction is float(c) * x."""
        return value if self.coeffs.dtype == object else float(value)

    def __add__(self, other):
        if isinstance(other, LaurentPoly):
            return NotImplemented
        if isinstance(other, Jet):
            a, b = self._operands(other)
            return Jet(a + b)
        out = self.coeffs.copy()
        zero = (0,) * out.ndim
        out[zero] = out[zero] + other
        return Jet(out)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            return NotImplemented
        if not isinstance(other, Jet):
            return Jet(self.coeffs * self._like(other))
        a, b = self._operands(other)
        dtype = np.result_type(a, b)
        out = _box_product(a.shape)(a.ravel().tolist(), b.ravel().tolist(),
                                    0.0 if dtype == np.float64 else 0)
        return Jet(np.array(out, dtype=dtype).reshape(a.shape))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        if isinstance(other, int) and self.coeffs.dtype == object:
            other = Fraction(other)  # int entries stay exact
        return Jet(self.coeffs / self._like(other))

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("jet powers must be nonnegative integers")
        out = Jet.constant(self._like(1), self.orders)
        for _ in range(n):
            out = out * self
        return out

    # ---- analytic operations --------------------------------------------

    def reciprocal(self):
        c0 = self.constant_term
        if _is_zero(c0):
            raise SingularJetError("reciprocal of a jet with zero constant term")
        # 1/f = (1/c0) sum_k (1 - f/c0)**k; the sum is finite to truncation order
        # because 1 - f/c0 has no constant term.
        eta = -(self / c0) + 1
        return self._nilpotent_series(eta, lambda k: 1) / c0

    def log(self):
        c0 = self.constant_term
        if isinstance(c0, Fraction):
            c0 = float(c0)
        if not c0 > 0:
            raise SingularJetError("jet log requires a positive constant term")
        eta = self / self.constant_term - 1
        out = self._nilpotent_series(eta, lambda k: Fraction((-1) ** (k + 1), k) if k else 0)
        return out + math.log(c0)

    def _nilpotent_series(self, eta, coeff):
        """sum_k coeff(k) * eta**k for eta with zero constant term."""
        total = sum(eta.orders)
        out = Jet.constant(eta._like(coeff(0)), eta.orders)
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


def substitute_uniformizer(coeffs, u, z, _band=None):
    """Evaluate a polynomial P(y) at the uniformizing substitution y = T + u + z/T.

    ``coeffs`` lists P's coefficients in ascending degree; the scalars may be
    numbers, Fractions or jets.  The result is a LaurentPoly with exponent
    range [-deg P, deg P]; ``_band = (lo, hi)`` with lo <= 0 <= hi keeps only
    T**lo..T**hi and never forms a coefficient that cannot reach them.

    Horner's rule over a dense list, highest exponent first.  A product by y
    sums each coefficient as LaurentPoly.__mul__ does, (a[k+1]*z + a[k]*u)
    + a[k-1] with the coefficient on the left, and skips zero entries of y,
    so every scalar type gets the bits of Horner's rule over LaurentPoly.
    """
    coeffs = list(coeffs)
    n = len(coeffs)
    if not n:
        return LaurentPoly()
    lo, hi = (1 - n, n - 1) if _band is None else _band
    # y = T + y0 + y_1/T; a zero entry is skipped (None marks it), and
    # x * 1 == x exactly, so the unit coefficient of T is not multiplied
    y0 = None if _is_zero(u) else u
    y_1 = None if _is_zero(z) else z
    # a[j] is the coefficient of T**(top - j), None where no term reached it;
    # a coefficient that sums to zero after + c is dropped, as LaurentPoly drops it
    top, a = 0, [None if _is_zero(coeffs[-1]) else 0 + coeffs[-1]]
    for i in range(n - 2, -1, -1):
        # multiply by y over the exponents that the i products left can
        # still carry into [lo, hi]
        new_top = min(top + 1, hi + i)
        new_bottom = max(top - len(a), lo - i)
        q = [None, None] + a + [None, None]  # q[top - k + 2] is T**k
        b = []
        for j in range(top - new_top + 2, top - new_bottom + 3):
            v, s = q[j - 1], None
            if v is not None and y_1 is not None:
                s = v * y_1
            v = q[j]
            if v is not None and y0 is not None:
                s = v * y0 if s is None else s + v * y0
            v = q[j + 1]
            if v is not None:
                s = v if s is None else s + v
            b.append(s)
        top, a = new_top, b
        v = (0 if a[top] is None else a[top]) + coeffs[i]
        a[top] = None if _is_zero(v) else v
    return LaurentPoly({top - j: v for j, v in enumerate(a) if v is not None})


def inv_sqrt_R_series(alpha_minus, alpha_plus, n_terms):
    """The first n_terms coefficients q_n of ((y - a)(y - b))**(-1/2) =
    sum_n q_n y**(-n-1) at infinity.

    The coefficients solve Q(y)**2 * (y - a)(y - b) = 1 term by term with
    q_0 = 1; over int/Fraction endpoints the recursion is exact.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
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
