"""Exact rational coefficient tables for expanding (T - 2 + 1/T)**-(k+1)
in the phi-tilde / psi-tilde basis, plus exact verification of the
combinatorial identities that make the expansion possible.

All arithmetic in this module is exact, over ints and ``fractions.Fraction``;
every check is an exact polynomial identity, not a floating comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .algebra import LaurentPoly
from .errors import InvalidParameterError

__all__ = [
    "BasisFunction",
    "CoeffTable",
    "phi_tilde",
    "psi_tilde",
    "build_c_table",
    "verify_operator_closed_forms",
    "verify_parity_projection",
    "verify_binomial_identities",
    "check_diagonal_conjecture",
    "double_factorial",
]


def double_factorial(n):
    """n!! with the usual empty-product convention for n <= 0."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _binom(n, k):
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k)
    # generalized upper index, needed only for the m = 0 seed
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


@dataclass(frozen=True)
class BasisFunction:
    """One basis element: ``numerator / (T - 1/T)**denom_power``."""

    kind: str
    m: int
    numerator: LaurentPoly
    denom_power: int

    def cleared(self, k):
        """numerator * (T - 1/T)**(2(k+1) - denom_power) * T**(k+1).

        Multiplying the defining identity for the order-k expansion through
        by (T - 1/T)**(2k+2) * T**(k+1) turns both sides into honest Laurent
        polynomials; this returns this basis element's contribution.
        """
        p = 2 * (k + 1) - self.denom_power  # (T - 1/T)**p * T**(k+1) by the binomial theorem
        tm = LaurentPoly({p - 2 * i + k + 1: (-1) ** i * _binom(p, i) for i in range(p + 1)})
        return self.numerator * tm


def phi_tilde(m):
    num = LaurentPoly({2 * l - m: math.factorial(m) * _binom(m, l) ** 2
                       for l in range(m + 1)})
    return BasisFunction("phi", m, num, 2 * m)


def psi_tilde(m):
    num = LaurentPoly({2 * l + 1 - m: math.factorial(m) * _binom(m - 1, l) * _binom(m + 1, l + 1)
                       for l in range(m + 1)})
    return BasisFunction("psi", m, num, 2 * m)


def leading_pole_data(bf):
    """Exact leading Laurent coefficients of a basis element at T = 1 and T = -1.

    Near T = s the element behaves like A_s / (T - s)**denom_power with
    A_s = [numerator * T**denom_power](s) / (2s)**denom_power up to sign; the
    returned pair is (A at +1, A at -1).
    """
    p = bf.denom_power
    num = bf.numerator.shifted(p)  # clear the T**-p inside (T - 1/T)**p
    at_plus = num(Fraction(1)) / Fraction(2) ** p
    at_minus = num(Fraction(-1)) / Fraction(-2) ** p
    return at_plus, at_minus


@dataclass(frozen=True)
class CoeffTable:
    """Rows k = 0..kmax of the expansion coefficients, exact rationals."""

    kmax: int
    c_phi: tuple  # c_phi[k][m-1] for m = 1..k+1
    c_psi: tuple

    def phi(self, k, m):
        row = self.c_phi[k]
        return row[m - 1] if 1 <= m <= len(row) else Fraction(0)

    def psi(self, k, m):
        row = self.c_psi[k]
        return row[m - 1] if 1 <= m <= len(row) else Fraction(0)


def _solve_exact(rows, rhs):
    """Solve a consistent integer system of m equations in n <= m unknowns
    exactly: eliminate on the first n (the pivot equations), check all m.

    Fraction-free (Bareiss) Gauss-Jordan elimination over ints: with ``p``
    the pivot and ``prev`` the one before it, every other row becomes
    ``(p * row - f * pivot_row) // prev``, a division that is exact by
    Sylvester's identity.  Every diagonal entry ends as the determinant
    ``det``, so each unknown is ``num / det``, and each equation is checked
    as ``row . num == rhs * det`` over ints.
    """
    m, n = len(rows), len(rows[0])
    if m < n:
        raise RuntimeError("coefficient system is rank deficient: %d equations "
                           "for %d unknowns" % (m, n))
    a = [list(r) + [b] for r, b in zip(rows[:n], rhs)]
    prev = 1
    for r in range(n):
        piv = next((i for i in range(r, n) if a[i][r] != 0), None)
        if piv is None:
            raise RuntimeError("coefficient system is singular on its %d pivot equations" % n)
        a[r], a[piv] = a[piv], a[r]
        p, pivot_row = a[r][r], a[r]
        for i in range(n):
            if i != r:
                f = a[i][r]
                a[i] = [(p * vi - f * vr) // prev for vi, vr in zip(a[i], pivot_row)]
        prev = p
    num = [row[n] for row in a]
    if any(sum(map(mul, row, num)) != b * prev for row, b in zip(rows, rhs)):
        raise RuntimeError("coefficient system is inconsistent")
    return [Fraction(v, prev) for v in num]


def _solve_row(k):
    """Match coefficients of the cleared order-k identity and solve exactly.

    Each cleared basis element has exponents of one parity, so the equations
    of even and of odd exponent are two systems that share no unknown, each
    solved on its k+1 pivot equations.
    """
    target = LaurentPoly({i: _binom(2 * k + 2, i) for i in range(2 * k + 3)})  # (T + 1)**(2k+2)
    basis = [f(m).cleared(k) for f in (phi_tilde, psi_tilde) for m in range(1, k + 2)]
    exps = sorted(set().union(*[set(b.coeffs) for b in basis], set(target.coeffs)))
    sol = {}
    for q in (0, 1):
        cols = [j for j, b in enumerate(basis) if all(e % 2 == q for e in b.coeffs)]
        eqs = [e for e in exps if e % 2 == q]
        sol.update(zip(cols, _solve_exact([[basis[j].coeff(e) for j in cols] for e in eqs],
                                          [target.coeff(e) for e in eqs])))
    if len(sol) < len(basis):
        raise RuntimeError("a cleared basis element has exponents of both parities")
    return tuple(sol[j] for j in range(k + 1)), tuple(sol[j] for j in range(k + 1, 2 * k + 2))


_CACHE_STRIDE = 64  # build_c_table recurses at most this deep, plus kmax / this


@lru_cache(maxsize=None, typed=True)
def build_c_table(kmax):
    """Exact expansion coefficients for k = 0..kmax.

    Row k comes from clearing denominators in the defining identity: a small
    consistent integer system of 4k+3 equations in 2k+2 unknowns, solved
    exactly on 2k+2 pivot equations, all 4k+3 checked.  The table is
    build_c_table(kmax - 1) plus one new row, taken through this same cache,
    so tables of growing kmax solve each row once and ``cache_clear()``
    forgets every row.  The cache is typed, so ``True`` and ``2.0`` reach
    the check instead of the entries of ``1`` and ``2``.
    """
    if not isinstance(kmax, int) or isinstance(kmax, bool) or kmax < 0:
        raise InvalidParameterError("kmax must be a nonnegative int, got %r" % (kmax,))
    if kmax > _CACHE_STRIDE:  # cache a lower table first, so the recursion stays shallow
        build_c_table(kmax - _CACHE_STRIDE)
    lower = build_c_table(kmax - 1) if kmax else CoeffTable(-1, (), ())
    row_phi, row_psi = _solve_row(kmax)
    return CoeffTable(kmax, lower.c_phi + (row_phi,), lower.c_psi + (row_psi,))


def reconstruction_holds(table, k):
    """Exact identity check: the table row reproduces (T - 2 + 1/T)**-(k+1).

    Verified after clearing denominators, i.e. the combination of cleared
    basis elements must equal (T + 1)**(2k+2) coefficient for coefficient.
    """
    target = LaurentPoly({i: _binom(2 * k + 2, i) for i in range(2 * k + 3)})
    acc = LaurentPoly()
    for m in range(1, k + 2):
        acc = acc + phi_tilde(m).cleared(k) * table.phi(k, m)
        acc = acc + psi_tilde(m).cleared(k) * table.psi(k, m)
    return acc == target


# ---- identity suite --------------------------------------------------------


def _apply_operator(num, power, times):
    """Apply (-d/dT after multiplying by 1/(1 - T**-2)) repeatedly.

    State is a rational function num / (T**2 - 1)**power with a Laurent
    polynomial numerator; each application raises the denominator power by 2.
    """
    for _ in range(times):
        m = num.shifted(2)  # multiply by T**2 / (T**2 - 1)
        power += 1
        # -d/dT of m / (T**2 - 1)**power
        tsq = LaurentPoly({2: 1, 0: -1})
        num = LaurentPoly({1: 2 * power}) * m - m.derivative() * tsq
        power += 1
    return num, power


def verify_operator_closed_forms(m):
    """Exact check of the closed forms for the m-fold derivative operator.

    The operator applied to 1/T must match the phi-type closed form, and
    applied to 1 the psi-type closed form (the numerators of
    :func:`phi_tilde` and :func:`psi_tilde`, times T**(2m-1)); both are
    compared as cleared polynomial identities.
    """
    got_phi, p1 = _apply_operator(LaurentPoly({-1: Fraction(1)}), 0, m)
    want_phi = phi_tilde(m).numerator.shifted(2 * m - 1)
    got_psi, p2 = _apply_operator(LaurentPoly({0: Fraction(1)}), 0, m)
    want_psi = psi_tilde(m).numerator.shifted(2 * m - 1)
    return p1 == 2 * m and p2 == 2 * m and got_phi == want_phi and got_psi == want_psi


def verify_parity_projection(k):
    """Exact check of the parity-projection identity at order k.

    Both sides are multiplied by (T - 1/T)**(2k+2), which turns them into
    Laurent polynomials that are compared coefficient for coefficient.
    """
    tp = LaurentPoly({1: 1, 0: 1})
    tm = LaurentPoly({1: 1, 0: -1})
    lhs = (tp ** (2 * k + 2) + tm ** (2 * k + 2) * ((-1) ** k)).shifted(-(k + 1)) * Fraction(1, 2)
    kern = LaurentPoly({1: 1, -1: -1})
    rhs = LaurentPoly()
    for m in range((k + 1) // 2, k + 1):
        w = Fraction(2) ** (4 * m - 2 * k) * _binom(m, k - m)
        rhs = rhs + LaurentPoly({1: w, -1: w}) * kern ** (2 * k - 2 * m)
    return lhs == rhs


def verify_binomial_identities(m):
    """Exact check of the four closed-form sums behind basis independence.

    The alternating psi-type sum is parity split: zero for even m, a signed
    power-of-two ratio of double factorials for odd m.
    """
    plain_phi = sum(_binom(m, l) ** 2 for l in range(m + 1))
    ok = plain_phi == _binom(2 * m, m)

    plain_psi = sum(_binom(m - 1, l) * _binom(m + 1, l + 1) for l in range(m))
    ok = ok and plain_psi == _binom(2 * m, m)

    alt_phi = sum((-1) ** l * _binom(m, l) ** 2 for l in range(m + 1))
    if m % 2 == 0:
        ok = ok and alt_phi == (-1) ** (m // 2) * _binom(m, m // 2)
    else:
        ok = ok and alt_phi == 0

    alt_psi = sum((-1) ** l * _binom(m - 1, l) * _binom(m + 1, l + 1) for l in range(m))
    if m % 2 == 0:
        ok = ok and alt_psi == 0
    else:
        want = Fraction((-1) ** ((m - 1) // 2) * 2 ** m * double_factorial(m - 2),
                        double_factorial(m - 1))
        ok = ok and Fraction(alt_psi) == want
    return ok


def check_diagonal_conjecture(kmax):
    """True iff both diagonals equal 2**k / (2k+1)!! for all k <= kmax.

    Checked exactly; downstream code never assumes this pattern.
    """
    table = build_c_table(kmax)
    for k in range(kmax + 1):
        want = Fraction(2 ** k, double_factorial(2 * k + 1))
        if table.phi(k, k + 1) != want or table.psi(k, k + 1) != want:
            return False
    return True
