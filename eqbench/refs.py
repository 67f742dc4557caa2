"""Independent references the benchmark checks eqmap against.

Nothing here imports eqmap.  Each reference is a closed form or an exact
recursion, written from the mathematics rather than from the package:

* endpoint residuals as finite binomial sums of [T^0] and [T^-1] of
  x V'(T + u + z/T), with their (u, z)-Jacobian, and a small continuation
  solver built on them (used only to draw inputs inside the one-cut region);
* the classical h as the polynomial part of x V'(y) / sqrt((y - a-)(y - a+));
* the pure quartic and sextic branch roots and their critical couplings;
* the total mass as a semicircle-moment integral, exact for polynomial h;
* the Bessis-Itzykson-Zuber series of e1 for the quartic, in exact rationals;
* the Harer-Zagier one-vertex genus counts and the matching total (H-1)!!;
* the printed coefficient tables and their defining identity.

:class:`Accuracy` is the single comparison point: every check with an
independent reference goes through it, so the worst relative error of a run
is known, and every checker has a negative control (see ``NEGATIVE_CONTROLS``)
that must reject a deliberately wrong answer.
"""

from __future__ import annotations

import math
from fractions import Fraction

DIGITS_CAP = 16.0


class Wrong(Exception):
    """A program output disagrees with its reference or violates a property."""


def digits(err):
    """-log10 of a relative error, capped at 16 for an exact match."""
    return DIGITS_CAP if err == 0 else min(DIGITS_CAP, -math.log10(err))


class Accuracy:
    """Collects the worst relative error over a run's reference comparisons.

    ``close`` and ``exact`` compare with an independent reference and enter
    the accuracy figure; ``require`` is a pass/fail property check and does
    not.
    """

    def __init__(self):
        self.worst_digits = DIGITS_CAP

    def _record(self, err):
        self.worst_digits = min(self.worst_digits, digits(err))

    def close(self, got, want, tol, what, scale=0.0):
        """Relative error |got - want| / max(|want|, scale) must be <= tol."""
        got, want = float(got), float(want)
        den = max(abs(want), scale)
        err = abs(got - want) / den if den > 0 else abs(got - want)
        if not err <= tol:
            raise Wrong("%s: got %.17g, reference %.17g (relative error %.3g > %.1g)"
                        % (what, got, want, err, tol))
        self._record(err)

    def close_vec(self, got, want, tol, what):
        """Componentwise vectors, error taken relative to the largest entry."""
        got, want = [float(v) for v in got], [float(v) for v in want]
        if len(got) != len(want):
            raise Wrong("%s: %d entries against %d" % (what, len(got), len(want)))
        scale = max(abs(v) for v in want)
        for g, w in zip(got, want):
            self.close(g, w, tol, what, scale)

    def exact(self, got, want, what):
        if got != want:
            raise Wrong("%s: got %r, reference %r" % (what, got, want))
        self._record(0)


def require(cond, what):
    """Pass/fail property check; does not enter the accuracy figure."""
    if not cond:
        raise Wrong(what)


# ---- endpoint equations ----------------------------------------------------


def xvprime(t):
    """Ascending coefficients c_n of x V'(y) = y + sum_j j t_j y**(j-1)."""
    deg = max([2] + list(t))
    c = [0.0] * deg
    c[1] = 1.0
    for j, tj in t.items():
        c[j - 1] += j * tj
    return c


def _laurent_moments(n_max, u, z):
    """A_n = [T^0] and B_n = [T^-1] of (T + u + z/T)**n for n = 0..n_max."""
    a, b = [], []
    for n in range(n_max + 1):
        a.append(sum(math.factorial(n) // (math.factorial(k) ** 2 * math.factorial(n - 2 * k))
                     * u ** (n - 2 * k) * z ** k for k in range(n // 2 + 1)))
        b.append(sum(math.factorial(n) // (math.factorial(k) * math.factorial(k + 1)
                                           * math.factorial(n - 2 * k - 1))
                     * u ** (n - 2 * k - 1) * z ** (k + 1) for k in range((n - 1) // 2 + 1)))
    return a, b


def endpoint_residuals(u, z, x, t):
    """(r1, r2) = ([T^0], [T^-1] - x) of x V'(T + u + z/T), divided by x."""
    c = xvprime(t)
    a, b = _laurent_moments(len(c) - 1, u, z)
    r1 = sum(cn * an for cn, an in zip(c, a)) / x
    r2 = sum(cn * bn for cn, bn in zip(c, b)) / x - 1
    return r1, r2


def _residual_jacobian(u, z, x, c):
    # d/du (T+u+z/T)**n = n (...)**(n-1) and d/dz = n (...)**(n-1) / T, with
    # [T^1] (...)**m = B_m / z by the symmetry T <-> z/T.
    a, b = _laurent_moments(len(c) - 1, u, z)
    r = (sum(cn * an for cn, an in zip(c, a)) / x,
         sum(cn * bn for cn, bn in zip(c, b)) / x - 1)
    da = sum(n * c[n] * a[n - 1] for n in range(1, len(c))) / x
    db = sum(n * c[n] * b[n - 1] for n in range(1, len(c))) / x
    return r, ((da, db / z), (db, da))


def reference_solve(x, t, scale=1.0, min_det=0.25):
    """(u, z) on the one-cut branch by continuation in s from the Gaussian
    point, or None when the path comes near a fold.

    ``det J * x**2`` is 1 at the Gaussian point and vanishes at a fold; the
    path is refused once it drops below ``min_det``, which keeps accepted
    potentials well inside the one-cut region.
    """
    u, z, s, step = 0.0, float(x), 0.0, 0.125
    while s < scale:
        target = min(scale, s + step)
        c = xvprime({j: target * v for j, v in t.items()})
        uu, zz = u, z
        for _ in range(40):
            r, jac = _residual_jacobian(uu, zz, x, c)
            det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
            if not (math.isfinite(det) and det * x * x > min_det):
                break
            du = (r[0] * jac[1][1] - r[1] * jac[0][1]) / det
            dz = (r[1] * jac[0][0] - r[0] * jac[1][0]) / det
            uu, zz = uu - du, zz - dz
            if not zz > 0:
                break
            if max(abs(du), abs(dz)) < 1e-14 * max(1.0, abs(zz)):
                break
        r, jac = _residual_jacobian(uu, zz, x, c)
        det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
        if zz > 0 and max(abs(r[0]), abs(r[1])) < 1e-12 and det * x * x > min_det:
            u, z, s = uu, zz, target
        else:
            step /= 2
            if step < 1e-4:
                return None
    return u, z


def classical_h(x, t, u, z):
    """Ascending monomial coefficients of h, the polynomial part of
    x V'(y) / sqrt((y - a-)(y - a+)) with a-+ = u -+ 2 sqrt(z)."""
    c = xvprime(t)
    am, ap = u - 2 * math.sqrt(z), u + 2 * math.sqrt(z)
    beta = [math.comb(2 * k, k) / 4 ** k for k in range(len(c))]
    # 1/sqrt((y-a)(y-b)) = sum_n e_n y**(-n-1)
    e = [sum(beta[k] * beta[n - k] * am ** k * ap ** (n - k) for k in range(n + 1))
         for n in range(len(c))]
    return [sum(c[i] * e[i - 1 - r] for i in range(r + 1, len(c))) for r in range(len(c) - 1)]


def semicircle_mass(h, u, z, x):
    """(1/2 pi x) integral over the support of sqrt((a+ - y)(y - a-)) h(y) dy.

    With y = u + r w, r = 2 sqrt(z), the integral of w**(2m) sqrt(1 - w**2)
    over [-1, 1] is (pi/2) Catalan(m) / 4**m, so the mass is a finite sum.
    """
    r = 2 * math.sqrt(z)
    q = [sum(h[i] * math.comb(i, k) * u ** (i - k) for i in range(k, len(h))) * r ** k
         for k in range(len(h))]
    catalan = [math.comb(2 * m, m) // (m + 1) for m in range(len(h))]
    return r * r / (4 * x) * sum(q[2 * m] * catalan[m] / 4 ** m for m in range((len(h) + 1) // 2))


# ---- pure quartic and sextic -------------------------------------------------


def quartic_critical(x):
    """Fold of z + 12 t4 z**2 = x: the Bessis-Itzykson-Zuber coupling -1/(48x)."""
    return -1.0 / (48 * x)


def sextic_critical(x):
    """Fold of z + 60 t6 z**3 = x, where the cubic's two positive roots merge."""
    return -1.0 / (405 * x * x)


def quartic_root(x, t4):
    """Branch root of z + 12 t4 z**2 = x through z = x at t4 = 0."""
    if t4 == 0:
        return float(x)
    return 2 * x / (1 + math.sqrt(1 + 48 * t4 * x))


def sextic_root(x, t6):
    """Branch root of z + 60 t6 z**3 = x through z = x at t6 = 0.

    f(z) = 60 t6 z**3 + z - x increases on [0, z*] where z* is the branch's
    right end (the fold point for t6 < 0, 2x otherwise) and changes sign
    there, so bisection brackets the root to rounding level.
    """
    if t6 == 0:
        return float(x)
    hi = 1 / math.sqrt(-180 * t6) if t6 < 0 else float(x)
    lo = 0.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if 60 * t6 * mid ** 3 + mid - x > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-16 * hi:
            break
    return (lo + hi) / 2


def quartic_e1(x, z):
    """e1 = -log(2 - z/x) / 12 for the pure quartic."""
    return -math.log(2 - z / x) / 12


def sextic_e1(x, z):
    """e1 = -log(3 - 2 z/x) / 12 for the pure sextic."""
    return -math.log(3 - 2 * z / x) / 12


# ---- map counting ------------------------------------------------------------


def biz_series(order):
    """[g^k] of -log(2 - zeta(g)) / 12 for k = 1..order, exact rationals.

    zeta = sum_n Catalan(n) (-12 g)**n solves zeta = 1 - 12 g zeta**2, the
    quartic endpoint equation at x = 1; -log(2 - zeta) = sum_m (zeta-1)**m / m.
    """
    eta = [Fraction(0)] + [Fraction(math.comb(2 * n, n) // (n + 1) * (-12) ** n)
                           for n in range(1, order + 1)]
    total = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    for m in range(1, order + 1):
        power = [sum(power[i] * eta[k - i] for i in range(k + 1)) for k in range(order + 1)]
        total = [a + b / m for a, b in zip(total, power)]
    return [v / 12 for v in total[1:]]


def odd_double_factorial(half_edges):
    """(H - 1)!!, the number of perfect matchings of H half-edges."""
    out = 1
    for n in range(half_edges - 1, 1, -2):
        out *= n
    return out


def harer_zagier(n):
    """{genus: count} of gluings of a 2n-gon, by the Harer-Zagier recursion
    (n+1) e_g(n) = 2(2n-1) e_g(n-1) + (n-1)(2n-1)(2n-3) e_{g-1}(n-2)."""
    e = {0: {0: 1}, 1: {0: 1}}
    for m in range(2, n + 1):
        row = {}
        for g in range(m // 2 + 1):
            v = 2 * (2 * m - 1) * e[m - 1].get(g, 0)
            if g:
                v += (m - 1) * (2 * m - 1) * (2 * m - 3) * e[m - 2].get(g - 1, 0)
            row[g] = v // (m + 1)
        e[m] = row
    return {g: c for g, c in e[n].items() if c}


def torus_coefficient(profile, genus_one_counts, x):
    """Exact series coefficient of prod t_j**k_j in e1 from genus-1 counts.

    Wick pairings of k_j labelled j-valent vertices carry (-1)**k_j / k_j!
    each, and a gluing with f faces carries x**f.
    """
    factor = Fraction(1)
    for k in profile.values():
        factor *= Fraction((-1) ** k, math.factorial(k))
    xq = Fraction(x)
    return factor * sum(cnt * xq ** f for f, cnt in genus_one_counts.items())


# ---- coefficient tables --------------------------------------------------------

PRINTED_C_PHI = [
    [1],
    [0, Fraction(2, 3)],
    [0, Fraction(-1, 30), Fraction(4, 15)],
    [0, Fraction(1, 140), Fraction(-2, 105), Fraction(8, 105)],
    [0, Fraction(-1, 630), Fraction(1, 252), Fraction(-2, 315), Fraction(16, 945)],
]
# The paper prints -1/140 at c_psi(4, 3); +1/140 is the value the defining
# identity admits, and is what the table must hold.
PRINTED_C_PSI = [
    [1],
    [Fraction(-1, 6), Fraction(2, 3)],
    [Fraction(1, 30), Fraction(-1, 10), Fraction(4, 15)],
    [Fraction(-1, 140), Fraction(2, 105), Fraction(-4, 105), Fraction(8, 105)],
    [Fraction(1, 630), Fraction(-1, 252), Fraction(1, 140), Fraction(-2, 189),
     Fraction(16, 945)],
]


def identity_holds(k, c_phi_row, c_psi_row, tval):
    """Exact value of sum_m c_phi phi~_m(T) + c_psi psi~_m(T) against
    (T - 2 + 1/T)**-(k+1) at a rational T, with
    phi~_m = m! sum_l C(m,l)**2 T**(2l-m) / (T - 1/T)**(2m) and
    psi~_m = m! sum_l C(m-1,l) C(m+1,l+1) T**(2l+1-m) / (T - 1/T)**(2m)."""
    total = Fraction(0)
    for m in range(1, k + 2):
        den = (tval - 1 / tval) ** (2 * m)
        phi = sum(math.comb(m, l) ** 2 * tval ** (2 * l - m) for l in range(m + 1))
        psi = sum(math.comb(m - 1, l) * math.comb(m + 1, l + 1) * tval ** (2 * l + 1 - m)
                  for l in range(m))
        total += math.factorial(m) * (c_phi_row[m - 1] * phi + c_psi_row[m - 1] * psi) / den
    return total == (tval - 2 + 1 / tval) ** (-(k + 1))


def diagonal(k):
    """2**k / (2k+1)!!, both diagonals of the tables."""
    return Fraction(2 ** k, odd_double_factorial(2 * k + 2))


# ---- negative controls ---------------------------------------------------------


def _rejects(check):
    try:
        check(Accuracy())
    except Wrong:
        return True
    return False


def _control_residual(acc):
    t = {4: 0.01}
    z = quartic_root(1.0, 0.01) + 1e-6
    for r in endpoint_residuals(0.0, z, 1.0, t):
        acc.close(r, 0.0, 1e-10, "residual with z off by 1e-6", scale=1.0)


def _control_branch_root(acc):
    acc.close(sextic_root(1.0, -0.002) + 1e-6, sextic_root(1.0, -0.002), 1e-10,
              "sextic root off by 1e-6")


def _control_mass(acc):
    u, z = reference_solve(1.0, {4: 0.01})
    h = classical_h(1.0, {4: 0.01}, u, z)
    h[-1] = -h[-1]
    acc.close(semicircle_mass(h, u, z, 1.0), 1.0, 1e-12, "mass with a sign-flipped h")


def _control_biz(acc):
    want = biz_series(3)
    acc.exact([want[0], -want[1], want[2]], want, "BIZ series with a flipped sign")


def _control_census_total(acc):
    acc.exact(odd_double_factorial(12) + 1, odd_double_factorial(12), "census total off by one")


def _control_harer_zagier(acc):
    counts = harer_zagier(4)
    counts[1] += 1
    acc.exact(counts, harer_zagier(4), "one-vertex counts off by one")


def _control_torus_coefficient(acc):
    acc.close(float(torus_coefficient({4: 2}, {2: 37}, 1.0)),
              torus_coefficient({4: 2}, {2: 36}, 1.0), 1e-12, "census count off by one")


def _control_table_sign(acc):
    psi = list(PRINTED_C_PSI[4])
    psi[2] = -psi[2]
    require(identity_holds(4, PRINTED_C_PHI[4], psi, Fraction(3)),
            "the misprinted c_psi(4,3) = -1/140 fails the defining identity")


NEGATIVE_CONTROLS = {
    "endpoint_residuals": _control_residual,
    "branch_root": _control_branch_root,
    "semicircle_mass": _control_mass,
    "biz_series": _control_biz,
    "matching_total": _control_census_total,
    "harer_zagier": _control_harer_zagier,
    "torus_coefficient": _control_torus_coefficient,
    "table_identity": _control_table_sign,
}


def unrejected_controls():
    """Names of the negative controls whose wrong answer was accepted."""
    return [name for name, check in NEGATIVE_CONTROLS.items() if not _rejects(check)]
