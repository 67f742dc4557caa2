"""Endpoint equations for the support of the one-cut equilibrium measure.

The support is [u - 2 sqrt(z), u + 2 sqrt(z)] where (u, z) solve a pair of
residue equations determined by the potential.  This module solves that
system numerically with a homotopy from the exactly solvable Gaussian point
(t = 0, where u = 0 and z = x), propagates Taylor jets of (u, z) in the face
weight x and the perturbation coefficients, and provides a positivity
certificate for the one-cut regime.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import Jet, _pair_table, _truncated_product, substitute_uniformizer
from .errors import DegeneratePotentialError, InvalidParameterError, NoOneCutSolutionError

__all__ = [
    "PotentialSpec",
    "EndpointSolution",
    "endpoint_residuals",
    "solve_endpoints",
    "uz_jets",
    "one_cut_certificate",
    "xvprime_coeffs",
]


@dataclass(frozen=True)
class PotentialSpec:
    """Potential V(y) = (y**2/2 + sum_j t[j] * y**j) / x.

    x is the positive face weight; t maps a valence j >= 1 to its coefficient.
    """

    x: float = 1.0
    t: dict = field(default_factory=dict)

    def __post_init__(self):
        _require_face_weight(self.x)
        clean = {}
        for j, v in self.t.items():
            _require_int("valence", j, 1)
            j = int(j)
            if not _is_finite(v):
                raise InvalidParameterError("coefficient t%d must be finite, got %r" % (j, v))
            clean[j] = v
        object.__setattr__(self, "t", clean)

    @property
    def degree(self):
        """Degree of x*V(y); at least 2."""
        return max(2, max(self.t, default=2))

    @property
    def is_even(self):
        return all(j % 2 == 0 or v == 0 for j, v in self.t.items())

    def v(self, lam):
        out = lam * lam / 2
        for j, tj in self.t.items():
            out = out + tj * lam**j
        return out / self.x

    def vprime(self, lam):
        out = lam
        for j, tj in self.t.items():
            out = out + j * tj * lam ** (j - 1)
        return out / self.x

    def scaled(self, factor):
        """Same x, all perturbation coefficients multiplied by factor."""
        return PotentialSpec(self.x, {j: v * factor for j, v in self.t.items()})


def _is_finite(v):
    # rationals are finite however large; float() of a huge Fraction overflows
    return isinstance(v, (int, Fraction)) or math.isfinite(v)


def xvprime_coeffs(pot):
    """Ascending coefficients of x*V'(y) = y + sum_j j*t_j*y**(j-1).

    Integer base entries keep the list exact when the t_j are Fractions.
    """
    c = _perturbation_coeffs(pot)
    c[1] = c[1] + 1
    return c


def _require_face_weight(x):
    """Refuse a face weight that is not finite and positive, naming it."""
    if not _is_finite(x):
        raise InvalidParameterError("face weight x must be finite, got %r" % (x,))
    if not x > 0:
        raise InvalidParameterError("face weight x must be positive, got %r" % (x,))


def _require_int(name, value, least):
    """Refuse a truncation order, valence or count that is not an int >= least,
    naming it."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
        raise InvalidParameterError("%s must be an int >= %d, got %r" % (name, least, value))


def _perturbation_coeffs(pot):
    """Ascending coefficients of sum_j j*t_j*y**(j-1), the part of x*V'(y)
    that the homotopy t -> s*t scales."""
    c = [0] * pot.degree
    for j, tj in pot.t.items():
        c[j - 1] = c[j - 1] + j * tj
    return c


def endpoint_residuals(u, z, pot, _coeffs=None, _xinv=None):
    """Residuals (r1, r2) of the two endpoint equations at (u, z).

    Both vanish iff (u, z) parameterize the support for ``pot``.  Generic over
    the scalar type of u and z: floats, Fractions and jets all work, which is
    how Jacobians and Taylor jets of the solution are produced.  A face weight
    other than ``pot.x`` comes as its reciprocal ``_xinv`` and multiplies:
    for a jet that is what Jet / Jet computes.
    """
    coeffs = xvprime_coeffs(pot) if _coeffs is None else _coeffs
    w = substitute_uniformizer(coeffs, u, z, _band=(-1, 0))
    if _xinv is not None:
        return w.coeff(0) * _xinv, w.coeff(-1) * _xinv - 1
    return w.coeff(0) / pot.x, w.coeff(-1) / pot.x - 1


@dataclass
class EndpointSolution:
    """Solved (u, z) with the derived support endpoints and optional jets.

    When jets are attached (see :func:`uz_jets`) variable 0 is the face
    weight x and the remaining variables are the perturbation coefficients in
    increasing valence order; ``jet_vars`` records the layout.
    """

    u: float
    z: float
    potential: PotentialSpec
    residual_norm: float
    u_jet: Jet | None = None
    z_jet: Jet | None = None
    jet_vars: tuple = ()

    @property
    def alpha_minus(self):
        return self.u - 2 * math.sqrt(self.z)

    @property
    def alpha_plus(self):
        return self.u + 2 * math.sqrt(self.z)

    def du(self, k=1):
        """k-th x-derivative of u at the base point."""
        return float(self._jet("u").partial((k,) + (0,) * (len(self.jet_vars) - 1)))

    def dz(self, k=1):
        """k-th x-derivative of z at the base point."""
        return float(self._jet("z").partial((k,) + (0,) * (len(self.jet_vars) - 1)))

    def _jet(self, which):
        jet = self.u_jet if which == "u" else self.z_jet
        if jet is None:
            raise ValueError("no jets attached; call uz_jets first")
        return jet

    def require_x_order(self, n):
        if self.u_jet is None or self.u_jet.orders[0] < n:
            raise ValueError("endpoint jets must carry x-order >= %d" % n)


class _UZTaylor(tuple):
    """Taylor polynomial in the (u, z) offsets of total order n = 1 or 2: the float
    entries u**i z**j (i + j <= n) in the row-major order of the (n+1, n+1) Jet box.
    Products run through Jet.__mul__'s kernel over that triangle, so every entry
    is rounded as in the Jet."""

    __slots__ = ()

    def __eq__(self, other):  # LaurentPoly drops a coefficient == 0: all entries zero
        return isinstance(other, (int, float, Fraction)) and self[0] == other and not any(self[1:])

    def __add__(self, other):
        if isinstance(other, _UZTaylor):
            return _UZTaylor(map(operator.add, self, other))
        return _UZTaylor((self[0] + other,) + self[1:])

    __radd__ = __add__

    def __neg__(self):
        return _UZTaylor(map(operator.neg, self))

    def __sub__(self, other):
        return self + (-other if isinstance(other, _UZTaylor) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, _UZTaylor):
            return _UZTaylor(map(float(other).__rmul__, self))  # a * float(other)
        return _UZTaylor(_truncated_product(self, other, _UZ_TABLES[len(other)], 0.0))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _UZTaylor(map(float(other).__rtruediv__, self))  # a / float(other)


# pair tables of the triangles i + j <= n, keyed by the entry count: entries
# (1, z, u) at order 1, (1, z, z2, u, uz, u2) at order 2
_UZ_TABLES = {(n + 1) * (n + 2) // 2: _pair_table(
    tuple(e for e in np.ndindex(n + 1, n + 1) if sum(e) <= n)) for n in (1, 2)}


def _uz_residuals(u, z, n, pot, **kwargs):
    """Value, d/du, d/dz and, at n = 2, d2/du2, d2/dudz, d2/dz2 of both endpoint
    residuals at (u, z), bit-identical to order-(n, n) jets."""
    k = (n + 1) * (n + 2) // 2
    U = _UZTaylor((float(u),) + (0.0,) * n + (1.0,) + (0.0,) * (k - n - 2))
    Z = _UZTaylor((float(z), 1.0) + (0.0,) * (k - 2))
    cs = [r if isinstance(r, _UZTaylor) else (float(r),) + (0.0,) * (k - 1)  # no offset reached r
          for r in endpoint_residuals(U, Z, pot, **kwargs)]
    return [[c[0], c[n + 1], c[1]] + ([2 * c[5], c[4], 2 * c[2]] if n == 2 else []) for c in cs]


def _residual_and_jacobian(u, z, pot):
    """Residual vector and (u, z)-Jacobian at a numeric point."""
    (a, a_u, a_z), (b, b_u, b_z) = _uz_residuals(u, z, 1, pot)
    return np.array([a, b]), np.array([[a_u, a_z], [b_u, b_z]])


def _newton_step(r, jac):
    """Newton correction jac^-1 r by Cramer's rule, or None if jac is singular."""
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    if not np.isfinite(det) or abs(det) < 1e-300:
        return None
    return ((r[0] * jac[1, 1] - r[1] * jac[0, 1]) / det,
            (r[1] * jac[0, 0] - r[0] * jac[1, 0]) / det)


# float64 rounding, not the caller, limits convergence: a looser tolerance
# moves z by a few ulps, one at the rounding floor fails valid potentials
_NEWTON_TOL = 1e-12
_MAX_CONTINUATION_STEPS = 64


def _residual_norm(u, z, pot):
    return float(np.max(np.abs(endpoint_residuals(u, z, pot))))


def _newton(pot, u, z):
    initial = None
    for it in range(30):
        r, jac = _residual_and_jacobian(u, z, pot)
        rn = float(np.max(np.abs(r)))
        if initial is None:
            initial = rn
        if rn < _NEWTON_TOL:
            # one polishing step: quadratic convergence puts the parameter
            # error at rounding level rather than at the residual tolerance
            step = _newton_step(r, jac)
            if step is not None:
                u2, z2 = u - step[0], z - step[1]
                if np.isfinite(u2) and np.isfinite(z2) and z2 > 0:
                    rn2 = _residual_norm(u2, z2, pot)
                    if rn2 <= rn:
                        return u2, z2, rn2, True
            return u, z, rn, True
        # quadratic convergence means a basin point is done in a handful of
        # iterations; anything still above its starting residual is diverging
        if rn > 1e6 or (it > 10 and rn > initial):
            return u, z, np.inf, False
        step = _newton_step(r, jac)
        if step is None:
            return u, z, np.inf, False
        u, z = u - step[0], z - step[1]
        if not (np.isfinite(u) and np.isfinite(z)) or z <= 0:
            return u, z, np.inf, False
    rn = _residual_norm(u, z, pot)
    return u, z, rn, rn < _NEWTON_TOL


def _locate_fold(pot, u, z, s0):
    """Homotopy parameter s* of a fold near the point (u, z) of the branch at s0.

    Newton on the extended system {r1 = 0, r2 = 0, det J = 0} in (u, z, s),
    the turning-point system of Allgower & Georg (Numerical Continuation
    Methods, 1990), started at the last accepted point.  The homotopy scales
    the perturbation only, so with P the residuals of that part alone
    r = (u/x, z/x - 1) + s*P and J = I/x + s*dP are affine in s; one order-2
    Taylor evaluation of P gives the extended system and its Jacobian
    exactly.  An even potential keeps u = 0 and folds in z alone.
    Returns None unless Newton converges with z* > 0.
    """
    x = float(pot.x)
    g = 1.0 / x
    coeffs = _perturbation_coeffs(pot)
    even = pot.is_even
    s = s0
    for _ in range(12):
        # value, d/du, d/dz, d2/du2, d2/dudz, d2/dz2 of each residual of P;
        # endpoint_residuals subtracts the Gaussian constant 1 from r2
        d1, d2 = _uz_residuals(u, z, 2, pot, _coeffs=coeffs)
        d2[0] += 1
        # J = [[a, b], [c, e]], with the (u, z, s)-gradient of each entry
        a, grad_a = g + s * d1[1], (s * d1[3], s * d1[4], d1[1])
        b, grad_b = s * d1[2], (s * d1[4], s * d1[5], d1[2])
        c, grad_c = s * d2[1], (s * d2[3], s * d2[4], d2[1])
        e, grad_e = g + s * d2[2], (s * d2[4], s * d2[5], d2[2])
        if even:
            # u = 0 is invariant, J = diag(a, e) there and a = e, so det J
            # has a double root at the fold; solve the reduced system
            # {r2 = 0, e = 0} in (z, s) instead, where the root is simple
            f3, grad3 = x * e, [x * ge for ge in grad_e]
        else:
            # det J scaled by x**2, which makes it 1 at the Gaussian point
            f3 = x * x * (a * e - b * c)
            grad3 = [x * x * (ga * e + a * ge - gb * c - b * gc)
                     for ga, gb, gc, ge in zip(grad_a, grad_b, grad_c, grad_e)]
        f = np.array([g * u + s * d1[0], g * z - 1 + s * d2[0], f3])
        jac = np.array([[a, b, d1[0]], [c, e, d2[0]], grad3])
        du = 0.0
        try:
            if even:
                dz, ds = np.linalg.solve(jac[1:, 1:], f[1:])
            else:
                du, dz, ds = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError:
            return None
        u, z, s = u - du, z - dz, s - ds
        if not (np.isfinite(u) and np.isfinite(z) and np.isfinite(s)):
            return None
        if max(abs(du), abs(dz)) <= 1e-12 * max(1.0, abs(u), z) and abs(ds) <= 1e-12 * max(1.0, s):
            break
    else:
        return None
    return float(s) if z > 0 else None


def solve_endpoints(pot):
    """Solve the endpoint equations for (u, z) on the one-cut branch.

    Bivariate Newton started at the Gaussian point (0, x), continued along the
    linear homotopy t -> s*t with adaptive subdivision on Newton failure.
    Newton accepts max |r| < 1e-12 and then polishes once; ``residual_norm``
    is max |r| at the returned point.  The branch through the Gaussian point
    is the one-cut branch; z > 0 is enforced throughout.  After a failed
    Newton step the fold of the branch is sought between the last accepted s
    and the target; when one is found the solve stops with a
    :class:`NoOneCutSolutionError` carrying ``s_star`` and ``t_star``.
    """
    u, z = 0.0, float(pot.x)
    # the Gaussian residuals are (u/x, z/x - 1), so det J = 1/x**2 there
    if z * z > 1e14:
        raise DegeneratePotentialError(
            "endpoint Jacobian singular at the Gaussian point: det J = 1/x**2 < 1e-14 "
            "for x = %r" % (pot.x,))
    if all(v == 0 for v in pot.t.values()) or not pot.t:
        return EndpointSolution(u, z, pot, 0.0)
    t2 = pot.t.get(2, 0)
    if pot.degree == 2 and 1 + 2 * t2 <= 0:
        raise NoOneCutSolutionError(
            "quadratic potential does not confine for t2=%r: the homotopy's y**2 "
            "term (1/2 + s*t2) vanishes at s=-1/(2 t2)=%r; no one-cut solution reached"
            % (t2, -1 / (2 * t2)))

    s = 0.0
    step = 1.0
    steps = 0
    res = 0.0
    fold_from = None  # s of the last fold search; its result is s_star
    while s < 1.0:
        if steps >= _MAX_CONTINUATION_STEPS:
            raise NoOneCutSolutionError(
                "homotopy continuation exhausted %d steps at s=%.6g; "
                "no one-cut solution reached" % (_MAX_CONTINUATION_STEPS, s))
        target = min(1.0, s + step)
        u2, z2, res2, ok = _newton(pot.scaled(target), u, z)
        steps += 1
        if ok:
            u, z, res, s = u2, z2, res2, target
            step = min(2 * step, 1.0 - s if s < 1.0 else 1.0)
        else:
            # the search depends on the start point alone, so it reruns only
            # after an accepted step has moved it
            if fold_from != s:
                fold_from, s_star = s, _locate_fold(pot, u, z, s)
            if s_star is not None and s < s_star <= target:
                t_star = pot.scaled(s_star).t
                raise NoOneCutSolutionError(
                    "the one-cut branch folds at s*=%r, t*=%r; "
                    "no one-cut solution reached" % (s_star, t_star),
                    s_star=s_star, t_star=t_star)
            step /= 2
            if step < 1e-7:
                raise NoOneCutSolutionError(
                    "continuation step underflow at s=%r; "
                    "no one-cut solution reached" % (s,))
    return EndpointSolution(float(u), float(z), pot, res)


def uz_jets(pot, x_order, t_order=0):
    """Endpoint solution carrying Taylor jets of (u, z).

    Jets are expansions in offsets about (x, t): variable 0 is x, and when
    t_order > 0 one variable per valence in ``pot.t`` follows, in increasing
    valence order.  The jets are built order by order: each pass through the
    residual kills the lowest remaining order using the exact base-point
    Jacobian, so sum(orders) + 1 passes suffice.
    """
    _require_int("x_order", x_order, 1)
    _require_int("t_order", t_order, 0)
    base = solve_endpoints(pot)
    tkeys = sorted(pot.t) if t_order > 0 else []
    orders = (x_order,) + (t_order,) * len(tkeys)
    names = ("x",) + tuple("t%d" % j for j in tkeys)

    xinv = Jet.variable(float(pot.x), 0, orders).reciprocal()
    coeffs = [0] * pot.degree
    coeffs[1] = 1
    for j, tj in pot.t.items():
        if j in tkeys:
            tj = Jet.variable(float(tj), 1 + tkeys.index(j), orders)
        coeffs[j - 1] = coeffs[j - 1] + j * tj

    _, jac = _residual_and_jacobian(base.u, base.z, pot)
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    if not np.isfinite(det) or abs(det) < 1e-14:
        raise DegeneratePotentialError("endpoint Jacobian singular at the base point")
    inv = np.array([[jac[1, 1], -jac[0, 1]], [-jac[1, 0], jac[0, 0]]]) / det

    U = Jet.constant(base.u, orders)
    Z = Jet.constant(base.z, orders)
    for _ in range(sum(orders) + 1):
        r1, r2 = endpoint_residuals(U, Z, pot, _coeffs=coeffs, _xinv=xinv)
        U = U - (inv[0, 0] * r1 + inv[0, 1] * r2)
        Z = Z - (inv[1, 0] * r1 + inv[1, 1] * r2)

    r1, r2 = endpoint_residuals(U, Z, pot, _coeffs=coeffs, _xinv=xinv)
    worst = max(np.max(np.abs(r1.coeffs.astype(float))),
                np.max(np.abs(r2.coeffs.astype(float))))
    if worst > 1e-7:
        raise DegeneratePotentialError(
            "jet propagation failed to converge (residual %.3g)" % worst)
    return dataclasses.replace(base, u_jet=U, z_jet=Z, jet_vars=names)


def one_cut_certificate(h, alpha_minus, alpha_plus):
    """True iff h stays strictly positive across the support interval.

    Checks positivity on a dense grid, then confirms the absence of real
    roots of h (and of sign dips between grid points, via the real critical
    points of h) inside [alpha_minus, alpha_plus].
    """
    lam = np.linspace(alpha_minus, alpha_plus, 512)
    vals = h.value(lam)
    if np.min(vals) <= 0:
        return False
    desc = np.asarray(h.monomial, dtype=float)[::-1]
    if len(desc) > 1:
        roots = np.roots(desc)
        real = roots[np.abs(roots.imag) < 1e-9].real
        if np.any((real >= alpha_minus) & (real <= alpha_plus)):
            return False
    if len(desc) > 2:
        crit = np.roots(np.polyder(desc))
        crit = crit[np.abs(crit.imag) < 1e-9].real
        inside = crit[(crit >= alpha_minus) & (crit <= alpha_plus)]
        if inside.size and np.min(h.value(inside)) <= 0:
            return False
    return True
