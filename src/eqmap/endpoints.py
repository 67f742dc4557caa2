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
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import algebra
from .algebra import Jet, _box, _jet, _layout, substitute_uniformizer
from .errors import (
    DegeneratePotentialError,
    InvalidParameterError,
    NoOneCutSolutionError,
    _require_int,
)

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
        object.__setattr__(self, "x", _require_face_weight(self.x))
        clean = {}
        for j, v in self.t.items():
            _require_int("valence", j, 1)
            clean[int(j)] = _real("coefficient t%d" % j, v)
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


def _real(name, v):
    """v as a finite Python int, float or Fraction, or refused naming it; a numpy
    scalar converts exactly, or stays numpy (a long double) and is refused;
    none exists unless numpy is loaded."""
    np = sys.modules.get("numpy")
    v = v.item() if np and isinstance(v, np.generic) else v
    if isinstance(v, bool) or not isinstance(v, (int, float, Fraction)):
        raise InvalidParameterError("%s must be an int, float or Fraction, got %r" % (name, v))
    if isinstance(v, float) and not math.isfinite(v):  # rationals are finite however large
        raise InvalidParameterError("%s must be finite, got %r" % (name, v))
    return v


def xvprime_coeffs(pot, _t=None):
    """Ascending coefficients of x*V'(y) = y + sum_j j*t_j*y**(j-1).

    Integer base entries keep the list exact when the t_j are Fractions.
    ``_t`` maps valences of ``pot`` to jets that stand in for their t_j.
    """
    c = _perturbation_coeffs(pot, _t)
    c[1] = c[1] + 1
    return c


def _require_face_weight(x):
    """x as a finite positive Python number; anything else is refused, naming it."""
    x = _real("face weight x", x)
    if not x > 0:
        raise InvalidParameterError("face weight x must be positive, got %r" % (x,))
    return x


def _perturbation_coeffs(pot, t=None):
    """Ascending coefficients of sum_j j*t_j*y**(j-1), the part of x*V'(y)
    that the homotopy t -> s*t scales; ``t`` maps valences to stand-ins for their t_j."""
    c = [0] * pot.degree
    for j, tj in {**pot.t, **(t or {})}.items():
        c[j - 1] = c[j - 1] + j * tj
    return c


def endpoint_residuals(u, z, pot):
    """Residuals (r1, r2) of the two endpoint equations at (u, z).

    Both vanish iff (u, z) parameterize the support for ``pot``.  Generic over
    the scalar type of u and z: floats, Fractions and jets all work.  The
    jet lift runs _band below, which gives its bits; Newton and the fold
    search run the band kernel traced from _band, which gives its values.
    """
    w = substitute_uniformizer(xvprime_coeffs(pot), u, z)
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
            raise InvalidParameterError("no jets attached; call uz_jets first")
        return jet

    def require_x_order(self, n):
        if self.u_jet is None or self.u_jet.orders[0] < n:
            raise InvalidParameterError("endpoint jets must carry x-order >= %d" % n)


# the (u, z) jet layout of Newton and the fold search, the triangle i + j <= 1
# of entries (1, z, u); the kernel below runs on its entry lists
_UZ_LAYOUT = _layout(((0, 0), (0, 1), (1, 0)))


def _band(coeffs, U, Z, lay, zero, num):
    """[T^0] and [T^-1] of sum_i coeffs[i] y**i at y = T + U + Z/T: Horner's
    rule of substitute_uniformizer over flat entry lists, cut to what can reach
    them, with the jet route's every rounding, zero skip and zero drop.  A
    coefficient, in and out, is None (zero), a number or an entry list over
    ``lay``; an all-zero U or Z is None.  A list times U or Z is the layout's
    truncated product, summed from ``zero``; a number v times U or Z is
    entry * num(v), and a number is added to the value entry alone.  The
    final sum of entry lists is kept even where it is all zero, so an output
    list may be all zero: both callers read it as they read None."""
    product = algebra._PRODUCTS[lay]
    top, a = 0, [None]
    for i in range(len(coeffs) - 1, -1, -1):
        # add coeffs[i]; a sum that comes to zero is dropped, as LaurentPoly
        # drops it, but for the final sum of lists
        v, c = a[top], coeffs[i]
        if type(v) is list or type(c) is list:
            if type(v) is not list:  # a number plus a jet: the jet's value entry plus it
                v, c = c, 0 if v is None else v
            v = list(map(operator.add, v, c)) if type(c) is list else [v[0] + num(c)] + v[1:]
            a[top] = v if not i or any(v) else None
        else:
            v = (0 if v is None else v) + c
            a[top] = None if v == 0 else v
        if not i:
            return (a + [None])[:2]
        # multiply by y over the exponents that the i - 1 products left can
        # still carry into T**0 and T**-1
        new_top = min(top + 1, i - 1)
        q = [None, None] + a + [None, None]  # q[top - e + 2] is T**e
        b = []
        for j in range(top - new_top + 2, top - max(top - len(a), -i) + 3):
            v = None if Z is None else q[j - 1]
            s = None if v is None else product(v, Z, zero) if type(v) is list else [e * num(v) for e in Z]
            v = None if U is None else q[j]
            if type(v) is list:
                s = product(v, U, zero, s)
            elif v is not None:
                p = [e * num(v) for e in U]
                s = p if s is None else list(map(operator.add, s, p))
            v = q[j + 1]
            if v is not None and s is not None:
                s = list(map(operator.add, s, v)) if type(v) is list else [s[0] + num(v)] + s[1:]
            b.append(v if s is None else s)
        top, a = new_top, b


def _uz_entries(u, z):
    """The triangle jets U = u + du and Z = z + dz, entry lists over _UZ_LAYOUT."""
    return [u, 0.0, 1.0], [z, 1.0, 0.0]


class _Traced:
    """An entry of a band kernel being traced, named by the local that holds
    it: each sum or product appends the line that computes it to ``lines``.
    As any object, it compares unequal to 0 and is true, so every zero test
    of _band and of the truncated product takes it for nonzero, and the
    kernel forms every term that _band can."""

    def __init__(self, lines, name):
        self.lines, self.name = lines, name

    def _op(self, a, sym, b):
        new = _Traced(self.lines, "v%d" % len(self.lines))
        self.lines.append("    %s = %s %s %s" % (new.name, _ref(a), sym, _ref(b)))
        return new

    def __add__(self, other):
        return self._op(self, "+", other)

    def __radd__(self, other):
        return self._op(other, "+", self)

    def __mul__(self, other):
        return self._op(self, "*", other)

    def __rmul__(self, other):
        return self._op(other, "*", self)


def _ref(v):
    """The kernel's text for v: the local of a traced entry, a constant's repr."""
    return v.name if type(v) is _Traced else repr(v)


class _Kernels(dict):
    """The band kernel of Newton and the fold search per number of
    coefficients, made on its first use by tracing _band over the triangle
    jets: kernel(u, z, *coeffs) of floats returns the entry lists of [T^0]
    and [T^-1].  It forms in _band's order every term that _band forms, and
    also those _band skips or drops as zero; with finite inputs these are
    signed zeros, so each entry equals _band's up to a zero's sign."""

    def __missing__(self, m):
        lines, names = [], ["u", "z"] + ["c%d" % i for i in range(m)]
        u, z, *coeffs = (_Traced(lines, v) for v in names)
        out = _band(coeffs, *_uz_entries(u, z), _UZ_LAYOUT, 0.0, lambda v: v)
        out = ", ".join("[%s]" % ", ".join(map(_ref, v)) for v in out)
        code = "\n".join(["def kernel(%s):" % ", ".join(names), *lines, "    return [%s]" % out])
        namespace = {}
        exec(compile(code, "<band kernel>", "exec"), namespace)
        kernel = self[m] = namespace["kernel"]
        return kernel


_KERNELS = _Kernels()


def _uz_residuals(u, z, x, coeffs, dcoeffs):
    """Value, d/du, d/dz, d2/du2, d2/dudz, d2/dz2 of [T**0] and [T**-1] of P(y) =
    sum_i coeffs[i] y**i at y = T + u + z/T, over x, from the band kernel on P
    and on P' = dcoeffs, a list as long: d/du [T**k] P = [T**k] P', d/dz [T**k] P
    = [T**(k+1)] P', and [T**1] P' = [T**-1] P' / z since y is unchanged under
    T -> z/T."""
    kernel = _KERNELS[len(coeffs)]
    (a, a_z, a_u), (b, b_z, b_u) = kernel(u, z, *coeffs)
    (p, p_z, p_u), (q, q_z, q_u) = kernel(u, z, *dcoeffs)
    return ([a / x, a_u / x, a_z / x, p_u / x, p_z / x, (q_z - q / z) / z / x],
            [b / x, b_u / x, b_z / x, q_u / x, q_z / x, p_z / x])


def _residual_and_jacobian(u, z, x, coeffs):
    """Residuals (r1, r2) and Jacobian ((r1_u, r1_z), (r2_u, r2_z)) at (u, z): one
    order-1 band kernel call on floats, each entry over x, as box jets up to a zero's sign."""
    (a, a_z, a_u), (b, b_z, b_u) = _KERNELS[len(coeffs)](u, z, *coeffs)
    return (a / x, b / x - 1), ((a_u / x, a_z / x), (b_u / x, b_z / x))


def _root_jacobian(u, z, pot):
    """The residual Jacobian at a solved (u, z) and its determinant; a
    singular one is refused."""
    _, jac = _residual_and_jacobian(u, z, float(pot.x), list(map(float, xvprime_coeffs(pot))))
    (a, b), (c, d) = jac
    det = a * d - b * c
    if not math.isfinite(det) or abs(det) < 1e-14:
        raise DegeneratePotentialError("endpoint Jacobian singular at the base point")
    return jac, det


def _newton_step(r, jac):
    """Newton correction jac^-1 r by Cramer's rule, or None if jac is singular."""
    (a, b), (c, d) = jac
    det = a * d - b * c
    if not math.isfinite(det) or abs(det) < 1e-300:
        return None
    return (r[0] * d - r[1] * b) / det, (r[1] * a - r[0] * c) / det


def _cramer(rows, f):
    """x with rows @ x = f, 3x3, by Cramer's rule; None if det is zero or not finite."""
    (a, b, c), (d, e, g), (h, i, k) = rows
    adj = ((e * k - g * i, c * i - b * k, b * g - c * e),
           (g * h - d * k, a * k - c * h, c * d - a * g),
           (d * i - e * h, b * h - a * i, a * e - b * d))
    det = a * adj[0][0] + b * adj[1][0] + c * adj[2][0]
    if not math.isfinite(det) or det == 0:
        return None
    return tuple((p * f[0] + q * f[1] + r * f[2]) / det for p, q, r in adj)


def _max_abs(r):
    """max(|r1|, |r2|), NaN if either is: Python's max drops a NaN that comes second."""
    a, b = abs(r[0]), abs(r[1])
    return a if a >= b or a != a else b


# float64 rounding, not the caller, limits convergence: a looser tolerance
# moves z by a few ulps, one at the rounding floor fails valid potentials
_NEWTON_TOL = 1e-12
_MAX_CONTINUATION_STEPS = 64


def _newton(x, coeffs, u, z):
    """(u, z, max |r|, converged) of Newton from the floats (u, z) for face weight x
    and x V'(y) coefficients ``coeffs``, made floats once (0 + c is exact for an int
    or Fraction c): each iterate is one band kernel call, and no potential is built."""
    x, coeffs = float(x), list(map(float, coeffs))
    prev = math.inf
    for it in range(30):
        r, jac = _residual_and_jacobian(u, z, x, coeffs)
        rn = _max_abs(r)
        if rn < _NEWTON_TOL:
            # one polishing step: quadratic convergence puts the parameter
            # error at rounding level rather than at the residual tolerance
            step = _newton_step(r, jac)
            if step is not None:
                u2, z2 = u - step[0], z - step[1]
                if math.isfinite(u2) and math.isfinite(z2) and z2 > 0:
                    rn2 = _max_abs(_residual_and_jacobian(u2, z2, x, coeffs)[0])
                    if rn2 <= rn:
                        return u2, z2, rn2, True
            return u, z, rn, True
        # natural monotonicity test (Deuflhard 2004): from the third iterate on a
        # step must halve max |r| (NaN fails), or Newton may wander off the branch
        if rn > 1e6 or (it >= 2 and not rn <= prev / 2):
            return u, z, math.inf, False
        prev = rn
        step = _newton_step(r, jac)
        if step is None:
            return u, z, math.inf, False
        u, z = u - step[0], z - step[1]
        if not (math.isfinite(u) and math.isfinite(z)) or z <= 0:
            return u, z, math.inf, False
    rn = _max_abs(_residual_and_jacobian(u, z, x, coeffs)[0])
    return u, z, rn, rn < _NEWTON_TOL


def _locate_fold(pot, u, z, s0):
    """Homotopy parameter s* of a fold near the point (u, z) of the branch at s0.

    Newton on the extended system {r1 = 0, r2 = 0, det J = 0} in (u, z, s),
    the turning-point system of Allgower & Georg (Numerical Continuation
    Methods, 1990), started at the last accepted point.  The homotopy scales
    the perturbation only, so with P the residuals of that part alone
    r = (u/x, z/x - 1) + s*P and J = I/x + s*dP are affine in s; the values
    and first and second partials of P's residues give the extended system
    and its Jacobian exactly.  An even potential keeps u = 0 and folds in z
    alone.  Returns None unless Newton converges with z* > 0.
    """
    x = float(pot.x)
    g = 1.0 / x
    coeffs = list(map(float, _perturbation_coeffs(pot)))
    # P' = sum_i i c_i y**(i-1), padded with a zero to P's length: one kernel serves both
    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:] + [0.0]
    even = pot.is_even
    s = s0
    for _ in range(12):
        # value, d/du, d/dz, d2/du2, d2/dudz, d2/dz2 of each residual of P
        d1, d2 = _uz_residuals(u, z, x, coeffs, dcoeffs)
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
        f = (0.0 if even else g * u + s * d1[0], g * z - 1 + s * d2[0], f3)
        # u = 0 fixed by a unit row in the even case; Python floats throughout
        step = _cramer(((1.0, 0.0, 0.0) if even else (a, b, d1[0]), (c, e, d2[0]), grad3), f)
        if step is None:
            return None
        du, dz, ds = step
        u, z, s = u - du, z - dz, s - ds
        if not (math.isfinite(u) and math.isfinite(z) and math.isfinite(s)) or z == 0:
            return None
        if max(abs(du), abs(dz)) <= 1e-12 * max(1.0, abs(u), z) and abs(ds) <= 1e-12 * max(1.0, s):
            break
    else:
        return None
    return s if z > 0 else None


def solve_endpoints(pot):
    """Solve the endpoint equations for (u, z) on the one-cut branch.

    Bivariate Newton started at the Gaussian point (0, x), continued along the
    linear homotopy t -> s*t with adaptive subdivision on Newton failure.  A
    step to s builds no potential: its coefficients of x V'(y) round as
    xvprime_coeffs(pot.scaled(s)) does, and each Newton iterate is one band
    kernel call on them.  Newton accepts max |r| < 1e-12 and then polishes
    once; ``residual_norm`` is max |r| at the returned point.  The branch
    through the Gaussian point is the one-cut branch; z > 0 is enforced
    throughout, and from its third iterate on Newton fails once a step does
    not halve max |r|, so it cannot wander onto a root off the branch.  After
    a failed Newton step the fold of the branch is sought between the last
    accepted s and the target; when one is found the solve stops with a
    :class:`NoOneCutSolutionError` carrying ``s_star`` and ``t_star``.
    """
    u, z = 0.0, float(pot.x)
    # the Gaussian residuals are (u/x, z/x - 1), so det J = 1/x**2 there
    if z * z > 1e14:
        raise DegeneratePotentialError(
            "endpoint Jacobian singular at the Gaussian point: det J = 1/x**2 < 1e-14 "
            "for x = %r" % (pot.x,))
    if all(v == 0 for v in pot.t.values()):
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
        coeffs = xvprime_coeffs(pot, {j: t_j * target for j, t_j in pot.t.items()})
        u2, z2, res2, ok = _newton(pot.x, coeffs, u, z)
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

    xinv = Jet.variable(float(pot.x), 0, orders).reciprocal().c
    coeffs = xvprime_coeffs(pot, {j: Jet.variable(float(pot.t[j]), 1 + i, orders)
                                  for i, j in enumerate(tkeys)})

    ((a, b), (c, d)), det = _root_jacobian(base.u, base.z, pot)
    inv = [[d / det, -b / det], [-c / det, a / det]]

    U, Z = _lift(base.u, base.z, orders, coeffs, xinv, inv, sum(orders) + 1)
    r1, r2 = _jet_residuals(U.c, Z.c, U.lay, coeffs, xinv)
    worst = 0.0
    for v in map(abs, r1 + r2):
        if v > worst or v != v:  # NaN if any entry is, and NaN fails the gate
            worst = v
    if not worst <= 1e-7:
        raise DegeneratePotentialError(
            "jet propagation failed to converge (residual %.3g)" % worst)
    return dataclasses.replace(base, u_jet=U, z_jet=Z, jet_vars=names)


def _jet_residuals(U, Z, lay, coeffs, xinv):
    """Entry lists of both endpoint residuals at the jets of entries U and Z
    over ``lay``, bit-identical to endpoint_residuals over jets: the band
    kernel with the layout's product, then the product by ``xinv``, the
    entries of the reciprocal face weight (None for a unit one), and 1 off r2.
    ``coeffs`` are those of x V'(y), numbers or jets over ``lay``."""
    zero, num = (0.0, float) if type(U[0]) is float else (0, operator.pos)
    product = algebra._PRODUCTS[lay]
    out = []
    for m, v in enumerate(_band([c.c if isinstance(c, Jet) else c for c in coeffs],
                                U if any(U) else None, Z if any(Z) else None, lay, zero, num)):
        if type(v) is list and any(v):
            v = v if xinv is None else product(v, xinv, zero)
        else:  # zero, as LaurentPoly drops it, or a number
            v = 0 if v is None or type(v) is list else v
            v = [v] + [zero] * (len(U) - 1) if xinv is None else [e * num(v) for e in xinv]
        out.append([v[0] - m] + v[1:])  # T**0, then T**-1 - 1
    return out


def _lift(u, z, orders, coeffs, xinv, inv, passes):
    """Jets of the given orders of the endpoint solution (u, z), lifted over
    flat entry lists through _jet_residuals: each pass subtracts ``inv``, the
    inverse Jacobian at the base point, times the residuals, and so kills the
    lowest order left."""
    lay, f64 = _box(orders), isinstance(u, float)
    U, Z = ([v] + [0.0 if f64 else 0] * (len(lay.exps) - 1) for v in (u, z))
    (a, b), (c, d) = inv
    for _ in range(passes):
        r1, r2 = _jet_residuals(U, Z, lay, coeffs, xinv)
        U = [v - (a * p + b * q) for v, p, q in zip(U, r1, r2)]
        Z = [v - (c * p + d * q) for v, p, q in zip(Z, r1, r2)]
    return _jet(U, lay, f64), _jet(Z, lay, f64)


def one_cut_certificate(h, alpha_minus, alpha_plus):
    """True iff h stays strictly positive across the support interval.

    Checks positivity on a dense grid, then confirms the absence of real
    roots of h (and of sign dips between grid points, via the real critical
    points of h) inside [alpha_minus, alpha_plus].  A NaN value of h is not
    positive, and a non-finite endpoint, or ends not in increasing order, is
    refused by name.
    """
    import numpy as np
    alpha_minus, alpha_plus = _real("alpha_minus", alpha_minus), _real("alpha_plus", alpha_plus)
    if not alpha_minus < alpha_plus:
        raise InvalidParameterError("alpha_minus must be below alpha_plus, got alpha_minus=%r, "
                                    "alpha_plus=%r" % (alpha_minus, alpha_plus))
    lam = np.linspace(alpha_minus, alpha_plus, 512)
    vals = h.value(lam)
    if not np.min(vals) > 0:
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
        if inside.size and not np.min(h.value(inside)) > 0:
            return False
    return True
