"""The torus map generating function e1 computed from endpoint data alone,
its power series in the perturbation coefficients, the single-valence
special case, and the residual suite for the string/Toda/scaling relations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Jet, _jet
from .endpoints import (
    PotentialSpec,
    _lift,
    _newton_step,
    _root_jacobian,
    solve_endpoints,
    uz_jets,
    xvprime_coeffs,
)
from .errors import InvalidParameterError, OutsideOneCutError, _require_int

__all__ = [
    "E1Result",
    "SeriesInT",
    "e1_value",
    "e1_monomial",
    "e1_series",
    "verify_relations",
]


@dataclass
class E1Result:
    """Value of e1 plus the endpoint data it was computed from."""

    value: float
    log_argument: float
    u: float
    z: float
    ux: float
    zx: float
    x: float


def e1_value(pot):
    """e1 = (1/24) log(x**2 (zx**2 - z ux**2) / z**2).

    The endpoint residuals are W(u, z) / x - (0, 1) with W free of x, so at
    the root their Jacobian J gives (ux, zx) = J**-1 (0, 1/x), with no jet
    lift.  The x**2 factor normalizes e1(x, t=0) to zero for every face
    weight (at x = 1 it is inert); a nonpositive log argument means the
    potential left the one-cut regime.
    """
    ep = solve_endpoints(pot)
    ux, zx = _newton_step((0.0, 1 / pot.x), _root_jacobian(ep.u, ep.z, pot)[0])
    arg = pot.x ** 2 * (zx * zx - ep.z * ux * ux) / ep.z ** 2
    if not arg > 0:
        raise OutsideOneCutError("log argument %.6g is not positive" % arg)
    return E1Result(math.log(arg) / 24, arg, ep.u, ep.z, ux, zx, float(pot.x))


def e1_monomial(j, t):
    """e1 for the single-valence potential y**2/2 + t y**j at x = 1.

    Closed form in (u, z) only, obtained by eliminating the derivatives with
    the scaling and string relations.
    """
    pot = PotentialSpec(1.0, {j: t})
    ep = solve_endpoints(pot)
    u, z = ep.u, ep.z
    num = 4 - u * u / z
    den = (j - (j - 2) * z) ** 2 - (j - 2) ** 2 * u * u * z
    if not num > 0 or not den > 0:
        raise OutsideOneCutError("monomial e1 argument is not positive")
    return math.log(num / den) / 24


@dataclass
class SeriesInT:
    """Truncated expansion of e1 in the perturbation coefficients.

    ``coeffs`` maps a tuple of powers (aligned with ``valences``) to the
    series coefficient; the constant term is zero because a map needs at
    least one vertex.
    """

    valences: tuple
    order: int
    x: float
    coeffs: dict

    def coeff(self, profile):
        """Series coefficient for a {valence: power} profile."""
        key = tuple(profile.get(j, 0) for j in self.valences)
        return self.coeffs.get(key, 0.0)


def e1_series(pot, order):
    """Expand e1 to the given order in every valence direction of ``pot``.

    Built exactly at x = 1 and t = 0, where u = 0, z = 1 and the endpoint
    Jacobian is the identity: (u, z) are lifted as jets of ints in the
    t-offsets, and u_x, z_x follow from the scaling relations
    2 u_x = u + E u and 2 z_x = 2 z + E z, E = sum_j (j - 2) t_j d/dt_j.
    The log argument is an int jet over 4, and its log makes one Fraction
    per coefficient (see Jet.log).  Since e1(x, t) = e1(1, {t_j x**((j - 2)/2)}),
    the coefficient of prod_j t_j**k_j gains x**F, F = sum_j k_j (j - 2)/2 the
    face count E - V of the torus maps it counts.
    """
    _require_int("order", order, 1)
    if not pot.t:
        raise InvalidParameterError("potential carries no perturbation directions")
    if any(v != 0 for v in pot.t.values()):
        raise InvalidParameterError("e1_series expects a family based at t = 0, got t = %r; "
                                    "mark directions with zero coefficients" % (pot.t,))
    valences = tuple(sorted(pot.t))
    orders = (order,) * len(valences)
    coeffs = xvprime_coeffs(pot, {j: Jet.variable(0, i, orders) for i, j in enumerate(valences)})
    # a unit face weight and the identity Jacobian of type int keep every
    # entry of the lift an int; each pass kills the lowest order left
    U, Z = _lift(0, 1, orders, coeffs, None, ((1, 0), (0, 1)), sum(orders))

    # E multiplies the coefficient of prod_j t_j**k_j by sum_j k_j (j - 2), so
    # 2 u_x = U + E U and 2 z_x = 2 Z + E Z are int jets, and so is 1/Z
    weight = [sum(k * (j - 2) for k, j in zip(e, valences)) for e in U.lay.exps]
    ux = _jet([v + v * w for v, w in zip(U.c, weight)], U.lay, False)
    zx = _jet([2 * v + v * w for v, w in zip(Z.c, weight)], Z.lay, False)
    zinv = Z.reciprocal()
    # the log argument (z_x**2 - Z u_x**2) / Z**2 is M/4, M an int jet of constant 4
    e1 = ((zx * zx - Z * (ux * ux)) * (zinv * zinv)).log() - math.log(4)
    # F = weight/2 is fractional only for an odd half-edge count, whose
    # coefficient is an exact zero
    x = Fraction(pot.x)
    scale = {w: x ** Fraction(w, 2) / 24 for w in set(weight)}
    series = {e: float(v * scale[w]) for e, v, w in zip(e1.lay.exps, e1.c, weight)}
    return SeriesInT(valences, order, pot.x, series)


def verify_relations(j, t, x=1.0):
    """Residuals of the string/Toda pair, the scaling pair, and the
    derivative-reducing rules for a single-valence potential.

    Everything is evaluated on jets in (x, t) and reduced to the largest
    absolute Taylor coefficient, so each residual checks the relation as a
    function germ rather than at a single number.
    """
    pot = PotentialSpec(x, {j: t})
    ep = uz_jets(pot, x_order=2, t_order=1)
    U, Z = ep.u_jet, ep.z_jet
    X = Jet.variable(float(x), 0, U.orders)
    T = Jet.variable(float(t), 1, U.orders)
    ux, zx = U.dx(0), Z.dx(0)
    ut, zt = U.dx(1), Z.dx(1)

    def flat(jet):
        import numpy as np
        return float(np.max(np.abs(jet.coeffs.astype(float))))

    d = j * X - (j - 2) * Z
    den = d * d - (j - 2) ** 2 * (U * U) * Z
    residuals = {
        "string_u": flat(U + j * T * ut - 2 * (ux * Z + U * zx)),
        "string_z": flat(2 * Z + j * T * zt - (2 * Z * U * ux + 2 * Z * zx)),
        "scaling_z": flat((j - 2) * T * zt + 2 * Z - 2 * X * zx),
        "scaling_u": flat((j - 2) * T * ut + U - 2 * X * ux),
        "reduce_z": flat(zx * den - (2 * Z * d + (j - 2) * (U * U) * Z)),
        "reduce_u": flat(ux * den - (j * X * U + (j - 2) * U * Z)),
    }
    return residuals
