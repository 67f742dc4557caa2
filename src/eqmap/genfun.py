"""The torus map generating function e1 computed from endpoint data alone,
its power series in the perturbation coefficients, the single-valence
special case, and the residual suite for the string/Toda/scaling relations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import Jet
from .endpoints import (PotentialSpec, _require_int, endpoint_residuals, solve_endpoints,
                        uz_jets)
from .errors import InvalidParameterError, OutsideOneCutError

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

    The x**2 factor normalizes e1(x, t=0) to zero for every face weight (at
    x = 1 it is inert); a nonpositive log argument means the potential left
    the one-cut regime.
    """
    ep = uz_jets(pot, x_order=1)
    ux, zx = ep.du(1), ep.dz(1)
    arg = pot.x ** 2 * (zx * zx - ep.z * ux * ux) / ep.z ** 2
    if not arg > 0:
        raise OutsideOneCutError("log argument %.6g is not positive" % arg)
    return E1Result(math.log(arg) / 24, arg, ep.u, ep.z, ux, zx, float(pot.x))


def e1_monomial(j, t):
    """e1 for the single-valence potential y**2/2 + t y**j at x = 1.

    Closed form in (u, z) only, obtained by eliminating the derivatives with
    the scaling and string relations.
    """
    pot = PotentialSpec(1.0, {int(j): t})
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
    Jacobian is the identity: (u, z) are lifted as exact integer jets in the
    t-offsets, and u_x, z_x follow from the scaling relations
    2 u_x = u + E u and 2 z_x = 2 z + E z, E = sum_j (j - 2) t_j d/dt_j.
    Since e1(x, t) = e1(1, {t_j x**((j - 2)/2)}), the coefficient of
    prod_j t_j**k_j gains x**F, F = sum_j k_j (j - 2)/2 the face count E - V
    of the torus maps it counts.
    """
    _require_int("order", order, 1)
    if not pot.t:
        raise InvalidParameterError("potential carries no perturbation directions")
    if any(v != 0 for v in pot.t.values()):
        raise InvalidParameterError("e1_series expects a family based at t = 0, got t = %r; "
                                    "mark directions with zero coefficients" % (pot.t,))
    valences = tuple(sorted(pot.t))
    orders = (order,) * len(valences)
    coeffs = [0] * pot.degree
    coeffs[1] = 1  # valence 2 adds to the Gaussian term
    for i, j in enumerate(valences):
        coeffs[j - 1] = coeffs[j - 1] + j * Jet.variable(0, i, orders)
    # a unit face weight of type int keeps every entry of the lift an int
    U, Z = Jet.constant(0, orders), Jet.constant(1, orders)
    for _ in range(sum(orders)):  # each pass kills the lowest order left
        r1, r2 = endpoint_residuals(U, Z, pot, _coeffs=coeffs, _xinv=1)
        U, Z = U - r1, Z - r2

    # E multiplies the coefficient of prod_j t_j**k_j by sum_j k_j (j - 2)
    shape = U.coeffs.shape
    weight = np.array([sum(k * (j - 2) for k, j in zip(idx, valences))
                       for idx in np.ndindex(shape)], dtype=object).reshape(shape)
    ux = (U + Jet(U.coeffs * weight)) / 2
    zx = Z + Jet(Z.coeffs * weight) / 2
    e1 = ((zx * zx - Z * (ux * ux)) / (Z * Z)).log()
    # F = weight/2 is fractional only for an odd half-edge count, whose
    # coefficient is an exact zero
    x = Fraction(pot.x)
    series = {idx: float(e1.coeffs[idx] * x ** Fraction(weight[idx], 2) / 24)
              for idx in np.ndindex(shape)}
    return SeriesInT(valences, order, pot.x, series)


def verify_relations(j, t, x=1.0):
    """Residuals of the string/Toda pair, the scaling pair, and the
    derivative-reducing rules for a single-valence potential.

    Everything is evaluated on jets in (x, t) and reduced to the largest
    absolute Taylor coefficient, so each residual checks the relation as a
    function germ rather than at a single number.
    """
    pot = PotentialSpec(x, {int(j): t})
    ep = uz_jets(pot, x_order=2, t_order=1)
    U, Z = ep.u_jet, ep.z_jet
    X = Jet.variable(float(x), 0, U.orders)
    T = Jet.variable(float(t), 1, U.orders)
    ux, zx = U.dx(0), Z.dx(0)
    ut, zt = U.dx(1), Z.dx(1)

    def flat(jet):
        return float(np.max(np.abs(jet.coeffs.astype(float))))

    den = (j * X - (j - 2) * Z) ** 2 - (j - 2) ** 2 * (U * U) * Z
    residuals = {
        "string_u": flat(U + j * T * ut - 2 * (ux * Z + U * zx)),
        "string_z": flat(2 * Z + j * T * zt - (2 * Z * U * ux + 2 * Z * zx)),
        "scaling_z": flat((j - 2) * T * zt + 2 * Z - 2 * X * zx),
        "scaling_u": flat((j - 2) * T * ut + U - 2 * X * ux),
        "reduce_z": flat(zx * den - (2 * Z * (j * X - (j - 2) * Z) + (j - 2) * (U * U) * Z)),
        "reduce_u": flat(ux * den - (j * X * U + (j - 2) * U * Z)),
    }
    return residuals
