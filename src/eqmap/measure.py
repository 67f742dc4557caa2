"""Equilibrium density evaluation, total mass, and the variational
characterization (equality on the support, inequality off it).

With t = (s - c)/r on the support, the density is r**2 H(t) sqrt(1 - t**2)/(2 pi x)
for the polynomial H(t) = h(c + r t).  Its Chebyshev-U expansion gives the mass and
every log-potential in closed form (Mason & Handscomb, Chebyshev Polynomials, 2003, ch. 9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .endpoints import solve_endpoints
from .errors import InvalidParameterError, _require_int
from .hfunc import HPoly, h_classical

__all__ = [
    "EquilibriumMeasure",
    "VariationalReport",
    "equilibrium_measure",
    "density",
    "total_mass",
    "variational_report",
]


@dataclass(frozen=True)
class EquilibriumMeasure:
    """Endpoint data plus the polynomial factor h; density is derived.
    ``u_coeffs`` keeps the Chebyshev-U expansion of h once it is made."""

    ep: object
    h: HPoly
    x: float
    u_coeffs: tuple | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def support(self):
        return self.ep.alpha_minus, self.ep.alpha_plus


def equilibrium_measure(pot):
    """Solve the endpoints and assemble the measure with the classical h."""
    ep = solve_endpoints(pot)
    return EquilibriumMeasure(ep, h_classical(pot, ep), pot.x)


def density(em, lam):
    """Density value(s): (1/2 pi x) sqrt((a+ - lam)(lam - a-)) h(lam) on the
    support, zero outside, +-inf included; a NaN point is refused."""
    import numpy as np
    am, ap = em.support
    lam = np.asarray(lam, dtype=float)
    if np.isnan(lam).any():
        raise InvalidParameterError("density point lam must not be NaN, got %r" % (lam,))
    inside = (lam >= am) & (lam <= ap)
    prod = np.where(inside, (ap - lam) * (lam - am), 0.0)
    vals = np.sqrt(prod) * em.h.value(lam) / (2 * math.pi * em.x)
    out = np.where(inside, vals, 0.0)
    return float(out) if out.ndim == 0 else out


def _u_coeffs(em):
    """Center c, half-width r and the Chebyshev-U coefficients b of H(t),
    made once per measure and kept on it, b read-only.

    H(cos th) sin th = sum b_n sin((n + 1) th), read off exactly by discrete
    sine orthogonality at deg H + 1 angles.
    """
    if em.u_coeffs is None:
        import numpy as np
        am, ap = em.support
        c, r, n = (ap + am) / 2, (ap - am) / 2, len(em.h.monomial)
        th = np.arange(1, n + 1) * (math.pi / (n + 1))
        vals = np.sin(th) * em.h.value(c + r * np.cos(th))
        b = np.sin(np.outer(np.arange(1, n + 1), th)) @ vals * (2 / (n + 1))
        b.flags.writeable = False
        object.__setattr__(em, "u_coeffs", (c, r, b))  # a frozen dataclass's own cache
    return em.u_coeffs


def total_mass(em):
    """Mass of the density: only U_0 has a nonzero integral against sqrt(1 - t**2)."""
    _, r, b = _u_coeffs(em)
    return float(r * r * b[0] / (4 * em.x))


def _log_potential(em, lam):
    """integral(log|lam - s| dpsi(s)) at real points lam, on or off the support.

    With w = (lam - c)/r = (omega + 1/omega)/2, |omega| >= 1 and E_k = Re(omega**-k)
    (T_k(w) on the support), integral(log|w - t| U_n(t) sqrt(1 - t**2) dt) is
    (pi/2)(E_(n+2)/(n+2) - E_n/n) for n >= 1 and (pi/2)(E_2/2 + log(|omega|/2)) for n = 0.
    """
    import numpy as np
    c, r, b = _u_coeffs(em)
    w = ((lam - c) / r).astype(complex)
    omega = w + np.sqrt(w - 1) * np.sqrt(w + 1)  # the branch with |omega| >= 1
    n = np.arange(len(b) + 2)
    e = np.real(omega[:, None] ** -n)
    terms = (e[:, 2:] @ (b / n[2:]) - e[:, 1:-2] @ (b[1:] / n[1:-2])
             + b[0] * np.log(r * np.abs(omega) / 2))
    return r * r * terms / (4 * em.x)


@dataclass
class VariationalReport:
    """Numbers summarizing how well the computed measure solves the
    variational problem for its potential."""

    lagrange_constant: float
    max_support_deviation: float
    min_offsupport_margin: float
    grid_size: int


def variational_report(em, grid_size=64):
    """Check the variational equality on the support and the inequality off it.

    The log-potentials are closed-form Chebyshev sums, with no quadrature.  The
    constant is the grid median of 2*integral(log|lam - s| dpsi(s)) - V(lam) over
    grid_size support points; the report carries the max deviation from it on
    the support and the minimum slack of the inequality within distance 2 of it.
    """
    import numpy as np
    _require_int("grid_size", grid_size, 2)
    pot = em.ep.potential
    am, ap = em.support
    offset = (ap - am) / (2 * grid_size)
    # one pass over the support grid and the two off-support grids together
    lam = np.concatenate([np.linspace(am + offset, ap - offset, grid_size),
                          np.linspace(am - 2.0, am - offset, grid_size // 2),
                          np.linspace(ap + offset, ap + 2.0, grid_size // 2)])
    logpot, v = _log_potential(em, lam), pot.v(lam)
    gvals = 2 * logpot[:grid_size] - v[:grid_size]
    ell = float(np.median(gvals))
    max_dev = float(np.max(np.abs(gvals - ell)))
    margin = float(np.min(v[grid_size:] + ell - 2 * logpot[grid_size:]))
    return VariationalReport(ell, max_dev, margin, grid_size)
