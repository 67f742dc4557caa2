"""Equilibrium density evaluation, total mass, and the variational
characterization (equality on the support, inequality off it).

Quadrature is Gauss-Chebyshev of the second kind throughout: the weight
matches the square-root edge behavior of the density, so integrating the
polynomial factor h is exact up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .endpoints import solve_endpoints
from .hfunc import HPoly, h_classical

__all__ = [
    "EquilibriumMeasure",
    "VariationalReport",
    "equilibrium_measure",
    "density",
    "total_mass",
    "variational_report",
]


@dataclass
class EquilibriumMeasure:
    """Endpoint data plus the polynomial factor h; density is derived."""

    ep: object
    h: HPoly
    x: float

    @property
    def support(self):
        return self.ep.alpha_minus, self.ep.alpha_plus


def equilibrium_measure(pot):
    """Solve the endpoints and assemble the measure with the classical h."""
    ep = solve_endpoints(pot)
    return EquilibriumMeasure(ep, h_classical(pot, ep), pot.x)


def density(em, lam):
    """Density value(s): (1/2 pi x) sqrt((a+ - lam)(lam - a-)) h(lam) on the
    support, zero outside."""
    am, ap = em.support
    lam = np.asarray(lam, dtype=float)
    inside = (lam >= am) & (lam <= ap)
    prod = np.where(inside, (ap - lam) * (lam - am), 0.0)
    vals = np.sqrt(prod) * em.h.value(lam) / (2 * math.pi * em.x)
    out = np.where(inside, vals, 0.0)
    return float(out) if out.ndim == 0 else out


def _chebyshev2_nodes(em, n):
    """Support nodes, weights with integral(f dpsi) ~ sum w f, and sin(angle)**2."""
    am, ap = em.support
    c = (ap + am) / 2
    r = (ap - am) / 2
    theta = np.arange(1, n + 1) * math.pi / (n + 1)
    sin2 = np.sin(theta) ** 2
    nodes = c + r * np.cos(theta)
    weights = (r * r / (2 * em.x * (n + 1))) * sin2 * em.h.value(nodes)
    return nodes, weights, sin2


def total_mass(em, n_nodes=64):
    """Quadrature mass of the density; exact for polynomial h up to rounding."""
    w = _chebyshev2_nodes(em, n_nodes)[1]
    return float(np.sum(w))


@dataclass
class VariationalReport:
    """Numbers summarizing how well the computed measure solves the
    variational problem for its potential."""

    lagrange_constant: float
    max_support_deviation: float
    min_offsupport_margin: float
    grid_size: int
    quad_nodes: int


def variational_report(em, grid_size=64, n_quad=8192):
    """Check the variational equality on the support and the inequality off it.

    The log-kernel integrals use Chebyshev quadrature with nodes placed away
    from every evaluation point.  On the support the integrable singularity
    is subtracted first: a unit semicircle on the same interval, scaled by
    A(lam) = r**2 h(lam) / (4x), matches the density at the singular point,
    and its log-potential log(r/2) + w**2/4 - 1/2 (w the rescaled position)
    is known in closed form, so only a smooth remainder is quadratured.  The
    constant is the grid median of 2*integral(log|lam - s| dpsi(s)) - V(lam);
    the report carries the max deviation from it on the support and the
    minimum slack of the inequality within distance 2 of the support.
    """
    pot = em.ep.potential
    am, ap = em.support
    c, r = (ap + am) / 2, (ap - am) / 2
    nodes, w, sin2 = _chebyshev2_nodes(em, n_quad)
    w_semi = 2 * sin2 / (n_quad + 1)  # unit-mass semicircle weights
    buf = np.empty((grid_size, n_quad))  # both grids reuse one kernel buffer

    def log_kernel(lams):
        logs = np.subtract(lams[:, None], nodes[None, :], out=buf[:len(lams)])
        return np.log(np.abs(logs, out=logs), out=logs)

    def g2_support(lams):
        logs = log_kernel(lams)
        amp = r * r * em.h.value(lams) / (4 * em.x)
        rough = logs @ w - amp * (logs @ w_semi)
        scaled = 2 * (lams - c) / r
        exact = amp * (math.log(r / 2) + scaled**2 / 4 - 0.5)
        return 2 * (rough + exact)

    offset = (ap - am) / (2 * grid_size)
    support = np.linspace(am + offset, ap - offset, grid_size)
    gvals = g2_support(support) - pot.v(support)
    ell = float(np.median(gvals))
    max_dev = float(np.max(np.abs(gvals - ell)))

    pad = offset
    left = np.linspace(am - 2.0, am - pad, grid_size // 2)
    right = np.linspace(ap + pad, ap + 2.0, grid_size // 2)
    off = np.concatenate([left, right])
    margin = float(np.min(pot.v(off) + ell - 2 * (log_kernel(off) @ w)))
    return VariationalReport(ell, max_dev, margin, grid_size, n_quad)
