"""Closed forms for the leading resolvent, the diagonal two-point function,
and the subleading one-point correlator, together with the linearized
loop-equation operator K as a contour quadrature.

The consistency check is w2_diag(y) + K[w1_subleading](y) = 0 at points off
the cut; the contour quadrature is trapezoidal on an ellipse around the
support, which converges spectrally for these integrands.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import ContourGeometryError, DegeneratePointError, InvalidParameterError, _require_int
from .measure import equilibrium_measure

__all__ = [
    "CorrelatorContext",
    "correlator_context",
    "w1_leading",
    "w2_diag",
    "w1_subleading",
    "w1_subleading_antiderivative",
    "apply_K",
]


@dataclass(frozen=True)
class CorrelatorContext:
    """Endpoint data, h, and the endpoint evaluations the closed forms need;
    ``contours`` keeps apply_K's nodes per node count, and ``w1_at_nodes``
    w1_subleading's values at them."""

    ep: object
    h: object
    x: float
    h_plus: float
    hp_plus: float
    h_minus: float
    hp_minus: float
    contours: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    w1_at_nodes: dict = field(default_factory=dict, init=False, compare=False, repr=False)


def correlator_context(pot):
    em = equilibrium_measure(pot)
    ep, h = em.ep, em.h
    h_plus = float(h.value(ep.alpha_plus))
    h_minus = float(h.value(ep.alpha_minus))
    if h_plus == 0 or h_minus == 0:
        raise DegeneratePointError("h vanishes at a support endpoint; correlator forms degenerate")
    return CorrelatorContext(ep, h, pot.x,
                             h_plus, float(h.deriv(ep.alpha_plus)),
                             h_minus, float(h.deriv(ep.alpha_minus)))


def _require_finite(y):
    """Refuse a complex point y that is not finite, naming it."""
    if not cmath.isfinite(y):
        raise InvalidParameterError("evaluation point y must be finite, got %r" % (y,))


def _sqrt_cut(ctx, y):
    """sqrt((y - a-)(y - a+)), the branch ~ y at infinity, for complex y or arrays;
    a point that is not finite, or an array with such an entry, is refused."""
    am, ap = ctx.ep.alpha_minus, ctx.ep.alpha_plus
    if isinstance(y, complex):
        _require_finite(y)
        on_cut, sqrt = y.imag == 0 and am <= y.real <= ap, cmath.sqrt
    else:
        import numpy as np
        if not np.isfinite(y).all():
            raise InvalidParameterError("evaluation point y must be finite in every entry")
        on_cut, sqrt = np.any((y.imag == 0) & (am <= y.real) & (y.real <= ap)), np.sqrt
    if on_cut:
        raise InvalidParameterError("evaluation point sits on the branch cut")
    return sqrt(y - am) * sqrt(y - ap)


def w1_leading(ctx, y):
    """Leading resolvent coefficient: (V'(y) - R(y) h(y) / x) / 2."""
    y = complex(y)
    r = _sqrt_cut(ctx, y)
    return 0.5 * (ctx.ep.potential.vprime(y) - r * ctx.h.value(y) / ctx.x)


def w2_diag(ctx, y):
    """Diagonal two-point function in symmetric partial-fraction form.

    The three weights (-1/16, 1/8, -1/16) sit over (y-a-)**2,
    (y-a-)(y-a+), (y-a+)**2; this is the form whose K-inverse matches the
    subleading correlator, which the loop-equation residual test pins down.
    """
    y = complex(y)
    _require_finite(y)
    am, ap = ctx.ep.alpha_minus, ctx.ep.alpha_plus
    if y == am or y == ap:
        raise ZeroDivisionError("w2_diag has double poles at the endpoints")
    return (-1 / 16) / (y - am) ** 2 + (1 / 8) / ((y - am) * (y - ap)) \
        + (-1 / 16) / (y - ap) ** 2


def w1_subleading(ctx, y):
    """Subleading one-point coefficient from its endpoint closed form; y may be
    an array.  At the context's own contour nodes the values are made on the
    first request for each node count and kept read-only on the context."""
    if isinstance(y, (complex, float, int)):
        return _w1_subleading(ctx, complex(y))
    for n, (xi, _, _) in ctx.contours.items():
        if y is xi:
            vals = ctx.w1_at_nodes.get(n)
            if vals is None:
                vals = ctx.w1_at_nodes[n] = _w1_subleading(ctx, xi)
                vals.flags.writeable = False
            return vals
    import numpy as np
    return _w1_subleading(ctx, complex(y) if np.ndim(y) == 0 else np.asarray(y, dtype=complex))


def _w1_subleading(ctx, y):
    r = _sqrt_cut(ctx, y)  # first: an endpoint is refused by name, not divided by
    am, ap = ctx.ep.alpha_minus, ctx.ep.alpha_plus
    s = math.sqrt(ctx.ep.z)
    hm, hpm = ctx.h_minus, ctx.hp_minus
    hp, hpp = ctx.h_plus, ctx.hp_plus
    bracket = ((hm - 2 * s * hpm) / (-32 * s * hm * hm * (y - am))
               + 1 / (-16 * hm * (y - am) ** 2)
               + (hp + 2 * s * hpp) / (32 * s * hp * hp * (y - ap))
               + 1 / (-16 * hp * (y - ap) ** 2))
    return ctx.x * bracket / r


def w1_subleading_antiderivative(ctx, y):
    """(1/x) * integral from y to infinity of the subleading correlator.

    Closed form built from the two linear-factor integrals; the second half
    is the mirror of the first under sqrt(z) -> -sqrt(z), a+- -> a-+.
    """
    y = complex(y)
    am, ap = ctx.ep.alpha_minus, ctx.ep.alpha_plus
    z = ctx.ep.z
    r = _sqrt_cut(ctx, y)

    def half(s, a_near, a_far, h_near, hp_near):
        return ((2 * h_near - 3 * s * hp_near) / (-96 * z * h_near * h_near)
                * (1 - (y - a_far) / r)
                + (1 / (96 * s * h_near)) * (y - a_far) / ((y - a_near) * r))

    s = math.sqrt(z)
    return (half(s, am, ap, ctx.h_minus, ctx.hp_minus)
            + half(-s, ap, am, ctx.h_plus, ctx.hp_plus))


def apply_K(ctx, f, y, n_nodes=256):
    """K f(y) = 2 W1(y) f(y) - (2 pi i)^-1 contour integral of V'(xi) f(xi)/(y - xi).

    The contour is an ellipse around the support (semi-axes 2 sqrt(z) + 0.5
    and sqrt(z)/2, centered at u); y must lie outside it.  Trapezoidal
    quadrature in the ellipse parameter converges spectrally.  f is called
    once on the complex array of the n_nodes contour nodes, and once on y.
    The nodes, their weights and V' there are made once per context and
    node count, and kept read-only.
    """
    import numpy as np
    _require_int("n_nodes", n_nodes, 1)
    y = complex(y)
    _require_finite(y)
    u, z = ctx.ep.u, ctx.ep.z
    a = 2 * math.sqrt(z) + 0.5
    b = 0.5 * math.sqrt(z)
    if ((y.real - u) / a) ** 2 + (y.imag / b) ** 2 <= 1.0:
        raise ContourGeometryError("evaluation point lies inside the quadrature contour")
    contour = ctx.contours.get(n_nodes)
    if contour is None:
        theta = 2 * math.pi * np.arange(n_nodes) / n_nodes
        xi = u + a * np.cos(theta) + 1j * b * np.sin(theta)
        dxi = -a * np.sin(theta) + 1j * b * np.cos(theta)
        contour = ctx.contours[n_nodes] = (xi, dxi, ctx.ep.potential.vprime(xi))
        for arr in contour:
            arr.flags.writeable = False
    xi, dxi, vprime = contour
    vals = vprime * f(xi) / (y - xi)
    integral = np.sum(vals * dxi) / (1j * n_nodes)
    return 2 * w1_leading(ctx, y) * f(y) - integral
