"""Three independent constructions of the polynomial factor h of the
equilibrium density, plus its endpoint evaluations and the residue-identity
checks tying the constructions together.

* classical: Laurent-expand x V'(y) / sqrt((y - a-)(y - a+)) at infinity and
  read off monomial coefficients -- the reference route.
* general: the valence-independent route through the phi/psi recursion and
  the exact coefficient tables; works for any polynomial potential.
* even: a closed form using only the tower (zx^-1 d/dx)^m zx^-1, valid for
  even potentials.

All three must produce the same polynomial; the test suite enforces this on
randomized one-cut potentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .algebra import (
    Jet,
    LaurentPoly,
    inv_sqrt_R_series,
    series_times_poly_coeff,
    substitute_uniformizer,
)
from .coefftables import build_c_table, double_factorial
from .endpoints import EndpointSolution, xvprime_coeffs
from .errors import DegeneratePointError, InvalidParameterError, SingularJetError, _require_int

__all__ = [
    "HPoly",
    "PhiPsiSequence",
    "phi_psi",
    "h_classical",
    "h_general",
    "h_even",
    "h_left_variant",
    "h_at_endpoints",
    "verify_residue_representation",
    "verify_even_residue_formula",
    "monomial_from_centered",
    "centered_from_monomial",
]


def monomial_from_centered(centered, a):
    """Coefficients of p(y) = sum_k q_k (y - a)**k in the monomial basis.

    Horner's rule p <- (y - a) p + q_k over Python floats, each entry rounded
    as the array form new = 0; new[1:] += p; new[:-1] += -a p; new[0] += q_k
    rounds it.  No entry is ever -0.0, so there 0.0 + p[k] is p[k].
    """
    import numpy as np
    out = []
    for c in [float(v) for v in centered][::-1]:
        out = [s + -a * v for s, v in zip([0.0] + out, out)] + out[-1:] if out else [0.0]
        out[0] += c
    return np.array(out, dtype=float)


def centered_from_monomial(monomial, a):
    """Taylor-shift monomial coefficients to powers of (y - a)."""
    import numpy as np
    n = len(monomial)
    out = np.zeros(n)
    for r, c in enumerate(monomial):
        for k in range(r + 1):
            out[k] += math.comb(r, k) * c * a ** (r - k)
    return out


@dataclass(eq=False)
class HPoly:
    """The polynomial factor of the equilibrium density.

    Stores the same polynomial twice: in the monomial basis and centered at
    ``center`` (the right support endpoint for the direct constructions, the
    left one after :func:`h_left_variant`).  ``route`` records which
    construction produced it; ``flip_data`` carries the ingredients the
    left-endpoint variant needs to redo the construction with the sign of
    sqrt(z) reversed.
    """

    monomial: np.ndarray
    centered: np.ndarray
    center: float
    ep: EndpointSolution
    route: str
    flip_data: tuple | None = field(default=None, repr=False)

    def __eq__(self, other):
        # numpy arrays compare elementwise, so they compare here as lists
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.monomial.tolist(), self.centered.tolist(), self.center, self.ep,
                 self.route, self.flip_data)
                == (other.monomial.tolist(), other.centered.tolist(), other.center, other.ep,
                    other.route, other.flip_data))

    @property
    def degree(self):
        return len(self.monomial) - 1

    def value(self, lam):
        if type(lam) is float:
            return _horner(self.monomial.tolist()[::-1], lam)
        import numpy as np
        return np.polyval(self.monomial[::-1], lam)

    def deriv(self, lam):
        if type(lam) is float:
            return _horner([c * k for k, c in enumerate(self.monomial.tolist())][:0:-1], lam)
        import numpy as np
        if len(self.monomial) < 2:
            return np.zeros_like(np.asarray(lam, dtype=float)) + 0.0
        return np.polyval(np.polyder(self.monomial[::-1]), lam)


def _horner(coeffs, lam):
    """np.polyval's Horner's rule y = y * lam + c from y = 0.0, over Python
    floats: for a real float lam it rounds as np.polyval does.  Complex
    arguments stay on np.polyval, whose complex multiply may fuse."""
    y = 0.0
    for c in coeffs:
        y = y * lam + c
    return y


@dataclass
class PhiPsiSequence:
    """One level of the 2x2 matrix recursion, carried as jets in x."""

    m: int
    phi: Jet
    psi: Jet

    @property
    def phi_value(self):
        return float(self.phi.constant_term)

    @property
    def psi_value(self):
        return float(self.psi.constant_term)


def _require_solution_of(pot, ep):
    """Refuse an endpoint solution solved for a potential other than ``pot``, naming both."""
    if pot != ep.potential:
        raise InvalidParameterError("endpoint solution is for %r, not %r" % (ep.potential, pot))


def phi_psi(pot, ep, mmax):
    """Levels 0..mmax of the recursion, consuming one jet order per level.

    Requires endpoint jets of x-order >= mmax + 1.  The shared prefactor
    1/(zx**2 - z*ux**2) is a jet reciprocal; a vanishing constant term there
    means the recursion is being evaluated at a degenerate point.  z*ux and
    z*zx are formed once, outside the level loop.
    """
    _require_solution_of(pot, ep)
    _require_int("mmax", mmax, 0)
    ep.require_x_order(mmax + 1)
    U, Z = ep.u_jet, ep.z_jet
    ux, zx = U.dx(0), Z.dx(0)
    try:
        pref = (zx * zx - Z * (ux * ux)).reciprocal()
    except SingularJetError as exc:
        raise DegeneratePointError("zx**2 - z*ux**2 vanishes at the base point") from exc
    zux, zzx = Z * ux, Z * zx
    xj = Jet.variable(float(pot.x), 0, U.orders)
    out = [PhiPsiSequence(0, Jet.constant(0.0, U.orders), xj)]
    for m in range(mmax):
        dphi = out[-1].phi.dx(0)
        dpsi = out[-1].psi.dx(0)
        phi_next = pref * (zx * dpsi - zux * dphi)
        psi_next = pref * (zzx * dphi - zux * dpsi)
        out.append(PhiPsiSequence(m + 1, phi_next, psi_next))
    return out


def h_classical(pot, ep):
    """Monomial coefficients of h from the resolvent series at infinity.

    c_r is the coefficient of y**r in x V'(y) / sqrt((y - a-)(y - a+)),
    r = 0..deg-2; this involves no recursion and serves as the oracle the
    other two routes are compared against.
    """
    import numpy as np
    _require_solution_of(pot, ep)
    deg = pot.degree
    w = [float(c) for c in xvprime_coeffs(pot)]
    series = inv_sqrt_R_series(ep.alpha_minus, ep.alpha_plus, deg)
    mono = np.array([series_times_poly_coeff(w, series, r) for r in range(deg - 1)])
    center = ep.u + 2 * math.sqrt(ep.z)
    return HPoly(mono, centered_from_monomial(mono, center), center, ep, "classical")


def _ik_general(k, s, phi_vals, psi_vals, table):
    phi_row, psi_row = (rows[k] for rows in table.floats)
    total = 0.0
    for m in range(1, k + 2):
        total += phi_row[m - 1] * s ** (m - k - 1) * phi_vals[m]
        total += psi_row[m - 1] * s ** (m - k - 2) * psi_vals[m]
    return total


def h_general(pot, ep):
    """Valence-independent construction of h through the coefficient tables.

    The centered coefficient of (y - u - 2 sqrt(z))**k combines phi_m, psi_m
    for m = 1..k+1 weighted by the exact table entries and powers of sqrt(z).
    """
    import numpy as np
    _require_solution_of(pot, ep)
    deg = pot.degree
    kmax = deg - 2
    table = build_c_table(kmax)
    seqs = phi_psi(pot, ep, deg - 1)
    phi_vals = [s.phi_value for s in seqs]
    psi_vals = [s.psi_value for s in seqs]
    s = math.sqrt(ep.z)
    centered = np.array([_ik_general(k, s, phi_vals, psi_vals, table)
                         for k in range(kmax + 1)])
    center = ep.u + 2 * s
    mono = monomial_from_centered(centered, center)
    return HPoly(mono, centered, center, ep, "general",
                 flip_data=(tuple(phi_vals), tuple(psi_vals), table))


def _ik_even(k, s, z, tower_vals):
    total = 0.0
    for m in range((k + 1) // 2, k + 1):
        total += (2.0 ** (3 * m - 2 * k) / double_factorial(2 * m + 1)
                  * math.comb(m, k - m) * z ** m * s ** (-k) * tower_vals[m])
    return total


def h_even(pot, ep):
    """Closed-form construction of h for even potentials.

    Uses only z and the derivative tower (zx**-1 d/dx)**m zx**-1; the m-sums
    are finite because h has degree deg-2.
    """
    import numpy as np
    _require_solution_of(pot, ep)
    odd = sorted(j for j, v in pot.t.items() if j % 2 == 1 and v != 0)
    if odd:
        raise InvalidParameterError("even-potential route called with odd coefficients t%s" % odd)
    deg = pot.degree
    kmax = deg - 2
    ep.require_x_order(kmax + 1)
    zxinv = ep.z_jet.dx(0).reciprocal()
    tower = [zxinv]
    for _ in range(kmax):
        tower.append(zxinv * tower[-1].dx(0))
    tower_vals = [t.constant_term for t in tower]
    s = math.sqrt(ep.z)
    centered = np.array([_ik_even(k, s, ep.z, tower_vals) for k in range(kmax + 1)])
    center = ep.u + 2 * s
    mono = monomial_from_centered(centered, center)
    return HPoly(mono, centered, center, ep, "even",
                 flip_data=(tuple(tower_vals),))


def h_left_variant(h):
    """Re-derive h centered at the left endpoint by flipping sqrt(z) -> -sqrt(z).

    For the formula routes this reruns the construction with the reversed
    sign (phi/psi and the derivative tower are functions of z itself, so they
    are unchanged); the resulting polynomial must equal the original in the
    monomial basis.  For the classical route the flip has no formula content
    and the re-expansion is a plain Taylor shift.
    """
    import numpy as np
    ep = h.ep
    s = math.sqrt(ep.z)
    center = ep.u - 2 * s
    if h.route == "general":
        phi_vals, psi_vals, table = h.flip_data
        centered = np.array([_ik_general(k, -s, phi_vals, psi_vals, table)
                             for k in range(len(h.centered))])
    elif h.route == "even":
        tower_vals, = h.flip_data
        centered = np.array([_ik_even(k, -s, ep.z, tower_vals)
                             for k in range(len(h.centered))])
    else:
        centered = centered_from_monomial(h.monomial, center)
    mono = monomial_from_centered(centered, center)
    return HPoly(mono, centered, center, ep, h.route, h.flip_data)


def h_at_endpoints(pot, ep):
    """(h(a+), h'(a+), h(a-), h'(a-)) from (u, z) derivatives alone.

    h(a+) = 1/(sqrt(z) ux + zx) and its derivative variant; the left-endpoint
    values use the sqrt(z) -> -sqrt(z) substitution.
    """
    _require_solution_of(pot, ep)
    ep.require_x_order(2)
    s = math.sqrt(ep.z)
    z = ep.z
    ux, zx = ep.du(1), ep.dz(1)
    uxx, zxx = ep.du(2), ep.dz(2)
    out = []
    for sgn in (s, -s):
        den = sgn * ux + zx
        if den == 0:
            raise DegeneratePointError("sqrt(z)*ux + zx vanishes at an endpoint")
        hval = 1.0 / den
        hprime = -(sgn * ux * ux + 3 * ux * zx + 4 * z * uxx + 4 * sgn * zxx) / (6 * den ** 3)
        out.extend([hval, hprime])
    return tuple(out)


def _rel_close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def verify_residue_representation(pot, ep, m):
    """Check the residue representation of (phi_m, psi_m).

    The recursion values must match [T^0] and [T^0] T* of
    x V^(m+1)(T + u + z/T) evaluated directly.
    """
    _require_solution_of(pot, ep)
    _require_int("order m", m, 0)
    seqs = phi_psi(pot, ep, m)
    coeffs = xvprime_coeffs(pot)
    for _ in range(m):  # x V^(m+1) is the m-th derivative of x V'
        coeffs = [i * c for i, c in enumerate(coeffs) if i]
    w = substitute_uniformizer(coeffs, ep.u, ep.z)
    return (_rel_close(seqs[m].phi_value, float(w.coeff(0)))
            and _rel_close(seqs[m].psi_value, float(w.coeff(-1))))


def _tzero_div_kernel(p, power):
    """[T^0] at infinity of p(T) / (T - 1/T)**power for a Laurent polynomial p."""
    if power == 0:
        return p.coeff(0)
    total = 0.0
    top = p.max_exp
    i = 0
    while power + 2 * i <= top:
        total += math.comb(power - 1 + i, i) * p.coeff(power + 2 * i)
        i += 1
    return total


def verify_even_residue_formula(pot, ep, m):
    """Check the residue form of the derivative tower for even potentials.

    (zx**-1 d/dx)**m x must equal
    2**(m-1) (2m-1)!! sqrt(z)**(1-2m) [T^0] x V'(sqrt z (T + 1/T)) (T + 1/T) / (T - 1/T)**(2m).
    """
    _require_solution_of(pot, ep)
    if not pot.is_even:
        raise InvalidParameterError("even-potential residue formula needs an even potential")
    _require_int("order m", m, 0)
    ep.require_x_order(m + 1)
    zxinv = ep.z_jet.dx(0).reciprocal()
    g = Jet.variable(float(pot.x), 0, ep.u_jet.orders)
    for _ in range(m):
        g = zxinv * g.dx(0)
    lhs = float(g.constant_term)

    # with T = sqrt(z) S, T + z/T = sqrt(z) (S + 1/S): [S^k] is sqrt(z)**k [T^k]
    s = math.sqrt(ep.z)
    w = [float(c) for c in xvprime_coeffs(pot)]
    p = substitute_uniformizer(w, 0.0, ep.z)
    p = LaurentPoly({k: v * s**k for k, v in p.coeffs.items()}) * LaurentPoly({1: 1.0, -1: 1.0})
    rhs = (2.0 ** (m - 1) * double_factorial(2 * m - 1) * s ** (1 - 2 * m)
           * _tzero_div_kernel(p, 2 * m))
    return _rel_close(lhs, rhs)
