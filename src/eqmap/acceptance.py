"""The acceptance suite: every exit criterion of the package as a callable
check, shared by the ``verify`` CLI subcommand and the pytest suite.

Each criterion returns (passed, detail); :func:`run_all` times them and can
print one line per criterion.  Tolerances are fixed here, next to the checks
they belong to.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .coefftables import (
    CoeffTable,
    build_c_table,
    check_diagonal_conjecture,
    reconstruction_holds,
    verify_binomial_identities,
    verify_operator_closed_forms,
    verify_parity_projection,
)
from .correlators import apply_K, correlator_context, w1_subleading, w2_diag
from .endpoints import EndpointSolution, PotentialSpec, solve_endpoints, uz_jets
from .genfun import e1_monomial, e1_series, e1_value, verify_relations
from .hfunc import h_classical, h_even, h_general, h_left_variant, verify_residue_representation
from .measure import (EquilibriumMeasure, density, equilibrium_measure, total_mass,
                      variational_report)
from .oracle import census, e1_coeff_from_census

__all__ = ["CriterionResult", "run_all", "CRITERIA", "one_cut_corpus"]


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float


# ---- shared fixtures -------------------------------------------------------


def one_cut_corpus(n=100, seed=20240817):
    """Randomized one-cut potentials, d <= 6, |t_j| <= 0.02, t_d > 0 for even d.

    Cycles through even potentials (so the even route participates), general
    potentials with even leading valence, and odd leading valence.  Draws
    whose continuation leaves the one-cut branch, or whose h dips
    nonpositive, are rejected and redrawn.
    """
    from .errors import NoOneCutSolutionError
    from .endpoints import one_cut_certificate

    rng = random.Random(seed)
    pots = []
    while len(pots) < n:
        kind = len(pots) % 3
        if kind == 0:
            d = rng.choice([4, 6])
        elif kind == 1:
            d = rng.choice([4, 6])
        else:
            d = rng.choice([3, 5])
        # degree-5/6 potentials leave the one-cut phase much earlier, so the
        # draw amplitude shrinks with the degree (still within |t| <= 0.02)
        amp = 0.02 if d <= 4 else 0.008
        js = range(2, d + 1, 2) if kind == 0 else range(1, d + 1)
        t = {j: rng.uniform(-amp, amp) for j in js}
        if d % 2 == 0:
            t[d] = abs(t[d]) or 0.01
        else:
            while t[d] == 0:
                t[d] = rng.uniform(-amp, amp)
        pot = PotentialSpec(rng.uniform(0.8, 1.2), t)
        try:
            ep = solve_endpoints(pot)
        except NoOneCutSolutionError:
            continue
        if not one_cut_certificate(h_classical(pot, ep), ep.alpha_minus, ep.alpha_plus):
            continue
        pots.append(pot)
    return pots


@lru_cache(maxsize=None)
def _corpus_with_jets():
    out = []
    for pot in one_cut_corpus():
        out.append((pot, uz_jets(pot, x_order=max(pot.degree, 5) + 1)))
    return out


def _coeffs_close(a, b, tol):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) != len(b):
        return False, np.inf
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    worst = float(np.max(np.abs(a - b) / scale)) if len(a) else 0.0
    return worst <= tol, worst


# ---- criteria --------------------------------------------------------------

_PRINTED_C_PHI = [
    [1, 0, 0, 0, 0],
    [0, Fraction(2, 3), 0, 0, 0],
    [0, Fraction(-1, 30), Fraction(4, 15), 0, 0],
    [0, Fraction(1, 140), Fraction(-2, 105), Fraction(8, 105), 0],
    [0, Fraction(-1, 630), Fraction(1, 252), Fraction(-2, 315), Fraction(16, 945)],
]

# The psi table as printed carries -1/140 at (k=4, m=3).  That value fails
# the defining identity the table is the unique solution of (checked below);
# the correct entry is +1/140, so the reference here carries the corrected
# sign and _criterion_1 additionally proves the misprint rejection.
_PRINTED_C_PSI = [
    [1, 0, 0, 0, 0],
    [Fraction(-1, 6), Fraction(2, 3), 0, 0, 0],
    [Fraction(1, 30), Fraction(-1, 10), Fraction(4, 15), 0, 0],
    [Fraction(-1, 140), Fraction(2, 105), Fraction(-4, 105), Fraction(8, 105), 0],
    [Fraction(1, 630), Fraction(-1, 252), Fraction(1, 140), Fraction(-2, 189),
     Fraction(16, 945)],
]


def _criterion_1():
    table = build_c_table(4)
    bad = []
    for k in range(5):
        for m in range(1, 6):
            if table.phi(k, m) != _PRINTED_C_PHI[k][m - 1]:
                bad.append(("phi", k, m, table.phi(k, m)))
            if table.psi(k, m) != _PRINTED_C_PSI[k][m - 1]:
                bad.append(("psi", k, m, table.psi(k, m)))
    if bad:
        return False, "mismatches: %s" % bad[:4]
    # prove the one corrected entry: +1/140 satisfies the defining identity,
    # the misprinted -1/140 does not
    misprint = table.c_psi[4][:2] + (Fraction(-1, 140),) + table.c_psi[4][3:]
    printed = CoeffTable(4, table.c_phi, table.c_psi[:4] + (misprint,))
    if not reconstruction_holds(table, 4):
        return False, "solved row k=4 fails the defining identity"
    if reconstruction_holds(printed, 4):
        return False, "misprinted c_psi(4,3) unexpectedly satisfies the identity"
    return True, ("entries match exactly (c_psi(4,3) = +1/140; the printed "
                  "-1/140 provably fails the defining identity)")


def _criterion_2():
    fails = []
    for m in range(11):
        if not verify_operator_closed_forms(m):
            fails.append("operator_closed_forms(%d)" % m)
    for k in range(11):
        if not verify_parity_projection(k):
            fails.append("parity_projection(%d)" % k)
    for m in range(1, 21):
        if not verify_binomial_identities(m):
            fails.append("binomials(%d)" % m)
    return not fails, ("operator closed forms m<=10, parity projection k<=10, binomial sums m<=20 all exact"
                       if not fails else "failed: %s" % fails)


def _criterion_3():
    ok = check_diagonal_conjecture(8)
    return ok, "c_phi and c_psi diagonals equal 2^k/(2k+1)!! for k <= 8" if ok \
        else "diagonal pattern broken"


def _criterion_4():
    worst_gen = worst_even = 0.0
    n_even = 0
    for pot, ep in _corpus_with_jets():
        hc = h_classical(pot, ep)
        hg = h_general(pot, ep)
        ok, w = _coeffs_close(hc.monomial, hg.monomial, 1e-9)
        worst_gen = max(worst_gen, w)
        if not ok:
            return False, "general route disagrees (%.3g) for %r" % (w, pot)
        if pot.is_even:
            n_even += 1
            he = h_even(pot, ep)
            ok, w = _coeffs_close(hc.monomial, he.monomial, 1e-9)
            worst_even = max(worst_even, w)
            if not ok:
                return False, "even route disagrees (%.3g) for %r" % (w, pot)
    return True, ("100 potentials: worst general %.2e, worst even %.2e (%d even)"
                  % (worst_gen, worst_even, n_even))


def _criterion_5():
    worst = 0.0
    for pot, ep in _corpus_with_jets():
        for build in (h_general,) + ((h_even,) if pot.is_even else ()):
            h = build(pot, ep)
            hl = h_left_variant(h)
            ok, w = _coeffs_close(h.monomial, hl.monomial, 1e-10)
            worst = max(worst, w)
            if not ok:
                return False, "left variant differs (%.3g) for %r" % (w, pot)
    return True, "left-endpoint expansion equals the original, worst %.2e" % worst


def _criterion_6():
    for pot, ep in _corpus_with_jets():
        for m in range(5):
            if not verify_residue_representation(pot, ep, m):
                return False, "residue representation fails at m=%d for %r" % (m, pot)
    return True, "phi_m/psi_m match their residue representations for m <= 4"


def _gue():
    return PotentialSpec(1.0, {})


def _quartic(t=0.01):
    return PotentialSpec(1.0, {4: t})


def _criterion_7():
    details = []
    for pot in (_gue(), _quartic()):
        em = equilibrium_measure(pot)
        mass = total_mass(em)
        if abs(mass - 1) > 1e-10:
            return False, "total mass %.15f for %r" % (mass, pot)
        rep = variational_report(em)
        details.append("dev=%.2e" % rep.max_support_deviation)
        if rep.max_support_deviation > 1e-5:
            return False, "variational deviation %.3g for %r" % (
                rep.max_support_deviation, pot)
        if rep.min_offsupport_margin < -1e-7:
            return False, "off-support inequality violated (%.3g) for %r" % (
                rep.min_offsupport_margin, pot)
    # negative control: true h over endpoints widened by 0.1 in z is not an
    # equilibrium measure and the on-support equality must visibly fail
    pot = _quartic()
    good = equilibrium_measure(pot)
    bad = EndpointSolution(good.ep.u, good.ep.z + 0.1, pot, 0.0)
    em_bad = EquilibriumMeasure(bad, good.h, pot.x)
    rep = variational_report(em_bad)
    if rep.max_support_deviation < 1e-2:
        return False, "negative control too small: %.3g" % rep.max_support_deviation
    return True, "mass=1, %s, negative control dev=%.2e" % (
        ", ".join(details), rep.max_support_deviation)


def _criterion_8():
    em = equilibrium_measure(_gue())
    ep = em.ep
    errs = [abs(ep.alpha_minus + 2), abs(ep.alpha_plus - 2)]
    errs.append(float(np.max(np.abs(em.h.monomial - np.array([1.0])))))
    errs.append(abs(density(em, 0.0) - 1 / math.pi))
    worst = max(errs)
    return worst < 1e-12, "endpoints, h=1, density(0)=1/pi; worst error %.2e" % worst


def _criterion_9():
    worst = 0.0
    for pot in (_gue(), _quartic()):
        ctx = correlator_context(pot)
        radius = ctx.ep.alpha_plus + 2
        for k in range(8):
            y = radius * cmath.exp(2j * math.pi * (k + 0.5) / 8)
            res = abs(w2_diag(ctx, y) + apply_K(ctx, lambda s: w1_subleading(ctx, s), y))
            worst = max(worst, res)
            if res > 1e-6:
                return False, "loop residual %.3g at y=%s for %r" % (res, y, pot)
    spot = abs(abs(w1_subleading(correlator_context(_gue()), 3.0)) - 5 ** -2.5)
    if spot > 1e-10:
        return False, "GUE spot value off by %.3g" % spot
    return True, "worst loop residual %.2e, GUE |W(3)| error %.2e" % (worst, spot)


def _criterion_10():
    worst = 0.0
    for t in np.linspace(-0.015, 0.05, 14):
        res = e1_value(PotentialSpec(1.0, {4: float(t)}))
        ref = -math.log(2 - res.z) / 12
        worst = max(worst, abs(res.value - ref))
    for t in (0.001, 0.003, 0.006):
        res = e1_value(PotentialSpec(1.0, {6: t}))
        ref = -math.log(3 - 2 * res.z) / 12
        worst = max(worst, abs(res.value - ref))
    for t in (0.02, 0.05):
        worst = max(worst, abs(e1_monomial(3, t)
                               - e1_value(PotentialSpec(1.0, {3: t})).value))
    return worst < 1e-10, "4-valent, 6-valent and 3-valent references; worst %.2e" % worst


def _criterion_11():
    worst = 0.0
    for j, t in ((3, 0.05), (4, 0.01), (6, 0.002)):
        residuals = verify_relations(j, t)
        w = max(residuals.values())
        worst = max(worst, w)
        if w > 1e-9:
            return False, "relation residual %.3g for j=%d: %r" % (w, j, residuals)
    return True, "string/Toda, scaling, derivative-reducing all < 1e-9 (worst %.2e)" % worst


_PROFILES = [{4: 1}, {4: 2}, {3: 2}, {6: 1}, {4: 3}]


def _criterion_12():
    worst = 0.0
    for profile in _PROFILES:
        cens = census(profile)
        (j, k), = profile.items()
        for x in (1.0, 2.0):
            series = e1_series(PotentialSpec(x, {j: 0.0}), order=k)
            got = series.coeff(profile)
            want = e1_coeff_from_census(profile, x, cens)
            worst = max(worst, abs(got - want))
            if abs(got - want) > 1e-8:
                return False, "census %r at x=%g: series %.10g vs count %.10g" % (
                    profile, x, got, want)
    anchors = (e1_coeff_from_census({4: 1}, 1), e1_coeff_from_census({4: 2}, 1))
    if anchors != (-1, 30):
        return False, "hand anchors broken: %s and %s" % anchors
    return True, "five profiles at x=1,2 agree (worst %.2e); anchors -1 and 30 exact" % worst


def _criterion_13():
    worst = 0.0
    for x in (1.0, 1.3):
        for t in np.linspace(-0.015, 0.05, 27):
            t = float(t)
            pot = PotentialSpec(x, {4: t})
            ep = solve_endpoints(pot)
            if t == 0:
                ref = x
            else:
                ref = (-1 + math.sqrt(1 + 48 * t * x)) / (24 * t)
            worst = max(worst, abs(ep.z - ref), abs(ep.u))
    return worst < 1e-12, "solver matches the quadratic-formula root, worst %.2e" % worst


CRITERIA = [
    (1, "c-table reproduction (printed tables, exact)", _criterion_1),
    (2, "identity suite (exact rational arithmetic)", _criterion_2),
    (3, "diagonal 2^k/(2k+1)!! pattern, k <= 8", _criterion_3),
    (4, "triple-route h agreement on 100 random potentials", _criterion_4),
    (5, "left-endpoint expansion equals the original", _criterion_5),
    (6, "phi/psi residue representations, m <= 4", _criterion_6),
    (7, "mass and variational characterization", _criterion_7),
    (8, "GUE anchors: endpoints, h, density(0)", _criterion_8),
    (9, "loop-equation residual and GUE spot value", _criterion_9),
    (10, "e1 reference formulas (4-, 6-, 3-valent)", _criterion_10),
    (11, "string/Toda, scaling, derivative-reducing relations", _criterion_11),
    (12, "map-census oracle equals e1 series coefficients", _criterion_12),
    (13, "quartic endpoint solver vs quadratic formula", _criterion_13),
]


def _run(num, title, fn):
    t0 = time.perf_counter()
    passed, detail = fn()
    return CriterionResult(num, title, passed, detail, time.perf_counter() - t0)


def run_criterion(number):
    for num, title, fn in CRITERIA:
        if num == number:
            return _run(num, title, fn)
    raise ValueError("no criterion numbered %d" % number)


def run_all(report=None):
    """Run every criterion; ``report`` (if given) receives one line each."""
    results = []
    for num, title, fn in CRITERIA:
        res = _run(num, title, fn)
        results.append(res)
        if report is not None:
            report("%s  %2d. %s: %s  (%.2fs)" % (
                "PASS" if res.passed else "FAIL", num, title, res.detail, res.seconds))
    return results
