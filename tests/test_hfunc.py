import dataclasses
import math
import random

import numpy as np
import pytest

from eqmap.endpoints import PotentialSpec, solve_endpoints, uz_jets
from eqmap.hfunc import (
    centered_from_monomial,
    h_at_endpoints,
    h_classical,
    h_even,
    h_general,
    h_left_variant,
    monomial_from_centered,
    phi_psi,
    verify_even_residue_formula,
    verify_residue_representation,
)

GUE = PotentialSpec(1.0, {})
QUARTIC = PotentialSpec(1.0, {4: 0.01})
CUBIC = PotentialSpec(1.0, {3: 0.05})


def jets(pot, order=None):
    return uz_jets(pot, x_order=order or (pot.degree + 2))


def random_one_cut(rng, even=False):
    from eqmap.errors import NoOneCutSolutionError

    while True:
        d = rng.choice([4, 6]) if even else rng.choice([3, 4, 5, 6])
        amp = 0.02 if d <= 4 else 0.008
        js = range(2, d + 1, 2) if even else range(1, d + 1)
        t = {j: rng.uniform(-amp, amp) for j in js}
        if d % 2 == 0:
            t[d] = abs(t[d]) or 0.01
        pot = PotentialSpec(rng.uniform(0.9, 1.1), t)
        try:
            solve_endpoints(pot)
            return pot
        except NoOneCutSolutionError:
            continue


# ---- basis conversions -----------------------------------------------------


def test_basis_conversion_round_trip():
    rng = np.random.default_rng(5)
    mono = rng.normal(size=5)
    a = 1.8
    back = monomial_from_centered(centered_from_monomial(mono, a), a)
    assert np.max(np.abs(back - mono)) < 1e-10


# ---- phi/psi recursion -----------------------------------------------------


def test_phi_psi_base_case():
    seqs = phi_psi(QUARTIC, jets(QUARTIC), 2)
    assert seqs[0].phi_value == 0.0
    assert seqs[0].psi_value == QUARTIC.x


def test_phi_psi_level_one_closed_form():
    pot = CUBIC
    ep = jets(pot)
    seqs = phi_psi(pot, ep, 1)
    ux, zx = ep.du(1), ep.dz(1)
    denom = zx**2 - ep.z * ux**2
    assert seqs[1].phi_value == pytest.approx(zx / denom, rel=1e-12)
    assert seqs[1].psi_value == pytest.approx(-ep.z * ux / denom, rel=1e-12)


def test_phi_psi_gue_level_one():
    seqs = phi_psi(GUE, jets(GUE, 4), 1)
    assert seqs[1].phi_value == pytest.approx(1.0, abs=1e-14)
    assert seqs[1].psi_value == pytest.approx(0.0, abs=1e-14)


def test_phi_psi_level_two_closed_forms():
    # the m = 2 rational functions of (u, z) derivatives, evaluated numerically
    pot = PotentialSpec(1.0, {3: 0.03, 4: 0.02})
    ep = jets(pot, 5)
    seqs = phi_psi(pot, ep, 2)
    z = ep.z
    ux, zx = ep.du(1), ep.dz(1)
    uxx, zxx = ep.du(2), ep.dz(2)
    E3 = (z * ux**2 - zx**2) ** 3
    phi2 = (z * uxx * zx**3 - z**2 * ux**3 * zxx + ux * zx**4 + z * ux**3 * zx**2
            - 3 * z * ux * zx**2 * zxx + 3 * z**2 * ux**2 * uxx * zx) / E3
    psi2 = (-2 * z * ux**2 * zx**3 + 3 * z**2 * ux**2 * zx * zxx - z**3 * ux**3 * uxx
            - 3 * z**2 * ux * uxx * zx**2 + z * zx**3 * zxx) / E3
    assert seqs[2].phi_value == pytest.approx(phi2, rel=1e-9)
    assert seqs[2].psi_value == pytest.approx(psi2, rel=1e-9)


def test_phi_psi_rejects_missing_orders():
    ep = uz_jets(QUARTIC, x_order=2)
    with pytest.raises(ValueError):
        phi_psi(QUARTIC, ep, 3)


def test_phi_psi_jets_stay_float64():
    pot = PotentialSpec(0.9, {3: 0.01, 4: 0.01})
    for seq in phi_psi(pot, uz_jets(pot, x_order=4), 3):
        assert seq.phi.coeffs.dtype == seq.psi.coeffs.dtype == np.float64


# ---- h routes ---------------------------------------------------------------


def test_h_classical_gue_is_one():
    ep = solve_endpoints(GUE)
    h = h_classical(GUE, ep)
    assert h.monomial.shape == (1,)
    assert h.monomial[0] == pytest.approx(1.0, abs=1e-14)


def test_h_classical_quartic_closed_form():
    t = 0.01
    ep = solve_endpoints(QUARTIC)
    h = h_classical(QUARTIC, ep)
    want = np.array([1 + 8 * t * ep.z, 0.0, 4 * t])
    assert np.max(np.abs(h.monomial - want)) < 1e-12


def test_h_classical_even_potential_has_even_coefficients():
    pot = PotentialSpec(1.0, {2: 0.01, 6: 0.004})
    ep = solve_endpoints(pot)
    h = h_classical(pot, ep)
    assert np.max(np.abs(h.monomial[1::2])) < 1e-14


def test_h_general_matches_quartic_example_expansion():
    # the explicit 3-term centered expansion for degree-4 potentials
    pot = PotentialSpec(1.0, {1: 0.005, 2: -0.01, 3: 0.012, 4: 0.01})
    ep = jets(pot)
    seqs = phi_psi(pot, ep, 3)
    phiv = [s.phi_value for s in seqs]
    psiv = [s.psi_value for s in seqs]
    s = math.sqrt(ep.z)
    z = ep.z
    i0 = phiv[1] + psiv[1] / s
    i1 = (2 / 3) * (phiv[2] + psiv[2] / s) - psiv[1] / (6 * z)
    i2 = ((4 / 15) * (phiv[3] + psiv[3] / s)
          - (1 / (10 * s)) * (phiv[2] / 3 + psiv[2] / s)
          + psiv[1] / (30 * z**1.5))
    h = h_general(pot, ep)
    assert np.allclose(h.centered, [i0, i1, i2], rtol=1e-11, atol=1e-13)


def test_h_general_gue_is_one():
    ep = jets(GUE, 4)
    h = h_general(GUE, ep)
    assert h.monomial[0] == pytest.approx(1.0, abs=1e-13)


def test_triple_route_agreement_random_potentials():
    rng = random.Random(77)
    for _ in range(12):
        pot = random_one_cut(rng)
        ep = jets(pot)
        hc = h_classical(pot, ep)
        hg = h_general(pot, ep)
        scale = np.maximum(1.0, np.abs(hc.monomial))
        assert np.max(np.abs(hc.monomial - hg.monomial) / scale) < 1e-9
        if pot.is_even:
            he = h_even(pot, ep)
            assert np.max(np.abs(hc.monomial - he.monomial) / scale) < 1e-9


def test_h_even_leading_and_linear_terms():
    pot = PotentialSpec(1.0, {4: 0.01})
    ep = jets(pot)
    h = h_even(pot, ep)
    zx = ep.dz(1)
    zxx = ep.dz(2)
    s = math.sqrt(ep.z)
    assert h.centered[0] == pytest.approx(1 / zx, rel=1e-12)
    assert h.centered[1] == pytest.approx(-2 * s * zxx / (3 * zx**3), rel=1e-11)


def test_h_even_rejects_odd_potentials():
    pot = PotentialSpec(1.0, {3: 0.05})
    ep = jets(pot)
    with pytest.raises(ValueError):
        h_even(pot, ep)


def test_h_even_matches_classical_quartic():
    pot = PotentialSpec(1.0, {4: 0.01})
    ep = jets(pot)
    he = h_even(pot, ep)
    hc = h_classical(pot, ep)
    assert np.max(np.abs(he.monomial - hc.monomial)) < 1e-10


# ---- left-endpoint variant --------------------------------------------------


def test_left_variant_gue():
    ep = jets(GUE, 4)
    h = h_general(GUE, ep)
    hl = h_left_variant(h)
    assert hl.monomial[0] == pytest.approx(1.0, abs=1e-13)
    assert hl.center == pytest.approx(-2.0)


def test_left_variant_equals_original_general_and_even():
    rng = random.Random(123)
    for even in (False, True):
        pot = random_one_cut(rng, even=even)
        ep = jets(pot)
        h = h_even(pot, ep) if even else h_general(pot, ep)
        hl = h_left_variant(h)
        scale = np.maximum(1.0, np.abs(h.monomial))
        assert np.max(np.abs(h.monomial - hl.monomial) / scale) < 1e-10


def test_left_variant_centered_matches_direct_shift():
    pot = PotentialSpec(1.0, {4: 0.015})
    ep = jets(pot)
    h = h_general(pot, ep)
    hl = h_left_variant(h)
    direct = centered_from_monomial(h.monomial, ep.alpha_minus)
    assert np.max(np.abs(hl.centered - direct)) < 1e-11


# ---- endpoint evaluations ----------------------------------------------------


def test_endpoint_values_gue():
    ep = jets(GUE, 4)
    hp, hpp, hm, hpm = h_at_endpoints(GUE, ep)
    assert hp == pytest.approx(1.0, abs=1e-13)
    assert hm == pytest.approx(1.0, abs=1e-13)
    assert hpp == pytest.approx(0.0, abs=1e-13)
    assert hpm == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("pot", [QUARTIC, CUBIC])
def test_endpoint_values_match_polynomial_evaluation(pot):
    ep = jets(pot)
    h = h_classical(pot, ep)
    hp, hpp, hm, hpm = h_at_endpoints(pot, ep)
    assert hp == pytest.approx(float(h.value(ep.alpha_plus)), rel=1e-10)
    assert hm == pytest.approx(float(h.value(ep.alpha_minus)), rel=1e-10)
    assert hpp == pytest.approx(float(h.deriv(ep.alpha_plus)), rel=1e-9, abs=1e-12)
    assert hpm == pytest.approx(float(h.deriv(ep.alpha_minus)), rel=1e-9, abs=1e-12)


# ---- residue identities -------------------------------------------------------


def test_residue_representation_base_case_is_endpoint_equations():
    ep = jets(QUARTIC)
    assert verify_residue_representation(QUARTIC, ep, 0)


def test_residue_representation_quartic_and_random():
    rng = random.Random(11)
    ep = jets(QUARTIC)
    assert verify_residue_representation(QUARTIC, ep, 1)
    pot = random_one_cut(rng)
    ep = jets(pot)
    for m in range(5):
        assert verify_residue_representation(pot, ep, m)


def test_residue_representation_rejects_moved_endpoint():
    # degree 6 keeps z in the residues of x V^(m+1) for every m <= 4
    pot = PotentialSpec(1.0, {3: 0.004, 4: 0.005, 6: 0.002})
    ep = jets(pot)
    moved = dataclasses.replace(ep, z=ep.z * (1 + 1e-6))
    for m in range(5):
        assert verify_residue_representation(pot, ep, m)
        assert not verify_residue_representation(pot, moved, m)


def test_even_residue_formula():
    pot = PotentialSpec(1.0, {4: 0.01})
    ep = jets(pot)
    for m in range(4):
        assert verify_even_residue_formula(pot, ep, m)


def test_even_residue_formula_gue_m1():
    ep = jets(GUE, 4)
    assert verify_even_residue_formula(GUE, ep, 1)
