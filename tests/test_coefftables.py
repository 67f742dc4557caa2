import dataclasses
import math
import sys
from fractions import Fraction

import pytest

from eqmap import coefftables
from eqmap.algebra import LaurentPoly
from eqmap.coefftables import (
    build_c_table,
    check_diagonal_conjecture,
    double_factorial,
    leading_pole_data,
    phi_tilde,
    psi_tilde,
    reconstruction_holds,
    verify_binomial_identities,
    verify_operator_closed_forms,
    verify_parity_projection,
)
from eqmap.errors import InvalidParameterError


def test_row_zero():
    table = build_c_table(0)
    assert table.phi(0, 1) == 1
    assert table.psi(0, 1) == 1


def test_selected_printed_entries():
    table = build_c_table(4)
    assert table.phi(2, 2) == Fraction(-1, 30)
    assert table.phi(2, 3) == Fraction(4, 15)
    assert table.psi(1, 1) == Fraction(-1, 6)
    assert table.psi(4, 4) == Fraction(-2, 189)
    assert table.phi(4, 5) == table.psi(4, 5) == Fraction(16, 945)


def test_reconstruction_identity():
    table = build_c_table(6)
    for k in range(7):
        assert reconstruction_holds(table, k)


def test_reconstruction_rejects_printed_misprint():
    # the printed table carries c_psi(4,3) = -1/140; the identity needs +1/140
    table = build_c_table(4)
    assert table.psi(4, 3) == Fraction(1, 140)
    row = table.c_psi[4][:2] + (Fraction(-1, 140),) + table.c_psi[4][3:]
    printed = dataclasses.replace(table, c_psi=table.c_psi[:4] + (row,))
    assert reconstruction_holds(table, 4)
    assert not reconstruction_holds(printed, 4)


def test_diagonal_conjecture():
    assert check_diagonal_conjecture(8)
    table = build_c_table(8)
    assert table.phi(8, 9) == Fraction(2**8, double_factorial(17))


def test_operator_closed_forms_small_orders():
    for m in range(6):
        assert verify_operator_closed_forms(m)


def test_operator_m1_matches_hand_derivative():
    # one application to 1/T: -d/dT [T**2/(T**2-1) * 1/T] = (T**2+1)/(T**2-1)**2
    from eqmap.coefftables import _apply_operator
    from eqmap.algebra import LaurentPoly

    num, power = _apply_operator(LaurentPoly({-1: Fraction(1)}), 0, 1)
    assert power == 2
    assert num == LaurentPoly({2: Fraction(1), 0: Fraction(1)})


def test_parity_projection_small_orders():
    for k in range(6):
        assert verify_parity_projection(k)


def test_parity_projection_k0_by_hand():
    # at k = 0 both sides reduce to (T + 1/T)/(T - 1/T)**2 before clearing
    assert verify_parity_projection(0)


def test_binomial_identities():
    for m in range(1, 12):
        assert verify_binomial_identities(m)


def test_binomial_central_sum_m3():
    assert sum(math.comb(3, l) ** 2 for l in range(4)) == 20 == math.comb(6, 3)


def test_alternating_psi_sum_m3():
    got = sum((-1) ** l * math.comb(2, l) * math.comb(4, l + 1) for l in range(3))
    assert got == -4 == (-1) * 2**3 * double_factorial(1) // double_factorial(2)


def test_alternating_phi_sum_odd_vanishes():
    for m in (1, 3, 5, 7):
        assert sum((-1) ** l * math.comb(m, l) ** 2 for l in range(m + 1)) == 0


def test_leading_pole_data_supports_independence():
    # equal nonzero leading data at T=1, opposite (hence distinct) at T=-1
    for m in range(1, 8):
        want = Fraction(math.factorial(m) * math.comb(2 * m, m), 4**m)
        phi_p, phi_m = leading_pole_data(phi_tilde(m))
        psi_p, psi_m = leading_pole_data(psi_tilde(m))
        assert phi_p == psi_p == want != 0
        assert phi_m != psi_m
        assert phi_m == -psi_m != 0


def test_build_c_table_runtime_is_fast():
    import time

    build_c_table.cache_clear()  # solve rows 0..4 afresh
    t0 = time.perf_counter()
    build_c_table(4)
    assert time.perf_counter() - t0 < 1.0


def _count_rows(monkeypatch, solve=None):
    """Count _solve_row calls, made by solve (the real one by default)."""
    solved = []
    solve = solve or coefftables._solve_row

    def spy(k):
        solved.append(k)
        return solve(k)

    monkeypatch.setattr(coefftables, "_solve_row", spy)
    return solved


def test_growing_tables_solve_each_row_once(monkeypatch):
    solved = _count_rows(monkeypatch)
    for _ in range(2):  # cache_clear forgets every row
        build_c_table.cache_clear()
        tables = [build_c_table(k) for k in range(2, 13, 2)]
        assert sorted(solved) == list(range(13))
        solved.clear()
    for k, table in zip(range(2, 13, 2), tables):
        assert table.kmax == k and len(table.c_phi) == len(table.c_psi) == k + 1
        assert table.c_phi == tables[-1].c_phi[:k + 1] and table.c_psi == tables[-1].c_psi[:k + 1]


def test_build_c_table_past_the_recursion_limit(monkeypatch):
    # rows are stubbed; the lower tables are cached a stride at a time, so
    # the recursion stays shallow whatever kmax is
    kmax = sys.getrecursionlimit() + 100
    solved = _count_rows(monkeypatch, lambda k: ((Fraction(k),), (Fraction(-k),)))
    build_c_table.cache_clear()
    try:
        table = build_c_table(kmax)
        assert sorted(solved) == list(range(kmax + 1))
        assert table.kmax == kmax and table.c_phi[-1] == (kmax,) and table.c_psi[7] == (-7,)
    finally:
        build_c_table.cache_clear()  # no stubbed row may answer a later test


# ---- fraction-free elimination ---------------------------------------------


def _reference_solve_exact(rows, rhs):
    """Gauss-Jordan over Fractions, as the tables were solved before the
    fraction-free elimination; kept here as an independent reference."""
    m = len(rows)
    n = len(rows[0])
    a = [[Fraction(v) for v in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    piv_rows = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col] != 0), None)
        assert piv is not None
        a[r], a[piv] = a[piv], a[r]
        inv = Fraction(1) / a[r][col]
        a[r] = [v * inv for v in a[r]]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[r])]
        piv_rows.append(col)
        r += 1
        if r == n:
            break
    for i in range(r, m):
        assert all(v == 0 for v in a[i])
    sol = [Fraction(0)] * n
    for i, col in enumerate(piv_rows):
        sol[col] = a[i][n]
    return sol


def _row_system(k):
    """The integer system of row k in full: one equation per exponent of the
    cleared identity, one unknown per basis element.  Built here, apart from
    _solve_row, which hands the even and odd exponents over as two systems."""
    target = LaurentPoly({i: math.comb(2 * k + 2, i) for i in range(2 * k + 3)})
    basis = [f(m).cleared(k) for f in (phi_tilde, psi_tilde) for m in range(1, k + 2)]
    exps = sorted(set().union(*[set(b.coeffs) for b in basis], set(target.coeffs)))
    return [[b.coeff(e) for b in basis] for e in exps], [target.coeff(e) for e in exps]


def _handed_over(k):
    """The systems _solve_row(k) hands to _solve_exact."""
    seen = []
    real = coefftables._solve_exact

    def capture(rows, rhs):
        seen.append((rows, rhs))
        return real(rows, rhs)

    coefftables._solve_exact = capture
    try:
        coefftables._solve_row(k)
    finally:
        coefftables._solve_exact = real
    return seen


def test_solve_row_equals_fraction_gauss_jordan():
    for k in range(21):
        rows, rhs = _row_system(k)
        want = _reference_solve_exact(rows, rhs)
        row_phi, row_psi = coefftables._solve_row(k)
        got = list(row_phi) + list(row_psi)
        assert got == want
        assert all(type(v) is Fraction for v in got)


def test_solve_row_hands_over_an_int_matrix():
    for k in (0, 3, 8):
        systems = _handed_over(k)
        assert len(systems) == 2  # the even and the odd exponents
        assert sum(len(rows) for rows, _ in systems) == 4 * k + 3
        assert sum(len(rows[0]) for rows, _ in systems) == 2 * k + 2
        for rows, rhs in systems:
            assert len(rows) == len(rhs) and len({len(row) for row in rows}) == 1
            assert all(type(v) is int for v in rhs)
            assert all(type(v) is int for row in rows for v in row)


def test_reconstruction_holds_through_k12():
    table = build_c_table(12)
    for k in range(13):
        assert reconstruction_holds(table, k)


def test_solve_exact_rejects_a_perturbed_rhs():
    # every entry but the middle one: a unit change of the middle target
    # coefficient lies in the span of the basis and gives another solution
    rows, rhs = _row_system(6)
    row_phi, row_psi = coefftables._solve_row(6)
    assert coefftables._solve_exact(rows, rhs) == list(row_phi) + list(row_psi)
    for i in (0, 1, len(rhs) // 2 - 1, len(rhs) - 1):
        bad = list(rhs)
        bad[i] += 1
        with pytest.raises(RuntimeError, match="inconsistent"):
            coefftables._solve_exact(rows, bad)


def test_solve_exact_rejects_a_duplicated_column():
    rows, rhs = _row_system(5)
    dup = [row[:-1] + [row[0]] for row in rows]
    with pytest.raises(RuntimeError, match="singular|rank deficient"):
        coefftables._solve_exact(dup, rhs)


def test_solve_exact_rejects_too_few_equations():
    rows, rhs = _row_system(2)
    with pytest.raises(RuntimeError, match="rank deficient"):
        coefftables._solve_exact(rows[:3], rhs[:3])


def test_solve_exact_checks_every_equation_of_a_block():
    # the first len(rows[0]) equations fix the solution; a unit change of the
    # rhs inside them moves it, outside them it is only checked, and both are
    # caught by the check of every equation (the middle exponent is left out,
    # as above: its unit change lies in the span of the basis)
    for rows, rhs in _handed_over(8):
        for i in (0, 1, len(rows[0]), len(rows) - 1):
            bad = list(rhs)
            bad[i] += 1
            with pytest.raises(RuntimeError, match="inconsistent"):
                coefftables._solve_exact(rows, bad)


@pytest.mark.parametrize("kmax", [True, 2.5, "3", -1])
def test_build_c_table_rejects_a_bad_kmax(kmax):
    build_c_table(1)  # a cached entry must not answer for True
    build_c_table(2)
    with pytest.raises(InvalidParameterError, match="kmax"):
        build_c_table(kmax)


def test_binomial_powers_match_repeated_products():
    # cleared(k) and the (T + 1)**(2k+2) target were built by repeated
    # LaurentPoly products; the binomial theorem must give the same integers
    tm, tp = LaurentPoly({1: 1, -1: -1}), LaurentPoly({1: 1, 0: 1})
    table = build_c_table(12)
    for k in range(21):
        acc = LaurentPoly()
        for m in range(1, k + 2):
            for bf in (phi_tilde(m), psi_tilde(m)):
                want = (bf.numerator * tm ** (2 * (k + 1) - bf.denom_power)).shifted(k + 1)
                got = bf.cleared(k)
                assert got == want and set(got.coeffs) == set(want.coeffs)
                assert all(type(v) is int for v in got.coeffs.values())
                if k <= 12:
                    acc = acc + want * (table.phi if bf.kind == "phi" else table.psi)(k, m)
        if k <= 12:  # the rows solve for the repeated-product target
            assert acc == tp ** (2 * k + 2)
