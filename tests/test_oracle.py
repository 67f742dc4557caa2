import pytest

import eqmap.oracle as oracle
from eqmap.endpoints import PotentialSpec
from eqmap.errors import CensusSizeError, InvalidParameterError
from eqmap.genfun import e1_series
from eqmap.oracle import census, e1_coeff_from_census


def dfact(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def catalan(n):
    # independent recurrence, not the closed form used anywhere else
    c = [1]
    for m in range(n):
        c.append(sum(c[i] * c[m - i] for i in range(m + 1)))
    return c[n]


def test_single_four_valent_vertex():
    cens = census({4: 1})
    assert cens.total_matchings == 3
    assert cens.disconnected == 0
    assert cens.entries == {(0, 3): 2, (1, 1): 1}


def test_single_two_valent_vertex():
    cens = census({2: 1})
    assert cens.entries == {(0, 2): 1}


def test_two_one_valent_vertices():
    cens = census({1: 2})
    assert cens.entries == {(0, 1): 1}


def test_odd_half_edge_total_gives_empty_census():
    cens = census({3: 1})
    assert cens.entries == {} and cens.total_matchings == 0


def test_census_size_bound():
    with pytest.raises(CensusSizeError):
        census({18: 1})


def test_total_count_is_double_factorial():
    for profile in ({4: 2}, {3: 2}, {6: 1}, {2: 3}):
        cens = census(profile)
        n = cens.profile.half_edges
        assert cens.total_matchings == dfact(n - 1)


def test_euler_consistency():
    for profile in ({4: 2}, {3: 2}, {5: 2}, {4: 1, 2: 1}):
        cens = census(profile)
        V = cens.profile.n_vertices
        E = cens.profile.half_edges // 2
        for (g, f), cnt in cens.entries.items():
            assert V - E + f == 2 - 2 * g
            assert g >= 0 and cnt > 0


def test_one_vertex_planar_counts_are_catalan():
    for n in (1, 2, 3, 4, 5):
        cens = census({2 * n: 1})
        planar = sum(c for (g, f), c in cens.entries.items() if g == 0)
        assert planar == catalan(n)


def test_one_vertex_total_is_odd_double_factorial():
    for n in (2, 3, 4):
        cens = census({2 * n: 1})
        assert cens.connected == dfact(2 * n - 1)  # one vertex: always connected
        assert cens.disconnected == 0


def test_e1_coeff_single_quartic_vertex():
    assert e1_coeff_from_census({4: 1}, 1.0) == pytest.approx(-1.0)
    assert e1_coeff_from_census({4: 1}, 2.0) == pytest.approx(-2.0)


def test_e1_coeff_two_quartic_vertices():
    assert e1_coeff_from_census({4: 2}, 1.0) == pytest.approx(30.0)


def test_disconnected_pairings_counted():
    cens = census({2: 2})  # two loops can stay separate
    assert cens.disconnected > 0
    assert cens.connected + cens.disconnected == dfact(3)


def test_census_parallel_matches_serial():
    serial = census({4: 2}, threads=1)
    parallel = census({4: 2}, threads=2)
    assert serial.entries == parallel.entries
    assert serial.disconnected == parallel.disconnected


def test_census_thread_count_from_environment(monkeypatch):
    monkeypatch.setenv("EQMAP_THREADS", "2")
    assert census({4: 2}).entries == census({4: 2}, threads=1).entries


@pytest.mark.parametrize("threads,n,cores,want", [
    (4, 10, 2, 2),     # capped by the cores
    (4, 10, None, 1),  # core count unknown
    (8, 4, 16, 3),     # capped by the n - 1 branches
    (2, 10, 16, 2),    # the request itself
])
def test_worker_count_is_capped(monkeypatch, threads, n, cores, want):
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: cores)
    assert oracle._worker_count(threads, n) == want


@pytest.mark.parametrize("value", ["0", "-2", "1.5", "two", ""])
def test_invalid_thread_environment_rejected(monkeypatch, value):
    monkeypatch.setenv("EQMAP_THREADS", value)
    with pytest.raises(InvalidParameterError, match="EQMAP_THREADS"):
        census({4: 1})


@pytest.mark.parametrize("profile,order", [({4: 1}, 1), ({4: 2}, 2), ({3: 2}, 2),
                                           ({6: 1}, 1)])
def test_series_coefficients_match_census(profile, order):
    (j, k), = profile.items()
    for x in (1.0, 2.0):
        ser = e1_series(PotentialSpec(x, {j: 0.0}), order=order)
        got = ser.coeff(profile)
        want = e1_coeff_from_census(profile, x)
        assert got == pytest.approx(want, abs=1e-8 * max(1, abs(want)))


def test_mixed_profile_series_coefficient_matches_census():
    # a genuinely mixed profile exercises the multi-direction jets
    profile = {3: 2, 4: 1}
    fam = PotentialSpec(1.0, {3: 0.0, 4: 0.0})
    ser = e1_series(fam, order=3)
    got = ser.coeff(profile)
    want = e1_coeff_from_census(profile, 1.0)
    assert got == pytest.approx(want, rel=1e-8)
