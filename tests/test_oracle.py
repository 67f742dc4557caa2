from fractions import Fraction

import pytest

from eqmap import oracle
from eqmap.endpoints import PotentialSpec
from eqmap.errors import CensusSizeError, EqmapError, InvalidParameterError
from eqmap.genfun import e1_series
from eqmap.oracle import MAX_WALK_STEPS, census, e1_coeff_from_census


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


@pytest.mark.parametrize("profile,bad", [
    ({4.5: 1}, "4.5"), ({0: 2}, "0"), ({4: 0}, "0"), ({4: 1.5}, "1.5"), ({-4: 1}, "-4"),
    ({4: 2.0}, "2.0")])
def test_census_refuses_a_bad_profile_by_name(profile, bad):
    # a fractional valence is refused, not counted as its integer part
    with pytest.raises(EqmapError, match="must be an int") as info:
        census(profile)
    assert isinstance(info.value, ValueError) and bad in str(info.value)


def test_census_size_bound():
    with pytest.raises(CensusSizeError):
        census({18: 1})


def test_census_size_bound_names_the_predicted_walk():
    # {4: 6} would walk 3403242 leaves in 9783327 steps; it is refused before walking
    assert MAX_WALK_STEPS < 9783327
    with pytest.raises(CensusSizeError, match=r"\{4: 6\} would take 9783327 steps"):
        census({4: 6})
    with pytest.raises(CensusSizeError, match="258 half-edges"):
        census({1: 258})
    assert census({1: 256}).leaves == 1  # every pairing of valence-1 vertices is one orbit


def test_census_walks_one_leaf_per_orbit():
    # the leaves the orbit walk visits, against the (n-1)!! = 2027025,
    # 135135 and 135135 matchings they stand for
    assert census({4: 4}).leaves == 7047
    assert census({3: 2, 4: 2}).leaves == 1569
    # one vertex: the leaves whose every chord is at least as long as the root's
    assert census({14: 1}).leaves == 16060


def test_one_vertex_walk_counts_every_pruned_leaf():
    # the root walks offsets 1..n of 2n half-edges, each over (2n-3)!! leaves,
    # and every leaf is walked or counted pruned
    for n in range(3, 8):
        cens = census({2 * n: 1})
        assert cens.leaves + cens.pruned == n * dfact(2 * n - 3)
        assert cens.pruned > 0
    assert census({14: 1}).pruned == 72765 - 16060
    assert census({4: 4}).pruned == census({3: 2, 4: 2}).pruned == census({4: 1}).pruned == 0


def test_one_vertex_census_refuses_a_non_integral_weighted_count(monkeypatch):
    real = oracle._least_chords

    def one_more(n):  # one more leaf with two chords of the least length
        bins, leaves, pruned = real(n)
        bins[2][4] += 1
        return bins, leaves, pruned

    monkeypatch.setattr(oracle, "_least_chords", one_more)
    with pytest.raises(EqmapError, match="non-integral face counts"):
        census({14: 1})  # the leaf would stand for 14 / 4 gluings


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
    assert e1_coeff_from_census({4: 1}, 1.0) == -1
    assert e1_coeff_from_census({4: 1}, 2.0) == -2


def test_e1_coeff_two_quartic_vertices():
    assert e1_coeff_from_census({4: 2}, 1.0) == 30


def test_e1_coeff_is_exact_fraction():
    # 3/2 is a binary float, so every power of it stays exact
    got = e1_coeff_from_census({4: 2}, 1.5)
    assert isinstance(got, Fraction)
    assert got == Fraction(1, 2) * (60 * Fraction(3, 2) ** 2)


def test_disconnected_pairings_counted():
    cens = census({2: 2})  # two loops can stay separate
    assert cens.disconnected > 0
    assert cens.connected + cens.disconnected == dfact(3)


def test_thread_environment_is_ignored(monkeypatch):
    # the census has no worker count; a stale EQMAP_THREADS changes nothing
    expected = census({4: 2})
    monkeypatch.setenv("EQMAP_THREADS", "two")
    assert census({4: 2}) == expected


@pytest.mark.parametrize("profile,order", [({4: 1}, 1), ({4: 2}, 2), ({3: 2}, 2),
                                           ({6: 1}, 1)])
def test_series_coefficients_match_census(profile, order):
    (j, k), = profile.items()
    for x in (1.0, 2.0):
        ser = e1_series(PotentialSpec(x, {j: 0.0}), order=order)
        got = ser.coeff(profile)
        want = e1_coeff_from_census(profile, x)
        assert got == pytest.approx(want, abs=1e-8 * max(1, abs(want)))


@pytest.mark.parametrize("profile", [{4: 5}, {3: 6}])
def test_series_coefficients_match_census_past_sixteen_half_edges(profile):
    # 20 and 18 half-edges, walked by orbits under the step bound
    (j, k), = profile.items()
    cens = census(profile)
    for x in (1.0, 2.0):
        got = e1_series(PotentialSpec(x, {j: 0.0}), order=k).coeff(profile)
        want = e1_coeff_from_census(profile, x, cens)
        assert got == pytest.approx(want, abs=1e-8 * max(1, abs(want)))
    if profile == {4: 5}:
        assert e1_coeff_from_census(profile, 1.0, cens) == Fraction(-8004096, 5)


def test_mixed_profile_series_coefficient_matches_census():
    # a genuinely mixed profile exercises the multi-direction jets
    profile = {3: 2, 4: 1}
    fam = PotentialSpec(1.0, {3: 0.0, 4: 0.0})
    ser = e1_series(fam, order=3)
    got = ser.coeff(profile)
    want = e1_coeff_from_census(profile, 1.0)
    assert got == pytest.approx(want, rel=1e-8)


def harer_zagier(nmax):
    """eps[n][g]: gluings of a 2n-gon into a genus-g surface, from the
    Harer-Zagier recursion (Invent. Math. 1986) alone."""
    eps = [{0: 1}]
    for n in range(1, nmax + 1):
        row = {}
        for g in range(n // 2 + 1):
            num = 2 * (2 * n - 1) * eps[n - 1].get(g, 0)
            if n >= 2 and g >= 1:
                num += (n - 1) * (2 * n - 1) * (2 * n - 3) * eps[n - 2].get(g - 1, 0)
            if num:
                row[g] = num // (n + 1)
                assert row[g] * (n + 1) == num
        eps.append(row)
    return eps


def test_one_vertex_counts_are_harer_zagier():
    eps = harer_zagier(8)
    assert eps[4] == {0: 14, 1: 70, 2: 21}  # printed in Harer-Zagier's table
    for n in range(1, 9):
        cens = census({2 * n: 1})
        assert {g: c for (g, f), c in cens.entries.items()} == eps[n], n
        assert all(f == n + 1 - 2 * g for g, f in cens.entries)


def brute_force_census(profile):
    """Census by brute force over complete matchings: faces as the cycles of
    sigma o alpha, connectivity by a depth-first search over vertices."""
    sigma, vertex = [], []
    v = 0
    for j, k in sorted(profile.items()):
        for _ in range(k):
            base = len(sigma)
            sigma += [base + (i + 1) % j for i in range(j)]
            vertex += [v] * j
            v += 1
    n = len(sigma)

    def matchings(free):
        if not free:
            yield {}
            return
        h, rest = free[0], free[1:]
        for i, p in enumerate(rest):
            for m in matchings(rest[:i] + rest[i + 1:]):
                m[h], m[p] = p, h
                yield m

    entries, disconnected = {}, 0
    if n % 2:
        return entries, disconnected
    for alpha in matchings(list(range(n))):
        seen, faces = set(), 0
        for h in range(n):
            if h not in seen:
                faces += 1
                while h not in seen:
                    seen.add(h)
                    h = sigma[alpha[h]]
        reached, stack = {0}, [0]
        while stack:
            u = stack.pop()
            for h in range(n):
                w = vertex[alpha[h]]
                if vertex[h] == u and w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) < v:
            disconnected += 1
            continue
        genus = (2 - v + n // 2 - faces) // 2
        entries[(genus, faces)] = entries.get((genus, faces), 0) + 1
    return entries, disconnected


def partitions(total, largest):
    if total == 0:
        yield {}
        return
    for j in range(min(total, largest), 0, -1):
        for rest in partitions(total - j, j):
            yield {**rest, j: rest.get(j, 0) + 1}


def test_census_matches_brute_force_up_to_ten_half_edges():
    profiles = [p for total in range(1, 11) for p in partitions(total, total)]
    assert len(profiles) == 138  # partitions of 1..10
    for profile in profiles:
        cens = census(profile)
        entries, disconnected = brute_force_census(profile)
        assert (cens.entries, cens.disconnected) == (entries, disconnected), profile
        assert cens.connected == sum(entries.values())


def serial_census(profile):
    """Reference census without root orbits: one recursion pairs the first
    free half-edge with every other free one, carrying the open paths of
    sigma o alpha and an undone union-find over vertices.  Returns
    (entries, disconnected)."""
    sigma, vertex_of, n_vertices = [], [], 0
    for j, k in sorted(profile.items()):
        for _ in range(k):
            base = len(sigma)
            sigma += [base + (i + 1) % j for i in range(j)]
            vertex_of += [n_vertices] * j
            n_vertices += 1
    n = len(sigma)
    head, tail, free = list(range(n)), list(range(n)), list(range(n))
    root, size = list(range(n_vertices)), [1] * n_vertices
    by_faces, disconnected = [0] * (n + 1), [0]

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    def rec(k, faces, components):
        h = free[k]
        if k == n - 2:
            p = free[k + 1]
            if components == 1 or (components == 2 and
                                   find(vertex_of[h]) != find(vertex_of[p])):
                by_faces[faces + (2 if head[h] == sigma[p] else 1)] += 1
            else:
                disconnected[0] += 1
            return
        sh = sigma[h]
        a = find(vertex_of[h])
        for i in range(k + 1, n):
            p = free[i]
            free[i], free[k + 1] = free[k + 1], p
            sp = sigma[p]
            f = faces
            s1, e1 = head[h], tail[sp]
            if s1 == sp:
                f += 1
            else:
                tail[s1], head[e1] = e1, s1
            s2, e2 = head[p], tail[sh]
            if s2 == sh:
                f += 1
            else:
                tail[s2], head[e2] = e2, s2
            b = find(vertex_of[p])
            if a == b:
                rec(k + 2, f, components)
            else:
                big, small = (a, b) if size[a] >= size[b] else (b, a)
                root[small] = big
                size[big] += size[small]
                rec(k + 2, f, components - 1)
                root[small] = small
                size[big] -= size[small]
            if s2 != sh:
                tail[s2], head[e2] = p, sh
            if s1 != sp:
                tail[s1], head[e1] = h, sp
            free[k + 1], free[i] = free[i], p

    rec(0, 0, n_vertices)
    entries = {((2 - n_vertices + n // 2 - f) // 2, f): c for f, c in enumerate(by_faces) if c}
    return entries, disconnected[0]


def test_root_orbit_census_equals_serial_recursion_at_twelve_half_edges():
    # every profile of 12 half-edges, against the unweighted recursion; the
    # brute-force test above covers every profile up to 10
    profiles = list(partitions(12, 12))
    assert len(profiles) == 77
    for profile in profiles:
        cens = census(profile)
        entries, disconnected = serial_census(profile)
        assert (cens.entries, cens.disconnected) == (entries, disconnected), profile
        assert cens.connected == sum(entries.values())


def test_census_of_four_quartic_vertices():
    cens = census({4: 4})
    assert cens.total_matchings == dfact(15)
    assert (cens.connected, cens.disconnected) == (1880064, 146961)
    # 145152 = 378 rooted planar quadrangulations with 4 faces * 4! 4^4 / 16
    assert cens.entries == {(0, 6): 145152, (1, 4): 964224, (2, 2): 770688}


@pytest.mark.parametrize("x", [float("nan"), float("inf"), 0.0, -1.0])
def test_e1_coeff_refuses_a_bad_face_weight(x):
    with pytest.raises(InvalidParameterError, match="face weight x"):
        e1_coeff_from_census({4: 2}, x)


def test_e1_coeff_refuses_a_census_of_another_profile():
    # a {4: 1} census read as {4: 2} once gave 1/2; the coefficient is 30
    with pytest.raises(InvalidParameterError, match=r"\{4: 1\}.*\{4: 2\}"):
        e1_coeff_from_census({4: 2}, 1.0, census({4: 1}))
    assert e1_coeff_from_census({4: 2}, 1.0, census({4: 2})) == 30
