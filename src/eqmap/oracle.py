"""Brute-force map census: enumerate every perfect matching of the half-edges
around labeled vertices, keep the connected ones, and stratify them by genus
and face count.

For fixed cyclic orders (the rotation sigma) and a matching alpha, the faces
are the cycles of sigma o alpha and V - E + F = 2 - 2g gives the genus.  The
counts are the Wick pairings of the matrix integral: divided by the
automorphisms of the valence classes, a genus-1 slice is a series coefficient
of the torus generating function, the cross-check the package is tested against.

The enumeration walks orbits at every depth.  A vertex is touched once one
of its half-edges is paired or being paired.  Relabellings that commute with
sigma and fix every touched vertex keep the partial matching, faces and
components, and permute and rotate the untouched vertices of one valence j,
so the partners on those form one orbit of size j * (their number).  At the
root the mirror r (r sigma r^-1 = sigma^-1, r(0) = 0) also pairs the offsets
d and j0 - d of half-edge 0, as sigma r alpha r^-1 is conjugate to (sigma alpha)^-1.

One vertex of n > 4 half-edges peels its adjacent chords {i, i + 1 mod n}
instead (the one chord of two half-edges counts twice).  Let D_m(c, f)
count the matchings of m half-edges with c adjacent chords and f faces.
Removing the chord {0, 1} of M and relabelling h -> h - 2 gives M' on m - 2
half-edges: half-edge 1 is a fixed point of sigma o alpha, so f(M) = f(M') + 1,
and c(M) = 1 + c(M') - [alpha'(m - 3) = 0], the pair (m - 1, 2) being adjacent
in M' only.  The rotations keep c and f, so counting the pairs (M, i) with
alpha(i) = i + 1 gives, for c >= 1,

    D_m(c, f) = (m / c) sum_c' D_{m-2}(c', f - 1)
                * ([c' = c] c' / (m - 2) + [c' = c - 1] (1 - c' / (m - 2))),

over Fractions within one call, from D_2 = {(2, 2): 1}.  Only D_m(0, .) is
walked, by rotation classes.  If k(M) half-edges of M have a chord of the
least cyclic length, summing over them gives every rotation-invariant total
as m * sum f(M) / k(M) over the M whose chord at half-edge 0 is least.  So
half-edge 0 pairs at offset 2 <= d <= m / 2 (the mirror folds d with m - d),
no shorter chord is paired, and a leaf with c chords of length d (k(M) = 2c)
counts m / (2c) gluings.  Every D_m must total (m-1)!!.  A pruned pairing
adds its subtree's leaves to a pruned count, and so do the (n-3)!! leaves
under the root's offset 1, so the walk of n's leaves and pruned leaves equal
the unpruned walk's (5665 + 67100 = 72765 for n = 14).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .coefftables import double_factorial
from .endpoints import _require_face_weight
from .errors import CensusSizeError, EqmapError, InvalidParameterError, _require_int

__all__ = [
    "VertexProfile",
    "MapCensus",
    "census",
    "e1_coeff_from_census",
    "MAX_WALK_STEPS",
]

# 0.3-1.5 us per step, measured over 40 walks of 12-24 half-edges on a 2-core x86-64;
# a one-vertex walk is bounded by the same prediction, made without its pruning
MAX_WALK_STEPS = 3_000_000


@dataclass(frozen=True)
class VertexProfile:
    """Multiset of vertex valences: {valence: count}."""

    valences: tuple  # sorted ((j, count), ...)

    @classmethod
    def of(cls, spec):
        if isinstance(spec, VertexProfile):
            return spec
        for j, k in dict(spec).items():
            _require_int("valence", j, 1)
            _require_int("vertex count", k, 1)
        return cls(tuple(sorted((int(j), int(k)) for j, k in dict(spec).items())))

    @property
    def half_edges(self):
        return sum(j * k for j, k in self.valences)

    @property
    def n_vertices(self):
        return sum(k for _, k in self.valences)


@dataclass
class MapCensus:
    """Connected gluing counts per (genus, faces), plus bookkeeping totals."""

    profile: VertexProfile
    entries: dict  # (genus, faces) -> count
    connected: int
    disconnected: int
    leaves: int  # leaves the walk of n half-edges visited; each stands for its orbit's matchings
    pruned: int = 0  # leaves that walk counted without walking; neither counts the walks of m < n

    @property
    def total_matchings(self):
        return self.connected + self.disconnected

    def genus_slice(self, genus):
        return {f: c for (g, f), c in self.entries.items() if g == genus}


def census(profile):
    """Full census for a valence profile (empty for an odd half-edge total).

    One serial recursion pairs a free half-edge h of a touched vertex with
    each partner on a touched vertex and with one representative per class of
    untouched vertices, whose leaves count with the orbit size; the (n-1)!!
    total check covers every partner.  It carries the faces (open paths of
    sigma o alpha) and the components (a union-find over vertices), undone on
    backtrack.  One vertex of over 4 half-edges peels its adjacent chords
    and walks the rest by least chord (see the module docstring); leaves and
    pruned count that walk of n half-edges only, not the walks of the smaller
    m that the peeling also runs.  A walk predicted to take over
    MAX_WALK_STEPS steps is refused.
    """
    profile = VertexProfile.of(profile)
    n = profile.half_edges
    if n % 2 == 1 or n == 0:
        return MapCensus(profile, {}, 0, 0, 0)
    if n > 256:  # the walk recurses about 2.5 frames deep per half-edge
        raise CensusSizeError("%d half-edges exceed the walk's recursion bound 256" % n)
    valence, count = zip(*profile.valences)
    j0, start = valence[0], (count[0] - 1, *count[1:])
    predicted, steps = _walk(valence, j0, start)
    if j0 > 2:  # the root walks j0 // 2 of the j0 - 1 partners on its own vertex
        below, skipped = _walk(valence, j0 - 2, start), j0 - 1 - j0 // 2
        predicted, steps = predicted - skipped * below[0], steps - skipped * (below[1] + 1)
    _walk.cache_clear()  # another profile shares no state with this one
    if steps > MAX_WALK_STEPS:
        raise CensusSizeError("the census walk of %r would take %d steps, over the bound %d"
                              % (dict(profile.valences), steps, MAX_WALK_STEPS))
    n_vertices = profile.n_vertices
    sigma, vertex_of = [], []  # successor map of the cyclic orders; vertex of each half-edge
    for v, j in enumerate(j for j, k in profile.valences for _ in range(k)):
        sigma += [len(sigma) + (i + 1) % j for i in range(j)]
        vertex_of += [v] * j
    # open paths of phi = sigma o alpha: head[e] is the first half-edge of the
    # path ending at e, tail[s] the last half-edge of the path starting at s
    head, tail = list(range(n)), list(range(n))
    root, size = list(range(n_vertices)), [1] * n_vertices  # union-find, unions undone
    by_faces, disconnected = [0] * (n + 1), 0  # connected gluings per face count
    leaves = pruned = 0
    # free[k:m] are the free half-edges of touched vertices, spans[m][k] the
    # partners of free[k] among them; class c's touched vertices are its first touched[c]
    free = list(range(n))
    first = [0, *accumulate(j * k for j, k in profile.valences)]
    touched, untouched, m, weight = [0] * len(count), n_vertices, 0, 1
    spans = [[range(k + 1, m) for k in range(m)] for m in range(n + 1)]

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    def touch(c, k, faces, components, span, scale):  # class c's next vertex; walk on from k
        nonlocal untouched, m, weight
        j, t, m0, w0 = valence[c], touched[c], m, weight
        free[m0:m0 + j] = range(first[c] + t * j, first[c] + t * j + j)
        touched[c], untouched, m, weight = t + 1, untouched - 1, m0 + j, w0 * scale
        rec(k, faces, components, span)
        touched[c], untouched, m, weight = t, untouched + 1, m0, w0

    def rec(k, faces, components, span=None):
        nonlocal disconnected, leaves
        if k == n:
            leaves += 1
            if components == 1:
                by_faces[faces] += weight
            else:
                disconnected += weight
            return
        if k == m:  # no touched half-edge is free
            c = next(c for c, t in enumerate(touched) if t < count[c])
            return touch(c, k, faces, components, span, 1)
        h = free[k]
        sh, a = sigma[h], components > 1 and find(vertex_of[h])  # h's component, if several
        last = k == n - 4 and m == n
        for i in span or spans[m][k]:
            p = free[i]
            free[i], free[k + 1] = free[k + 1], p
            sp = sigma[p]
            # pairing h with p adds the arrows h -> sp and p -> sh of phi; an
            # arrow closes a face when it meets its own path's start
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
            if components > 1 and a != (b := find(vertex_of[p])):  # one component: b is a
                big, small = (a, b) if size[a] >= size[b] else (b, a)
                root[small] = big
                size[big] += size[small]
                rec(k + 2, f, components - 1)
                root[small] = small
                size[big] -= size[small]
            elif last:  # the pair q, r left is forced: two faces close when q's
                # path starts at sigma(r); one component left means connected
                q, r = free[k + 2], free[k + 3]
                leaves += 1
                if components == 1 or components == 2 and find(vertex_of[q]) != find(vertex_of[r]):
                    by_faces[f + (2 if head[q] == sigma[r] else 1)] += weight
                else:
                    disconnected += weight
            else:
                rec(k + 2, f, components)
            if s2 != sh:
                tail[s2], head[e2] = p, sh
            if s1 != sp:
                tail[s1], head[e1] = h, sp
            free[k + 1], free[i] = free[i], p
        if untouched and not span:  # one representative per class of untouched vertices
            for c, t in enumerate(touched):
                if t < count[c]:
                    touch(c, k, faces, components, (m,), valence[c] * (count[c] - t))

    if n_vertices == 1 and n > 4:  # adjacent chords peeled, see the module docstring
        table, leaves, pruned = _adjacent_chords(n)
        by_faces = [0] * (n + 1)
        for (_, f), w in table.items():
            by_faces[f] += w
    else:
        half = (j0 + 1) // 2  # the root's offsets d < j0 / 2 stand for d and j0 - d
        spans[j0][0] = range(half, j0 // 2 + 1)
        if half > 1:
            touch(0, 0, 0, n_vertices, range(1, half), 2)
        touch(0, 0, 0, n_vertices, None, 1)
    entries = {}
    for faces, cnt in enumerate(by_faces):
        if cnt:
            g2 = 2 - n_vertices + n // 2 - faces
            if g2 % 2 or g2 < 0:
                raise EqmapError("Euler characteristic gives 2g = %d for a connected gluing" % g2)
            entries[(g2 // 2, faces)] = cnt
    out = MapCensus(profile, entries, sum(entries.values()), disconnected, leaves, pruned)
    expected = double_factorial(n - 1)
    if out.total_matchings != expected or leaves + pruned != predicted:
        raise EqmapError("census enumerated %d matchings of %d half-edges over %d + %d pruned "
                         "leaves, expected %d over %d"
                         % (out.total_matchings, n, leaves, pruned, expected, predicted))
    return out


def _adjacent_chords(n):
    """(D_n, leaves, pruned) for one vertex of n >= 4 half-edges (see the module
    docstring).  D_m maps (c, f) to the number of matchings of m half-edges
    with c adjacent chords and f faces: D_m(0, .) by the least-chord walk of m
    from length 2, the rest by peeling a chord off D_{m-2}.  leaves and pruned
    are the walk of n's, with the (n-3)!! leaves under the root's offset 1
    counted as pruned; the walks of fewer half-edges count in neither."""
    table = {(2, 2): 1}  # the one chord of two half-edges is adjacent both ways
    for m in range(4, n + 1, 2):
        bins, leaves, pruned = _least_chords(m)
        peeled = {(0, f): sum(Fraction(m * row[f], 2 * c)
                              for c, row in enumerate(bins) if c and row[f])
                  for f in range(m + 1)}
        for c, f in {(c + e, f + 1) for c, f in table for e in (0, 1) if c + e}:
            # the pair (m - 1, 2) is adjacent in the peeled matching only, and
            # a chord there in c' of the m - 2 rotations of that matching
            peeled[c, f] = Fraction(m * (c * table.get((c, f - 1), 0)
                                         + (m - 1 - c) * table.get((c - 1, f - 1), 0)), c * (m - 2))
        if any(w.denominator != 1 for w in peeled.values()):
            raise EqmapError("adjacent-chord counts of %d half-edges give non-integral face "
                             "counts %s" % (m, peeled))
        table = {key: int(w) for key, w in peeled.items() if w}
        if sum(table.values()) != double_factorial(m - 1):
            raise EqmapError("adjacent-chord counts of %d half-edges total %d, expected %d"
                             % (m, sum(table.values()), double_factorial(m - 1)))
    return table, leaves, pruned + double_factorial(n - 3)


def _least_chords(n):
    """(bins, leaves, pruned) of the least-chord walk of one vertex of n >= 4
    half-edges from length 2 (see the module docstring): bins[c][f] counts the
    leaves with f faces and c chords of the root's length d, twice for d < n / 2."""
    head, tail, free = list(range(n)), list(range(n)), list(range(n))
    below = [double_factorial(r - 1) for r in range(n + 1)]  # leaves under r free half-edges
    bins, leaves, pruned = [[0] * (n + 1) for _ in range(n // 2 + 1)], 0, 0

    def walk(k, faces, c):
        nonlocal leaves, pruned
        h = free[k]
        sh = (h + 1) % n
        for i in range(k + 1, n) if k else (d,):
            p = free[i]
            t = kind[p - h]
            if t is None:
                pruned += below[n - k - 2]
                continue
            free[i], free[k + 1] = free[k + 1], p
            sp = (p + 1) % n
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
            if k < n - 4:
                walk(k + 2, f, c + t)
            elif (u := kind[free[k + 3] - free[k + 2]]) is None:  # the forced last pair
                pruned += 1
            else:
                leaves += 1
                bins[c + t + u][f + (2 if head[free[k + 2]] == (free[k + 3] + 1) % n else 1)] += w
            if s2 != sh:
                tail[s2], head[e2] = p, sh
            if s1 != sp:
                tail[s1], head[e1] = h, sp
            free[k + 1], free[i] = free[i], p

    for d in range(2, n // 2 + 1):  # kind[p - h]: None below length d, 1 at d, else 0
        kind = [None if min(x, n - x) < d else int(min(x, n - x) == d) for x in range(n)]
        w = 2 if 2 * d < n else 1
        walk(0, 0, 0)
    return bins, leaves, pruned


@lru_cache(maxsize=None)
def _walk(valence, r, untouched):
    """(leaves, steps) of the census walk from a node, fixed by its r free
    touched half-edges and its untouched vertices per valence class.  A step
    is one pairing; touching a vertex costs four steps (measured)."""
    leaves = steps = 0
    for c, u in enumerate(untouched):
        if u:
            below = _walk(valence, r + valence[c] - 2 if r else valence[c],
                          untouched[:c] + (u - 1,) + untouched[c + 1:])
            if r == 0:  # the next untouched vertex is touched
                return below[0], below[1] + 4
            leaves, steps = leaves + below[0], steps + below[1] + 5
    if r > 1:
        below = _walk(valence, r - 2, untouched)
        leaves, steps = leaves + (r - 1) * below[0], steps + (r - 1) * (below[1] + 1)
    return leaves or 1, steps  # a node with no partner is a complete matching


def e1_coeff_from_census(profile, x=1.0, census_table=None):
    """Series coefficient of prod_j t_j**k_j in e1, from the genus-1 slice.

    Each connected genus-1 gluing contributes x**faces; the sign and the
    symmetry division (-1)**k_j / k_j! per valence class convert the raw Wick
    count into the generating-function coefficient.  The result is an exact
    Fraction (x is taken at its exact binary value).
    """
    profile = VertexProfile.of(profile)
    _require_face_weight(x)
    if census_table is None:
        census_table = census(profile)
    elif census_table.profile != profile:
        raise InvalidParameterError("census_table is for profile %r, not %r" % (
            dict(census_table.profile.valences), dict(profile.valences)))
    factor = Fraction(1)
    for _, k in profile.valences:
        factor *= Fraction((-1) ** k, math.factorial(k))
    x = Fraction(x)
    return factor * sum(cnt * x ** f for f, cnt in census_table.genus_slice(1).items())
