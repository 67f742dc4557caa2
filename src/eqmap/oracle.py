"""Brute-force map census: enumerate every perfect matching of the half-edges
around labeled vertices, keep the connected ones, and stratify them by genus
and face count.

For a vertex set with fixed cyclic orders (the rotation permutation sigma)
and a matching involution alpha, the faces are the cycles of sigma o alpha
and the genus follows from V - E + F = 2 - 2g.  The counts are the Wick
pairings of the matrix integral, so dividing by the automorphisms of the
valence classes turns a genus-1 slice directly into a series coefficient of
the torus generating function; that is the cross-check the rest of the
package is tested against.

The enumeration is exhaustive, by orbits of the first pairing: relabellings
commuting with sigma and fixing half-edge 0 keep faces and components, as
does the mirror r (r sigma r^-1 = sigma^-1, r(0) = 0), since sigma r alpha
r^-1 is conjugate to (sigma alpha)^-1; partners of 0 in one orbit count alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .coefftables import double_factorial
from .endpoints import _require_face_weight, _require_int
from .errors import CensusSizeError, EqmapError, InvalidParameterError

__all__ = [
    "VertexProfile",
    "MapCensus",
    "census",
    "e1_coeff_from_census",
    "MAX_HALF_EDGES",
]

MAX_HALF_EDGES = 16


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

    @property
    def total_matchings(self):
        return self.connected + self.disconnected

    def genus_slice(self, genus):
        return {f: c for (g, f), c in self.entries.items() if g == genus}


def _rotation(profile):
    """Successor map of the fixed cyclic orders; half-edges are numbered
    consecutively vertex by vertex."""
    sigma = []
    start = 0
    for j, k in profile.valences:
        for _ in range(k):
            sigma.extend(start + (i + 1) % j for i in range(j))
            start += j
    return sigma


def _vertex_of(sigma):
    """Vertex index of each half-edge, recovered from the rotation cycles."""
    n = len(sigma)
    owner = [-1] * n
    v = 0
    for h in range(n):
        if owner[h] < 0:
            cur = h
            while owner[cur] < 0:
                owner[cur] = v
                cur = sigma[cur]
            v += 1
    return owner


def census(profile):
    """Full census for a valence profile.

    An odd half-edge total yields the empty census; totals beyond
    MAX_HALF_EDGES are refused (the matching count (H-1)!! explodes).
    One serial recursion pairs the first free half-edge with each other free
    one and carries the faces (open paths of sigma o alpha) and the
    components (a union-find over vertices), undoing both on backtrack.
    At the root it pairs half-edge 0 with one partner per orbit (offsets d
    and j0 - d at its vertex; all half-edges of the other vertices of one
    valence) and weights the leaves by the orbit size.  The sizes sum to
    n - 1, so the (n-1)!! total check still covers every partner.
    """
    profile = VertexProfile.of(profile)
    n = profile.half_edges
    if n % 2 == 1:
        return MapCensus(profile, {}, 0, 0)
    if n > MAX_HALF_EDGES:
        raise CensusSizeError("%d half-edges exceed the enumeration bound %d"
                              % (n, MAX_HALF_EDGES))
    if n == 0:
        return MapCensus(profile, {}, 0, 0)
    sigma = _rotation(profile)
    vertex_of = _vertex_of(sigma)
    n_vertices = profile.n_vertices
    # open paths of phi = sigma o alpha: head[e] is the first half-edge of the
    # path ending at e, tail[s] the last half-edge of the path starting at s
    head = list(range(n))
    tail = list(range(n))
    root = list(range(n_vertices))  # union-find over vertices, unions undone
    size = [1] * n_vertices
    by_faces = [0] * (n + 1)  # connected gluings per face count
    disconnected = 0
    free = list(range(n))  # free[k:] are the unpaired half-edges
    j0 = profile.valences[0][0]
    ends = list(accumulate(j * k for j, k in profile.valences))
    orbits = [(d, 2 - (2 * d == j0)) for d in range(1, j0 // 2 + 1)]
    orbits += [(a, b - a) for a, b in zip([j0] + ends, ends) if b > a]
    spans = [range(k + 1, n) for k in range(n)]  # spans[0]: one orbit's representative

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    def rec(k, faces, components):
        nonlocal disconnected
        h = free[k]
        if k == n - 2:  # the last pair is forced
            p = free[k + 1]
            # it closes two faces when h's path starts at sigma(p); the map is
            # connected when its union leaves one component
            if components == 1 or (components == 2 and
                                   find(vertex_of[h]) != find(vertex_of[p])):
                by_faces[faces + (2 if head[h] == sigma[p] else 1)] += weight
            else:
                disconnected += weight
            return
        sh = sigma[h]
        a = find(vertex_of[h])
        for i in spans[k]:
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

    for rep, weight in orbits:
        spans[0] = (rep,)
        rec(0, 0, n_vertices)
    entries = {}
    for faces, cnt in enumerate(by_faces):
        if cnt:
            g2 = 2 - n_vertices + n // 2 - faces
            if g2 % 2 or g2 < 0:
                raise EqmapError("Euler characteristic gives 2g = %d for a "
                                 "connected gluing" % g2)
            entries[(g2 // 2, faces)] = cnt
    out = MapCensus(profile, entries, sum(entries.values()), disconnected)
    expected = double_factorial(n - 1)
    if out.total_matchings != expected:
        raise EqmapError("census enumerated %d matchings of %d half-edges, expected %d"
                         % (out.total_matchings, n, expected))
    return out


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
