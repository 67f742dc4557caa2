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
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .coefftables import double_factorial
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
        items = tuple(sorted((int(j), int(k)) for j, k in dict(spec).items()))
        for j, k in items:
            if j < 1 or k < 1:
                raise ValueError("valences and counts must be positive")
        return cls(items)

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


def _census_entries(sigma, first_partner=None):
    """Enumerate matchings (optionally pinning half-edge 0's partner) and
    tally connected ones by (genus, faces)."""
    n = len(sigma)
    vertex_of = _vertex_of(sigma)
    n_vertices = len(set(vertex_of))
    entries = {}
    disconnected = 0
    partner = [-1] * n

    def finish():
        nonlocal disconnected
        faces = _count_cycles(sigma, partner)
        if _is_connected(vertex_of, partner, n_vertices):
            g2 = 2 - n_vertices + n // 2 - faces
            if g2 % 2 or g2 < 0:
                raise EqmapError("Euler characteristic gives 2g = %d for a "
                                 "connected gluing" % g2)
            key = (g2 // 2, faces)
            entries[key] = entries.get(key, 0) + 1
        else:
            disconnected += 1

    def rec(unmatched):
        if not unmatched:
            finish()
            return
        h = unmatched[0]
        rest = unmatched[1:]
        for i, p in enumerate(rest):
            partner[h] = p
            partner[p] = h
            rec(rest[:i] + rest[i + 1:])
        partner[h] = -1

    if first_partner is None:
        rec(list(range(n)))
    else:
        partner[0] = first_partner
        partner[first_partner] = 0
        rec([h for h in range(1, n) if h != first_partner])
    return entries, disconnected


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


def _count_cycles(sigma, partner):
    n = len(sigma)
    seen = [False] * n
    cycles = 0
    for h in range(n):
        if not seen[h]:
            cycles += 1
            cur = h
            while not seen[cur]:
                seen[cur] = True
                cur = sigma[partner[cur]]
    return cycles


def _is_connected(vertex_of, partner, n_vertices):
    if n_vertices == 1:
        return True
    adj = {}
    for h, p in enumerate(partner):
        a, b = vertex_of[h], vertex_of[p]
        adj.setdefault(a, set()).add(b)
    seen = {0}
    stack = [0]
    while stack:
        for nb in adj.get(stack.pop(), ()):
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == n_vertices


def _branch(args):
    sigma, first = args
    return _census_entries(sigma, first)


def census(profile, threads=None):
    """Full census for a valence profile.

    An odd half-edge total yields the empty census; totals beyond
    MAX_HALF_EDGES are refused (the matching count (H-1)!! explodes).
    Parallel runs split on the first pairing choice; set the EQMAP_THREADS
    environment variable or pass ``threads`` explicitly.
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
    if threads is None:
        threads = _env_threads()
    workers = _worker_count(threads, n)
    if workers > 1 and n >= 8:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_branch, [(sigma, p) for p in range(1, n)]))
    else:
        parts = [_census_entries(sigma, p) for p in range(1, n)]
    entries = {}
    disconnected = 0
    for ent, dis in parts:
        disconnected += dis
        for key, cnt in ent.items():
            entries[key] = entries.get(key, 0) + cnt
    out = MapCensus(profile, entries, sum(entries.values()), disconnected)
    expected = double_factorial(n - 1)
    if out.total_matchings != expected:
        raise EqmapError("census enumerated %d matchings of %d half-edges, expected %d"
                         % (out.total_matchings, n, expected))
    return out


def _env_threads():
    """Census worker request from EQMAP_THREADS (default 1)."""
    raw = os.environ.get("EQMAP_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise InvalidParameterError("EQMAP_THREADS must be an integer >= 1, got %r" % raw)
    return threads


def _worker_count(threads, n):
    """Processes for a census of n half-edges: one branch per partner of
    half-edge 0 at most, and no more than the machine's cores."""
    return min(threads, n - 1, os.cpu_count() or 1)


def e1_coeff_from_census(profile, x=1.0, census_table=None):
    """Series coefficient of prod_j t_j**k_j in e1, from the genus-1 slice.

    Each connected genus-1 gluing contributes x**faces; the sign and the
    symmetry division (-1)**k_j / k_j! per valence class convert the raw Wick
    count into the generating-function coefficient.
    """
    profile = VertexProfile.of(profile)
    if census_table is None:
        census_table = census(profile)
    factor = 1.0
    for _, k in profile.valences:
        factor *= (-1.0) ** k / math.factorial(k)
    return factor * sum(cnt * float(x) ** f
                        for f, cnt in census_table.genus_slice(1).items())
