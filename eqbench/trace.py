"""Per-layer tracing from outside the package.

:class:`Tracer` wraps the public functions of each eqmap layer (the
modules) and rebinds every ``eqmap`` module attribute that holds the
original, so calls between layers pass through the wrapper too.  Each wrapped
call is a span (name, start, end, parent) kept in memory; ``Jet.__mul__`` and
``LaurentPoly.__mul__`` are only counted, since they run far too often for a
span each.  Wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.uninstall`, so untraced passes run the plain program.
"""

from __future__ import annotations

import json
import sys
import time

import eqmap
from eqmap.errors import NoOneCutSolutionError

# (layer, function); the metric names are "<function>.calls" and
# "<function>.self_s".
SPANNED = [
    ("endpoints", "solve_endpoints"),
    ("endpoints", "uz_jets"),
    ("endpoints", "endpoint_residuals"),
    ("hfunc", "h_classical"),
    ("hfunc", "h_general"),
    ("hfunc", "h_even"),
    ("hfunc", "h_left_variant"),
    ("hfunc", "phi_psi"),
    ("coefftables", "build_c_table"),
    ("measure", "total_mass"),
    ("measure", "variational_report"),
    ("correlators", "correlator_context"),
    ("correlators", "apply_K"),
    ("genfun", "e1_value"),
    ("genfun", "e1_series"),
    ("oracle", "census"),
]
# Solves that end in NoOneCutSolutionError, counted again under this name.
FOLD = "endpoints.fold"
COUNTED = [("algebra.jet_mul", eqmap.Jet), ("algebra.laurent_mul", eqmap.LaurentPoly)]
MATCHINGS = "oracle.matchings"


def metric_names():
    """Every count and self time one traced pass reports, in a fixed order."""
    names = []
    for _, fn in SPANNED:
        names += [fn + ".calls", fn + ".self_s"]
    names += [FOLD + ".calls", FOLD + ".self_s"]
    names += [name + ".calls" for name, _ in COUNTED]
    names.append(MATCHINGS)
    return names


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = {}
        self.self_s = {}
        self._stack = []  # [span index, child seconds]
        self._undo = []

    # ---- wrappers ------------------------------------------------------------

    def _spanned(self, name, orig):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append([index, 0.0])
            fold = False
            try:
                out = orig(*args, **kwargs)
            except NoOneCutSolutionError:
                fold = True
                raise
            finally:
                end = time.perf_counter()
                _, child = self._stack.pop()
                span = self.spans[index]
                span[2] = end
                duration = end - span[1]
                if self._stack:
                    self._stack[-1][1] += duration
                own = duration - child
                self._add(name, own)
                if fold and name == "solve_endpoints":
                    self._add(FOLD, own)
            if name == "census":
                self.counts[MATCHINGS] = self.counts.get(MATCHINGS, 0) + out.total_matchings
            return out
        return wrapper

    def _counted(self, name, orig):
        def wrapper(*args):
            self.counts[name] = self.counts.get(name, 0) + 1
            return orig(*args)
        return wrapper

    def _add(self, name, own):
        self.counts[name] = self.counts.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + own

    # ---- installation ----------------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "eqmap" or n.startswith("eqmap.")]
        for layer, fn in SPANNED:
            orig = getattr(sys.modules["eqmap." + layer], fn)
            wrapper = self._spanned(fn, orig)
            for mod in modules:
                if getattr(mod, fn, None) is orig:
                    self._rebind(mod, fn, wrapper)
        for name, cls in COUNTED:
            orig = cls.__mul__
            wrapper = self._counted(name, orig)
            for attr in ("__mul__", "__rmul__"):
                if cls.__dict__.get(attr) is orig:
                    self._rebind(cls, attr, wrapper)

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ---- results ---------------------------------------------------------------

    def metrics(self):
        """{metric name: value} for every name in :func:`metric_names`."""
        out = {}
        for name in metric_names():
            base, _, kind = name.rpartition(".")
            if kind == "self_s":
                out[name] = self.self_s.get(base, 0.0)
            elif kind == "calls":
                out[name] = self.counts.get(base, 0)
            else:
                out[name] = self.counts.get(name, 0)
        return out

    def write(self, fh, pass_index):
        """Spans as JSON lines: pass, name, start and end in seconds, and the
        index of the parent span within the pass (-1 for none)."""
        for name, start, end, parent in self.spans:
            fh.write(json.dumps({"pass": pass_index, "name": name, "start": start,
                                 "end": end, "parent": parent}) + "\n")
