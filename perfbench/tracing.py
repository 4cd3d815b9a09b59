"""Spans around the calls into each layer of conical_gmt, from outside it.

A span records a name, a start, an end and the span that was open when it
began.  Spans come from wrapping the module attributes the pipelines look up
at call time (``conical_gmt.corona.window_energy_sum``, methods of
``DiscreteMeasure``, ...), so nothing under ``src/`` changes.  A layer
reachable only through a private name is reported as missing, not as a
failure, once that name is gone.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter


def _cone_tests(counts, args, kwargs, out):
    counts["geometry.cone_tests"] += len(args[0])


def _window_vertices(counts, args, kwargs, out):
    counts["energy.window_vertices"] += len(args[1])


def _stack(counts, args, kwargs, out):
    blocks, dist = out
    counts["sio.stack_bytes"] += sum(b.nbytes for b in blocks) + dist.nbytes
    counts["sio.kernel_components"] = len(blocks)
    counts["sio.atoms"] = dist.shape[0]


# (module, attribute path, layer name, extra counter).  Several attributes
# may feed one layer name: `from x import f` binds f in each importer.
TARGETS = [
    ("conical_gmt.cli", "load_csv", "measure.load_csv", None),
    ("conical_gmt.measure", "DiscreteMeasure.diameter", "measure.diameter", None),
    ("conical_gmt.measure", "DiscreteMeasure.ball_indices", "measure.ball_indices", None),
    ("conical_gmt.corona", "growth_constant", "measure.growth_constant", None),
    ("conical_gmt.energy", "cone_mask", "geometry.cone_mask", _cone_tests),
    ("conical_gmt.measure", "cone_mask", "geometry.cone_mask", _cone_tests),
    ("conical_gmt.energy", "pointwise_energy", "energy.pointwise_energy", None),
    ("conical_gmt.corona", "window_energy_sum", "energy.window_energy_sum", _window_vertices),
    ("conical_gmt.corona", "total_energy", "energy.total_energy", None),
    ("conical_gmt.energy", "bpbe_scan", "energy.bpbe_scan", None),
    ("conical_gmt.cli", "build_lattice", "lattice.build_lattice", None),
    ("conical_gmt.corona", "maximal_doubling", "lattice.maximal_doubling", None),
    ("conical_gmt.corona", "build_top", "corona.build_top", None),
    ("conical_gmt.corona", "separated_families", "corona.separated_families", None),
    ("conical_gmt.corona", "verify_corona", "corona.verify_corona", None),
    ("conical_gmt.corona", "cone_separation_violations",
     "graphs.cone_separation_violations", None),
    ("conical_gmt.graphs", "cone_separation_violations",
     "graphs.cone_separation_violations", None),
    ("conical_gmt.corona", "fit_lipschitz_graph", "graphs.fit_lipschitz_graph", None),
    ("conical_gmt.sio", "TruncationGrid.log_spaced", "sio.log_spaced", None),
    ("conical_gmt.sio", "operator_norm_profile", "sio.operator_norm_profile", None),
    ("conical_gmt.sio", "_interaction_stack", "sio.interaction_stack", _stack),
    ("conical_gmt.sio", "_power_iteration", "sio.power_iteration", None),
    ("conical_gmt.diagnostics", "necessary_bplg_cover",
     "diagnostics.necessary_bplg_cover", None),
    ("conical_gmt.diagnostics", "theta_m_property", "diagnostics.theta_m_property", None),
    ("conical_gmt.diagnostics", "f_epsilon_set", "diagnostics.f_epsilon_set", None),
    ("conical_gmt.diagnostics", "beta2", "diagnostics.beta2", None),
]


class Tracer:
    """Records spans in memory while installed; ``uninstall`` restores the
    original attributes."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index)
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list = []

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
            if counter is not None:
                counter(self.counts, args, kwargs, out)
            return out
        return traced

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span of the benchmark's own."""
        return self.wrap(name, fn)(*args)

    def install(self):
        self.missing = []
        for module_name, path, layer, counter in TARGETS:
            module = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            owner = module
            for o in owners:
                owner = getattr(owner, o, None)
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(layer, raw.__func__, counter))
            else:
                new = self.wrap(layer, raw, counter)
            setattr(owner, attr, new)
            self._restore.append((owner, attr, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def self_times(spans) -> dict:
    """Per layer: calls, total self time (duration minus direct children)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for (name, start, end, parent), c in zip(spans, child):
        calls, busy = out.get(name, (0, 0.0))
        out[name] = (calls + 1, busy + (end - start) - c)
    return out
