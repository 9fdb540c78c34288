"""Spans around the calls into each obsnet layer, recorded from outside.

The traced run installs wrappers at the call sites the CLI goes through
(the names that ``obsnet.cli``, ``obsnet.design``, ``obsnet.network`` and
``obsnet.verification`` look up at call time), runs the same ``cli.run``
calls as the untraced run, and restores the originals afterwards. Nothing
in ``src/`` changes. A site missing from the program is skipped, so a
refactor that removes a function loses its span, not the run.

Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np


def _count_scc(rec, args, result):
    rec.count("structural.components", len(result.components))
    rec.count("structural.parents", len(result.parent_components()))


def _count_forbidden(rec, args, result):
    rec.count("sensing.forbidden_pairs", int(np.count_nonzero(~np.isfinite(result.cost))))


def _count_arcs(rec, args, result):
    rec.count("network.arcs", len(args[0].arcs))


def _count_call(rec, args, result):
    rec.count("network.min_branching.calls", 1)


def _count_trial(rec, args, result):
    rec.count("verification.trials", 1)
    rec.maximum("verification.dim_max", args[0].n * args[0].m)


# (module, attribute, span name, counter): the call sites the CLI passes
# through, named after the layer that defines the function.
SITES = [
    ("obsnet.cli", "parse_instance", "graphs.parse_instance", None),
    ("obsnet.cli", "parse_design", "graphs.parse_design", None),
    ("obsnet.cli", "serialize_design", "graphs.serialize_design", None),
    ("obsnet.cli", "design_instance", "design.design_instance", None),
    ("obsnet.cli", "verify_design_numeric", "verification.verify_design_numeric", None),
    ("obsnet.design", "is_structurally_full_rank", "structural.is_structurally_full_rank", None),
    ("obsnet.design", "digraph_from_pattern", "structural.digraph_from_pattern", None),
    ("obsnet.design", "scc_decompose", "structural.scc_decompose", _count_scc),
    ("obsnet.design", "build_parent_cost_matrix", "sensing.build_parent_cost_matrix",
     _count_forbidden),
    ("obsnet.design", "hungarian_solve", "sensing.hungarian_solve", None),
    ("obsnet.design", "recover_measurement_structure", "sensing.recover_measurement_structure",
     None),
    ("obsnet.design", "mst_solve", "network.mst_solve", _count_arcs),
    ("obsnet.design", "msss_best_root", "network.msss_best_root", _count_arcs),
    ("obsnet.design", "msss_2approx", "network.msss_2approx", _count_arcs),
    ("obsnet.network", "msss_2approx", "network.msss_2approx", None),
    ("obsnet.network", "min_branching", "network.min_branching", _count_call),
    ("obsnet.verification", "check_distributed_observability_structural",
     "structural.check_distributed_observability_structural", None),
    ("obsnet.verification", "observability_trial", "verification.observability_trial",
     _count_trial),
]

# Per-layer busy time: each metric sums the spans named here.
LAYER_TIMES = {
    "generate.generate_instance_s": ("generate.generate_instance",),
    "graphs.serialize_instance_s": ("graphs.serialize_instance",),
    "graphs.parse_instance_s": ("graphs.parse_instance",),
    "graphs.serialize_design_s": ("graphs.serialize_design",),
    "graphs.parse_design_s": ("graphs.parse_design",),
    "structural.is_structurally_full_rank_s": ("structural.is_structurally_full_rank",),
    "structural.scc_decompose_s": ("structural.scc_decompose", "structural.digraph_from_pattern"),
    "structural.check_distributed_observability_structural_s":
        ("structural.check_distributed_observability_structural",),
    "sensing.build_parent_cost_matrix_s": ("sensing.build_parent_cost_matrix",),
    "sensing.hungarian_solve_s": ("sensing.hungarian_solve",),
    "network.mst_solve_s": ("network.mst_solve",),
    "network.msss_best_root_s": ("network.msss_best_root",),
    "network.min_branching_s": ("network.min_branching",),
    "verification.observability_trial_s": ("verification.observability_trial",),
    "design.design_instance_s": ("design.design_instance",),
}

# Counters the SITES record, summed over a pass (dim_max is a maximum).
COUNTS = ("graphs.instance_bytes", "structural.components", "structural.parents",
          "sensing.forbidden_pairs", "network.arcs", "network.min_branching.calls",
          "verification.trials", "verification.dim_max")

# Call sites whose peak traced allocation the memory pass records.
PEAK_SITES = [
    ("obsnet.network", "min_branching", "network.min_branching.peak_mb"),
    ("obsnet.verification", "observability_trial", "verification.observability_trial.peak_mb"),
]


class Recorder:
    """Spans and counters of one traced run.

    A span is (id, parent id, op label, name, start, end) in
    ``time.perf_counter`` seconds; spans of one op share its label.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.op = ""
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id so children point back at it
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self.op, name, start, end)

    def count(self, name: str, k: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def maximum(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, value), value)

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                counter(self, args, result)
            return result
        return traced


@contextmanager
def _patched(replacements):
    saved = []
    try:
        for module_name, attr, make in replacements:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def traced(recorder: Recorder):
    """Context in which every call site in ``SITES`` records a span."""
    return _patched([
        (module, attr, lambda fn, name=name, counter=counter: recorder.wrap(name, fn, counter))
        for module, attr, name, counter in SITES
    ])


def memory_peaks(peaks: dict[str, float]):
    """Context in which each call at a ``PEAK_SITES`` site runs under
    tracemalloc; ``peaks`` keeps the largest peak per site, in MB."""

    def make(name):
        def wrap(fn):
            def measured(*args, **kwargs):
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    peaks[name] = max(peaks.get(name, 0.0), peak / 1e6)
            return measured
        return wrap

    return _patched([(module, attr, make(name)) for module, attr, name in PEAK_SITES])
