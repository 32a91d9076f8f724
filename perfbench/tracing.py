"""Spans around infoflow's module boundaries, recorded from outside the package.

The wrappers replace the names that ``infoflow.cli``, ``infoflow.fieldmap``
and ``infoflow.validate`` import from the other modules, in this process
only, and put them back afterwards. Each call records a span (name, start,
end, parent span, invocation id); spans stay in memory until the run ends.
A span's self time is its duration minus the durations of its children, so
the self times of one invocation add up to the invocation's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import resource
import time
from collections import defaultdict

import numpy as np

ROOT_SPAN = "cli.main"

# Layers whose memory high-water mark is probed: the grid parser holds the
# whole field as Python objects before converting it.
PEAK_PROBED = ("fieldmap.load_grid",)
_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

# Cheap per-row helpers (theory.analytic_flows, validate.star_window_from_times)
# are left unwrapped: a span per call would cost more than the call, and
# their time stays in the caller's self time.


def _file_bytes(counts, args, kwargs, result):
    counts["series.load_csv.bytes"] += os.path.getsize(args[0])


def _grid_bytes(counts, args, kwargs, result):
    manifest = args[0]
    base = os.path.dirname(os.path.abspath(manifest))
    total = os.path.getsize(manifest)
    with open(manifest) as fh:
        for line in fh:
            key, _, value = line.strip().partition(",")
            if key.endswith("_file"):
                total += os.path.getsize(os.path.join(base, value.strip()))
    counts["fieldmap.load_grid.bytes"] += total


def _bootstrap_draws(counts, args, kwargs, result):
    if result is not None:
        counts["estimator.bootstrap.accepted"] += kwargs["n_boot"]
        counts["estimator.bootstrap.draws"] += kwargs["n_boot"] + result.n_discarded


def _map_cells(counts, args, kwargs, result):
    if result is not None:
        mask = args[1].mask
        counts["fieldmap.cells"] += int(mask.sum())
        counts["fieldmap.cells_dropped"] += int(np.isnan(result.t_index_to_field[mask]).sum())


def _sim_steps(counts, args, kwargs, result):
    counts["simulator.steps"] += args[0].n_steps


def _theory_steps(counts, args, kwargs, result):
    if result is not None:
        counts["theory.steps"] += len(result) - 1


def _bands_failed(counts, args, kwargs, result):
    if result is not None:
        counts["validate.bands_failed"] += sum(1 for row in result if row.passed is False)


# (module whose global is replaced, attribute, span name, counter)
SITES = [
    ("infoflow.cli", "load_csv", "series.load_csv", _file_bytes),
    ("infoflow.cli", "subsample", "series.subsample", None),
    ("infoflow.cli", "align", "series.align", None),
    ("infoflow.cli", "window", "simulator.window", None),
    ("infoflow.cli", "covariances", "estimator.covariances", None),
    ("infoflow.cli", "fit_mle", "estimator.fit_mle", None),
    ("infoflow.cli", "fisher_ci", "estimator.fisher_ci", None),
    ("infoflow.cli", "bootstrap_ci", "estimator.bootstrap_ci", _bootstrap_draws),
    ("infoflow.cli", "load_grid", "fieldmap.load_grid", _grid_bytes),
    ("infoflow.cli", "map_flows", "fieldmap.map_flows", _map_cells),
    ("infoflow.cli", "write_flow_maps", "fieldmap.write_flow_maps", None),
    ("infoflow.cli", "simulate", "simulator.simulate", _sim_steps),
    ("infoflow.cli", "integrate_moments", "theory.integrate_moments", _theory_steps),
    ("infoflow.cli", "stationary_covariance", "theory.stationary_covariance", None),
    ("infoflow.cli", "run_validation", "validate.run_validation", _bands_failed),
    ("infoflow.fieldmap", "align", "series.align", None),
    ("infoflow.fieldmap", "covariances", "estimator.covariances", None),
    ("infoflow.fieldmap", "fit_mle", "estimator.fit_mle", None),
    ("infoflow.fieldmap", "fisher_ci", "estimator.fisher_ci", None),
    ("infoflow.validate", "subsample", "series.subsample", None),
    ("infoflow.validate", "align", "series.align", None),
    ("infoflow.validate", "window", "simulator.window", None),
    ("infoflow.validate", "simulate", "simulator.simulate", _sim_steps),
    ("infoflow.validate", "covariances", "estimator.covariances", None),
    ("infoflow.validate", "fit_mle", "estimator.fit_mle", None),
    ("infoflow.validate", "fisher_ci", "estimator.fisher_ci", None),
    ("infoflow.validate", "flow", "estimator.flow", None),
    ("infoflow.validate", "stationary_covariance", "theory.stationary_covariance", None),
]

class Tracer:
    """In-memory span store. A span is [name, start, end, parent index, invocation id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        # per probed layer: how far a call raised the process high-water mark
        # above the resident size at its start; only a call that sets a new
        # high-water mark shows its own peak, so trace the first pass
        self.peak_mb: dict[str, float] = defaultdict(float)
        self.invocation = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack = self.spans, self._stack
        probed = name in PEAK_PROBED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probed:
                rss_before, max_before = _rss_mb(), _max_rss_mb()
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None, self.invocation])
            stack.append(idx)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
                if counter is not None:
                    counter(self.counts, args, kwargs, result)
                if probed and _max_rss_mb() > max_before:
                    self.peak_mb[name] = max(self.peak_mb[name], _max_rss_mb() - rss_before)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every site in SITES for its traced wrapper; restore on exit."""
        saved = []
        try:
            for module_name, attr, name, counter in SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def call(self, fn, *args):
        """Run one CLI invocation as a root span with a fresh invocation id."""
        self.invocation += 1
        return self.wrap(ROOT_SPAN, fn)(*args)

    def snapshot(self) -> tuple[int, dict[str, float]]:
        return len(self.spans), dict(self.counts)


def self_times(spans: list[list], first: int, last: int):
    """Per-layer (self time, inclusive time, call count) over spans[first:last]."""
    child = defaultdict(float)
    for _, start, end, parent, _ in spans[first:last]:
        if parent is not None:
            child[parent] += end - start
    self_s, total_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for idx in range(first, last):
        name, start, end, _, _ = spans[idx]
        self_s[name] += (end - start) - child[idx]
        total_s[name] += end - start
        calls[name] += 1
    return self_s, total_s, calls


def write_spans(path: str, spans: list[list]) -> None:
    """One line per span: name start_s end_s parent invocation (parent -1 for roots)."""
    with open(path, "w") as fh:
        fh.write("# name start_s end_s parent invocation\n")
        for name, start, end, parent, inv in spans:
            fh.write(f"{name} {start:.9f} {end:.9f} {-1 if parent is None else parent} {inv}\n")
