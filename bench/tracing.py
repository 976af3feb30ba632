"""Span tracing around the library's public functions, from outside the library.

Each wrapper replaces a public function at the name its caller looks it up
under (for example ``relmean.estimator.scaled_psi``, which
``stage2_estimate`` calls, or ``relmean.harness.SampleSource``, which
``run_coverage`` calls), records one span per call and restores the
original on ``uninstall``.  Spans live in flat in-memory lists; self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

ESTIMATOR_PARENTS = ("estimator.median_of_means", "estimator.stage2_estimate")
TAKE_SPANS = ("sources.take", "counting.product_take")


def _n_draws(_self, n):
    return int(n)


def _elements(_scale, u):
    return int(getattr(u, "size", 1))


def _replicates(config):
    return int(config.replications)


def _mom_draws(_result, _source, k, m):
    return int(k) * int(m)


def _report_draws(report, *_args, **_kwargs):
    return int(report.total_samples)


# (module, attribute, span name, work count from the arguments,
#  draws the call must take, from its result and arguments)
_WRAPS = (
    ("relmean.estimator", "scaled_psi", "psi.scaled_psi", _elements, None),
    ("relmean.estimator", "build_plan", "estimator.build_plan", None, None),
    ("relmean.harness", "build_plan", "estimator.build_plan", None, None),
    ("relmean.estimator", "median_of_means", "estimator.median_of_means", None, _mom_draws),
    ("relmean.harness", "median_of_means", "estimator.median_of_means", None, _mom_draws),
    ("relmean.estimator", "stage2_estimate", "estimator.stage2_estimate", None, None),
    ("relmean.estimator", "estimate_mean", "estimator.estimate_mean", None, _report_draws),
    ("relmean.harness", "estimate_mean", "estimator.estimate_mean", None, _report_draws),
    ("relmean.counting", "estimate_mean", "estimator.estimate_mean", None, _report_draws),
    ("relmean.sources.SampleSource", "take", "sources.take", _n_draws, None),
    ("relmean.sources", "SampleSource", "sources.setup", None, None),
    ("relmean.harness", "SampleSource", "sources.setup", None, None),
    ("relmean.harness", "run_coverage", "harness.run_coverage", _replicates, None),
    ("relmean.harness", "compare_estimators", "harness.compare_estimators", None, None),
    ("relmean.counting", "linext_approx_count", "counting.linext_approx_count", None, None),
    ("relmean.counting", "linext_chain", "counting.linext_chain", None, None),
    ("relmean.counting.ProductEstimateSource", "take", "counting.product_take", _n_draws, None),
    ("relmean.counting", "linext_count_exact", "counting.linext_count_exact", None, None),
)


def _resolve(path: str):
    """Module or class named by a dotted path such as relmean.sources.SampleSource."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        owner, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(owner), attr)


class Tracer:
    """In-memory span recorder.  One instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.counts: list[int] = []
        self.expected: list[int] = []
        self.indicators = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, count=None, expect=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.counts.append(count(*args, **kwargs) if count else 0)
        self.expected.append(-1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter_ns()
            self._stack.pop()
        if expect is not None:
            self.expected[idx] = expect(result, *args, **kwargs)
        return result

    def _wrap(self, name, fn, count, expect):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, count=count, expect=expect, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for path, attr, name, count, expect in _WRAPS:
            owner = _resolve(path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count, expect))
        product_source = _resolve("relmean.counting.ProductEstimateSource")
        traced_take = product_source.take

        def take(source, n):
            self.indicators += int(n) * len(source.chain.samplers) * source.m_per_level
            return traced_take(source, n)

        product_source.take = take

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per-name totals plus the draw accounting checks.

        Returns {"spans": {name: {calls, total_ns, self_ns, count}},
        "estimator_draws", "draw_mismatches", "negative_self",
        "take_ns_in_coverage"}.
        """
        n = len(self.names)
        child_ns = [0] * n
        sub_draws = [0] * n
        for i in range(n - 1, -1, -1):
            parent = self.parents[i]
            if self.names[i] in TAKE_SPANS:
                sub_draws[i] += self.counts[i]
            if parent >= 0:
                child_ns[parent] += self.ends[i] - self.starts[i]
                sub_draws[parent] += sub_draws[i]
        spans = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "count": 0})
        estimator_draws = mismatches = negative = take_in_coverage = 0
        for i in range(n):
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            own = dur - child_ns[i]
            entry = spans[name]
            entry["calls"] += 1
            entry["total_ns"] += dur
            entry["self_ns"] += own
            entry["count"] += self.counts[i]
            negative += own < 0
            parent = self.parents[i]
            if name in TAKE_SPANS and parent >= 0 and self.names[parent] in ESTIMATOR_PARENTS:
                estimator_draws += self.counts[i]
            if self.expected[i] >= 0 and self.expected[i] != sub_draws[i]:
                mismatches += 1
            if name == "sources.take" and self._has_ancestor(i, "harness.run_coverage"):
                take_in_coverage += dur
        return {
            "spans": dict(spans),
            "estimator_draws": estimator_draws,
            "draw_mismatches": mismatches,
            "negative_self": negative,
            "take_ns_in_coverage": take_in_coverage,
        }

    def _has_ancestor(self, i: int, name: str) -> bool:
        i = self.parents[i]
        while i >= 0:
            if self.names[i] == name:
                return True
            i = self.parents[i]
        return False

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i]},{self.ends[i]},{self.parents[i]}\n")
