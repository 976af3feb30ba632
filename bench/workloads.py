"""The benchmark's three workloads, their seeded inputs and output checks.

Every workload is a sequence of passes; a pass is a fixed list of
operations, each a single closed-loop call into relmean (the next call
starts only after the previous one returns).  Inputs depend only on the
seed and the pass index, never on timing.  Library functions are looked up
through their modules at call time, so the tracer and the self-test can
wrap them where the library's own callers find them.

Why each workload exists:
- coverage: certification users spend their time in run_coverage, where
  per-replicate set-up dominates and drawing values is a minor share; it
  is the workload a batched estimation kernel should speed up.
- estimate: single estimate_mean calls, small (overhead-bound, the README
  quick start) interleaved with large (bound by drawing values and psi),
  with equal time shares, so a kernel that slows either class shows.
- linext: certified linear-extension counts, cold (chain construction
  dominates) and recounts of posets already counted (product-estimate
  draws dominate); it is the workload the downset-DP rewrite targets.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import relmean.counting as counting
import relmean.estimator as estimator
import relmean.harness as harness
import relmean.sources as sources

# Seed sequences of the golden pass and of a run's passes; they never meet.
GOLDEN_ENTROPY = [0, 0]
RUN_STREAM = 1


class CheckFailed(Exception):
    """A deterministic output check failed; the operation counts as failed."""


@dataclass
class Op:
    cls: str
    call: Callable[[], Any]
    # Checks the result, records statistical misses, returns estimator draws.
    check: Callable[[Any, "Checks"], int]
    replicates: int = 0  # coverage replicates the operation runs


class Checks:
    """Deterministic failures and statistical misses of one run."""

    ALPHA = 1e-6  # per miss group; a correct estimator trips it about never

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.trials: dict[tuple[str, float], list[int]] = {}

    def run(self, op: Op, tracer=None):
        """Time one operation and check its output.

        Returns (seconds, estimator draws, result), or None when the call
        raised or a deterministic check failed.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op.call() if tracer is None else tracer.call("op." + op.cls, op.call)
        except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
            self.fail(f"{op.cls}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        try:
            draws = op.check(result, self)
        except CheckFailed as exc:
            self.fail(f"{op.cls}: {exc}")
            return None
        return elapsed, draws, result

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def miss(self, group: str, delta: float, misses: int, trials: int = 1) -> None:
        """Record `misses` target-window misses in `trials` runs allowed delta each."""
        entry = self.trials.setdefault((group, delta), [0, 0])
        entry[0] += trials
        entry[1] += int(misses)

    def statistical(self) -> list[tuple[str, float, int, int, float]]:
        """(group, delta, trials, misses, exact binomial upper-tail p-value)."""
        return [
            (group, delta, n, k, binom_tail(k, n, delta))
            for (group, delta), (n, k) in sorted(self.trials.items())
        ]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(p >= self.ALPHA for *_, p in self.statistical())


def binom_tail(k: int, n: int, p: float) -> float:
    """Exact P(X >= k) for X ~ Binomial(n, p), summed from the mode outwards."""
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    lc, lp, lq = math.lgamma(n + 1), math.log(p), math.log1p(-p)

    def pmf(i: int) -> float:
        return math.exp(lc - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * lp + (n - i) * lq)

    # The pmf is unimodal and k lies on or past the mode when k > n p, so
    # either tail can be summed monotonically and cut once terms vanish.
    upper = k > n * p
    total = 0.0
    for i in range(k, n + 1) if upper else range(k - 1, -1, -1):
        term = pmf(i)
        total += term
        if term <= total * 1e-17:
            break
    return min(1.0, total) if upper else max(0.0, 1.0 - total)


def _plan_total(spec) -> int:
    plan = estimator.build_plan(spec)
    return plan.k * plan.m + plan.n


class Workload:
    """Seeded pass stream.  `golden` is one pass at a fixed seed whose
    outputs are recorded in golden.json."""

    name = ""

    def __init__(self, seed: int):
        self.golden = next(self._passes(np.random.default_rng(GOLDEN_ENTROPY)))
        self._stream = self._passes(np.random.default_rng([int(seed) % 2**64, RUN_STREAM]))
        self._ready = deque([next(self._stream)])

    def next_pass(self) -> list[Op]:
        return self._ready.popleft() if self._ready else next(self._stream)

    def _passes(self, rng):
        """Yield pass after pass, each a list of Ops drawn from `rng`."""
        raise NotImplementedError

    @staticmethod
    def golden_value(result) -> str:
        """Exact text form of one operation's output, compared with golden.json."""
        raise NotImplementedError


# --- coverage -------------------------------------------------------------

COVERAGE_DISTS = ("lognormal:1", "pareto:2.5", "normal:100,50")
COVERAGE_R = 1000
# run_coverage (two-stage) at the first spec, compare_estimators (all three
# kinds) at the second: 744-2764 and 208-724 draws per replicate.
COVERAGE_SPECS = ((0.1, 0.05, False), (0.2, 0.1, True))


class Coverage(Workload):
    name = "coverage"

    def _passes(self, rng):
        cases = []
        for text in COVERAGE_DISTS:
            dist = sources.parse_distribution(text)
            for eps, delta, compare in COVERAGE_SPECS:
                spec = estimator.ApproxSpec(eps, delta, dist.facts().c_bound)
                cases.append((dist, spec, compare, _coverage_check(spec)))
        while True:
            ops = []
            for dist, spec, compare, check in cases:
                seed = int(rng.integers(2**62))
                if compare:
                    call = lambda s=spec, d=dist, r=seed: harness.compare_estimators(s, d, COVERAGE_R, r)
                    ops.append(Op("compare", call, check, COVERAGE_R * len(harness.EstimatorKind)))
                else:
                    config = harness.CoverageConfig(spec, dist, COVERAGE_R, seed)
                    call = lambda c=config: [harness.run_coverage(c)]
                    ops.append(Op("run_coverage", call, check, COVERAGE_R))
            yield ops

    @staticmethod
    def golden_value(reports) -> str:
        return ";".join(f"{r.estimator}:{r.failures}:{r.mean_abs_rel_error.hex()}" for r in reports)


def _coverage_check(spec):
    budget = _plan_total(spec)

    def check(reports, checks: Checks) -> int:
        draws = 0
        for report in reports:
            if report.samples_per_run != budget:
                raise CheckFailed(f"samples_per_run {report.samples_per_run} != plan total {budget}")
            if report.R != COVERAGE_R or not 0 <= report.failures <= report.R:
                raise CheckFailed(f"bad bookkeeping: R={report.R} failures={report.failures}")
            if report.estimator == harness.EstimatorKind.TWO_STAGE.value:
                checks.miss("coverage.twostage", spec.delta, report.failures, trials=report.R)
            # every estimator of a comparison runs at the two-stage budget
            draws += report.R * report.samples_per_run
        return draws

    return check


# --- estimate -------------------------------------------------------------

# (distribution, epsilon, delta, c); c None takes the distribution's bound.
ESTIMATE_CLASSES = {
    "small": ("pareto:2.5", 0.1, 0.05, None),  # 1500 draws, the README quick start
    "large": ("lognormal:1", 0.01, 1e-3, 1.32),  # 324861 draws
}
# About equal time shares of the two classes at the parent commit.
ESTIMATE_MIX = {"small": 500, "large": 4}


class Estimate(Workload):
    name = "estimate"

    def _passes(self, rng):
        cases = {}
        for cls, (text, eps, delta, c) in ESTIMATE_CLASSES.items():
            dist = sources.parse_distribution(text)
            facts = dist.facts()
            spec = estimator.ApproxSpec(eps, delta, facts.c_bound if c is None else c)
            cases[cls] = (dist, spec, _estimate_check(cls, spec, facts.true_mean))
        order = [cls for cls, count in ESTIMATE_MIX.items() for _ in range(count)]
        while True:
            ops = []
            for cls in rng.permutation(order).tolist():
                dist, spec, check = cases[cls]
                seed = int(rng.integers(2**62))
                call = lambda d=dist, s=spec, r=seed: estimator.estimate_mean(sources.SampleSource(d, r), s)
                ops.append(Op(cls, call, check))
            yield ops

    @staticmethod
    def golden_value(report) -> str:
        return report.mu_hat.hex()


def _estimate_check(cls, spec, mean):
    total = _plan_total(spec)

    def check(report, checks: Checks) -> int:
        if report.total_samples != total or report.samples_stage1 + report.samples_stage2 != total:
            raise CheckFailed(f"{cls}: total_samples {report.total_samples} != plan total {total}")
        if not math.isfinite(report.mu_hat):
            raise CheckFailed(f"{cls}: mu_hat {report.mu_hat!r} is not finite")
        checks.miss(f"estimate.{cls}", spec.delta, abs(report.mu_hat - mean) > spec.epsilon * mean)
        return total

    return check


# --- linext ---------------------------------------------------------------

LINEXT_N = 10
LINEXT_DENSITY = 0.2
LINEXT_EPS, LINEXT_DELTA, LINEXT_M = 0.2, 0.1, 100
LINEXT_PAIRS = tuple((a, b) for a in range(LINEXT_N) for b in range(a + 1, LINEXT_N))
# Cold-count cost grows with the number of extensions e(P), which spans
# orders of magnitude across random posets.  Each pass counts one poset from
# each of these log-spaced e(P) strata, so passes of every seed carry the
# same work profile; 2k-64k extensions take about 0.01-0.3 s to count cold
# at the parent commit.  The recounts take about as long as the cold counts.
LINEXT_EDGES = tuple(round(2_000 * 32 ** (i / 8)) for i in range(9))
RECOUNTS_PER_POSET = 12


class Linext(Workload):
    name = "linext"

    def __init__(self, seed: int):
        self._seen: set = set()  # shared by both streams: every poset is counted cold once
        super().__init__(seed)

    def _candidate(self, rng):
        """A new random poset: a DAG on permuted labels, each pair related with prob 0.2."""
        while True:
            perm = rng.permutation(LINEXT_N) + 1
            hits = rng.random(len(LINEXT_PAIRS)) < LINEXT_DENSITY
            pairs = [(int(perm[a]), int(perm[b])) for (a, b), hit in zip(LINEXT_PAIRS, hits) if hit]
            poset = counting.Poset.from_pairs(LINEXT_N, pairs)
            if poset.relation not in self._seen:
                self._seen.add(poset.relation)
                return poset

    def _passes(self, rng):
        c = math.sqrt(counting.product_variance_bound(LINEXT_N, float(LINEXT_N), LINEXT_M))
        draws = _plan_total(estimator.ApproxSpec(LINEXT_EPS, LINEXT_DELTA, c))
        strata = [deque() for _ in LINEXT_EDGES[1:]]
        while True:
            while not all(strata):
                poset = self._candidate(rng)
                exact = counting.linext_count_exact(poset)
                for s, queue in enumerate(strata):
                    if LINEXT_EDGES[s] <= exact < LINEXT_EDGES[s + 1]:
                        queue.append((poset, exact))
            ops = []
            for queue in strata:
                poset, exact = queue.popleft()
                for j, seed in enumerate(rng.integers(2**62, size=1 + RECOUNTS_PER_POSET).tolist()):
                    call = lambda p=poset, r=seed: counting.linext_approx_count(
                        p, LINEXT_EPS, LINEXT_DELTA, LINEXT_M, r
                    )
                    cold = j == 0
                    check = _linext_check(poset, exact, draws, cold)
                    ops.append(Op("count" if cold else "recount", call, check))
            yield ops

    @staticmethod
    def golden_value(estimate) -> str:
        return float(estimate).hex()


def _linext_check(poset, exact, draws, cold):
    def check(estimate, checks: Checks) -> int:
        if not (math.isfinite(estimate) and estimate > 0.0):
            raise CheckFailed(f"linext estimate {estimate!r} is not finite and positive")
        # after a cold count, the exact DP oracle must reproduce the input's count
        if cold and counting.linext_count_exact(poset) != exact:
            raise CheckFailed("linext_count_exact is not deterministic")
        checks.miss("linext", LINEXT_DELTA, abs(estimate - exact) > LINEXT_EPS * exact)
        return draws

    return check


WORKLOADS = {w.name: w for w in (Coverage, Estimate, Linext)}
