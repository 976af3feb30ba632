"""Coverage-harness behaviour and the CSV report contract."""

from __future__ import annotations

import csv
import math
import os
import re
import threading
import time
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relmean import (
    ApproxSpec,
    Constant,
    CoverageConfig,
    CoverageReport,
    EstimatorKind,
    LogNormal,
    Mode,
    Normal,
    ParetoShape,
    Recorded,
    Scaled,
    ScaledBernoulli,
    SourceContractError,
    build_plan,
    compare_estimators,
    run_coverage,
    theorem1_total,
    write_csv,
)
import relmean.harness as harness
from relmean.harness import CSV_HEADER
from relmean.sources import _replicate_rng

import oracles

SPEC = ApproxSpec(0.2, 0.1, 0.5)
DIST = Normal(100.0, 50.0)
# the header README "File formats" documents; CSV_HEADER derives from CoverageReport
DOCUMENTED_HEADER = (
    "estimator,distribution,epsilon,delta,c,mode,R,seed,samples_per_run,"
    "failures,failure_rate,binomial_3sigma,mean_abs_rel_error"
)


def _parse_csv(path):
    """Independent reader for the report schema."""
    with open(path, "r", encoding="ascii", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == DOCUMENTED_HEADER.split(",")
    parsed = []
    for row in rows[1:]:
        values = dict(zip(rows[0], row))
        parsed.append(
            CoverageReport(
                estimator=values["estimator"],
                distribution=values["distribution"],
                epsilon=float(values["epsilon"]),
                delta=float(values["delta"]),
                c=float(values["c"]),
                mode=values["mode"],
                R=int(values["R"]),
                seed=int(values["seed"]),
                samples_per_run=int(values["samples_per_run"]),
                failures=int(values["failures"]),
                failure_rate=float(values["failure_rate"]),
                binomial_3sigma=float(values["binomial_3sigma"]),
                mean_abs_rel_error=float(values["mean_abs_rel_error"]),
            )
        )
    return parsed


def test_constant_source_never_fails():
    config = CoverageConfig(ApproxSpec(0.1, 0.05, 1.0), Constant(5.0), 100, seed=0)
    report = run_coverage(config)
    assert report.failures == 0
    assert report.failure_rate == 0.0
    assert report.mean_abs_rel_error <= 0.1


def test_coverage_is_deterministic():
    config = CoverageConfig(SPEC, DIST, 200, seed=42)
    assert run_coverage(config) == run_coverage(config)


def test_coverage_within_guarantee():
    report = run_coverage(CoverageConfig(SPEC, DIST, 1000, seed=7))
    assert report.failure_rate <= SPEC.delta + report.binomial_3sigma
    assert math.isclose(report.binomial_3sigma, 3.0 * math.sqrt(0.1 * 0.9 / 1000), rel_tol=1e-12)


def test_coverage_rejects_void_guarantee():
    with pytest.raises(ValueError):
        run_coverage(CoverageConfig(ApproxSpec(0.2, 0.1, 0.4), DIST, 100, seed=0))


def test_coverage_rejects_too_few_replications():
    with pytest.raises(ValueError):
        CoverageConfig(SPEC, DIST, 99, seed=0)


def test_coverage_rejects_replications_beyond_one_spawn_key_word():
    CoverageConfig(SPEC, DIST, 2**32 - 1, seed=0)
    with pytest.raises(ValueError, match="replications"):
        CoverageConfig(SPEC, DIST, 2**32, seed=0)


def test_coverage_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        CoverageConfig(SPEC, DIST, 100, seed=-1)


def test_coverage_rejects_non_integer_replications_and_seed():
    with pytest.raises(ValueError, match="replications must be a nonnegative integer"):
        CoverageConfig(SPEC, DIST, 100.5, seed=0)
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        CoverageConfig(SPEC, DIST, 100, seed=0.5)
    CoverageConfig(SPEC, DIST, np.int64(100), seed=np.uint32(3))


@pytest.mark.parametrize(
    "dist",
    [Recorded(tuple(range(1, 200))), Scaled(Recorded((1.0, 2.0, 3.0)), 2.0), Scaled(Scaled(Recorded((4.0, 5.0)), 2.0), 3.0)],
    ids=["recorded", "scaled", "scaled-twice"],
)
def test_coverage_rejects_replay_sources(dist):
    # every replicate would replay the same prefix of one fixed sequence
    with pytest.raises(ValueError, match=dist.spec_string):
        CoverageConfig(SPEC, dist, 100, seed=0)


@pytest.mark.parametrize("replications", [101, 1000])
@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize(
    "dist", [LogNormal(1.0), ParetoShape(2.5), Normal(100.0, 50.0)], ids=lambda d: d.spec_string
)
@pytest.mark.parametrize("kind", list(EstimatorKind))
def test_batched_coverage_matches_reference_loop(kind, dist, mode, replications):
    # 101 leaves a partial chunk of replicate rows; 1000 is the benchmark's R
    spec = ApproxSpec(0.2, 0.1, dist.facts().c_bound)
    config = CoverageConfig(spec, dist, replications, seed=2024, mode=mode, estimator=kind)
    report = run_coverage(config)
    assert (report.failures, report.mean_abs_rel_error) == oracles.coverage_reference(config)


@pytest.mark.parametrize("replications", [101, 1000])
@pytest.mark.parametrize(
    "dist", [LogNormal(1.0), ParetoShape(2.5), Normal(100.0, 50.0)], ids=lambda d: d.spec_string
)
@pytest.mark.parametrize("kind", list(EstimatorKind))
@pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 1])
def test_batched_coverage_matches_reference_loop_across_seed_widths(seed, kind, dist, replications):
    # seeds of one, two and three 32-bit words: the run seeds its streams in
    # one batch, the reference opens each SampleSource(dist, seed, r) alone
    spec = ApproxSpec(0.2, 0.1, dist.facts().c_bound)
    config = CoverageConfig(spec, dist, replications, seed=seed, estimator=kind)
    report = run_coverage(config)
    assert (report.failures, report.mean_abs_rel_error) == oracles.coverage_reference(config)


@pytest.mark.parametrize("replications", [101, 1000])
@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize(
    "dist",
    [
        Constant(5.0),
        Normal(100.0, 50.0),
        LogNormal(1.0),
        ScaledBernoulli(0.5, 2.0),
        ParetoShape(2.5),
        Scaled(LogNormal(1.0), 3.0),
    ],
    ids=lambda d: d.spec_string,
)
def test_compare_matches_the_reference_loop_of_each_kind(dist, mode, replications):
    # a comparison draws each replicate once and hands every kind a prefix of
    # those draws; the reference takes each kind's draws from a fresh stream,
    # so this pins that a built-in distribution's draws split freely
    spec = ApproxSpec(0.2, 0.1, dist.facts().c_bound or 0.5)
    reports = compare_estimators(spec, dist, replications, seed=2024, mode=mode)
    for kind, report in zip(EstimatorKind, reports):
        config = CoverageConfig(spec, dist, replications, seed=2024, mode=mode, estimator=kind)
        failures, mean_abs_rel_error = oracles.coverage_reference(config)
        assert (report.failures, report.mean_abs_rel_error.hex()) == (failures, mean_abs_rel_error.hex())


class _Misbehaving:
    """A distribution whose draws break the take contract."""

    def __init__(self, sample):
        self.sample = sample
        self.spec_string = "misbehaving"

    def facts(self):
        return Normal(100.0, 50.0).facts()


@pytest.mark.parametrize(
    "sample, problem",
    [
        (lambda rng, n: rng.normal(100.0, 50.0, max(n - 1, 0)), "returned"),
        (lambda rng, n: np.full(n, np.nan), "non-finite"),
    ],
    ids=["short", "nan"],
)
@pytest.mark.parametrize(
    "kind, stage",
    [
        (EstimatorKind.TWO_STAGE, "stage 1"),
        (EstimatorKind.MEDIAN_OF_MEANS_ONLY, "median of means"),
        (EstimatorKind.NAIVE_MEAN, "naive mean"),
    ],
    ids=["twostage", "mom", "naive"],
)
def test_coverage_names_a_broken_take(sample, problem, kind, stage):
    # every estimator kind draws through the one take-contract gate
    with pytest.raises(SourceContractError, match=f"{stage}: take.*{problem}"):
        run_coverage(CoverageConfig(SPEC, _Misbehaving(sample), 100, seed=0, estimator=kind))


# --- replicate slices in forked children ---------------------------------
# _MIN_SLICE_DRAWS = 1 gives every usable CPU a slice; a huge value keeps
# the run in this process.  _usable_cpus is raised above this host's CPU
# count to split runs into more slices than there are cores.

SERIAL, PARALLEL = 2**62, 1


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run(monkeypatch, config, min_slice_draws, cpus=None, compare=False):
    """run_coverage (or compare_estimators on the config's arguments) at the
    given slice threshold and CPU count; checks that a parallel run forked
    once per extra worker and that no child outlives the run."""
    monkeypatch.setattr(harness, "_MIN_SLICE_DRAWS", min_slice_draws)
    if cpus is not None:
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    forks = []
    fork_slice = harness._fork_slice
    monkeypatch.setattr(harness, "_fork_slice", lambda *args: forks.append(args) or fork_slice(*args))
    try:
        if compare:
            return compare_estimators(config.spec, config.dist, config.replications, config.seed, config.mode)
        return run_coverage(config)
    finally:
        _assert_no_children()
        workers = harness._usable_cpus() if min_slice_draws == PARALLEL else 1
        assert len(forks) == len(harness._slice_bounds(config.replications, workers)) - 2


@pytest.mark.parametrize("cpus", [None, 5])
@pytest.mark.parametrize("seed", [3, 2**32 + 3, 2**64 + 3], ids=["1word", "2words", "3words"])
@pytest.mark.parametrize("kind", list(EstimatorKind))
@pytest.mark.parametrize("replications", [100, 101, 1000, 1001])
def test_parallel_coverage_is_bit_identical_to_serial(monkeypatch, replications, kind, seed, cpus):
    config = CoverageConfig(SPEC, DIST, replications, seed=seed, estimator=kind)
    serial = _run(monkeypatch, config, SERIAL)
    parallel = _run(monkeypatch, config, PARALLEL, cpus)
    assert parallel == serial
    assert parallel.mean_abs_rel_error.hex() == serial.mean_abs_rel_error.hex()


@pytest.mark.parametrize("cpus", [None, 5])
@pytest.mark.parametrize("replications", [100, 101, 1000, 1001])
def test_parallel_compare_forks_once_and_is_bit_identical_to_serial(monkeypatch, replications, cpus):
    # one round of slices computes all three kinds, each equal to its own run
    config = CoverageConfig(SPEC, DIST, replications, seed=11)
    serial = _run(monkeypatch, config, SERIAL, compare=True)
    parallel = _run(monkeypatch, config, PARALLEL, cpus, compare=True)
    assert parallel == serial
    assert [r.mean_abs_rel_error.hex() for r in parallel] == [r.mean_abs_rel_error.hex() for r in serial]
    for kind, report in zip(EstimatorKind, serial):
        assert run_coverage(CoverageConfig(SPEC, DIST, replications, seed=11, estimator=kind)) == report


def test_the_parent_places_each_child_and_the_child_does_not(monkeypatch):
    parent = os.getpid()
    calls, pids = [], []

    def sched_setaffinity(pid, cpus):
        if os.getpid() != parent:
            os._exit(5)  # a child's own call: its slice dies without a result
        calls.append((pid, set(cpus)))

    def fork(real_fork=os.fork):
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_setaffinity", sched_setaffinity, raising=False)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(harness, "_other_cpus", lambda: [7, 8])
    config = CoverageConfig(SPEC, DIST, 1000, seed=0)
    assert _run(monkeypatch, config, PARALLEL, 3) == _run(monkeypatch, config, SERIAL)
    assert len(pids) == 2
    assert calls == [(pids[0], {7}), (pids[1], {8})]


@pytest.mark.parametrize("replications, workers", [(100, 2), (101, 5), (1000, 3), (1001, 4), (16, 7)])
def test_slices_are_placed_by_replicate_index(replications, workers):
    bounds = harness._slice_bounds(replications, workers)
    assert bounds[0] == 0 and bounds[-1] == replications
    assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))
    assert all(b % harness._CHUNK_ROWS == 0 for b in bounds[:-1])
    values = np.full(replications, np.nan)
    here = []

    def fill(lo, hi):
        here.append((lo, hi))  # a child's append stays in the child
        values[lo:hi] = np.arange(lo, hi) * 1.5

    harness._run_slices(values, fill, bounds)
    _assert_no_children()
    assert here == [(bounds[0], bounds[1])]
    assert values.tolist() == (np.arange(replications) * 1.5).tolist()


class _ShortAt:
    """Normal(100, 50) draws, except that one take of each listed replicate
    stream comes up short, by a count that names the replicate: replicate i
    comes up short at the take that starts after skips[i] of its draws (by
    default its first take)."""

    def __init__(self, seed, replicates, skips=None):
        self.spec_string = "short-at"
        self._short = {}
        for i, (r, skip) in enumerate(zip(replicates, skips or [0] * len(replicates))):
            rng = _replicate_rng(seed, r)
            rng.normal(100.0, 50.0, skip)  # normal draws split freely: a + b draws = a, then b
            self._short[self._state(rng)] = i + 1

    @staticmethod
    def _state(rng):
        return rng.bit_generator.state["state"]["state"]

    def sample(self, rng, n):
        return rng.normal(100.0, 50.0, n - self._short.get(self._state(rng), 0))

    def facts(self):
        return DIST.facts()


@pytest.mark.parametrize(
    "cpus, broken, first",
    [(None, (900, 600), 600), (None, (700, 300), 300), (5, (950, 620, 990), 620)],
    ids=["child", "parent-and-child", "two-children"],
)
@pytest.mark.parametrize("kind", list(EstimatorKind))
def test_broken_take_in_a_slice_raises_the_serial_error(monkeypatch, kind, cpus, broken, first):
    config = CoverageConfig(SPEC, _ShortAt(0, broken), 1000, seed=0, estimator=kind)
    with pytest.raises(SourceContractError) as serial:
        _run(monkeypatch, config, SERIAL)
    with pytest.raises(SourceContractError) as parallel:
        _run(monkeypatch, config, PARALLEL, cpus)
    # the message names the lowest broken replicate by its shortfall
    width = int(re.search(r"take\((\d+)\)", str(serial.value)).group(1))
    assert f"returned {width - broken.index(first) - 1} draws" in str(serial.value)
    assert str(parallel.value) == str(serial.value)


# each two-stage take at SPEC: (draws of the stream before it, its width)
_PLAN = build_plan(SPEC)
_TAKES = {"stage 1": (0, _PLAN.samples_stage1), "stage 2": (_PLAN.samples_stage1, _PLAN.n)}


@pytest.mark.parametrize("cpus", [None, 5])
@pytest.mark.parametrize(
    "broken, first",
    [
        (((900, "stage 1"), (10, "stage 2")), 1),
        (((900, "stage 2"), (100, "stage 1")), 1),
        (((950, "stage 1"), (600, "stage 2")), 1),
        (((300, "stage 2"), (950, "stage 1"), (10, "stage 2")), 2),
    ],
    ids=["slice-0-stage-2-beats-a-child", "slice-0-stage-1-beats-a-child", "children-only", "lowest-replicate"],
)
def test_broken_take_in_a_compare_raises_the_serial_error(monkeypatch, cpus, broken, first):
    # a comparison draws each replicate once, with the two-stage takes; the
    # serial run stops at its first chunk's error, each slice at its own
    # first, and the parent raises the lowest of them
    replicates, stages = zip(*broken)
    config = CoverageConfig(SPEC, _ShortAt(0, replicates, [_TAKES[stage][0] for stage in stages]), 1000, seed=0)
    with pytest.raises(SourceContractError) as serial:
        _run(monkeypatch, config, SERIAL, compare=True)
    with pytest.raises(SourceContractError) as parallel:
        _run(monkeypatch, config, PARALLEL, cpus, compare=True)
    width = _TAKES[stages[first]][1]
    assert f"{stages[first]}: take({width}) returned {width - first - 1} draws" in str(serial.value)
    assert str(parallel.value) == str(serial.value)


@pytest.mark.parametrize("cpus", [2, 5])
@pytest.mark.parametrize("failing", [96, 304])
def test_a_later_kind_failing_in_an_earlier_chunk_raises_the_serial_error(monkeypatch, cpus, failing):
    # the median-of-means reduction fails on the chunk of replicate `failing`,
    # and replicate 900's stage-1 take, the first kind's, comes up short
    # later in the stream: the serial run stops at the reduction
    marker = _replicate_rng(0, failing).normal(100.0, 50.0, 1)[0]  # the replicate's first draw
    estimator = harness._estimator

    def failing_estimator(kind, spec, plan):
        takes, reduce = estimator(kind, spec, plan)
        if kind is not EstimatorKind.MEDIAN_OF_MEANS_ONLY:
            return takes, reduce

        def reduce_or_fail(rows):
            if (rows[:, 0] == marker).any():
                raise ValueError(f"median of means fails at replicate {failing}")
            return reduce(rows)

        return takes, reduce_or_fail

    monkeypatch.setattr(harness, "_estimator", failing_estimator)
    config = CoverageConfig(SPEC, _ShortAt(0, [900]), 1000, seed=0)
    with pytest.raises(ValueError) as serial:
        _run(monkeypatch, config, SERIAL, compare=True)
    with pytest.raises(ValueError) as parallel:
        _run(monkeypatch, config, PARALLEL, cpus, compare=True)
    assert type(serial.value) is ValueError
    assert str(serial.value) == f"median of means fails at replicate {failing}"
    assert type(parallel.value) is ValueError and str(parallel.value) == str(serial.value)


@pytest.mark.parametrize("kind", [None, *EstimatorKind], ids=["compare", *(kind.value for kind in EstimatorKind)])
def test_a_compare_opens_each_replicate_stream_once(monkeypatch, kind):
    # a comparison makes the two-stage takes of each replicate, once; a
    # single kind makes its own takes
    opened, takes = [], []

    class Counted(harness.SampleSource):
        def __init__(self, dist, seed, replicate_index, seed_words):
            opened.append(replicate_index)
            super().__init__(dist, seed, replicate_index, seed_words)

        def take(self, n):
            takes.append(n)
            return super().take(n)

    monkeypatch.setattr(harness, "SampleSource", Counted)
    monkeypatch.setattr(harness, "_MIN_SLICE_DRAWS", SERIAL)
    replications = 101
    if kind is None:
        compare_estimators(SPEC, DIST, replications, seed=4)
    else:
        run_coverage(CoverageConfig(SPEC, DIST, replications, seed=4, estimator=kind))
    widths = {
        None: [_PLAN.samples_stage1, _PLAN.n],
        EstimatorKind.TWO_STAGE: [_PLAN.samples_stage1, _PLAN.n],
        EstimatorKind.MEDIAN_OF_MEANS_ONLY: [math.prod(harness._mom_baseline_params(SPEC, _PLAN.total_samples))],
        EstimatorKind.NAIVE_MEAN: [_PLAN.total_samples],
    }[kind]
    assert opened == list(range(replications))
    assert sorted(takes) == sorted(widths * replications)


class _DiesInChild:
    """Normal draws in the process that built it; a forked child that
    draws from it exits at once, without a result."""

    spec_string = "dies-in-child"

    def __init__(self):
        self._pid = os.getpid()

    def sample(self, rng, n):
        if os.getpid() != self._pid:
            os._exit(3)
        return rng.normal(100.0, 50.0, n)

    def facts(self):
        return DIST.facts()


def test_a_child_dying_without_a_result_is_named(monkeypatch):
    config = CoverageConfig(SPEC, _DiesInChild(), 1000, seed=0)
    bounds = harness._slice_bounds(1000, 2)
    with pytest.raises(RuntimeError, match=f"replicates {bounds[1]}..999 died without a result .exit code 3"):
        _run(monkeypatch, config, PARALLEL, 2)


class _UnpicklableError(Exception):
    def __init__(self, detail, code):
        super().__init__(f"{detail} ({code})")


class _RaisesInChild(_DiesInChild):
    def sample(self, rng, n):
        if os.getpid() != self._pid:
            raise _UnpicklableError("no pickle", 7)
        return rng.normal(100.0, 50.0, n)


def test_an_exception_that_cannot_cross_the_pipe_keeps_its_type_and_message(monkeypatch):
    config = CoverageConfig(SPEC, _RaisesInChild(), 1000, seed=0)
    bounds = harness._slice_bounds(1000, 2)
    with pytest.raises(RuntimeError, match=rf"replicates {bounds[1]}\.\.999: _UnpicklableError: no pickle \(7\)"):
        _run(monkeypatch, config, PARALLEL, 2)


class _InterruptedInParent(_DiesInChild):
    """The process that built it is interrupted at its first take; a child
    blocks for 30 s at its first take, then exits."""

    def sample(self, rng, n):
        if os.getpid() == self._pid:
            raise KeyboardInterrupt
        time.sleep(30)
        os._exit(4)


def test_an_interrupt_kills_and_reaps_the_children(monkeypatch):
    config = CoverageConfig(SPEC, _InterruptedInParent(), 1000, seed=0)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _run(monkeypatch, config, PARALLEL, 3)
    assert time.monotonic() - start < 15


class _ShortInParent(_DiesInChild):
    """Every take in the process that built it comes up one draw short; a
    child blocks for 30 s at its first take, then exits."""

    def sample(self, rng, n):
        if os.getpid() == self._pid:
            return rng.normal(100.0, 50.0, n - 1)
        time.sleep(30)
        os._exit(4)


def test_a_failing_first_slice_raises_at_once_and_kills_the_children(monkeypatch):
    # _run checks that no child outlives the run
    config = CoverageConfig(SPEC, _ShortInParent(), 1000, seed=0)
    with pytest.raises(SourceContractError) as serial:
        _run(monkeypatch, config, SERIAL)
    start = time.monotonic()
    with pytest.raises(SourceContractError) as parallel:
        _run(monkeypatch, config, PARALLEL, 3)
    assert time.monotonic() - start < 15
    assert str(parallel.value) == str(serial.value)


def test_worker_count_rule(monkeypatch):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 4)
    per_worker = harness._MIN_SLICE_DRAWS
    assert harness._worker_count(100, per_worker // 100 - 1) == 1
    assert harness._worker_count(100, 2 * per_worker // 100) == 2
    assert harness._worker_count(1000, per_worker) == 4
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        # a forked child would hold only this thread
        assert harness._worker_count(1000, per_worker) == 1
    finally:
        release.set()
        other.join(30)
    assert not other.is_alive()
    assert harness._worker_count(1000, per_worker) == 4
    monkeypatch.delattr(os, "fork")
    assert harness._worker_count(1000, per_worker) == 1


def test_budget_matches_two_stage_plan():
    plan = build_plan(SPEC, Mode.STRICT)
    report = run_coverage(CoverageConfig(SPEC, DIST, 100, seed=1))
    assert report.samples_per_run == plan.k * plan.m + plan.n
    paper = run_coverage(CoverageConfig(SPEC, DIST, 100, seed=1, mode=Mode.PAPER_EXACT))
    assert paper.samples_per_run == theorem1_total(SPEC)


def test_mom_baseline_degrades_to_a_plain_mean_when_its_group_size_overflows():
    # 8 c^2 / epsilon^2 is inf, while the plan's own counts are finite
    spec = ApproxSpec(1e-150, 0.99, 5477.0)
    assert math.isinf(8.0 * spec.c**2 / spec.epsilon**2)
    assert harness._mom_baseline_params(spec, 10**6) == (10**6, 1)
    assert harness._mom_baseline_params(SPEC, 208) == (50, 3)


def test_compare_rows_share_budget():
    rows = compare_estimators(SPEC, DIST, 100, seed=3)
    assert [r.estimator for r in rows] == ["twostage", "mom", "naive"]
    assert len({r.samples_per_run for r in rows}) == 1
    assert len({r.seed for r in rows}) == 1
    two_stage = rows[0]
    assert two_stage.failure_rate <= SPEC.delta + two_stage.binomial_3sigma


def test_compare_runs_on_heavy_tails():
    from relmean import ParetoShape

    dist = ParetoShape(2.5)
    spec = ApproxSpec(0.2, 0.1, dist.facts().c_bound)
    rows = compare_estimators(spec, dist, 100, seed=5)
    assert len(rows) == 3
    assert rows[0].failure_rate <= spec.delta + rows[0].binomial_3sigma


def test_write_csv_empty_and_single(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], path)
    assert path.read_text(encoding="ascii") == CSV_HEADER + "\n"

    report = run_coverage(CoverageConfig(SPEC, DIST, 100, seed=1))
    single = tmp_path / "single.csv"
    write_csv([report], single)
    lines = single.read_text(encoding="ascii").splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER


def test_write_csv_bit_stable(tmp_path):
    report = run_coverage(CoverageConfig(SPEC, DIST, 100, seed=1))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv([report, report], a)
    write_csv([report, report], b)
    assert a.read_bytes() == b.read_bytes()


def test_csv_round_trip_of_real_reports(tmp_path):
    rows = compare_estimators(SPEC, DIST, 100, seed=9)
    path = tmp_path / "rows.csv"
    write_csv(rows, path)
    parsed = _parse_csv(path)
    assert len(parsed) == len(rows)
    for original, back in zip(rows, parsed):
        for f in fields(CoverageReport):
            a, b = getattr(original, f.name), getattr(back, f.name)
            if isinstance(a, float):
                assert math.isclose(a, b, rel_tol=1e-8, abs_tol=1e-12)
            else:
                assert a == b
    # a second write of the parsed rows reproduces the same bytes
    rewritten = tmp_path / "rows2.csv"
    write_csv(parsed, rewritten)
    assert rewritten.read_bytes() == path.read_bytes()


_report_strategy = st.builds(
    CoverageReport,
    estimator=st.sampled_from(["twostage", "mom", "naive"]),
    distribution=st.sampled_from(["constant:5", "normal:100,50", "pareto:2.5"]),
    epsilon=st.floats(min_value=1e-3, max_value=0.999),
    delta=st.floats(min_value=1e-6, max_value=0.999),
    c=st.floats(min_value=1e-3, max_value=1e3),
    mode=st.sampled_from(["paper", "strict"]),
    R=st.integers(min_value=100, max_value=10**6),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    samples_per_run=st.integers(min_value=1, max_value=10**9),
    failures=st.integers(min_value=0, max_value=10**6),
    failure_rate=st.floats(min_value=0.0, max_value=1.0),
    binomial_3sigma=st.floats(min_value=0.0, max_value=1.0),
    mean_abs_rel_error=st.floats(min_value=0.0, max_value=1e6),
)


@settings(max_examples=50, derandomize=True)
@given(st.lists(_report_strategy, max_size=5))
def test_csv_round_trip_random_reports(tmp_path_factory, reports):
    path = tmp_path_factory.mktemp("csv") / "r.csv"
    write_csv(reports, path)
    parsed = _parse_csv(path)
    for original, back in zip(parsed, reports):
        for f in fields(CoverageReport):
            a, b = getattr(original, f.name), getattr(back, f.name)
            if isinstance(b, float):
                assert math.isclose(a, b, rel_tol=1e-8, abs_tol=1e-12)
            else:
                assert a == b
