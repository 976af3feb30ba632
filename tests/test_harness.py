"""Coverage-harness behaviour and the CSV report contract."""

from __future__ import annotations

import csv
import errno
import functools
import math
import os
import pickle
import re
import signal
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
    SampleSource,
    Scaled,
    ScaledBernoulli,
    SourceContractError,
    SourceFacts,
    build_plan,
    compare_estimators,
    estimate_mean,
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


def _kind_report(config, kind):
    """The report of `kind` on the config's run: run_coverage's for the
    two-stage, the kind's compare_estimators row for a baseline."""
    if kind is EstimatorKind.TWO_STAGE:
        return run_coverage(config)
    rows = compare_estimators(config.spec, config.dist, config.replications, config.seed, config.mode)
    return rows[list(EstimatorKind).index(kind)]


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


class _NanBound:
    """A law of relative variance 0.25 whose facts state a NaN c bound."""

    spec_string = "nan-bound"

    def sample(self, rng, n):
        return rng.normal(1.0, 0.5, n)

    def facts(self):
        return SourceFacts(1.0, 0.25, math.nan)


def test_coverage_rejects_a_nan_c_bound():
    # NaN > c is false, so the c-bound check once let this law run at
    # c = 0.1, where it needs c >= 0.5
    with pytest.raises(ValueError, match=r"^c_bound must be finite and lie in \[0, inf\), got nan$"):
        CoverageConfig(ApproxSpec(0.2, 0.1, 0.1), _NanBound(), 100, 1)


def test_coverage_rejects_too_few_replications():
    with pytest.raises(ValueError, match=r"^replications must be an integer in \[100, 4294967296\), got 99$"):
        CoverageConfig(SPEC, DIST, 99, seed=0)


def test_coverage_rejects_replications_beyond_one_spawn_key_word():
    CoverageConfig(SPEC, DIST, 2**32 - 1, seed=0)
    with pytest.raises(ValueError, match="replications"):
        CoverageConfig(SPEC, DIST, 2**32, seed=0)


def test_coverage_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        CoverageConfig(SPEC, DIST, 100, seed=-1)


def test_coverage_rejects_non_integer_replications_and_seed():
    with pytest.raises(ValueError, match=r"^replications must be an integer in \[100, 4294967296\), got 100\.5$"):
        CoverageConfig(SPEC, DIST, 100.5, seed=0)
    with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, inf\), got 0\.5$"):
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
    config = CoverageConfig(spec, dist, replications, seed=2024, mode=mode)
    report = _kind_report(config, kind)
    assert (report.failures, report.mean_abs_rel_error) == oracles.coverage_reference(config, kind)


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
    config = CoverageConfig(spec, dist, replications, seed=seed)
    report = _kind_report(config, kind)
    assert (report.failures, report.mean_abs_rel_error) == oracles.coverage_reference(config, kind)


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
    config = CoverageConfig(spec, dist, replications, seed=2024, mode=mode)
    reports = compare_estimators(spec, dist, replications, seed=2024, mode=mode)
    for kind, report in zip(EstimatorKind, reports):
        failures, mean_abs_rel_error = oracles.coverage_reference(config, kind)
        assert (report.failures, report.mean_abs_rel_error.hex()) == (failures, mean_abs_rel_error.hex())


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
def test_coverage_is_the_two_stage_row_of_a_compare(dist, mode):
    # run_coverage certifies the two-stage estimator alone; a comparison
    # reports it as its first row, from the same draws
    spec = ApproxSpec(0.2, 0.1, dist.facts().c_bound or 0.5)
    config = CoverageConfig(spec, dist, 101, seed=2024, mode=mode)
    report = run_coverage(config)
    row = compare_estimators(spec, dist, 101, seed=2024, mode=mode)[0]
    assert report.estimator == EstimatorKind.TWO_STAGE.value
    assert report == row
    assert report.mean_abs_rel_error.hex() == row.mean_abs_rel_error.hex()


class _Misbehaving:
    """A distribution whose draws break the take contract."""

    def __init__(self, sample):
        self.sample = sample
        self.spec_string = "misbehaving"

    def facts(self):
        return Normal(100.0, 50.0).facts()


# the columns of each stage in a replicate's one take at SPEC
_PLAN = build_plan(SPEC)
_BUDGET = _PLAN.total_samples
_STAGES = {"stage 1": range(0, _PLAN.samples_stage1), "stage 2": range(_PLAN.samples_stage1, _BUDGET)}


@pytest.mark.parametrize("problem", ["returned", "non-finite"], ids=["short", "nan"])
@pytest.mark.parametrize("stage", _STAGES, ids=["stage-1", "stage-2"])
@pytest.mark.parametrize("compare", [False, True], ids=["coverage", "compare"])
def test_coverage_names_a_broken_take(problem, stage, compare):
    # every draw passes the one take-contract gate: a replicate's one take of
    # k*m + n draws, whichever kinds read them.  A take that ends inside the
    # stage is short, and names both stages; a NaN in the stage's columns
    # names the stage
    columns = _STAGES[stage]

    def sample(rng, n):
        assert n == _BUDGET
        if problem == "returned":
            return rng.normal(100.0, 50.0, columns[-1])
        draws = rng.normal(100.0, 50.0, n)
        draws[columns] = np.nan
        return draws

    dist = _Misbehaving(sample)
    with pytest.raises(SourceContractError) as raised:
        compare_estimators(SPEC, dist, 100, seed=0) if compare else run_coverage(CoverageConfig(SPEC, dist, 100, seed=0))
    if problem == "returned":
        assert str(raised.value) == f"stages 1 and 2: take({_BUDGET}) returned {columns[-1]} draws in shape ({columns[-1]},)"
    else:
        assert str(raised.value) == f"{stage}: take({_BUDGET}) returned a non-finite draw from misbehaving"


# --- replicate slices in forked children ---------------------------------
# _MIN_SLICE_DRAWS = 1 gives every usable CPU a slice; a huge value keeps
# the run in this process.  _usable_cpus is raised above this host's CPU
# count to split runs into more slices than there are cores.

SERIAL, PARALLEL = 2**62, 1


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _bounds(config, workers):
    """The slice bounds of a run of `config` on `workers` workers."""
    rows = harness._chunk_rows(build_plan(config.spec, config.mode).total_samples)
    return harness._slice_bounds(config.replications, workers, rows)


def _run(monkeypatch, config, min_slice_draws, cpus=None, compare=False, reruns=()):
    """run_coverage (or compare_estimators on the config's arguments) at the
    given slice threshold and CPU count; checks that a parallel run forked
    once per extra worker, that no child outlives the run and, when the run
    succeeds, that this process ran slice 0 and only the slices listed in
    `reruns`, in order: a child that fails is rerun here, so a broken child
    would otherwise only make the run slower."""
    monkeypatch.setattr(harness, "_MIN_SLICE_DRAWS", min_slice_draws)
    if cpus is not None:
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    forks = []

    def fork(real_fork=os.fork):
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    here, parent, rounds = [], os.getpid(), []
    run_slices = harness._run_slices

    def counted_run_slices(fill, bounds):
        rounds.append(bounds)

        def counted_fill(lo, hi):
            if os.getpid() == parent:
                here.append((lo, hi))
            fill(lo, hi)

        run_slices(counted_fill, bounds)

    monkeypatch.setattr(harness, "_run_slices", counted_run_slices)
    try:
        if compare:
            result = compare_estimators(config.spec, config.dist, config.replications, config.seed, config.mode)
        else:
            result = run_coverage(config)
    finally:
        _assert_no_children()
        workers = harness._usable_cpus() if min_slice_draws == PARALLEL else 1
        assert len(forks) == len(_bounds(config, workers)) - 2
    [bounds] = rounds
    assert here == [(bounds[i], bounds[i + 1]) for i in [0, *reruns]]
    return result


@pytest.mark.parametrize("cpus", [None, 5])
@pytest.mark.parametrize("seed", [3, 2**32 + 3, 2**64 + 3], ids=["1word", "2words", "3words"])
@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("replications", [100, 101, 1000, 1001])
def test_parallel_coverage_is_bit_identical_to_serial(monkeypatch, replications, mode, seed, cpus):
    # the two modes give a replicate's take, and its two stages, other widths
    config = CoverageConfig(SPEC, DIST, replications, seed=seed, mode=mode)
    serial = _run(monkeypatch, config, SERIAL)
    parallel = _run(monkeypatch, config, PARALLEL, cpus)
    assert parallel == serial
    assert parallel.mean_abs_rel_error.hex() == serial.mean_abs_rel_error.hex()


@pytest.mark.parametrize("cpus", [None, 5])
@pytest.mark.parametrize("seed", [11, 3, 2**32 + 3, 2**64 + 3], ids=["11", "1word", "2words", "3words"])
@pytest.mark.parametrize("replications", [100, 101, 1000, 1001])
def test_parallel_compare_forks_once_and_is_bit_identical_to_serial(monkeypatch, replications, seed, cpus):
    # one round of slices computes all three kinds; the two-stage row is
    # run_coverage's report
    config = CoverageConfig(SPEC, DIST, replications, seed=seed)
    serial = _run(monkeypatch, config, SERIAL, compare=True)
    parallel = _run(monkeypatch, config, PARALLEL, cpus, compare=True)
    assert parallel == serial
    assert [r.mean_abs_rel_error.hex() for r in parallel] == [r.mean_abs_rel_error.hex() for r in serial]
    assert run_coverage(config) == serial[0]


@functools.cache
def _reference(replications):
    """Each kind's (failures, mean_abs_rel_error hex) on DIST at SPEC, seed 6."""
    config = CoverageConfig(SPEC, DIST, replications, seed=6)
    return [(f, e.hex()) for f, e in (oracles.coverage_reference(config, kind) for kind in EstimatorKind)]


@pytest.mark.parametrize("cpus", [None, 2], ids=["serial", "two-workers"])
@pytest.mark.parametrize("replications", [101, 1000])
@pytest.mark.parametrize("rows", [1, 3, 32])
def test_chunk_size_does_not_change_results(monkeypatch, rows, replications, cpus):
    # a chunk holds _CHUNK_DRAWS // budget rows, at most 32; 101 replicates
    # leave a partial last chunk at 3 and 32 rows
    monkeypatch.setattr(harness, "_CHUNK_DRAWS", rows * _BUDGET)
    assert harness._chunk_rows(_BUDGET) == rows
    config = CoverageConfig(SPEC, DIST, replications, seed=6)
    min_slice_draws = SERIAL if cpus is None else PARALLEL
    report = _run(monkeypatch, config, min_slice_draws, cpus)
    reports = _run(monkeypatch, config, min_slice_draws, cpus, compare=True)
    assert [(r.failures, r.mean_abs_rel_error.hex()) for r in reports] == _reference(replications)
    assert (report.failures, report.mean_abs_rel_error.hex()) == _reference(replications)[0]


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs"
)
def test_forked_children_keep_the_parents_cpu_set():
    # each child records its CPU set once this process has started its
    # own slice, after every fork; a slice rerun here records nothing
    parent, parent_cpus = os.getpid(), os.sched_getaffinity(0)
    bounds = [0, 1, 2, 3]
    started = harness._shared_empty((1,))
    started[0] = 0.0
    cpus = harness._shared_empty((len(bounds) - 1, max(parent_cpus) + 1))
    cpus[:] = 0.0

    def fill(lo, hi):
        if os.getpid() == parent:
            started[0] = 1.0
            return
        deadline = time.monotonic() + 10
        while started[0] == 0.0 and time.monotonic() < deadline:
            time.sleep(0.001)
        cpus[lo, sorted(os.sched_getaffinity(0))] = 1.0

    harness._run_slices(fill, bounds)
    _assert_no_children()
    assert [set(np.flatnonzero(row).tolist()) for row in cpus[1:]] == [parent_cpus, parent_cpus]


@pytest.mark.parametrize("replications, workers", [(100, 2), (101, 5), (1000, 3), (1001, 4), (16, 7)])
def test_slices_are_placed_by_replicate_index(replications, workers):
    for rows in (1, 3, 8, 32):
        bounds = harness._slice_bounds(replications, workers, rows)
        assert bounds[0] == 0 and bounds[-1] == replications
        assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))
        assert all(b % rows == 0 for b in bounds[:-1])
        assert len(bounds) - 1 == min(workers, -(-replications // rows))
    values = harness._shared_empty((replications,))
    values[:] = np.nan
    here = []

    def fill(lo, hi):
        here.append((lo, hi))  # a child's append stays in the child
        values[lo:hi] = np.arange(lo, hi) * 1.5

    harness._run_slices(fill, bounds)
    _assert_no_children()
    assert here == [(bounds[0], bounds[1])]
    assert values.tolist() == (np.arange(replications) * 1.5).tolist()


class _BrokenAt:
    """Normal(100, 50) draws, except that the first take of each listed
    replicate stream breaks: the take of the i-th listed replicate comes up
    short by i + 1 draws, a count that names the replicate, or, where
    columns are given, holds a NaN in its column columns[i]."""

    def __init__(self, seed, replicates, columns=None):
        self.spec_string = "broken-at"
        self._broken = {}
        for i, (r, column) in enumerate(zip(replicates, columns or [None] * len(replicates))):
            self._broken[self._state(_replicate_rng(seed, r))] = (i, column)

    @staticmethod
    def _state(rng):
        return rng.bit_generator.state["state"]["state"]

    def sample(self, rng, n):
        if self._state(rng) not in self._broken:
            return rng.normal(100.0, 50.0, n)
        i, column = self._broken[self._state(rng)]
        if column is None:
            return rng.normal(100.0, 50.0, n - i - 1)
        draws = rng.normal(100.0, 50.0, n)
        draws[column] = np.nan
        return draws

    def facts(self):
        return DIST.facts()


@pytest.mark.parametrize(
    "cpus, broken, first",
    [(None, (900, 600), 600), (None, (700, 300), 300), (5, (950, 620, 990), 620)],
    ids=["child", "parent-and-child", "two-children"],
)
@pytest.mark.parametrize("compare", [False, True], ids=["coverage", "compare"])
def test_broken_take_in_a_slice_raises_the_serial_error(monkeypatch, compare, cpus, broken, first):
    config = CoverageConfig(SPEC, _BrokenAt(0, broken), 1000, seed=0)
    with pytest.raises(SourceContractError) as serial:
        _run(monkeypatch, config, SERIAL, compare=compare)
    with pytest.raises(SourceContractError) as parallel:
        _run(monkeypatch, config, PARALLEL, cpus, compare=compare)
    # the message names the lowest broken replicate by its shortfall
    width = int(re.search(r"take\((\d+)\)", str(serial.value)).group(1))
    assert f"returned {width - broken.index(first) - 1} draws" in str(serial.value)
    assert str(parallel.value) == str(serial.value)


@pytest.mark.parametrize("cpus", [None, 5])
@pytest.mark.parametrize(
    "broken, first",
    [
        (((900, "stage 1"), (10, "stage 2")), 1),
        (((900, "stage 2"), (100, "stage 1")), 1),
        (((950, "stage 1"), (600, "stage 2")), 1),
        (((300, "stage 1"), (950, "stage 1"), (10, "stage 2")), 2),
    ],
    ids=["slice-0-stage-2-beats-a-child", "slice-0-stage-1-beats-a-child", "children-only", "lowest-replicate"],
)
def test_broken_take_in_a_compare_raises_the_serial_error(monkeypatch, cpus, broken, first):
    # a comparison draws each replicate once, in one take; each listed
    # replicate has a NaN in the first column of its stage, and the lowest
    # one's stage is the only one its message can name.  The serial run
    # stops at its first chunk's error, each slice at its own first, and
    # the parent raises the lowest of them
    replicates, stages = zip(*broken)
    assert [stage for stage in stages if stage == stages[first]] == [stages[first]]
    columns = [_STAGES[stage][0] for stage in stages]
    config = CoverageConfig(SPEC, _BrokenAt(0, replicates, columns), 1000, seed=0)
    with pytest.raises(SourceContractError) as serial:
        _run(monkeypatch, config, SERIAL, compare=True)
    with pytest.raises(SourceContractError) as parallel:
        _run(monkeypatch, config, PARALLEL, cpus, compare=True)
    assert str(serial.value) == f"{stages[first]}: take({_BUDGET}) returned a non-finite draw from broken-at"
    assert str(parallel.value) == str(serial.value)


@pytest.mark.parametrize("cpus", [2, 5])
@pytest.mark.parametrize("failing", [96, 304])
def test_a_later_kind_failing_in_an_earlier_chunk_raises_the_serial_error(monkeypatch, cpus, failing):
    # the median-of-means reduction fails on the chunk of replicate `failing`,
    # and replicate 900's take comes up short later in the stream: the
    # serial run stops at the reduction
    marker = _replicate_rng(0, failing).normal(100.0, 50.0, 1)[0]  # the replicate's first draw
    estimator = harness._estimator

    def failing_estimator(kind, spec, plan):
        reduce = estimator(kind, spec, plan)
        if kind is not EstimatorKind.MEDIAN_OF_MEANS_ONLY:
            return reduce

        def reduce_or_fail(rows):
            if (rows[:, 0] == marker).any():
                raise ValueError(f"median of means fails at replicate {failing}")
            return reduce(rows)

        return reduce_or_fail

    monkeypatch.setattr(harness, "_estimator", failing_estimator)
    config = CoverageConfig(SPEC, _BrokenAt(0, [900]), 1000, seed=0)
    with pytest.raises(ValueError) as serial:
        _run(monkeypatch, config, SERIAL, compare=True)
    with pytest.raises(ValueError) as parallel:
        _run(monkeypatch, config, PARALLEL, cpus, compare=True)
    assert type(serial.value) is ValueError
    assert str(serial.value) == f"median of means fails at replicate {failing}"
    assert type(parallel.value) is ValueError and str(parallel.value) == str(serial.value)


@pytest.mark.parametrize("compare", [True, False], ids=["compare", "coverage"])
def test_a_compare_opens_each_replicate_stream_once(monkeypatch, compare):
    # a comparison makes one take of each replicate's two-stage budget,
    # k*m + n draws, as run_coverage does
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
    if compare:
        compare_estimators(SPEC, DIST, replications, seed=4)
    else:
        run_coverage(CoverageConfig(SPEC, DIST, replications, seed=4))
    assert opened == list(range(replications))
    assert takes == [_BUDGET] * replications


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


class _KilledInChild(_DiesInChild):
    """Normal draws in the process that built it; a forked child that
    draws from it is killed by SIGKILL."""

    spec_string = "killed-in-child"

    def sample(self, rng, n):
        if os.getpid() != self._pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return rng.normal(100.0, 50.0, n)


@pytest.mark.parametrize("compare", [False, True], ids=["coverage", "compare"])
@pytest.mark.parametrize("cpus", [2, 5])
@pytest.mark.parametrize("dist", [_DiesInChild, _KilledInChild], ids=["exits", "killed"])
def test_a_slice_whose_child_dies_runs_in_the_parent(monkeypatch, dist, cpus, compare):
    config = CoverageConfig(SPEC, dist(), 1000, seed=0)
    serial = _run(monkeypatch, config, SERIAL, compare=compare)
    children = range(1, len(_bounds(config, cpus)) - 1)
    parallel = _run(monkeypatch, config, PARALLEL, cpus, compare=compare, reruns=children)
    assert parallel == serial
    assert repr(parallel) == repr(serial)  # float reprs round-trip: bit for bit


@pytest.mark.parametrize("compare", [False, True], ids=["coverage", "compare"])
@pytest.mark.parametrize("failing", ["every", "first", "last", "alternate"])
@pytest.mark.parametrize("cpus", [2, 3, 4, 5])
def test_a_slice_whose_fork_fails_runs_in_the_parent(monkeypatch, cpus, failing, compare):
    # EAGAIN or ENOMEM from fork() leaves one process that can finish the run
    config = CoverageConfig(SPEC, DIST, 1000, seed=0)
    serial = _run(monkeypatch, config, SERIAL, compare=compare)
    extra = len(_bounds(config, cpus)) - 2
    fails = {
        "every": range(extra), "first": [0], "last": [extra - 1], "alternate": range(0, extra, 2),
    }[failing]
    calls = []

    def fork(real_fork=os.fork):
        calls.append(len(calls))
        if calls[-1] in fails:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(harness, "_MIN_SLICE_DRAWS", PARALLEL)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", fork)
    try:
        if compare:
            result = compare_estimators(config.spec, config.dist, config.replications, config.seed, config.mode)
        else:
            result = run_coverage(config)
    finally:
        _assert_no_children()
    assert calls == list(range(extra))
    assert result == serial
    assert repr(result) == repr(serial)  # float reprs round-trip: bit for bit


class _UnpicklableError(Exception):
    def __init__(self, detail, code):
        super().__init__(f"{detail} ({code})")


class _FailsAt:
    """Normal(100, 50) draws, except that the first take of one replicate
    stream raises an exception that does not survive a pickle round trip,
    in every process."""

    spec_string = "fails-at"

    def __init__(self, seed, replicate):
        self._state = _BrokenAt._state(_replicate_rng(seed, replicate))

    def sample(self, rng, n):
        if _BrokenAt._state(rng) == self._state:
            raise _UnpicklableError("no pickle", 7)
        return rng.normal(100.0, 50.0, n)

    def facts(self):
        return DIST.facts()


@pytest.mark.parametrize("compare", [False, True], ids=["coverage", "compare"])
@pytest.mark.parametrize("workers", [1, 2, 5])
def test_an_unpicklable_exception_is_the_serial_runs_own(monkeypatch, workers, compare):
    with pytest.raises(TypeError):
        pickle.loads(pickle.dumps(_UnpicklableError("no pickle", 7)))
    config = CoverageConfig(SPEC, _FailsAt(0, 900), 1000, seed=0)
    with pytest.raises(_UnpicklableError, match=r"^no pickle \(7\)$") as raised:
        _run(monkeypatch, config, PARALLEL, workers, compare=compare)  # one usable CPU: one worker
    assert type(raised.value) is _UnpicklableError
    tb = raised.value.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    assert tb.tb_frame.f_code is _FailsAt.sample.__code__  # the failing frame, not the runner's


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


@pytest.mark.parametrize("compare", [False, True], ids=["coverage", "compare"])
@pytest.mark.parametrize("value, stage", [(1e306, "stage 2"), (5e306, "stage 1")])
def test_a_stage_sum_that_overflows_raises_the_serial_loops_error(monkeypatch, value, stage, compare):
    # each draw is finite; coverage raises what estimate_mean raises on the
    # first replicate, serially and in slices, with no warning
    spec = ApproxSpec(0.1, 0.05, 1.0)
    with pytest.raises(ValueError, match=f"^{stage}: .* overflows") as single:
        estimate_mean(SampleSource(Constant(value), 0, 0), spec)
    config = CoverageConfig(spec, Constant(value), 100, seed=0)
    with pytest.raises(ValueError) as serial:
        _run(monkeypatch, config, SERIAL, compare=compare)
    with pytest.raises(ValueError) as parallel:
        _run(monkeypatch, config, PARALLEL, 2, compare=compare)
    assert str(serial.value) == str(parallel.value) == str(single.value)


class _ByReplicate:
    """Constant draws, of values[r] in a listed replicate r and 100 in
    every other one."""

    spec_string = "by-replicate"

    def __init__(self, seed, values):
        self._values = {_BrokenAt._state(_replicate_rng(seed, r)): v for r, v in values.items()}

    def sample(self, rng, n):
        return np.full(n, self._values.get(_BrokenAt._state(rng), 100.0))

    def facts(self):
        return Constant(100.0).facts()


@pytest.mark.parametrize("compare", [False, True], ids=["coverage", "compare"])
@pytest.mark.parametrize(
    "values, error",
    [({3: 1e306, 5: -1.0}, "stage 2: the sum of n = 974 terms overflows"), ({3: -1.0, 5: 1e306}, "not positive")],
    ids=["overflow-first", "nonpositive-first"],
)
def test_the_first_failing_replicate_of_a_chunk_raises_its_own_error(monkeypatch, values, error, compare):
    # replicates 3 and 5 share a chunk, where every centre is checked before
    # any stage 2 is summed; a replicate-by-replicate loop meets replicate
    # 3's error first
    spec = ApproxSpec(0.1, 0.05, 1.0)
    dist = _ByReplicate(0, values)
    with pytest.raises((ValueError, RuntimeError), match=error) as single:
        for r in range(100):
            estimate_mean(SampleSource(dist, 0, r), spec)
    config = CoverageConfig(spec, dist, 100, seed=0)
    with pytest.raises(type(single.value)) as serial:
        _run(monkeypatch, config, SERIAL, compare=compare)
    with pytest.raises(type(single.value)) as parallel:
        _run(monkeypatch, config, PARALLEL, 2, compare=compare)
    assert str(serial.value) == str(parallel.value) == str(single.value)


class _NanThenShort:
    """Normal(10, 2) draws, except that the first take of replicate 2 holds
    a NaN in its first column and that of replicate 5 comes up one draw
    short."""

    spec_string = "normal:10,2"

    def __init__(self, seed):
        self._nan = _BrokenAt._state(_replicate_rng(seed, 2))
        self._short = _BrokenAt._state(_replicate_rng(seed, 5))

    def sample(self, rng, n):
        state = _BrokenAt._state(rng)
        draws = rng.normal(10.0, 2.0, n - (state == self._short))
        if state == self._nan:
            draws[0] = np.nan
        return draws

    def facts(self):
        return Normal(10.0, 2.0).facts()


@pytest.mark.parametrize("compare", [False, True], ids=["coverage", "compare"])
@pytest.mark.parametrize("workers", [SERIAL, PARALLEL], ids=["serial", "parallel"])
def test_a_chunk_raises_its_first_failing_replicates_error(monkeypatch, workers, compare):
    # replicates 2 and 5 share a chunk; a replicate-by-replicate loop meets
    # replicate 2's non-finite draw before replicate 5's short take
    config = CoverageConfig(SPEC, _NanThenShort(0), 100, seed=0)
    assert build_plan(SPEC).total_samples == 208 and harness._chunk_rows(208) > 5
    with pytest.raises(SourceContractError) as raised:
        _run(monkeypatch, config, workers, 2, compare=compare)
    assert str(raised.value) == "stage 1: take(208) returned a non-finite draw from normal:10,2"


class _ShortOnce:
    """Normal(100, 50) draws, except that the first take this object makes
    comes up one draw short."""

    spec_string = "short-once"

    def __init__(self):
        self.takes = 0

    def sample(self, rng, n):
        self.takes += 1
        return rng.normal(100.0, 50.0, n - (self.takes == 1))

    def facts(self):
        return DIST.facts()


def test_a_chunk_whose_replicates_pass_alone_raises_its_own_error(monkeypatch):
    # the replicates rerun one at a time all succeed, so the chunk's own
    # error stands; the run must not return a report
    config = CoverageConfig(SPEC, _ShortOnce(), 100, seed=0)
    with pytest.raises(SourceContractError, match=r"^stages 1 and 2: take\(208\) returned 207 draws in shape \(207,\)$"):
        _run(monkeypatch, config, SERIAL)


class _ComplexDraws:
    """Normal(100, 50) draws as complex numbers with zero imaginary parts."""

    spec_string = "complex"

    def sample(self, rng, n):
        return rng.normal(100.0, 50.0, n).astype(complex)

    def facts(self):
        return DIST.facts()


def test_a_chunk_of_complex_draws_is_a_contract_error(monkeypatch):
    config = CoverageConfig(SPEC, _ComplexDraws(), 100, seed=0)
    with pytest.raises(SourceContractError, match=r"^stages 1 and 2: take\(208\) returned draws of dtype complex128$"):
        _run(monkeypatch, config, SERIAL)


class _TextDraws(_ComplexDraws):
    """Normal(100, 50) draws written as decimal strings."""

    spec_string = "text"

    def sample(self, rng, n):
        return rng.normal(100.0, 50.0, n).astype(str)


def test_a_chunk_of_string_draws_is_a_contract_error(monkeypatch):
    # a cast to float would parse them
    config = CoverageConfig(SPEC, _TextDraws(), 100, seed=0)
    with pytest.raises(SourceContractError, match=r"^stages 1 and 2: take\(208\) returned draws of dtype <U\d+$"):
        _run(monkeypatch, config, SERIAL)


@pytest.mark.parametrize(
    "value, spec, message",
    [
        (1e306, ApproxSpec(0.2, 0.5, 1.0), "median of means: a group sum of k = 200 draws overflows"),
        (1.5e305, ApproxSpec(0.1, 0.05, 1.0), "plain mean: a group sum of k = 1774 draws overflows"),
    ],
)
def test_a_baseline_sum_that_overflows_is_named(value, spec, message):
    # the two-stage estimator holds these draws; a baseline sums more of them
    assert run_coverage(CoverageConfig(spec, Constant(value), 100, seed=0)).failures == 0
    with pytest.raises(ValueError, match=f"^{message}; it holds draws of magnitude up to"):
        compare_estimators(spec, Constant(value), 100, seed=0)


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


def test_mom_baseline_degrades_to_a_plain_mean_when_its_group_size_overflows(monkeypatch):
    # 8 c^2 / epsilon^2 is inf, while the plan's own counts are finite
    spec = ApproxSpec(1e-150, 0.99, 5477.0)
    assert math.isinf(8.0 * spec.c**2 / spec.epsilon**2)
    assert harness._mom_baseline_params(spec, 10**6) == (10**6, 1)
    assert harness._mom_baseline_params(SPEC, 208) == (50, 3)
    # the plan of this spec takes about 2e158 draws, so the compare runs at
    # SPEC's 208-draw plan: its degraded median of means is the plain mean
    plan = build_plan(SPEC)
    monkeypatch.setattr(harness, "build_plan", lambda spec, mode: plan)
    _, mom, naive = compare_estimators(spec, DIST, 100, seed=4)
    assert (mom.failures, mom.mean_abs_rel_error.hex()) == (naive.failures, naive.mean_abs_rel_error.hex())


def test_compare_reduces_each_baseline_through_the_stage_1_kernel(monkeypatch):
    # the plain mean is the median of one group of the whole budget
    calls = []
    median_rows = harness._median_rows

    def counted(read, k, m, stage):
        calls.append((k, m, stage))
        return median_rows(read, k, m, stage)

    monkeypatch.setattr(harness, "_median_rows", counted)
    config = CoverageConfig(SPEC, DIST, 1000, seed=2)
    _run(monkeypatch, config, PARALLEL, 1, compare=True)  # one usable CPU: one worker
    chunks = -(-1000 // harness._chunk_rows(_BUDGET))
    assert calls == [(50, 3, "median of means"), (_BUDGET, 1, "plain mean")] * chunks


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
