"""Stages streamed in bounded takes: the pairwise walk, bit-identity to
whole-stage takes, peak memory and the order of errors."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

import relmean.estimator as estimator
import relmean.harness as harness
from relmean import (
    ApproxSpec,
    Constant,
    CoverageConfig,
    InsufficientSamplesError,
    LogNormal,
    Mode,
    NonpositiveEstimateError,
    Normal,
    ParetoShape,
    Recorded,
    SampleSource,
    Scaled,
    ScaledBernoulli,
    SourceContractError,
    build_plan,
    compare_estimators,
    estimate_mean,
    median_of_means,
    run_coverage,
    scaled_psi,
    stage2_estimate,
)
from relmean.estimator import _BLOCK, _tree_sum

LIMITS = (128, 136, 2048, _BLOCK)


def _assert_walk_is_add_reduce(rng, n: int, rows: int) -> None:
    """_tree_sum over row blocks, and over 1-D float leaves, equals one
    add.reduce at every limit, bit for bit."""
    x = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (rows, n))
    want = np.add.reduce(x, axis=1)
    for limit in LIMITS:
        got = _tree_sum(n, limit, lambda lo, hi: np.add.reduce(x[:, lo:hi], axis=1))
        assert np.asarray(got).tobytes() == want.tobytes(), (n, rows, limit)
        if rows == 1:
            row = x[0]
            assert _tree_sum(n, limit, lambda lo, hi: np.add.reduce(row[lo:hi])) == np.add.reduce(row), (n, limit)


@pytest.mark.parametrize("rows", [1, 8])
def test_tree_sum_is_add_reduce_at_every_small_n(rows):
    rng = np.random.default_rng(1100 + rows)
    for n in range(1101):
        _assert_walk_is_add_reduce(rng, n, rows)


@pytest.mark.parametrize("rows", [1, 8])
def test_tree_sum_is_add_reduce_around_every_cut_size(rows):
    rng = np.random.default_rng(2048 + rows)
    sizes = {
        size * times + step
        for size in LIMITS
        for times in (1, 2, 3, 7)
        for step in (-9, -8, -1, 0, 1, 7, 8, 9)
    }
    for n in sorted(sizes):
        _assert_walk_is_add_reduce(rng, n, rows)


def test_tree_sum_is_add_reduce_at_random_n():
    rng = np.random.default_rng(10**6)
    for n in rng.integers(1, 10**6, 6).tolist():
        _assert_walk_is_add_reduce(rng, n, 1)
    for n in rng.integers(1, 10**6 // 8, 4).tolist():
        _assert_walk_is_add_reduce(rng, n, 8)


def test_tree_sum_calls_its_leaves_in_order_within_the_limit():
    segments = []
    _tree_sum(100_003, 2048, lambda lo, hi: segments.append((lo, hi)) or 0.0)
    assert segments[0][0] == 0 and segments[-1][1] == 100_003
    assert all(a[1] == b[0] for a, b in zip(segments, segments[1:]))
    assert max(hi - lo for lo, hi in segments) <= 2048


# The six built-in distributions; the recording is long enough for either plan.
DISTS = (
    Constant(3.0),
    Normal(100.0, 50.0),
    LogNormal(1.0),
    ScaledBernoulli(0.5, 2.0),
    ParetoShape(2.5),
    Recorded(tuple(SampleSource(LogNormal(0.5), 99).take(4000).tolist())),
)
# k = 50: two whole groups a take at either block; k = 160: each group is
# summed over two leaves at either block.  Both stage 2s span several leaves.
SPECS = (ApproxSpec(0.2, 1e-6, 0.5), ApproxSpec(0.1, 0.05, 1.0))


class _LoggedSource:
    """A source that records the width of every take."""

    def __init__(self, source):
        self.source = source
        self.widths = []

    def take(self, n):
        self.widths.append(n)
        return self.source.take(n)


def _whole_takes(dist, seed, spec, mode):
    """(mu1, alpha, mu_hat) of one run from two whole-stage takes, with the
    arithmetic of one add.reduce per group and one over stage 2."""
    plan = build_plan(spec, mode)
    source = SampleSource(dist, seed)
    stage1, stage2 = source.take(plan.samples_stage1), source.take(plan.n)
    means = np.add.reduce(stage1.reshape(plan.m, plan.k), axis=1) / plan.k
    means.sort()
    mu1 = means[plan.m // 2] / (1.0 - plan.epsilon1_sq)
    alpha = spec.epsilon / (spec.c * spec.c * mu1)
    return mu1, alpha, np.add.reduce(mu1 + scaled_psi(alpha, stage2 - mu1)) / plan.n


def _check_widths(widths, k, stage1, total, block):
    assert max(widths) <= block
    assert sum(widths) == total
    ends = np.cumsum(widths).tolist()
    if stage1:
        assert stage1 in ends  # no take straddles the two stages
    if k <= block:
        assert all(w % k == 0 for w, end in zip(widths, ends) if end <= stage1)


@pytest.mark.parametrize("block", [128, 136])
@pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.spec_string)
def test_streamed_stages_equal_whole_takes(monkeypatch, dist, block):
    monkeypatch.setattr(estimator, "_BLOCK", block)
    for spec in SPECS:
        for mode in Mode:
            plan = build_plan(spec, mode)
            for seed in (0, 1, 2**40 + 3):
                mu1, alpha, mu_hat = _whole_takes(dist, seed, spec, mode)
                source = _LoggedSource(SampleSource(dist, seed))
                report = estimate_mean(source, spec, mode)
                assert (report.mu1, report.alpha.alpha, report.mu_hat) == (mu1, alpha, mu_hat)
                _check_widths(source.widths, plan.k, plan.samples_stage1, plan.total_samples, block)

                source = _LoggedSource(SampleSource(dist, seed))
                median = median_of_means(source, plan.k, plan.m)
                assert median / (1.0 - plan.epsilon1_sq) == mu1
                _check_widths(source.widths, plan.k, plan.samples_stage1, plan.samples_stage1, block)

                source = _LoggedSource(SampleSource(dist, seed))
                source.source.take(plan.samples_stage1)
                assert stage2_estimate(source, mu1, spec) == (mu_hat, estimator.TruncationScale(alpha))
                _check_widths(source.widths, plan.k, 0, plan.n, block)


def test_coverage_reports_do_not_depend_on_the_block(monkeypatch):
    # coverage chunks run the same kernel over column views: k = 160 and
    # n = 974 span several leaves at a block of 128, and one at the default
    spec = ApproxSpec(0.1, 0.05, 1.0)
    whole = compare_estimators(spec, Normal(100.0, 50.0), 100, 7)
    monkeypatch.setattr(estimator, "_BLOCK", 128)
    assert compare_estimators(spec, Normal(100.0, 50.0), 100, 7) == whole


def test_coverage_frees_each_chunk_before_the_next():
    # a chunk's draws (23 x 2764 here) must not outlive its reductions, as
    # they would if the kernel's closures formed a reference cycle
    dist = LogNormal(1.0)
    config = CoverageConfig(ApproxSpec(0.1, 0.05, dist.facts().c_bound), dist, 1000, 3)
    tracemalloc.start()
    try:
        run_coverage(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**21


def test_a_coverage_chunk_of_a_large_budget_holds_one_row(monkeypatch):
    # a chunk holds about _CHUNK_DRAWS draws, and one row of a budget above
    # that, whatever the budget: the replicate's take itself, uncopied, and
    # freed before the next replicate's take; the run stays in this process,
    # where tracemalloc sees it
    spec = ApproxSpec(0.01, 0.05, 1.0)
    budget = build_plan(spec).total_samples
    assert budget == 96_526 > harness._CHUNK_DRAWS
    monkeypatch.setattr(harness, "_MIN_SLICE_DRAWS", 2**62)
    tracemalloc.start()
    try:
        run_coverage(CoverageConfig(spec, Normal(10.0, 10.0), 100, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * budget


def test_estimate_mean_peak_memory_does_not_grow_with_the_plan():
    spec = ApproxSpec(0.003, 1e-3, 0.5)
    assert build_plan(spec).total_samples == 512_178
    source = SampleSource(Normal(100.0, 50.0), 2)
    tracemalloc.start()
    try:
        estimate_mean(source, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# At _BLOCK = 128 this plan takes stage 1 in three takes of one 80-draw
# group and stage 2 in two leaves, of 112 and 119 draws.
SPEC = ApproxSpec(0.2, 0.1, 1.0)
PLAN = build_plan(SPEC)


class _BrokenSource:
    """Draws of `dist` in stream order, where the take holding position
    `at` returns a non-finite draw there, or one draw short."""

    def __init__(self, dist, at=None, short=False):
        self.dist = dist
        self.source = SampleSource(dist, 0)
        self.position = 0
        self.at = at
        self.short = short

    def take(self, n):
        draws, lo = self.source.take(n), self.position
        self.position += n
        if self.at is not None and lo <= self.at < lo + n:
            if self.short:
                return draws[:-1]
            draws[self.at - lo] = math.nan
        return draws


@pytest.fixture
def small_block(monkeypatch):
    monkeypatch.setattr(estimator, "_BLOCK", 128)
    assert (PLAN.k, PLAN.m, PLAN.n) == (80, 3, 231)


def test_a_stage_1_contract_error_comes_first(small_block):
    source = _BrokenSource(Constant(-1.0), at=100)
    with pytest.raises(SourceContractError, match=r"stage 1: take\(80\) returned a non-finite draw from constant:-1"):
        estimate_mean(source, SPEC)
    assert source.position == 160  # nothing past the take that broke


@pytest.mark.parametrize("value", [-1.0, 1e-310], ids=["nonpositive", "alpha-overflows"])
def test_a_centre_error_is_raised_before_any_stage_2_take(small_block, value):
    # stage 1 gives a centre that cannot start stage 2: a NonpositiveEstimateError,
    # or the overflow of alpha, raised once the k*m stage-1 draws are taken
    source = _BrokenSource(Constant(value))
    error, message = (NonpositiveEstimateError, "not positive") if value < 0.0 else (ValueError, "too small")
    with pytest.raises(error, match=message):
        estimate_mean(source, SPEC)
    assert source.position == PLAN.samples_stage1


def test_a_broken_stage_2_take_is_named_with_its_width(small_block):
    at = PLAN.samples_stage1 + 150  # in the second leaf, of 119 draws
    with pytest.raises(SourceContractError, match=r"stage 2: take\(119\) returned a non-finite draw from constant:3"):
        estimate_mean(_BrokenSource(Constant(3.0), at), SPEC)
    with pytest.raises(SourceContractError, match=r"stage 2: take\(119\) returned 118 draws"):
        estimate_mean(_BrokenSource(Constant(3.0), at, short=True), SPEC)


def test_recorded_exhaustion_is_raised_from_the_take_that_runs_out(small_block):
    values = tuple(SampleSource(LogNormal(1.0), 3).take(PLAN.total_samples - 1).tolist())
    with pytest.raises(InsufficientSamplesError, match=f"needed {PLAN.total_samples}"):
        estimate_mean(SampleSource(Recorded(values), 0), SPEC)


def test_leaves_with_opposite_infinite_terms_are_repaired_without_a_warning(small_block):
    # +-1e300 overflow inside psi, in both leaves; a leaf holding both sums
    # to NaN before the repair, which must not warn
    tail = np.ones(PLAN.n)
    tail[3], tail[7], tail[150], tail[200] = 1e300, -1e300, 1e160, -1e300
    source = SampleSource(Recorded(tuple(np.concatenate([np.ones(PLAN.samples_stage1), tail]).tolist())), 0)
    report = estimate_mean(source, SPEC)
    assert math.isfinite(report.mu_hat)
    assert report.mu_hat == np.mean(report.mu1 + scaled_psi(report.alpha, tail - report.mu1))


# --- a plan whose stages each fit one take -----------------------------------
#
# estimate_mean reduces such a plan in one block per stage; _two_stage_reduce,
# on one reader per stage, is the reference it must equal bit for bit, in its
# results and in the type and message of its errors.

ONE_TAKE_DISTS = DISTS[:-1] + (
    Scaled(ParetoShape(2.5), 3.0),
    Recorded(tuple(SampleSource(LogNormal(0.5), 99).take(8000).tolist())),
)
ONE_TAKE_SPECS = (
    ApproxSpec(0.2, 1e-6, 0.5),
    ApproxSpec(0.1, 0.05, 1.0),
    ApproxSpec(0.3, 0.2, 2.0),
    ApproxSpec(0.05, 0.01, 0.3),
    ApproxSpec(0.5, 0.3, 0.2),  # n = 2
    ApproxSpec(0.15, 1e-3, 1.5),
    ApproxSpec(0.99, 0.5, 4.0),  # n = 6790
)


def _outcome(run):
    """The floats run() returns, as hex strings (which tell -0.0 from 0.0),
    or the type and message of the exception it raises."""
    try:
        return [float(value).hex() for value in run()]
    except Exception as exc:  # noqa: BLE001 - the outcome compared is any error's type and message
        return type(exc), str(exc)


def _assert_one_block_is_streamed(make_source, spec, mode):
    """estimate_mean on make_source() equals _two_stage_reduce on another
    make_source(); the only difference allowed is the draw count estimate_mean
    adds to an exhausted source's message."""
    plan = build_plan(spec, mode)
    assert plan.samples_stage1 <= estimator._BLOCK and plan.n <= estimator._BLOCK

    def streamed():
        source = make_source()
        read1, read2 = estimator._source_reader(source, "stage 1"), estimator._source_reader(source, "stage 2")
        return [row[0] for row in estimator._two_stage_reduce(read1, read2, spec, plan)]

    def one_block():
        report = estimate_mean(make_source(), spec, mode)
        return report.mu1, report.alpha.alpha, report.mu_hat

    want = _outcome(streamed)
    if want[0] is InsufficientSamplesError:
        want = (want[0], f"{want[1]}; the plan takes {plan.total_samples} draws")
    assert _outcome(one_block) == want
    return want


@pytest.mark.parametrize("dist", ONE_TAKE_DISTS, ids=lambda d: d.spec_string)
def test_one_block_runs_equal_the_streamed_kernel(dist):
    for spec in ONE_TAKE_SPECS:
        for mode in Mode:
            for seed in (0, 1, 2**40 + 3):
                outcome = _assert_one_block_is_streamed(lambda: SampleSource(dist, seed), spec, mode)
                assert isinstance(outcome, list), (spec, mode, seed, outcome)


def _stages(stage1, stage2):
    """A recording of SPEC's k*m = 240 stage-1 and n = 231 stage-2 draws,
    ones but where `stage1` and `stage2` (position: value) say otherwise."""
    draws = np.ones(PLAN.total_samples)
    for at, value in stage1.items():
        draws[at] = value
    for at, value in stage2.items():
        draws[PLAN.samples_stage1 + at] = value
    return SampleSource(Recorded(tuple(draws.tolist())), 0)


# (spec, source factory, the error the reference raises or None); SPEC's plan
# is k = 80, m = 3, n = 231 in both modes
ONE_TAKE_FAULTS = {
    "nonpositive-centre": (SPEC, lambda: SampleSource(Constant(-1.0), 0), NonpositiveEstimateError),
    "alpha-overflows": (SPEC, lambda: SampleSource(Constant(1e-310), 0), ValueError),
    # c^2 mu1 overflows while the group sums, of k = 138 draws, do not
    "alpha-underflows": (ApproxSpec(0.99, 0.5, 4.0), lambda: SampleSource(Constant(1e306), 0), ValueError),
    # the first group sums to +inf, -inf or NaN, which is not the median
    "group-sum-overflows-up": (SPEC, lambda: _stages(dict.fromkeys(range(80), 1e308), {}), ValueError),
    "group-sum-overflows-down": (SPEC, lambda: _stages(dict.fromkeys(range(80), -1e308), {}), ValueError),
    "group-sum-overflows-both-ways": (
        SPEC, lambda: _stages({0: 1e308, 8: 1e308, 1: -1e308, 9: -1e308}, {}), ValueError),
    "stage-2-sum-overflows": (ApproxSpec(0.1, 0.05, 1.0), lambda: SampleSource(Constant(1e306), 0), ValueError),
    "repaired-tails": (SPEC, lambda: _stages({}, {3: 1e300, 5: 1e160, 7: -1e300, 200: -1e300}), None),
    "nan-in-stage-1": (SPEC, lambda: _BrokenSource(Constant(3.0), at=100), SourceContractError),
    "nan-in-stage-2": (SPEC, lambda: _BrokenSource(Constant(3.0), at=470), SourceContractError),
    "short-stage-1": (SPEC, lambda: _BrokenSource(Constant(3.0), at=0, short=True), SourceContractError),
    "short-stage-2": (SPEC, lambda: _BrokenSource(Constant(3.0), at=240, short=True), SourceContractError),
    "exhausted-in-stage-1": (SPEC, lambda: SampleSource(Recorded((1.0, 2.0, 3.0)), 0), InsufficientSamplesError),
    "exhausted-in-stage-2": (SPEC, lambda: SampleSource(Recorded((2.0,) * 470), 0), InsufficientSamplesError),
}


@pytest.mark.parametrize("mode", Mode)
@pytest.mark.parametrize("fault", ONE_TAKE_FAULTS)
def test_one_block_runs_fail_as_the_streamed_kernel_does(fault, mode):
    spec, make_source, error = ONE_TAKE_FAULTS[fault]
    outcome = _assert_one_block_is_streamed(make_source, spec, mode)
    if error is None:
        assert isinstance(outcome, list) and math.isfinite(float.fromhex(outcome[2]))
    else:
        assert outcome[0] is error, outcome
