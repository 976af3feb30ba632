"""Stages streamed in bounded takes: the pairwise walk, bit-identity to
whole-stage takes, peak memory and the order of errors."""

from __future__ import annotations

import hashlib
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


def test_estimate_mean_and_run_coverage_run_the_one_kernel(monkeypatch):
    # estimate_mean has one path, whatever the plan's size, and coverage
    # chunks run the same kernel through the name harness imports
    calls = []
    kernel = estimator._two_stage_reduce

    def counter(module):
        def counted(*args):
            calls.append(module)
            return kernel(*args)

        return counted

    monkeypatch.setattr(estimator, "_two_stage_reduce", counter("estimator"))
    monkeypatch.setattr(harness, "_two_stage_reduce", counter("harness"))
    one_take, streamed = ApproxSpec(0.1, 0.05, 1.0), ApproxSpec(0.02, 0.05, 1.0)
    assert build_plan(one_take).samples_stage1 <= _BLOCK and build_plan(one_take).n <= _BLOCK
    assert build_plan(streamed).n > _BLOCK
    for spec in (one_take, streamed):
        calls.clear()
        estimate_mean(SampleSource(Normal(100.0, 50.0), 0), spec)
        assert calls == ["estimator"], spec
    calls.clear()
    monkeypatch.setattr(harness, "_MIN_SLICE_DRAWS", 2**62)  # one worker: the calls stay in this process
    run_coverage(CoverageConfig(ApproxSpec(0.2, 0.1, 0.5), Normal(100.0, 50.0), 100, 0))
    assert calls and set(calls) == {"harness"}


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
# estimate_mean runs such a plan through _two_stage_reduce too, one take per
# stage.  These outcomes were recorded at commit e6f1d12, where such plans ran
# a one-block copy of the kernel that was tested bit-equal to it: each run's
# (mu1, alpha, mu_hat) in hex, and each fault's error type and full message.

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
ONE_TAKE_SEEDS = (0, 1, 2**40 + 3)
# per distribution, the sha256 of its runs' lines "mu1 alpha mu_hat" (in
# hex), one line per spec, mode and seed, in that loop order
ONE_TAKE_DIGESTS = {
    "constant:3": "e686f8119c42f11b01494fca4829e5eb2a90945d18b725145540de375292ca09",
    "normal:100,50": "bf0d3b775f630367e0493b9928a56d5c264077416f09706343a9e730adb681e7",
    "lognormal:1": "f20a55963ebe77a73359c6012fd2b9753d78d616e335eb07d0f89d1da3e230cb",
    "bernoulli:0.5,2": "234353875fa34c8abe20d84b9de5280abc7f0c2414a29dd84718fc38e49a40a7",
    "pareto:2.5": "8e15db09e9cb630ec232eff28e0e3f149dc8914072ff8c7ba03c819626f3dbfc",
    "scaled:3:pareto:2.5": "74f37ba01fc280bfeb3a88f265a78261f1b8abaa92f91046569f38ff36366fd9",
    "recorded:8000values": "2bb8121037f29d69177173c91f751a34d253ff42bb8110743f30d9e26226efa9",
}


def _outcome(make_source, spec, mode):
    """(mu1, alpha, mu_hat) of estimate_mean on make_source() as hex strings
    (which tell -0.0 from 0.0), or the type and message of the exception it
    raises.  The plan fits one take per stage."""
    plan = build_plan(spec, mode)
    assert plan.samples_stage1 <= estimator._BLOCK and plan.n <= estimator._BLOCK
    try:
        report = estimate_mean(make_source(), spec, mode)
    except Exception as exc:  # noqa: BLE001 - the outcome compared is any error's type and message
        return type(exc), str(exc)
    return [value.hex() for value in (report.mu1, report.alpha.alpha, report.mu_hat)]


@pytest.mark.parametrize("dist", ONE_TAKE_DISTS, ids=lambda d: d.spec_string)
def test_one_take_runs_keep_their_recorded_outcomes(dist):
    lines = []
    for spec in ONE_TAKE_SPECS:
        for mode in Mode:
            for seed in ONE_TAKE_SEEDS:
                outcome = _outcome(lambda: SampleSource(dist, seed), spec, mode)
                assert isinstance(outcome, list), (spec, mode, seed, outcome)
                lines.append(" ".join(outcome))
    assert len(lines) == 42
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ONE_TAKE_DIGESTS[dist.spec_string], lines[:2]


def _stages(stage1, stage2):
    """A recording of SPEC's k*m = 240 stage-1 and n = 231 stage-2 draws,
    ones but where `stage1` and `stage2` (position: value) say otherwise."""
    draws = np.ones(PLAN.total_samples)
    for at, value in stage1.items():
        draws[at] = value
    for at, value in stage2.items():
        draws[PLAN.samples_stage1 + at] = value
    return SampleSource(Recorded(tuple(draws.tolist())), 0)


_GROUP_SUM_OVERFLOWS = "stage 1: a group sum of k = 80 draws overflows; it holds draws of magnitude up to 2.25e+306"
# (spec, source factory, the recorded outcome, alike in both modes); SPEC's
# plan is k = 80, m = 3, n = 231 in both modes
ONE_TAKE_FAULTS = {
    "nonpositive-centre": (SPEC, lambda: SampleSource(Constant(-1.0), 0), (
        NonpositiveEstimateError,
        "stage-1 estimate -1.1111111111111112 is not positive; the method requires a positive mean",
    )),
    "alpha-overflows": (SPEC, lambda: SampleSource(Constant(1e-310), 0), (
        ValueError,
        "mu1 = 1.1111111111111e-310 is too small at c = 1.0: the truncation scale epsilon / (c^2 mu1) overflows",
    )),
    # c^2 mu1 overflows while the group sums, of k = 138 draws, do not
    "alpha-underflows": (ApproxSpec(0.99, 0.5, 4.0), lambda: SampleSource(Constant(1e306), 0), (
        ValueError,
        "mu1 = 1.4655172413793104e+307 is too large at c = 4.0: the truncation scale epsilon / (c^2 mu1) underflows to 0",
    )),
    # the first group sums to +inf, -inf or NaN, which is not the median
    "group-sum-overflows-up": (
        SPEC, lambda: _stages(dict.fromkeys(range(80), 1e308), {}), (ValueError, _GROUP_SUM_OVERFLOWS)),
    "group-sum-overflows-down": (
        SPEC, lambda: _stages(dict.fromkeys(range(80), -1e308), {}), (ValueError, _GROUP_SUM_OVERFLOWS)),
    "group-sum-overflows-both-ways": (
        SPEC, lambda: _stages({0: 1e308, 8: 1e308, 1: -1e308, 9: -1e308}, {}), (ValueError, _GROUP_SUM_OVERFLOWS)),
    "stage-2-sum-overflows": (ApproxSpec(0.1, 0.05, 1.0), lambda: SampleSource(Constant(1e306), 0), (
        ValueError, "stage 2: the sum of n = 974 terms overflows; it holds draws of magnitude up to 1.85e+305")),
    "repaired-tails": (
        SPEC, lambda: _stages({}, {3: 1e300, 5: 1e160, 7: -1e300, 200: -1e300}),
        ["0x1.1c71c71c71c72p+0", "0x1.70a3d70a3d70ap-3", "-0x1.d01e3f6ad366dp+3"],
    ),
    "nan-in-stage-1": (SPEC, lambda: _BrokenSource(Constant(3.0), at=100), (
        SourceContractError, "stage 1: take(240) returned a non-finite draw from constant:3")),
    "nan-in-stage-2": (SPEC, lambda: _BrokenSource(Constant(3.0), at=470), (
        SourceContractError, "stage 2: take(231) returned a non-finite draw from constant:3")),
    "short-stage-1": (SPEC, lambda: _BrokenSource(Constant(3.0), at=0, short=True), (
        SourceContractError, "stage 1: take(240) returned 239 draws in shape (239,)")),
    "short-stage-2": (SPEC, lambda: _BrokenSource(Constant(3.0), at=240, short=True), (
        SourceContractError, "stage 2: take(231) returned 230 draws in shape (230,)")),
    "exhausted-in-stage-1": (SPEC, lambda: SampleSource(Recorded((1.0, 2.0, 3.0)), 0), (
        InsufficientSamplesError, "recorded source holds 3 values, needed 240; the plan takes 471 draws")),
    "exhausted-in-stage-2": (SPEC, lambda: SampleSource(Recorded((2.0,) * 470), 0), (
        InsufficientSamplesError, "recorded source holds 470 values, needed 471; the plan takes 471 draws")),
}


@pytest.mark.parametrize("mode", Mode)
@pytest.mark.parametrize("fault", ONE_TAKE_FAULTS)
def test_one_take_faults_keep_their_recorded_outcomes(fault, mode):
    spec, make_source, want = ONE_TAKE_FAULTS[fault]
    assert _outcome(make_source, spec, mode) == want
