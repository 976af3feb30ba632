"""Behavioural checks for the sampling operations of the estimator."""

from __future__ import annotations

import math
import sys
import tracemalloc
from fractions import Fraction
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relmean import (
    ApproxSpec,
    Constant,
    LogNormal,
    Mode,
    Normal,
    NonpositiveEstimateError,
    Recorded,
    SampleSource,
    Scaled,
    SourceContractError,
    build_plan,
    estimate_mean,
    median_of_means,
    scaled_psi,
    stage2_estimate,
    theorem1_total,
)
from relmean.estimator import _BLOCK, _column_reader, _truncated_mean_rows, _truncation_scales

import oracles


def test_median_of_means_constant():
    src = SampleSource(Constant(5.0), seed=1)
    assert median_of_means(src, 7, 5) == 5.0


def test_median_of_means_alternating_groups():
    src = SampleSource(Recorded((0.0, 2.0) * 3), seed=0)
    assert median_of_means(src, 2, 3) == 1.0


def test_median_of_means_matches_reference_recompute():
    k, m = 100, 5
    recorded = SampleSource(Normal(10.0, 2.0), seed=314).take(k * m)
    value = median_of_means(SampleSource(Recorded(tuple(recorded)), seed=0), k, m)
    reference = oracles.median_of_means_reference(recorded, k, m)
    assert math.isclose(value, reference, rel_tol=1e-12)
    assert 9.0 < value < 11.0


def test_median_of_means_validation():
    src = SampleSource(Constant(1.0), seed=0)
    with pytest.raises(ValueError):
        median_of_means(src, 0, 3)
    with pytest.raises(ValueError):
        median_of_means(src, 5, 4)  # even group count has no middle order statistic


def test_stage1_estimate_constant():
    src = SampleSource(Constant(5.0), seed=3)
    mu1 = estimate_mean(src, ApproxSpec(0.1, 0.05, 1.0)).mu1
    assert math.isclose(mu1, 5.0 / (1.0 - 0.05), rel_tol=1e-12)


def test_stage1_estimate_bias_correction_grid():
    for eps in [0.05, 0.2, 0.5]:
        for c in [0.5, 1.0, 3.0]:
            spec = ApproxSpec(eps, 0.1, c)
            plan = build_plan(spec)
            mu1 = estimate_mean(SampleSource(Constant(1.0), seed=0), spec).mu1
            assert math.isclose(mu1, 1.0 / (1.0 - plan.epsilon1_sq), rel_tol=1e-12)


def test_stage1_estimate_matches_reference_recompute():
    spec = ApproxSpec(0.2, 0.1, 1.5)
    plan = build_plan(spec)
    draws = SampleSource(LogNormal(1.0), seed=2718).take(plan.total_samples)
    mu1 = estimate_mean(SampleSource(Recorded(tuple(draws)), seed=0), spec).mu1
    reference = oracles.median_of_means_reference(draws[: plan.samples_stage1], plan.k, plan.m)
    assert math.isclose(mu1, reference / (1.0 - plan.epsilon1_sq), rel_tol=1e-12)


def test_stage1_estimate_rejects_nonpositive():
    with pytest.raises(NonpositiveEstimateError):
        estimate_mean(SampleSource(Constant(-3.0), seed=1), ApproxSpec(0.1, 0.05, 1.0))


def test_stage2_estimate_fixed_point():
    spec = ApproxSpec(0.1, 0.05, 1.0)
    mu1 = 7.25
    src = SampleSource(Constant(mu1), seed=5)
    mu_hat, alpha = stage2_estimate(src, mu1, spec)
    assert mu_hat == mu1  # psi(0) = 0 exactly
    assert math.isclose(alpha, spec.epsilon / (spec.c**2 * mu1), rel_tol=1e-15)


def test_stage2_estimate_single_draw_formula():
    # alpha = eps / (c^2 mu1) = 1 at mu1 = 1, and every draw is 2, so each
    # transformed draw equals 1 + psi(1)
    spec = ApproxSpec(0.5, 0.5, math.sqrt(0.5))
    n = build_plan(spec).n
    src = SampleSource(Recorded((2.0,) * n), seed=0)
    mu_hat, alpha = stage2_estimate(src, 1.0, spec)
    assert math.isclose(alpha, 1.0, rel_tol=1e-12)
    assert math.isclose(mu_hat, 1.0 + oracles.PSI_ONE, rel_tol=1e-12)


def test_the_truncation_scale_is_the_kernels_float():
    # the report and stage2_estimate give alpha as the float the kernel
    # computed, unwrapped
    spec = ApproxSpec(0.1, 0.05, 1.0)
    report = estimate_mean(SampleSource(Normal(10.0, 2.0), seed=3), spec)
    _, alpha = stage2_estimate(SampleSource(Normal(10.0, 2.0), seed=4), report.mu1, spec)
    assert type(report.alpha) is float and type(alpha) is float
    assert report.alpha.hex() == alpha.hex() == _truncation_scales([report.mu1], spec)[0].hex()


class _NoDraws:
    """A source whose every take fails: a call that reaches it drew."""

    def take(self, n):
        raise LookupError(f"take({n})")


# c = 3e153 plans k = 1.09e308 and n = 1.7e308 draws, a valid spec
HUGE = ApproxSpec(0.66, 0.999, 3e153)


@pytest.mark.parametrize(
    "call, stage",
    [
        (lambda source: median_of_means(source, 10**400, 3), "median of means"),
        (lambda source: median_of_means(source, 2**63, 1), "median of means"),
        (lambda source: estimate_mean(source, HUGE), "stage 1"),
        (lambda source: stage2_estimate(source, 1.0, HUGE), "stage 2"),
    ],
    ids=["k-beyond-floats", "k-one-past-maxsize", "estimate-stage-1", "stage2-estimate"],
)
def test_a_stage_beyond_sys_maxsize_is_refused_before_any_draw(call, stage):
    # the pairwise walk used to recurse about 1009 levels before its first
    # take, a RecursionError
    pattern = rf"^{stage}: the draw count, (\d+|a \d+-bit integer), exceeds sys.maxsize = {sys.maxsize}, the most one stage takes$"
    with pytest.raises(ValueError, match=pattern):
        call(_NoDraws())


def test_a_stage_of_sys_maxsize_draws_reaches_its_source():
    # the closed end: the first take is made, and fails at once
    with pytest.raises(LookupError):
        median_of_means(_NoDraws(), sys.maxsize, 1)


def test_stage2_transform_increasing_in_draw():
    spec = ApproxSpec(0.3, 0.1, 2.0)
    mu1 = 4.0
    xs = np.linspace(-50.0, 60.0, 301)
    values = []
    for x in xs:
        n = build_plan(spec).n
        src = SampleSource(Recorded((float(x),) * n), seed=0)
        values.append(stage2_estimate(src, mu1, spec)[0])
    assert all(a < b for a, b in zip(values, values[1:]))


def test_stage2_estimate_rejects_bad_mu1():
    src = SampleSource(Constant(1.0), seed=0)
    for bad in [0.0, -1.0, math.nan]:
        with pytest.raises(ValueError):
            stage2_estimate(src, bad, ApproxSpec(0.1, 0.05, 1.0))


def test_stage1_centre_too_small_for_a_finite_truncation_scale_is_named():
    spec = ApproxSpec(0.1, 0.05, 1.0)
    message = r"mu1 = .* is too small .*: the truncation scale epsilon / \(c\^2 mu1\) overflows"
    with pytest.raises(ValueError, match=message):
        estimate_mean(SampleSource(Constant(1e-310), 1), spec)
    with pytest.raises(ValueError, match=message):
        stage2_estimate(SampleSource(Constant(1.0), 0), 1e-310, spec)


def test_a_centre_too_large_for_a_nonzero_truncation_scale_is_named():
    # c^2 mu1 = 1e310 overflows, so alpha = epsilon / (c^2 mu1) comes out 0
    message = r"mu1 = 1e\+300 is too large at c = 100000\.0: the truncation scale epsilon / \(c\^2 mu1\) underflows to 0"
    with pytest.raises(ValueError, match=message):
        stage2_estimate(SampleSource(Constant(1.0), 0), 1e300, ApproxSpec(0.1, 0.05, 1e5))


@pytest.mark.parametrize(
    "value, message",
    [
        (1e306, "stage 2: the sum of n = 974 terms overflows; it holds draws of magnitude up to 1.85e+305"),
        (5e306, "stage 1: a group sum of k = 160 draws overflows; it holds draws of magnitude up to 1.12e+306"),
        (-5e306, "stage 1: a group sum of k = 160 draws overflows; it holds draws of magnitude up to 1.12e+306"),
    ],
)
def test_a_stage_sum_that_overflows_is_named_without_a_warning(value, message):
    # every draw is finite, but a stage sums more of them than a float holds
    spec = ApproxSpec(0.1, 0.05, 1.0)
    plan = build_plan(spec)
    assert (plan.k, plan.n) == (160, 974)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as raised:
            estimate_mean(SampleSource(Constant(value), 1), spec)
        assert str(raised.value) == message
        # just below the magnitude the stage-2 sum holds, the estimate is finite
        assert math.isfinite(estimate_mean(SampleSource(Constant(1.8e305), 1), spec).mu_hat)


def test_median_of_means_and_stage2_name_a_sum_that_overflows():
    with pytest.raises(ValueError, match=r"^median of means: a group sum of k = 200 draws overflows; .* 8\.99e\+305$"):
        median_of_means(SampleSource(Constant(1e306), 0), 200, 3)
    with pytest.raises(ValueError, match=r"^stage 2: the sum of n = 974 terms overflows; .* 1\.85e\+305$"):
        stage2_estimate(SampleSource(Constant(1e306), 0), 1e306, ApproxSpec(0.1, 0.05, 1.0))


def test_estimate_mean_constant_always_within_epsilon():
    for mu0 in [0.01, 1.0, 250.0]:
        for eps, delta, c in [(0.1, 0.05, 1.0), (0.2, 0.1, 10.0), (0.5, 0.3, 0.2)]:
            spec = ApproxSpec(eps, delta, c)
            report = estimate_mean(SampleSource(Constant(mu0), seed=9), spec)
            assert abs(report.mu_hat - mu0) <= eps * mu0


def test_estimate_mean_report_counts():
    spec = ApproxSpec(0.1, 0.05, 1.0)
    report = estimate_mean(SampleSource(Constant(2.0), seed=0), spec, Mode.PAPER_EXACT)
    assert report.samples_stage1 == oracles.K_BASE * oracles.M_BASE_PAPER
    assert report.samples_stage2 == oracles.N_BASE
    assert report.total_samples == theorem1_total(spec)
    strict = estimate_mean(SampleSource(Constant(2.0), seed=0), spec, Mode.STRICT)
    assert strict.total_samples == oracles.K_BASE * oracles.M_BASE_STRICT + oracles.N_BASE


def test_estimate_mean_deterministic():
    spec = ApproxSpec(0.2, 0.1, 1.5)
    a = estimate_mean(SampleSource(LogNormal(1.0), seed=77), spec)
    b = estimate_mean(SampleSource(LogNormal(1.0), seed=77), spec)
    assert a == b  # bit-identical report
    c = estimate_mean(SampleSource(LogNormal(1.0), seed=78), spec)
    assert a.mu_hat != c.mu_hat


def test_estimate_mean_consumes_stage2_after_stage1():
    # the same stream drives both stages: stage 2 sees draws k*m onward
    spec = ApproxSpec(0.2, 0.1, 1.0)
    plan = build_plan(spec)
    draws = SampleSource(LogNormal(1.0), seed=4242).take(plan.k * plan.m + plan.n)
    report = estimate_mean(SampleSource(Recorded(tuple(draws)), seed=0), spec)
    mu1 = oracles.median_of_means_reference(draws[: plan.k * plan.m], plan.k, plan.m) / (
        1.0 - plan.epsilon1_sq
    )
    assert math.isclose(report.mu1, mu1, rel_tol=1e-12)
    alpha = spec.epsilon / (spec.c**2 * mu1)
    tail = np.asarray(draws[plan.k * plan.m :])
    u = alpha * (tail - mu1)
    w = mu1 + np.sign(u) * np.log1p(np.abs(u) + 0.5 * u * u) / alpha
    assert math.isclose(report.mu_hat, float(np.mean(w)), rel_tol=1e-12)


def test_estimate_mean_scale_equivariance_single_case():
    spec = ApproxSpec(0.2, 0.1, 1.5)
    lam = 3.0
    base = estimate_mean(SampleSource(LogNormal(1.0), seed=101), spec).mu_hat
    scaled = estimate_mean(SampleSource(Scaled(LogNormal(1.0), lam), seed=101), spec).mu_hat
    assert math.isclose(scaled, lam * base, rel_tol=1e-12)


def test_estimate_mean_propagates_exhaustion():
    # a plan whose stages each fit one take names its draws too
    from relmean import InsufficientSamplesError

    spec = ApproxSpec(0.2, 0.1, 1.0)
    total = build_plan(spec).total_samples
    assert total == 471
    message = rf"^recorded source holds 3 values, needed 240; the plan takes {total} draws$"
    with pytest.raises(InsufficientSamplesError, match=message):
        estimate_mean(SampleSource(Recorded((1.0, 2.0, 3.0)), seed=0), spec)


def test_exhaustion_names_the_draws_the_plan_takes():
    # a stage takes its draws a block at a time, so the take that runs out
    # needs only a part of the plan
    from relmean import InsufficientSamplesError

    spec = ApproxSpec(0.003, 1e-3, 0.5)
    total = build_plan(spec).total_samples
    assert total == 512_178
    values = tuple(float(v) for v in range(1, 1001))
    message = rf"^recorded source holds 1000 values, needed \d+; the plan takes {total} draws$"
    with pytest.raises(InsufficientSamplesError, match=message):
        estimate_mean(SampleSource(Recorded(values), seed=0), spec)


class _ScriptedSource:
    """Replays one prepared array per take call, whatever count is asked for."""

    def __init__(self, *takes):
        self._takes = list(takes)

    def take(self, n):
        return self._takes.pop(0)


def test_estimate_mean_names_the_stage_of_a_short_take():
    spec = ApproxSpec(0.2, 0.1, 1.0)
    plan = build_plan(spec)
    short_first = _ScriptedSource(np.ones(plan.k * plan.m - 1), np.ones(plan.n))
    with pytest.raises(SourceContractError, match=f"stage 1: take\\({plan.k * plan.m}\\) returned {plan.k * plan.m - 1} draws"):
        estimate_mean(short_first, spec)
    short_second = _ScriptedSource(np.ones(plan.k * plan.m), np.ones(plan.n + 1))
    with pytest.raises(SourceContractError, match="stage 2: take"):
        estimate_mean(short_second, spec)
    scalar = _ScriptedSource(1.0)
    with pytest.raises(SourceContractError, match="stage 1"):
        estimate_mean(scalar, spec)


def test_estimate_mean_names_the_stage_of_a_nan_draw():
    spec = ApproxSpec(0.2, 0.1, 1.0)
    plan = build_plan(spec)
    bad = np.ones(plan.k * plan.m)
    bad[7] = math.nan
    with pytest.raises(SourceContractError, match="stage 1: .*non-finite"):
        estimate_mean(_ScriptedSource(bad, np.ones(plan.n)), spec)
    tail = np.ones(plan.n)
    tail[-1] = math.inf
    with pytest.raises(SourceContractError, match="stage 2: .*non-finite"):
        estimate_mean(_ScriptedSource(np.ones(plan.k * plan.m), tail), spec)
    with pytest.raises(SourceContractError, match="non-finite"):
        median_of_means(_ScriptedSource(np.array([1.0, math.nan, 2.0])), 1, 3)


def test_estimate_mean_names_the_stage_of_a_complex_take():
    # casting complex draws to float would drop their imaginary parts with
    # only a ComplexWarning; the gate rejects them by dtype, zero parts or not
    spec = ApproxSpec(0.2, 0.1, 1.0)
    plan = build_plan(spec)
    k_m = plan.k * plan.m
    with pytest.raises(SourceContractError, match=rf"^stage 1: take\({k_m}\) returned draws of dtype complex128$"):
        estimate_mean(_ScriptedSource(np.ones(k_m, dtype=complex), np.ones(plan.n)), spec)
    with pytest.raises(SourceContractError, match=rf"^stage 2: take\({plan.n}\) returned draws of dtype complex64$"):
        estimate_mean(_ScriptedSource(np.ones(k_m), np.ones(plan.n, dtype=np.complex64)), spec)
    with pytest.raises(SourceContractError, match=r"^median of means: take\(3\) returned draws of dtype complex128$"):
        median_of_means(_ScriptedSource([1.0, 2.0 + 1j, 3.0]), 1, 3)
    # integer and bool draws are real: they run as their float values do
    want = estimate_mean(_ScriptedSource(np.ones(k_m), np.ones(plan.n)), spec)
    got = estimate_mean(_ScriptedSource(np.ones(k_m, dtype=np.int64), np.ones(plan.n, dtype=bool)), spec)
    assert (got.mu1, got.alpha, got.mu_hat) == (want.mu1, want.alpha, want.mu_hat)


@pytest.mark.parametrize(
    "value, dtype",
    [("1.5", r"<U3"), (b"1.5", r"\|S3"), (Fraction(3, 2), "object")],
    ids=["str", "bytes", "object"],
)
def test_estimate_mean_names_the_stage_of_a_take_that_is_not_real(value, dtype):
    # a cast to float would parse strings and cast objects one by one; only
    # bool, integer and float takes are real draws
    spec = ApproxSpec(0.2, 0.1, 1.0)
    plan = build_plan(spec)
    k_m = plan.k * plan.m

    def draws(n):
        return np.array([value] * n)

    with pytest.raises(SourceContractError, match=rf"^stage 1: take\({k_m}\) returned draws of dtype {dtype}$"):
        estimate_mean(_ScriptedSource(draws(k_m), np.ones(plan.n)), spec)
    with pytest.raises(SourceContractError, match=rf"^stage 2: take\({plan.n}\) returned draws of dtype {dtype}$"):
        estimate_mean(_ScriptedSource(np.ones(k_m), draws(plan.n)), spec)
    with pytest.raises(SourceContractError, match=rf"^median of means: take\(3\) returned draws of dtype {dtype}$"):
        median_of_means(_ScriptedSource(draws(3)), 1, 3)


def test_stage2_draws_far_beyond_the_truncation_scale_give_a_finite_estimate():
    # alpha (x - mu1) or its square overflows inside psi for these draws; the
    # terms take psi's finite tail, as scaled_psi does, not +-infinity
    spec = ApproxSpec(0.2, 0.1, 1.0)
    plan = build_plan(spec)
    tail = np.ones(plan.n)
    tail[3], tail[5], tail[7] = 1e300, 1e160, -1e300
    report = estimate_mean(_ScriptedSource(np.ones(plan.k * plan.m), tail), spec)
    assert math.isfinite(report.mu_hat)
    assert report.mu_hat == np.mean(report.mu1 + scaled_psi(report.alpha, tail - report.mu1))


def test_a_group_whose_partial_sums_overflow_both_ways_is_named():
    # numpy sums a group of at most 128 draws in 8 interleaved partial sums:
    # draws 0 and 8 take one to +inf, draws 1 and 9 another to -inf, so the
    # group sum is NaN, which sorts last.  The true group mean (0.95) is the
    # lowest, and a median that took NaN for the highest would read 3.0
    spec = ApproxSpec(0.2, 0.1, 1.0)
    plan = build_plan(spec)
    assert (plan.k, plan.m) == (80, 3)
    stage1 = np.repeat([1.0, 2.0, 3.0], plan.k)
    stage1[[0, 8]], stage1[[1, 9]] = 1e308, -1e308
    message = "stage 1: a group sum of k = 80 draws overflows; it holds draws of magnitude up to 2.25e+306"
    with pytest.raises(ValueError) as raised:
        estimate_mean(_ScriptedSource(stage1, np.ones(plan.n)), spec)
    assert str(raised.value) == message


def test_estimate_mean_on_scaled_recorded_source():
    # the replay of a scaled recording estimates exactly as the recording of
    # the scaled values does
    spec = ApproxSpec(0.2, 0.1, 1.0)
    plan = build_plan(spec)
    draws = SampleSource(LogNormal(1.0), seed=4243).take(plan.k * plan.m + plan.n)
    scaled = estimate_mean(SampleSource(Scaled(Recorded(tuple(draws)), 2.5), seed=0), spec)
    recorded = estimate_mean(SampleSource(Recorded(tuple(2.5 * draws)), seed=0), spec)
    assert scaled == recorded


def _kernel_rows(rng, rows: int, n: int):
    """(draws, mu1, alpha) for the stage-2 kernel, row r of kind r % 4:
    lognormal draws; every other draw equal to mu1; deviations whose alpha
    products are subnormal; draws whose products overflow to +inf (row 3)
    or -inf (row 7), or overflow only inside psi's square."""
    mu1 = rng.uniform(0.5, 4.0, rows)
    alpha = 10.0 ** rng.uniform(-3.0, 3.0, rows)
    draws = mu1[:, None] * rng.lognormal(0.0, 1.0, (rows, n))
    for r in range(rows):
        kind = r % 4
        if kind == 1:
            draws[r, ::2] = mu1[r]
        elif kind == 2:
            alpha[r] = 1e-300
            draws[r] = mu1[r] * (1.0 + rng.integers(-4, 5, n) * 2.0**-52)
        elif kind == 3:
            alpha[r] = 1e10
            draws[r, ::5] = 1e300 if r == 3 else -1e300
            draws[r, 1::5] = mu1[r] + 1e150
    return draws, mu1, alpha


def _kernel(draws, mu1, alpha):
    """The stage-2 kernel on a rows x n matrix, read by column views, as
    an array of its per-row means."""
    return np.array(_truncated_mean_rows(_column_reader(draws), draws.shape[1], mu1, alpha))


@pytest.mark.parametrize("rows", [1, 8])
def test_truncated_mean_kernel_matches_the_unblocked_formula(rows):
    # the oracle's per-replicate formula, byte for byte, on either side of
    # every block boundary; the kernel must not write into the draws
    rng = np.random.default_rng(20240917)
    width = _BLOCK // rows
    for n in sorted({1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5, width - 1, width, width + 1}):
        draws, mu1, alpha = _kernel_rows(rng, 8, n)
        if rows == 8:
            cases = [(draws, mu1, alpha)]
        else:
            cases = [(d[None, :], m[None], a[None]) for d, m, a in zip(draws, mu1, alpha)]
        for case in cases:
            before = case[0].copy()
            got = _kernel(*case)  # the kernel sets its own error state
            with np.errstate(over="ignore", invalid="ignore"):
                want = [np.mean(m + scaled_psi(a, d - m)) for d, m, a in zip(*case)]
            assert got.tobytes() == np.array(want).tobytes(), n
            assert case[0].tobytes() == before.tobytes(), n


_SCALES = st.one_of(
    st.floats(1e-6, 1e4),
    st.floats(5e-324, 2.2250738585072009e-308),  # subnormal
    st.floats(1e150, 1e300),  # moderate deviations overflow inside psi
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_truncated_mean_kernel_rows_match_scaled_psi(data):
    # each row equals np.mean(mu1 + scaled_psi(alpha, x - mu1)) byte for
    # byte, on both sides of the single-block threshold, with finite draws
    # anywhere in the float range and deviations whose alpha product
    # exceeds 1.9e154, so that the overflow repair runs
    rows = data.draw(st.sampled_from([1, 8]), label="rows")
    width = _BLOCK // rows
    n = data.draw(
        st.one_of(st.integers(1, 64), st.integers(width - 2, width), st.integers(width + 1, width + 64)),
        label="n",
    )
    mu1 = np.array(data.draw(st.lists(st.floats(0.5, 4.0), min_size=rows, max_size=rows), label="mu1"))
    alpha = np.array(data.draw(st.lists(_SCALES, min_size=rows, max_size=rows), label="alpha"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    draws = mu1[:, None] * rng.lognormal(0.0, 1.0, (rows, n))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    for r in range(rows):
        for value in data.draw(st.lists(finite, max_size=4), label=f"row {r} values"):
            draws[r, rng.integers(n)] = value
        if data.draw(st.booleans(), label=f"row {r} overflows"):
            # alpha |d| > 1.9e154, where the deviation stays finite (alpha > 1.9e-154)
            deviation = max(4e154 / max(alpha[r], 4e-146), 16.0)
            draws[r, rng.integers(n)] = mu1[r] + rng.choice([-1.0, 1.0]) * deviation
    got = _kernel(draws, mu1, alpha)  # the kernel sets its own error state
    with np.errstate(over="ignore", invalid="ignore"):
        want = [np.mean(m + scaled_psi(a, d - m)) for d, m, a in zip(draws, mu1, alpha)]
    assert got.tobytes() == np.array(want).tobytes()


def test_truncated_mean_kernel_peak_memory_is_a_few_leaves():
    # no full-row output: the kernel's own arrays are a few leaves of the
    # pairwise walk, whatever the row length (the draws are 8 MB)
    draws = np.random.default_rng(7).lognormal(0.0, 1.0, (1, 10**6))
    mu1, alpha = np.array([1.6]), np.array([0.06])
    tracemalloc.start()
    try:
        _kernel(draws, mu1, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
