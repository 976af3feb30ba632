"""Behavioural checks for the sampling operations of the estimator."""

from __future__ import annotations

import math
import tracemalloc

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
    stage2_params,
    theorem1_total,
)
from relmean.estimator import _BLOCK, _truncated_mean_rows

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
    assert math.isclose(alpha.alpha, spec.epsilon / (spec.c**2 * mu1), rel_tol=1e-15)


def test_stage2_estimate_single_draw_formula():
    # alpha = eps / (c^2 mu1) = 1 at mu1 = 1, and every draw is 2, so each
    # transformed draw equals 1 + psi(1)
    spec = ApproxSpec(0.5, 0.5, math.sqrt(0.5))
    n = stage2_params(spec)
    src = SampleSource(Recorded((2.0,) * n), seed=0)
    mu_hat, alpha = stage2_estimate(src, 1.0, spec)
    assert math.isclose(alpha.alpha, 1.0, rel_tol=1e-12)
    assert math.isclose(mu_hat, 1.0 + oracles.PSI_ONE, rel_tol=1e-12)


def test_stage2_transform_increasing_in_draw():
    spec = ApproxSpec(0.3, 0.1, 2.0)
    mu1 = 4.0
    xs = np.linspace(-50.0, 60.0, 301)
    values = []
    for x in xs:
        n = stage2_params(spec)
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
    from relmean import InsufficientSamplesError

    spec = ApproxSpec(0.2, 0.1, 1.0)
    with pytest.raises(InsufficientSamplesError):
        estimate_mean(SampleSource(Recorded((1.0, 2.0, 3.0)), seed=0), spec)


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
            with np.errstate(over="ignore", invalid="ignore"):
                got = _truncated_mean_rows(*case)
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
    with np.errstate(over="ignore", invalid="ignore"):
        got = _truncated_mean_rows(draws, mu1, alpha)
        want = [np.mean(m + scaled_psi(a, d - m)) for d, m, a in zip(draws, mu1, alpha)]
    assert got.tobytes() == np.array(want).tobytes()


def test_truncated_mean_kernel_peak_memory_is_one_output_row():
    draws = np.random.default_rng(7).lognormal(0.0, 1.0, (1, 10**6))
    mu1, alpha = np.array([1.6]), np.array([0.06])
    tracemalloc.start()
    try:
        _truncated_mean_rows(draws, mu1, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= draws.nbytes + 2**20
