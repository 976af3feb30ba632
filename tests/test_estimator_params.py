"""Calculator checks: stage parameters, totals, bounds, and their identities."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relmean import (
    ApproxSpec,
    Mode,
    build_plan,
    lower_bound_samples,
    mom_failure_bound,
    stage2_params,
    theorem1_total,
)
from relmean.estimator import stage2_count_real

import oracles

BASE = ApproxSpec(0.1, 0.05, 1.0)
SECOND = ApproxSpec(0.2, 0.1, 1.0)


def test_approx_spec_validation():
    for bad in [(0.0, 0.05, 1.0), (1.0, 0.05, 1.0), (0.1, 0.0, 1.0), (0.1, 1.0, 1.0), (0.1, 0.05, 0.0), (0.1, 0.05, -2.0)]:
        with pytest.raises(ValueError):
            ApproxSpec(*bad)


def test_approx_spec_rejects_a_c_whose_square_underflows_or_overflows():
    smallest = 2.0**-511  # squares to sys.float_info.min exactly
    largest = math.sqrt(sys.float_info.max)
    ApproxSpec(0.1, 0.05, smallest)
    # largest passes the c^2 check, but its stage-2 count 2 c^2 ln(4/delta) / ... overflows
    with pytest.raises(ValueError, match=r"c = .* give draw counts too large for a float: k = inf, n = inf"):
        ApproxSpec(0.1, 0.05, largest)
    for c in (1e-200, math.nextafter(smallest, 0.0), 1e155, math.nextafter(largest, math.inf)):
        with pytest.raises(ValueError, match=r"c\^2 must be a normal float, but c = .* squares to"):
            ApproxSpec(0.1, 0.05, c)


# specs on which build_plan raised OverflowError or ZeroDivisionError
OVERFLOWING_SPECS = [
    ((0.1, 0.05, 1e153), r"c = 1e\+153 give draw counts too large for a float: k = 8e\+307, n = inf"),
    ((1e-160, 0.05, 1.0), r"epsilon\^2 must be a normal float, but epsilon = 1e-160 squares to 1e-320"),
    ((1e-200, 0.05, 1.0), r"epsilon\^2 must be a normal float, but epsilon = 1e-200 squares to 0.0"),
    ((0.1, 5e-324, 1.0), r"delta / 2 must be a normal float, but delta = 5e-324 halves to 0.0"),
]


@pytest.mark.parametrize("args, message", OVERFLOWING_SPECS + [
    # epsilon c^2 / (1 + c^2) underflows to 0: an infinite group size
    ((1e-150, 0.05, 1e-153), r"c = 1e-153 give draw counts too large for a float: k = inf"),
])
def test_approx_spec_rejects_a_spec_whose_plan_overflows(args, message):
    with pytest.raises(ValueError, match=message):
        ApproxSpec(*args)


_extreme = st.floats(min_value=5e-324, max_value=1.0, exclude_max=True)


@settings(max_examples=300, derandomize=True)
@given(_extreme, _extreme, st.floats(min_value=5e-324, max_value=sys.float_info.max))
def test_every_accepted_spec_has_a_finite_plan(epsilon, delta, c):
    try:
        spec = ApproxSpec(epsilon, delta, c)
    except ValueError:
        return
    for mode in Mode:
        plan = build_plan(spec, mode)
        assert plan.k >= 1 and plan.m >= 3 and plan.n >= 1


def test_stage1_params_pinned():
    plan = build_plan(BASE, Mode.PAPER_EXACT)
    assert math.isclose(plan.epsilon1, oracles.EPSILON1_BASE, rel_tol=1e-9)
    assert plan.k == oracles.K_BASE
    assert plan.m == oracles.M_BASE_PAPER
    strict = build_plan(BASE, Mode.STRICT)
    assert strict.k == oracles.K_BASE
    assert strict.m == oracles.M_BASE_STRICT


def test_group_size_identity_on_random_specs():
    # ceil(8 c^2 / eps1^2) == ceil(8 (1 + c^2) / eps) away from exact integer boundaries
    rng = np.random.default_rng(20240801)
    for _ in range(1000):
        spec = ApproxSpec(
            epsilon=float(rng.uniform(0.005, 0.95)),
            delta=float(rng.uniform(0.001, 0.5)),
            c=float(rng.uniform(0.05, 20.0)),
        )
        assert build_plan(spec).k == math.ceil(8.0 * (1.0 + spec.c**2) / spec.epsilon)


def test_group_count_is_odd_and_at_least_three():
    rng = np.random.default_rng(99)
    for _ in range(200):
        spec = ApproxSpec(float(rng.uniform(0.01, 0.9)), float(rng.uniform(0.001, 0.9)), float(rng.uniform(0.1, 5.0)))
        for mode in Mode:
            m = build_plan(spec, mode).m
            assert m >= 3 and m % 2 == 1


def test_stage2_params_pinned():
    assert stage2_params(BASE) == oracles.N_BASE
    assert stage2_params(SECOND) == oracles.N_SECOND


def test_stage2_halving_identity():
    # halving epsilon multiplies the pre-ceiling count by 4 (1 - eps) / (1 - eps/2)
    for (eps, delta, c) in [(0.1, 0.05, 1.0), (0.4, 0.2, 2.0), (0.02, 0.01, 0.5)]:
        full = stage2_count_real(ApproxSpec(eps, delta, c))
        half = stage2_count_real(ApproxSpec(eps / 2.0, delta, c))
        assert math.isclose(half / full, 4.0 * (1.0 - eps) / (1.0 - eps / 2.0), rel_tol=1e-12)


def test_theorem1_total_pinned():
    assert theorem1_total(BASE) == oracles.TOTAL_BASE
    assert theorem1_total(BASE) == oracles.N_BASE + oracles.K_BASE * oracles.M_BASE_PAPER
    assert theorem1_total(SECOND) == oracles.TOTAL_SECOND


def test_theorem1_total_consistency_grid():
    for eps in [0.01, 0.1, 0.3, 0.6]:
        for delta in [1e-4, 0.01, 0.2]:
            for c in [0.3, 1.0, 4.0]:
                spec = ApproxSpec(eps, delta, c)
                plan = build_plan(spec, Mode.PAPER_EXACT)
                assert theorem1_total(spec) == stage2_params(spec) + plan.k * plan.m


def test_theorem1_total_monotonicity():
    # the 1/(1 - eps) factor only dominates above eps = 2/3; stay below it
    eps_grid = [0.01, 0.05, 0.1, 0.2, 0.3, 0.5]
    delta_grid = [1e-6, 1e-4, 1e-2, 0.1, 0.3]
    c_grid = [0.5, 1.0, 2.0, 10.0]
    for delta in delta_grid:
        for c in c_grid:
            totals = [theorem1_total(ApproxSpec(e, delta, c)) for e in eps_grid]
            assert all(a >= b for a, b in zip(totals, totals[1:]))
    for eps in eps_grid:
        for c in c_grid:
            totals = [theorem1_total(ApproxSpec(eps, d, c)) for d in delta_grid]
            assert all(a >= b for a, b in zip(totals, totals[1:]))
        for delta in delta_grid:
            totals = [theorem1_total(ApproxSpec(eps, delta, c)) for c in c_grid]
            assert all(a <= b for a, b in zip(totals, totals[1:]))


def test_plan_invariants():
    plan = build_plan(BASE, Mode.STRICT)
    assert math.isclose(plan.epsilon1**2, BASE.epsilon * BASE.c**2 / (1 + BASE.c**2), rel_tol=1e-12)
    assert plan.epsilon1 < 1.0
    assert plan.n == stage2_params(BASE)
    assert plan.mode is Mode.STRICT
    assert 8.0 * BASE.c**2 / plan.epsilon1_sq <= plan.k


def test_mom_failure_bound_pinned():
    assert math.isclose(mom_failure_bound(0.125, 1), oracles.MOM_EIGHTH_R1, rel_tol=1e-9)
    assert math.isclose(mom_failure_bound(0.125, 2), oracles.MOM_EIGHTH_R2, rel_tol=1e-9)
    assert math.isclose(mom_failure_bound(0.125, 3), oracles.MOM_EIGHTH_R3, rel_tol=1e-9)
    # adjacent orders differ by the factor (4 nu^2 (1 - nu^2)) / sqrt((r+1)/r)
    assert math.isclose(
        mom_failure_bound(0.125, 2),
        mom_failure_bound(0.125, 1) * 0.4375 / math.sqrt(2.0),
        rel_tol=1e-12,
    )


def test_mom_failure_bound_decreasing_in_r():
    for nu_sq in [0.05, 0.125, 0.25, 0.4]:
        values = [mom_failure_bound(nu_sq, r) for r in range(1, 12)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_mom_failure_bound_domain():
    for bad_nu in [0.0, 0.5, 0.7, -0.1]:
        with pytest.raises(ValueError):
            mom_failure_bound(bad_nu, 1)
    with pytest.raises(ValueError):
        mom_failure_bound(0.125, 0)


def test_lower_bound_pinned():
    value = lower_bound_samples(BASE)
    assert math.isclose(value, oracles.LOWER_BOUND_BASE, rel_tol=1e-9)


def test_lower_bound_domain():
    with pytest.raises(ValueError):
        lower_bound_samples(ApproxSpec(0.1, 0.5, 1.0))  # 0.5 > 1/sqrt(2 pi)
    # just inside the domain the formula still evaluates; near the edge the
    # bound degenerates to the vacuous 0.0
    assert math.isfinite(lower_bound_samples(ApproxSpec(0.1, 0.39, 1.0)))


def test_lower_bound_vacuous_at_top_of_domain():
    # the bracket L - ln((2L+1)/sqrt(2L)) is negative above delta ~ 0.1965 and
    # L = 0 at delta = 1/sqrt(2 pi); the bound is then 0, never negative
    for delta in [0.2, 0.39, 1.0 / math.sqrt(2.0 * math.pi)]:
        assert lower_bound_samples(ApproxSpec(0.1, delta, 1.0)) == 0.0, delta
    assert lower_bound_samples(ApproxSpec(0.1, 0.19, 1.0)) > 0.0


def test_lower_bound_scales_as_c_and_eps_squared():
    base = lower_bound_samples(ApproxSpec(0.1, 0.05, 1.0))
    assert math.isclose(lower_bound_samples(ApproxSpec(0.1, 0.05, 2.0)), 4.0 * base, rel_tol=1e-14)
    assert math.isclose(lower_bound_samples(ApproxSpec(0.05, 0.05, 1.0)), 4.0 * base, rel_tol=1e-14)


def test_lower_bound_below_total_on_grid():
    for eps in [0.01, 0.05, 0.1, 0.2]:
        for delta in [1e-6, 1e-4, 1e-2, 0.1]:
            for c in [0.5, 1.0, 2.0, 10.0]:
                spec = ApproxSpec(eps, delta, c)
                assert lower_bound_samples(spec) < theorem1_total(spec)
