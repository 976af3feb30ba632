"""Value and shape checks for the truncation transform and its envelopes."""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relmean import TruncationScale, psi, psi_lower, psi_upper, scaled_psi

import oracles

finite_values = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def test_psi_pinned_values():
    assert psi(0.0) == 0.0
    assert math.isclose(psi(1.0), oracles.PSI_ONE, rel_tol=1e-9)
    assert psi(-1.0) == -psi(1.0)


def test_psi_of_negative_zero_is_positive_zero():
    for value in (psi(-0.0), float(psi(np.array([-0.0]))[0]), scaled_psi(2.0, -0.0)):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_envelope_pinned_values():
    assert psi_upper(0.0) == 0.0
    assert psi_upper(-2.0) == 0.0  # ln(1 - 2 + 2) = ln 1, analytically forced
    assert math.isclose(psi_upper(1.0), oracles.PSI_ONE, rel_tol=1e-9)
    assert psi_lower(0.0) == 0.0
    assert math.isclose(psi_lower(1.0), oracles.PSI_LOWER_ONE, rel_tol=1e-9)
    assert math.isclose(psi_lower(-1.0), -oracles.PSI_ONE, rel_tol=1e-9)


def test_scaled_psi_pinned_values():
    assert scaled_psi(TruncationScale(2.0), 0.0) == 0.0
    assert math.isclose(scaled_psi(TruncationScale(1.0), 1.0), oracles.PSI_ONE, rel_tol=1e-9)
    # near-identity regime: the transform deviates from u only at cubic order
    assert abs(scaled_psi(TruncationScale(0.001), 1.0) - 1.0) < 1e-6
    assert scaled_psi(0.5, 2.0) == pytest.approx(psi(1.0) / 0.5, rel=1e-15)


def test_truncation_scale_validation():
    with pytest.raises(ValueError):
        TruncationScale(0.0)
    with pytest.raises(ValueError):
        TruncationScale(-1.0)
    with pytest.raises(ValueError):
        TruncationScale(math.inf)


def test_scaled_psi_names_its_scale():
    with pytest.raises(ValueError, match=r"^scale must be finite and lie in \(0, inf\), got 0\.0$"):
        scaled_psi(0.0, 1.0)


def test_rejects_non_finite_input():
    with pytest.raises(ValueError, match=r"^u must be finite and lie in \(-inf, inf\), got nan$"):
        psi(math.nan)
    with pytest.raises(ValueError, match=r"^u must be finite and lie in \(-inf, inf\), got inf$"):
        psi_upper(np.array([1.0, math.inf]))


def test_psi_is_finite_where_the_square_overflows():
    # u^2/2 overflows above about 1.9e154, yet psi never exceeds 1419
    assert math.isclose(psi(1e200), oracles.PSI_1E200, rel_tol=4e-16)
    assert math.isclose(psi(sys.float_info.max), oracles.PSI_MAX_FLOAT, rel_tol=4e-16)
    assert psi(-1e200) == -psi(1e200)
    grid = np.append(np.geomspace(1e150, 1e308, 2000), sys.float_info.max)
    values = psi(np.concatenate([-grid[::-1], grid]))
    assert np.all(np.isfinite(values)) and np.all(np.diff(values) >= 0.0)
    # where the square is finite, the values are the evaluator's, bit for bit
    with np.errstate(over="ignore"):
        below = grid[0.5 * grid * grid < math.inf]
    assert np.array_equal(psi(grid)[: below.size], np.sign(below) * np.log1p(np.abs(below) + 0.5 * below * below))


def test_psi_is_continuous_where_its_square_overflows():
    # the largest u whose u^2/2 is finite, and the next float
    edge = math.sqrt(2.0) * math.sqrt(sys.float_info.max)
    while 0.5 * edge * edge == math.inf:
        edge = math.nextafter(edge, 0.0)
    while 0.5 * math.nextafter(edge, math.inf) * math.nextafter(edge, math.inf) < math.inf:
        edge = math.nextafter(edge, math.inf)
    inside, outside = psi(edge), psi(math.nextafter(edge, math.inf))
    assert math.isfinite(inside) and abs(outside - inside) <= 2 * math.ulp(inside)


def test_scaled_psi_is_finite_where_the_scaled_argument_overflows():
    # alpha * u = 1e310 overflows itself; the value comes from ln alpha + ln u
    assert math.isclose(scaled_psi(1e10, 1e300), oracles.SCALED_PSI_1E10_1E300, rel_tol=4e-16)
    assert scaled_psi(1e10, -1e300) == -scaled_psi(1e10, 1e300)
    assert np.all(np.isfinite(scaled_psi(1e10, np.array([1e160, -1e300, 1.0]))))


def _at_most(value: float, limit: float, ulps: int = 2) -> bool:
    """value <= limit, allowing limit to be short by a couple of ulps."""
    for _ in range(ulps):
        limit = math.nextafter(limit, math.inf)
    return value <= limit


@settings(max_examples=200, derandomize=True)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(1e155)
@example(-1e200)
@example(sys.float_info.max)
@example(-sys.float_info.max)
def test_envelope_property(u):
    # the envelopes are rounded outward, so the ordering holds exactly even
    # near zero, where the true gaps (u^4/4 and below) are far under an ulp;
    # where u^2/2 overflows, each envelope has psi's finite tail
    low, high = psi_lower(u), psi_upper(u)
    assert math.isfinite(low) and math.isfinite(high)
    assert low <= psi(u) <= high


def test_envelope_ordering_is_exact_where_the_gap_is_below_an_ulp():
    # |u| in [2.9e-9, 7.8e-6], where the unrounded formulas put psi above
    # psi_upper or below psi_lower by one ulp for about 1 input in 5
    rng = np.random.default_rng(20261019)
    u = rng.choice([-1.0, 1.0], 200_000) * np.exp(rng.uniform(math.log(2.9e-9), math.log(7.8e-6), 200_000))
    values = psi(u)
    assert np.all(psi_lower(u) <= values) and np.all(values <= psi_upper(u))
    assert np.array_equal(psi_lower(u), -psi_upper(-u))


@settings(max_examples=200, derandomize=True)
@given(finite_values)
def test_exact_oddness(u):
    assert psi(-u) == -psi(u)


@settings(max_examples=200, derandomize=True)
@given(finite_values, st.floats(min_value=1e-6, max_value=1e4))
@example(2.225073858507203e-309, 0.0625)
def test_scaled_psi_shrinks(u, alpha):
    # same ulp caveat as the envelope: for |alpha*u| tiny the true slack is
    # cubic and drops below float resolution.  A subnormal alpha*u also
    # carries its rounding, at most 2**-1074, back through the division:
    # the example's result exceeds |u| by 6 units of 2**-1074
    subnormal = 0.0 < abs(alpha * u) < sys.float_info.min
    bound = abs(u) + (2.0**-1074 / alpha if subnormal else 0.0)
    assert _at_most(abs(scaled_psi(TruncationScale(alpha), u)), bound)


@settings(max_examples=200, derandomize=True)
@given(finite_values, st.floats(min_value=1e-6, max_value=1e4))
@example(2.225073858507203e-309, 0.0625)
def test_scaled_psi_is_psi_of_scaled_argument_exactly(u, alpha):
    assert scaled_psi(alpha, u) == psi(alpha * u) / alpha
    grid = np.linspace(-3.0, 3.0, 61) * u
    assert np.array_equal(scaled_psi(TruncationScale(alpha), grid), psi(alpha * grid) / alpha)


def test_envelope_on_dense_grid():
    grid = np.linspace(-100.0, 100.0, 100_001)
    low, mid, high = psi_lower(grid), psi(grid), psi_upper(grid)
    assert np.all(low <= mid) and np.all(mid <= high)


def test_monotone_on_sorted_random_grid():
    rng = np.random.default_rng(7)
    pts = np.sort(rng.uniform(-100.0, 100.0, 10_000))
    assert np.all(np.diff(psi(pts)) >= 0.0)


def test_exponential_identity():
    grid = np.linspace(-10.0, 10.0, 20_001)
    lhs = np.exp(psi_upper(grid))
    rhs = 1.0 + grid + 0.5 * grid * grid
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=0.0)


def test_lower_upper_mirror_symmetry():
    grid = np.linspace(-50.0, 50.0, 5_001)
    assert np.allclose(psi_lower(-grid), -psi_upper(grid), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("function", [psi, psi_upper, psi_lower, lambda u: scaled_psi(0.5, u)],
                         ids=["psi", "psi_upper", "psi_lower", "scaled_psi"])
def test_inputs_that_are_not_real_are_named(function):
    # a cast to float would drop imaginary parts with only a ComplexWarning
    # and parse strings
    for u, dtype in [
        (np.array([1.0, 2.0 + 1j]), "complex128"), (np.ones(2, dtype=np.complex64), "complex64"),
        (2.0 + 0j, "complex128"), (np.array(["1.5"]), "<U3"), ("1.5", "<U3"), ([Fraction(1, 2)], "object"),
    ]:
        with pytest.raises(ValueError, match=rf"^u must hold real numbers, got dtype {re.escape(dtype)}$"):
            function(u)
    with pytest.raises(ValueError, match=r"^u must be a real number, got None$"):
        function(None)
    with pytest.raises(ValueError, match=r"^u must be finite and lie in \(-inf, inf\), got a 1329-bit integer$"):
        function(10**400)
    # a real scalar converts as a float would, and bool, integer and float
    # arrays are real
    assert function(Fraction(1, 2)) == function(0.5)
    assert type(function(Fraction(1, 2))) is float
    want = function(np.array([0.0, 1.0, 2.0]))
    for u in [[0, 1, 2], np.arange(3, dtype=np.uint8), np.array([0.0, 1.0, 2.0], dtype=np.float32)]:
        assert function(u).tobytes() == want.tobytes()
    assert function(np.array([False, True])).tobytes() == want[:2].tobytes()
    # a 0-d array or numpy scalar is a scalar too: a float with the bits of
    # element 0 of the one-element-array result
    for u in (
        -0.0, 5e-324, 1e200, np.array(-0.0), np.array(5e-324), np.array(1e200), np.array(3),
        np.float64(-0.0), np.float64(5e-324), np.float64(1e200), np.float32(-0.0), np.float32(3e38),
        np.int64(-7), np.int64(2**62), np.bool_(True), np.bool_(False),
    ):
        value = function(u)
        assert type(value) is float
        assert np.float64(value).tobytes() == function(np.array([u])).tobytes()
