"""Influence transform used by the second estimation stage.

The transform maps a deviation u to a value close to u near zero while
growing only logarithmically in the tails, so averages of transformed
deviations stay light-tailed no matter how heavy the sampled distribution
is.  ``psi_upper`` and ``psi_lower`` bracket it from above and below and
carry the same tail behaviour.

The scaled transform psi(alpha w) / alpha has one evaluator,
``_scaled_psi_into``, which overwrites a float array in place, and one
overflow repair, ``_repair_tails``: where alpha w or its square overflows,
the evaluator gives infinity, and the repair replaces just those entries
by the finite tail formula.  ``psi`` (alpha = 1) and ``scaled_psi`` run
both on a copy of their input; the estimator's stage-2 kernel runs the
evaluator block by block on its own output and the repair on its
non-finite rows, so all three agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["TruncationScale", "psi", "psi_lower", "psi_upper", "scaled_psi"]


@dataclass(frozen=True)
class TruncationScale:
    """Positive scale for the truncation; deviations are damped beyond 1/alpha."""

    alpha: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")


def _finite_array(u) -> np.ndarray:
    arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("input must be finite")
    return arr


def _match_input(out: np.ndarray, u):
    return float(out) if np.ndim(u) == 0 else out


def _scaled_psi_into(w: np.ndarray, alpha, t: np.ndarray | None = None, u: np.ndarray | None = None) -> None:
    """Overwrite the float array w with psi(alpha w) / alpha, without input
    checks; alpha is a positive float or broadcasts against w.

    psi(v) = sign(v) * log1p(|v| + v^2/2); sign(v) * (rather than copysign)
    keeps psi(-0.0) at +0.0.  t and u are scratch arrays of w's shape, which
    numpy allocates when they are not given.  Where alpha w or its square
    overflows, the entry comes out infinite.
    """
    w *= alpha
    t = np.multiply(w, 0.5, out=t)
    t *= w
    u = np.abs(w, out=u)
    t += u
    np.log1p(t, out=t)
    np.multiply(np.sign(w, out=u), t, out=w)
    w /= alpha


_LN2 = math.log(2.0)


def _repair_tails(terms: np.ndarray, x: np.ndarray, alpha, centre=0.0) -> None:
    """Replace each infinite entry of terms = centre + psi(alpha d) / alpha,
    d = x - centre, by centre + the tail formula.  An entry is infinite where
    alpha |d| exceeds about 1.9e154; there log1p(|v| + v^2/2) equals
    ln(v^2 / 2) = 2 (ln alpha + ln|d|) - ln 2 to a relative 1e-154, and its
    magnitude is at most about 1419."""
    big = np.isinf(terms)
    if big.any():
        d = x[big] - centre
        terms[big] = centre + np.sign(d) * (2.0 * (np.log(alpha) + np.log(np.abs(d))) - _LN2) / alpha


def _scaled_psi(alpha: float, arr: np.ndarray) -> np.ndarray:
    """psi(alpha * arr) / alpha for a float array, by the one evaluator on a
    copy, with its overflowed entries repaired."""
    w = arr.copy()  # a copy of a 0-d array stays an array, which the evaluator writes
    with np.errstate(over="ignore"):
        _scaled_psi_into(w, alpha, np.empty_like(w), np.empty_like(w))
    _repair_tails(w, arr, alpha)
    return w


def psi(u):
    """ln(1 + u + u^2/2) for u >= 0, continued oddly to u < 0.

    Both branches reduce to sign(u) * log1p(|u| + u^2/2), so the function is
    exactly odd in floating point and accurate near zero.  Where u^2/2
    overflows (|u| above about 1.9e154) it is 2 ln|u| - ln 2, finite.
    Accepts scalars or arrays.
    """
    return _match_input(_scaled_psi(1.0, _finite_array(u)), u)


def psi_upper(u):
    """Upper envelope ln(1 + u + u^2/2); the argument of the log is >= 1/2."""
    arr = _finite_array(u)
    out = np.log1p(arr + 0.5 * arr * arr)
    return _match_input(out, u)


def psi_lower(u):
    """Lower envelope -ln(1 - u + u^2/2)."""
    arr = _finite_array(u)
    out = -np.log1p(-arr + 0.5 * arr * arr)
    return _match_input(out, u)


def scaled_psi(scale, u):
    """psi(alpha * u) / alpha, exactly: close to the identity on |u| <= 1/alpha.

    Where alpha * |u| exceeds about 1.9e154, so that the product or its
    square overflows, the value comes from ln alpha + ln|u| and stays finite.

    ``scale`` may be a TruncationScale or a positive float.  The result
    shrinks, |scaled_psi(alpha, u)| <= |u| to within an ulp or two, when
    alpha * u is 0 or a normal float.  When alpha * u is subnormal, its
    rounding is carried back through the division, and the result may
    exceed |u| by up to 2**-1074 / alpha more.
    """
    alpha = scale.alpha if isinstance(scale, TruncationScale) else TruncationScale(float(scale)).alpha
    return _match_input(_scaled_psi(alpha, _finite_array(u)), u)
