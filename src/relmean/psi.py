"""Influence transform used by the second estimation stage.

The transform maps a deviation u to a value close to u near zero while
growing only logarithmically in the tails, so averages of transformed
deviations stay light-tailed no matter how heavy the sampled distribution
is.  ``psi_upper`` and ``psi_lower`` bracket it from above and below and
carry the same tail behaviour.
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


def _psi(x: np.ndarray) -> np.ndarray:
    """sign(x) * log1p(|x| + x^2/2) on a float array, without input checks.

    The one evaluation of the transform: psi, scaled_psi and the estimator's
    batched kernel all go through it, so their results agree bit for bit.
    """
    return np.sign(x) * np.log1p(np.abs(x) + 0.5 * x * x)


def psi(u):
    """ln(1 + u + u^2/2) for u >= 0, continued oddly to u < 0.

    Both branches reduce to sign(u) * log1p(|u| + u^2/2), so the function is
    exactly odd in floating point and accurate near zero.  Accepts scalars or
    arrays.
    """
    return _match_input(_psi(_finite_array(u)), u)


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

    ``scale`` may be a TruncationScale or a positive float.  The result
    shrinks, |scaled_psi(alpha, u)| <= |u| to within an ulp or two, when
    alpha * u is 0 or a normal float.  When alpha * u is subnormal, its
    rounding is carried back through the division, and the result may
    exceed |u| by up to 2**-1074 / alpha more.
    """
    alpha = scale.alpha if isinstance(scale, TruncationScale) else TruncationScale(float(scale)).alpha
    return _match_input(_psi(alpha * _finite_array(u)) / alpha, u)
