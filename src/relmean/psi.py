"""Influence transform used by the second estimation stage.

The transform maps a deviation u to a value close to u near zero while
growing only logarithmically in the tails, so averages of transformed
deviations stay light-tailed no matter how heavy the sampled distribution
is.  ``psi_upper`` and ``psi_lower`` bracket it from above and below and
carry the same tail behaviour.

The transform has one evaluator, ``_psi_into``, which overwrites a float
array in place.  The estimator's stage-2 kernel applies it block by block
to its own output; ``psi`` and ``scaled_psi`` apply it to a fresh copy of
their input, so all three agree bit for bit.
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


def _psi_into(w: np.ndarray, t: np.ndarray | None = None, u: np.ndarray | None = None) -> None:
    """Overwrite the float array w with sign(w) * log1p(|w| + w^2/2).

    The one evaluation of the transform, without input checks.  t and u are
    scratch arrays of w's shape; numpy allocates them when they are not
    given.  sign(w) * (rather than copysign) keeps psi(-0.0) at +0.0.
    """
    t = np.multiply(w, 0.5, out=t)
    t *= w
    u = np.abs(w, out=u)
    t += u
    np.log1p(t, out=t)
    np.multiply(np.sign(w, out=u), t, out=w)


def _psi(x) -> np.ndarray:
    """psi on a fresh float copy of x, which is left untouched."""
    w = np.array(x, dtype=float)
    # explicit scratch: a ufunc on a 0-d array returns a scalar, not an array
    _psi_into(w, np.empty_like(w), np.empty_like(w))
    return w


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
