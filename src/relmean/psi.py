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
evaluator on each leaf of draws it reads, at most about 16k at a time,
and the repair on each row of a leaf whose sum is non-finite, so all three
agree bit for bit, but for the sign of a zero: the evaluator keeps the
sign of alpha w, so a -0.0 stays -0.0, and only ``psi`` and
``scaled_psi`` turn it into +0.0 (the kernel adds a positive centre to
each entry).  The envelopes are rounded outward, so that
psi_lower(u) <= psi(u) <= psi_upper(u) holds in floating point too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sources import _real

__all__ = ["TruncationScale", "psi", "psi_lower", "psi_upper", "scaled_psi"]


@dataclass(frozen=True)
class TruncationScale:
    """Positive scale for the truncation; deviations are damped beyond 1/alpha."""

    alpha: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _real("alpha", self.alpha, "(0, inf)"))


def _finite_array(u) -> np.ndarray:
    """u as a float array, at least 1-d, if it holds bool, integer or float
    entries, all finite: _real names the first that is not.  A scalar numpy
    holds as an object, a Fraction say, converts as _real converts it; any
    other dtype is a ValueError naming u, not cast, which would drop
    imaginary parts and parse strings."""
    arr = np.asarray(u)
    if arr.dtype.kind == "O" and arr.ndim == 0:
        arr = np.asarray(_real("u", u))
    elif arr.dtype.kind not in "biuf":
        raise ValueError(f"u must hold real numbers, got dtype {arr.dtype}")
    arr = np.atleast_1d(arr.astype(float, copy=False))
    finite = np.isfinite(arr)
    if not finite.all():
        _real("u", arr[~finite][0].item())
    return arr


def _match_input(out: np.ndarray, u):
    return float(out[0]) if np.ndim(u) == 0 else out


def _scaled_psi_into(w: np.ndarray, alpha) -> None:
    """Overwrite the float array w with psi(alpha w) / alpha, without input
    checks; alpha is a positive float or broadcasts against w.

    psi(v) = sign(v) * log1p(|v| + v^2/2), written by copysign, so an entry
    -0.0 stays -0.0: _scaled_psi turns it into +0.0, and a kernel term
    mu1 + psi / alpha, with mu1 > 0, is never a signed zero.  Where alpha w
    or its square overflows, the entry is infinite.
    """
    w *= alpha
    t = w * 0.5
    t *= w
    t += np.abs(w)
    np.log1p(t, out=t)
    np.copysign(t, w, out=w)
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
    copy, with its overflowed entries repaired and -0.0 turned into +0.0
    (-0.0 + 0.0 is +0.0; every other entry is unchanged), so psi(-0.0) is
    +0.0."""
    w = arr.copy()
    with np.errstate(over="ignore"):
        _scaled_psi_into(w, alpha)
    _repair_tails(w, arr, alpha)
    w += 0.0
    return w


def psi(u):
    """ln(1 + u + u^2/2) for u >= 0, continued oddly to u < 0.

    Both branches reduce to sign(u) * log1p(|u| + u^2/2), so the function is
    exactly odd in floating point and accurate near zero.  Where u^2/2
    overflows (|u| above about 1.9e154) it is 2 ln|u| - ln 2, finite.
    Accepts scalars or arrays.
    """
    return _match_input(_scaled_psi(1.0, _finite_array(u)), u)


def _upper(arr: np.ndarray) -> np.ndarray:
    """ln(1 + u + u^2/2) per entry of a float array, as a new array, rounded
    outward to at least psi(u).  Where u^2/2 overflows, the entry is psi's
    tail 2 ln|u| - ln 2, repaired as psi's are: on |u|, whose tail term is
    positive.

    psi(u) <= ln(1 + u + u^2/2) holds exactly: they are equal at u >= 0,
    and apart by ln(1 + u^4/4) at u < 0.  Near zero that gap is far below
    an ulp, so the two roundings may invert by one; the maximum keeps the
    envelope above psi, and psi_lower(u) = -psi_upper(-u) below it, since
    psi is exactly odd."""
    with np.errstate(over="ignore"):
        out = np.log1p(arr + 0.5 * arr * arr)
    _repair_tails(out, np.abs(arr), 1.0)
    return np.maximum(out, _scaled_psi(1.0, arr), out=out)


def psi_upper(u):
    """Upper envelope ln(1 + u + u^2/2); the argument of the log is >= 1/2.
    Where u^2/2 overflows it is 2 ln|u| - ln 2, finite."""
    return _match_input(_upper(_finite_array(u)), u)


def psi_lower(u):
    """Lower envelope -ln(1 - u + u^2/2), that is -psi_upper(-u)."""
    return _match_input(-_upper(-_finite_array(u)), u)


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
    alpha = scale.alpha if isinstance(scale, TruncationScale) else _real("scale", scale, "(0, inf)")
    return _match_input(_scaled_psi(alpha, _finite_array(u)), u)
