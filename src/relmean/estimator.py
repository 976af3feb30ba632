"""Two-stage mean estimation under a relative-variance bound.

Stage 1 locates the mean to within a coarse relative accuracy with a
median of group means.  Stage 2 centres a truncated-deviation average at
the stage-1 estimate; the truncation scale is chosen so the average meets
the requested (epsilon, delta) accuracy with an optimal-order draw count.
The calculators below size each stage and evaluate the matching
information lower bound on how few draws any estimator could use.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .psi import TruncationScale, scaled_psi

__all__ = [
    "Mode",
    "NonpositiveEstimateError",
    "ApproxSpec",
    "StagePlan",
    "EstimateReport",
    "stage1_params",
    "stage2_params",
    "stage2_count_real",
    "build_plan",
    "theorem1_total",
    "mom_failure_bound",
    "median_of_means",
    "stage1_estimate",
    "stage2_estimate",
    "estimate_mean",
    "lower_bound_samples",
]


class Mode(enum.Enum):
    """How the failure budget delta is split between the two stages.

    PAPER_EXACT reproduces the headline sample counts: the stage-1 group
    formula spends the full delta.  STRICT halves delta in both stages so a
    union bound provably caps the total failure probability at delta.
    """

    PAPER_EXACT = "paper"
    STRICT = "strict"


class NonpositiveEstimateError(RuntimeError):
    """Stage 1 returned a nonpositive estimate; stage 2 needs a positive centre."""


@dataclass(frozen=True)
class ApproxSpec:
    """Request: P(|estimate - mean| > epsilon * mean) <= delta, assuming the
    sampled distribution has relative standard deviation at most c."""

    epsilon: float
    delta: float
    c: float

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon!r}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"c must be positive and finite, got {self.c!r}")


@dataclass(frozen=True)
class StagePlan:
    """All derived parameters of one two-stage run.

    epsilon1_sq is kept alongside epsilon1 because the group count and the
    bias correction must both be computed from the exact ratio
    epsilon * c^2 / (1 + c^2), not from a square-rooted round trip.
    """

    epsilon1: float
    epsilon1_sq: float
    k: int
    m: int
    n: int
    mode: Mode


@dataclass(frozen=True)
class EstimateReport:
    mu1: float
    alpha: TruncationScale
    mu_hat: float
    samples_stage1: int
    samples_stage2: int
    total_samples: int
    plan: StagePlan

    def __post_init__(self) -> None:
        if self.total_samples != self.samples_stage1 + self.samples_stage2:
            raise ValueError("total_samples must equal the sum of the stage counts")


def _group_rounds(d: float) -> int:
    """Half-count of stage-1 groups for failure budget d, floored at 1.

    The budget formula can go nonpositive for large d; a median still needs
    at least three groups, so the ceiled term is clamped to 1.
    """
    raw = math.log(7.0 / (48.0 * math.sqrt(math.pi) * d)) / math.log(16.0 / 7.0)
    return max(1, math.ceil(raw))


def stage1_params(spec: ApproxSpec, mode: Mode = Mode.STRICT) -> tuple[float, int, int]:
    """(epsilon1, k, m) for the median-of-means stage.

    epsilon1 = sqrt(epsilon c^2 / (1 + c^2)), k = ceil(8 c^2 / epsilon1^2)
    draws per group, and m groups sized from the stage budget (delta in
    PAPER_EXACT mode, delta / 2 in STRICT mode).
    """
    plan = build_plan(spec, mode)
    return plan.epsilon1, plan.k, plan.m


def stage2_count_real(spec: ApproxSpec) -> float:
    """Second-stage draw count before ceiling: 2 c^2 ln(4/delta) / (epsilon^2 (1 - epsilon))."""
    return (
        2.0 * spec.c * spec.c * math.log(4.0 / spec.delta)
        / (spec.epsilon * spec.epsilon * (1.0 - spec.epsilon))
    )


def stage2_params(spec: ApproxSpec) -> int:
    """Number of truncated draws in stage 2: the ceiling of stage2_count_real."""
    return math.ceil(stage2_count_real(spec))


def build_plan(spec: ApproxSpec, mode: Mode = Mode.STRICT) -> StagePlan:
    """Derive every stage parameter for the given spec and budget mode."""
    mode = Mode(mode)
    epsilon1_sq = spec.epsilon * spec.c * spec.c / (1.0 + spec.c * spec.c)
    k = math.ceil(8.0 * spec.c * spec.c / epsilon1_sq)
    d = spec.delta if mode is Mode.PAPER_EXACT else spec.delta / 2.0
    m = 2 * _group_rounds(d) + 1
    return StagePlan(
        epsilon1=math.sqrt(epsilon1_sq),
        epsilon1_sq=epsilon1_sq,
        k=k,
        m=m,
        n=stage2_params(spec),
        mode=mode,
    )


def theorem1_total(spec: ApproxSpec) -> int:
    """Headline total draw count of the scheme at its printed parameters.

    Equals stage2_params plus k*m with the stage-1 group count taken at the
    full delta budget (PAPER_EXACT), so the value matches the closed-form
    total regardless of which mode a run actually uses.
    """
    plan = build_plan(spec, Mode.PAPER_EXACT)
    return plan.n + plan.k * plan.m


def mom_failure_bound(nu_sq: float, r: int) -> float:
    """Failure bound for the median of 2r+1 estimates, each landing outside
    the target window with probability at most nu_sq < 1/2.

    Returns nu_sq (1 - nu_sq) (4 nu_sq (1 - nu_sq))^r / (sqrt(pi r) (1 - 2 nu_sq)).
    """
    if not (0.0 < nu_sq < 0.5):
        raise ValueError(f"nu_sq must lie in (0, 1/2), got {nu_sq!r}")
    r = int(r)
    if r < 1:
        raise ValueError(f"r must be a positive integer, got {r!r}")
    q = nu_sq * (1.0 - nu_sq)
    return q / (math.sqrt(math.pi * r) * (1.0 - 2.0 * nu_sq)) * (4.0 * q) ** r


def median_of_means(source, k: int, m: int) -> float:
    """Median of m group means, each over k consecutive draws (k*m draws).

    Groups are consecutive blocks in stream order, so the value is a pure
    function of the source's seed.  m must be odd: the median is the exact
    middle order statistic.
    """
    k = int(k)
    m = int(m)
    if k < 1:
        raise ValueError(f"group size k must be >= 1, got {k}")
    if m < 1 or m % 2 == 0:
        raise ValueError(f"group count m must be odd and >= 1, got {m}")
    draws = np.asarray(source.take(k * m), dtype=float)
    group_means = draws.reshape(m, k).mean(axis=1)
    return float(np.sort(group_means)[m // 2])


def _stage1(source, plan: StagePlan) -> float:
    mu1 = median_of_means(source, plan.k, plan.m) / (1.0 - plan.epsilon1_sq)
    if not mu1 > 0.0:
        raise NonpositiveEstimateError(
            f"stage-1 estimate {mu1!r} is not positive; the method requires a positive mean"
        )
    return mu1


def stage1_estimate(source, spec: ApproxSpec, mode: Mode = Mode.STRICT) -> float:
    """Bias-corrected stage-1 estimate: median_of_means / (1 - epsilon1^2).

    The correction turns a bound on |estimate/mean - 1| into one on
    |mean/estimate - 1|, which is what stage 2's truncation scale needs.
    """
    return _stage1(source, build_plan(spec, mode))


def stage2_estimate(source, mu1: float, spec: ApproxSpec) -> tuple[float, TruncationScale]:
    """Average of truncated draws centred at mu1; returns (mu_hat, alpha).

    Each draw x contributes mu1 + psi(alpha (x - mu1)) / alpha with
    alpha = epsilon / (c^2 mu1).
    """
    if not (math.isfinite(mu1) and mu1 > 0.0):
        raise ValueError(f"mu1 must be positive and finite, got {mu1!r}")
    alpha = TruncationScale(spec.epsilon / (spec.c * spec.c * mu1))
    draws = np.asarray(source.take(stage2_params(spec)), dtype=float)
    w = mu1 + scaled_psi(alpha, draws - mu1)
    return float(np.mean(w)), alpha


def estimate_mean(source, spec: ApproxSpec, mode: Mode = Mode.STRICT) -> EstimateReport:
    """Run both stages on fresh draws from one stream and report the result.

    The source must provide iid draws through take(n); stage 2 never reuses
    stage-1 draws.  When the source's mean is positive and its relative
    standard deviation is at most spec.c, the reported mu_hat satisfies
    P(|mu_hat - mean| > epsilon * mean) <= delta.
    """
    plan = build_plan(spec, mode)
    mu1 = _stage1(source, plan)
    mu_hat, alpha = stage2_estimate(source, mu1, spec)
    stage1_draws = plan.k * plan.m
    return EstimateReport(
        mu1=mu1,
        alpha=alpha,
        mu_hat=mu_hat,
        samples_stage1=stage1_draws,
        samples_stage2=plan.n,
        total_samples=stage1_draws + plan.n,
        plan=plan,
    )


def lower_bound_samples(spec: ApproxSpec) -> float:
    """Lower bound on the draws any (epsilon, delta) estimator needs at
    relative variance c^2; may be fractional (it is a bound, not a plan).

    Returns 2 c^2 / epsilon^2 * (L - ln((2L + 1) / sqrt(2L))) with
    L = ln(1 / (sqrt(2 pi) delta)); valid for delta <= 1/sqrt(2 pi).  Where
    the bracket is not positive (delta above about 0.1965, up to L = 0 at
    delta = 1/sqrt(2 pi)) no draw count is ruled out, so the bound is the
    vacuous 0.0.
    """
    if spec.delta > 1.0 / math.sqrt(2.0 * math.pi):
        raise ValueError("the lower bound requires delta <= 1/sqrt(2*pi)")
    big_l = math.log(1.0 / (math.sqrt(2.0 * math.pi) * spec.delta))
    if big_l <= 0.0:
        return 0.0
    bracket = big_l - math.log((2.0 * big_l + 1.0) / math.sqrt(2.0 * big_l))
    return 2.0 * spec.c * spec.c / (spec.epsilon * spec.epsilon) * max(bracket, 0.0)
