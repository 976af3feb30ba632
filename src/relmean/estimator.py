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
import sys
from dataclasses import dataclass

import numpy as np

from .psi import TruncationScale, _repair_tails, _scaled_psi_into, scaled_psi  # noqa: F401 - bench/tracing.py wraps scaled_psi here
from .sources import _integer

__all__ = [
    "Mode",
    "NonpositiveEstimateError",
    "SourceContractError",
    "ApproxSpec",
    "StagePlan",
    "EstimateReport",
    "stage2_params",
    "stage2_count_real",
    "build_plan",
    "theorem1_total",
    "mom_failure_bound",
    "median_of_means",
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


class SourceContractError(ValueError):
    """A source's take(n) returned other than n finite draws."""


def _check_accuracy(epsilon: float, delta: float) -> None:
    """ApproxSpec's check of epsilon and delta, for callers that know no c yet."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")


@dataclass(frozen=True)
class ApproxSpec:
    """Request: P(|estimate - mean| > epsilon * mean) <= delta, assuming the
    sampled distribution has relative standard deviation at most c."""

    epsilon: float
    delta: float
    c: float

    def __post_init__(self) -> None:
        _check_accuracy(self.epsilon, self.delta)
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"c must be positive and finite, got {self.c!r}")
        # the closed forms divide by c^2, epsilon^2, epsilon1^2 and delta / 2
        # (STRICT); one that underflows or overflows would surface as a
        # division by zero or an infinite or NaN draw count
        for name, value, given in (
            ("c^2", self.c * self.c, "c = {c!r} squares to"),
            ("epsilon^2", self.epsilon * self.epsilon, "epsilon = {epsilon!r} squares to"),
            ("delta / 2", self.delta / 2.0, "delta = {delta!r} halves to"),
        ):
            if not sys.float_info.min <= value <= sys.float_info.max:
                raise ValueError(f"{name} must be a normal float, but {given.format(**vars(self))} {value!r}")
        # epsilon1^2 = epsilon c^2 / (1 + c^2) may be subnormal (c = 2**-511),
        # but not 0
        epsilon1_sq = _epsilon1_sq(self)
        k = _group_size_real(self, epsilon1_sq) if epsilon1_sq > 0.0 else math.inf
        n = stage2_count_real(self)
        if not (math.isfinite(k) and math.isfinite(n)):
            raise ValueError(
                f"epsilon = {self.epsilon!r}, delta = {self.delta!r} and c = {self.c!r} give "
                f"draw counts too large for a float: k = {k!r}, n = {n!r}"
            )


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

    @property
    def samples_stage1(self) -> int:
        """Stage-1 draws: m groups of k."""
        return self.k * self.m

    @property
    def total_samples(self) -> int:
        """Draws of one run: stage 1 plus the n stage-2 draws."""
        return self.samples_stage1 + self.n


@dataclass(frozen=True)
class EstimateReport:
    """Result of one two-stage run; its draw counts are those of its plan."""

    mu1: float
    alpha: TruncationScale
    mu_hat: float
    plan: StagePlan

    @property
    def samples_stage1(self) -> int:
        return self.plan.samples_stage1

    @property
    def samples_stage2(self) -> int:
        return self.plan.n

    @property
    def total_samples(self) -> int:
        return self.plan.total_samples


def _group_rounds(d: float) -> int:
    """Half-count of stage-1 groups for failure budget d, floored at 1.

    The budget formula can go nonpositive for large d; a median still needs
    at least three groups, so the ceiled term is clamped to 1.
    """
    raw = math.log(7.0 / (48.0 * math.sqrt(math.pi) * d)) / math.log(16.0 / 7.0)
    return max(1, math.ceil(raw))


def _epsilon1_sq(spec: ApproxSpec) -> float:
    """The stage-1 accuracy epsilon1^2 = epsilon c^2 / (1 + c^2)."""
    return spec.epsilon * spec.c * spec.c / (1.0 + spec.c * spec.c)


def _group_size_real(spec: ApproxSpec, epsilon1_sq: float) -> float:
    """Stage-1 group size before ceiling: 8 c^2 / epsilon1^2."""
    return 8.0 * spec.c * spec.c / epsilon1_sq


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
    """Derive every stage parameter for the given spec and budget mode.

    epsilon1 = sqrt(epsilon c^2 / (1 + c^2)), k = ceil(8 c^2 / epsilon1^2)
    draws per group, m groups sized from the stage-1 budget (delta in
    PAPER_EXACT mode, delta / 2 in STRICT mode), and n = stage2_params.
    """
    mode = Mode(mode)
    epsilon1_sq = _epsilon1_sq(spec)
    k = math.ceil(_group_size_real(spec, epsilon1_sq))
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
    return build_plan(spec, Mode.PAPER_EXACT).total_samples


def mom_failure_bound(nu_sq: float, r: int) -> float:
    """Failure bound for the median of 2r+1 estimates, each landing outside
    the target window with probability at most nu_sq < 1/2.

    Returns nu_sq (1 - nu_sq) (4 nu_sq (1 - nu_sq))^r / (sqrt(pi r) (1 - 2 nu_sq)).
    """
    if not (0.0 < nu_sq < 0.5):
        raise ValueError(f"nu_sq must lie in (0, 1/2), got {nu_sq!r}")
    r = _integer("r", r, 1)
    q = nu_sq * (1.0 - nu_sq)
    return q / (math.sqrt(math.pi * r) * (1.0 - 2.0 * nu_sq)) * (4.0 * q) ** r


def _fill_rows(sources, width: int, stage: str, out=None) -> np.ndarray:
    """Row i: the next `width` draws of sources[i].  Every estimator draw
    passes this gate of the take contract: take(width) returns exactly
    `width` draws, all finite, or SourceContractError names the stage (and,
    for a non-finite draw, the source's distribution spec string).  The rows
    are written into `out`, a len(sources) x width matrix or view; without
    one, the single source's take is the one row, uncopied."""
    rows = out
    for i, source in enumerate(sources):
        draws = np.asarray(source.take(width), dtype=float)
        if draws.shape != (width,):
            raise SourceContractError(
                f"{stage}: take({width}) returned {draws.size} draws in shape {draws.shape}"
            )
        if rows is None:
            rows = draws[None, :]
        else:
            rows[i] = draws
    if not np.isfinite(rows).all():
        source = sources[int(np.argmin(np.isfinite(rows).all(axis=1)))]
        name = getattr(getattr(source, "dist", None), "spec_string", type(source).__name__)
        raise SourceContractError(f"{stage}: take({width}) returned a non-finite draw from {name}")
    return rows


def _median_rows(draws: np.ndarray, k: int, m: int) -> np.ndarray:
    """Per row of a rows x k*m matrix: the median of m group means, each over
    k consecutive draws."""
    group_means = np.add.reduce(draws.reshape(len(draws), m, k), axis=2) / k
    group_means.sort(axis=1)
    return group_means[:, m // 2]


def _positive_centre(mu1: float) -> float:
    """A stage-1 estimate, which must be positive to centre stage 2."""
    if not mu1 > 0.0:
        raise NonpositiveEstimateError(
            f"stage-1 estimate {mu1!r} is not positive; the method requires a positive mean"
        )
    return mu1


def _truncation_scale(mu1: float, spec: ApproxSpec) -> TruncationScale:
    """alpha = epsilon / (c^2 mu1) for a positive, finite centre mu1."""
    if not (math.isfinite(mu1) and mu1 > 0.0):
        raise ValueError(f"mu1 must be positive and finite, got {mu1!r}")
    scaled_centre = spec.c * spec.c * mu1
    alpha = spec.epsilon / scaled_centre if scaled_centre > 0.0 else math.inf
    if alpha == math.inf:
        raise ValueError(
            f"mu1 = {mu1!r} is too small at c = {spec.c!r}: the truncation scale epsilon / (c^2 mu1) overflows"
        )
    return TruncationScale(alpha)


# elements per stage-2 block: the block and its two scratch arrays stay in cache
_BLOCK = 16384


@np.errstate(over="ignore", invalid="ignore")  # see the last paragraph below
def _truncated_mean_rows(draws: np.ndarray, mu1: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Per row: the mean of mu1 + psi(alpha (x - mu1)) / alpha over its draws.

    The terms are written into one rows x n output, a block of about _BLOCK
    elements at a time, with two block-sized scratch arrays, so no other
    full-row temporary exists and draws is never written.  Rows that fit in
    one block are evaluated whole, unsliced, on scratch numpy allocates
    itself, which is cheaper at a few hundred draws.  Each term is the value
    an unblocked evaluation gives, and one reduce over the full rows sums
    them in the same pairwise order, so the means are bit-identical to it.

    Where alpha (x - mu1) or its square overflows, the term is infinite and
    a row of +inf and -inf terms sums to NaN; psi's _repair_tails then
    replaces those terms in each non-finite row, so the kernel silences
    numpy's overflow and invalid-value warnings.  A mean that stays
    non-finite after the repair (draws or a centre mu1 within a few orders
    of magnitude of the largest float) is returned as it is.
    """
    rows, n = draws.shape
    mu1, alpha = mu1[:, None], alpha[:, None]
    width = max(1, _BLOCK // rows)
    if n <= width:
        out = draws - mu1
        _scaled_psi_into(out, alpha)
        out += mu1
    else:
        out = np.empty((rows, n))
        t, u = np.empty((rows, width)), np.empty((rows, width))
        for lo in range(0, n, width):
            w = np.subtract(draws[:, lo : lo + width], mu1, out=out[:, lo : lo + width])
            _scaled_psi_into(w, alpha, t[:, : w.shape[1]], u[:, : w.shape[1]])
            w += mu1
    means = np.add.reduce(out, axis=1) / n
    for i, mean in enumerate(means.tolist()):
        if not math.isfinite(mean):
            _repair_tails(out[i], draws[i], alpha[i], mu1[i])
            means[i] = np.add.reduce(out[i]) / n
    return means


def _two_stage_reduce(stage1: np.ndarray, stage2: np.ndarray, spec: ApproxSpec, plan: StagePlan):
    """(mu1, alpha, mu_hat) per row of the rows x k*m stage-1 and rows x n
    stage-2 draws, which may be column views of one matrix.  Each row gets
    exactly the arithmetic of a single run, so results do not depend on how
    runs are grouped into calls.
    """
    # stage 1: the median of means / (1 - epsilon1^2); the correction turns a
    # bound on |estimate/mean - 1| into the one on |mean/estimate - 1| that
    # stage 2's truncation scale needs
    mu1 = _median_rows(stage1, plan.k, plan.m) / (1.0 - plan.epsilon1_sq)
    # per-row checks in Python: cheaper than array tests at a few rows, and
    # they raise exactly what a single run raises
    alpha = np.array([_truncation_scale(_positive_centre(v), spec).alpha for v in mu1.tolist()])
    return mu1, alpha, _truncated_mean_rows(stage2, mu1, alpha)


def median_of_means(source, k: int, m: int) -> float:
    """Median of m group means, each over k consecutive draws (k*m draws).

    Groups are consecutive blocks in stream order, so the value is a pure
    function of the source's seed.  m must be odd: the median is the exact
    middle order statistic.
    """
    k = _integer("group size k", k, 1)
    m = _integer("group count m", m, 1)
    if m % 2 == 0:
        raise ValueError(f"group count m must be odd, got {m}")
    return float(_median_rows(_fill_rows([source], k * m, "median of means"), k, m)[0])


def stage2_estimate(source, mu1: float, spec: ApproxSpec) -> tuple[float, TruncationScale]:
    """Average of truncated draws centred at mu1; returns (mu_hat, alpha).

    Each draw x contributes mu1 + psi(alpha (x - mu1)) / alpha with
    alpha = epsilon / (c^2 mu1).
    """
    alpha = _truncation_scale(mu1, spec)
    draws = _fill_rows([source], stage2_params(spec), "stage 2")
    mu_hat = _truncated_mean_rows(draws, np.array([mu1], dtype=float), np.array([alpha.alpha]))
    return float(mu_hat[0]), alpha


def estimate_mean(source, spec: ApproxSpec, mode: Mode = Mode.STRICT) -> EstimateReport:
    """Run both stages on fresh draws from one stream and report the result.

    The source must provide iid draws through take(n); stage 2 never reuses
    stage-1 draws.  When the source's mean is positive and its relative
    standard deviation is at most spec.c, the reported mu_hat satisfies
    P(|mu_hat - mean| > epsilon * mean) <= delta.
    """
    plan = build_plan(spec, mode)
    stage1 = _fill_rows([source], plan.samples_stage1, "stage 1")
    stage2 = _fill_rows([source], plan.n, "stage 2")
    mu1, alpha, mu_hat = _two_stage_reduce(stage1, stage2, spec, plan)
    return EstimateReport(
        mu1=float(mu1[0]),
        alpha=TruncationScale(float(alpha[0])),
        mu_hat=float(mu_hat[0]),
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
