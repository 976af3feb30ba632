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
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .psi import _repair_tails, _scaled_psi_into, scaled_psi  # noqa: F401 - bench/tracing.py wraps scaled_psi here
from .sources import InsufficientSamplesError, _integer, _real, _shown

__all__ = [
    "Mode",
    "NonpositiveEstimateError",
    "SourceContractError",
    "ApproxSpec",
    "StagePlan",
    "EstimateReport",
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
    """A source's take(n) returned other than n finite real draws."""


def _check_accuracy(epsilon: float, delta: float) -> tuple[float, float]:
    """ApproxSpec's check of epsilon and delta, as floats, for callers that know no c yet."""
    return _real("epsilon", epsilon, "(0, 1)"), _real("delta", delta, "(0, 1)")


@dataclass(frozen=True)
class ApproxSpec:
    """Request: P(|estimate - mean| > epsilon * mean) <= delta, assuming the
    sampled distribution has relative standard deviation at most c.  The
    fields keep the floats they were checked as: every kernel runs in float64."""

    epsilon: float
    delta: float
    c: float

    def __post_init__(self) -> None:
        epsilon, delta = _check_accuracy(self.epsilon, self.delta)
        for name, value in (("epsilon", epsilon), ("delta", delta), ("c", _real("c", self.c, "(0, inf)"))):
            object.__setattr__(self, name, value)
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
    alpha: float
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


def build_plan(spec: ApproxSpec, mode: Mode = Mode.STRICT) -> StagePlan:
    """Derive every stage parameter for the given spec and budget mode.

    epsilon1 = sqrt(epsilon c^2 / (1 + c^2)), k = ceil(8 c^2 / epsilon1^2)
    draws per group, m groups sized from the stage-1 budget (delta in
    PAPER_EXACT mode, delta / 2 in STRICT mode), and n = ceil(stage2_count_real).
    Plans are cached per (spec, mode): a plan is a pure function of the two,
    and all three are frozen.
    """
    return _cached_plan(spec, Mode(mode))


@functools.lru_cache
def _cached_plan(spec: ApproxSpec, mode: Mode) -> StagePlan:
    epsilon1_sq = _epsilon1_sq(spec)
    k = math.ceil(_group_size_real(spec, epsilon1_sq))
    d = spec.delta if mode is Mode.PAPER_EXACT else spec.delta / 2.0
    m = 2 * _group_rounds(d) + 1
    return StagePlan(
        epsilon1=math.sqrt(epsilon1_sq),
        epsilon1_sq=epsilon1_sq,
        k=k,
        m=m,
        n=math.ceil(stage2_count_real(spec)),
        mode=mode,
    )


def theorem1_total(spec: ApproxSpec) -> int:
    """Headline total draw count of the scheme at its printed parameters.

    Equals the plan's n plus k*m with the stage-1 group count taken at the
    full delta budget (PAPER_EXACT), so the value matches the closed-form
    total regardless of which mode a run actually uses.
    """
    return build_plan(spec, Mode.PAPER_EXACT).total_samples


def mom_failure_bound(nu_sq: float, r: int) -> float:
    """Failure bound for the median of 2r+1 estimates, each landing outside
    the target window with probability at most nu_sq < 1/2.

    Returns nu_sq (1 - nu_sq) (4 nu_sq (1 - nu_sq))^r / (sqrt(pi r) (1 - 2 nu_sq)).
    """
    nu_sq = _real("nu_sq", nu_sq, "(0, 0.5)")
    r = _integer("r", r, "[1, 1.7976931348623157e+308]")  # the closed form turns r into a float
    q = nu_sq * (1.0 - nu_sq)
    return q / (math.sqrt(math.pi * r) * (1.0 - 2.0 * nu_sq)) * (4.0 * q) ** r


def _fill_rows(sources, width: int, stage: str, stage2_from=None) -> np.ndarray:
    """Row i: the next `width` draws of sources[i].  Every estimator draw
    passes this gate of the take contract: take(width) returns exactly
    `width` real draws, all finite, or SourceContractError names the stage
    (and, for a non-finite draw, the source's distribution spec string).
    Only bool, integer and float draws are real: any other dtype is
    rejected, as a cast to float would drop a complex draw's imaginary
    part with only a ComplexWarning, parse strings and cast an object
    array element by element.  A take that holds both
    stages of a run gives stage2_from, its first stage-2 column: a
    non-finite draw is then named by the stage of its column.  The rows of
    several sources are written into one new matrix; a single source's
    take is the one row, uncopied."""
    rows = np.empty((len(sources), width)) if len(sources) > 1 else None
    for i, source in enumerate(sources):
        draws = np.asarray(source.take(width))
        if draws.dtype.kind not in "biuf":
            raise SourceContractError(f"{stage}: take({width}) returned draws of dtype {draws.dtype}")
        draws = draws.astype(float, copy=False)
        if draws.shape != (width,):
            raise SourceContractError(
                f"{stage}: take({width}) returned {draws.size} draws in shape {draws.shape}"
            )
        if rows is None:
            rows = draws[None, :]
        else:
            rows[i] = draws
    if not np.isfinite(rows).all():
        finite = np.isfinite(rows)
        i = int(np.argmin(finite.all(axis=1)))
        if stage2_from is not None:
            stage = "stage 1" if np.argmin(finite[i]) < stage2_from else "stage 2"
        name = getattr(getattr(sources[i], "dist", None), "spec_string", type(sources[i]).__name__)
        raise SourceContractError(f"{stage}: take({width}) returned a non-finite draw from {name}")
    return rows


# A stage's draws reach its kernel through a reader: read(lo, hi) returns
# draws [lo, hi) of the stage, one row per run, and is called on consecutive
# segments in order.  A single run reads its source, one gated take per
# call; a coverage chunk reads column views of the matrix it has filled.


def _source_reader(source, stage: str):
    """The reader of one source's next draws: one take per call, through
    the take-contract gate, which names `stage`."""
    return lambda lo, hi: _fill_rows([source], hi - lo, stage)


def _column_reader(draws: np.ndarray):
    """The reader of a rows x width matrix, by column views."""
    return lambda lo, hi: draws[:, lo:hi]


# Draws per take, and elements per evaluated stage-2 leaf: a take, its terms
# and the evaluator's two scratch arrays stay in cache.
_BLOCK = 16384


def _tree_sum(n: int, limit: int, leaf, lo: int = 0):
    """numpy's float64 add.reduce over the n elements from lo on, bit for
    bit, from the sums leaf(a, b) of segments [a, b) of at most
    max(limit, 128) elements; a leaf returns a float or an array of row
    sums.

    add.reduce sums pairwise (numpy's pairwise_sum): a run of more than 128
    elements is the sum of its first n2 elements, n // 2 rounded down to a
    multiple of 8, plus the sum of the rest, each summed alike; shorter
    runs are summed in one loop.  The walk makes the same cuts, calls leaf
    on the segments in order and adds the results left + right, so the
    result does not depend on the limit.  It recurses through this
    module-level function, not a nested one, which would be a reference
    cycle holding every array the leaf reads from until the garbage
    collector runs.
    """
    if n <= max(limit, 128):
        return leaf(lo, lo + n)
    half = n // 2 - n // 2 % 8
    return _tree_sum(half, limit, leaf, lo) + _tree_sum(n - half, limit, leaf, lo + half)


def _check_stage_size(stage: str, draws: int) -> None:
    """Refuse, before its first read, a stage of more draws than sys.maxsize:
    no take holds them, and _tree_sum would recurse past the stack's depth."""
    if draws > sys.maxsize:
        raise ValueError(
            f"{stage}: the draw count, {_shown(draws)}, exceeds sys.maxsize = {sys.maxsize}, the most one stage takes"
        )


def _overflow_error(stage: str, terms: str, count: int) -> ValueError:
    """The error of a stage whose sum of `terms`, `count` of them, overflowed
    a float: it names the largest draw magnitude such a sum holds."""
    return ValueError(
        f"{stage}: {terms} overflows; it holds draws of magnitude up to {sys.float_info.max / count:.3g}"
    )


@np.errstate(over="ignore", invalid="ignore")  # an overflow shows in the group means
def _median_rows(read, k: int, m: int, stage: str) -> np.ndarray:
    """Per row: the median of m group means, each over k consecutive draws
    of the reader `read` (k*m draws).

    A read holds whole groups, up to _BLOCK draws; a group of more than
    _BLOCK draws is read leaf by leaf of its pairwise sum.  Either way each
    group sum is add.reduce's over the group.

    The draws are finite, so a group sum is non-finite only where it
    overflowed (to inf, or to NaN where its partial sums overflowed both
    ways); whichever rank the group holds, that is a ValueError naming
    `stage`, k and the largest draw magnitude such a sum holds.
    """
    _check_stage_size(stage, k * m)
    sums = []
    if k <= _BLOCK:
        groups = _BLOCK // k
        for g in range(0, m, groups):
            draws = read(g * k, min(g + groups, m) * k)
            sums.append(np.add.reduce(draws.reshape(len(draws), -1, k), axis=2))
    else:
        for start in range(0, k * m, k):
            group = _tree_sum(k, _BLOCK, lambda lo, hi, s=start: np.add.reduce(read(s + lo, s + hi), axis=1))
            sums.append(group[:, None])
    group_means = np.concatenate(sums, axis=1) if len(sums) > 1 else sums[0]
    group_means /= k
    group_means.sort(axis=1)
    # sorting puts a row's non-finite group means at its ends: -inf first,
    # +inf and NaN last; checked in Python, cheaper than an array test at a
    # few rows
    for lo, hi in zip(group_means[:, 0].tolist(), group_means[:, -1].tolist()):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise _overflow_error(stage, f"a group sum of k = {k} draws", k)
    return group_means[:, m // 2]


def _truncation_scales(mu1_rows, spec: ApproxSpec) -> list[float]:
    """alpha = epsilon / (c^2 mu1) per float centre mu1, checked in one
    Python loop, cheaper than array tests at a few rows: a centre that is
    not positive is a NonpositiveEstimateError, and an alpha that
    overflows, or underflows to 0, a ValueError naming mu1 and c."""
    c_sq = spec.c * spec.c
    alpha = []
    for mu1 in mu1_rows:
        if not mu1 > 0.0:
            raise NonpositiveEstimateError(f"stage-1 estimate {mu1!r} is not positive; the method requires a positive mean")
        scaled_centre = c_sq * mu1
        a = spec.epsilon / scaled_centre if scaled_centre > 0.0 else math.inf
        if not 0.0 < a < math.inf:
            size, fault = ("small", "overflows") if a == math.inf else ("large", "underflows to 0")
            raise ValueError(f"mu1 = {mu1!r} is too {size} at c = {spec.c!r}: the truncation scale epsilon / (c^2 mu1) {fault}")
        alpha.append(a)
    return alpha


@np.errstate(over="ignore", invalid="ignore")  # an overflow shows in the leaf sums
def _truncated_mean_rows(read, n: int, mu1, alpha) -> list[float]:
    """Per row: the mean of mu1 + psi(alpha (x - mu1)) / alpha over the n
    draws x of the reader `read`, for a float mu1 and alpha per row.

    The draws are read leaf by leaf of their pairwise sum (_tree_sum), a
    leaf of about _BLOCK elements over all rows.  Each leaf's terms are
    evaluated on scratch of the leaf's size and summed while in cache, and
    the draws read are never written, so the memory beyond them is a few
    leaves whatever n is.  Each term is the value an unblocked evaluation
    gives, and the walk sums them in add.reduce's order, so the means are
    bit-identical to one reduce over the full rows.

    Where alpha (x - mu1) or its square overflows, the term is infinite and
    a leaf of +inf and -inf terms sums to NaN; psi's _repair_tails then
    replaces those terms in each row whose leaf sum is non-finite.  A sum
    that stays non-finite after the repair (n terms whose sum exceeds the
    largest float, or draws or a centre mu1 within a few orders of
    magnitude of it) raises a ValueError that names stage 2, n and the
    largest draw magnitude such a sum holds.
    """
    _check_stage_size("stage 2", n)
    mu1, alpha = np.array(mu1)[:, None], np.array(alpha)[:, None]

    def leaf(lo: int, hi: int) -> np.ndarray:
        draws = read(lo, hi)
        terms = draws - mu1
        _scaled_psi_into(terms, alpha)
        terms += mu1
        sums = np.add.reduce(terms, axis=1)
        for i, total in enumerate(sums.tolist()):
            if not math.isfinite(total):
                _repair_tails(terms[i], draws[i], alpha[i], mu1[i])
                sums[i] = np.add.reduce(terms[i])
        return sums

    means = []
    for total in _tree_sum(n, _BLOCK // len(mu1), leaf).tolist():
        if not math.isfinite(total):
            raise _overflow_error("stage 2", f"the sum of n = {n} terms", n)
        means.append(total / n)
    return means


def _two_stage_reduce(read1, read2, spec: ApproxSpec, plan: StagePlan):
    """(mu1, alpha, mu_hat), lists of one float per row of the plan's k*m
    stage-1 draws, read by read1, and its n stage-2 draws, read by read2.
    Each row gets exactly the arithmetic of a single run, so results do not
    depend on how runs are grouped into calls, nor on how a stage is split
    into reads.  The first row whose centre cannot start stage 2 raises at
    once, before any stage-2 draw is read.  Every two-stage estimate runs
    here: estimate_mean on one row, a coverage chunk on many.
    """
    # stage 1: the median of means / (1 - epsilon1^2); the correction turns a
    # bound on |estimate/mean - 1| into the one on |mean/estimate - 1| that
    # stage 2's truncation scale needs
    mu1 = [median / (1.0 - plan.epsilon1_sq) for median in _median_rows(read1, plan.k, plan.m, "stage 1").tolist()]
    alpha = _truncation_scales(mu1, spec)
    return mu1, alpha, _truncated_mean_rows(read2, plan.n, mu1, alpha)


def median_of_means(source, k: int, m: int) -> float:
    """Median of m group means, each over k consecutive draws (k*m draws).

    Groups are consecutive blocks in stream order, so the value is a pure
    function of the source's seed.  m must be odd: the median is the exact
    middle order statistic.  A group sum that overflows is a ValueError.
    """
    k = _integer("group size k", k, "[1, inf)")
    m = _integer("group count m", m, "[1, inf)")
    if m % 2 == 0:
        raise ValueError(f"group count m must be odd, got {m}")
    return float(_median_rows(_source_reader(source, "median of means"), k, m, "median of means")[0])


def stage2_estimate(source, mu1: float, spec: ApproxSpec) -> tuple[float, float]:
    """Average of the plan's n truncated draws, centred at mu1; returns
    (mu_hat, alpha).

    Each draw x contributes mu1 + psi(alpha (x - mu1)) / alpha with
    alpha = epsilon / (c^2 mu1).
    """
    mu1 = [_real("mu1", mu1, "(0, inf)")]
    alpha = _truncation_scales(mu1, spec)
    (mu_hat,) = _truncated_mean_rows(_source_reader(source, "stage 2"), build_plan(spec).n, mu1, alpha)
    return mu_hat, alpha[0]


def estimate_mean(source, spec: ApproxSpec, mode: Mode = Mode.STRICT) -> EstimateReport:
    """Run both stages on fresh draws from one stream and report the result.

    The source must provide iid draws through take(n); stage 2 never reuses
    stage-1 draws.  Every plan runs _two_stage_reduce, which takes each
    stage in takes of at most _BLOCK draws (one take for a stage that fits
    one) and reduces them as they arrive, so memory does not grow with the
    plan, and the sums are bit for bit those of one add.reduce over the
    whole stage.  Plans come from build_plan's cache.  When the
    source's mean is positive and its relative standard deviation is at
    most spec.c, the reported mu_hat satisfies
    P(|mu_hat - mean| > epsilon * mean) <= delta.
    """
    plan = build_plan(spec, mode)
    try:
        (mu1,), (alpha,), (mu_hat,) = _two_stage_reduce(
            _source_reader(source, "stage 1"), _source_reader(source, "stage 2"), spec, plan
        )
    except InsufficientSamplesError as exc:
        # a finite source runs out in one take; name the whole plan's need
        raise InsufficientSamplesError(f"{exc}; the plan takes {plan.total_samples} draws") from exc
    return EstimateReport(mu1=mu1, alpha=alpha, mu_hat=mu_hat, plan=plan)


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
        raise ValueError(f"the lower bound requires delta <= 1/sqrt(2*pi), got delta = {spec.delta!r}")
    big_l = math.log(1.0 / (math.sqrt(2.0 * math.pi) * spec.delta))
    if big_l <= 0.0:
        return 0.0
    bracket = big_l - math.log((2.0 * big_l + 1.0) / math.sqrt(2.0 * big_l))
    return 2.0 * spec.c * spec.c / (spec.epsilon * spec.epsilon) * max(bracket, 0.0)
