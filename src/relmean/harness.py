"""Monte Carlo certification of the accuracy guarantee.

A coverage run replays an estimator on many independent replicate streams
of one distribution and counts how often the estimate misses the target
window |estimate - mean| <= epsilon * mean, judged against the exact mean
from the source's facts.  Baseline estimators run on the same total draw
budget so sample-efficiency differences are visible at equal cost.

Replicates run in chunks of a few rows.  The plan is built once per run,
and so are the PCG64 seeds of all R replicate streams, in one vectorised
pass that matches numpy's SeedSequence bit for bit (sources.py states the
derivation).  Each replicate r keeps its own stream (seed, r), and fills
one row of a stage-1 matrix and one row of a stage-2 matrix with two
separate takes, as a single estimate_mean call would.  The estimator's
batched kernel then reduces every row at once (group means, median,
truncated average along the rows), with the same arithmetic per row as a
single run, so a coverage report is bit-identical to one
replicate-at-a-time loop.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from .estimator import ApproxSpec, Mode, _fill_rows, _median_rows, _two_stage_rows, build_plan
from .estimator import estimate_mean, median_of_means  # noqa: F401 - bench/tracing.py wraps them here
from .sources import SampleSource, _nonnegative_int, _replays, _replicate_seed_words

__all__ = [
    "EstimatorKind",
    "CoverageConfig",
    "CoverageReport",
    "CSV_HEADER",
    "run_coverage",
    "compare_estimators",
    "write_csv",
]


class EstimatorKind(enum.Enum):
    TWO_STAGE = "twostage"
    MEDIAN_OF_MEANS_ONLY = "mom"
    NAIVE_MEAN = "naive"


@dataclass(frozen=True)
class CoverageConfig:
    spec: ApproxSpec
    dist: object
    replications: int
    seed: int
    mode: Mode = Mode.STRICT
    estimator: EstimatorKind = EstimatorKind.TWO_STAGE

    def __post_init__(self) -> None:
        _nonnegative_int("replications", self.replications)
        if self.replications < 100:
            raise ValueError("coverage needs at least 100 replications")
        if self.replications >= 2**32:
            # replicate indices must fit one 32-bit spawn-key word
            raise ValueError(f"replications must be below 2**32, got {self.replications}")
        _nonnegative_int("seed", self.seed)
        if _replays(self.dist):
            raise ValueError(
                f"coverage needs independent replicate streams, but {self.dist.spec_string} "
                "replays one fixed sequence in every replicate"
            )


@dataclass(frozen=True)
class CoverageReport:
    """One coverage row; field order matches the CSV schema."""

    estimator: str
    distribution: str
    epsilon: float
    delta: float
    c: float
    mode: str
    R: int
    seed: int
    samples_per_run: int
    failures: int
    failure_rate: float
    binomial_3sigma: float
    mean_abs_rel_error: float


CSV_HEADER = (
    "estimator,distribution,epsilon,delta,c,mode,R,seed,samples_per_run,"
    "failures,failure_rate,binomial_3sigma,mean_abs_rel_error"
)


def _largest_odd_at_most(value: int) -> int:
    return value - 1 if value % 2 == 0 else value


def _mom_baseline_params(spec: ApproxSpec, budget: int) -> tuple[int, int]:
    """Group size and count for the median-of-means baseline at accuracy epsilon.

    Groups are sized for per-group failure 1/8; the group count spends as
    much of the budget as an odd multiple of the group size allows.
    """
    k = math.ceil(8.0 * spec.c * spec.c / (spec.epsilon * spec.epsilon))
    if budget < k:
        # budget smaller than one group: degrade to a plain mean of the budget
        return budget, 1
    return k, _largest_odd_at_most(budget // k)


# Replicate rows per chunk.  Smaller chunks pay the kernel's per-call cost
# more often; bigger ones run no faster and only hold more draws at once.
_CHUNK_ROWS = 8


def run_coverage(config: CoverageConfig) -> CoverageReport:
    """Replicate the configured estimator and tabulate its failure frequency.

    Failures are judged against the source's exact mean, never an estimate.
    Deterministic: replicate r always uses the stream (seed, replicate r).
    """
    spec = config.spec
    facts = config.dist.facts()
    if facts.c_bound > spec.c:
        raise ValueError(
            f"distribution c bound {facts.c_bound:.6g} exceeds spec c {spec.c:.6g}; "
            "the guarantee would be void"
        )
    plan = build_plan(spec, config.mode)
    budget = plan.total_samples
    kind = config.estimator
    if kind is EstimatorKind.TWO_STAGE:
        stages = (("stage 1", plan.samples_stage1), ("stage 2", plan.n))
        estimate = lambda stage1, stage2: _two_stage_rows(stage1, stage2, spec, plan)[2]
    elif kind is EstimatorKind.MEDIAN_OF_MEANS_ONLY:
        mom_k, mom_m = _mom_baseline_params(spec, budget)
        stages = (("median of means", mom_k * mom_m),)
        estimate = lambda draws: _median_rows(draws, mom_k, mom_m)
    else:
        stages = (("naive mean", budget),)
        estimate = lambda draws: draws.mean(axis=1)

    buffers = [(stage, np.empty((_CHUNK_ROWS, width))) for stage, width in stages]
    values = np.empty(config.replications)
    seed_words = _replicate_seed_words(config.seed, np.arange(config.replications))
    for start in range(0, config.replications, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, config.replications)
        sources = [SampleSource(config.dist, config.seed, r, seed_words[r]) for r in range(start, stop)]
        values[start:stop] = estimate(
            *(_fill_rows(buffer[: stop - start], sources, stage) for stage, buffer in buffers)
        )

    mu = facts.true_mean
    abs_rel_errors = np.abs(values - mu) / mu
    failures = int(np.count_nonzero(abs_rel_errors > spec.epsilon))
    return CoverageReport(
        estimator=kind.value,
        distribution=config.dist.spec_string,
        epsilon=spec.epsilon,
        delta=spec.delta,
        c=spec.c,
        mode=config.mode.value,
        R=config.replications,
        seed=config.seed,
        samples_per_run=budget,
        failures=failures,
        failure_rate=failures / config.replications,
        binomial_3sigma=3.0 * math.sqrt(spec.delta * (1.0 - spec.delta) / config.replications),
        mean_abs_rel_error=float(abs_rel_errors.mean()),
    )


def compare_estimators(
    spec: ApproxSpec,
    dist,
    replications: int,
    seed: int,
    mode: Mode = Mode.STRICT,
) -> list[CoverageReport]:
    """One coverage report per estimator, all at the two-stage draw budget."""
    return [
        run_coverage(CoverageConfig(spec, dist, replications, seed, mode, kind))
        for kind in EstimatorKind
    ]


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def write_csv(reports, path) -> None:
    """Emit coverage rows in the fixed schema; bit-stable for identical input.

    Floats carry 9 significant digits with `.` as the decimal separator;
    lines end with a bare newline.
    """
    rows = list(reports)
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for report in rows:
            writer.writerow([_format_value(getattr(report, f.name)) for f in fields(CoverageReport)])
