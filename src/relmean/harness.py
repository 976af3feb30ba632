"""Monte Carlo certification of the accuracy guarantee.

A coverage run replays an estimator on many independent replicate streams
of one distribution and counts how often the estimate misses the target
window |estimate - mean| <= epsilon * mean, judged against the exact mean
from the source's facts.  Baseline estimators run on the same total draw
budget so sample-efficiency differences are visible at equal cost.

Replicates run in chunks sized by draws: up to 32 rows of at most
_CHUNK_DRAWS = 2**16 draws in all, but at least one row, so a budget
above that gets chunks of one row.  The plan is built once per run, and
so are the PCG64 seeds of all R replicate streams, in one vectorised pass
that matches numpy's SeedSequence bit for bit (sources.py states the
derivation).  Replicate r keeps its own stream (seed, r).  Each chunk's
rows are drawn once, one take of each replicate's whole budget, its k*m
stage-1 draws then its n stage-2 draws, into one rows x budget matrix (a
one-row chunk is its take, uncopied), through the take-contract gate
_fill_rows, which names a non-finite draw by the stage of its column; a
SampleSource's takes concatenate, so these are the draws estimate_mean
makes in its bounded takes.  Each estimator then reduces its own prefix
of those rows, read by column views: the two-stage through
_two_stage_reduce, the kernel estimate_mean runs on its source (or, for
a plan whose stages each fit one take, its one-block form, bit for bit
alike), with the arithmetic of a single run, so a coverage report is
bit-identical to one replicate-at-a-time loop.  The kernels raise at
their first fault; a chunk that raises runs again one replicate at a
time, so the error is that of its first failing replicate, as in such a
loop, or the chunk's own if each replicate runs clean alone.
run_coverage certifies the two-stage estimator; the baselines are rows
of compare_estimators, which reads each replicate's draws once and opens
R streams, not one per estimator.

A run splits its replicates into contiguous slices of whole chunks, one
per worker.  The first slice runs in the calling process and each other
one in a child made with os.fork, which writes its slice of the
estimates into memory shared with the parent; where a child runs is left
to the operating system.  compare_estimators makes one such round for
all three estimators: each slice draws each chunk once and runs them all
on it, into an R x 3 array of estimates.  The worker count is worked
out, never set: min(usable CPUs, R * budget // _MIN_SLICE_DRAWS), with
the two-stage draw budget, and 1 where os.fork is missing or another
Python thread runs.  Estimates are placed by replicate index.  A slice
stops at its first error, as the serial run does.  The parent waits for
the slices in replicate order, and runs a slice whose child failed, or
was killed, again itself: every slice before it ran clean, so the rerun
raises the serial run's own exception, type, message and traceback, and
the slices still running are killed.  A child killed for want of memory
is so retried once in the parent, as the serial run would have run its
slice.  Reports and errors thus do not depend on the worker count.
The gain was measured on Linux only.  Python 3.12 and later warn
(DeprecationWarning) on fork() in a process with more than one OS thread,
and numpy's BLAS may hold such a thread; the test suite turns relmean's
DeprecationWarnings into errors, but has not run on those versions, for
want of numpy there.
"""

from __future__ import annotations

import csv
import enum
import math
import mmap
import os
import signal
import threading
from dataclasses import dataclass, fields

import numpy as np

from .estimator import ApproxSpec, Mode, _column_reader, _fill_rows, _median_rows, _overflow_error, _two_stage_reduce, build_plan
from .estimator import estimate_mean, median_of_means  # noqa: F401 - bench/tracing.py wraps them here
from .sources import SampleSource, _integer, _replays, _replicate_seed_words

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
    """One coverage run, checked whole on construction: counts become ints,
    mode its enum (its string value is accepted), and the distribution's c
    bound must fit the spec."""

    spec: ApproxSpec
    dist: object
    replications: int
    seed: int
    mode: Mode = Mode.STRICT

    def __post_init__(self) -> None:
        replications = _integer("replications", self.replications)
        if replications < 100:
            raise ValueError("coverage needs at least 100 replications")
        if replications >= 2**32:
            # replicate indices must fit one 32-bit spawn-key word
            raise ValueError(f"replications must be below 2**32, got {replications}")
        object.__setattr__(self, "replications", replications)
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        if _replays(self.dist):
            raise ValueError(
                f"coverage needs independent replicate streams, but {self.dist.spec_string} "
                "replays one fixed sequence in every replicate"
            )
        object.__setattr__(self, "mode", Mode(self.mode))
        c_bound = self.dist.facts().c_bound
        if c_bound > self.spec.c:
            raise ValueError(
                f"distribution c bound {c_bound:.6g} exceeds spec c {self.spec.c:.6g}; "
                "the guarantee would be void"
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


CSV_HEADER = ",".join(f.name for f in fields(CoverageReport))


def _largest_odd_at_most(value: int) -> int:
    return value - 1 if value % 2 == 0 else value


def _mom_baseline_params(spec: ApproxSpec, budget: int) -> tuple[int, int]:
    """Group size and count for the median-of-means baseline at accuracy epsilon.

    Groups are sized for per-group failure 1/8; the group count spends as
    much of the budget as an odd multiple of the group size allows.
    """
    k = 8.0 * spec.c * spec.c / (spec.epsilon * spec.epsilon)  # may overflow to inf
    if budget < k:
        # budget smaller than one group: degrade to a plain mean of the budget
        return budget, 1
    k = math.ceil(k)
    return k, _largest_odd_at_most(budget // k)


# Draws per chunk, and the most replicate rows one holds (_chunk_rows).  A
# chunk pays the kernels' per-call costs once for all its rows.  On a 2-vCPU
# Xeon, a pass of six coverage runs at R = 1000 (208 to 2764 draws per
# replicate, two workers) took a median 223 ms at 8 rows a chunk, 198 ms at
# 32 and 199 ms at 64, over 15 interleaved passes each; at most 32 rows in
# chunks of at most 2**14, 2**16 or 2**18 draws took 206, 202 and 197 ms.
# 2**16 draws are 512 KB, and a larger budget gets chunks of one row.
_CHUNK_DRAWS = 2**16
_MAX_CHUNK_ROWS = 32
# Fewest draws for which one more process pays for its fork.  On a 2-vCPU
# Xeon, over 30 interleaved pairs of runs of one size on normal draws (the
# cheapest per draw), two workers lost every pair from 75k to 150k draws
# per run, at 1.99-2.55x one worker's time, with each child started on its
# parent's CPU; they won 10/30 at 300k and 28/30 at 600k.  In the coverage
# benchmark's mix of runs, 208k to 2.76M draws each, two workers beat one
# on every run (4-42% faster), and a threshold of 300k slowed its passes
# by 6%; so 75k, two workers from 150k, stays.
# A child on its parent's CPU is the cpuset's doing, not the threshold's:
# where cpuset.sched_load_balance = 0, as on that Xeon, the kernel never
# moves a task between CPUs, so a fork often starts and stays where its
# parent runs.  There standalone forks shared the parent's CPU 20/20 in
# some runs and 0/20 in another, but only 9/162 and 4/186 children of the
# coverage benchmark did, and two workers ran its passes in 0.169-0.176 s
# against one worker's 0.265-0.278 s.  Pinning each child to another CPU
# lost 4 of 5 15 s coverage pairs to this unpinned runner, so no child is
# placed.
_MIN_SLICE_DRAWS = 75_000


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(replications: int, budget: int) -> int:
    """Processes for `replications` runs of `budget` draws: one per usable
    CPU, but only as many as have _MIN_SLICE_DRAWS draws each.  One where
    os.fork is missing, or where another thread runs: a forked child holds
    only the forking thread, and the locks the others held stay locked."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(_usable_cpus(), replications * budget // _MIN_SLICE_DRAWS))


def _chunk_rows(budget: int) -> int:
    """Replicate rows per chunk at `budget` draws per replicate: as many as
    hold _CHUNK_DRAWS draws, at least 1 and at most _MAX_CHUNK_ROWS."""
    return min(_MAX_CHUNK_ROWS, max(1, _CHUNK_DRAWS // budget))


def _slice_bounds(replications: int, workers: int, rows: int) -> list[int]:
    """Bounds of up to `workers` contiguous replicate slices with near-equal
    counts of `rows`-row chunks.  Each slice starts on a chunk boundary, so
    its chunks are those of the serial run."""
    chunks = -(-replications // rows)
    workers = min(workers, chunks)
    return [min(replications, rows * (chunks * i // workers)) for i in range(workers + 1)]


def _shared_empty(shape) -> np.ndarray:
    """An uninitialised float array in anonymous shared memory: what a
    child forked after this call writes into it, this process reads."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), float).reshape(shape)


def _run_slices(fill, bounds: list[int]) -> None:
    """Run fill(lo, hi), which writes its replicates' estimates into
    shared memory and raises at its first error, over each slice
    [bounds[i], bounds[i + 1]).

    The first slice runs in this process and each other one in a child
    forked for it, all before this process's own slice starts.  A child
    leaves through os._exit, so it runs no exit handler and flushes no
    buffer it shares with this process; its exit code is 0 once fill
    returns, 1 if fill raised.  Side effects of a child's fill, on the
    distribution object for one, stay in the child.  The children are
    waited for in replicate order, after this process's own slice.  A
    slice whose child failed, or was killed, runs again here: slices are
    deterministic and every slice before it ran clean, so the rerun raises
    the serial run's error, its own object with its traceback, or fills the
    slice as the serial run would.  Every child is reaped before this
    returns or raises; on a raise, Ctrl-C included, the children still
    running are killed first.
    """
    children = []  # (pid, lo, hi), in slice order, not yet reaped
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    fill(lo, hi)
                    code = 0
                finally:
                    os._exit(code)
            children.append((pid, lo, hi))
        fill(bounds[0], bounds[1])
        while children:
            pid, lo, hi = children[0]
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            if os.waitstatus_to_exitcode(status) != 0:
                fill(lo, hi)
    finally:
        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _estimator(kind: EstimatorKind, spec: ApproxSpec, plan):
    """The reducer of `kind` at the plan's draw budget: a function from a
    matrix of two-stage rows (each replicate's k*m stage-1 draws, then its
    n stage-2 draws) to one estimate per row.  The baselines read a prefix
    of the rows."""
    if kind is EstimatorKind.TWO_STAGE:
        k_m = plan.samples_stage1
        return lambda rows: _two_stage_reduce(
            _column_reader(rows[:, :k_m]), _column_reader(rows[:, k_m:]), spec, plan
        )[2]
    budget = plan.total_samples
    if kind is EstimatorKind.MEDIAN_OF_MEANS_ONLY:
        mom_k, mom_m = _mom_baseline_params(spec, budget)
        reduce = lambda rows: _median_rows(_column_reader(rows), mom_k, mom_m, "median of means")
    else:
        def reduce(rows):
            # the draws are finite, so only a sum that overflowed gives a
            # mean that is not
            means = rows.mean(axis=1)
            if not np.isfinite(means).all():
                raise _overflow_error("plain mean", f"the sum of {budget} draws", budget)
            return means

    return np.errstate(over="ignore", invalid="ignore")(reduce)


def _coverage(config: CoverageConfig, kinds) -> list[CoverageReport]:
    """One report per estimator kind in `kinds`, from one plan, one pass of
    replicate seeds and one round of slices.  Each chunk of replicates is
    drawn once, one take of k*m + n draws per replicate, and every kind
    reduces those rows into its column j of an R x len(kinds) array in
    shared memory.  fill raises at its slice's first failing replicate: a
    chunk that raises is filled again one replicate at a time, and the
    first replicate that fails alone raises its own error; if none does,
    the chunk's error is raised."""
    spec = config.spec
    plan = build_plan(spec, config.mode)
    reducers = [_estimator(kind, spec, plan) for kind in kinds]
    budget = plan.total_samples
    chunk = _chunk_rows(budget)
    replications = config.replications
    values = _shared_empty((replications, len(kinds)))
    seed_words = _replicate_seed_words(config.seed, np.arange(replications))

    def fill_chunk(start: int, stop: int) -> None:
        sources = [SampleSource(config.dist, config.seed, r, seed_words[r]) for r in range(start, stop)]
        rows = _fill_rows(sources, budget, "stages 1 and 2", stage2_from=plan.samples_stage1)
        for j, reduce in enumerate(reducers):
            values[start:stop, j] = reduce(rows)

    def fill(lo: int, hi: int) -> None:
        for start in range(lo, hi, chunk):
            stop = min(start + chunk, hi)
            try:
                fill_chunk(start, stop)
                continue
            except Exception as exc:
                error = exc
            for r in range(start, stop):
                fill_chunk(r, r + 1)
            raise error

    workers = _worker_count(replications, budget)
    _run_slices(fill, _slice_bounds(replications, workers, chunk))

    mu = config.dist.facts().true_mean
    reports = []
    for j, kind in enumerate(kinds):
        abs_rel_errors = np.abs(values[:, j] - mu) / mu
        failures = int(np.count_nonzero(abs_rel_errors > spec.epsilon))
        reports.append(
            CoverageReport(
                estimator=kind.value,
                distribution=config.dist.spec_string,
                epsilon=spec.epsilon,
                delta=spec.delta,
                c=spec.c,
                mode=config.mode.value,
                R=replications,
                seed=config.seed,
                samples_per_run=budget,
                failures=failures,
                failure_rate=failures / replications,
                binomial_3sigma=3.0 * math.sqrt(spec.delta * (1.0 - spec.delta) / replications),
                mean_abs_rel_error=float(abs_rel_errors.mean()),
            )
        )
    return reports


def run_coverage(config: CoverageConfig) -> CoverageReport:
    """Replicate the two-stage estimator and tabulate its failure frequency.

    Failures are judged against the source's exact mean, never an estimate.
    Deterministic: replicate r always uses the stream (seed, replicate r).
    The config checked every argument when it was built, so the only errors
    left are those of the draws themselves.
    """
    return _coverage(config, [EstimatorKind.TWO_STAGE])[0]


def compare_estimators(
    spec: ApproxSpec,
    dist,
    replications: int,
    seed: int,
    mode: Mode = Mode.STRICT,
) -> list[CoverageReport]:
    """One coverage report per estimator, all at the two-stage draw budget.

    Each replicate's draws are made once, by the two-stage takes, and every
    estimator reads its prefix of them; the two-stage row equals
    run_coverage's report.
    """
    return _coverage(CoverageConfig(spec, dist, replications, seed, mode), list(EstimatorKind))


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
