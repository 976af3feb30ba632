"""Monte Carlo certification of the accuracy guarantee.

A coverage run replays an estimator on many independent replicate streams
of one distribution and counts how often the estimate misses the target
window |estimate - mean| <= epsilon * mean, judged against the exact mean
from the source's facts.  Baseline estimators run on the same total draw
budget so sample-efficiency differences are visible at equal cost.

Replicates run in chunks of a few rows.  The plan is built once per run,
and so are the PCG64 seeds of all R replicate streams, in one vectorised
pass that matches numpy's SeedSequence bit for bit (sources.py states the
derivation).  Replicate r keeps its own stream (seed, r).  Each chunk's
rows are drawn once, through the take-contract gate _fill_rows, with the
takes of the estimator that reads the most draws: for the two-stage, a
take of k*m draws ("stage 1") and one of n ("stage 2"), written side by
side into one rows x budget matrix.  Each estimator then reduces its own
prefix of those rows: the two-stage through _two_stage_reduce, the kernel
estimate_mean runs on its own two takes, with the arithmetic of a single
run, so a coverage report is bit-identical to one replicate-at-a-time
loop.  A comparison thus reads each replicate's draws once and opens R
streams, not one per estimator; the baselines read a prefix of the
two-stage draws.  Its report for an estimator equals run_coverage's for
that estimator only if the distribution's sample splits freely (sample(rng,
a) then sample(rng, b) gives the draws of sample(rng, a + b)), as every
built-in distribution's does; run_coverage makes its own estimator's
takes, whatever the distribution.

A run splits its replicates into contiguous slices of whole chunks, one
per worker.  The first slice runs in the calling process and each other
one in a child made with os.fork, which pickles its slice of the
estimates, or the error that stopped it, back through a pipe.  The parent
binds each child to a CPU other than its own, where Linux names them,
right after the fork, so the child need not first wait for the parent's
timeslice.
compare_estimators makes one such round for all three estimators: each
slice draws each chunk once and runs them all on it, into an R x 3 array
of estimates.  The worker count is worked out, never set: min(usable
CPUs, R * draws per replicate // _MIN_SLICE_DRAWS), with the draws the run
makes, and 1 where os.fork is missing or another Python thread runs.
Estimates are placed by replicate index.  A slice stops at its first
error, as the serial run does, and the slices are read in replicate
order, so the first failing slice's error is the serial run's: it is
raised as soon as it is read, and the slices still running are killed.
Reports and errors thus do not depend on the worker count.
The gain was measured on Linux only.  Python 3.12 and later warn
(DeprecationWarning) on fork() in a process with more than one OS thread,
and numpy's BLAS may hold such a thread; not verified, for want of numpy
on those versions.
"""

from __future__ import annotations

import csv
import enum
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass, fields

import numpy as np

from .estimator import ApproxSpec, Mode, _fill_rows, _median_rows, _two_stage_reduce, build_plan
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
    mode and estimator their enums (their string values are accepted), and
    the distribution's c bound must fit the spec."""

    spec: ApproxSpec
    dist: object
    replications: int
    seed: int
    mode: Mode = Mode.STRICT
    estimator: EstimatorKind = EstimatorKind.TWO_STAGE

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
        object.__setattr__(self, "estimator", EstimatorKind(self.estimator))
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


# Replicate rows per chunk.  Smaller chunks pay the kernel's per-call cost
# more often; bigger ones run no faster and only hold more draws at once.
_CHUNK_ROWS = 8
# Fewest draws for which one more process pays for its fork and its result
# pipe.  On a 2-vCPU Xeon, with the parent placing each child, two workers
# tied with one at 100k draws per run and won from 125k on (normal draws,
# the cheapest per draw); 75k, two workers from 150k, keeps a margin.
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


def _slice_bounds(replications: int, workers: int) -> list[int]:
    """Bounds of up to `workers` contiguous replicate slices with near-equal
    chunk counts.  Each slice starts on a chunk boundary, so its chunks are
    those of the serial run."""
    chunks = -(-replications // _CHUNK_ROWS)
    workers = min(workers, chunks)
    return [min(replications, _CHUNK_ROWS * (chunks * i // workers)) for i in range(workers + 1)]


def _other_cpus() -> list[int]:
    """The usable CPUs other than the one this process last ran on, where
    Linux tells both (/proc/self/stat field 39); else none."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            here = int(stat.read().rsplit(b")", 1)[1].split()[36])
        return sorted(os.sched_getaffinity(0) - {here})
    except (OSError, AttributeError, IndexError, ValueError):
        return []


def _portable(exc: BaseException, lo: int, hi: int) -> BaseException:
    """exc if it survives a pickle round trip, else a RuntimeError naming
    its slice, type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - any exception may fail to pickle
        return RuntimeError(f"coverage replicates {lo}..{hi - 1}: {type(exc).__name__}: {exc}")
    return exc


def _fork_slice(values: np.ndarray, fill, lo: int, hi: int, cpu: int | None):
    """Start a child that runs fill(lo, hi) and pickles values[lo:hi], or
    the exception fill raised, into a pipe.  Returns (pid, the pipe's read
    end, lo, hi).  This process binds the child to `cpu`, if one is given,
    right after the fork: a new child starts on its parent's CPU and waits
    there for the parent's timeslice, so a call of its own would come late.
    The child leaves through os._exit, so it runs no exit handler and
    flushes no buffer it shares with this process; its exit code is 0 only
    once the whole result is written."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                fill(lo, hi)
                result = values[lo:hi]
            except BaseException as exc:  # noqa: BLE001 - re-raised by the parent
                result = _portable(exc, lo, hi)
            with open(write_fd, "wb") as pipe:
                pickle.dump(result, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    if cpu is not None:
        try:
            os.sched_setaffinity(pid, {cpu})
        except OSError:
            pass  # placement only: the slice runs wherever it is
    return pid, open(read_fd, "rb"), lo, hi


def _run_slices(values: np.ndarray, fill, bounds: list[int]) -> None:
    """Run fill(lo, hi), which writes values[lo:hi] and raises at its first
    error, over each slice [bounds[i], bounds[i + 1]).

    The first slice runs in this process and each other one in a forked
    child.  Results come back through a pipe, not a shared mmap: an
    exception needs a channel anyway, and a slice's values are 8 bytes per
    replicate and estimator.  Side effects of a child's fill, on the
    distribution object for one, stay in the child.  The slices are read
    in replicate order, this process's own first, and the first error met
    is raised at once: that slice's first error, which is the serial
    run's, since the slices before it ran clean.  A child that dies
    without a result is a RuntimeError naming its slice.  Every child is
    reaped before this returns or raises; on a raise, Ctrl-C included, the
    children still running are killed first.
    """
    children = []  # (pid, pipe, lo, hi), in slice order, not yet reaped
    cpus = _other_cpus() if len(bounds) > 2 else []
    try:
        for i, (lo, hi) in enumerate(zip(bounds[1:-1], bounds[2:])):
            children.append(_fork_slice(values, fill, lo, hi, cpus[i % len(cpus)] if cpus else None))
        fill(bounds[0], bounds[1])
        while children:
            pid, pipe, lo, hi = children[0]
            payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            pipe.close()
            if code != 0:
                raise RuntimeError(
                    f"coverage worker for replicates {lo}..{hi - 1} died without a result (exit code {code})"
                )
            result = pickle.loads(payload)  # written by this program's own child
            if isinstance(result, BaseException):
                raise result
            values[lo:hi] = result
    finally:
        for pid, pipe, _, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _estimator(kind: EstimatorKind, spec: ApproxSpec, plan):
    """(takes, reduce) of `kind` at the plan's draw budget: the (width,
    stage) takes that make each replicate's draws, in stream order, and a
    function from a matrix whose rows start with those draws to one
    estimate per row.  reduce reads only its own columns, so the kinds can
    share the rows of the kind that takes the most."""
    budget = plan.total_samples
    if kind is EstimatorKind.TWO_STAGE:
        k_m = plan.samples_stage1
        takes = ((k_m, "stage 1"), (plan.n, "stage 2"))
        return takes, lambda rows: _two_stage_reduce(rows[:, :k_m], rows[:, k_m:budget], spec, plan)[2]
    if kind is EstimatorKind.MEDIAN_OF_MEANS_ONLY:
        mom_k, mom_m = _mom_baseline_params(spec, budget)
        width = mom_k * mom_m
        return ((width, "median of means"),), lambda rows: _median_rows(rows[:, :width], mom_k, mom_m)
    return ((budget, "naive mean"),), lambda rows: rows[:, :budget].mean(axis=1)


def _coverage(config: CoverageConfig, kinds) -> list[CoverageReport]:
    """One report per estimator kind in `kinds` (config.estimator is not
    read), from one plan, one pass of replicate seeds and one round of
    slices.  Each chunk of replicates is drawn once, with the takes of the
    first kind that takes the most draws, and every kind reduces those rows
    into its column j of an R x len(kinds) array.  fill raises at its
    slice's first error, the one a serial run over the slice would raise:
    a chunk's takes come before its reductions, and the kinds reduce in
    order."""
    spec = config.spec
    plan = build_plan(spec, config.mode)
    estimators = [_estimator(kind, spec, plan) for kind in kinds]
    takes = max((takes for takes, _ in estimators), key=lambda takes: sum(take for take, _ in takes))
    width = sum(take for take, _ in takes)
    replications = config.replications
    values = np.empty((replications, len(kinds)))
    seed_words = _replicate_seed_words(config.seed, np.arange(replications))

    def fill(lo: int, hi: int) -> None:
        for start in range(lo, hi, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, hi)
            rows = np.empty((stop - start, width))
            sources = [SampleSource(config.dist, config.seed, r, seed_words[r]) for r in range(start, stop)]
            column = 0
            for take, stage in takes:
                _fill_rows(sources, take, stage, rows[:, column : column + take])
                column += take
            for j, (_, reduce) in enumerate(estimators):
                values[start:stop, j] = reduce(rows)

    workers = _worker_count(replications, width)
    _run_slices(values, fill, _slice_bounds(replications, workers))

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
                samples_per_run=plan.total_samples,
                failures=failures,
                failure_rate=failures / replications,
                binomial_3sigma=3.0 * math.sqrt(spec.delta * (1.0 - spec.delta) / replications),
                mean_abs_rel_error=float(abs_rel_errors.mean()),
            )
        )
    return reports


def run_coverage(config: CoverageConfig) -> CoverageReport:
    """Replicate the configured estimator and tabulate its failure frequency.

    Failures are judged against the source's exact mean, never an estimate.
    Deterministic: replicate r always uses the stream (seed, replicate r).
    The config checked every argument when it was built, so the only errors
    left are those of the draws themselves.
    """
    return _coverage(config, [config.estimator])[0]


def compare_estimators(
    spec: ApproxSpec,
    dist,
    replications: int,
    seed: int,
    mode: Mode = Mode.STRICT,
) -> list[CoverageReport]:
    """One coverage report per estimator, all at the two-stage draw budget.

    Each replicate's draws are made once, by the two-stage takes, and every
    estimator reads its prefix of them.  Each report equals the
    run_coverage report of its kind when the distribution's sample splits
    freely (sample(rng, a) then sample(rng, b) gives the draws of
    sample(rng, a + b)), as every built-in distribution's does.
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
