"""relmean benchmark: one closed-loop workload per run, end-to-end or traced.

    python3 bench/run.py --workload {coverage,estimate,linext} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root.  The library is imported from ./src.  A
run times whole passes of the workload's seeded operations for S seconds
(at least three passes), checks every output, prints a readable report
and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones in BENCHMARK.json; with
--trace 1 the run spends half the time untraced and half traced, and the
metrics are the per-layer ones.  Times are seconds at reference speed: the
host shares its cores, so each stretch of work is scaled by how long a
fixed calibration loop takes around it (see calibrate).  The exit code is 0
only when every check passed.  `--record-golden` rewrites bench/golden.json
from the current code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
TRACE_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7
CLI_REPEATS = 3
MIN_PASSES = 3
CAL_REF_S = 0.006  # the calibration loop's time at reference speed
CAL_SEED = 12345
SEGMENT_S = 0.1  # work between two calibrations

# Readable per-class figures: (name, operation class, quantile, scale, unit).
# Each quantile has at least ten samples beyond it at the run length in
# BENCHMARK.json.
CLASS_FIGURES = {
    "coverage": [],
    "estimate": [
        ("small_call_p50_ms", "small", 0.50, 1e3, "ms"),
        ("small_call_p99_ms", "small", 0.99, 1e3, "ms"),
        ("large_call_p50_ms", "large", 0.50, 1e3, "ms"),
        ("large_call_p90_ms", "large", 0.90, 1e3, "ms"),
    ],
    "linext": [
        ("count_p50_s", "count", 0.50, 1.0, "s"),
        ("count_p75_s", "count", 0.75, 1.0, "s"),
        ("recount_p50_ms", "recount", 0.50, 1e3, "ms"),
        ("recount_p90_ms", "recount", 0.90, 1e3, "ms"),
    ],
}


def calibrate() -> float:
    """Seconds one fixed loop of interpreter and numpy work takes right now.

    The host shares its cores, and identical work runs up to 1.6x slower
    for seconds at a time.  Timings are divided by this loop's time
    measured around them, which cancels the swings but not code changes.
    """
    rng = np.random.Generator(np.random.PCG64(CAL_SEED))
    start = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i
    np.log1p(rng.lognormal(0.0, 1.0, 100_000)).sum()
    return time.perf_counter() - start


def monotonic() -> float:
    """System-wide clock, comparable between a parent and its child process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_library():
    """Import relmean from this checkout's src/ and the benchmark's modules."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    import relmean

    found = Path(relmean.__file__).resolve().parent
    if found != SRC / "relmean":
        raise ImportError(f"relmean imported from {found}, not from {SRC}")
    import workloads

    return workloads


def quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until relmean is imported and
    the workload's inputs are built, once per repeat, at reference speed.

    The child calibrates itself after set-up, on the core it ran on."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = monotonic()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        done, speed = map(float, out.stdout.split()[-2:])
        times.append((done - start) * CAL_REF_S / speed)
    return times


class Passes:
    """Timed passes of one phase of a run.

    Operation times are kept raw and scaled to reference speed: each
    stretch of at least SEGMENT_S of work is bracketed by calibration loops
    and its operations are multiplied by CAL_REF_S over the mean of the two.
    """

    def __init__(self):
        self.times: list[float] = []  # scaled seconds per pass
        self.raw_times: list[float] = []
        self.draws = 0
        self.replicates = 0
        self.by_class: dict[str, list[float]] = {}  # scaled seconds per operation
        self.summaries: list[dict] = []
        self.indicators = 0

    def run(self, workload, checks, seconds: float, tracer_type=None) -> "Passes":
        deadline = time.perf_counter() + seconds
        while len(self.times) < MIN_PASSES or time.perf_counter() < deadline:
            ops = workload.next_pass()
            tracer = tracer_type() if tracer_type else None
            if tracer:
                tracer.install()
            scaled = raw = 0.0
            try:
                segment: list[tuple[str, float]] = []
                before = calibrate()
                for op in ops:
                    done = checks.run(op, tracer)
                    if done is not None:
                        segment.append((op.cls, done[0]))
                        self.draws += done[1]
                        self.replicates += op.replicates
                    if op is ops[-1] or sum(t for _, t in segment) >= SEGMENT_S:
                        after = calibrate()
                        factor = CAL_REF_S / ((before + after) / 2)
                        for cls, elapsed in segment:
                            self.by_class.setdefault(cls, []).append(elapsed * factor)
                            scaled += elapsed * factor
                            raw += elapsed
                        segment, before = [], after
            finally:
                if tracer:
                    tracer.uninstall()
            self.times.append(scaled)
            self.raw_times.append(raw)
            if tracer:
                if not self.summaries:
                    TRACE_DIR.mkdir(exist_ok=True)
                    tracer.write_csv(TRACE_DIR / f"trace-{workload.name}.csv")
                summary = tracer.summary()
                summary["factor"] = scaled / raw if raw else 1.0
                self.summaries.append(summary)
                self.indicators += tracer.indicators
        return self

    @property
    def wall_s(self) -> float:
        """Mean scaled pass time: steadier than the median over the few
        passes of a run, whose inputs differ from pass to pass."""
        return statistics.fmean(self.times)


def golden_pass(workload, checks, golden) -> None:
    """Warm-up pass at the golden seed; each output must match the recorded one."""
    for op, expected in zip(workload.golden, golden, strict=True):
        done = checks.run(op)
        if done is not None and workload.golden_value(done[2]) != expected:
            checks.fail(f"golden {op.cls}: {workload.golden_value(done[2])} != {expected}")


def cli_seconds(args, checks, expect) -> float:
    """Median wall time of a fresh `python -m relmean.cli` style call."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(CLI_REPEATS):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                             timeout=120, env=env, cwd=ROOT)
        times.append(time.perf_counter() - start)
        checks.attempted += 1
        try:
            ok = out.returncode == 0 and (expect is None or expect(json.loads(out.stdout)))
        except (ValueError, KeyError):
            ok = False
        if not ok:
            checks.fail(f"cli {args[1:3]}: exit {out.returncode} {out.stdout.strip()[:200]}")
    return statistics.median(times)


def cli_layer(checks) -> dict:
    from relmean import ApproxSpec, ParetoShape, SampleSource, estimate_mean, theorem1_total

    spec = ApproxSpec(0.1, 0.05, 1.0)
    pareto = ParetoShape(2.5)
    quick = ApproxSpec(0.1, 0.05, pareto.facts().c_bound)
    mu_hat = estimate_mean(SampleSource(pareto, 1), quick).mu_hat
    flags = ["--epsilon", "0.1", "--delta", "0.05"]
    return {
        "cli.import_s": (cli_seconds(["-c", "import relmean.cli"], checks, None), "s"),
        "cli.samplesize_call_s": (cli_seconds(
            ["-m", "relmean.cli", "samplesize", *flags, "--c", "1"], checks,
            lambda out: out["total"] == theorem1_total(spec) == 1454), "s"),
        "cli.estimate_call_s": (cli_seconds(
            ["-m", "relmean.cli", "estimate", *flags, "--c", repr(quick.c),
             "--dist", "pareto:2.5", "--seed", "1"], checks,
            lambda out: out["mu_hat"] == mu_hat), "s"),
    }


def layer_metrics(untraced: Passes, traced: Passes, checks) -> dict:
    """Per-layer figures, per traced pass, from the traced phase's spans."""
    passes = len(traced.summaries)
    spans: dict[str, dict] = {}
    totals = {"estimator_draws": 0, "take_ns_in_coverage": 0}
    for summary in traced.summaries:
        factor = summary["factor"]  # span times to reference speed, as for wall_s
        for name, entry in summary["spans"].items():
            agg = spans.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                agg[key] += value * factor if key.endswith("_ns") else value
        totals["estimator_draws"] += summary["estimator_draws"]
        totals["take_ns_in_coverage"] += summary["take_ns_in_coverage"] * factor
        if summary["draw_mismatches"]:
            checks.fail(f"{summary['draw_mismatches']} spans took other than their plan's draws")
        if summary["negative_self"]:
            checks.fail(f"{summary['negative_self']} spans outlast their parent")
    checks.attempted += passes

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def per_pass(value):
        return value / passes

    def self_s(name):
        return (per_pass(get(name, "self_ns")) / 1e9, "s")

    def calls(name):
        return (per_pass(get(name, "calls")), "count")

    def share(part, whole):
        return (part / whole if whole else 0.0, "ratio")

    psi_elements = get("psi.scaled_psi", "count")
    take_draws = get("sources.take", "count")
    metrics = {
        "psi.scaled_psi.calls": calls("psi.scaled_psi"),
        "psi.scaled_psi.elements": (per_pass(psi_elements), "count"),
        "psi.scaled_psi.self_s": self_s("psi.scaled_psi"),
        "psi.scaled_psi.ns_per_element": (
            get("psi.scaled_psi", "self_ns") / psi_elements if psi_elements else 0.0, "ns"),
        "estimator.build_plan.calls": calls("estimator.build_plan"),
        "estimator.build_plan.self_s": self_s("estimator.build_plan"),
        "estimator.estimate_mean.self_s": self_s("estimator.estimate_mean"),
        "estimator.median_of_means.self_s": self_s("estimator.median_of_means"),
        "estimator.stage2_estimate.self_s": self_s("estimator.stage2_estimate"),
        "estimator.draws": (per_pass(totals["estimator_draws"]), "count"),
        "sources.setup.calls": calls("sources.setup"),
        "sources.setup.self_s": self_s("sources.setup"),
        "sources.take.calls": calls("sources.take"),
        "sources.take.self_s": self_s("sources.take"),
        "sources.draws": (per_pass(take_draws), "count"),
        "sources.draws_per_s": (
            take_draws / (get("sources.take", "self_ns") / 1e9) if take_draws else 0.0, "1/s"),
        "harness.run_coverage.self_s": self_s("harness.run_coverage"),
        "harness.run_coverage.total_s": (per_pass(get("harness.run_coverage", "total_ns")) / 1e9, "s"),
        "harness.replicates": (per_pass(get("harness.run_coverage", "count")), "count"),
        "harness.draw_share": share(totals["take_ns_in_coverage"], get("harness.run_coverage", "total_ns")),
        "counting.linext_approx_count.total_s": (
            per_pass(get("counting.linext_approx_count", "total_ns")) / 1e9, "s"),
        "counting.linext_chain.calls": calls("counting.linext_chain"),
        "counting.linext_chain.self_s": self_s("counting.linext_chain"),
        "counting.chain_share": share(
            get("counting.linext_chain", "total_ns"), get("counting.linext_approx_count", "total_ns")),
        "counting.product_take.calls": calls("counting.product_take"),
        "counting.product_take.self_s": self_s("counting.product_take"),
        "counting.indicators": (per_pass(traced.indicators), "count"),
        "counting.linext_count_exact.self_s": self_s("counting.linext_count_exact"),
    }
    metrics.update(cli_layer(checks))
    metrics["trace.overhead_frac"] = (traced.wall_s / untraced.wall_s, "ratio")
    # The spans' self times must account for the traced wall_s, which is
    # trace.overhead_frac times the untraced one; the exact-DP spans belong
    # to the output checks, outside the timed operations.
    op_self_s = per_pass(sum(e["self_ns"] for e in spans.values())
                         - get("counting.linext_count_exact", "self_ns")) / 1e9
    covered = op_self_s / traced.wall_s
    checks.attempted += 1
    if not 0.95 <= covered <= 1.001:
        checks.fail(f"span self times cover {covered:.3f} of the traced wall_s")
    print(f"  span self times per pass {op_self_s:.4f} s = {covered:.4f} x traced wall_s "
          f"= {op_self_s / untraced.wall_s:.3f} x untraced wall_s "
          f"(trace.overhead_frac {metrics['trace.overhead_frac'][0]:.3f})")
    return metrics


def report_line(name, value, unit, note="") -> None:
    print(f"  {name:<28} {value:>14.6g} {unit:<6} {note}")


def run(args) -> int:
    workloads = import_library()
    checks = workloads.Checks()
    golden = json.loads(GOLDEN.read_text())[args.workload]

    setup_times = measure_setup(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    golden_pass(workload, checks, golden)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    if args.trace:
        untraced = Passes().run(workload, checks, args.seconds / 2)
        from tracing import Tracer

        traced = Passes().run(workload, checks, args.seconds / 2, Tracer)
        metrics = layer_metrics(untraced, traced, checks)
        for name, (value, unit) in metrics.items():
            report_line(name, value, unit)
    else:
        timed = Passes().run(workload, checks, args.seconds)
        total_time = sum(timed.times)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (timed.wall_s, "s"),
            "draws_per_s": (timed.draws / total_time, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        notes = {
            "setup_s": f"median of {len(setup_times)} fresh processes",
            "wall_s": f"mean of {len(timed.times)} passes; unscaled {statistics.fmean(timed.raw_times):.4f} s",
            "draws_per_s": f"{timed.draws} draws in {total_time:.3f} s",
            "peak_rss_mb": "this process",
        }
        for name, (value, unit) in metrics.items():
            report_line(name, value, unit, notes[name])
        if args.workload == "coverage":
            report_line("replicates_per_s", timed.replicates / total_time, "1/s",
                        f"{timed.replicates} replicates")
        for name, cls, q, scale, unit in CLASS_FIGURES[args.workload]:
            samples = timed.by_class.get(cls, [])
            value = quantile(samples, q) * scale if samples else float("nan")
            report_line(name, value, unit, f"n={len(samples)}")
    report_line("error_rate", checks.failed / max(1, checks.attempted), "ratio",
                f"{checks.failed} of {checks.attempted} operations failed")
    for group, delta, n, k, p in checks.statistical():
        print(f"  misses {group} delta={delta:g}: {k}/{n}, exact P(X>={k}) = {p:.3g}")
    for message in checks.messages:
        print(f"  FAILED {message}")

    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if checks.correct else 1


def record_golden() -> int:
    workloads = import_library()
    golden = {}
    for name, workload_type in workloads.WORKLOADS.items():
        workload = workload_type(0)
        golden[name] = [workload.golden_value(op.call()) for op in workload.golden]
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["coverage", "estimate", "linext"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.record_golden:
            return record_golden()
        if args.workload is None:
            parser.error("--workload is required")
        if args.setup_only:
            workloads = import_library()
            workloads.WORKLOADS[args.workload](args.seed)
            done = monotonic()
            print(done, min(calibrate() for _ in range(3)))
            return 0
        return run(args)
    except (ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
