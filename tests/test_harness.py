"""Coverage-harness behaviour and the CSV report contract."""

from __future__ import annotations

import csv
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relmean import (
    ApproxSpec,
    Constant,
    CoverageConfig,
    CoverageReport,
    EstimatorKind,
    LogNormal,
    Mode,
    Normal,
    ParetoShape,
    Recorded,
    Scaled,
    SourceContractError,
    build_plan,
    compare_estimators,
    run_coverage,
    theorem1_total,
    write_csv,
)
from relmean.harness import CSV_HEADER

import oracles

SPEC = ApproxSpec(0.2, 0.1, 0.5)
DIST = Normal(100.0, 50.0)
# the header README "File formats" documents; CSV_HEADER derives from CoverageReport
DOCUMENTED_HEADER = (
    "estimator,distribution,epsilon,delta,c,mode,R,seed,samples_per_run,"
    "failures,failure_rate,binomial_3sigma,mean_abs_rel_error"
)


def _parse_csv(path):
    """Independent reader for the report schema."""
    with open(path, "r", encoding="ascii", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == DOCUMENTED_HEADER.split(",")
    parsed = []
    for row in rows[1:]:
        values = dict(zip(rows[0], row))
        parsed.append(
            CoverageReport(
                estimator=values["estimator"],
                distribution=values["distribution"],
                epsilon=float(values["epsilon"]),
                delta=float(values["delta"]),
                c=float(values["c"]),
                mode=values["mode"],
                R=int(values["R"]),
                seed=int(values["seed"]),
                samples_per_run=int(values["samples_per_run"]),
                failures=int(values["failures"]),
                failure_rate=float(values["failure_rate"]),
                binomial_3sigma=float(values["binomial_3sigma"]),
                mean_abs_rel_error=float(values["mean_abs_rel_error"]),
            )
        )
    return parsed


def test_constant_source_never_fails():
    config = CoverageConfig(ApproxSpec(0.1, 0.05, 1.0), Constant(5.0), 100, seed=0)
    report = run_coverage(config)
    assert report.failures == 0
    assert report.failure_rate == 0.0
    assert report.mean_abs_rel_error <= 0.1


def test_coverage_is_deterministic():
    config = CoverageConfig(SPEC, DIST, 200, seed=42)
    assert run_coverage(config) == run_coverage(config)


def test_coverage_within_guarantee():
    report = run_coverage(CoverageConfig(SPEC, DIST, 1000, seed=7))
    assert report.failure_rate <= SPEC.delta + report.binomial_3sigma
    assert math.isclose(report.binomial_3sigma, 3.0 * math.sqrt(0.1 * 0.9 / 1000), rel_tol=1e-12)


def test_coverage_rejects_void_guarantee():
    with pytest.raises(ValueError):
        run_coverage(CoverageConfig(ApproxSpec(0.2, 0.1, 0.4), DIST, 100, seed=0))


def test_coverage_rejects_too_few_replications():
    with pytest.raises(ValueError):
        CoverageConfig(SPEC, DIST, 99, seed=0)


def test_coverage_rejects_replications_beyond_one_spawn_key_word():
    CoverageConfig(SPEC, DIST, 2**32 - 1, seed=0)
    with pytest.raises(ValueError, match="replications"):
        CoverageConfig(SPEC, DIST, 2**32, seed=0)


def test_coverage_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        CoverageConfig(SPEC, DIST, 100, seed=-1)


def test_coverage_rejects_non_integer_replications_and_seed():
    with pytest.raises(ValueError, match="replications must be a nonnegative integer"):
        CoverageConfig(SPEC, DIST, 100.5, seed=0)
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        CoverageConfig(SPEC, DIST, 100, seed=0.5)
    CoverageConfig(SPEC, DIST, np.int64(100), seed=np.uint32(3))


@pytest.mark.parametrize(
    "dist",
    [Recorded(tuple(range(1, 200))), Scaled(Recorded((1.0, 2.0, 3.0)), 2.0), Scaled(Scaled(Recorded((4.0, 5.0)), 2.0), 3.0)],
    ids=["recorded", "scaled", "scaled-twice"],
)
def test_coverage_rejects_replay_sources(dist):
    # every replicate would replay the same prefix of one fixed sequence
    with pytest.raises(ValueError, match=dist.spec_string):
        CoverageConfig(SPEC, dist, 100, seed=0)


@pytest.mark.parametrize("replications", [101, 1000])
@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize(
    "dist", [LogNormal(1.0), ParetoShape(2.5), Normal(100.0, 50.0)], ids=lambda d: d.spec_string
)
@pytest.mark.parametrize("kind", list(EstimatorKind))
def test_batched_coverage_matches_reference_loop(kind, dist, mode, replications):
    # 101 leaves a partial chunk of replicate rows; 1000 is the benchmark's R
    spec = ApproxSpec(0.2, 0.1, dist.facts().c_bound)
    config = CoverageConfig(spec, dist, replications, seed=2024, mode=mode, estimator=kind)
    report = run_coverage(config)
    assert (report.failures, report.mean_abs_rel_error) == oracles.coverage_reference(config)


@pytest.mark.parametrize("replications", [101, 1000])
@pytest.mark.parametrize(
    "dist", [LogNormal(1.0), ParetoShape(2.5), Normal(100.0, 50.0)], ids=lambda d: d.spec_string
)
@pytest.mark.parametrize("kind", list(EstimatorKind))
@pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 1])
def test_batched_coverage_matches_reference_loop_across_seed_widths(seed, kind, dist, replications):
    # seeds of one, two and three 32-bit words: the run seeds its streams in
    # one batch, the reference opens each SampleSource(dist, seed, r) alone
    spec = ApproxSpec(0.2, 0.1, dist.facts().c_bound)
    config = CoverageConfig(spec, dist, replications, seed=seed, estimator=kind)
    report = run_coverage(config)
    assert (report.failures, report.mean_abs_rel_error) == oracles.coverage_reference(config)


class _Misbehaving:
    """A distribution whose draws break the take contract."""

    def __init__(self, sample):
        self.sample = sample
        self.spec_string = "misbehaving"

    def facts(self):
        return Normal(100.0, 50.0).facts()


@pytest.mark.parametrize(
    "sample, problem",
    [
        (lambda rng, n: rng.normal(100.0, 50.0, max(n - 1, 0)), "returned"),
        (lambda rng, n: np.full(n, np.nan), "non-finite"),
    ],
    ids=["short", "nan"],
)
@pytest.mark.parametrize(
    "kind, stage",
    [
        (EstimatorKind.TWO_STAGE, "stage 1"),
        (EstimatorKind.MEDIAN_OF_MEANS_ONLY, "median of means"),
        (EstimatorKind.NAIVE_MEAN, "naive mean"),
    ],
    ids=["twostage", "mom", "naive"],
)
def test_coverage_names_a_broken_take(sample, problem, kind, stage):
    # every estimator kind draws through the one take-contract gate
    with pytest.raises(SourceContractError, match=f"{stage}: take.*{problem}"):
        run_coverage(CoverageConfig(SPEC, _Misbehaving(sample), 100, seed=0, estimator=kind))


def test_budget_matches_two_stage_plan():
    plan = build_plan(SPEC, Mode.STRICT)
    report = run_coverage(CoverageConfig(SPEC, DIST, 100, seed=1))
    assert report.samples_per_run == plan.k * plan.m + plan.n
    paper = run_coverage(CoverageConfig(SPEC, DIST, 100, seed=1, mode=Mode.PAPER_EXACT))
    assert paper.samples_per_run == theorem1_total(SPEC)


def test_compare_rows_share_budget():
    rows = compare_estimators(SPEC, DIST, 100, seed=3)
    assert [r.estimator for r in rows] == ["twostage", "mom", "naive"]
    assert len({r.samples_per_run for r in rows}) == 1
    assert len({r.seed for r in rows}) == 1
    two_stage = rows[0]
    assert two_stage.failure_rate <= SPEC.delta + two_stage.binomial_3sigma


def test_compare_runs_on_heavy_tails():
    from relmean import ParetoShape

    dist = ParetoShape(2.5)
    spec = ApproxSpec(0.2, 0.1, dist.facts().c_bound)
    rows = compare_estimators(spec, dist, 100, seed=5)
    assert len(rows) == 3
    assert rows[0].failure_rate <= spec.delta + rows[0].binomial_3sigma


def test_write_csv_empty_and_single(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], path)
    assert path.read_text(encoding="ascii") == CSV_HEADER + "\n"

    report = run_coverage(CoverageConfig(SPEC, DIST, 100, seed=1))
    single = tmp_path / "single.csv"
    write_csv([report], single)
    lines = single.read_text(encoding="ascii").splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER


def test_write_csv_bit_stable(tmp_path):
    report = run_coverage(CoverageConfig(SPEC, DIST, 100, seed=1))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv([report, report], a)
    write_csv([report, report], b)
    assert a.read_bytes() == b.read_bytes()


def test_csv_round_trip_of_real_reports(tmp_path):
    rows = compare_estimators(SPEC, DIST, 100, seed=9)
    path = tmp_path / "rows.csv"
    write_csv(rows, path)
    parsed = _parse_csv(path)
    assert len(parsed) == len(rows)
    for original, back in zip(rows, parsed):
        for f in fields(CoverageReport):
            a, b = getattr(original, f.name), getattr(back, f.name)
            if isinstance(a, float):
                assert math.isclose(a, b, rel_tol=1e-8, abs_tol=1e-12)
            else:
                assert a == b
    # a second write of the parsed rows reproduces the same bytes
    rewritten = tmp_path / "rows2.csv"
    write_csv(parsed, rewritten)
    assert rewritten.read_bytes() == path.read_bytes()


_report_strategy = st.builds(
    CoverageReport,
    estimator=st.sampled_from(["twostage", "mom", "naive"]),
    distribution=st.sampled_from(["constant:5", "normal:100,50", "pareto:2.5"]),
    epsilon=st.floats(min_value=1e-3, max_value=0.999),
    delta=st.floats(min_value=1e-6, max_value=0.999),
    c=st.floats(min_value=1e-3, max_value=1e3),
    mode=st.sampled_from(["paper", "strict"]),
    R=st.integers(min_value=100, max_value=10**6),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    samples_per_run=st.integers(min_value=1, max_value=10**9),
    failures=st.integers(min_value=0, max_value=10**6),
    failure_rate=st.floats(min_value=0.0, max_value=1.0),
    binomial_3sigma=st.floats(min_value=0.0, max_value=1.0),
    mean_abs_rel_error=st.floats(min_value=0.0, max_value=1e6),
)


@settings(max_examples=50, derandomize=True)
@given(st.lists(_report_strategy, max_size=5))
def test_csv_round_trip_random_reports(tmp_path_factory, reports):
    path = tmp_path_factory.mktemp("csv") / "r.csv"
    write_csv(reports, path)
    parsed = _parse_csv(path)
    for original, back in zip(parsed, reports):
        for f in fields(CoverageReport):
            a, b = getattr(original, f.name), getattr(back, f.name)
            if isinstance(b, float):
                assert math.isclose(a, b, rel_tol=1e-8, abs_tol=1e-12)
            else:
                assert a == b
