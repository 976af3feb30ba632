"""The package's public surface: the union of its modules' declarations, and
the argument checks at its entry points."""

from __future__ import annotations

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relmean


def test_package_exports_the_modules_lists():
    names = ("psi", "estimator", "sources", "harness", "counting")
    modules = [importlib.import_module(f"relmean.{name}") for name in names]
    assert relmean.__all__ == ["__version__"] + [name for module in modules for name in module.__all__]
    assert all(getattr(relmean, name) is getattr(module, name) for module in modules for name in module.__all__)
    # `from .psi import *` rebinds relmean.psi; it must stay the function
    assert relmean.psi is modules[0].psi and callable(relmean.psi)


def test_import_loads_no_process_pool_module():
    # coverage runs fork with os alone; a pool module would add import time
    # to every CLI call and every fresh interpreter that imports relmean
    script = (
        "import json, sys\n"
        "import relmean, relmean.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent'))))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == []


# --------------------------------------------------------------- the argument boundary
#
# Every public entry point checks its own arguments when called: an integer
# argument given as a float or a negative number is rejected by name, never
# truncated or passed on.

SPEC = relmean.ApproxSpec(0.2, 0.1, 1.0)
DIST = relmean.LogNormal(0.5)
SURE_CHAIN = relmean.NestedChain((lambda rng, size: np.ones(size),), 1.0, 1.0)


def _source():
    return relmean.SampleSource(DIST, 0)


# (entry point with the integer argument as its one parameter, name in the message)
INTEGER_ARGUMENTS = {
    "SampleSource.seed": (lambda v: relmean.SampleSource(DIST, v), "seed"),
    "SampleSource.replicate_index": (lambda v: relmean.SampleSource(DIST, 0, v), "replicate_index"),
    "SampleSource.take": (lambda v: _source().take(v), "draw count n"),
    "ProductEstimateSource.m_per_level": (
        lambda v: relmean.ProductEstimateSource(SURE_CHAIN, v, 0), "m_per_level"),
    "ProductEstimateSource.seed": (lambda v: relmean.ProductEstimateSource(SURE_CHAIN, 5, v), "seed"),
    "ProductEstimateSource.replicate_index": (
        lambda v: relmean.ProductEstimateSource(SURE_CHAIN, 5, 0, v), "replicate_index"),
    "ProductEstimateSource.take": (
        lambda v: relmean.ProductEstimateSource(SURE_CHAIN, 5, 0).take(v), "draw count n"),
    "median_of_means.k": (lambda v: relmean.median_of_means(_source(), v, 3), "group size k"),
    "median_of_means.m": (lambda v: relmean.median_of_means(_source(), 5, v), "group count m"),
    "mom_failure_bound.r": (lambda v: relmean.mom_failure_bound(0.1, v), "r"),
    "product_variance_bound.k": (lambda v: relmean.product_variance_bound(v, 2.0, 3), "k"),
    "product_variance_bound.m": (lambda v: relmean.product_variance_bound(3, 2.0, v), "m"),
    "CoverageConfig.replications": (lambda v: relmean.CoverageConfig(SPEC, DIST, v, 0), "replications"),
    "CoverageConfig.seed": (lambda v: relmean.CoverageConfig(SPEC, DIST, 100, v), "seed"),
    "compare_estimators.replications": (
        lambda v: relmean.compare_estimators(SPEC, DIST, v, 0), "replications"),
    "compare_estimators.seed": (lambda v: relmean.compare_estimators(SPEC, DIST, 100, v), "seed"),
    "Poset.preds": (lambda v: relmean.Poset((0, v)), "predecessor mask"),
    "Poset.from_pairs.n": (lambda v: relmean.Poset.from_pairs(v, []), "n"),
    "Poset.from_pairs.pairs": (lambda v: relmean.Poset.from_pairs(3, [(v, 2)]), "pair element"),
    "Poset.chain": (lambda v: relmean.Poset.chain(v), "n"),
    "Poset.antichain": (lambda v: relmean.Poset.antichain(v), "n"),
    "linext_uniform_sample.seed": (lambda v: relmean.linext_uniform_sample(relmean.Poset.chain(3), v), "seed"),
    "linext_approx_count.m_per_level": (
        lambda v: relmean.linext_approx_count(relmean.Poset.chain(3), 0.2, 0.1, v, 0), "m_per_level"),
    "linext_approx_count.seed": (
        lambda v: relmean.linext_approx_count(relmean.Poset.chain(3), 0.2, 0.1, 10, v), "seed"),
}


@pytest.mark.parametrize("bad", [2.5, -1])
@pytest.mark.parametrize("entry", INTEGER_ARGUMENTS)
def test_integer_arguments_are_checked_by_name(entry, bad):
    call, name = INTEGER_ARGUMENTS[entry]
    pattern = rf"{re.escape(name)} must be an? \w+ integer, got {re.escape(repr(bad))}"
    with pytest.raises(ValueError, match=pattern):
        call(bad)


# (distribution constructor with the real argument as its one parameter, name in the message)
REAL_ARGUMENTS = {
    "ParetoShape.a": (lambda v: relmean.ParetoShape(v), "Pareto shape"),
    "Scaled.factor": (lambda v: relmean.Scaled(relmean.Normal(1.0, 1.0), v), "scale factor"),
    "ScaledBernoulli.scale": (lambda v: relmean.ScaledBernoulli(0.5, v), "Bernoulli scale"),
}


@pytest.mark.parametrize("bad", ["2", b"2", None, 2 + 0j])
@pytest.mark.parametrize("entry", REAL_ARGUMENTS)
def test_real_arguments_are_checked_by_name(entry, bad):
    # float("2") would pass a positivity check, but the constructor keeps the
    # string, and the first take would fail inside numpy
    call, name = REAL_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=rf"{re.escape(name)} must be a real number, got {re.escape(repr(bad))}"):
        call(bad)


def test_coverage_config_takes_mode_and_estimator_by_value():
    by_value = relmean.CoverageConfig(SPEC, DIST, 100, 3, mode="paper", estimator="mom")
    by_enum = relmean.CoverageConfig(
        SPEC, DIST, 100, 3, relmean.Mode.PAPER_EXACT, relmean.EstimatorKind.MEDIAN_OF_MEANS_ONLY
    )
    assert by_value == by_enum
    assert relmean.run_coverage(by_value) == relmean.run_coverage(by_enum)
    assert relmean.run_coverage(by_value).estimator == "mom"
    with pytest.raises(ValueError, match="bogus"):
        relmean.CoverageConfig(SPEC, DIST, 100, 3, mode="bogus")


def test_compare_estimators_takes_mode_by_value():
    rows = relmean.compare_estimators(SPEC, DIST, 100, 4, mode="paper")
    assert rows == relmean.compare_estimators(SPEC, DIST, 100, 4, relmean.Mode.PAPER_EXACT)
    assert {row.mode for row in rows} == {"paper"}


def test_coverage_config_checks_the_c_bound():
    # lognormal:1 has c = sqrt(e - 1) = 1.31: a spec of c = 0.5 would void the guarantee
    with pytest.raises(ValueError, match="exceeds spec c"):
        relmean.CoverageConfig(relmean.ApproxSpec(0.2, 0.1, 0.5), relmean.LogNormal(1.0), 100, 0)
    with pytest.raises(ValueError, match="Pareto shape must exceed 2"):
        relmean.CoverageConfig(SPEC, relmean.ParetoShape(1.5), 100, 0)


@pytest.mark.parametrize(
    "bad",
    [
        {"epsilon": 0.0},
        {"epsilon": 1.5},
        {"delta": -1.0},
        {"delta": 1.0},
        {"m_per_level": 0},
        {"m_per_level": 2.5},
        {"seed": -1},
        {"seed": 2.5},
        {"mode": "bogus"},
    ],
    ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
)
def test_single_element_count_checks_its_arguments(bad):
    # one element has one extension, returned without estimating: the
    # arguments are checked before that shortcut
    args = {"epsilon": 0.2, "delta": 0.1, "m_per_level": 10, "seed": 0, "mode": "strict"}
    assert relmean.linext_approx_count(relmean.Poset.antichain(1), **args) == 1.0
    with pytest.raises(ValueError, match=f"(?i){next(iter(bad))}"):  # Mode's own message names "Mode"
        relmean.linext_approx_count(relmean.Poset.antichain(1), **{**args, **bad})
