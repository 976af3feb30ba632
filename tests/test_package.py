"""The package's public surface: the union of its modules' declarations, and
the argument checks at its entry points."""

from __future__ import annotations

import ast
import csv
import importlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
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


def test_imports_kept_for_the_tracer_are_wrapped_by_it():
    # a library import whose comment says bench/tracing.py wraps it there is
    # unused by its module; it must stay a (module, attribute) entry of the
    # tracer's _WRAPS, so an import the tracer no longer wraps fails here
    root = Path(__file__).resolve().parent.parent
    tracer = ast.parse((root / "bench" / "tracing.py").read_text(encoding="utf-8"))
    (wraps,) = [
        node.value for node in tracer.body
        if isinstance(node, ast.Assign) and [ast.unparse(target) for target in node.targets] == ["_WRAPS"]
    ]
    wrapped = {(entry.elts[0].value, entry.elts[1].value) for entry in wraps.elts}
    kept = set()
    for path in sorted((root / "src" / "relmean").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, tree = source.splitlines(), ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and "bench/tracing.py wraps" in lines[node.end_lineno - 1]:
                names = {alias.asname or alias.name for alias in node.names} - used
                assert names, f"{path.name}:{node.lineno} says the tracer wraps an import the module uses"
                kept |= {(f"relmean.{path.stem}", name) for name in names}
    assert kept <= wrapped, sorted(kept - wrapped)


# --------------------------------------------------------------- the argument boundary
#
# Every public entry point checks its own arguments when called: an integer
# argument given as a float or a negative number is rejected by name, never
# truncated or passed on.

SPEC = relmean.ApproxSpec(0.2, 0.1, 1.0)
DIST = relmean.LogNormal(0.5)
SURE_CHAIN = relmean.NestedChain((lambda rng, n, m: np.ones(n),), 1.0, 1.0)


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


# (call with the real argument as its one parameter, name in the message)
REAL_ARGUMENTS = {
    "Constant.value": (lambda v: relmean.Constant(v), "constant value"),
    "Normal.mu": (lambda v: relmean.Normal(v, 1.0), "Normal mu"),
    "Normal.sigma": (lambda v: relmean.Normal(1.0, v), "Normal sigma"),
    "LogNormal.s": (lambda v: relmean.LogNormal(v), "LogNormal s"),
    "ScaledBernoulli.p": (lambda v: relmean.ScaledBernoulli(v), "Bernoulli probability"),
    "ParetoShape.a": (lambda v: relmean.ParetoShape(v), "Pareto shape"),
    "Scaled.factor": (lambda v: relmean.Scaled(relmean.Normal(1.0, 1.0), v), "scale factor"),
    "ScaledBernoulli.scale": (lambda v: relmean.ScaledBernoulli(0.5, v), "Bernoulli scale"),
    "ApproxSpec.epsilon": (lambda v: relmean.ApproxSpec(v, 0.05, 1.0), "epsilon"),
    "ApproxSpec.delta": (lambda v: relmean.ApproxSpec(0.1, v, 1.0), "delta"),
    "ApproxSpec.c": (lambda v: relmean.ApproxSpec(0.1, 0.05, v), "c"),
    "TruncationScale.alpha": (lambda v: relmean.TruncationScale(v), "alpha"),
    "scaled_psi.scale": (lambda v: relmean.scaled_psi(v, 1.0), "scale"),
    "eps_prime.epsilon": (lambda v: relmean.eps_prime(v), "epsilon"),
    "gibbs_combine.mu_w": (lambda v: relmean.gibbs_combine(v, 2.0, 0.1), "mu_w"),
    "gibbs_combine.mu_v": (lambda v: relmean.gibbs_combine(1.0, v, 0.1), "mu_v"),
    "gibbs_combine.epsilon": (lambda v: relmean.gibbs_combine(1.0, 2.0, v), "epsilon"),
    "stage2_estimate.mu1": (lambda v: relmean.stage2_estimate(_source(), v, SPEC), "mu1"),
    "NestedChain.known_terminal": (lambda v: relmean.NestedChain(SURE_CHAIN.samplers, v, 1.0), "known_terminal"),
    "NestedChain.max_inverse_ratio": (
        lambda v: relmean.NestedChain(SURE_CHAIN.samplers, 1.0, v), "max_inverse_ratio"),
    "product_variance_bound.max_inverse_ratio": (
        lambda v: relmean.product_variance_bound(3, v, 3), "max_inverse_ratio"),
    "mom_failure_bound.nu_sq": (lambda v: relmean.mom_failure_bound(v, 3), "nu_sq"),
}

# (constructor given one real value in every real argument, the fields that
# must keep it as a float); the distributions also write it in spec strings
STORED_DISTRIBUTION_FLOATS = {
    "Constant": (lambda v: relmean.Constant(v), ("value",)),
    "Normal": (lambda v: relmean.Normal(v, v), ("mu", "sigma")),
    "LogNormal": (lambda v: relmean.LogNormal(v), ("s",)),
    "ScaledBernoulli": (lambda v: relmean.ScaledBernoulli(v, v), ("p", "scale")),
    "ParetoShape": (lambda v: relmean.ParetoShape(v), ("a",)),
    "Scaled": (lambda v: relmean.Scaled(relmean.Constant(1.0), v), ("factor",)),
}
STORED_FLOATS = {
    "ApproxSpec": (lambda v: relmean.ApproxSpec(v, v, v), ("epsilon", "delta", "c")),
    "TruncationScale": (lambda v: relmean.TruncationScale(v), ("alpha",)),
    "NestedChain": (
        lambda v: relmean.NestedChain(SURE_CHAIN.samplers, v, 1 + v), ("known_terminal", "max_inverse_ratio")),
    **STORED_DISTRIBUTION_FLOATS,
}

# one half, as each kind of real number a caller may pass
HALVES = [np.float32(0.5), Fraction(1, 2), 0.5]


@pytest.mark.parametrize("bad", ["2", b"2", None, 2 + 0j])
@pytest.mark.parametrize("entry", REAL_ARGUMENTS)
def test_real_arguments_are_checked_by_name(entry, bad):
    # float("2") would pass a positivity check, but the constructor keeps the
    # string, and the first take would fail inside numpy
    call, name = REAL_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=rf"{re.escape(name)} must be a real number, got {re.escape(repr(bad))}"):
        call(bad)


@pytest.mark.parametrize("entry", REAL_ARGUMENTS)
def test_real_arguments_beyond_the_float_range_are_checked_by_name(entry):
    call, name = REAL_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=rf"{re.escape(name)} must be finite"):
        call(10**400)


@pytest.mark.parametrize("entry", ["NestedChain.known_terminal", "NestedChain.max_inverse_ratio",
                                   "product_variance_bound.max_inverse_ratio", "stage2_estimate.mu1"])
def test_infinite_bounds_are_checked_by_name(entry):
    call, name = REAL_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=rf"{re.escape(name)} must be .*finite.*, got inf"):
        call(math.inf)


@pytest.mark.parametrize("value", HALVES, ids=repr)
@pytest.mark.parametrize("entry", STORED_FLOATS)
def test_constructors_keep_the_floats_they_check(entry, value):
    build, names = STORED_FLOATS[entry]
    built = build(value)
    assert [type(getattr(built, name)) for name in names] == [float] * len(names)
    assert built == build(0.5)


@pytest.mark.parametrize("value", HALVES, ids=repr)
@pytest.mark.parametrize("entry", STORED_DISTRIBUTION_FLOATS)
def test_distributions_write_their_spec_strings_from_floats(entry, value):
    # a Fraction parameter used to reach the spec string's format, which
    # raised a TypeError
    build, _ = STORED_DISTRIBUTION_FLOATS[entry]
    assert build(value).spec_string == build(0.5).spec_string


@pytest.mark.parametrize("c", HALVES, ids=repr)
def test_a_spec_computes_alpha_in_float64(c):
    # a float32 c used to square in float32, with an overflow warning from
    # the spec's range check
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = relmean.estimate_mean(relmean.SampleSource(relmean.Normal(10, 1), 3), relmean.ApproxSpec(0.2, 0.1, c))
    assert report.alpha.alpha == 0.07679400704633757


def test_a_fraction_c_is_written_as_a_float(tmp_path):
    spec = relmean.ApproxSpec(0.2, 0.1, Fraction(1, 2))
    report = relmean.run_coverage(relmean.CoverageConfig(spec, relmean.Normal(10, 2), 100, 1))
    relmean.write_csv([report], tmp_path / "coverage.csv")
    with open(tmp_path / "coverage.csv", encoding="ascii") as fh:
        assert next(csv.DictReader(fh))["c"] == "0.5"


@pytest.mark.parametrize("value", HALVES, ids=repr)
def test_real_results_are_float64(value):
    # a float32 epsilon used to give a float32 eps_prime and a quotient
    # deflated in float32
    results = [relmean.eps_prime(value), relmean.gibbs_combine(1.0, 2.0, value), relmean.mom_failure_bound(value / 2, 3)]
    assert [type(result) for result in results] == [float] * 3
    assert results == [relmean.eps_prime(0.5), relmean.gibbs_combine(1.0, 2.0, 0.5), relmean.mom_failure_bound(0.25, 3)]


def test_a_truncation_scale_of_a_fraction_scales_as_its_float():
    assert relmean.scaled_psi(relmean.TruncationScale(Fraction(1, 2)), 1.0) == relmean.scaled_psi(0.5, 1.0)


def test_coverage_config_takes_mode_by_value():
    by_value = relmean.CoverageConfig(SPEC, DIST, 100, 3, mode="paper")
    by_enum = relmean.CoverageConfig(SPEC, DIST, 100, 3, relmean.Mode.PAPER_EXACT)
    assert by_value == by_enum
    assert relmean.run_coverage(by_value) == relmean.run_coverage(by_enum)
    assert relmean.run_coverage(by_value).estimator == "twostage"
    with pytest.raises(ValueError, match="bogus"):
        relmean.CoverageConfig(SPEC, DIST, 100, 3, mode="bogus")
    # the baselines are compare_estimators rows, not coverage options
    with pytest.raises(TypeError, match="estimator"):
        relmean.CoverageConfig(SPEC, DIST, 100, 3, estimator="mom")


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
