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


def _scopes_holding(matches) -> set[str]:
    """The scopes of src/relmean/*.py, as module.function or
    module.Class.method, that hold a node for which matches(node) is true;
    a decorator belongs to the function it decorates."""
    scopes = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif matches(child):
                scopes.add(scope)
            visit(child, inner)

    root = Path(__file__).resolve().parent.parent
    for path in sorted((root / "src" / "relmean").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return scopes


def test_overflow_errors_are_caught_only_by_the_two_real_helpers():
    # math and float ** raise OverflowError where float * gives inf;
    # sources._inf_on_overflow turns it into inf and sources._real into a
    # named error, and every other module calls them instead of catching it
    def catches_overflow(node):
        if not (isinstance(node, ast.ExceptHandler) and node.type is not None):
            return False
        caught = {name.id for name in ast.walk(node.type) if isinstance(name, ast.Name)}
        return bool(caught & {"OverflowError", "ArithmeticError"})

    assert _scopes_holding(catches_overflow) == {"sources._real", "sources._inf_on_overflow"}


def test_no_module_reads_the_host_memory_size():
    # an outcome must not depend on the host: a linear-extension count is
    # admitted by a constant budget, so no module calls os.sysconf
    def names_sysconf(node):
        return (isinstance(node, ast.Attribute) and node.attr == "sysconf") or (
            isinstance(node, ast.Name) and node.id == "sysconf"
        ) or (isinstance(node, ast.alias) and node.name == "sysconf")

    assert _scopes_holding(names_sysconf) == set()


def test_numpy_error_state_is_set_only_where_an_overflow_is_repaired_or_named():
    # the two stage kernels and psi's two evaluators read an overflow in
    # their results and repair it or raise a named error; every caller
    # runs them as they are, so no other function sets numpy's error state
    def names_errstate(node):
        return (isinstance(node, ast.Attribute) and node.attr == "errstate") or (
            isinstance(node, ast.Name) and node.id == "errstate"
        )

    assert _scopes_holding(names_errstate) == {
        "estimator._median_rows",
        "estimator._truncated_mean_rows",
        "psi._scaled_psi",
        "psi._upper",
    }


def _raises_stating(phrases):
    """A node test: true for a raise whose string constants hold one of `phrases`."""

    def states(node):
        if not (isinstance(node, ast.Raise) and node.exc is not None):
            return False
        text = " ".join(
            part.value for part in ast.walk(node.exc) if isinstance(part, ast.Constant) and isinstance(part.value, str)
        )
        return any(phrase in text for phrase in phrases)

    return states


def test_intervals_are_stated_only_by_the_one_real_check():
    # sources._real is the one range check of real arguments and
    # sources._integer of integer ones: no other function raises an error
    # that states an interval, finiteness or an integer's range, and every
    # interval passed to either is a literal that parses
    real_phrases = ("must lie in", "must be finite", "must be positive")
    integer_phrases = ("must be an integer", "nonnegative integer", "positive integer", "must be at most", "must be below")
    assert _scopes_holding(_raises_stating(real_phrases)) == {"sources._real"}
    assert _scopes_holding(_raises_stating(integer_phrases)) == {"sources._integer"}
    root = Path(__file__).resolve().parent.parent
    intervals = {"_real": set(), "_integer": set()}
    for path in sorted((root / "src" / "relmean").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in intervals:
                for arg in node.args[2:] + [keyword.value for keyword in node.keywords if keyword.arg == "interval"]:
                    assert isinstance(arg, ast.Constant) and isinstance(arg.value, str), f"{path.name}:{node.lineno}"
                    intervals[node.func.id].add(arg.value)
    assert {"(0, 1)", "(0, inf)", "[1, inf)"} <= intervals["_real"]
    assert {"[1, inf)", "[1, 1048576]", "[100, 4294967296)", "[1, 1.7976931348623157e+308]"} <= intervals["_integer"]
    for interval in sorted(intervals["_real"] | intervals["_integer"]):
        relmean.sources._interval(interval)


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


# (entry point with the integer argument as its one parameter, name in the
# message, the interval it must lie in, as sources._integer is given it);
# the closed forms turn k, m and r into floats, so their top is the largest
INTEGER_ARGUMENTS = {
    "SampleSource.seed": (lambda v: relmean.SampleSource(DIST, v), "seed", "[0, inf)"),
    "SampleSource.replicate_index": (lambda v: relmean.SampleSource(DIST, 0, v), "replicate_index", "[0, inf)"),
    "SampleSource.take": (lambda v: _source().take(v), "draw count n", "[0, inf)"),
    "ProductEstimateSource.m_per_level": (
        lambda v: relmean.ProductEstimateSource(SURE_CHAIN, v, 0), "m_per_level", "[1, 1048576]"),
    "ProductEstimateSource.seed": (lambda v: relmean.ProductEstimateSource(SURE_CHAIN, 5, v), "seed", "[0, inf)"),
    "ProductEstimateSource.replicate_index": (
        lambda v: relmean.ProductEstimateSource(SURE_CHAIN, 5, 0, v), "replicate_index", "[0, inf)"),
    "ProductEstimateSource.take": (
        lambda v: relmean.ProductEstimateSource(SURE_CHAIN, 5, 0).take(v), "draw count n", "[0, inf)"),
    "median_of_means.k": (lambda v: relmean.median_of_means(_source(), v, 3), "group size k", "[1, inf)"),
    "median_of_means.m": (lambda v: relmean.median_of_means(_source(), 5, v), "group count m", "[1, inf)"),
    "mom_failure_bound.r": (lambda v: relmean.mom_failure_bound(0.1, v), "r", "[1, 1.7976931348623157e+308]"),
    # at M = 1 the bound is 0 at every k, so the largest k is a cheap call
    "product_variance_bound.k": (
        lambda v: relmean.product_variance_bound(v, 1.0, 3), "k", "[1, 1.7976931348623157e+308]"),
    "product_variance_bound.m": (
        lambda v: relmean.product_variance_bound(3, 2.0, v), "m", "[1, 1.7976931348623157e+308]"),
    "CoverageConfig.replications": (
        lambda v: relmean.CoverageConfig(SPEC, DIST, v, 0), "replications", "[100, 4294967296)"),
    "CoverageConfig.seed": (lambda v: relmean.CoverageConfig(SPEC, DIST, 100, v), "seed", "[0, inf)"),
    "compare_estimators.replications": (
        lambda v: relmean.compare_estimators(SPEC, DIST, v, 0), "replications", "[100, 4294967296)"),
    "compare_estimators.seed": (lambda v: relmean.compare_estimators(SPEC, DIST, 100, v), "seed", "[0, inf)"),
    "Poset.preds": (lambda v: relmean.Poset((0, v)), "predecessor mask", "[0, inf)"),
    "Poset.from_pairs.n": (lambda v: relmean.Poset.from_pairs(v, []), "n", "[1, inf)"),
    "Poset.from_pairs.pairs": (lambda v: relmean.Poset.from_pairs(3, [(v, 2)]), "pair element", "[1, inf)"),
    "Poset.chain": (lambda v: relmean.Poset.chain(v), "n", "[1, inf)"),
    "Poset.antichain": (lambda v: relmean.Poset.antichain(v), "n", "[1, inf)"),
    "linext_uniform_sample.seed": (
        lambda v: relmean.linext_uniform_sample(relmean.Poset.chain(3), v), "seed", "[0, inf)"),
    "linext_approx_count.m_per_level": (
        lambda v: relmean.linext_approx_count(relmean.Poset.chain(3), 0.2, 0.1, v, 0), "m_per_level", "[1, 1048576]"),
    "linext_approx_count.seed": (
        lambda v: relmean.linext_approx_count(relmean.Poset.chain(3), 0.2, 0.1, 10, v), "seed", "[0, inf)"),
}


def _integer_edges(interval: str) -> tuple[list[int], list[int]]:
    """(rejected, accepted) integers at the finite ends of an interval
    written as "[low, high)": the integer just outside each end is
    rejected, and the one at a closed end, or just inside an open one, is
    accepted."""
    low, high = (float(end) for end in interval[1:-1].split(", "))
    rejected, accepted = [], []
    for end, closed, outward in ((low, interval[0] == "[", -1), (high, interval[-1] == "]", 1)):
        if math.isfinite(end):
            rejected.append(int(end) + outward if closed else int(end))
            accepted.append(int(end) if closed else int(end) - outward)
    return rejected, accepted


def _shown(value: int) -> str:
    """An int as a range check's message shows it."""
    return f"a {value.bit_length()}-bit integer" if value > sys.float_info.max else repr(value)


def _integer_id(entry: str, value: int) -> str:
    return f"{entry}-{value!r}" if value.bit_length() < 64 else f"{entry}-{value.bit_length()}-bit"


INTEGERS_REJECTED_AT_EDGES = [
    pytest.param(entry, value, id=_integer_id(entry, value))
    for entry, (_, _, interval) in INTEGER_ARGUMENTS.items() for value in _integer_edges(interval)[0]
]
# a comparison at 2**32 - 1 replications would run them all
INTEGERS_ACCEPTED_AT_EDGES = [
    pytest.param(entry, value, id=_integer_id(entry, value))
    for entry, (_, _, interval) in INTEGER_ARGUMENTS.items() for value in _integer_edges(interval)[1]
    if (entry, value) != ("compare_estimators.replications", 2**32 - 1)
]


@pytest.mark.parametrize("bad", [2.5, -1])
@pytest.mark.parametrize("entry", INTEGER_ARGUMENTS)
def test_integer_arguments_are_checked_by_name(entry, bad):
    call, name, interval = INTEGER_ARGUMENTS[entry]
    pattern = rf"^{re.escape(name)} must be an integer in {re.escape(interval)}, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=pattern):
        call(bad)


@pytest.mark.parametrize("entry, value", INTEGERS_REJECTED_AT_EDGES)
def test_integer_arguments_outside_their_interval_are_named_with_it(entry, value):
    call, name, interval = INTEGER_ARGUMENTS[entry]
    pattern = rf"^{re.escape(name)} must be an integer in {re.escape(interval)}, got {re.escape(_shown(value))}$"
    with pytest.raises(ValueError, match=pattern):
        call(value)


@pytest.mark.parametrize("entry, value", INTEGERS_ACCEPTED_AT_EDGES)
def test_integer_arguments_at_the_ends_of_their_interval_are_accepted(entry, value):
    call, _, _ = INTEGER_ARGUMENTS[entry]
    call(value)


def test_an_int_beyond_the_float_range_is_shown_by_its_bit_length():
    with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, inf\), got a negative 1329-bit integer$"):
        relmean.SampleSource(DIST, -10**400)
    # the largest float's int is shown whole, one beyond it by its bit length
    top = int(sys.float_info.max)
    with pytest.raises(ValueError, match=rf"^m_per_level must be an integer in \[1, 1048576\], got {top}$"):
        relmean.ProductEstimateSource(SURE_CHAIN, top, 0)
    with pytest.raises(ValueError, match=r"^m_per_level must be an integer in \[1, 1048576\], got a 1024-bit integer$"):
        relmean.ProductEstimateSource(SURE_CHAIN, top + 1, 0)


def test_seeds_and_replicate_indices_take_any_size():
    # numpy's SeedSequence takes an int of any size, and so does "[0, inf)"
    draws = relmean.SampleSource(DIST, 10**400, 10**400).take(3)
    assert np.array_equal(draws, relmean.SampleSource(DIST, 10**400, 10**400).take(3))
    assert not np.array_equal(draws, relmean.SampleSource(DIST, 10**400, 0).take(3))
    config = relmean.CoverageConfig(SPEC, DIST, 100, 10**400)
    assert config.seed == 10**400


# (call with the real argument as its one parameter, name in the message,
# the interval it must lie in, as sources._real is given it)
REAL_ARGUMENTS = {
    "Constant.value": (lambda v: relmean.Constant(v), "constant value", "(-inf, inf)"),
    "Normal.mu": (lambda v: relmean.Normal(v, 1.0), "Normal mu", "(-inf, inf)"),
    "Normal.sigma": (lambda v: relmean.Normal(1.0, v), "Normal sigma", "[0, inf)"),
    "LogNormal.s": (lambda v: relmean.LogNormal(v), "LogNormal s", "[0, inf)"),
    "ScaledBernoulli.p": (lambda v: relmean.ScaledBernoulli(v), "Bernoulli probability", "(0, 1]"),
    "ParetoShape.a": (lambda v: relmean.ParetoShape(v), "Pareto shape", "(0, inf)"),
    "Scaled.factor": (lambda v: relmean.Scaled(relmean.Normal(1.0, 1.0), v), "scale factor", "(0, inf)"),
    "ScaledBernoulli.scale": (lambda v: relmean.ScaledBernoulli(0.5, v), "Bernoulli scale", "(0, inf)"),
    "ApproxSpec.epsilon": (lambda v: relmean.ApproxSpec(v, 0.05, 1.0), "epsilon", "(0, 1)"),
    "ApproxSpec.delta": (lambda v: relmean.ApproxSpec(0.1, v, 1.0), "delta", "(0, 1)"),
    "ApproxSpec.c": (lambda v: relmean.ApproxSpec(0.1, 0.05, v), "c", "(0, inf)"),
    "scaled_psi.scale": (lambda v: relmean.scaled_psi(v, 1.0), "scale", "(0, inf)"),
    "eps_prime.epsilon": (lambda v: relmean.eps_prime(v), "epsilon", "(0, 1]"),
    "gibbs_combine.mu_w": (lambda v: relmean.gibbs_combine(v, 2.0, 0.1), "mu_w", "(0, inf)"),
    "gibbs_combine.mu_v": (lambda v: relmean.gibbs_combine(1.0, v, 0.1), "mu_v", "(0, inf)"),
    "gibbs_combine.epsilon": (lambda v: relmean.gibbs_combine(1.0, 2.0, v), "epsilon", "[0, 1]"),
    "stage2_estimate.mu1": (lambda v: relmean.stage2_estimate(_source(), v, SPEC), "mu1", "(0, inf)"),
    "NestedChain.known_terminal": (
        lambda v: relmean.NestedChain(SURE_CHAIN.samplers, v, 1.0), "known_terminal", "(0, inf)"),
    "NestedChain.max_inverse_ratio": (
        lambda v: relmean.NestedChain(SURE_CHAIN.samplers, 1.0, v), "max_inverse_ratio", "[1, inf)"),
    "product_variance_bound.max_inverse_ratio": (
        lambda v: relmean.product_variance_bound(3, v, 3), "max_inverse_ratio", "[1, inf)"),
    "mom_failure_bound.nu_sq": (lambda v: relmean.mom_failure_bound(v, 3), "nu_sq", "(0, 0.5)"),
    "SourceFacts.true_mean": (lambda v: relmean.SourceFacts(v, 0.5, 1.0), "true_mean", "(0, inf)"),
    "SourceFacts.true_relvar": (lambda v: relmean.SourceFacts(1.0, v, 1.0), "true_relvar", "[0, inf)"),
    # a relative variance of 0, which any c_bound covers, so c_bound = 0 is legal
    "SourceFacts.c_bound": (lambda v: relmean.SourceFacts(1.0, 0.0, v), "c_bound", "[0, inf)"),
    "Recorded.values": (lambda v: relmean.Recorded((1.0, v)), "recorded value", "(-inf, inf)"),
}


def _edges(interval: str) -> tuple[list[float], list[float]]:
    """(rejected, accepted) values at the edges of an interval written as
    "(low, high]": nan, inf and -inf, each open finite end, and the float
    just outside each closed end are rejected; each closed end is accepted."""
    low, high = (float(end) for end in interval[1:-1].split(", "))
    rejected, accepted = [math.nan, math.inf, -math.inf], []
    for end, closed, outward in ((low, interval[0] == "[", -math.inf), (high, interval[-1] == "]", math.inf)):
        if math.isfinite(end):
            if closed:
                accepted.append(end)
                rejected.append(math.nextafter(end, outward))
            else:
                rejected.append(end)
    return rejected, accepted


REJECTED_AT_EDGES = [
    pytest.param(entry, value, id=f"{entry}-{value!r}")
    for entry, (_, _, interval) in REAL_ARGUMENTS.items() for value in _edges(interval)[0]
]
ACCEPTED_AT_EDGES = [
    pytest.param(entry, value, id=f"{entry}-{value!r}")
    for entry, (_, _, interval) in REAL_ARGUMENTS.items() for value in _edges(interval)[1]
]

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
    "SourceFacts": (lambda v: relmean.SourceFacts(v, v, 1 + v), ("true_mean", "true_relvar", "c_bound")),
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
    call, name, _ = REAL_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=rf"{re.escape(name)} must be a real number, got {re.escape(repr(bad))}"):
        call(bad)


@pytest.mark.parametrize("entry", REAL_ARGUMENTS)
def test_real_arguments_beyond_the_float_range_are_checked_by_name(entry):
    # the message gives the int's bit length, where it gave all 401 digits
    call, name, interval = REAL_ARGUMENTS[entry]
    for value, shown in ((10**400, "a 1329-bit integer"), (-10**400, "a negative 1329-bit integer")):
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be finite and lie in {re.escape(interval)}, got {shown}$"):
            call(value)


@pytest.mark.parametrize("entry", ["NestedChain.known_terminal", "NestedChain.max_inverse_ratio",
                                   "product_variance_bound.max_inverse_ratio", "stage2_estimate.mu1",
                                   "SourceFacts.true_mean", "SourceFacts.true_relvar", "SourceFacts.c_bound"])
def test_infinite_bounds_are_checked_by_name(entry):
    call, name, _ = REAL_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=rf"{re.escape(name)} must be .*finite.*, got inf"):
        call(math.inf)


@pytest.mark.parametrize("entry, value", REJECTED_AT_EDGES)
def test_real_arguments_outside_their_interval_are_named_with_it(entry, value):
    call, name, interval = REAL_ARGUMENTS[entry]
    pattern = rf"^{re.escape(name)} must be finite and lie in {re.escape(interval)}, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=pattern):
        call(value)


@pytest.mark.parametrize("entry, value", ACCEPTED_AT_EDGES)
def test_real_arguments_at_a_closed_end_of_their_interval_are_accepted(entry, value):
    call, _, _ = REAL_ARGUMENTS[entry]
    call(value)


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
    assert report.alpha == 0.07679400704633757


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
    assert relmean.scaled_psi(Fraction(1, 2), 1.0) == relmean.scaled_psi(0.5, 1.0)


@pytest.mark.parametrize("scale", HALVES, ids=repr)
def test_a_truncation_scale_of_any_real_type_scales_as_its_float(scale):
    # each kind of real scale is converted to a float before it scales u
    results = [relmean.scaled_psi(scale, 3.0), relmean.scaled_psi(scale, np.array([3.0, -3.0]))]
    assert type(results[0]) is float and results[1].dtype == np.float64
    assert results[0] == relmean.scaled_psi(0.5, 3.0)
    assert np.array_equal(results[1], relmean.scaled_psi(0.5, np.array([3.0, -3.0])))


@pytest.mark.parametrize("mu1", HALVES, ids=repr)
def test_stage2_keeps_its_truncation_scale_a_float(mu1):
    # the scale alpha = epsilon / (c^2 mu1) is the float its kernel computed,
    # whatever real type mu1 was given as
    mu_hat, alpha = relmean.stage2_estimate(_source(), mu1, SPEC)
    assert [type(mu_hat), type(alpha)] == [float, float]
    assert (mu_hat, alpha) == relmean.stage2_estimate(_source(), 0.5, SPEC)
    assert alpha == 0.4


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
    with pytest.raises(ValueError, match=r"^Pareto shape must exceed 2 for a finite variance, got 1\.5$"):
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
