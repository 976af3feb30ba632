"""End-to-end acceptance suite.

One test per criterion; each prints a PASS/FAIL line (visible with
`pytest tests/test_acceptance.py -v -s`).  Monte Carlo criteria use fixed
base seeds, so the whole suite is deterministic.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

from relmean import (
    ApproxSpec,
    CoverageConfig,
    LogNormal,
    Mode,
    Normal,
    ParetoShape,
    Poset,
    SampleSource,
    Scaled,
    ScaledBernoulli,
    build_plan,
    eps_prime,
    estimate_mean,
    gibbs_combine,
    linext_approx_count,
    linext_count_exact,
    lower_bound_samples,
    median_of_means,
    mom_failure_bound,
    product_variance_bound,
    psi,
    psi_lower,
    psi_upper,
    run_coverage,
    theorem1_total,
)
from relmean.counting import NestedChain, ProductEstimateSource

import oracles

BASE_SPEC = ApproxSpec(0.1, 0.05, 1.0)

COVERAGE_DISTRIBUTIONS = [
    Normal(100.0, 50.0),
    LogNormal(1.0),
    ScaledBernoulli(0.2, 1.0),
    ParetoShape(2.5),
]


def _criterion(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status}  {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_sample_count_fidelity():
    total = theorem1_total(BASE_SPEC)
    n2 = build_plan(BASE_SPEC).n
    _criterion(1, "sample-count fidelity", total == 1454 and n2 == 974, f"total={total} n2={n2}")


def test_criterion_02_lower_bound_fidelity():
    value = lower_bound_samples(BASE_SPEC)
    # reference from a 50-digit evaluation of the closed form
    close = math.isclose(value, oracles.LOWER_BOUND_BASE, rel_tol=1e-9)
    within_band = abs(value - oracles.LOWER_BOUND_BASE) <= 0.01
    sandwich = True
    for eps in [0.01, 0.05, 0.1, 0.2]:
        for delta in [1e-6, 1e-4, 1e-2, 0.1]:
            for c in [0.5, 1.0, 2.0, 10.0]:
                spec = ApproxSpec(eps, delta, c)
                if not lower_bound_samples(spec) < theorem1_total(spec):
                    sandwich = False
    _criterion(
        2,
        "lower-bound fidelity",
        close and within_band and sandwich,
        f"value={value:.6f} reference={oracles.LOWER_BOUND_BASE:.6f} sandwich={sandwich}",
    )


def test_criterion_03_envelope_and_shape():
    rng = np.random.default_rng(303)
    points = rng.uniform(-100.0, 100.0, 100_000)
    low, mid, high = psi_lower(points), psi(points), psi_upper(points)
    envelope = bool(np.all(low <= mid) and np.all(mid <= high))
    odd = bool(np.all(psi(-points) == -mid))
    ordered = np.sort(points)
    monotone = bool(np.all(np.diff(psi(ordered)) >= 0.0))
    _criterion(3, "psi envelope/oddness/monotonicity", envelope and odd and monotone,
               f"envelope={envelope} odd={odd} monotone={monotone}")


def test_criterion_04_coverage_guarantee():
    spec_eps, spec_delta = 0.2, 0.1
    details = []
    ok = True
    for dist in COVERAGE_DISTRIBUTIONS:
        spec = ApproxSpec(spec_eps, spec_delta, dist.facts().c_bound)
        report = run_coverage(CoverageConfig(spec, dist, 1000, seed=404, mode=Mode.STRICT))
        good = report.failure_rate <= spec_delta + 0.028
        ok = ok and good
        details.append(f"{dist.spec_string}:{report.failure_rate:.3f}")
    _criterion(4, "coverage guarantee", ok, " ".join(details) + " (limit 0.128)")


def test_criterion_05_stage1_guarantee_in_isolation():
    replications = 1000
    budget = 0.05  # strict-mode stage-1 share of delta = 0.1
    slack = 3.0 * math.sqrt(budget * (1.0 - budget) / replications)
    details = []
    ok = True
    for dist in COVERAGE_DISTRIBUTIONS:
        facts = dist.facts()
        spec = ApproxSpec(0.2, 0.1, facts.c_bound)
        plan = build_plan(spec, Mode.STRICT)
        failures = 0
        for r in range(replications):
            source = SampleSource(dist, 505, replicate_index=r)
            value = median_of_means(source, plan.k, plan.m)
            if abs(value - facts.true_mean) > plan.epsilon1 * facts.true_mean:
                failures += 1
        rate = failures / replications
        ok = ok and rate <= budget + slack
        details.append(f"{dist.spec_string}:{rate:.3f}")
    _criterion(5, "stage-1 guarantee", ok, " ".join(details) + f" (limit {budget + slack:.3f})")


def test_criterion_06_median_law_and_bound():
    rng = np.random.default_rng(606)
    ok = True
    details = []
    for r in [1, 2, 5]:
        medians = np.median(rng.random((100_000, 2 * r + 1)), axis=1)
        p_value = stats.kstest(medians, stats.beta(r + 1, r + 1).cdf).pvalue
        ok = ok and p_value >= 0.01
        details.append(f"ks r={r}:p={p_value:.3f}")
    # validity of the median failure bound: mass nu^2 split evenly onto the
    # two outlier sides; the median leaves the window when one side captures
    # a majority of the 2r+1 draws
    replications = 20_000
    for nu_sq in [0.125, 0.25]:
        for r in [1, 2, 3]:
            m = 2 * r + 1
            u = rng.random((replications, m))
            below = (u < nu_sq / 2.0).sum(axis=1)
            above = (u > 1.0 - nu_sq / 2.0).sum(axis=1)
            rate = float(np.mean((below >= r + 1) | (above >= r + 1)))
            bound = mom_failure_bound(nu_sq, r)
            slack = 3.0 * math.sqrt(bound * (1.0 - bound) / replications)
            good = rate <= bound + slack
            ok = ok and good
            if nu_sq == 0.125:
                details.append(f"bound r={r}:{rate:.4f}<={bound + slack:.4f}")
    _criterion(6, "median law and failure bound", ok, " ".join(details))


def test_criterion_07_scale_equivariance():
    dist = LogNormal(1.0)
    spec = ApproxSpec(0.2, 0.1, dist.facts().c_bound)
    worst = 0.0
    for seed in range(100):
        base = estimate_mean(SampleSource(dist, seed), spec).mu_hat
        for lam in [0.01, 3.0, 1000.0]:
            scaled = estimate_mean(SampleSource(Scaled(dist, lam), seed), spec).mu_hat
            worst = max(worst, abs(scaled - lam * base) / (lam * base))
    _criterion(7, "scale equivariance", worst <= 1e-12, f"worst rel dev={worst:.3e}")


def test_criterion_08_counting_end_to_end():
    replications = 300
    slack = 3.0 * math.sqrt(0.1 * 0.9 / replications)
    cases = [
        (Poset.chain(4), 1),
        (Poset.from_pairs(4, [(1, 2), (3, 4)]), 6),
        (Poset.antichain(4), 24),
    ]
    ok = True
    details = []
    for p, exact in cases:
        assert linext_count_exact(p) == exact
        failures = 0
        for r in range(replications):
            estimate = linext_approx_count(p, 0.2, 0.1, 100, seed=808_000 + r)
            if abs(estimate - exact) > 0.2 * exact:
                failures += 1
        rate = failures / replications
        ok = ok and rate <= 0.1 + slack
        details.append(f"exact={exact}:{rate:.3f}")
    family = oracles.poset_family()
    agree = all(
        linext_count_exact(p) == oracles.count_extensions_bruteforce(p) for p in family
    )
    ok = ok and agree and len(family) >= 50
    _criterion(
        8,
        "counting end-to-end",
        ok,
        " ".join(details) + f" (limit {0.1 + slack:.3f}) oracle-agreement={agree} on {len(family)} posets",
    )


def _bernoulli_chain(rates) -> NestedChain:
    def make(rate):
        def sampler(rng, n, m):
            return (rng.random((n, m)) < rate).astype(float).mean(axis=1)

        return sampler

    return NestedChain(
        samplers=tuple(make(r) for r in rates),
        known_terminal=1.0,
        max_inverse_ratio=1.0 / min(rates),
    )


def test_criterion_09_product_estimator_bound():
    ok = True
    details = []
    for rates in [(0.5,), (1 / 3,), (0.5, 1 / 3), (0.5, 0.5, 1 / 3), (1 / 3, 1 / 3, 1 / 3)]:
        for m in [10, 100]:
            chain = _bernoulli_chain(rates)
            bound = product_variance_bound(len(rates), chain.max_inverse_ratio, m)
            draws = ProductEstimateSource(chain, m, seed=909 + m + len(rates)).take(50_000)
            relvar, se = oracles.relvar_with_se(draws)
            good = relvar <= bound + 3.0 * se
            ok = ok and good
            details.append(f"k={len(rates)},m={m}:{relvar:.4f}<={bound + 3 * se:.4f}")
    _criterion(9, "product-estimator variance bound", ok, " ".join(details))


def test_criterion_10_gibbs_combiner():
    # closed-form accuracy split and worst-case endpoint containment
    grid_ok = True
    for eps in np.linspace(0.001, 1.0, 1000):
        eps = float(eps)
        ep = eps_prime(eps)
        if ep > eps / 2.0 - eps**3 * (1.5 - math.sqrt(2.0)) + 1e-12:
            grid_ok = False
        upper = gibbs_combine(1.0 + ep, 1.0 - ep, eps)
        lower = gibbs_combine(1.0 - ep, 1.0 + ep, eps)
        if upper > (1.0 + eps) + 1e-12 or lower < (1.0 - eps) - 1e-12:
            grid_ok = False

    # end-to-end on synthetic streams with relative variance 2e
    replications = 300
    relvar = 2.0 * math.e
    shape = math.sqrt(math.log1p(relvar))
    eps, delta = 0.2, 0.1
    stream_spec = ApproxSpec(eps_prime(eps), delta / 2.0, math.sqrt(relvar))
    w_dist = Scaled(LogNormal(shape), 2.0)
    v_dist = LogNormal(shape)
    truth = 2.0
    failures = 0
    for r in range(replications):
        w_hat = estimate_mean(SampleSource(w_dist, 1010, replicate_index=2 * r), stream_spec).mu_hat
        v_hat = estimate_mean(SampleSource(v_dist, 1010, replicate_index=2 * r + 1), stream_spec).mu_hat
        combined = gibbs_combine(w_hat, v_hat, eps)
        if abs(combined - truth) > eps * truth:
            failures += 1
    rate = failures / replications
    slack = 3.0 * math.sqrt(delta * (1.0 - delta) / replications)
    mc_ok = rate <= delta + slack
    _criterion(
        10,
        "quotient combiner",
        grid_ok and mc_ok,
        f"grid={grid_ok} end-to-end rate={rate:.3f} (limit {delta + slack:.3f})",
    )
