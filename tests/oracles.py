"""Frozen reference values and independent brute-force oracles.

The constants were computed once with mpmath at 50-digit precision and are
stored to 17 significant digits.  The helpers re-derive quantities through
a deliberately different, slower route than the library uses, so the two
sides stay independent.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from relmean import Poset, SampleSource, build_plan, scaled_psi

# psi values
PSI_ONE = 0.91629073187415507  # ln(2.5)
PSI_LOWER_ONE = 0.69314718055994531  # -ln(0.5)
# beyond |u| ~ 1.9e154, where u^2/2 overflows in floating point
PSI_1E200 = 920.34089001705833  # ln(1 + 1e200 + 1e400/2)
PSI_MAX_FLOAT = 1418.8722786062080  # psi(sys.float_info.max)
SCALED_PSI_1E10_1E300 = 1.4269096104757483e-07  # psi(1e310) / 1e10

# stage parameters at epsilon=0.1, delta=0.05, c=1
EPSILON1_BASE = 0.22360679774997897  # sqrt(0.05)
K_BASE = 160
M_BASE_PAPER = 3
M_BASE_STRICT = 5
N_BASE = 974
TOTAL_BASE = 1454

# stage parameters at epsilon=0.2, delta=0.1, c=1
N_SECOND = 231
TOTAL_SECOND = 471

# median-failure bound at nu^2 = 1/8
MOM_EIGHTH_R1 = 0.035996470825312576
MOM_EIGHTH_R2 = 0.011135840020970981
MOM_EIGHTH_R3 = 0.0039779141950104124

# draw-count lower bound at epsilon=0.1, delta=0.05, c=1
LOWER_BOUND_BASE = 229.81737539818798

# quotient-combination constants
EPS_PRIME_ONE = 0.41421356237309505  # sqrt(2) - 1
EPS_PRIME_TENTH = 0.049875621120890270
VARBOUND_3_2_30 = 0.10517091807564762  # exp(0.1) - 1

# distribution facts
LOGNORMAL_RELVAR_S1 = 1.7182818284590452  # e - 1
PARETO_MEAN_2P5 = 5.0 / 3.0
PARETO_VAR_2P5 = 20.0 / 9.0
TWO_E = 5.4365636569180905
LOGNORMAL_SHAPE_RELVAR_2E = 1.3645493043705863  # sqrt(ln(1 + 2e))


def linear_extensions_lex(p: Poset, elements=None) -> list[tuple[int, ...]]:
    """Linear extensions of the subposet induced on `elements` (default: all
    of 1..n), in lexicographic order, by checking every permutation."""
    keep = sorted(range(1, p.n + 1) if elements is None else elements)
    pairs = [(i, j) for i, j in p.relation if i in keep and j in keep]
    extensions = []
    for perm in itertools.permutations(keep):  # lexicographic, since `keep` is sorted
        position = {e: idx for idx, e in enumerate(perm)}
        if all(position[i] < position[j] for i, j in pairs):
            extensions.append(perm)
    return extensions


def count_extensions_bruteforce(p: Poset) -> int:
    """Count linear extensions by checking every permutation."""
    return len(linear_extensions_lex(p))


def poset_inputs(seed: int = 2024, count: int = 60, max_n: int = 7) -> list[tuple[int, list]]:
    """(n, pairs) inputs of poset_family: named shapes plus random orders."""
    inputs = [
        (1, []),  # chain(1)
        (4, [(1, 2), (2, 3), (3, 4)]),  # chain(4)
        (4, []),  # antichain(4)
        (4, [(1, 2), (3, 4)]),
        (2, [(1, 2)]),
        (3, []),  # antichain(3)
        (5, [(1, 2), (1, 3), (2, 4), (3, 4)]),  # diamond plus isolated 5
        (6, [(1, 4), (2, 4), (3, 4)]),  # three below one
    ]
    rng = np.random.default_rng(seed)
    while len(inputs) < count:
        n = int(rng.integers(2, max_n + 1))
        inputs.append((n, random_order_pairs(rng, n, 0.35)))
    return inputs


def random_order_pairs(rng, n: int, density: float) -> list[tuple[int, int]]:
    """Pairs of a random order on 1..n: each pair of a hidden shuffled total
    order is kept with probability `density`, so the pairs have no cycle."""
    hidden = [int(v) for v in rng.permutation(n) + 1]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                pairs.append((hidden[i], hidden[j]))
    return pairs


def poset_family(seed: int = 2024, count: int = 60, max_n: int = 7) -> list[Poset]:
    """Deterministic family of small posets, built from poset_inputs."""
    return [Poset.from_pairs(n, pairs) for n, pairs in poset_inputs(seed, count, max_n)]


def closure_reference(n: int, pairs) -> frozenset:
    """Transitive closure of `pairs` on 1..n: (i, j) for every j reachable
    from i along one or more pairs, found by a graph search from each i."""
    after = {i: set() for i in range(1, n + 1)}
    for i, j in pairs:
        after[i].add(j)
    closure = set()
    for start in range(1, n + 1):
        stack = list(after[start])
        seen = set()
        while stack:
            j = stack.pop()
            if j not in seen:
                seen.add(j)
                stack.extend(after[j])
        closure.update((start, j) for j in seen)
    return frozenset(closure)


def median_of_means_reference(draws, k: int, m: int) -> float:
    """Plain-python group means and middle order statistic."""
    draws = [float(v) for v in draws]
    assert len(draws) == k * m
    means = []
    for g in range(m):
        block = draws[g * k : (g + 1) * k]
        means.append(sum(block) / k)
    return sorted(means)[m // 2]


def coverage_reference(config) -> tuple[int, float]:
    """(failures, mean_abs_rel_error) of a coverage run, computed one
    replicate at a time on one-dimensional arrays, with the baselines'
    parameters re-derived here."""
    spec = config.spec
    plan = build_plan(spec, config.mode)
    budget = plan.k * plan.m + plan.n
    # baseline groups sized for failure 1/8, as many as an odd count allows
    mom_k = math.ceil(8.0 * spec.c * spec.c / (spec.epsilon * spec.epsilon))
    groups = budget // mom_k
    mom_k, mom_m = (budget, 1) if groups == 0 else (mom_k, groups - (groups % 2 == 0))

    def median_of_means(draws, k, m):
        return np.sort(draws.reshape(m, k).mean(axis=1))[m // 2]

    mu = config.dist.facts().true_mean
    errors = np.empty(config.replications)
    for r in range(config.replications):
        source = SampleSource(config.dist, config.seed, replicate_index=r)
        if config.estimator.value == "twostage":
            mu1 = median_of_means(source.take(plan.k * plan.m), plan.k, plan.m) / (1.0 - plan.epsilon1_sq)
            alpha = spec.epsilon / (spec.c * spec.c * mu1)
            value = np.mean(mu1 + scaled_psi(alpha, source.take(plan.n) - mu1))
        elif config.estimator.value == "mom":
            value = median_of_means(source.take(mom_k * mom_m), mom_k, mom_m)
        else:
            value = np.mean(source.take(budget))
        errors[r] = abs(float(value) - mu) / mu
    return int(np.sum(errors > spec.epsilon)), float(errors.mean())


def relvar_with_se(samples: np.ndarray) -> tuple[float, float]:
    """Empirical relative variance and a delta-method standard error."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    mean = samples.mean()
    var = samples.var()
    centred = samples - mean
    fourth = np.mean(centred**4)
    var_of_var = max(fourth - var * var, 0.0) / n
    var_of_mean = var / n
    relvar = var / (mean * mean)
    se = np.sqrt(
        var_of_var / mean**4 + 4.0 * var * var * var_of_mean / mean**6
    )
    return float(relvar), float(se)
