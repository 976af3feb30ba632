"""Product estimator, posets, linear-extension counting, and the quotient combiner."""

from __future__ import annotations

import itertools
import math
import os
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from relmean import (
    NestedChain,
    Poset,
    PosetSizeError,
    ProductEstimateSource,
    counting,
    eps_prime,
    gibbs_combine,
    linext_approx_count,
    linext_chain,
    linext_count_exact,
    linext_uniform_sample,
    product_variance_bound,
)

import oracles


def bernoulli_sampler(rate: float):
    def sampler(rng, n, m):
        return (rng.random((n, m)) < rate).astype(float).mean(axis=1)

    return sampler


def bernoulli_chain(rates) -> NestedChain:
    return NestedChain(
        samplers=tuple(bernoulli_sampler(r) for r in rates),
        known_terminal=1.0,
        max_inverse_ratio=1.0 / min(rates),
    )


# ---------------------------------------------------------------- product estimator


def test_product_estimate_sure_chain():
    chain = bernoulli_chain([1.0, 1.0, 1.0])
    assert all((ProductEstimateSource(chain, 5, seed).take(4) == 1.0).all() for seed in range(20))


def test_product_estimate_validation():
    chain = bernoulli_chain([0.5])
    with pytest.raises(ValueError):
        ProductEstimateSource(chain, 0, seed=1)
    with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, inf\), got -1$"):
        ProductEstimateSource(chain, 5, seed=-1)
    with pytest.raises(ValueError):
        NestedChain(samplers=(), known_terminal=1.0, max_inverse_ratio=2.0)
    with pytest.raises(ValueError):
        NestedChain(samplers=(bernoulli_sampler(0.5),), known_terminal=0.0, max_inverse_ratio=2.0)


def test_product_seed_and_index_must_be_integers():
    chain = bernoulli_chain([0.5])
    for bad in (1.5, "7"):
        with pytest.raises(ValueError, match=rf"^seed must be an integer in \[0, inf\), got {re.escape(repr(bad))}$"):
            ProductEstimateSource(chain, 5, seed=bad)
        with pytest.raises(ValueError, match=rf"^replicate_index must be an integer in \[0, inf\), got {re.escape(repr(bad))}$"):
            ProductEstimateSource(chain, 5, seed=0, replicate_index=bad)
    assert np.array_equal(ProductEstimateSource(chain, 5, np.uint8(4), np.int16(1)).take(3),
                          ProductEstimateSource(chain, 5, 4, 1).take(3))


def test_fair_coin_law():
    # single level, two draws: the estimate is 0, 1/2 or 1 with probabilities 1/4, 1/2, 1/4
    chain = bernoulli_chain([0.5])
    draws = ProductEstimateSource(chain, m_per_level=2, seed=101).take(100_000)
    for value, prob in [(0.0, 0.25), (0.5, 0.5), (1.0, 0.25)]:
        freq = float(np.mean(draws == value))
        assert abs(freq - prob) < 3.0 * math.sqrt(prob * (1 - prob) / len(draws))


def test_product_estimator_exactly_unbiased_by_enumeration():
    # enumerate every indicator outcome; expectation must equal the ratio product
    for rates, m in [((Fraction(1, 2), Fraction(1, 2)), 2), ((Fraction(1, 2), Fraction(1, 3)), 2), ((Fraction(1, 3),), 3)]:
        k = len(rates)
        expectation = Fraction(0)
        for outcome in itertools.product((0, 1), repeat=k * m):
            prob = Fraction(1)
            estimate = Fraction(1)
            for level in range(k):
                block = outcome[level * m : (level + 1) * m]
                for b in block:
                    prob *= rates[level] if b else 1 - rates[level]
                estimate *= Fraction(sum(block), m)
            expectation += prob * estimate
        assert expectation == math.prod(rates)


def test_product_estimate_mean_matches_ratio():
    chain = bernoulli_chain([0.5, 0.5])
    draws = ProductEstimateSource(chain, m_per_level=10_000, seed=5).take(1000)
    se = draws.std() / math.sqrt(len(draws))
    assert abs(draws.mean() - 0.25) < 3.0 * se


def test_variance_bound_values():
    assert math.isclose(product_variance_bound(3, 2.0, 30), oracles.VARBOUND_3_2_30, rel_tol=1e-12)
    assert product_variance_bound(5, 1.0, 7) == 0.0
    values = [product_variance_bound(3, 2.0, m) for m in [10, 30, 100, 1000]]
    assert all(a > b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        product_variance_bound(0, 2.0, 10)
    with pytest.raises(ValueError):
        product_variance_bound(3, 0.5, 10)


@pytest.mark.parametrize(
    "k, max_inverse_ratio, m", [(1, 1000.0, 1), (3, 238.0, 1), (10**300, 1e300, 1)], ids=["one-level", "three-levels", "infinite-exponent"]
)
def test_a_variance_bound_beyond_the_float_range_is_named(k, max_inverse_ratio, m):
    # exp(k (M - 1) / m) overflows, or its exponent does: math.expm1 raised
    # a bare OverflowError, or returned inf
    with pytest.raises(ValueError, match=re.escape(f"overflows a float at k = {k}, M = {max_inverse_ratio!r}, m = {m}")):
        product_variance_bound(k, max_inverse_ratio, m)


def test_a_chain_whose_variance_bound_overflows_is_named():
    assert product_variance_bound(3, 238.0, 2) == math.expm1(355.5)
    chain = NestedChain((bernoulli_sampler(0.5),) * 3, 1.0, 238.0)
    with pytest.raises(ValueError, match=r"overflows a float at k = 3, M = 238\.0, m = 1$"):
        counting._chain_c(chain, 1)


def test_empirical_relvar_respects_bound():
    rng_cases = [
        ((0.5,), 10),
        ((0.5,), 100),
        ((1 / 3,), 10),
        ((0.5, 1 / 3), 10),
        ((0.5, 0.5, 1 / 3), 10),
        ((1 / 3, 1 / 3, 1 / 3), 100),
    ]
    for rates, m in rng_cases:
        chain = bernoulli_chain(rates)
        bound = product_variance_bound(len(rates), chain.max_inverse_ratio, m)
        draws = ProductEstimateSource(chain, m, seed=2000 + m).take(50_000)
        relvar, se = oracles.relvar_with_se(draws)
        assert relvar <= bound + 3.0 * se, (rates, m, relvar, bound, se)


# ---------------------------------------------------------------- posets


def test_from_pairs_takes_transitive_closure():
    p = Poset.from_pairs(3, [(1, 2), (2, 3)])
    assert (1, 3) in p.relation
    assert len(p.relation) == 3


def test_cycle_rejected():
    with pytest.raises(ValueError, match="cycle"):
        Poset.from_pairs(3, [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(ValueError, match="cycle"):
        Poset.from_pairs(2, [(1, 1)])


def test_raw_relation_validated():
    # bit i-1 of preds[j-1]: element i comes before element j
    assert Poset((0b000, 0b001, 0b011)) == Poset.chain(3)
    with pytest.raises(ValueError, match="transitively closed"):
        Poset((0b000, 0b001, 0b010))  # 1 < 2 < 3 without 1 < 3
    with pytest.raises(ValueError):
        Poset((0b10, 0b01))  # 1 < 2 and 2 < 1
    with pytest.raises(ValueError, match="outside"):
        Poset((0b000, 0b100))  # 3 < 2 in a 2-element poset


def test_closure_matches_reachability():
    cases = oracles.poset_inputs()
    rng = np.random.default_rng(77)
    cases += [(10, oracles.random_order_pairs(rng, 10, 0.2)) for _ in range(200)]
    for n, pairs in cases:
        assert Poset.from_pairs(n, pairs).relation == oracles.closure_reference(n, pairs), (n, pairs)


def test_poset_text_format():
    p = Poset.from_text("4\n1 2\n3 4\n")
    assert p == Poset.from_pairs(4, [(1, 2), (3, 4)])
    with pytest.raises(ValueError):
        Poset.from_text("")
    with pytest.raises(ValueError, match=r"^n must be an integer in \[1, inf\), got 0$"):
        Poset.from_text("0\n")
    with pytest.raises(ValueError):
        Poset.from_text("three\n1 2\n")
    with pytest.raises(ValueError):
        Poset.from_text("3\n1 2 3\n")


def test_poset_text_names_a_bad_pair_line():
    for line in ["1.5 2", "x 2", "1 2 3", "1"]:
        with pytest.raises(ValueError, match=f"line 3: expected an `i j` pair of integers, got '{line}'"):
            Poset.from_text(f"3\n\n{line}\n")
    with pytest.raises(ValueError, match=r"line 4: pair \(2, 9\) is outside 1..3"):
        Poset.from_text("3\n1 2\n\n2 9\n")
    with pytest.raises(ValueError, match="line 2: expected the element count, got 'three'"):
        Poset.from_text("\nthree\n1 2\n")


def test_poset_file_round_trip(tmp_path):
    path = tmp_path / "poset.txt"
    path.write_text("4\n1 2\n2 3\n", encoding="ascii")
    p = Poset.from_text(path.read_text(encoding="ascii"))
    assert linext_count_exact(p) == 4  # element 4 floats freely in a 3-chain


def test_exact_counts_named_posets():
    assert linext_count_exact(Poset.chain(4)) == 1
    assert linext_count_exact(Poset.antichain(4)) == 24
    assert linext_count_exact(Poset.from_pairs(4, [(1, 2), (3, 4)])) == 6


def test_exact_count_matches_bruteforce_on_family():
    family = oracles.poset_family()
    assert len(family) >= 50
    for p in family:
        assert linext_count_exact(p) == oracles.count_extensions_bruteforce(p)


def test_desk_scale_cap():
    big = Poset.antichain(11)
    with pytest.raises(PosetSizeError):
        linext_count_exact(big)
    with pytest.raises(PosetSizeError):
        linext_uniform_sample(big, seed=0)
    with pytest.raises(PosetSizeError):
        linext_approx_count(big, 0.2, 0.1, 10, seed=0)


def test_uniform_sample_chain_is_identity():
    chain = Poset.chain(4)
    for seed in range(10):
        assert linext_uniform_sample(chain, seed) == (1, 2, 3, 4)


def test_uniform_sample_rejects_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, inf\), got -1$"):
        linext_uniform_sample(Poset.chain(4), -1)


def test_uniform_sample_rejects_non_integer_seed():
    p = Poset.from_pairs(4, [(1, 2), (3, 4)])
    for bad in (1.5, "7"):
        with pytest.raises(ValueError, match=rf"^seed must be an integer in \[0, inf\), got {re.escape(repr(bad))}$"):
            linext_uniform_sample(p, bad)
    assert linext_uniform_sample(p, np.int64(3)) == linext_uniform_sample(p, 3)


def _frequencies_are_uniform(p: Poset, draws: int, seed0: int):
    valid = oracles.linear_extensions_lex(p)
    counts = {e: 0 for e in valid}
    for s in range(draws):
        counts[linext_uniform_sample(p, seed0 + s)] += 1
    target = 1.0 / len(valid)
    band = 3.0 * math.sqrt(target * (1 - target) / draws)
    for e, c in counts.items():
        assert abs(c / draws - target) < band, (e, c / draws, target)


def test_uniform_sample_frequencies_antichain3():
    _frequencies_are_uniform(Poset.antichain(3), draws=60_000, seed0=10_000)


def test_uniform_sample_frequencies_two_chains():
    _frequencies_are_uniform(Poset.from_pairs(4, [(1, 2), (3, 4)]), draws=60_000, seed0=90_000)


def test_reduction_ratios_at_least_one_over_n():
    # every chain level keeps at least a 1/n share, checked with exact counts
    for p in oracles.poset_family(count=50, max_n=6):
        remaining = set(range(1, p.n + 1))
        while remaining:
            live_pairs = [(i, j) for i, j in p.relation if i in remaining and j in remaining]
            blocked = {i for i, _ in live_pairs}
            pinned = min(e for e in remaining if e not in blocked)
            before = len(oracles.linear_extensions_lex(p, remaining))
            after = len(oracles.linear_extensions_lex(p, remaining - {pinned}))
            assert Fraction(after, before) >= Fraction(1, p.n)
            remaining.remove(pinned)


def test_uniform_sample_unranks_lexicographic_order():
    # seeded contract: a uniform rank into the lexicographic list of extensions
    for p in oracles.poset_family():
        lex = oracles.linear_extensions_lex(p)
        for seed in range(3):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
            assert linext_uniform_sample(p, seed) == lex[int(rng.integers(0, len(lex)))]


def _levels_with_flags(p: Poset):
    """(sampler, flags) per level of linext_chain(p): the flags say, for each
    extension of the remaining subposet in lexicographic order, whether the
    level's pinned element comes last."""
    remaining = set(range(1, p.n + 1))
    levels = []
    for sampler in linext_chain(p).samplers:
        blocked = {i for i, j in p.relation if i in remaining and j in remaining}
        pinned = min(remaining - blocked)
        levels.append((sampler, np.array([ext[-1] == pinned for ext in oracles.linear_extensions_lex(p, remaining)])))
        remaining.remove(pinned)
    assert not remaining
    return levels


def _assert_level_matches_flags(sampler, flags, n, m, seed):
    # the level's n means equal the bool mean of one (n, m) block of ranks
    # into its flags, and the stream ends where that block leaves it
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = sampler(rng, n, m)
    expected = flags[ref.integers(0, len(flags), size=(n, m))].mean(axis=1)
    assert drawn.dtype == np.float64 and drawn.tobytes() == expected.tobytes(), (n, m, seed)
    assert rng.bit_generator.state == ref.bit_generator.state, (n, m, seed)
    assert rng.random() == ref.random(), (n, m, seed)


def test_chain_levels_index_lexicographic_pinned_last_flags():
    # seeded contract: each level averages "pinned element is last" flags of
    # the remaining subposet's extensions, in lexicographic order; this holds
    # on the last level (one extension, nothing drawn) and on levels whose
    # flags are all true (ranks drawn, nothing gathered) too
    rng = np.random.default_rng(25)
    random_posets = [
        Poset.from_pairs(n, oracles.random_order_pairs(rng, n, float(rng.uniform(0.1, 0.5))))
        for n in rng.integers(3, 8, size=30).tolist()
    ]
    kinds = set()
    for p in oracles.poset_family() + random_posets:
        for level, (sampler, flags) in enumerate(_levels_with_flags(p)):
            kinds.add("single" if len(flags) == 1 else "sure" if flags.all() else "mixed")
            for n, m in [(4, 25), (3, 1), (1, 7)]:
                _assert_level_matches_flags(sampler, flags, n, m, seed=level)
    assert kinds == {"single", "sure", "mixed"}


@pytest.mark.parametrize("limit", [1, 7, 64])
def test_level_counts_in_row_groups_equal_one_block(monkeypatch, limit):
    # a level draws and counts its ranks in row groups of at most
    # _GROUP_INDICATORS indicators, and at least one row: whether the groups
    # split the rows evenly, unevenly or not at all, the means are those of
    # one (n, m) block and the stream stops where that block leaves it
    monkeypatch.setattr(counting, "_GROUP_INDICATORS", limit)
    kinds = set()
    for p in oracles.poset_family():
        for level, (sampler, flags) in enumerate(_levels_with_flags(p)):
            kinds.add("single" if len(flags) == 1 else "sure" if flags.all() else "mixed")
            for n, m in [(9, 1), (9, 3), (5, 7), (3, 8), (2, 65), (1, 64)]:
                _assert_level_matches_flags(sampler, flags, n, m, seed=level)
    assert kinds == {"single", "sure", "mixed"}


@pytest.mark.parametrize("n, m", [(512, 2**14), (3, 2**20)])
def test_a_level_call_holds_at_most_one_row_group(n, m):
    # 512 rows of 2**14 indicators are 109 MB as one block; in row groups of
    # 2**20 indicators, 13 bytes each, a call holds about 13.6 MB, plus the m
    # float32 ones it counts against, its n counts and means, and 64 kB
    sampler = linext_chain(Poset.antichain(4)).samplers[0]
    rng = np.random.default_rng(3)
    sampler(rng, 2, 8)
    tracemalloc.start()
    try:
        means = sampler(rng, n, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert means.shape == (n,) and 0.0 < means.mean() < 1.0
    assert peak <= 2**20 * 13 + 4 * m + 16 * n + 2**16, peak


def test_antichain_at_the_size_cap():
    p = Poset.antichain(10)
    assert linext_count_exact(p) == math.factorial(10)
    assert sorted(linext_uniform_sample(p, seed=0)) == list(range(1, 11))
    estimate = linext_approx_count(p, 0.2, 0.1, 100, seed=0)
    assert abs(estimate - math.factorial(10)) <= 0.2 * math.factorial(10)


def test_a_chain_build_frees_its_memo_before_it_makes_the_flag_tables():
    # the memo of last elements outweighs the flag tables; freed first, it
    # leaves the build's peak near 2.5 times what the chain keeps, where a
    # memo alive alongside the tables reads about 3.4
    tracemalloc.start()
    try:
        chain = linext_chain.__wrapped__(Poset.antichain(10))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chain.k == 10
    assert peak <= 2.7 * held, (peak, held)


def test_chain_levels_count():
    chain = linext_chain(Poset.antichain(4))
    assert chain.k == 4
    assert chain.known_terminal == 1.0
    assert chain.max_inverse_ratio == 4.0


def test_the_chain_cache_is_bounded_and_a_recount_right_after_a_count_hits():
    bound = linext_chain.cache_info().maxsize
    assert bound is not None and bound <= 8  # an antichain(10) chain holds about 4 MB
    posets = [Poset.chain(n) for n in range(2, 11)] + [Poset.antichain(n) for n in range(2, 5)]
    assert len(set(posets)) > bound
    linext_chain.cache_clear()
    for seed, p in enumerate(posets):
        linext_approx_count(p, 0.2, 0.1, 20, seed=seed)
        hits = linext_chain.cache_info().hits
        linext_approx_count(p, 0.2, 0.1, 20, seed=seed + 100)
        assert linext_chain.cache_info().hits == hits + 1
    assert linext_chain.cache_info().currsize == bound


def test_approx_count_chain_poset_is_tight():
    p = Poset.chain(5)
    for seed in range(5):
        estimate = linext_approx_count(p, 0.2, 0.1, 50, seed=seed)
        assert abs(estimate - 1.0) <= 0.2


def test_approx_count_single_element():
    assert linext_approx_count(Poset.chain(1), 0.2, 0.1, 10, seed=0) == 1.0


def test_approx_count_two_chains_single_run():
    p = Poset.from_pairs(4, [(1, 2), (3, 4)])
    estimate = linext_approx_count(p, 0.2, 0.1, 100, seed=3)
    assert abs(estimate - 6.0) <= 0.2 * 6.0


def test_approx_count_deterministic():
    p = Poset.antichain(3)
    a = linext_approx_count(p, 0.2, 0.1, 100, seed=12)
    b = linext_approx_count(p, 0.2, 0.1, 100, seed=12)
    assert a == b


def test_approx_count_rejects_a_plan_over_the_indicator_budget():
    # m = 1 on six elements: c^2 = expm1(30) and a 3.7e15-draw plan, whose
    # indicators (54,000 times the 2**36 budget) are refused before any
    # product is drawn
    c = math.sqrt(math.expm1(30.0))
    with pytest.raises(ValueError) as info:
        linext_approx_count(Poset.antichain(6), 0.2, 0.1, 1, seed=0)
    message = str(info.value)
    assert "n = 6 elements at m_per_level = 1" in message
    assert f"c = {c:.6g}" in message
    assert "3746196732326232 draws" in message
    # the shortcut and the size cap come first
    assert linext_approx_count(Poset.antichain(1), 0.2, 0.1, 1, seed=0) == 1.0
    with pytest.raises(PosetSizeError):
        linext_approx_count(Poset.antichain(11), 0.2, 0.1, 1, seed=0)


def test_approx_count_budget_check_admits_a_charge_up_to_the_budget(monkeypatch):
    p = Poset.antichain(3)
    expected = linext_approx_count(p, 0.2, 0.1, 100, seed=12)
    spec = counting.ApproxSpec(0.2, 0.1, counting._chain_c(linext_chain(p), 100))
    draws = counting.build_plan(spec).total_samples
    monkeypatch.setattr(counting, "_INDICATOR_BUDGET", draws * 100)
    assert linext_approx_count(p, 0.2, 0.1, 100, seed=12) == expected
    monkeypatch.setattr(counting, "_INDICATOR_BUDGET", draws * 100 - 1)
    with pytest.raises(ValueError, match=f"{draws} draws, whose {draws * 100} indicators exceed the budget of "
                                         f"{draws * 100 - 1} a count may draw"):
        linext_approx_count(p, 0.2, 0.1, 100, seed=12)


def test_the_indicator_budget_is_the_same_on_every_host(monkeypatch):
    # no host memory enters the refusal: without os.sysconf a huge plan is
    # still refused, and a 1.1e9-indicator count whose takes hold about
    # 20 MB is admitted (by the check alone; the count takes about a minute)
    monkeypatch.delattr(os, "sysconf")
    monkeypatch.setattr(counting, "estimate_mean", lambda *args: pytest.fail("the count was not refused"))
    with pytest.raises(ValueError, match="raise m_per_level$"):
        linext_approx_count(Poset.antichain(6), 0.2, 0.1, 1, seed=0)
    chain = linext_chain(Poset.antichain(10))
    spec, draws = counting._count_plan(chain, 100, 0.002, 1e-6, counting.Mode.STRICT)
    assert draws == 11_421_543
    counting._check_indicator_budget(chain, 100, spec, draws, counting.Mode.STRICT)


def _indicators(n, m):
    spec = counting.ApproxSpec(0.2, 0.1, counting._chain_c(linext_chain(Poset.antichain(n)), m))
    return counting.build_plan(spec).total_samples * m


@pytest.mark.parametrize("m, advice", [(1, "raise"), (2**20, "lower")])
def test_budget_refusal_names_the_direction_of_fewer_indicators(monkeypatch, m, advice):
    # a small m_per_level plans many draws (3.7e15 at m = 1, refused under the
    # real budget), a wide one makes each draw wide (refused under a budget of 0)
    if advice == "lower":
        monkeypatch.setattr(counting, "_INDICATOR_BUDGET", 0)
    with pytest.raises(ValueError, match=rf"a count may draw; {advice} m_per_level$"):
        linext_approx_count(Poset.antichain(6), 0.2, 0.1, m, seed=0)
    better = 2 * m if advice == "raise" else m // 2
    assert _indicators(6, better) < _indicators(6, m)


def test_budget_refusal_weighs_no_double_above_the_m_per_level_range(monkeypatch):
    # twice 2**20 is no m_per_level, so only half of 2**20 is weighed
    monkeypatch.setattr(counting, "_INDICATOR_BUDGET", 0)
    with pytest.raises(ValueError, match=r"a count may draw; lower m_per_level$"):
        linext_approx_count(Poset.antichain(3), 0.2, 0.1, 2**20, 1)


def test_budget_refusal_advice_follows_the_indicator_count(monkeypatch):
    # on antichain(6) at eps = 0.2, delta = 0.1 the indicator count is least
    # at m = 45; under a limit that refuses every m, the advice points from
    # either side towards it, and near it asks for a looser accuracy
    counts = {m: _indicators(6, m) for m in range(1, 401)}
    assert min(counts, key=counts.get) == 45
    assert counts[2] < counts[1] and counts[40] < counts[20]
    assert min(counts[22], counts[90]) >= counts[45] and min(counts[30], counts[120]) >= counts[60]
    assert counts[100] < counts[200] <= counts[400]
    monkeypatch.setattr(counting, "_INDICATOR_BUDGET", counts[45] - 1)
    neither = "neither half nor twice m_per_level plans fewer; raise epsilon or delta"
    for m, advice in [(1, "raise m_per_level"), (20, "raise m_per_level"), (45, neither), (60, neither),
                      (200, "lower m_per_level")]:
        with pytest.raises(ValueError, match=rf"a count may draw; {advice}$"):
            linext_approx_count(Poset.antichain(6), 0.2, 0.1, m, seed=0)


M_PER_LEVEL_ENTRIES = {
    "linext_approx_count": lambda p, m: linext_approx_count(p, 0.2, 0.1, m, 0),
    "ProductEstimateSource": lambda p, m: ProductEstimateSource(linext_chain(p), m, 0).take(2),
}


@pytest.mark.parametrize("entry", M_PER_LEVEL_ENTRIES)
def test_m_per_level_is_an_integer_in_one_to_two_to_the_twenty(entry):
    # a row of 2**20 indicators fills one row group; a wider m_per_level, up
    # to one beyond the float range, is refused by name before any draw
    call = M_PER_LEVEL_ENTRIES[entry]
    for m, shown in ((0, "0"), (2**20 + 1, "1048577"), (10**400, "a 1329-bit integer")):
        with pytest.raises(ValueError, match=rf"^m_per_level must be an integer in \[1, 1048576\], got {shown}$"):
            call(Poset.antichain(3), m)
        with pytest.raises(ValueError, match=rf"^m_per_level must be an integer in \[1, 1048576\], got {shown}$"):
            call(Poset.antichain(1), m)
    assert call(Poset.chain(3), 2**20) == pytest.approx(1.0)
    assert np.all(call(Poset.antichain(2), 1) >= 0.0)
    assert ProductEstimateSource(linext_chain(Poset.antichain(3)), 2**20, 0).take(2).shape == (2,)


def test_product_variance_bound_rejects_arguments_beyond_the_float_range():
    # 10**400 used to raise OverflowError inside product_variance_bound
    with pytest.raises(ValueError, match=r"^m must be an integer in \[1, 1\.7976931348623157e\+308\], got a 1329-bit integer$"):
        product_variance_bound(3, 2.0, 10**400)
    with pytest.raises(ValueError, match=r"^k must be an integer in \[1, 1\.7976931348623157e\+308\], got a 1329-bit integer$"):
        product_variance_bound(10**400, 2.0, 3)


# ---------------------------------------------------------------- quotient combiner


def test_eps_prime_pinned():
    assert math.isclose(eps_prime(1.0), oracles.EPS_PRIME_ONE, rel_tol=1e-12)
    assert math.isclose(eps_prime(0.1), oracles.EPS_PRIME_TENTH, rel_tol=1e-12)


def test_eps_prime_domain():
    for bad in [0.0, -0.2, 1.5]:
        with pytest.raises(ValueError):
            eps_prime(bad)


def test_eps_prime_inequality_grid():
    grid = np.linspace(0.001, 1.0, 1000)
    for eps in grid:
        lhs = eps_prime(float(eps))
        rhs = eps / 2.0 - eps**3 * (1.5 - math.sqrt(2.0))
        assert lhs <= rhs + 1e-12


def test_gibbs_combine_identity_at_zero():
    assert gibbs_combine(3.0, 3.0, 0.0) == 1.0


def test_gibbs_combine_validation():
    with pytest.raises(ValueError):
        gibbs_combine(0.0, 1.0, 0.2)
    with pytest.raises(ValueError):
        gibbs_combine(1.0, -1.0, 0.2)
    with pytest.raises(ValueError):
        gibbs_combine(1.0, 1.0, 1.5)
    # a quotient that underflows to 0 or overflows to inf was returned
    for mu_w, mu_v in [(1e-300, 1e300), (1e300, 1e-300)]:
        with pytest.raises(ValueError, match=r"^the quotient mu_w / mu_v = "):
            gibbs_combine(mu_w, mu_v, 0.1)


def test_gibbs_combine_worst_case_endpoints():
    true_w, true_v = 3.7, 1.3
    truth = true_w / true_v
    for eps in np.linspace(0.001, 1.0, 500):
        eps = float(eps)
        ep = eps_prime(eps)
        upper = gibbs_combine(true_w * (1.0 + ep), true_v * (1.0 - ep), eps)
        lower = gibbs_combine(true_w * (1.0 - ep), true_v * (1.0 + ep), eps)
        assert upper <= truth * (1.0 + eps) + 1e-12 * truth
        assert lower >= truth * (1.0 - eps) - 1e-12 * truth


def test_gibbs_combine_contract_under_valid_inputs():
    # any pair of estimates within eps_prime of their means stays inside the window
    rng = np.random.default_rng(8)
    true_w, true_v = 5.0, 2.0
    for _ in range(500):
        eps = float(rng.uniform(0.01, 1.0))
        ep = eps_prime(eps)
        mu_w = true_w * (1.0 + float(rng.uniform(-ep, ep)))
        mu_v = true_v * (1.0 + float(rng.uniform(-ep, ep)))
        combined = gibbs_combine(mu_w, mu_v, eps)
        truth = true_w / true_v
        assert truth * (1.0 - eps) - 1e-12 <= combined <= truth * (1.0 + eps) + 1e-12
