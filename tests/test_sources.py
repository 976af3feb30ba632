"""Determinism, facts, and moment checks for the sample sources."""

from __future__ import annotations

import math

import numpy as np
import pytest

from relmean import (
    Constant,
    InsufficientSamplesError,
    LogNormal,
    Normal,
    ParetoShape,
    Recorded,
    SampleSource,
    Scaled,
    ScaledBernoulli,
    SourceFacts,
    load_recorded,
    parse_distribution,
)
from relmean.sources import _replicate_seed_words

import oracles


def test_same_seed_identical_streams():
    for dist in [Normal(0.0, 1.0), LogNormal(1.0), ScaledBernoulli(0.2), ParetoShape(2.5)]:
        a = SampleSource(dist, seed=123).take(1000)
        b = SampleSource(dist, seed=123).take(1000)
        assert np.array_equal(a, b)
        c = SampleSource(dist, seed=124).take(1000)
        assert not np.array_equal(a, c)


def test_replicates_differ_and_are_uncorrelated():
    n = 100_000
    for dist in [Normal(10.0, 5.0), LogNormal(1.0), ParetoShape(2.5)]:
        base = SampleSource(dist, seed=55, replicate_index=0)
        sibling = SampleSource(dist, seed=55, replicate_index=1)
        x = base.take(n)
        y = sibling.take(n)
        assert not np.array_equal(x[:100], y[:100])
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 5.0 / math.sqrt(n)


def test_constant_stream():
    src = SampleSource(Constant(5.0), seed=0)
    assert np.all(src.take(10) == 5.0)
    facts = src.dist.facts()
    assert (facts.true_mean, facts.true_relvar, facts.c_bound) == (5.0, 0.0, 0.0)


def test_recorded_sequential_and_exhaustion():
    src = SampleSource(Recorded((1.0, 2.0, 3.0)), seed=0)
    assert np.array_equal(src.take(1), [1.0])
    assert np.array_equal(src.take(2), [2.0, 3.0])
    with pytest.raises(InsufficientSamplesError):
        src.take(1)


def test_writing_into_a_recorded_take_leaves_later_replays_unchanged():
    recorded = Recorded((1.0, 2.0, 3.0))
    first = SampleSource(recorded, seed=0).take(3)
    first[:] = -1.0
    assert SampleSource(recorded, seed=0).take(3).tolist() == [1.0, 2.0, 3.0]
    facts = recorded.facts()
    assert (facts.true_mean, facts.true_relvar) == (2.0, (2.0 / 3.0) / 4.0)
    assert recorded == Recorded((1.0, 2.0, 3.0)) and recorded.values == (1.0, 2.0, 3.0)


def test_recorded_validation():
    with pytest.raises(ValueError):
        Recorded(())
    with pytest.raises(ValueError):
        Recorded((1.0, math.inf))


def test_facts_pinned_values():
    normal = Normal(10.0, 5.0).facts()
    assert (normal.true_mean, normal.true_relvar, normal.c_bound) == (10.0, 0.25, 0.5)

    pareto = ParetoShape(2.5).facts()
    assert math.isclose(pareto.true_mean, oracles.PARETO_MEAN_2P5, rel_tol=1e-12)
    assert math.isclose(pareto.true_relvar, oracles.PARETO_VAR_2P5 / oracles.PARETO_MEAN_2P5**2, rel_tol=1e-12)

    lognormal = LogNormal(1.0).facts()
    assert math.isclose(lognormal.true_relvar, oracles.LOGNORMAL_RELVAR_S1, rel_tol=1e-12)
    assert math.isclose(lognormal.true_mean, math.exp(0.5), rel_tol=1e-12)

    bernoulli = ScaledBernoulli(0.2, 1.0).facts()
    assert (bernoulli.true_mean, bernoulli.true_relvar) == (0.2, 4.0)


def test_facts_domain_errors():
    with pytest.raises(ValueError):
        Normal(0.0, 1.0).facts()  # mean must be positive
    with pytest.raises(ValueError):
        Normal(-3.0, 1.0).facts()
    with pytest.raises(ValueError):
        ParetoShape(2.0).facts()  # infinite variance
    with pytest.raises(ValueError):
        Constant(-1.0).facts()


@pytest.mark.parametrize("text", ["constant:inf", "constant:-inf", "constant:nan"])
def test_constant_rejects_a_non_finite_value_when_built(text):
    with pytest.raises(ValueError, match="constant value must be finite"):
        parse_distribution(text)
    assert Constant(-3.0).value == -3.0  # a negative finite value stays legal


def test_source_facts_invariant():
    with pytest.raises(ValueError):
        SourceFacts(1.0, 4.0, 1.0)  # c_bound^2 < relvar
    SourceFacts(1.0, 4.0, 2.0)  # equality allowed


def test_empirical_moments_match_facts():
    n = 1_000_000
    for dist, seed in [
        (Normal(10.0, 5.0), 1),
        (LogNormal(1.0), 2),
        (ScaledBernoulli(0.2, 1.0), 3),
        (ParetoShape(2.5), 4),
    ]:
        facts = dist.facts()
        draws = SampleSource(dist, seed=seed).take(n)
        se = facts.true_mean * math.sqrt(facts.true_relvar / n)
        assert abs(draws.mean() - facts.true_mean) < 5.0 * se
        relvar = draws.var() / draws.mean() ** 2
        tolerance = 0.25 if isinstance(dist, ParetoShape) else 0.10
        assert abs(relvar - facts.true_relvar) < tolerance * facts.true_relvar


def test_pareto_support_and_shape():
    draws = SampleSource(ParetoShape(2.5), seed=11).take(100_000)
    assert draws.min() >= 1.0
    # tail heaviness: the observed maximum dwarfs the mean
    assert draws.max() > 20.0


def test_scaled_wrapper_is_exact_per_draw():
    base = SampleSource(LogNormal(1.0), seed=5).take(500)
    scaled = SampleSource(Scaled(LogNormal(1.0), 3.0), seed=5).take(500)
    assert np.array_equal(scaled, 3.0 * base)
    facts = Scaled(LogNormal(1.0), 3.0).facts()
    assert math.isclose(facts.true_mean, 3.0 * math.exp(0.5), rel_tol=1e-12)
    assert math.isclose(facts.true_relvar, oracles.LOGNORMAL_RELVAR_S1, rel_tol=1e-12)


def test_load_recorded_round_trip(tmp_path):
    path = tmp_path / "values.txt"
    path.write_text("1.5\n\n-2.25\n3e-2\n", encoding="ascii")
    recorded = load_recorded(path)
    assert recorded.values == (1.5, -2.25, 0.03)
    bad = tmp_path / "bad.txt"
    bad.write_text("x\n", encoding="ascii")
    with pytest.raises(ValueError):
        load_recorded(bad)


def test_parse_distribution_forms():
    assert parse_distribution("constant:5") == Constant(5.0)
    assert parse_distribution("normal:100,50") == Normal(100.0, 50.0)
    assert parse_distribution("lognormal:1") == LogNormal(1.0)
    assert parse_distribution("bernoulli:0.2") == ScaledBernoulli(0.2, 1.0)
    assert parse_distribution("bernoulli:0.2,3") == ScaledBernoulli(0.2, 3.0)
    assert parse_distribution("pareto:2.5") == ParetoShape(2.5)


def test_parse_distribution_errors():
    for bad in ["", "gauss:1", "normal:1", "constant:abc", "pareto:", "recorded:"]:
        with pytest.raises(ValueError):
            parse_distribution(bad)


def test_parse_round_trips_spec_string():
    for dist in [Constant(5.0), Normal(100.0, 50.0), LogNormal(1.0), ScaledBernoulli(0.2, 1.0), ParetoShape(2.5)]:
        assert parse_distribution(dist.spec_string) == dist


def test_distribution_validation():
    with pytest.raises(ValueError):
        Normal(1.0, -1.0)
    with pytest.raises(ValueError):
        ScaledBernoulli(0.0)
    with pytest.raises(ValueError):
        ScaledBernoulli(1.5)
    with pytest.raises(ValueError):
        ParetoShape(0.0)
    with pytest.raises(ValueError):
        Scaled(LogNormal(1.0), 0.0)


# seeds of 1 to 4 32-bit entropy words, which fill the pool, and of 6,
# whose last words are mixed in after it; replicate indices up to the
# largest one spawn-key word holds
SEEDER_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**62 - 1, 2**64 + 5, 2**127 + 3, 2**160 + 9]
SEEDER_REPLICATES = [0, 1, 7, 999, 2**32 - 1]


@pytest.mark.parametrize("seed", SEEDER_SEEDS)
def test_batched_seeder_matches_seed_sequence(seed):
    words = _replicate_seed_words(seed, np.array(SEEDER_REPLICATES))
    assert words.shape == (len(SEEDER_REPLICATES), 4) and words.dtype == np.uint64
    dist = LogNormal(1.0)
    for row, r in zip(words, SEEDER_REPLICATES):
        sequence = np.random.SeedSequence(entropy=seed, spawn_key=(r,))
        assert np.array_equal(row, sequence.generate_state(4, np.uint64)), r
        reference = SampleSource(dist, seed, r)
        batched = SampleSource(dist, seed, r, row)
        assert batched._rng.bit_generator.state == reference._rng.bit_generator.state
        assert np.array_equal(batched.take(50), reference.take(50)), r


def test_stream_seed_and_index_must_be_nonnegative():
    with pytest.raises(ValueError, match="seed"):
        SampleSource(LogNormal(1.0), seed=-1)
    with pytest.raises(ValueError, match="seed"):
        SampleSource(Recorded((1.0, 2.0)), seed=-1)
    with pytest.raises(ValueError, match="replicate_index"):
        SampleSource(LogNormal(1.0), seed=0, replicate_index=-1)


def test_stream_seed_and_index_must_be_integers():
    dist = LogNormal(1.0)
    for bad in (1.5, 2.0, "7"):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            SampleSource(dist, bad)
        with pytest.raises(ValueError, match="replicate_index must be a nonnegative integer"):
            SampleSource(dist, 0, bad)
    # numpy integers name the same stream as Python ints
    assert np.array_equal(SampleSource(dist, np.uint64(7), np.int32(2)).take(5), SampleSource(dist, 7, 2).take(5))


def test_scaled_recorded_replays_scaled_prefix():
    values = (0.1, 0.7, 1.3, 2.9)
    src = SampleSource(Scaled(Scaled(Recorded(values), 0.1), 3.0), seed=0)
    # the same multiplication order as Scaled.sample: outer factor last
    expected = 3.0 * (0.1 * np.asarray(values))
    assert np.array_equal(src.take(3), expected[:3])
    assert np.array_equal(src.take(1), expected[3:])
    with pytest.raises(InsufficientSamplesError, match="holds 4 values, needed 5"):
        src.take(1)
