"""Approximate counting through nested-set reduction.

A counting problem is reduced to a chain of shrinking sets whose final
size is known.  Each level contributes the fraction of uniform draws that
survive into the next level; the product of those fractions estimates the
terminal-to-initial size ratio, and its relative variance is bounded in
closed form.  Feeding independent product estimates into the two-stage
mean estimator yields a certified approximate count.  Posets and their
linear extensions provide the worked, desk-scale instance, with an exact
dynamic program over downsets as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable

import numpy as np

from .estimator import ApproxSpec, Mode, _check_accuracy, estimate_mean
from .sources import _integer, _replicate_rng

DESK_SCALE_LIMIT = 10

__all__ = [
    "DESK_SCALE_LIMIT",
    "PosetSizeError",
    "NestedChain",
    "ProductEstimateSource",
    "product_variance_bound",
    "Poset",
    "linext_count_exact",
    "linext_uniform_sample",
    "linext_chain",
    "linext_approx_count",
    "eps_prime",
    "gibbs_combine",
]


class PosetSizeError(ValueError):
    """Linear-extension operations are capped at DESK_SCALE_LIMIT elements.

    Each level of linext_chain keeps one flag per linear extension of its
    subposet, up to 10! entries at n = 10; that table, indexed in
    lexicographic order, is what keeps seeded results identical.
    """


# A sampler draws `size` membership indicators for its level: each entry is 1
# when a fresh uniform draw from the level's set lands in the next level.
Sampler = Callable[[np.random.Generator, tuple[int, ...]], np.ndarray]


@dataclass(frozen=True)
class NestedChain:
    """Chain of shrinking sets, one membership sampler per level.

    `known_terminal` is the exact size of the final set and
    `max_inverse_ratio` bounds every level: each survival ratio is at least
    1 / max_inverse_ratio.
    """

    samplers: tuple[Sampler, ...]
    known_terminal: float
    max_inverse_ratio: float

    def __post_init__(self) -> None:
        if len(self.samplers) < 1:
            raise ValueError("a chain needs at least one level")
        if not self.known_terminal > 0.0:
            raise ValueError("known_terminal must be positive")
        if not self.max_inverse_ratio >= 1.0:
            raise ValueError("max_inverse_ratio must be at least 1")

    @property
    def k(self) -> int:
        return len(self.samplers)


def _product_draws(chain: NestedChain, rng: np.random.Generator, n: int, m_per_level: int) -> np.ndarray:
    """n independent product estimates, all levels' indicators drawn as (n, m_per_level) blocks.

    Each multiplies the level averages, an unbiased estimate of (terminal
    size / initial size).  A zero average at any level makes the product 0,
    which is a legal sample; resampling it away would bias the estimator.
    """
    out = np.ones(n)
    for sampler in chain.samplers:
        out *= sampler(rng, (n, m_per_level)).mean(axis=1)
    return out


def product_variance_bound(k: int, max_inverse_ratio: float, m: int) -> float:
    """Relative-variance bound exp(k (M - 1) / m) - 1 for the product estimate,
    valid whenever every level ratio is at least 1/M."""
    k = _integer("k", k, 1)
    m = _integer("m", m, 1)
    if not max_inverse_ratio >= 1.0:
        raise ValueError("max_inverse_ratio must be at least 1")
    return math.expm1(k * (max_inverse_ratio - 1.0) / m)


def _chain_c(n: int, m_per_level: int) -> float:
    """The c of linext_chain on n elements: the root of the product bound with
    k = M = n; 0.0 at n = 1, where nothing is estimated."""
    return math.sqrt(product_variance_bound(n, float(n), m_per_level))


class ProductEstimateSource:
    """Stream of independent product estimates for one chain.

    Each draw costs k * m_per_level membership indicators; take(n) vectorises
    the whole batch.  Follows the SampleSource protocol (take), so the stream
    can drive estimate_mean directly.
    """

    def __init__(self, chain: NestedChain, m_per_level: int, seed: int, replicate_index: int = 0):
        self.m_per_level = _integer("m_per_level", m_per_level, 1)
        self._rng = _replicate_rng(_integer("seed", seed), _integer("replicate_index", replicate_index))
        self.chain = chain

    def take(self, n: int) -> np.ndarray:
        return _product_draws(self.chain, self._rng, _integer("draw count n", n), self.m_per_level)


@dataclass(frozen=True)
class Poset:
    """Partial order on elements 1..n, stored as closed predecessor bit masks.

    Bit i-1 of `preds[j-1]` is set when element i comes before element j.
    The masks are irreflexive and transitively closed (validated), which
    makes the order antisymmetric.  Build instances with from_pairs /
    from_text / chain / antichain rather than passing raw masks.
    """

    preds: tuple[int, ...]

    def __post_init__(self) -> None:
        preds = tuple(_integer("predecessor mask", mask) for mask in self.preds)
        object.__setattr__(self, "preds", preds)
        n = len(preds)
        if n < 1:
            raise ValueError("a poset needs at least one element")
        for j, mask in enumerate(preds):
            if not 0 <= mask < 1 << n:
                raise ValueError(f"predecessor mask {mask:#x} of element {j + 1} has bits outside 1..{n}")
            if mask >> j & 1:
                raise ValueError(f"order contains a cycle through element {j + 1}")
            for i in range(n):
                if mask >> i & 1 and preds[i] & ~mask:
                    raise ValueError(f"masks are not transitively closed: {j + 1} lacks a predecessor of {i + 1}")

    @property
    def n(self) -> int:
        return len(self.preds)

    @property
    def relation(self) -> frozenset:
        """The ordered pairs (i, j) with i before j: the full transitive closure."""
        n = self.n
        return frozenset((i + 1, j + 1) for j, mask in enumerate(self.preds) for i in range(n) if mask >> i & 1)

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Poset":
        """Build from covering (or any) pairs; computes the transitive closure,
        in which a cycle shows as an element preceding itself, rejected by
        validation."""
        n = _integer("n", n)
        preds = [0] * n
        for i, j in pairs:
            i, j = _checked_pair(n, i, j)
            preds[j - 1] |= 1 << (i - 1)
        # Warshall's closure: whatever precedes k also precedes everything after k
        for k in range(n):
            for j in range(n):
                if preds[j] >> k & 1:
                    preds[j] |= preds[k]
        return cls(tuple(preds))

    @classmethod
    def chain(cls, n: int) -> "Poset":
        return cls(tuple((1 << j) - 1 for j in range(_integer("n", n))))

    @classmethod
    def antichain(cls, n: int) -> "Poset":
        return cls.from_pairs(n, [])

    @classmethod
    def from_text(cls, text: str) -> "Poset":
        """Parse the plain-text format: first line n, then one `i j` pair per
        line.  A malformed or out-of-range pair is named by its line number."""
        n, lines = _poset_lines(text)
        pairs = []
        for line_no, ln in lines:
            try:
                i, j = (int(part) for part in ln.split())
            except ValueError:
                raise ValueError(f"line {line_no}: expected an `i j` pair of integers, got {ln!r}") from None
            try:
                pairs.append(_checked_pair(n, i, j))
            except ValueError as exc:
                raise ValueError(f"line {line_no}: {exc}") from None
        return cls.from_pairs(n, pairs)


def _checked_pair(n: int, i, j) -> tuple[int, int]:
    """The pair (i, j) of elements of 1..n, as Python ints."""
    i, j = _integer("pair element", i, 1), _integer("pair element", j, 1)
    if not (i <= n and j <= n):
        raise ValueError(f"pair ({i}, {j}) is outside 1..{n}")
    return i, j


def _poset_lines(text: str) -> tuple[int, list[tuple[int, str]]]:
    """The declared element count of a plain-text poset and its pair lines,
    unparsed, each with its 1-based line number in the text."""
    lines = [(line_no, ln.strip()) for line_no, ln in enumerate(text.splitlines(), start=1)]
    lines = [(line_no, ln) for line_no, ln in lines if ln]
    if not lines:
        raise ValueError("empty poset description")
    (line_no, first), pairs = lines[0], lines[1:]
    try:
        n = int(first)
    except ValueError:
        raise ValueError(f"line {line_no}: expected the element count, got {first!r}") from None
    return n, pairs


def _check_desk_scale(n: int) -> None:
    if n > DESK_SCALE_LIMIT:
        raise PosetSizeError(
            f"linear-extension operations are capped at {DESK_SCALE_LIMIT} elements, got {n}: "
            "each chain level keeps one flag per extension, in lexicographic order"
        )


def _minimal_bits(preds: tuple[int, ...], rest: int) -> list[int]:
    """Bits of the elements of `rest` with no predecessor in `rest`, in ascending label order."""
    return [1 << e for e, mask in enumerate(preds) if rest >> e & 1 and not mask & rest]


def _completion_counts(preds: tuple[int, ...]) -> Callable[[int], int]:
    """Memoised table: count(rest) is the number of linear extensions of the
    subposet induced on the elements of bit mask `rest`, i.e. the number of
    ways to complete any prefix that has placed every other element."""

    @cache
    def count(rest: int) -> int:
        if rest & (rest - 1) == 0:
            return 1
        return sum(count(rest & ~bit) for bit in _minimal_bits(preds, rest))

    return count


# Repeated samples of one poset share its table instead of rebuilding it.
# Only the sampler caches: counts and chains build a table once per poset,
# and long-lived tables would pin allocator memory there for nothing.
_sampler_counts = lru_cache(maxsize=8)(_completion_counts)


def linext_count_exact(p: Poset) -> int:
    """Exact number of linear extensions via dynamic programming over downsets."""
    _check_desk_scale(p.n)
    return _completion_counts(p.preds)((1 << p.n) - 1)


def linext_uniform_sample(p: Poset, seed: int) -> tuple[int, ...]:
    """One uniformly random linear extension: a uniform rank among all
    extensions, unranked in lexicographic order through the completion counts."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=_integer("seed", seed)))
    _check_desk_scale(p.n)
    count = _sampler_counts(p.preds)
    rest = (1 << p.n) - 1
    rank = int(rng.integers(0, count(rest)))
    order = []
    while rest:
        for bit in _minimal_bits(p.preds, rest):
            below = count(rest & ~bit)
            if rank < below:
                break
            rank -= below
        order.append(bit.bit_length())
        rest &= ~bit
    return tuple(order)


def _level_sampler(preds: tuple[int, ...], count: Callable[[int], int], rest: int, pinned: int) -> Sampler:
    """Sampler for one chain level: a uniform rank into the lexicographic list
    of extensions of the subposet on `rest`, reporting whether the element
    with bit `pinned` comes last."""

    @cache
    def flags(left: int) -> np.ndarray:
        if not left & pinned:
            return np.zeros(count(left), dtype=bool)
        if left == pinned:
            return np.ones(1, dtype=bool)
        return np.concatenate([flags(left & ~bit) for bit in _minimal_bits(preds, left)])

    table = flags(rest)
    flags.cache_clear()  # free the partial tables now, not at the next cycle collection

    def sampler(rng: np.random.Generator, size) -> np.ndarray:
        return table[rng.integers(0, len(table), size=size)]

    return sampler


# Recounts reuse the chain: at n = 10 a rebuild costs ~2 ms against a ~4.4 ms recount.
@lru_cache(maxsize=64)
def linext_chain(p: Poset) -> NestedChain:
    """Self-reduction chain for counting linear extensions.

    At each level, among the remaining elements that can occupy the highest
    unfilled position (no remaining element is required after them), the one
    with the smallest label is pinned there; the level's sampler draws a
    uniform extension of the remaining subposet and reports whether that
    element indeed comes last.  Every level's survival ratio is at least
    1/n, and the terminal set holds exactly one extension.
    """
    _check_desk_scale(p.n)
    count = _completion_counts(p.preds)
    samplers: list[Sampler] = []
    rest = (1 << p.n) - 1
    while rest:
        blocked = 0
        for e, mask in enumerate(p.preds):
            if rest >> e & 1:
                blocked |= mask
        free = rest & ~blocked
        pinned = free & -free
        samplers.append(_level_sampler(p.preds, count, rest, pinned))
        rest &= ~pinned
    return NestedChain(
        samplers=tuple(samplers),
        known_terminal=1.0,
        max_inverse_ratio=float(p.n),
    )


def linext_approx_count(
    p: Poset,
    epsilon: float,
    delta: float,
    m_per_level: int,
    seed: int,
    mode: Mode = Mode.STRICT,
) -> float:
    """Certified approximate count of linear extensions.

    Feeds independent product estimates from the self-reduction chain into
    the two-stage mean estimator, with the honest closed-form variance bound
    (k = M = n) as c^2, and inverts the estimated ratio.
    """
    m_per_level = _integer("m_per_level", m_per_level, 1)
    seed = _integer("seed", seed)
    mode = Mode(mode)
    _check_accuracy(epsilon, delta)
    if p.n == 1:
        return 1.0
    chain = linext_chain(p)
    spec = ApproxSpec(epsilon, delta, _chain_c(p.n, m_per_level))
    report = estimate_mean(ProductEstimateSource(chain, m_per_level, seed), spec, mode)
    return chain.known_terminal / report.mu_hat


def eps_prime(epsilon: float) -> float:
    """Accuracy each factor of a quotient needs so the combined estimate
    meets relative accuracy epsilon.

    Equals (sqrt(1 + epsilon^2) - 1) / epsilon, evaluated in the
    cancellation-free form epsilon / (1 + sqrt(1 + epsilon^2)).
    """
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    return epsilon / (1.0 + math.sqrt(1.0 + epsilon * epsilon))


def gibbs_combine(mu_w: float, mu_v: float, epsilon: float) -> float:
    """Combine two positive factor estimates into a quotient estimate.

    Returns (mu_w / mu_v) / sqrt(1 + epsilon^2).  If each input is within
    relative eps_prime(epsilon) of its true mean, the result is within
    relative epsilon of the true quotient: the deflation compensates the
    asymmetric blow-up that division inflicts on relative errors.
    """
    if not (math.isfinite(mu_w) and mu_w > 0.0):
        raise ValueError(f"mu_w must be positive and finite, got {mu_w!r}")
    if not (math.isfinite(mu_v) and mu_v > 0.0):
        raise ValueError(f"mu_v must be positive and finite, got {mu_v!r}")
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    return (mu_w / mu_v) / math.sqrt(1.0 + epsilon * epsilon)
