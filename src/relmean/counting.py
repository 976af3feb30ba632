"""Approximate counting through nested-set reduction.

A counting problem is reduced to a chain of shrinking sets whose final
size is known.  Each level contributes the fraction of uniform draws that
survive into the next level; the product of those fractions estimates the
terminal-to-initial size ratio, and its relative variance is bounded in
closed form.  A level is a sampler that returns its fractions directly,
one per product estimate, so a level may count its survivors however it
likes (and a sure level need count nothing).  Feeding independent product
estimates into the two-stage mean estimator yields a certified
approximate count.  Posets and their linear extensions provide the
worked, desk-scale instance, with an exact dynamic program over downsets
as the oracle.

m_per_level, the indicators a product estimate draws per level, lies in
[1, 2**20]; a linear-extension level holds at most 2**20 indicators (about
13.6 MB) at once, whatever the plan, and a count whose plan charges more
than 2**36 indicators (draws times m_per_level) is refused on every host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable

import numpy as np

from .estimator import ApproxSpec, Mode, _check_accuracy, build_plan, estimate_mean
from .sources import _inf_on_overflow, _integer, _real, _replicate_rng

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

    Each level of linext_chain keeps one bool flag per linear extension of
    its subposet, up to 10! entries at n = 10, and counts a block of
    uniform ranks into it; that table, indexed in lexicographic order, is
    what keeps seeded results identical.
    """


# sampler(rng, n, m) returns n level means, a float64 array: entry i is the
# fraction of m fresh uniform draws from the level's set that land in the next
# level.  How a level counts is its own affair; the linear-extension levels
# draw exactly the ranks a full indicator block would, so seeded results do
# not depend on how they count.
Sampler = Callable[[np.random.Generator, int, int], np.ndarray]

# A level counts its ranks in row groups of at most this many indicators, 13
# bytes each: the int64 rank, its bool flag and the flag as float32.  A row's
# float32 count (m_per_level <= 2**20 < 2**24 ones) is exact in any order.
_GROUP_INDICATORS = 2**20

# The most indicators (plan draws times m_per_level) a count may charge: about
# 45 minutes for 10 elements, at ~4.4 ns a rank on a 2-vCPU Xeon (9 levels draw).
_INDICATOR_BUDGET = 2**36


@dataclass(frozen=True)
class NestedChain:
    """Chain of shrinking sets, one membership sampler per level.

    `known_terminal` is the exact size of the final set and
    `max_inverse_ratio` bounds every level: each survival ratio is at least
    1 / max_inverse_ratio.  Both are kept as the floats they were checked as.
    """

    samplers: tuple[Sampler, ...]
    known_terminal: float
    max_inverse_ratio: float

    def __post_init__(self) -> None:
        if len(self.samplers) < 1:
            raise ValueError("a chain needs at least one level")
        object.__setattr__(self, "known_terminal", _real("known_terminal", self.known_terminal, "(0, inf)"))
        object.__setattr__(self, "max_inverse_ratio", _real("max_inverse_ratio", self.max_inverse_ratio, "[1, inf)"))

    @property
    def k(self) -> int:
        return len(self.samplers)


def _product_draws(chain: NestedChain, rng: np.random.Generator, n: int, m_per_level: int) -> np.ndarray:
    """n independent product estimates: each level returns n means of
    m_per_level indicators, multiplied in level order.

    Each product of level means is an unbiased estimate of (terminal size /
    initial size).  A zero mean at any level makes the product 0, which is a
    legal sample; resampling it away would bias the estimator.
    """
    out = np.ones(n)
    for sampler in chain.samplers:
        out *= sampler(rng, n, m_per_level)
    return out


def product_variance_bound(k: int, max_inverse_ratio: float, m: int) -> float:
    """Relative-variance bound exp(k (M - 1) / m) - 1 for the product estimate,
    valid whenever every level ratio is at least 1/M; k and m become floats.
    A bound beyond the largest float is a ValueError naming k, M and m."""
    k, m = _integer("k", k, "[1, 1.7976931348623157e+308]"), _integer("m", m, "[1, 1.7976931348623157e+308]")
    ratio = _real("max_inverse_ratio", max_inverse_ratio, "[1, inf)")
    bound = _inf_on_overflow(math.expm1, k * (ratio - 1.0) / m)
    if bound == math.inf:
        raise ValueError(f"the product variance bound exp(k (M - 1) / m) - 1 overflows a float at k = {k}, M = {ratio!r}, m = {m}")
    return bound


def _m_per_level(value) -> int:
    """value, if it is an integer in [1, 2**20]: a row fits one row group, and
    from about 2**15 on the plan stops shrinking, so a wider row only adds work."""
    return _integer("m_per_level", value, "[1, 1048576]")


def _chain_c(chain: NestedChain, m_per_level: int) -> float:
    """The c of a chain's product estimates at m_per_level: the root of the
    product bound at the chain's k and max_inverse_ratio; 0.0 for a chain
    whose every level is sure (M = 1)."""
    return math.sqrt(product_variance_bound(chain.k, chain.max_inverse_ratio, m_per_level))


class ProductEstimateSource:
    """Stream of independent product estimates for one chain.

    Each draw costs at most k * m_per_level membership indicators: a
    linear-extension level with one extension left draws nothing, and one
    whose flags are all true draws its ranks but counts none
    (_level_sampler).  m_per_level is an integer in [1, 2**20].  take(n)
    runs the batch one level at a time, and a linear-extension level holds
    at most 2**20 indicators (about 13.6 MB) at once, at any n.  Follows
    the SampleSource protocol (take), so the stream can drive estimate_mean.
    """

    def __init__(self, chain: NestedChain, m_per_level: int, seed: int, replicate_index: int = 0):
        self.m_per_level = _m_per_level(m_per_level)
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
        n = _integer("n", n, "[1, inf)")
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
        return cls(tuple((1 << j) - 1 for j in range(_integer("n", n, "[1, inf)"))))

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
    i, j = _integer("pair element", i, "[1, inf)"), _integer("pair element", j, "[1, inf)")
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
    ways to complete any prefix that has placed every other element.  The
    exact count and the uniform sampler build one, so it checks the size cap
    for them."""
    _check_desk_scale(len(preds))

    @cache
    def count(rest: int) -> int:
        if rest & (rest - 1) == 0:
            return 1
        return sum(count(rest & ~bit) for bit in _minimal_bits(preds, rest))

    return count


# Repeated samples of one poset share its table instead of rebuilding it.
# Only the sampler caches: an exact count builds its table once per poset,
# and a long-lived table would pin allocator memory there for nothing.
_sampler_counts = lru_cache(maxsize=8)(_completion_counts)


def linext_count_exact(p: Poset) -> int:
    """Exact number of linear extensions via dynamic programming over downsets."""
    return _completion_counts(p.preds)((1 << p.n) - 1)


def linext_uniform_sample(p: Poset, seed: int) -> tuple[int, ...]:
    """One uniformly random linear extension: a uniform rank among all extensions,
    drawn from default_rng(SeedSequence(entropy=seed)) with no spawn key, unlike the (seed, r)
    streams of SampleSource and ProductEstimateSource, and unranked in lexicographic order."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=_integer("seed", seed)))
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


def _level_sampler(table: np.ndarray) -> Sampler:
    """Sampler for one chain level: uniform ranks into its bool flag `table`
    (linext_chain says what it holds), averaged per row.

    A level draws its (n, m) ranks in consecutive row groups of at most
    2**20 indicators (m <= 2**20, checked by ProductEstimateSource), each
    counted before the next is drawn: a call holds about 13.6 MB at any n,
    plus 4 bytes per m of float32 ones, and moves the stream as one
    integers call for the whole block would.  A level with one extension
    left draws nothing (numpy consumes no bits for a one-value range), and
    a level whose flags are all true draws its ranks but skips the gather;
    both return ones.
    """
    sure = bool(table.all())

    def sampler(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
        if len(table) == 1:
            return np.ones(n)
        rows, ones = max(1, _GROUP_INDICATORS // m), np.ones(m, dtype=np.float32)
        counts = np.empty(n, dtype=np.float32)
        for start in range(0, n, rows):
            ranks = rng.integers(0, len(table), size=(min(rows, n - start), m))
            if not sure:  # the ranks lie in range by construction
                np.matmul(table.take(ranks, mode="clip").astype(np.float32), ones, out=counts[start:start + rows])
            del ranks  # before the next group's are drawn, so one group is held at a time
        return np.ones(n) if sure else counts.astype(np.float64) / m

    return sampler


# Recounts reuse the chain: at n = 10 a rebuild costs ~2 ms against a ~4.4 ms recount.
# The cache holds the 8 chains last used.  One chain of antichain(10) holds
# about 4 MB of flag tables, so the cache pins at most about 32 MB (64
# chains could pin about 250 MB); a recount right after its count, as the
# linext benchmark makes them, still hits.
@lru_cache(maxsize=8)
def linext_chain(p: Poset) -> NestedChain:
    """Self-reduction chain for counting linear extensions.

    At each level, among the remaining elements that can occupy the highest
    unfilled position (no remaining element is required after them), the one
    with the smallest label is pinned there; the level's sampler draws a
    uniform extension of the remaining subposet and reports whether that
    element indeed comes last.  Every level's survival ratio is at least
    1/n, and the terminal set holds exactly one extension.

    Every level's flags are last(rest) == pinned, read from one memo: last(left)
    indexes the last element of each extension of `left`, in lexicographic order.
    """
    _check_desk_scale(p.n)

    @cache
    def last(left: int) -> np.ndarray:
        if left & (left - 1) == 0:
            return np.array([left.bit_length() - 1], dtype=np.uint8)
        return np.concatenate([last(left & ~bit) for bit in _minimal_bits(p.preds, left)])

    levels = []
    rest = (1 << p.n) - 1
    while rest:
        blocked = 0
        for e, mask in enumerate(p.preds):
            if rest >> e & 1:
                blocked |= mask
        free = rest & ~blocked
        pinned = free & -free
        levels.append((last(rest), pinned.bit_length() - 1))
        rest &= ~pinned
    last.cache_clear()  # free the memo before the flag tables are made, so they do not raise the peak
    return NestedChain(
        samplers=tuple(_level_sampler(ends == pinned) for ends, pinned in levels),
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
    (k = M = n) as c^2, and inverts the estimated ratio.  The chain is
    built first: the plan reads its k and M.
    """
    m_per_level = _m_per_level(m_per_level)
    seed = _integer("seed", seed)
    mode = Mode(mode)
    _check_accuracy(epsilon, delta)
    if p.n == 1:
        return 1.0
    chain = linext_chain(p)
    spec, draws = _count_plan(chain, m_per_level, epsilon, delta, mode)
    _check_indicator_budget(chain, m_per_level, spec, draws, mode)
    report = estimate_mean(ProductEstimateSource(chain, m_per_level, seed), spec, mode)
    return chain.known_terminal / report.mu_hat


def _count_plan(
    chain: NestedChain, m_per_level: int, epsilon: float, delta: float, mode: Mode
) -> tuple[ApproxSpec, int]:
    """The spec of a count through `chain` at m_per_level, and its plan's draw count."""
    spec = ApproxSpec(epsilon, delta, _chain_c(chain, m_per_level))
    return spec, build_plan(spec, mode).total_samples


def _check_indicator_budget(chain: NestedChain, m_per_level: int, spec: ApproxSpec, draws: int, mode: Mode) -> None:
    """Reject a count whose plan charges more than _INDICATOR_BUDGET indicators.

    The charge, draws times m_per_level, measures work: a level's memory is
    bounded whatever the plan (_level_sampler).  A small m_per_level makes
    c^2 = expm1(n (n - 1) / m) explode, and with it the draw count, while a
    large one makes every draw wide.  The ceilings in the plan make the
    charge jagged from one m_per_level to the next, so the message advises
    halving or doubling m_per_level, whichever plans fewer indicators (a
    double above 2**20 plans none), and a looser epsilon or delta when
    neither does.
    """
    indicators = draws * m_per_level
    if indicators <= _INDICATOR_BUDGET:
        return

    def planned(m: int) -> float:
        try:
            return _count_plan(chain, _m_per_level(m), spec.epsilon, spec.delta, mode)[1] * m
        except ValueError:  # m is out of range, or plans more draws than a float holds
            return math.inf

    if planned(2 * m_per_level) < indicators:
        advice = "raise m_per_level"
    elif planned(m_per_level // 2) < indicators:
        advice = "lower m_per_level"
    else:
        advice = "neither half nor twice m_per_level plans fewer; raise epsilon or delta"
    raise ValueError(
        f"n = {chain.k} elements at m_per_level = {m_per_level} give c = {spec.c:.6g} and {draws} draws, "
        f"whose {indicators} indicators exceed the budget of {_INDICATOR_BUDGET} a count may draw; {advice}"
    )


def eps_prime(epsilon: float) -> float:
    """Accuracy each factor of a quotient needs so the combined estimate
    meets relative accuracy epsilon.

    Equals (sqrt(1 + epsilon^2) - 1) / epsilon, evaluated in the
    cancellation-free form epsilon / (1 + sqrt(1 + epsilon^2)).
    """
    epsilon = _real("epsilon", epsilon, "(0, 1]")
    return epsilon / (1.0 + math.sqrt(1.0 + epsilon * epsilon))


def gibbs_combine(mu_w: float, mu_v: float, epsilon: float) -> float:
    """Combine two positive factor estimates into a quotient estimate.

    Returns (mu_w / mu_v) / sqrt(1 + epsilon^2).  If each input is within
    relative eps_prime(epsilon) of its true mean, the result is within
    relative epsilon of the true quotient: the deflation compensates the
    asymmetric blow-up that division inflicts on relative errors.  A quotient
    that underflows to 0 or overflows to inf is a ValueError naming it.
    """
    mu_w, mu_v = _real("mu_w", mu_w, "(0, inf)"), _real("mu_v", mu_v, "(0, inf)")
    epsilon = _real("epsilon", epsilon, "[0, 1]")
    quotient = (mu_w / mu_v) / math.sqrt(1.0 + epsilon * epsilon)
    if not 0.0 < quotient < math.inf:
        raise ValueError(f"the quotient mu_w / mu_v = {mu_w!r} / {mu_v!r} is not a positive finite float")
    return quotient
