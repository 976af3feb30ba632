"""Seeded sample sources with exact distribution facts.

Every source is a deterministic stream: the same (distribution, seed,
replicate index) always yields the same draw sequence.  Replicate r of
base seed s draws from ``Generator(PCG64(SeedSequence(entropy=s,
spawn_key=(r,))))``, so distinct replicate indices give statistically
independent streams of one base seed.  A coverage run seeds all of its
replicate streams at once with ``_replicate_seed_words``, which computes
the same PCG64 seeds as numpy's SeedSequence in one vectorised pass.  The
algorithm name is exposed so experiment reports can record it.

Every real argument of the library, here and in the other modules, is
checked by ``_real(name, value, interval)``, every integer argument by
``_integer(name, value, interval)``, and by nothing else; their one message
names the argument, the interval and the value.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

RNG_ALGORITHM = "pcg64"

__all__ = [
    "RNG_ALGORITHM",
    "InsufficientSamplesError",
    "SourceFacts",
    "Constant",
    "Normal",
    "LogNormal",
    "ScaledBernoulli",
    "ParetoShape",
    "Recorded",
    "Scaled",
    "SampleSource",
    "parse_distribution",
    "load_recorded",
]


class InsufficientSamplesError(RuntimeError):
    """A finite (recorded) source was asked for more draws than it holds."""


@dataclass(frozen=True)
class SourceFacts:
    """Exact mean, relative variance, and an honest bound c with c^2 >= relvar.
    The fields keep the floats they were checked as."""

    true_mean: float
    true_relvar: float
    c_bound: float

    def __post_init__(self) -> None:
        mean = _real("true_mean", self.true_mean, "(0, inf)")
        relvar, c_bound = _real("true_relvar", self.true_relvar, "[0, inf)"), _real("c_bound", self.c_bound, "[0, inf)")
        # allow a one-ulp sqrt round-trip when c_bound = sqrt(relvar)
        if c_bound * c_bound < relvar * (1.0 - 1e-12):
            raise ValueError(f"c_bound^2 must cover the relative variance {relvar!r}, but c_bound is {c_bound!r}")
        for name, value in (("true_mean", mean), ("true_relvar", relvar), ("c_bound", c_bound)):
            object.__setattr__(self, name, value)


def _inf_on_overflow(function, *args) -> float:
    """function(*args), or inf where it overflows: math.exp, math.expm1 and
    float ** raise OverflowError there, where float * gives inf.  A fact
    that overflows is so left to SourceFacts, which rejects it by name."""
    try:
        return function(*args)
    except OverflowError:
        return math.inf


@functools.cache
def _interval(text: str):
    """The two tests, low <(=) x and high >(=) x, of an interval written as
    the maths writes it, "(0, 1]" or "[0, inf)"; parsed once per text.  An
    interval holds finite reals only, so an infinite end must be open, and
    nan lies in none."""
    opening, ends, closing = text[:1], text[1:-1].split(", "), text[-1:]
    low, high = (float(end) for end in ends)  # a ValueError unless two numbers
    if not (opening in ("(", "[") and closing in (")", "]") and low < high
            and (opening == "(" or low > -math.inf) and (closing == ")" or high < math.inf)):
        raise ValueError(f"{text!r} is not an interval: low < high, each end open or finite and closed")
    above = functools.partial(operator.le if opening == "[" else operator.lt, low)
    below = functools.partial(operator.ge if closing == "]" else operator.gt, high)
    return above, below


def _shown(value) -> str:
    """repr(value), or for an int beyond the float range its bit length."""
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return f"a {'negative ' if value < 0 else ''}{value.bit_length()}-bit integer"
    return repr(value)


def _real(name: str, value, interval: str = "(-inf, inf)") -> float:
    """value as a float, if it is a real number in `interval` (by default
    the finite reals): the one check of every real argument at the public
    boundary (distribution parameters, epsilon, delta, c, scales), as
    _integer is of every integer argument.  A str, bytes, None or complex
    value is rejected by name, not left to fail inside math or numpy, and a
    value outside the interval, nan, an infinity or an int beyond the float
    range by its name, the interval and the value.  A float skips the ABC
    check, which costs about 0.8 us."""
    if not (type(value) is float or isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.nan
    above, below = _interval(interval)
    if not (above(number) and below(number)):
        raise ValueError(f"{name} must be finite and lie in {interval}, got {_shown(value)}")
    return number


def _integer(name: str, value, interval: str = "[0, inf)") -> int:
    """value as a Python int, if it is an integer (numpy integers too) in
    `interval`, by default the nonnegative ones: the one check of every
    integer argument, as _real is of every real one.  It never truncates a
    float, and it compares the exact int with the ends, so a seed may have
    any size, as numpy's SeedSequence allows, and a count that a closed
    form turns into a float is bounded by the largest float exactly."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    above, below = _interval(interval)
    if number is None or not (above(number) and below(number)):
        raise ValueError(f"{name} must be an integer in {interval}, got {_shown(value)}")
    return number


@dataclass(frozen=True)
class Constant:
    """Degenerate stream: every draw equals `value`."""

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _real("constant value", self.value))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value)

    def facts(self) -> SourceFacts:
        return SourceFacts(_real("constant value", self.value, "(0, inf)"), 0.0, 0.0)

    @property
    def spec_string(self) -> str:
        return f"constant:{self.value:g}"


@dataclass(frozen=True)
class Normal:
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", _real("Normal mu", self.mu))
        object.__setattr__(self, "sigma", _real("Normal sigma", self.sigma, "[0, inf)"))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(self.mu, self.sigma, n)

    def facts(self) -> SourceFacts:
        mean = _real("Normal mean", self.mu, "(0, inf)")
        relvar = _inf_on_overflow(pow, self.sigma / mean, 2)
        return SourceFacts(mean, relvar, self.sigma / mean)

    @property
    def spec_string(self) -> str:
        return f"normal:{self.mu:g},{self.sigma:g}"


@dataclass(frozen=True)
class LogNormal:
    """exp(s * Z) with Z standard normal; relative variance expm1(s^2)."""

    s: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", _real("LogNormal s", self.s, "[0, inf)"))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.lognormal(0.0, self.s, n)

    def facts(self) -> SourceFacts:
        relvar = _inf_on_overflow(math.expm1, self.s * self.s)
        return SourceFacts(_inf_on_overflow(math.exp, 0.5 * self.s * self.s), relvar, math.sqrt(relvar))

    @property
    def spec_string(self) -> str:
        return f"lognormal:{self.s:g}"


@dataclass(frozen=True)
class ScaledBernoulli:
    """`scale` with probability p, else 0; relative variance (1-p)/p."""

    p: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _real("Bernoulli probability", self.p, "(0, 1]"))
        object.__setattr__(self, "scale", _real("Bernoulli scale", self.scale, "(0, inf)"))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.scale * (rng.random(n) < self.p).astype(float)

    def facts(self) -> SourceFacts:
        relvar = (1.0 - self.p) / self.p
        return SourceFacts(self.p * self.scale, relvar, math.sqrt(relvar))

    @property
    def spec_string(self) -> str:
        return f"bernoulli:{self.p:g},{self.scale:g}"


@dataclass(frozen=True)
class ParetoShape:
    """Pareto with minimum 1 and shape a: P(X > x) = x^(-a) for x >= 1.

    Third and higher moments are infinite for a <= 3; facts() needs a > 2 so
    the variance exists.
    """

    a: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _real("Pareto shape", self.a, "(0, inf)"))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return 1.0 + rng.pareto(self.a, n)

    def facts(self) -> SourceFacts:
        if self.a <= 2.0:
            raise ValueError(f"Pareto shape must exceed 2 for a finite variance, got {self.a!r}")
        mean = self.a / (self.a - 1.0)
        var = self.a / (_inf_on_overflow(pow, self.a - 1.0, 2) * (self.a - 2.0))
        relvar = var / (mean * mean)
        return SourceFacts(mean, relvar, math.sqrt(relvar))

    @property
    def spec_string(self) -> str:
        return f"pareto:{self.a:g}"


@dataclass(frozen=True)
class Recorded:
    """Fixed finite sequence, replayed in order; exhausting it is an error.

    Facts are the population mean and relative variance of the sequence.
    Replicate indices do not apply: every stream replays the same values.
    """

    values: tuple[float, ...]
    # the values as float64, built once: a take copies a slice of them
    _array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise ValueError("recorded sequence must be non-empty")
        object.__setattr__(self, "values", tuple(_real("recorded value", v) for v in self.values))
        object.__setattr__(self, "_array", np.array(self.values, dtype=float))

    def sample(self, cursor: "_ReplayCursor", n: int) -> np.ndarray:
        """The n values after `cursor.position`, which moves past them."""
        end = cursor.position + n
        if end > len(self.values):
            raise InsufficientSamplesError(
                f"recorded source holds {len(self.values)} values, needed {end}"
            )
        out = self._array[cursor.position : end].copy()
        cursor.position = end
        return out

    def facts(self) -> SourceFacts:
        # reduced at scale 2**-e, below 1 in magnitude, so no sum or square
        # overflows; the scaling is exact, so where the plain reduction
        # neither overflows nor underflows, both facts keep its bits
        e = math.frexp(float(np.abs(self._array).max()))[1]
        scaled = np.ldexp(self._array, -e)
        mean, var = float(scaled.mean()), float(scaled.var())
        true_mean = _real("recorded mean", _inf_on_overflow(math.ldexp, mean, e), "(0, inf)")
        # a scaled mean whose square underflows to 0 is below 1e-161 beside a
        # value of at least 0.5: the relative variance is beyond any float
        relvar = var / (mean * mean) if mean * mean > 0.0 else math.inf
        return SourceFacts(true_mean, relvar, math.sqrt(relvar))

    @property
    def spec_string(self) -> str:
        return f"recorded:{len(self.values)}values"


@dataclass(frozen=True)
class Scaled:
    """Every draw of `inner` multiplied by a positive factor.

    Relative variance is unchanged, which is exactly why the estimator's
    guarantee is scale-free.
    """

    inner: object
    factor: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "factor", _real("scale factor", self.factor, "(0, inf)"))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.factor * self.inner.sample(rng, n)

    def facts(self) -> SourceFacts:
        inner = self.inner.facts()
        return SourceFacts(self.factor * inner.true_mean, inner.true_relvar, inner.c_bound)

    @property
    def spec_string(self) -> str:
        return f"scaled:{self.factor:g}:{self.inner.spec_string}"


def _replays(dist) -> bool:
    """True for a recorded sequence, also behind any number of Scaled wrappers."""
    while isinstance(dist, Scaled):
        dist = dist.inner
    return isinstance(dist, Recorded)


class _ReplayCursor:
    """Read position in a recorded sequence: what a replaying stream passes
    to ``sample`` in place of a generator."""

    __slots__ = ("position",)

    def __init__(self):
        self.position = 0


# --- replicate streams ----------------------------------------------------
#
# _replicate_rng defines a replicate stream.  PCG64 seeds itself from
# SeedSequence.generate_state(4, uint64); _replicate_seed_words computes
# those four words for many replicates at once with SeedSequence's published
# hash (numpy/random/bit_generator.pyx).  The pool mixed from the seed's
# 32-bit words is the same for every replicate, so it is mixed once in
# Python ints; only the spawn-key word r and the output hash run on arrays,
# whose uint64 entries hold 32-bit words exactly as Python ints do: each
# product of two words is exact, and every step masks to 32 bits.

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


def _hashmix(hash_const: int, multiplier: int):
    """SeedSequence's hashmix with its running constant: each call advances
    the constant and hashes one 32-bit word, a Python int or a uint64 array."""

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * multiplier) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    return hashmix


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _replicate_seed_words(seed: int, replicates) -> np.ndarray:
    """PCG64 seed words of the streams (seed, r) for every r in `replicates`.

    Row i equals ``SeedSequence(entropy=seed, spawn_key=(replicates[i],))
    .generate_state(4, np.uint64)``, bit for bit.  The caller has checked
    that seed is a nonnegative int and that each r fits one 32-bit
    spawn-key word.
    """
    # the seed's 32-bit words, least significant first, padded to the pool
    # size because a spawn key follows; then the spawn-key word r
    entropy = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    entropy.append(np.asarray(replicates, dtype=np.uint64))

    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): 8 output words cycling over the pool,
    # paired little-endian into uint64
    hashmix = _hashmix(_INIT_B, _MULT_B)
    state = np.stack([hashmix(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _PresetSeed(np.random.bit_generator.ISeedSequence):
    """Seed words computed ahead, handed to PCG64 as its seed sequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _replicate_rng(seed: int, replicate_index: int, seed_words=None) -> np.random.Generator:
    """The generator of replicate stream (seed, replicate_index):
    ``Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(replicate_index,))))``.

    Every SampleSource and ProductEstimateSource, having checked seed and
    index, draws from one.  `seed_words` are the stream's row of
    _replicate_seed_words, if already computed; otherwise numpy's
    SeedSequence derives them.
    """
    if seed_words is None:
        sequence = np.random.SeedSequence(entropy=seed, spawn_key=(replicate_index,))
    else:
        sequence = _PresetSeed(seed_words)
    return np.random.Generator(np.random.PCG64(sequence))


class SampleSource:
    """Deterministic stream of iid draws from one distribution.

    ``take(n)`` returns the next n draws and advances the stream.  Distinct
    replicate indices open independent streams of one base seed.  A source
    instance is single-consumer.  A recorded sequence, also behind Scaled,
    replays from its start whatever the seed.
    """

    def __init__(self, dist, seed: int, replicate_index: int = 0, _seed_words=None):
        seed = _integer("seed", seed)
        replicate_index = _integer("replicate_index", replicate_index)
        self.dist = dist
        if _replays(dist):
            self._rng = _ReplayCursor()
        else:
            self._rng = _replicate_rng(seed, replicate_index, _seed_words)

    def take(self, n: int) -> np.ndarray:
        return self.dist.sample(self._rng, _integer("draw count n", n))


def _read_ascii(path) -> str:
    """The text of an ASCII input file; a byte outside ASCII is a ValueError
    that names the file and line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line_no} has a non-ASCII byte 0x{data[exc.start]:02x}") from None


def load_recorded(path) -> Recorded:
    """Read a recorded source from an ASCII text file, one finite decimal value per line."""
    values = []
    for line_no, line in enumerate(_read_ascii(path).splitlines(), start=1):
        text = line.strip()
        if not text:
            continue
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"{path}: line {line_no} is not a decimal value: {text!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{path}: line {line_no} is not a finite value: {text!r}")
        values.append(value)
    return Recorded(tuple(values))


def parse_distribution(text: str):
    """Parse the `name:param,param` mini-syntax used by the CLI and reports.

    Recognised forms: constant:v, normal:mu,sigma, lognormal:s,
    bernoulli:p[,scale], pareto:a, recorded:PATH.
    """
    name, _, rest = text.partition(":")
    name = name.strip().lower()
    if name == "recorded":
        if not rest:
            raise ValueError("recorded distribution needs a file path")
        return load_recorded(rest)
    try:
        params = [float(p) for p in rest.split(",")] if rest else []
    except ValueError:
        raise ValueError(f"bad numeric parameters in distribution {text!r}") from None
    if name == "constant" and len(params) == 1:
        return Constant(params[0])
    if name == "normal" and len(params) == 2:
        return Normal(params[0], params[1])
    if name == "lognormal" and len(params) == 1:
        return LogNormal(params[0])
    if name == "bernoulli" and len(params) in (1, 2):
        return ScaledBernoulli(*params)
    if name == "pareto" and len(params) == 1:
        return ParetoShape(params[0])
    raise ValueError(
        f"unknown distribution {text!r}; expected constant:v, normal:mu,sigma, "
        "lognormal:s, bernoulli:p[,scale], pareto:a, or recorded:PATH"
    )
