"""Exact conditional guesswork: optimal orders, ranks, laws, and moments.

The guess rank G(x1..xn | y1..yn) is the position of the x-sequence in
the optimal query order for its y-sequence: nonincreasing conditional
probability, ties broken lexicographically, zero-probability sequences
last (also lexicographically).  Within a fixed y-sequence, comparing
conditional probabilities is the same as comparing joint products, so
every comparison, tie, and count below is exact on the joint entries;
float logs order levels only where they cannot be wrong.

The law of the rank is built by the method of types, never by |X|**n
enumeration: positions are grouped by y-symbol, per-group x-type
vectors carry exact multinomial counts, and the per-group level
dictionaries are convolved, merging equal levels.  Levels are keyed by
the source's level code (``dyadic.LevelCode``): a product of joint
entries is a packed exponent vector over a coprime basis of their odd
mantissas, so merging adds and hashes small ints.  Each distinct level
keeps one exact ``Dyadic``, made from the first pair that reaches it;
levels are sorted by float log, with near ties ordered exactly.  All
sequence counts are arbitrary-precision integers because they reach
|X|**n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .dyadic import DYADIC_ONE, DYADIC_ZERO, Dyadic, LevelPacking, descending
from .entropy import _logsumexp, conditional_renyi_arimoto
from .model import Alphabet, Distribution, PairSource
from .powersum import power_sum_log

__all__ = [
    "DEFAULT_MAX_TYPE_TUPLES",
    "GuessworkError",
    "SequenceError",
    "BudgetExceededError",
    "GuessOrder",
    "TypeBlock",
    "YTypeLaw",
    "GuessworkDistribution",
    "optimal_order",
    "guess_rank",
    "guess_rank_indices",
    "enumeration_budget",
    "guesswork_distribution",
    "moment_exact",
    "log_moment_exact",
    "moment_bounds",
    "scgf_empirical",
    "plateau_window",
]

DEFAULT_MAX_TYPE_TUPLES = 10**8

_LN2 = math.log(2.0)


class GuessworkError(ValueError):
    """Base class for guesswork computation failures."""


class SequenceError(GuessworkError):
    """Bad query sequences: length mismatch, empty, or unknown symbols."""


class BudgetExceededError(GuessworkError):
    """Type enumeration would exceed the configured tuple budget."""

    def __init__(self, required: int, cap: int):
        self.required = required
        self.cap = cap
        super().__init__(f"required budget {required} type tuples exceeds cap {cap}")


@dataclass(frozen=True)
class GuessOrder:
    """Query order over an alphabet; permutation[r-1] is the r-th guess."""

    alphabet: Alphabet
    permutation: tuple[str, ...]

    def rank(self, symbol: str) -> int:
        return self._rank_map[symbol]

    def symbol(self, rank: int) -> str:
        return self.permutation[rank - 1]

    @cached_property
    def _rank_map(self) -> dict[str, int]:
        return {s: r for r, s in enumerate(self.permutation, start=1)}


def optimal_order(dist: Distribution) -> GuessOrder:
    """Symbols by nonincreasing probability, ties lexicographic."""
    symbols = sorted(
        dist.alphabet.symbols,
        key=lambda s: (-dist.pmf[dist.alphabet.index(s)], s),
    )
    return GuessOrder(dist.alphabet, tuple(symbols))


@dataclass(frozen=True)
class TypeBlock:
    """Contiguous ranks sharing one per-sequence joint probability."""

    start: int
    count: int
    joint_level: Dyadic


@dataclass(frozen=True)
class YTypeLaw:
    """Rank law conditional on the y-sequence type (shared by all its y-sequences)."""

    y_counts: tuple[int, ...]
    y_sequences: int
    py_product: Dyadic
    blocks: tuple[TypeBlock, ...]


class GuessworkDistribution:
    """Exact law of the guess rank as per-y-type probability-level blocks.

    For single-user optimal guessing (monotone=True) block levels are
    strictly decreasing within each y-type; order-statistic laws built
    by the parallel module are not monotone and skip that check.
    """

    def __init__(
        self,
        n: int,
        x_size: int,
        y_symbols: tuple[str, ...],
        laws: tuple[YTypeLaw, ...],
        monotone: bool = True,
    ):
        self.n = n
        self.x_size = x_size
        self.y_symbols = y_symbols
        self.laws = laws
        self.monotone = monotone
        self._validate()

    def _validate(self) -> None:
        total = self.x_size**self.n
        for law in self.laws:
            expected_start = 1
            previous = None
            for block in law.blocks:
                if block.start != expected_start or block.count < 1:
                    raise GuessworkError("rank blocks must be contiguous from 1")
                expected_start += block.count
                if self.monotone and previous is not None and not (block.joint_level < previous):
                    raise GuessworkError("block levels must strictly decrease")
                previous = block.joint_level
            if expected_start != total + 1:
                raise GuessworkError(f"blocks must cover ranks 1..{total}")
        mass = self.total_mass
        if abs(mass - 1.0) > 1e-10:
            raise GuessworkError(f"total mass {mass!r} deviates from 1")

    @cached_property
    def total_sequences(self) -> int:
        return self.x_size**self.n

    def _block_log_mass(self, law: YTypeLaw, block: TypeBlock) -> float:
        if block.joint_level.is_zero():
            return -math.inf
        return math.log(law.y_sequences) + math.log(block.count) + block.joint_level.log()

    @cached_property
    def total_mass(self) -> float:
        terms = []
        for law in self.laws:
            for block in law.blocks:
                lm = self._block_log_mass(law, block)
                if lm != -math.inf:
                    terms.append(math.exp(lm) if lm > -745.0 else 0.0)
        return math.fsum(terms)

    @property
    def blocks(self) -> list[tuple[int, int, float, float]]:
        """Flat display view: (start, count, conditional level, y-type mass)."""
        rows = []
        for law in self.laws:
            py = law.py_product.to_float()
            log_py = law.py_product.log()
            if py > 0.0:
                y_mass = law.y_sequences * py
            else:
                y_mass = math.exp(math.log(law.y_sequences) + log_py)
            for block in law.blocks:
                level = _level_ratio(block.joint_level, py, log_py)
                rows.append((block.start, block.count, level, y_mass))
        return rows

    def prob_eq_one_dyadic(self) -> Dyadic:
        total = DYADIC_ZERO
        for law in self.laws:
            total = total + block_scale(law.blocks[0].joint_level, law.y_sequences)
        return total

    def prob_eq_one(self) -> float:
        return self.prob_eq_one_dyadic().to_float()

    def log_prob_eq_one(self) -> float:
        return self.prob_eq_one_dyadic().log()

    def log_moment(self, alpha: float) -> float:
        """log E G^alpha; zero-probability ranks contribute nothing."""
        alpha = float(alpha)
        if not math.isfinite(alpha):
            raise GuessworkError(f"moment order must be finite, got {alpha}")
        terms = []
        for law in self.laws:
            base = math.log(law.y_sequences)
            for block in law.blocks:
                if block.joint_level.is_zero():
                    continue
                terms.append(
                    base
                    + block.joint_level.log()
                    + power_sum_log(block.start, block.start + block.count - 1, alpha)
                )
        return _logsumexp(terms)

    def moment(self, alpha: float) -> float:
        return exp_or_inf(self.log_moment(alpha))

    def scgf_empirical(self, alpha: float) -> float:
        return self.log_moment(alpha) / self.n

    def log_prob_log_window(self, lo: float, hi: float) -> float:
        """log P(log(G)/n in [lo, hi]); -inf when the event has zero mass."""
        if hi < lo:
            return -math.inf
        r_lo = max(1, _int_exp(self.n * lo, math.ceil))
        r_hi = min(self.total_sequences, _int_exp(self.n * hi, math.floor))
        if r_hi < r_lo:
            return -math.inf
        terms = []
        for law in self.laws:
            base = math.log(law.y_sequences)
            for block in law.blocks:
                if block.joint_level.is_zero():
                    continue
                a = max(block.start, r_lo)
                b = min(block.start + block.count - 1, r_hi)
                if b >= a:
                    terms.append(base + math.log(b - a + 1) + block.joint_level.log())
        return _logsumexp(terms)

    def prob_log_window(self, lo: float, hi: float) -> float:
        log_p = self.log_prob_log_window(lo, hi)
        return 0.0 if log_p == -math.inf else math.exp(log_p)


def exp_or_inf(log_value: float) -> float:
    """exp(log_value), +inf past the float range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def block_scale(level: Dyadic, count: int) -> Dyadic:
    """count * level as an exact dyadic (count a nonnegative integer)."""
    return Dyadic.from_int(count) * level


def _level_ratio(joint_level: Dyadic, py: float, log_py: float) -> float:
    """joint level / y-type probability as a float, stable at extreme scales."""
    if joint_level.is_zero():
        return 0.0
    level = joint_level.to_float()
    if py > 0.0 and 0.0 < level < math.inf:
        return level / py
    return math.exp(joint_level.log() - log_py)


def _int_exp(t: float, rounding) -> int:
    """rounding(e^t), rounding math.floor or math.ceil, for t of any size.

    Beyond float range e^t keeps 60 bits of precision.
    """
    if t < 0.0:
        return 0
    if t <= 700.0:
        return rounding(math.exp(t))
    bits = t / _LN2
    whole = int(bits)
    return rounding(2.0 ** (bits - whole + 60.0)) << (whole - 60)


def _multinomial(total: int, counts: tuple[int, ...]) -> int:
    value = 1
    remaining = total
    for c in counts:
        value *= math.comb(remaining, c)
        remaining -= c
    return value


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def enumeration_budget(source: PairSource, n: int) -> int:
    """Type tuples visited: sum over y-compositions of prod_s C(n_s+|X|-1, |X|-1)."""
    cells = source.x_alphabet.size * source.y_alphabet.size
    return math.comb(n + cells - 1, cells - 1)


def _group_levels(
    source: PairSource, packing: LevelPacking, exact: dict[int, Dyadic], y_index: int, size: int
) -> dict[int, int]:
    """Positive level key -> count over x-assignments of the `size` positions observing y_index.

    `exact` maps keys to their exact levels and is shared by the whole build.
    """
    column = (source.joint_dyadic[x][y_index] for x in range(source.x_alphabet.size))
    cells = [(packing.key(d), d) for d in column if not d.is_zero()]
    counts: dict[int, int] = {}
    for x_counts in _compositions(size, len(cells)):
        key = sum(k * cell_key for k, (cell_key, _) in zip(x_counts, cells))
        count = _multinomial(size, x_counts)
        if key in counts:
            counts[key] += count
            continue
        counts[key] = count
        if key not in exact:
            level = DYADIC_ONE
            for k, (cell_key, d) in zip(x_counts, cells):
                if k:
                    # d**k is the level of key k * cell_key: made once per build
                    power = exact.get(k * cell_key)
                    if power is None:
                        power = exact[k * cell_key] = d**k
                    level = level * power
            exact[key] = level
    return counts


def _convolve(a: dict[int, int], b: dict[int, int], exact: dict[int, Dyadic]) -> dict[int, int]:
    out: dict[int, int] = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = k1 + k2
            if key in out:
                out[key] += c1 * c2
                continue
            out[key] = c1 * c2
            if key not in exact:
                exact[key] = exact[k1] * exact[k2]
    return out


def _law_for_composition(
    source: PairSource, packing: LevelPacking, exact: dict[int, Dyadic], y_counts: tuple[int, ...]
) -> YTypeLaw:
    n = sum(y_counts)
    counts = None
    py_product = DYADIC_ONE
    for y_index, size in enumerate(y_counts):
        if size == 0:
            continue
        group = _group_levels(source, packing, exact, y_index, size)
        counts = group if counts is None else _convolve(counts, group, exact)
        py_product = py_product * source.py_dyadic[y_index] ** size
    blocks = []
    start = 1
    for key in descending({key: exact[key] for key in counts}):
        blocks.append(TypeBlock(start, counts[key], exact[key]))
        start += counts[key]
    zero_count = source.x_alphabet.size**n - (start - 1)
    if zero_count:
        blocks.append(TypeBlock(start, zero_count, DYADIC_ZERO))
    return YTypeLaw(
        y_counts=y_counts,
        y_sequences=_multinomial(n, y_counts),
        py_product=py_product,
        blocks=tuple(blocks),
    )


def guesswork_distribution(
    source: PairSource,
    n: int,
    max_type_tuples: int = DEFAULT_MAX_TYPE_TUPLES,
) -> GuessworkDistribution:
    """Exact rank law at length n via per-y-type enumeration."""
    if n < 1:
        raise SequenceError(f"sequence length must be >= 1, got {n}")
    required = enumeration_budget(source, n)
    if required > max_type_tuples:
        raise BudgetExceededError(required, max_type_tuples)
    packing = source.level_code.packing(n)
    exact: dict[int, Dyadic] = {}
    laws = tuple(
        _law_for_composition(source, packing, exact, c)
        for c in _compositions(n, source.y_alphabet.size)
    )
    return GuessworkDistribution(
        n=n,
        x_size=source.x_alphabet.size,
        y_symbols=source.y_alphabet.symbols,
        laws=laws,
    )


def _sequence_indices(source: PairSource, x_seq, y_seq) -> tuple[list[int], list[int]]:
    xs_raw = list(x_seq)
    ys_raw = list(y_seq)
    if len(xs_raw) != len(ys_raw):
        raise SequenceError(f"length mismatch: {len(xs_raw)} vs {len(ys_raw)}")
    if not xs_raw:
        raise SequenceError("sequences must have length >= 1")
    try:
        xs = [source.x_alphabet.index(s) for s in xs_raw]
        ys = [source.y_alphabet.index(s) for s in ys_raw]
    except KeyError as exc:
        raise SequenceError(f"unknown symbol: {exc.args[0]}") from None
    return xs, ys


def guess_rank(source: PairSource, x_seq, y_seq) -> int:
    """Exact optimal-order rank of x_seq given y_seq (1-based, exact integer).

    Counts sequences beating the target by suffix-level dictionaries:
    suffix[j] maps each positive joint product over positions j..n-1,
    as a packed level-code key, to the number of x-suffixes achieving
    it.  The count of strictly better sequences reads off suffix[0] by
    float log, with exact ``Dyadic`` comparison on near ties;
    lexicographic tie offsets query suffix[j+1] for the key completing a
    tied prefix, which is the target's key minus the prefix's.
    """
    xs, ys = _sequence_indices(source, x_seq, y_seq)
    return guess_rank_indices(source, xs, ys)


def guess_rank_indices(source: PairSource, xs: list[int], ys: list[int]) -> int:
    """guess_rank on alphabet indices (the sampling hot path skips symbol lookup)."""
    n = len(xs)
    x_size = source.x_alphabet.size
    packing = source.level_code.packing(n)
    cells = [[packing.key(d) for d in row] for row in source.joint_dyadic]

    suffix: list[dict[int, int]] = [dict() for _ in range(n + 1)]
    suffix[n] = {0: 1}
    for j in range(n - 1, -1, -1):
        acc: dict[int, int] = {}
        for x in range(x_size):
            w = cells[x][ys[j]]
            if w is None:
                continue
            for lv, c in suffix[j + 1].items():
                key = w + lv
                acc[key] = acc.get(key, 0) + c
        suffix[j] = acc
    positive_suffix = [sum(d.values()) for d in suffix]

    path = [cells[x][y] for x, y in zip(xs, ys)]
    if None not in path:
        target = sum(path)
        greater = packing.count_above(suffix[0], target)
        ties_before = 0
        prefix = 0
        for j in range(n):
            for x in range(xs[j]):
                w = cells[x][ys[j]]
                if w is None:
                    continue
                quotient = packing.quotient(target, prefix + w)
                if quotient is not None:
                    ties_before += suffix[j + 1].get(quotient, 0)
            prefix += path[j]
        return 1 + greater + ties_before

    # zero-probability sequences rank after every positive one, lexicographically
    before = 0
    prefix_zero = False
    for j in range(n):
        completions = x_size ** (n - j - 1)
        for x in range(xs[j]):
            if prefix_zero or cells[x][ys[j]] is None:
                before += completions
            else:
                before += completions - positive_suffix[j + 1]
        if path[j] is None:
            prefix_zero = True
    return positive_suffix[0] + before + 1


def log_moment_exact(
    source: PairSource,
    n: int,
    alpha: float,
    max_type_tuples: int = DEFAULT_MAX_TYPE_TUPLES,
) -> float:
    return guesswork_distribution(source, n, max_type_tuples).log_moment(alpha)


def moment_exact(
    source: PairSource,
    n: int,
    alpha: float,
    max_type_tuples: int = DEFAULT_MAX_TYPE_TUPLES,
) -> float:
    """E G(X1n|Y1n)^alpha, exactly enumerated."""
    return guesswork_distribution(source, n, max_type_tuples).moment(alpha)


def scgf_empirical(
    source: PairSource,
    n: int,
    alpha: float,
    max_type_tuples: int = DEFAULT_MAX_TYPE_TUPLES,
) -> float:
    """n^-1 log E G^alpha at finite n."""
    return log_moment_exact(source, n, alpha, max_type_tuples) / n


def plateau_window(source: PairSource, n: int, max_type_tuples: int = DEFAULT_MAX_TYPE_TUPLES) -> tuple[float, float]:
    """Sandwich endpoints for n^-1 log E G^alpha valid for every alpha <= -1.

    P(G=1) <= E G^alpha <= P(G=1) (1 + log|X|^n); both ends exact.
    """
    dist = guesswork_distribution(source, n, max_type_tuples)
    lo = dist.log_prob_eq_one() / n
    width = math.log1p(n * math.log(source.x_alphabet.size)) / n
    return lo, lo + width


def moment_bounds(source: PairSource, n: int, alpha: float) -> tuple[float, float]:
    """Provable bounds on E G^alpha for alpha in (-1, 0).

    The lower bound is the n-fold single-letter base exp(n alpha H_beta)
    with beta = 1/(1+alpha); the upper bound multiplies it by
    (1 + log|X|^n)^(-alpha).  Contract: lower <= moment_exact <= upper.
    """
    alpha = float(alpha)
    if not -1.0 < alpha < 0.0:
        raise GuessworkError(f"bounds require alpha in (-1, 0), got {alpha}")
    beta = 1.0 / (1.0 + alpha)
    log_base = n * alpha * conditional_renyi_arimoto(source, beta)
    lower = math.exp(log_base)
    upper = math.exp(log_base - alpha * math.log1p(n * math.log(source.x_alphabet.size)))
    return lower, upper
