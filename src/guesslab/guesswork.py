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
mantissas, so merging adds and hashes small ints.  The build makes no
level exact: the keys of every y-type are sorted by the float logs of
their vectors, and only near ties are ordered by exact ``Dyadic``
comparison.  A law keeps its counts and keys and rebuilds exact levels on
demand (``YTypeLaw.blocks``); mass, moments and windows are read from one
float view of all its positive blocks, with power sums from the certified
array kernel ``power_sums_log``.  All sequence counts are
arbitrary-precision integers because they reach |X|**n.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from operator import mul

import numpy as np

from .dyadic import DYADIC_ONE, DYADIC_ZERO, NEAR_TIE, Dyadic, LevelPacking, descending
from .entropy import _logsumexp, conditional_renyi_arimoto
from .model import Alphabet, Distribution, PairSource
from .powersum import power_sum_log, power_sums_log

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
# float64 ranks stop here: a block whose last rank reaches it is summed by
# power_sum_log on its exact integer ends
_WIDE_RANK = 1 << 1000


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


@dataclass(frozen=True, eq=False)
class YTypeLaw:
    """Rank law conditional on the y-sequence type (shared by all its y-sequences).

    Columnar: ``counts`` are the block sizes in rank order, by descending
    level with any zero-level block last, so block starts are their running
    sums.  A type law names the levels of its positive blocks by the packed
    level-code ``keys`` of ``packing``, with their float ``logs`` and
    ``scales`` as ``LevelPacking.log_scales`` gives them.  A law built from
    explicit ``levels``, one per block, has no keys: the k-min law.
    ``blocks`` rebuilds the exact blocks on demand, and two laws are equal
    when their y-types and exact blocks are.
    """

    y_counts: tuple[int, ...]
    y_sequences: int
    py_product: Dyadic
    counts: tuple[int, ...]
    levels: tuple[Dyadic, ...] = ()
    keys: tuple[int, ...] = ()
    packing: LevelPacking | None = field(default=None, repr=False)
    logs: np.ndarray | None = field(default=None, repr=False)
    scales: np.ndarray | None = field(default=None, repr=False)

    def level(self, i: int) -> Dyadic:
        """Exact level of block i."""
        if self.packing is None:
            return self.levels[i]
        return self.packing.dyadic(self.keys[i]) if i < len(self.keys) else DYADIC_ZERO

    @cached_property
    def blocks(self) -> tuple[TypeBlock, ...]:
        starts = accumulate(self.counts, initial=1)
        return tuple(TypeBlock(s, c, self.level(i)) for i, (s, c) in enumerate(zip(starts, self.counts)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, YTypeLaw):
            return NotImplemented
        return (self.y_counts, self.y_sequences, self.py_product, self.blocks) == (
            other.y_counts, other.y_sequences, other.py_product, other.blocks
        )


@dataclass(frozen=True)
class _FloatView:
    """Float64 columns over the positive blocks of every law of a distribution.

    Law j's blocks are at offsets[j]:offsets[j + 1], in rank order.  Ranks
    are exact in ``exact_starts`` and ``exact_counts``; ``starts`` and
    ``counts`` are their floats, which the kernel takes for every block in
    ``fit``, and ``wide`` lists the blocks whose last rank reaches 2**1000.
    """

    log_weights: np.ndarray  # log(y_sequences * level)
    starts: np.ndarray
    counts: np.ndarray
    log_counts: np.ndarray
    exact_starts: list[int]
    exact_counts: list[int]
    offsets: list[int]
    fit: "slice | np.ndarray"
    wide: list[int]


def _float_view(laws: tuple[YTypeLaw, ...], total: int) -> _FloatView:
    logs, log_ys, exact_starts, exact_counts, offsets = [], [], [], [], [0]
    for law in laws:
        starts = list(accumulate(law.counts, initial=1))
        if law.packing is None:
            positive = [i for i, level in enumerate(law.levels) if level]
            logs.append(np.array([law.levels[i].log() for i in positive]))
            exact_starts += [starts[i] for i in positive]
            exact_counts += [law.counts[i] for i in positive]
        else:
            logs.append(law.logs)
            exact_starts += starts[: len(law.keys)]
            exact_counts += law.counts[: len(law.keys)]
        offsets.append(len(exact_starts))
        log_ys.append(math.log(law.y_sequences))
    log_weights = np.repeat(log_ys, np.diff(offsets)) + np.concatenate(logs)
    if total < _WIDE_RANK:
        starts = np.array(exact_starts, dtype=np.float64)
        counts = np.array(exact_counts, dtype=np.float64)
        return _FloatView(log_weights, starts, counts, np.log(counts), exact_starts, exact_counts,
                          offsets, slice(None), [])
    wide = [i for i, (s, c) in enumerate(zip(exact_starts, exact_counts)) if s + c > _WIDE_RANK]
    return _FloatView(
        log_weights,
        np.array([min(s, _WIDE_RANK) for s in exact_starts], dtype=np.float64),
        np.array([min(c, _WIDE_RANK) for c in exact_counts], dtype=np.float64),
        np.array([math.log(c) for c in exact_counts]),
        exact_starts,
        exact_counts,
        offsets,
        np.setdiff1d(np.arange(len(exact_starts)), wide),
        wide,
    )


class GuessworkDistribution:
    """Exact law of the guess rank as per-y-type probability-level blocks.

    For single-user optimal guessing (monotone=True) block levels are
    strictly decreasing within each y-type; order-statistic laws built
    by the parallel module are not monotone and skip that check.  Mass,
    moments and windows are read from one cached float view of all the
    laws' positive blocks.
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
        total = self.total_sequences
        for law in self.laws:
            if min(law.counts) < 1:
                raise GuessworkError("rank blocks must be contiguous from 1")
            if sum(law.counts) != total:
                raise GuessworkError(f"blocks must cover ranks 1..{total}")
        if self.monotone:
            self._check_decreasing()
        mass = self.total_mass
        if abs(mass - 1.0) > 1e-10:
            raise GuessworkError(f"total mass {mass!r} deviates from 1")

    def _check_decreasing(self) -> None:
        """Levels strictly decrease in every law: by float log gaps, exactly on near ties."""
        keyed = [law for law in self.laws if law.packing is not None]
        for law in self.laws:
            if law.packing is None and not all(b < a for a, b in zip(law.levels, law.levels[1:])):
                raise GuessworkError("block levels must strictly decrease")
        if not keyed:
            return
        logs = np.concatenate([law.logs for law in keyed])
        scales = np.concatenate([law.scales for law in keyed])
        ends = np.cumsum([len(law.keys) for law in keyed])
        gaps = logs[:-1] - logs[1:]
        tolerance = NEAR_TIE * (1.0 + np.maximum(scales[:-1], scales[1:]))
        inner = np.ones(gaps.size, dtype=bool)
        inner[ends[:-1] - 1] = False
        if np.any(inner & (gaps < -tolerance)):
            raise GuessworkError("block levels must strictly decrease")
        for i in np.flatnonzero(inner & (np.abs(gaps) <= tolerance)).tolist():
            j = int(np.searchsorted(ends, i, side="right"))
            law = keyed[j]
            local = i - int(ends[j]) + len(law.keys)
            if not law.level(local + 1) < law.level(local):
                raise GuessworkError("block levels must strictly decrease")

    @cached_property
    def _view(self) -> _FloatView:
        return _float_view(self.laws, self.total_sequences)

    @cached_property
    def total_sequences(self) -> int:
        return self.x_size**self.n

    @cached_property
    def total_mass(self) -> float:
        view = self._view
        return math.fsum(np.exp(view.log_weights + view.log_counts).tolist())

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
            total = total + block_scale(law.level(0), law.y_sequences)
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
        view = self._view
        sums = np.empty(view.starts.size)
        sums[view.fit] = power_sums_log(view.starts[view.fit], view.counts[view.fit], alpha)
        for i in view.wide:
            start = view.exact_starts[i]
            sums[i] = power_sum_log(start, start + view.exact_counts[i] - 1, alpha)
        return _logsumexp(view.log_weights + sums)

    def moment(self, alpha: float) -> float:
        return exp_or_inf(self.log_moment(alpha))

    def scgf_empirical(self, alpha: float) -> float:
        return self.log_moment(alpha) / self.n

    def log_prob_log_window(self, lo: float, hi: float) -> float:
        """log P(log(G)/n in [lo, hi]); -inf when the event has zero mass.

        Blocks inside the window add their whole count; only the blocks
        holding its end ranks are clipped, in exact integers.
        """
        if hi < lo:
            return -math.inf
        r_lo = max(1, _int_exp(self.n * lo, math.ceil))
        r_hi = min(self.total_sequences, _int_exp(self.n * hi, math.floor))
        if r_hi < r_lo:
            return -math.inf
        view = self._view
        starts, counts = view.exact_starts, view.exact_counts
        inside = np.zeros(view.starts.size, dtype=bool)
        edges = []
        for p, q in zip(view.offsets, view.offsets[1:]):
            last = bisect_right(starts, r_hi, p, q) - 1
            if last < p:
                continue
            first = max(bisect_right(starts, r_lo, p, q) - 1, p)
            inside[first + 1 : last] = True
            for i in {first, last}:
                a = max(starts[i], r_lo)
                b = min(starts[i] + counts[i] - 1, r_hi)
                if b >= a:
                    edges.append(view.log_weights[i] + math.log(b - a + 1))
        return _logsumexp(np.concatenate([view.log_weights[inside] + view.log_counts[inside], edges]))

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


def _counted_compositions(total: int, parts: int):
    """(composition, multinomial coefficient) for every composition, in lexicographic order.

    Each coefficient steps from its predecessor's by one exact multiply and
    divide: the successor moves one unit of the last nonzero part j to part
    j - 1 and the rest of part j to the last part, which multiplies the
    coefficient by x_j / (x_{j-1} + 1).
    """
    x = [0] * (parts - 1) + [total]
    count = 1
    while True:
        yield tuple(x), count
        j = parts - 1
        while j > 0 and x[j] == 0:
            j -= 1
        if j == 0:
            return
        moved = x[j]
        count = count * moved // (x[j - 1] + 1)
        x[j] = 0
        x[j - 1] += 1
        x[-1] = moved - 1


def enumeration_budget(source: PairSource, n: int) -> int:
    """Type tuples visited: sum over y-compositions of prod_s C(n_s+|X|-1, |X|-1)."""
    cells = source.x_alphabet.size * source.y_alphabet.size
    return math.comb(n + cells - 1, cells - 1)


def _group_levels(source: PairSource, packing: LevelPacking, y_index: int, size: int) -> dict[int, int]:
    """Positive level key -> count over x-assignments of the `size` positions observing y_index."""
    column = (packing.key(source.joint_dyadic[x][y_index]) for x in range(source.x_alphabet.size))
    cells = [key for key in column if key is not None]
    counts: dict[int, int] = {}
    for x_counts, count in _counted_compositions(size, len(cells)):
        key = sum(map(mul, x_counts, cells))
        counts[key] = counts.get(key, 0) + count
    return counts


def _convolve(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = k1 + k2
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _law_counts(columns, y_counts: tuple[int, ...]) -> dict[int, int]:
    """Positive level key -> x-sequence count for one y-type; columns(y_index, size) gives each group's."""
    counts = None
    for y_index, size in enumerate(y_counts):
        if size:
            group = columns(y_index, size)
            counts = group if counts is None else _convolve(counts, group)
    return counts


def guesswork_distribution(
    source: PairSource,
    n: int,
    max_type_tuples: int = DEFAULT_MAX_TYPE_TUPLES,
) -> GuessworkDistribution:
    """Exact rank law at length n via per-y-type enumeration.

    Every law's keys are ordered in one pass: one ``log_scales`` call for
    the whole distribution, and exact levels only on near ties.
    """
    if n < 1:
        raise SequenceError(f"sequence length must be >= 1, got {n}")
    required = enumeration_budget(source, n)
    if required > max_type_tuples:
        raise BudgetExceededError(required, max_type_tuples)
    packing = source.level_code.packing(n)
    y_size = source.y_alphabet.size
    tables: dict[tuple[int, int], dict[int, int]] = {}

    def columns(y_index: int, size: int) -> dict[int, int]:
        # a column's table recurs across y-types only when |Y| >= 3
        if y_size < 3:
            return _group_levels(source, packing, y_index, size)
        table = tables.get((y_index, size))
        if table is None:
            table = tables[y_index, size] = _group_levels(source, packing, y_index, size)
        return table

    y_types = list(_counted_compositions(n, y_size))
    merged = [_law_counts(columns, y_counts) for y_counts, _ in y_types]
    keys = [key for counts in merged for key in counts]
    logs, scales = packing.log_scales(keys)
    groups = np.repeat(np.arange(len(merged)), [len(counts) for counts in merged])
    order = descending(logs, scales, groups, lambda i: packing.dyadic(keys[i]))
    logs, scales = logs[order], scales[order]
    ranked = [keys[i] for i in order.tolist()]
    total = source.x_alphabet.size**n
    laws = []
    stop = 0
    for (y_counts, y_sequences), counts in zip(y_types, merged):
        start, stop = stop, stop + len(counts)
        law_keys = tuple(ranked[start:stop])
        law_counts = [counts[key] for key in law_keys]
        zero_count = total - sum(law_counts)
        if zero_count:
            law_counts.append(zero_count)
        py_product = DYADIC_ONE
        for py, size in zip(source.py_dyadic, y_counts):
            py_product = py_product * py**size
        laws.append(YTypeLaw(
            y_counts=y_counts,
            y_sequences=y_sequences,
            py_product=py_product,
            counts=tuple(law_counts),
            keys=law_keys,
            packing=packing,
            logs=logs[start:stop],
            scales=scales[start:stop],
        ))
    return GuessworkDistribution(
        n=n,
        x_size=source.x_alphabet.size,
        y_symbols=source.y_alphabet.symbols,
        laws=tuple(laws),
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
