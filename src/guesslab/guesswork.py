"""Exact conditional guesswork: optimal orders, ranks, laws, and moments.

The guess rank G(x1..xn | y1..yn) is the position of the x-sequence in
the optimal query order for its y-sequence: nonincreasing conditional
probability, ties broken lexicographically, zero-probability sequences
last (also lexicographically).  Within a fixed y-sequence, comparing
conditional probabilities is the same as comparing joint products, so
every comparison, tie, and count below is exact on the joint entries;
float logs order levels only where they cannot be wrong.

The law of the rank is built by the method of types, never by |X|**n
enumeration, on ``PairSource.column_classes``.  A column class is a set
of y-symbols whose columns are row permutations of each other, so a
y-type's law depends only on its signature, the number of positions in
each class.  The build enumerates the signatures, one law each, with its
y-sequences counted by formula: the BSC has one law for all n + 1
y-types.  Within a class, x-compositions run over the distinct values,
weighted by their multiplicities, by a binomial recurrence: the last two
values are merged into one part, and each composition over the merged
parts splits that part's positions one way after another, stepping the
level key by a constant and the count by one exact multiply and divide.
Levels are keyed by the source's level code (``dyadic.LevelCode``): a
product of joint entries is a packed exponent vector over a coprime basis
of their odd mantissas, laid in int64 words with no field across two, so a
product of levels is a sum of word rows with no carry.  Every law is built
at once, as arrays: the classes are folded in left to right, each fold
one gather of every law's (row, table row) pairs, adding key rows and
multiplying counts, then one sort and one ``np.add.reduceat`` merging equal
(law, key) rows.  The build makes no level exact: the keys of every law
are sorted by the float logs of their vectors, and only near ties are
ordered by exact ``Dyadic`` comparison.  A law keeps its counts and key
rows as arrays and rebuilds exact levels on demand (``YTypeLaw.blocks``);
mass, moments and windows are read from one
float view of the laws' positive blocks, each weighted by its
y-sequences, with power sums from the certified array
kernel ``power_sums_log``, and summed by numpy's pairwise sum: its terms
are nonnegative, so it is within a few times eps * log2(N) of the exact
sum, far inside each power sum's 1e-12 certificate.  Sequence counts
reach |X|**n: they are int64 while |X|**n < 2**63 and Python ints past
that, in object arrays.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, product
from operator import mul

import numpy as np

from .dyadic import _LN2, DYADIC_ONE, DYADIC_ZERO, NEAR_TIE, Dyadic, LevelPacking, descending
from .entropy import _scgf, _shaped
from .model import Alphabet, Distribution, PairSource
from .powersum import BUDGET_CAP, BudgetExceededError, GuessworkError, log_ints, power_sums_log

__all__ = [
    "BUDGET_CAP",
    "MAX_RANK_TABLE_ENTRIES",
    "GuessworkError",
    "SequenceError",
    "BudgetExceededError",
    "GuessOrder",
    "TypeBlock",
    "YTypeLaw",
    "GuessworkDistribution",
    "RankTables",
    "optimal_order",
    "guess_rank",
    "guess_rank_indices",
    "enumeration_budget",
    "guesswork_distribution",
    "moment_exact",
    "log_moment_exact",
    "log_moment_bounds",
    "moment_bounds",
    "scgf_empirical",
    "plateau_window",
]

# Bound on the cached entries of a RankTables: level keys of its suffix
# tables, memo slots (|X||Y| per state, with the state's key and code) and
# memoised better-counts.  An entry took 63 bytes on bsc at n = 32 and 121 at
# n = 400, where keys and counts run to hundreds of bits, so the bound is
# about 30 MiB.
MAX_RANK_TABLE_ENTRIES = 1 << 18
_MIN_NORMAL = sys.float_info.min  # the least positive normal double


class SequenceError(GuessworkError):
    """Bad query sequences: length mismatch, empty, or unknown symbols."""


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
    """Rank law conditional on a y-sequence, shared by every y-sequence of its class signature.

    ``signature`` counts the positions in each class of ``members``, and
    the ``y_sequences`` with it all have probability ``py_product``.
    Columnar: ``counts`` is the array of block sizes in rank order, int64
    while |X|**n < 2**63 and Python ints past that, with any zero-level
    block last, so block starts are their running sums.  The positive
    blocks' levels, descending, are the (blocks, W) int64 word rows ``keys``
    of the source's ``LevelPacking`` at length n (``code``), with their float
    ``logs`` and ``scales`` as ``code.log_scales`` gives them.  ``blocks``
    rebuilds the exact blocks on demand, and two laws are equal when their
    y-types and exact blocks are.
    """

    signature: tuple[int, ...]
    members: tuple[tuple[int, ...], ...] = field(repr=False)
    y_sequences: int
    py_product: Dyadic
    counts: np.ndarray = field(repr=False)
    keys: np.ndarray = field(repr=False)
    code: LevelPacking = field(repr=False)
    logs: np.ndarray = field(repr=False)
    scales: np.ndarray = field(repr=False)

    @property
    def y_types(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Each y-type of the signature with its y-sequences, in composition order, for ``dist`` and checks."""
        y_counts = [0] * sum(map(len, self.members))
        base = self.y_sequences // math.prod(len(m) ** s for m, s in zip(self.members, self.signature))
        y_types = []
        for split in product(*(_counted_compositions(s, len(m)) for s, m in zip(self.signature, self.members))):
            for members, (sizes, _) in zip(self.members, split):
                for y, size in zip(members, sizes):
                    y_counts[y] = size
            y_types.append((tuple(y_counts), math.prod((ways for _, ways in split), start=base)))
        return tuple(sorted(y_types))

    @property
    def y_masses(self) -> list[tuple[tuple[int, ...], float]]:
        """Each y-type with its mass, its y-sequences times p(y) as floats, for ``dist`` rows."""
        py = self.py_product.to_float()
        if py > 0.0:
            return [(y_counts, y_sequences * py) for y_counts, y_sequences in self.y_types]
        log_py = self.py_product.log()
        return [(y_counts, math.exp(math.log(y_sequences) + log_py)) for y_counts, y_sequences in self.y_types]

    def level(self, i: int) -> Dyadic:
        """Exact level of block i."""
        return self.code.dyadic(self.keys[i]) if i < len(self.keys) else DYADIC_ZERO

    @cached_property
    def blocks(self) -> tuple[TypeBlock, ...]:
        counts = self.counts.tolist()
        starts = accumulate(counts, initial=1)
        return tuple(TypeBlock(s, c, self.level(i)) for i, (s, c) in enumerate(zip(starts, counts)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, YTypeLaw):
            return NotImplemented
        return (self.y_types, self.py_product, self.blocks) == (other.y_types, other.py_product, other.blocks)


@dataclass(frozen=True)
class _FloatView:
    """Float64 columns over the positive blocks of every law of a distribution.

    Law j's blocks are at offsets[j]:offsets[j + 1], in rank order.  Ranks
    are exact in ``exact_starts`` and ``exact_counts``, arrays of the laws'
    count type, and ``log_starts`` and ``log_counts`` are their logs, which
    the power-sum kernel takes.
    """

    log_weights: np.ndarray  # log(y_sequences * level)
    log_starts: np.ndarray
    log_counts: np.ndarray
    exact_starts: np.ndarray
    exact_counts: np.ndarray
    offsets: list[int]


def _float_view(laws: tuple[YTypeLaw, ...], total: int) -> _FloatView:
    counts = [law.counts[: len(law.keys)] for law in laws]
    sizes = [len(law.keys) for law in laws]
    exact_counts = np.concatenate(counts)
    exact_starts = np.concatenate([np.add.accumulate(c) - c + 1 for c in counts])
    log_weights = np.repeat([math.log(law.y_sequences) for law in laws], sizes)
    log_weights += np.concatenate([law.logs for law in laws])
    return _FloatView(log_weights, log_ints(exact_starts, total), log_ints(exact_counts, total),
                      exact_starts, exact_counts, list(accumulate(sizes, initial=0)))


class GuessworkDistribution:
    """Exact law of the guess rank as probability-level blocks, one law per set of y-types sharing it.

    Optimal guessing queries levels in nonincreasing order, so block levels
    strictly decrease within each law, and every distribution is checked
    for it.  Mass, moments and windows are read from one cached float view
    of all the laws' positive blocks.
    """

    def __init__(
        self,
        n: int,
        x_size: int,
        y_symbols: tuple[str, ...],
        laws: tuple[YTypeLaw, ...],
    ):
        self.n = n
        self.x_size = x_size
        self.y_symbols = y_symbols
        self.laws = laws
        self._validate()

    def _validate(self) -> None:
        total = self.total_sequences
        counts = np.concatenate([law.counts for law in self.laws])
        if np.minimum.reduce(counts) < 1:
            raise GuessworkError("rank blocks must be contiguous from 1")
        firsts = list(accumulate((len(law.counts) for law in self.laws[:-1]), initial=0))
        if any(covered != total for covered in np.add.reduceat(counts, firsts).tolist()):
            raise GuessworkError(f"blocks must cover ranks 1..{total}")
        self._check_decreasing()
        mass = self.total_mass
        if abs(mass - 1.0) > 1e-10:
            raise GuessworkError(f"total mass {mass!r} deviates from 1")

    def _check_decreasing(self) -> None:
        """Levels strictly decrease in every law: by float log gaps, exactly on near ties."""
        logs = np.concatenate([law.logs for law in self.laws])
        scales = np.concatenate([law.scales for law in self.laws])
        ends = np.cumsum([len(law.keys) for law in self.laws])
        gaps = logs[:-1] - logs[1:]
        tolerance = NEAR_TIE * (1.0 + np.maximum(scales[:-1], scales[1:]))
        inner = np.ones(gaps.size, dtype=bool)
        inner[ends[:-1] - 1] = False
        if np.any(inner & (gaps < -tolerance)):
            raise GuessworkError("block levels must strictly decrease")
        for i in np.flatnonzero(inner & (np.abs(gaps) <= tolerance)).tolist():
            j = int(np.searchsorted(ends, i, side="right"))
            law = self.laws[j]
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
        return float(np.exp(view.log_weights + view.log_counts).sum())

    def law_rows(self) -> list[tuple[YTypeLaw, list[int], list[int], list[float]]]:
        """Each law with its blocks' starts, counts and conditional levels, in rank order.

        A level is its code's correctly rounded float over the y-sequence's
        probability as a float, in one numpy division per law.  Only a level
        below the normal range of a double is made exact; it and p(y) are
        scaled by one power of two that puts p(y) in [1/2, 1) before both
        are rounded, so its quotient is rounded as its neighbours' are.  The
        rows of all the y-types must number at most ``BUDGET_CAP``.
        """
        # a class of w members splits its s positions C(s + w - 1, s) ways
        required = sum(len(law.counts) * math.prod(math.comb(s + len(m) - 1, s)
                                                   for s, m in zip(law.signature, law.members)) for law in self.laws)
        if required > BUDGET_CAP:
            raise BudgetExceededError(required, BUDGET_CAP)
        rows = []
        for law in self.laws:
            py = law.py_product.to_float()
            floats = law.code.floats(law.keys)
            with np.errstate(divide="ignore", invalid="ignore"):  # p(y) may underflow; then no level is normal
                levels = (floats / py).tolist()
            below = np.flatnonzero(floats < _MIN_NORMAL).tolist()  # where level >= normal, so is p(y) >= level
            if below:
                shift = -law.py_product.e - law.py_product.m.bit_length()
                scaled_py = Dyadic(law.py_product.m, law.py_product.e + shift).to_float()
                for i in below:
                    exact = law.level(i)
                    levels[i] = Dyadic(exact.m, exact.e + shift).to_float() / scaled_py
            levels += [0.0] * (len(law.counts) - len(levels))  # the zero-level block
            counts = law.counts.tolist()
            rows.append((law, list(accumulate(counts[:-1], initial=1)), counts, levels))
        return rows

    @property
    def blocks(self) -> list[tuple[tuple[int, ...], float, int, int, float]]:
        """Flat display view: (y-type counts, y-type mass, start, count, conditional level).

        Each y-type has its law's ``law_rows``, and the y-types come in
        composition order.
        """
        y_types = []
        for law, starts, counts, levels in self.law_rows():
            rows = list(zip(starts, counts, levels))
            for y_counts, y_mass in law.y_masses:
                y_types.append((y_counts, y_mass, rows))
        y_types.sort(key=lambda y_type: y_type[0])
        return [(y_counts, y_mass, *row) for y_counts, y_mass, rows in y_types for row in rows]

    def prob_eq_one_dyadic(self) -> Dyadic:
        return sum((Dyadic.from_int(law.y_sequences) * law.level(0) for law in self.laws), DYADIC_ZERO)

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
        return _logsumexp(view.log_weights + power_sums_log(view.log_starts, view.log_counts, alpha))

    def moment(self, alpha: float) -> float:
        return exp_or_inf(self.log_moment(alpha))

    def scgf_empirical(self, alpha: float) -> float:
        return self.log_moment(alpha) / self.n

    def log_prob_log_window(self, lo: float, hi: float) -> float:
        """log P(log(G)/n in [lo, hi]); -inf when the event has zero mass.

        Blocks inside the window add their whole count; only the blocks
        holding its end ranks are clipped, in exact integers.  Ends past
        log|X| are settled before any rank is built from them.
        """
        ends = _window_ranks(self.n, self.x_size, lo, hi)
        if ends is None:
            return -math.inf
        r_lo, r_hi = ends
        view = self._view
        starts, counts = view.exact_starts, view.exact_counts
        inside = np.zeros(view.log_starts.size, dtype=bool)
        edges = []
        for p, q in zip(view.offsets, view.offsets[1:]):
            last = p + int(np.searchsorted(starts[p:q], r_hi, "right")) - 1
            if last < p:
                continue
            first = max(p + int(np.searchsorted(starts[p:q], r_lo, "right")) - 1, p)
            inside[first + 1 : last] = True
            for i in {first, last}:
                start = int(starts[i])
                a = max(start, r_lo)
                b = min(start + int(counts[i]) - 1, r_hi)
                if b >= a:
                    edges.append(view.log_weights[i] + math.log(b - a + 1))
        return _logsumexp(np.concatenate([view.log_weights[inside] + view.log_counts[inside], edges]))

    def prob_log_window(self, lo: float, hi: float) -> float:
        log_p = self.log_prob_log_window(lo, hi)
        return 0.0 if log_p == -math.inf else math.exp(log_p)


def _window_ranks(n: int, x_size: int, lo: float, hi: float) -> tuple[int, int] | None:
    """The ranks r with log(r)/n in [lo, hi], as (first, last); None when there are none."""
    log_x = math.log(x_size)
    if hi < lo or lo > log_x:
        return None
    r_lo = max(1, _int_exp(n * lo, math.ceil))
    total = x_size**n
    r_hi = total if hi > log_x else min(total, _int_exp(n * hi, math.floor))
    return None if r_hi < r_lo else (r_lo, r_hi)


def _logsumexp(values: np.ndarray) -> float:
    top = float(values.max(initial=-math.inf))
    if math.isinf(top):
        return top
    return top + math.log(float(np.exp(values - top).sum()))


def exp_or_inf(log_value: float) -> float:
    """exp(log_value), +inf past the float range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


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
    """The build's work in 64-bit words: C(n + R - 1, R - 1) compositions times the words of one count.

    R counts the distinct (column class, positive value) cells.  Summed over
    the signatures, the compositions of each class's size over its distinct
    values number C(n + R - 1, R - 1); a count, up to |X|**n, has n log2|X| bits.
    """
    distinct = sum(len(cls.levels) for cls in source.column_classes)
    words = max(1, math.ceil(n * math.log2(source.x_alphabet.size) / 64))
    return math.comb(n + distinct - 1, distinct - 1) * words


def _class_cells(source: PairSource, packing: LevelPacking) -> list[dict[int, int]]:
    """Level key -> multiplicity of each distinct positive value, per column class."""
    return [dict(zip(map(packing.key, cls.levels), cls.multiplicities)) for cls in source.column_classes]


def _group_levels(cells: dict[int, int], size: int) -> dict[int, int]:
    """Positive level key -> count over x-assignments of `size` positions of one column class.

    ``cells`` maps the class's keys to their multiplicities; a composition x
    over them stands for multinomial(size; x) * prod multiplicity**x.  By
    binomial recurrence: the last two cells, keys k and k' with
    multiplicities m and m', are merged into one part, and each composition
    of `size` over the R - 1 parts, with r positions in the merged one,
    splits them b : r - b for b = 0..r.  Each split steps the key by k - k'
    and the count by the exact (r - b) m / ((b + 1) m'), from
    C(r, b) m**b m'**(r - b) to C(r, b + 1) m**(b + 1) m'**(r - b - 1), so
    there is one step per composition over all R cells, in lexicographic order.
    """
    keys, mults = list(cells), list(cells.values())
    if len(keys) == 1:
        return {keys[0] * size: mults[0] ** size}
    *front, key_b, key_r = keys
    step = key_b - key_r
    m_b, m_r = mults[-2:]
    powers = [(i, [m**j for j in range(size + 1)]) for i, m in enumerate(mults[:-2]) if m > 1]
    counts: dict[int, int] = {}
    for y_counts, count in _counted_compositions(size, len(keys) - 1):
        for i, power in powers:
            count *= power[y_counts[i]]
        r = y_counts[-1]
        key = sum(map(mul, y_counts, front)) + r * key_r
        if m_r > 1:
            count *= m_r**r
        for b in range(r):
            counts[key] = counts.get(key, 0) + count
            key += step
            count = count * (r - b) // (b + 1) if m_b == m_r else count * (r - b) * m_b // ((b + 1) * m_r)
        counts[key] = counts.get(key, 0) + count
    return counts


def _convolve(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Key -> count of the sums of a key of a and one of b: a suffix table of ``RankTables``."""
    out: dict[int, int] = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = k1 + k2
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _fold_classes(packing: LevelPacking, cells: list[dict[int, int]], sizes: np.ndarray, dtype) -> tuple:
    """(law, key rows, counts) of the positive levels of every law, a signature per row of ``sizes``.

    The classes are folded in left to right for all the laws at once.  Per
    class, the group tables of the sizes the laws take (size 0 is the level
    one) become arrays at once, end to end.  The first class gives each law
    its table: a table's keys are distinct.  Each later one pairs every row
    of each law with every row of its table in one gather, by index
    arithmetic, adding key rows and multiplying counts, and ``_merge`` then
    sums the rows of equal (law, key).  The rows come grouped by law, in
    law order.
    """
    laws = np.arange(len(sizes), dtype=np.min_scalar_type(len(sizes)))  # small ints sort by radix
    for c, column in enumerate(sizes.T.tolist()):
        used = sorted(set(column))
        tables = [_group_levels(cells[c], size) if size else {0: 1} for size in used]
        table_keys = packing.rows([key for table in tables for key in table])
        table_counts = np.array([count for table in tables for count in table.values()], dtype=dtype)
        places = dict(zip(used, zip(accumulate(map(len, tables), initial=0), map(len, tables))))
        right_off, right_len = np.array([places[size] for size in column]).T
        if not c:  # each law takes its table
            law = np.repeat(laws, right_len)
            keys, counts = table_keys, table_counts
            if used != column:  # some size is taken by more than one law
                rows = np.arange(law.size) + (right_off - np.cumsum(right_len) + right_len)[law]
                keys, counts = table_keys[rows], table_counts[rows]
            continue
        # each row of a law meets every row of its table: the row repeated, the table laid out in full
        reps = right_len[law]
        left = np.repeat(np.arange(law.size), reps)
        right = np.arange(left.size) + np.repeat(right_off[law] - np.cumsum(reps) + reps, reps)
        law = law[left]
        keys, counts = keys[left] + table_keys[right], counts[left] * table_counts[right]
        del left, right  # before the merge's sort, at its peak of memory
        law, keys, counts = _merge(law, keys, counts)
    return law, keys, counts


def _merge(law: np.ndarray, keys: np.ndarray, counts: np.ndarray) -> tuple:
    """The rows sorted by (law, key), equal ones summed by one ``np.add.reduceat``.

    The sort runs word by word from the first, then by law: the first pass
    need not be stable, as rows tied in every word and law are equal, and
    laws, small ints, sort stably by radix.
    """
    order = np.argsort(keys[:, 0])
    for word in keys.T[1:]:
        order = order[np.argsort(word[order], kind="stable")]
    order = order[np.argsort(law[order], kind="stable")]
    law, keys, counts = law[order], keys[order], counts[order]
    new = np.ones(law.size, dtype=bool)
    new[1:] = (law[1:] != law[:-1]) | (keys[1:] != keys[:-1]).any(axis=1)
    firsts = np.flatnonzero(new)
    return law[firsts], keys[firsts], np.add.reduceat(counts, firsts)


def guesswork_distribution(source: PairSource, n: int) -> GuessworkDistribution:
    """Exact rank law at length n, one law per class signature, within ``BUDGET_CAP``.

    A signature, a composition of n over the classes, has multinomial(n;
    signature) * prod |class|**size y-sequences.  All the laws are built as
    one set of rows (``_fold_classes``) and ordered in one pass: one
    ``log_scales`` call, and exact levels only on near ties.  Each law then
    takes its slices of the ordered rows, with its zero-level block.
    """
    if n < 1:
        raise SequenceError(f"sequence length must be >= 1, got {n}")
    required = enumeration_budget(source, n)
    if required > BUDGET_CAP:
        raise BudgetExceededError(required, BUDGET_CAP)
    packing = source.level_code.packing(n)
    cells = _class_cells(source, packing)
    total = source.x_alphabet.size**n
    signatures = list(_counted_compositions(n, len(cells)))
    sizes = np.array([signature for signature, _ in signatures]).reshape(len(signatures), len(cells))
    law, keys, counts = _fold_classes(packing, cells, sizes, np.int64 if total < 1 << 63 else object)
    logs, scales = packing.log_scales(keys)
    order = descending(logs, scales, law, lambda i: packing.dyadic(keys[i]))
    keys = keys[order]  # one at a time, each freeing its unordered rows
    counts = counts[order]
    logs = logs[order]
    scales = scales[order]
    ends = list(accumulate(np.bincount(law, minlength=len(signatures)).tolist(), initial=0))
    zeros = [total - positive for positive in np.add.reduceat(counts, ends[:-1]).tolist()]
    if any(zeros):  # every law's counts in one array, each zero-level block after its law's positive ones
        counts = np.insert(counts, [end for end, zero in zip(ends[1:], zeros) if zero], [z for z in zeros if z])
    count_ends = [end + before for end, before in zip(ends, accumulate(map(bool, zeros), initial=0))]
    members = tuple(cls.members for cls in source.column_classes)
    widths = [len(m) for m in members]
    # the columns of a class are permutations of each other, so they have one exact p(y)
    class_py = [source.py_dyadic[m[0]] for m in members]
    laws = []
    for (signature, multinomial), start, stop, count_start, count_stop in zip(
            signatures, ends, ends[1:], count_ends, count_ends[1:]):
        y_sequences = math.prod((w**size for w, size in zip(widths, signature)), start=multinomial)
        py_product = math.prod((py**size for py, size in zip(class_py, signature)), start=DYADIC_ONE)
        laws.append(YTypeLaw(signature=signature, members=members, y_sequences=y_sequences, py_product=py_product,
                             counts=counts[count_start:count_stop], keys=keys[start:stop], code=packing,
                             logs=logs[start:stop], scales=scales[start:stop]))
    return GuessworkDistribution(n, source.x_alphabet.size, source.y_alphabet.symbols, tuple(laws))


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

    A walk over the suffix states of the source's ``RankTables`` at this
    length (``PairSource.rank_tables``): each position adds the sequences
    that tie the target and first differ from it there, and the final state
    the count of strictly better ones, read off the full suffix table by
    float log with exact ``Dyadic`` comparison on near ties.  Ranks at one
    length, the sampler's included, share the tables and their memo.
    """
    xs, ys = _sequence_indices(source, x_seq, y_seq)
    return guess_rank_indices(source, xs, ys)


def guess_rank_indices(source: PairSource, xs: list[int], ys: list[int]) -> int:
    """guess_rank on alphabet indices, with no symbol lookup.

    Unequal lengths, empty lists and indices outside the alphabets raise
    ``SequenceError`` before the source's tables are read, so a malformed
    call never replaces them.
    """
    if not len(xs) == len(ys) >= 1:
        raise SequenceError(f"sequences must have one length >= 1, got {len(xs)} and {len(ys)}")
    x_size, y_size = source.x_alphabet.size, source.y_alphabet.size
    if not (set(xs).issubset(range(x_size)) and set(ys).issubset(range(y_size))):
        raise _index_error(x_size, y_size)
    return source.rank_tables(len(xs)).rank(xs, ys)


def _index_error(x_size: int, y_size: int) -> SequenceError:
    return SequenceError(f"alphabet indices must lie in [0, {x_size}) for x and [0, {y_size}) for y")


class RankTables:
    """Memoised suffix states of one (source, n), shared by every rank at length n.

    A source keeps one, for the last length it ranked (``PairSource.rank_tables``).

    A rank walks the sequence right to left.  The state after position j
    is the class signature code of y_{j+1}..y_{n-1} (its positions in each
    column class, as for the laws) with the packed key S of x_{j+1}..x_{n-1}.
    The sequences that tie the target and first differ from it at j put an
    x < x_j there and complete S + key(x_j, y_j) - key(x, y_j) after it, so
    their count depends only on the state and the pair (x_j, y_j): one memo
    maps (state, pair) to the next state and these ties.  The rank is 1 +
    the count of strictly better sequences, memoised per final state, + the
    ties along the walk.  Both read the tables of x-suffix counts per key,
    which depend only on the signature and are kept under (length, code);
    the table before y_j is the state's convolved with y_j's column.

    States have compact ids, 0 the empty suffix.  The memo is two flat arrays
    with a slot per (state, pair), at id * |X||Y| + x |Y| + y: next id (-1 if
    unknown) and ties, int64 while |X|**n < 2**63 and Python ints past that.

    ``entries`` counts table keys, the memo slots of the states past the
    empty one, and memoised counts.  Once a rank leaves more than
    ``MAX_RANK_TABLE_ENTRIES``, the states and counts are dropped, then the
    longest suffix tables until the bound holds: short suffixes are the ones
    shared most.  A batch walk keeps the states it is at, renamed.
    """

    def __init__(self, source: PairSource, n: int):
        if n < 1:
            raise SequenceError(f"sequences must have length >= 1, got {n}")
        self.n = n
        self.packing = packing = source.level_code.packing(n)
        self.cells = [[packing.key(d) for d in row] for row in source.joint_dyadic]
        class_of = sorted((y, c) for c, cls in enumerate(source.column_classes) for y in cls.members)
        cells = _class_cells(source, packing)
        self.columns = [cells[c] for _, c in class_of]  # per y, its class's key -> multiplicity
        self.steps = [1 << (c * n.bit_length()) for _, c in class_of]
        self.tables: list[dict[int, dict[int, int]]] = [{0: {0: 1}}] + [{} for _ in range(n)]
        self.width = len(self.cells) * len(self.columns)
        self.wide = len(self.cells) ** n >= 1 << 63  # ties and ranks past int64
        self._unknown = array("q", [-1]) * self.width
        self._untied = [0] * self.width if self.wide else array("q", [0]) * self.width
        self.states = [(0, 0, 0)]  # id -> (length, code, key); ids maps (key, code) -> id
        # the memo starts with room for the n + 1 states one walk makes
        self.ids, self.nexts, self.ties = {(0, 0): 0}, self._unknown * (n + 1), self._untied * (n + 1)
        self.above: dict[int, int] = {}  # final state -> count of strictly better sequences
        self.entries = 1  # the empty suffix's table key
        self.x_range = frozenset(range(len(self.cells)))
        self.y_range = frozenset(range(len(self.columns)))

    def rank(self, xs: list[int], ys: list[int]) -> int:
        n = self.n
        if not len(xs) == len(ys) == n:
            raise SequenceError(f"rank tables are for length {n}, got {len(xs)} and {len(ys)}")
        if not (self.x_range.issuperset(xs) and self.y_range.issuperset(ys)):
            raise _index_error(len(self.x_range), len(self.y_range))
        nexts, ties_of, width, y_size = self.nexts, self.ties, self.width, len(self.y_range)
        state = ties = 0
        for x, y in zip(reversed(xs), reversed(ys)):
            slot = state * width + x * y_size + y
            state = nexts[slot]
            if state < 0:
                if self.cells[x][y] is None:
                    rank = self._zero_rank(xs, ys)
                    break
                state = self._step(slot, x, y)
            ties += ties_of[slot]
        else:
            rank = 1 + self._above(state) + ties
        if self.entries > MAX_RANK_TABLE_ENTRIES:
            self._evict()
        return rank

    def ranks(self, pairs) -> np.ndarray:
        """``rank`` of each row of a (rows, n) array of cell indices x |Y| + y, int64 or Python ints.

        All rows walk together: each position gathers every row's next state
        and ties, after the slots not known yet take ``rank``'s step once each.
        """
        pairs, width = np.asarray(pairs), self.width
        if not (pairs.ndim == 2 and pairs.shape[1] == self.n and pairs.dtype.kind in "iu"
                and (pairs.size == 0 or 0 <= pairs.min() <= pairs.max() < width)):
            raise SequenceError(f"rank tables take (rows, {self.n}) arrays of cell indices in [0, {width})")
        pairs = pairs.astype(np.min_scalar_type(width - 1), copy=False)  # few bytes per cell to copy
        ranks = np.empty(len(pairs), dtype=object if self.wide else np.int64)
        zero = np.array([w is None for row in self.cells for w in row])[pairs].any(axis=1)
        for i in np.flatnonzero(zero).tolist():
            ranks[i] = self._zero_rank(*[part.tolist() for part in np.divmod(pairs[i], len(self.y_range))])
        columns = np.ascontiguousarray(pairs[~zero].T[::-1])
        states = np.zeros(columns.shape[1], dtype=np.int64)
        ties = np.zeros_like(ranks, shape=states.shape)
        for column in columns:
            slots = states * width + column
            for slot in np.flatnonzero(np.bincount(slots[np.frombuffer(self.nexts, np.int64)[slots] < 0])).tolist():
                self._step(slot, *divmod(slot % width, len(self.y_range)))
            states = np.frombuffer(self.nexts, np.int64)[slots]
            ties += (np.fromiter(map(self.ties.__getitem__, slots.tolist()), object, slots.size) if self.wide
                     else np.frombuffer(self.ties, np.int64)[slots])
            if self.entries > MAX_RANK_TABLE_ENTRIES:
                states = self._evict(states)
        above = np.zeros(len(self.states), dtype=ranks.dtype)
        for state in np.flatnonzero(np.bincount(states)).tolist():
            above[state] = self._above(state)
        ranks[~zero] = 1 + above[states] + ties
        if self.entries > MAX_RANK_TABLE_ENTRIES:
            self._evict()
        return ranks

    def _step(self, slot: int, x: int, y: int) -> int:
        """Learns the transition in ``slot``, of (x, y): its ties and the next state, whose table is built with it."""
        length, code, key = self.states[slot // self.width]
        table = self.tables[length][code]
        key += self.cells[x][y]
        tied = 0
        for row in self.cells[:x]:
            if row[y] is not None:
                q = self.packing.quotient(key, row[y])
                if q is not None:
                    tied += table.get(q, 0)
        code += self.steps[y]
        cached = self.tables[length + 1]
        if code not in cached:
            cached[code] = _convolve(self.columns[y], table)
            self.entries += len(cached[code])
        following = self.ids.setdefault((key, code), len(self.states))
        if following == len(self.states):
            self.states.append((length + 1, code, key))
            if len(self.nexts) < len(self.states) * self.width:
                self.nexts.extend(self._unknown)
                self.ties.extend(self._untied)
            self.entries += self.width
        self.nexts[slot] = following
        self.ties[slot] = tied
        return following

    def _above(self, state: int) -> int:
        if state not in self.above:
            _, code, key = self.states[state]
            self.above[state] = self.packing.count_above(self.tables[self.n][code], key)
            self.entries += 1
        return self.above[state]

    def _evict(self, held: np.ndarray = np.zeros(0, np.int64)) -> np.ndarray:
        """Drops the memo, then the longest tables; ``held`` states (of one length) stay, renamed as returned."""
        kept, renamed = np.unique(held, return_inverse=True)
        states = [self.states[0]] + [self.states[i] for i in kept.tolist()]
        self.entries -= self.width * (len(self.states) - len(states)) + len(self.above)
        self.states, self.ids = states, {(key, code): i for i, (_, code, key) in enumerate(states)}
        self.nexts, self.ties = self._unknown * len(states), self._untied * len(states)
        self.above.clear()
        held_tables = self.tables[states[-1][0]]
        for cached in self.tables[:0:-1]:  # the empty suffix's table stays
            while cached and cached is not held_tables and self.entries > MAX_RANK_TABLE_ENTRIES:
                self.entries -= len(cached.popitem()[1])
        return renamed + 1

    def _zero_rank(self, xs: list[int], ys: list[int]) -> int:
        """Zero-probability sequences rank after every positive one, lexicographically.

        The positive x-suffixes over positions j..n-1 number the product of
        the column supports of their y's.
        """
        n = self.n
        positive = [1] * (n + 1)
        for j in range(n - 1, -1, -1):
            positive[j] = positive[j + 1] * sum(self.columns[ys[j]].values())
        x_size = len(self.cells)
        before = 0
        prefix_zero = False
        for j in range(n):
            completions = x_size ** (n - j - 1)
            for x in range(xs[j]):
                if prefix_zero or self.cells[x][ys[j]] is None:
                    before += completions
                else:
                    before += completions - positive[j + 1]
            if self.cells[xs[j]][ys[j]] is None:
                prefix_zero = True
        return positive[0] + before + 1


def log_moment_exact(source: PairSource, n: int, alpha: float) -> float:
    return guesswork_distribution(source, n).log_moment(alpha)


def moment_exact(source: PairSource, n: int, alpha: float) -> float:
    """E G(X1n|Y1n)^alpha, exactly enumerated."""
    return guesswork_distribution(source, n).moment(alpha)


def scgf_empirical(source: PairSource, n: int, alpha: float) -> float:
    """n^-1 log E G^alpha at finite n."""
    return log_moment_exact(source, n, alpha) / n


def plateau_window(source: PairSource, n: int) -> tuple[float, float]:
    """Sandwich endpoints for n^-1 log E G^alpha valid for every alpha <= -1.

    P(G=1) <= E G^alpha <= P(G=1) (1 + log|X|^n); both ends exact.
    """
    dist = guesswork_distribution(source, n)
    lo = dist.log_prob_eq_one() / n
    width = math.log1p(n * math.log(source.x_alphabet.size)) / n
    return lo, lo + width


def log_moment_bounds(source: PairSource, n: int, alpha):
    """(log lower, log upper) of ``moment_bounds``, for a scalar or an array of orders in (-1, 0).

    At large n the bounds underflow a double; their logs do not.
    """
    alphas = np.asarray(alpha, dtype=np.float64)
    inside = (-1.0 < alphas) & (alphas < 0.0)
    if not inside.all():
        raise GuessworkError(f"bounds require alpha in (-1, 0), got {float(alphas[~inside].flat[0])}")
    flat = alphas.ravel()
    log_lower = n * _scgf(source, flat)
    log_upper = log_lower - flat * math.log1p(n * math.log(source.x_alphabet.size))
    return _shaped(alphas, log_lower), _shaped(alphas, log_upper)


def moment_bounds(source: PairSource, n: int, alpha: float) -> tuple[float, float]:
    """Provable bounds on E G^alpha for alpha in (-1, 0).

    The lower bound is the n-fold single-letter base exp(n alpha H_beta)
    with beta = 1/(1+alpha); the upper bound multiplies it by
    (1 + log|X|^n)^(-alpha).  Contract: lower <= moment_exact <= upper.
    """
    log_lower, log_upper = log_moment_bounds(source, n, float(alpha))
    return math.exp(log_lower), math.exp(log_upper)
