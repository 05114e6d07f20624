"""Exact dyadic-rational arithmetic for probability products.

Every finite IEEE-754 double is exactly m * 2**e with an odd integer
mantissa m, so any product of float probabilities is a dyadic rational
that can be multiplied, added, compared, and hashed exactly with big-int
arithmetic.  Guess ranks depend on exact equality of such products:
tie blocks must merge sequences whose probabilities coincide (e.g.
0.4*0.1 == 0.2*0.2 exactly) while rounded float products would also
merge near misses such as 0.01*0.09 versus 0.03*0.03.

Values are kept in canonical form: ``m`` odd and positive, or
``m == 0 and e == 0`` for the zero element.  Canonical form makes
multiplication closed (odd * odd is odd) without any gcd reduction.
``Dyadic`` does not subtract: where probabilities are differenced (the
k-min law), they are integer numerators over one power-of-two
denominator.

Long products have mantissas of thousands of bits, so the hot loops do
not multiply or hash ``Dyadic`` values.  A ``LevelCode`` factors the odd
mantissas of a fixed set of levels into a pairwise-coprime basis, which
makes every product of those levels a short exponent vector, and a
``LevelPacking`` packs the vectors of up to n factors into a row of int64
words, no field across two: the product of levels is the sum of their
keys, word by word with no carry, and equal keys are equal levels.  Packed
levels are ordered by float logs taken from their vectors, and a level
becomes a ``Dyadic`` only where exactness is read: sums, and the near ties
that the float logs cannot separate.

A ``NumeratorCode`` keys a level by its numerator over one 2**bits, as
the k-min law's probabilities are held.  Both codes give a key's exact level
(``dyadic``) and float logs (``log_scales``), a ``LevelPacking`` from word
rows.  It also gives correctly rounded floats (``floats``), for the
``dist`` rows of type laws: it multiplies tabulated basis powers in
double-double arithmetic and makes a level exact only where Ziv's rounding
test cannot decide, so the rows are read from the keys, not from exact
levels.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "Dyadic", "DYADIC_ZERO", "DYADIC_ONE", "NEAR_TIE",
    "LevelCode", "LevelPacking", "NumeratorCode", "coprime_basis", "descending",
]

_LN2 = math.log(2.0)
_TWO_53 = 9007199254740992.0

# Float logs of levels closer than NEAR_TIE * (1 + scale) are ordered
# exactly; see ``descending``.
NEAR_TIE = 1e-12

# Relative error per factor of ``LevelPacking.floats``: a power table entry
# is within 2**-106, and a double-double product of values in [1/2, 1)
# adds at most 17 * 2**-106, so 2**-100 = 64 * 2**-106 bounds both with
# room for their compounding.
_FLOAT_ERROR = 2.0**-100
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter

# Packed keys are rows of int64 words of this many bits, no field across two.
_WORD = 62
_WORD_MASK = (1 << _WORD) - 1


def _top_bits(k: int, length: int) -> int:
    """k > 0 of bit length ``length`` over 2**(length - 53), rounded half up: in [2**52, 2**53]."""
    if length <= 53:
        return k << (53 - length)
    return ((k >> (length - 54)) + 1) >> 1


def _two_product(a: np.ndarray, b: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """(p, err) with p = fl(a * b) and p + err == a * b exactly (Dekker 1971)."""
    p = a * b
    a_hi = _SPLIT * a
    a_hi = a_hi - (a_hi - a)
    a_lo = a - a_hi
    b_hi = _SPLIT * b
    b_hi = b_hi - (b_hi - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


class Dyadic:
    """Nonnegative dyadic rational m * 2**e in canonical form."""

    __slots__ = ("m", "e")

    def __init__(self, m: int, e: int):
        # Callers must pass canonical (m odd, or m == 0 and e == 0).
        self.m = m
        self.e = e

    @classmethod
    def from_float(cls, x: float) -> "Dyadic":
        if not (x >= 0.0) or math.isinf(x):
            raise ValueError(f"dyadic values must be finite and >= 0, got {x!r}")
        if x == 0.0:
            return DYADIC_ZERO
        mant, exp = math.frexp(x)
        m = int(mant * 9007199254740992.0)  # 2**53
        e = exp - 53
        shift = (m & -m).bit_length() - 1
        return cls(m >> shift, e + shift)

    @classmethod
    def from_int(cls, n: int) -> "Dyadic":
        if n < 0:
            raise ValueError("dyadic values must be >= 0")
        if n == 0:
            return DYADIC_ZERO
        shift = (n & -n).bit_length() - 1
        return cls(n >> shift, shift)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        if self.m == 0 or other.m == 0:
            return DYADIC_ZERO
        return Dyadic(self.m * other.m, self.e + other.e)

    def __pow__(self, k: int) -> "Dyadic":
        if k < 0:
            raise ValueError("negative powers are not closed over dyadics")
        if k == 0:
            return DYADIC_ONE
        if self.m == 0:
            return DYADIC_ZERO
        return Dyadic(self.m ** k, self.e * k)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        if self.m == 0:
            return other
        if other.m == 0:
            return self
        e = min(self.e, other.e)
        m = (self.m << (self.e - e)) + (other.m << (other.e - e))
        shift = (m & -m).bit_length() - 1
        return Dyadic(m >> shift, e + shift)

    def _cmp(self, other: "Dyadic") -> int:
        if self.m == 0:
            return -1 if other.m != 0 else 0
        if other.m == 0:
            return 1
        if self.e >= other.e:
            a, b = self.m << (self.e - other.e), other.m
        else:
            a, b = self.m, other.m << (other.e - self.e)
        return (a > b) - (a < b)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self.m == other.m and self.e == other.e

    def __lt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "Dyadic") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "Dyadic") -> bool:
        return self._cmp(other) >= 0

    def __hash__(self) -> int:
        return hash((self.m, self.e))

    def __bool__(self) -> bool:
        return self.m != 0

    def is_zero(self) -> bool:
        return self.m == 0

    def log(self) -> float:
        """Natural log; -inf for zero.

        A mantissa of L bits is 2**L times its top 53 bits over 2**53, so the
        log is (L + e) ln 2, rounded once, plus the log of that float in
        [1/2, 1]: log m + e ln 2 would cancel when m has thousands of bits.
        A value in [1/2, 2) is log1p of its exact difference from 1 instead,
        so a log near 0 keeps its relative precision.
        """
        if self.m == 0:
            return float("-inf")
        length = self.m.bit_length()
        power = length + self.e
        if power in (0, 1):  # then e <= 0
            one = 1 << -self.e
            return math.log1p((self.m - one) / one)
        return power * _LN2 + math.log(_top_bits(self.m, length) / _TWO_53)

    def to_float(self) -> float:
        """Correctly rounded double; 0.0 on underflow, inf on overflow."""
        if self.m == 0:
            return 0.0
        try:
            if self.e >= 0:
                return float(self.m << self.e)
            return self.m / (1 << -self.e)  # big-int division rounds correctly
        except OverflowError:
            return float("inf")

    def as_fraction(self) -> Fraction:
        if self.e >= 0:
            return Fraction(self.m << self.e, 1)
        return Fraction(self.m, 1 << (-self.e))

    def __repr__(self) -> str:
        return f"Dyadic({self.m}, {self.e})"


DYADIC_ZERO = Dyadic(0, 0)
DYADIC_ONE = Dyadic(1, 0)


def coprime_basis(values: Iterable[int]) -> tuple[int, ...]:
    """Pairwise-coprime integers > 1 over which every value factors.

    Naive gcd refinement: any two elements with a common factor g are
    replaced by a/g, g and b/g until none is left.  The product of the
    set drops at every step, so it ends.  Bernstein ("Factoring into
    coprimes in essentially linear time", J. Algorithms 2005) does this in
    essentially linear time; a source's dozen mantissas do not need it.
    """
    basis = {v for v in values if v > 1}
    while True:
        for a, b in combinations(sorted(basis), 2):
            g = math.gcd(a, b)
            if g > 1:
                basis -= {a, b}
                basis |= {v for v in (a // g, g, b // g) if v > 1}
                break
        else:
            return tuple(sorted(basis))


def descending(
    logs: np.ndarray, scales: np.ndarray, groups: np.ndarray, exact: "Callable[[int], Dyadic]"
) -> np.ndarray:
    """Positions of distinct positive levels, group by group, largest level first.

    ``logs`` and ``scales`` are the levels' float logs and scales as
    ``LevelPacking.log_scales`` gives them, ``groups`` their nondecreasing
    group numbers, and ``exact(i)`` the exact level at position i.  A log
    is rounded from parts as large as its scale, so runs of neighbours
    whose logs lie within NEAR_TIE * (1 + the group's largest scale) of
    each other are re-sorted by exact comparison; no other level is made
    exact.  Equal logs always share a run, so the sort by log need not be
    stable; the groups, small ints, then sort stably by radix.
    """
    if logs.size < 2:
        return np.arange(logs.size)
    order = np.argsort(-logs)
    order = order[np.argsort(groups.astype(np.min_scalar_type(groups[-1]))[order], kind="stable")]
    largest = np.zeros(int(groups[-1]) + 1)
    np.maximum.at(largest, groups, scales)
    ranked = logs[order]
    gaps = ranked[:-1] - ranked[1:]
    near = (gaps <= NEAR_TIE * (1.0 + largest[groups[:-1]])) & (groups[:-1] == groups[1:])
    if near.any():
        for start, stop in _runs(near.tolist()):
            order[start:stop] = sorted(order[start:stop].tolist(), key=exact, reverse=True)
    return order


def _runs(near: list[bool]) -> list[tuple[int, int]]:
    """[start, stop) of each maximal run of neighbours joined by near[i] (i to i + 1)."""
    runs = []
    start = 0
    for i, joined in enumerate(near + [False]):
        if not joined:
            if i > start:
                runs.append((start, i + 1))
            start = i + 1
    return runs


class LevelCode:
    """Nonzero levels m * 2**e (e <= 0) as exponent vectors over a coprime basis.

    A level's vector holds the exponent of each basis element in m, then
    -e.  The basis is pairwise coprime, so the vector of a product of
    levels is the sum of their vectors and equal products have equal
    vectors.
    """

    def __init__(self, levels: Iterable[Dyadic]):
        levels = {d for d in levels if not d.is_zero()}
        if any(d.e > 0 for d in levels):
            raise ValueError("a level code needs levels m * 2**e with e <= 0")
        self.basis = coprime_basis(d.m for d in levels)
        self.field_logs = np.array([math.log(b) for b in self.basis] + [-_LN2])
        # log b = bits * ln 2 + rest, rest in (-ln 2, 0], exact below as b < 2**53
        self.field_bits = np.array([b.bit_length() for b in self.basis] + [-1], dtype=np.float64)
        self.field_rests = np.array([math.log(b / 2 ** b.bit_length()) for b in self.basis] + [0.0])
        self.vectors = {d: self._vector(d) for d in levels}
        self._packings: dict[int, LevelPacking] = {}

    def _vector(self, level: Dyadic) -> tuple[int, ...]:
        m = level.m
        exponents = []
        for b in self.basis:
            k = 0
            while m % b == 0:
                m //= b
                k += 1
            exponents.append(k)
        if m != 1:
            raise ArithmeticError(f"mantissa of {level!r} does not factor over the basis")
        return tuple(exponents) + (-level.e,)

    def packing(self, n: int) -> "LevelPacking":
        """Packed keys for products of up to n levels (cached per n)."""
        packing = self._packings.get(n)
        if packing is None:
            packing = self._packings[n] = LevelPacking(self, n)
        return packing


class LevelPacking:
    """Exponent vectors packed into rows of int64 words, for products of up to n levels.

    Field i is (n * largest coordinate i).bit_length() + 1 bits wide, so
    no sum of up to n keys reaches its top bit, the guard bit.  The fields
    are laid in field order into words of _WORD bits, and one that would
    run past a word's end starts the next word, so none straddles two: a
    key is a row of ``words`` int64 words (``rows``), and keys add where
    levels multiply, word by word with no carry.  Key 0 is the level one,
    and zero has no key.  The rank walk keys its tables by the int whose
    bits at _WORD * j are word j (``key``, ``quotient``, ``count_above``).
    """

    def __init__(self, code: LevelCode, n: int):
        self.code = code
        self.fields: list[tuple[int, int]] = []  # (offset, mask) in the int key
        self._places: list[tuple[int, int, int]] = []  # (word, shift, mask) in the word row
        self.guard = 0
        word = shift = 0
        for i in range(len(code.field_logs)):
            top = max((v[i] for v in code.vectors.values()), default=0)
            width = (n * top).bit_length() + 1
            if width > _WORD:
                raise ValueError(f"a {width}-bit exponent field does not fit a {_WORD}-bit word")
            if shift + width > _WORD:
                word, shift = word + 1, 0
            offset = word * _WORD + shift
            self.fields.append((offset, (1 << width) - 1))
            self._places.append((word, shift, (1 << width) - 1))
            self.guard |= 1 << (offset + width - 1)
            shift += width
        self.words = word + 1
        self._keys = {
            d: sum(c << offset for c, (offset, _) in zip(v, self.fields))
            for d, v in code.vectors.items()
        }
        self._powers: dict[tuple[int, int], int] = {}
        self._tables: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def key(self, level: Dyadic) -> "int | None":
        """Key of one of the code's levels; None for zero."""
        return self._keys.get(level)

    def rows(self, keys: "list[int]") -> np.ndarray:
        """The (len(keys), ``words``) int64 word rows of int keys."""
        if self.words == 1:
            return np.array(keys, dtype=np.int64).reshape(-1, 1)
        big = np.array(keys, dtype=object)
        return np.array([(big >> shift) & _WORD_MASK for shift in range(0, self.words * _WORD, _WORD)],
                        dtype=np.int64).reshape(self.words, -1).T.copy()

    def _field(self, rows: np.ndarray, i: int) -> np.ndarray:
        """Field i of every word row."""
        word, shift, mask = self._places[i]
        return (rows[:, word] >> shift) & mask

    def _unpack_all(self, rows: np.ndarray) -> np.ndarray:
        """Every word row's vector, one row per field."""
        return np.array([self._field(rows, i) for i in range(len(self._places))], dtype=np.int64)

    def log_scales(self, rows: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """(log level, scale) arrays of word rows' levels, as ``descending`` uses them.

        The scale is the sum of the absolute parts, about log m + |e| ln 2.
        A log is its exact count of bits times ln 2, rounded once, plus the
        rests of its basis elements, so it is off by a few ulps of
        |log level| + sum |k rest|: far inside NEAR_TIE * (1 + scale).  The
        fields are added one at a time, in field order, so a key's log and
        scale do not depend on the other keys of the call.
        """
        code = self.code
        bits, rests, scales = np.zeros((3, len(rows)))
        for i, (b, rest, log) in enumerate(zip(code.field_bits, code.field_rests, np.abs(code.field_logs))):
            row = self._field(rows, i).astype(np.float64)
            bits += b * row
            rests += rest * row
            scales += log * row
        return bits * _LN2 + rests, scales

    def floats(self, rows: np.ndarray) -> np.ndarray:
        """The correctly rounded double of every word row's level, in one vectorised pass.

        A level is the product of its basis powers b**k, times 2**-e.  Each
        power is tabulated as (hi + lo) * 2**E, hi its top 53 bits in [1/2, 1)
        and lo the rest, rounded; the product runs in double-double
        (Dekker's two-product) and is renormalised into [1/2, 1) by frexp
        after every factor.  Ziv's test: with relative error at most
        _FLOAT_ERROR per factor, hi is the rounded level wherever |lo| is
        farther than that from half an ulp of hi.  The other keys take the
        exact ``dyadic(row).to_float()``: undecided ones, levels below the
        normal range, and hi = 1/2 with lo < 0, where the ulp below is half
        as wide.
        """
        if not len(rows):
            return np.zeros(0)
        hi = np.full(len(rows), 0.5)
        lo = np.zeros(len(rows))
        exponent = 1 - self._field(rows, len(self._places) - 1)
        for i in range(len(self._places) - 1):
            powers = self._field(rows, i)
            table_hi, table_lo, table_exponent = self._power_table(i, int(powers.max()))
            b_hi, b_lo = table_hi[powers], table_lo[powers]
            p, err = _two_product(hi, b_hi)
            t = err + (hi * b_lo + lo * b_hi)
            hi = p + t
            lo = t - (hi - p)  # exact: |p| >= |t|
            hi, shift = np.frexp(hi)
            lo = np.ldexp(lo, -shift)
            exponent += table_exponent[powers] + shift
        slack = 2.0**-54 - _FLOAT_ERROR * len(self._places)
        sure = (np.abs(lo) < slack) & ((lo >= 0.0) | (hi != 0.5)) & (exponent >= -1021) & (exponent <= 1024)
        out = np.ldexp(hi, np.where(sure, exponent, 0))
        for i in np.flatnonzero(~sure).tolist():
            out[i] = self.dyadic(rows[i]).to_float()
        return out

    def _power_table(self, i: int, top: int) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """(hi, lo, E) of b**k = (hi + lo) * 2**E for k = 0..top at least, b basis element i.

        hi is the top 53 bits of b**k over 2**53 and lo the rest over the
        same, rounded once: within 2**-107 of it, so 2**-106 relative.
        """
        table = self._tables.get(i)
        if table is None or table[0].size <= top:
            b = self.code.basis[i]
            his, los, exponents = [], [], []
            power = 1
            for _ in range(top + 1):
                length = power.bit_length()
                shift = max(length - 53, 0)
                head = power >> shift
                his.append(head << (53 - length + shift))
                los.append((power - (head << shift)) / (1 << shift))
                exponents.append(length)
                power *= b
            table = self._tables[i] = (
                np.ldexp(np.array(his, dtype=np.float64), -53),
                np.ldexp(np.array(los), -53),
                np.array(exponents, dtype=np.int64),
            )
        return table

    def dyadic(self, row: np.ndarray) -> Dyadic:
        """The exact level of a word row; basis powers are cached, as levels share them."""
        words = row.tolist()
        *exponents, minus_e = [(words[word] >> shift) & mask for word, shift, mask in self._places]
        m = 1
        for i, k in enumerate(exponents):
            if k:
                power = self._powers.get((i, k))
                if power is None:
                    power = self._powers[i, k] = self.code.basis[i] ** k
                m *= power
        return Dyadic(m, -minus_e)

    def numerators(self, rows: np.ndarray) -> "tuple[list[int], int]":
        """Every word row's level as an integer over one 2**shift, shift the largest -e.

        The basis powers are cached as ``dyadic`` caches them, each made from the one below it.
        """
        *vectors, minus_es = self._unpack_all(rows).tolist()
        shift = max(minus_es)
        numerators = [1 << (shift - e) for e in minus_es]
        for i, (b, exponents) in enumerate(zip(self.code.basis, vectors)):
            power, below = 1, 0
            for k in sorted(set(exponents) - {0}):
                power = self._powers[i, k] = self._powers.get((i, k)) or power * b ** (k - below)
                below = k
            numerators = [m * self._powers[i, k] if k else m for m, k in zip(numerators, exponents)]
        return numerators, shift

    def quotient(self, key: int, divisor: int) -> "int | None":
        """Key of level(key) / level(divisor) when its vector is nonnegative, else None.

        A negative coordinate borrows from the field above and leaves a
        guard bit set (or the difference negative).
        """
        q = key - divisor
        if q < 0 or q & self.guard:
            return None
        return q

    def count_above(self, counts: "dict[int, int]", target: int) -> int:
        """Total count of the keys whose level exceeds the target's.

        Float logs decide, except on near ties, which compare exact levels.
        """
        keys = [key for key in counts if key != target]
        rows = self.rows(keys + [target])
        logs, scales = self.log_scales(rows)
        gap = logs[:-1] - logs[-1]
        tolerance = NEAR_TIE * (1.0 + np.maximum(scales[:-1], scales[-1]))
        above = sum(counts[keys[i]] for i in np.flatnonzero(gap > tolerance).tolist())
        near = np.flatnonzero(np.abs(gap) <= tolerance).tolist()
        if near:
            exact_target = self.dyadic(rows[-1])
            above += sum(counts[keys[i]] for i in near if self.dyadic(rows[i]) > exact_target)
        return above


class NumeratorCode:
    """Levels k / 2**bits keyed by their integer numerators k > 0: the k-min law's code."""

    def __init__(self, bits: int):
        self.bits = bits

    def log_scales(self, keys: "list[int]") -> "tuple[np.ndarray, np.ndarray]":
        """(log level, scale) arrays, as ``LevelPacking.log_scales`` gives them.

        A key of L bits is 2**L times its top 53 bits over 2**53, in [1/2, 1),
        so its log is (L - bits) ln 2, rounded once, plus the log of that
        float: off by a few ulps of the scale, where log k - bits ln 2 cancels.
        """
        lengths = [key.bit_length() for key in keys]
        tops = [_top_bits(k, n) for k, n in zip(keys, lengths)]
        powers = np.array(lengths, dtype=np.float64) - self.bits
        rests = np.log(np.ldexp(np.array(tops, dtype=np.float64), -53))
        return powers * _LN2 + rests, np.abs(powers) * _LN2 - rests

    def dyadic(self, key: int) -> Dyadic:
        """key / 2**bits in canonical form."""
        zeros = (key & -key).bit_length() - 1
        return Dyadic(key >> zeros, zeros - self.bits)
