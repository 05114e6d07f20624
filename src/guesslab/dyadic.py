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
``LevelPacking`` packs the vectors of up to n factors into one small int:
the product of levels is the sum of their keys, and equal keys are equal
levels.  Packed levels are ordered by float logs, and ``Dyadic`` remains
the exact arithmetic for sums and for ordering the near ties that the
float logs cannot separate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Hashable, Iterable

import numpy as np

__all__ = [
    "Dyadic", "DYADIC_ZERO", "DYADIC_ONE", "NEAR_TIE",
    "LevelCode", "LevelPacking", "coprime_basis", "descending",
]

_LN2 = math.log(2.0)

# Float logs of levels closer than NEAR_TIE * (1 + scale) are ordered
# exactly; see ``descending``.
NEAR_TIE = 1e-12


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

    def divide_exact(self, other: "Dyadic") -> "Dyadic | None":
        """self / other when the quotient is dyadic, else None.

        Used by the tie-offset rank search: a required suffix product
        either is an achievable dyadic value or cannot occur at all.
        """
        if other.m == 0:
            raise ZeroDivisionError("dyadic division by zero")
        if self.m == 0:
            return DYADIC_ZERO
        q, r = divmod(self.m, other.m)
        if r != 0:
            return None
        return Dyadic(q, self.e - other.e)  # odd/odd with no remainder is odd

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
        """Natural log; -inf for zero.  math.log on big ints keeps full range."""
        if self.m == 0:
            return float("-inf")
        return math.log(self.m) + self.e * _LN2

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


def descending(levels: "dict[Hashable, Dyadic]") -> list:
    """Keys of distinct positive levels, largest level first.

    Sorted by float log.  A log is rounded from parts as large as
    (m.bit_length() + |e|) * ln 2, its scale, so runs of neighbours whose
    logs lie within NEAR_TIE * (1 + the largest scale) of each other are
    re-sorted by exact comparison.
    """
    logs = {key: level.log() for key, level in levels.items()}
    ranked = sorted(logs, key=logs.__getitem__, reverse=True)
    gaps = [logs[a] - logs[b] for a, b in zip(ranked, ranked[1:])]
    scale = max(d.m.bit_length() + abs(d.e) for d in levels.values()) * _LN2
    tolerance = NEAR_TIE * (1.0 + scale)
    if gaps and min(gaps) <= tolerance:
        for start, stop in _runs([gap <= tolerance for gap in gaps]):
            ranked[start:stop] = sorted(ranked[start:stop], key=levels.__getitem__, reverse=True)
    return ranked


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
    """Exponent vectors packed into one int, for products of up to n levels.

    Field i is (n * largest coordinate i).bit_length() + 1 bits wide, so
    no sum of up to n keys reaches its top bit, the guard bit.  Keys add
    where levels multiply, and key 0 is the level one.  Zero has no key.
    """

    def __init__(self, code: LevelCode, n: int):
        self.code = code
        self.fields: list[tuple[int, int]] = []  # (offset, mask)
        self.guard = 0
        offset = 0
        for i in range(len(code.field_logs)):
            top = max((v[i] for v in code.vectors.values()), default=0)
            width = (n * top).bit_length() + 1
            self.fields.append((offset, (1 << width) - 1))
            self.guard |= 1 << (offset + width - 1)
            offset += width
        self._keys = {
            d: sum(c << offset for c, (offset, _) in zip(v, self.fields))
            for d, v in code.vectors.items()
        }

    def key(self, level: Dyadic) -> "int | None":
        """Key of one of the code's levels; None for zero."""
        return self._keys.get(level)

    def unpack(self, key: int) -> list[int]:
        return [(key >> offset) & mask for offset, mask in self.fields]

    def log_scales(self, keys: "list[int]") -> "tuple[np.ndarray, np.ndarray]":
        """(log level, scale) arrays from the vectors, as ``descending`` uses them.

        Each log sums k + 1 rounded products, so it is off by at most about
        (k + 3) ulps of its scale: far inside NEAR_TIE for any basis below
        a thousand elements.
        """
        fields = np.array(
            [[(key >> offset) & mask for key in keys] for offset, mask in self.fields],
            dtype=np.float64,
        ).reshape(len(self.fields), len(keys))
        return self.code.field_logs @ fields, np.abs(self.code.field_logs) @ fields

    def dyadic(self, key: int) -> Dyadic:
        *exponents, minus_e = self.unpack(key)
        m = 1
        for b, k in zip(self.code.basis, exponents):
            if k:
                m *= b**k
        return Dyadic(m, -minus_e)

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
        logs, scales = self.log_scales(keys + [target])
        gap = logs[:-1] - logs[-1]
        tolerance = NEAR_TIE * (1.0 + np.maximum(scales[:-1], scales[-1]))
        above = sum(counts[keys[i]] for i in np.flatnonzero(gap > tolerance).tolist())
        near = np.flatnonzero(np.abs(gap) <= tolerance).tolist()
        if near:
            exact_target = self.dyadic(target)
            above += sum(counts[keys[i]] for i in near if self.dyadic(keys[i]) > exact_target)
        return above
