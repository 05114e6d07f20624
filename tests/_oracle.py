"""Naive enumeration oracle used by the tests.

Sources drawn on the 1/1024 probability lattice have integer-exact
sequence probabilities: the numerator of a length-n sequence is a
product of cell numerators below 2^63 for n <= 6, so ranks and block
structure can be cross-checked against the library with no floating
point at all.

The rate-function reference conjugates the SCGF numerically, by
golden-section search over its values alone, so it shares no slope or
root-finding code with the library.

The Dyadic-keyed type-law build and rank below are the library's
earlier implementations, kept as references past brute-force reach: they
multiply, hash and compare exact ``Dyadic`` levels where the library
adds packed level-code keys.
"""

from __future__ import annotations

import math
from itertools import product as iter_product
from math import factorial

import numpy as np
from hypothesis import strategies as st

from guesslab.dyadic import DYADIC_ONE, DYADIC_ZERO, Dyadic
from guesslab.entropy import conditional_min_entropy
from guesslab.guesswork import YTypeLaw
from guesslab.ldp import ALPHA_BRACKET, scgf_limit
from guesslab.model import PairSource, make_source

DENOM_BITS = 10
DENOM = 1 << DENOM_BITS


def lattice_source(rng: np.random.Generator, x_size: int, y_size: int) -> PairSource:
    """Random joint pmf with entries k/1024; every y-column kept positive."""
    cells = x_size * y_size
    counts = rng.multinomial(DENOM, [1.0 / cells] * cells).reshape(x_size, y_size)
    for j in range(y_size):
        if counts[:, j].sum() == 0:
            i, k = np.unravel_index(int(counts.argmax()), counts.shape)
            counts[i, k] -= 1
            counts[0, j] += 1
    joint = counts / DENOM
    xs = [f"x{i}" for i in range(x_size)]
    ys = [f"y{j}" for j in range(y_size)]
    return make_source(xs, ys, joint.tolist())


@st.composite
def lattice_sources(draw, x_size: "int | None" = None):
    """Joint pmfs on the 1/1024 lattice, |X| <= 4 (or x_size) and |Y| <= 3, no zero column."""
    if x_size is None:
        x_size = draw(st.integers(2, 4))
    y_size = draw(st.integers(1, 3))
    cuts = sorted(draw(st.lists(st.integers(0, DENOM), min_size=x_size * y_size - 1,
                                max_size=x_size * y_size - 1)))
    counts = np.diff([0] + cuts + [DENOM]).reshape(x_size, y_size)
    if np.any(counts.sum(axis=0) == 0):
        counts = counts + 1
        counts[np.unravel_index(int(counts.argmax()), counts.shape)] -= counts.sum() - DENOM
    xs = [f"x{i}" for i in range(x_size)]
    ys = [f"y{j}" for j in range(y_size)]
    return make_source(xs, ys, (counts / DENOM).tolist())


def numerators(source: PairSource) -> np.ndarray:
    """Exact lattice numerators of the joint pmf; fails off-lattice."""
    nums = np.rint(source.joint * DENOM).astype(np.int64)
    if not np.array_equal(nums / DENOM, source.joint):
        raise ValueError("source is not on the 1/1024 lattice")
    return nums


def sequence_keys(source: PairSource, y_seq: list[int]) -> np.ndarray:
    """Joint numerator of every x-sequence given y_seq, lexicographic order."""
    nums = numerators(source)
    keys = np.ones(1, dtype=np.int64)
    for y in y_seq:
        keys = (keys[:, None] * nums[:, y][None, :]).ravel()
    return keys


def naive_runs(source: PairSource, y_seq: list[int]) -> list[tuple[int, int, int]]:
    """(start, count, numerator) blocks after ranking by key desc, lex ties."""
    keys = sequence_keys(source, y_seq)
    order = np.lexsort((np.arange(keys.size), -keys))
    sk = keys[order]
    boundaries = np.flatnonzero(sk[1:] != sk[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [sk.size]))
    return [(int(s) + 1, int(e - s), int(sk[s])) for s, e in zip(starts, ends)]


def naive_rank(source: PairSource, x_seq: list[int], y_seq: list[int]) -> int:
    """Rank of x_seq among all x-sequences under key desc, lex tie-break."""
    keys = sequence_keys(source, y_seq)
    order = np.lexsort((np.arange(keys.size), -keys))
    target = 0
    for x in x_seq:
        target = target * source.x_alphabet.size + x
    return int(np.flatnonzero(order == target)[0]) + 1


def key_dyadic(key: int, n: int) -> Dyadic:
    """numerator / 1024^n as an exact dyadic."""
    if key == 0:
        return DYADIC_ZERO
    return Dyadic.from_int(key) * Dyadic(1, -DENOM_BITS * n)


def y_types(n: int, y_size: int):
    """All count vectors over the y-alphabet summing to n."""
    if y_size == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in y_types(n - head, y_size - 1):
            yield (head,) + rest


def multinomial(counts: tuple[int, ...]) -> int:
    total = factorial(sum(counts))
    for c in counts:
        total //= factorial(c)
    return total


def assert_matches_naive(source: PairSource, dist, n: int) -> None:
    """Integer-exact block comparison for every y-type of length n."""
    by_counts = {law.y_counts: law for law in dist.laws}
    assert len(by_counts) == len(dist.laws)
    y_size = source.y_alphabet.size
    col_sums = numerators(source).sum(axis=0, dtype=np.int64)
    expected_types = set(y_types(n, y_size))
    assert set(by_counts) == expected_types
    for counts in expected_types:
        law = by_counts[counts]
        assert law.y_sequences == multinomial(counts)
        py_num = 1
        for j, c in enumerate(counts):
            py_num *= int(col_sums[j]) ** c
        assert law.py_product == key_dyadic(py_num, n)
        rep = [j for j, c in enumerate(counts) for _ in range(c)]
        runs = naive_runs(source, rep)
        assert len(law.blocks) == len(runs)
        for block, (start, count, key) in zip(law.blocks, runs):
            assert block.start == start
            assert block.count == count
            assert block.joint_level == key_dyadic(key, n)


def fraction_rank(source: PairSource, x_seq: list[int], y_seq: list[int]) -> int:
    """Exact-rational rank for off-lattice sources; exponential in n."""
    from fractions import Fraction

    x_size = source.x_alphabet.size
    cells = [[Fraction(source.joint[i][j]) for j in range(source.y_alphabet.size)] for i in range(x_size)]
    scored = []
    for seq in iter_product(range(x_size), repeat=len(y_seq)):
        p = Fraction(1)
        for x, y in zip(seq, y_seq):
            p *= cells[x][y]
        scored.append((p, seq))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [seq for _, seq in scored].index(tuple(x_seq)) + 1


def gamma_closed_form(source: PairSource) -> float:
    """(sum_y max_y * ln mult_y) / (sum_y max_y): the exact slope limit.

    As the order drops to the plateau edge, each y-column contributes
    its maximum level with weight log of the maximum's multiplicity.
    Maxima and ties are found on the exact dyadic view.
    """
    num = den = 0.0
    for j in range(source.y_alphabet.size):
        col = [source.joint_dyadic[i][j] for i in range(source.x_alphabet.size)]
        top = max(col)
        mult = sum(1 for v in col if v == top)
        num += top.to_float() * math.log(mult)
        den += top.to_float()
    return num / den


GOLDEN_TOL = 1e-9
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(fn, lo: float, hi: float, tol: float = GOLDEN_TOL) -> float:
    """Maximum of a concave fn on [lo, hi] by golden-section search."""
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > tol:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = fn(x2)
    return fn(0.5 * (lo + hi))


def rate_golden(source: PairSource, x: float) -> float:
    """Lambda*(x): h_inf - x up to gamma, +inf past the attainable slopes,
    and sup over alpha in [-1, ALPHA_BRACKET] of x*alpha - Lambda(alpha)
    in between, maximised by golden section on ``scgf_limit``."""
    max_support = int((source.joint > 0.0).sum(axis=0).max())
    if x > source.log_x_size or x > math.log(max_support) + 1e-12:
        return math.inf
    if x <= gamma_closed_form(source):
        return conditional_min_entropy(source) - x
    return golden_max(lambda a: x * a - scgf_limit(source, a), -1.0, ALPHA_BRACKET)


def dyadic_group_levels(source: PairSource, y_index: int, size: int) -> dict[Dyadic, int]:
    """Level -> count over x-assignments of the `size` positions observing y_index."""
    x_size = source.x_alphabet.size
    column = [source.joint_dyadic[x][y_index] for x in range(x_size)]
    levels: dict[Dyadic, int] = {}
    for x_counts in y_types(size, x_size):
        level = DYADIC_ONE
        for x, k in enumerate(x_counts):
            if k:
                level = level * column[x] ** k
        count = multinomial(x_counts)
        levels[level] = levels.get(level, 0) + count
    return levels


def dyadic_convolve(a: dict[Dyadic, int], b: dict[Dyadic, int]) -> dict[Dyadic, int]:
    out: dict[Dyadic, int] = {}
    for lv1, c1 in a.items():
        for lv2, c2 in b.items():
            key = lv1 * lv2
            out[key] = out.get(key, 0) + c1 * c2
    return out


def dyadic_law(source: PairSource, y_counts: tuple[int, ...]) -> YTypeLaw:
    """Rank law of one y-type, merged and sorted on exact Dyadic levels."""
    levels: dict[Dyadic, int] = {DYADIC_ONE: 1}
    py_product = DYADIC_ONE
    for y_index, size in enumerate(y_counts):
        if size == 0:
            continue
        levels = dyadic_convolve(levels, dyadic_group_levels(source, y_index, size))
        py_product = py_product * source.py_dyadic[y_index] ** size
    ranked = sorted((lv for lv in levels if not lv.is_zero()), reverse=True)
    if DYADIC_ZERO in levels:
        ranked.append(DYADIC_ZERO)
    return YTypeLaw(
        y_counts=y_counts,
        y_sequences=multinomial(y_counts),
        py_product=py_product,
        counts=tuple(levels[lv] for lv in ranked),
        levels=tuple(ranked),
    )


def dyadic_rank(source: PairSource, xs: list[int], ys: list[int]) -> int:
    """Optimal-order rank by Dyadic-keyed suffix tables and exact division."""
    n = len(xs)
    jd = source.joint_dyadic
    x_size = source.x_alphabet.size

    suffix: list[dict[Dyadic, int]] = [dict() for _ in range(n + 1)]
    suffix[n] = {DYADIC_ONE: 1}
    for j in range(n - 1, -1, -1):
        acc: dict[Dyadic, int] = {}
        for x in range(x_size):
            w = jd[x][ys[j]]
            for lv, c in suffix[j + 1].items():
                key = w * lv
                acc[key] = acc.get(key, 0) + c
        suffix[j] = acc
    positive_suffix = [sum(c for lv, c in d.items() if not lv.is_zero()) for d in suffix]

    target = DYADIC_ONE
    for j in range(n):
        target = target * jd[xs[j]][ys[j]]

    if not target.is_zero():
        greater = sum(c for lv, c in suffix[0].items() if lv > target)
        ties_before = 0
        prefix = DYADIC_ONE
        for j in range(n):
            for x in range(xs[j]):
                w = jd[x][ys[j]]
                if w.is_zero():
                    continue
                quotient = target.divide_exact(prefix * w)
                if quotient is not None:
                    ties_before += suffix[j + 1].get(quotient, 0)
            prefix = prefix * jd[xs[j]][ys[j]]
        return 1 + greater + ties_before

    before = 0
    prefix_zero = False
    for j in range(n):
        completions = x_size ** (n - j - 1)
        for x in range(xs[j]):
            if prefix_zero or jd[x][ys[j]].is_zero():
                before += completions
            else:
                before += completions - positive_suffix[j + 1]
        if jd[xs[j]][ys[j]].is_zero():
            prefix_zero = True
    return positive_suffix[0] + before + 1
