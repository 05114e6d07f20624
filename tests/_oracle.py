"""Naive enumeration oracle used by the tests.

Sources drawn on the 1/1024 probability lattice have integer-exact
sequence probabilities: the numerator of a length-n sequence is a
product of cell numerators, held in int64 below 2^63 and as Python
integers past it, so ranks and block structure can be cross-checked
against the library with no floating point at all.

The rate-function reference conjugates the SCGF numerically, by
golden-section search over its values alone, so it shares no slope or
root-finding code with the library.

The Dyadic-keyed type-law build and rank below are the library's
earlier implementations, kept as references past brute-force reach: they
multiply, hash, compare and divide exact ``Dyadic`` levels where the
library adds and subtracts packed level-code keys.  The per-rank k-min law is likewise the
library's earlier one: a Poisson-binomial at every rank, where the
library reads survivals at the ranks asked for and moments segment by
segment.  ``split_laws`` gives
a distribution one law per y-type, as these references build it, where the
library shares one law among the y-types of a column-class signature.
``percell_laws`` is the library's earlier packed-key build: it enumerates
every y-type to group them by signature, and x-compositions over every
cell of a column, equal or not, and merges levels in dictionaries, one
signature at a time, where the library folds every law's arrays at once.
``group_levels`` is the library's earlier group table: one multinomial
term per composition over all the distinct values, where the library
steps a binomial recurrence.

``log_power_sum`` sums r**alpha over a rank block of any size in mpmath,
by direct sums and an uncertified Euler-Maclaurin series taken to 40
digits, for checks of the library's certified float kernel.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import product as iter_product
from math import factorial

import mpmath
import numpy as np
from hypothesis import strategies as st

from guesslab.dyadic import _WORD, DYADIC_ONE, DYADIC_ZERO, Dyadic, NumeratorCode, descending
from guesslab.entropy import _arimoto, conditional_min_entropy, conditional_shannon
from guesslab.guesswork import (
    GuessworkDistribution,
    YTypeLaw,
    _convolve,
    _counted_compositions,
    guesswork_distribution,
)
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


def float_source(seed: int, x_size: int, y_size: int):
    """Random joint pmf of arbitrary floats, every entry at least 0.03."""
    rng = np.random.default_rng(seed)
    weights = 0.03 + rng.random((x_size, y_size))
    joint = weights / weights.sum()
    joint[-1, -1] = 1.0 - (joint.sum() - joint[-1, -1])
    xs = [f"x{i}" for i in range(x_size)]
    ys = [f"y{j}" for j in range(y_size)]
    return make_source(xs, ys, joint.tolist())


def float_3x3(seed: int = 7, floor: float = 0.03) -> PairSource:
    """The 3x3 float source of the roadmap's memory and speed bars: Dirichlet weights above a floor.

    The same draw as the benchmark's ``workloads._float_joint(default_rng(seed), 3, 3, floor)``.
    """
    w = floor + np.random.default_rng(seed).dirichlet(np.ones(9)) * (1.0 - floor * 9)
    return make_source(["a", "b", "c"], ["u", "v", "w"], (w / w.sum()).reshape(3, 3).tolist())


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
    """Joint numerator of every x-sequence given y_seq, lexicographic order.

    Keys are int64 while the largest product fits, and Python integers
    (object dtype) past 2^63, where int64 products would wrap silently.
    """
    nums = numerators(source)
    largest = math.prod(int(nums[:, y].max()) for y in y_seq)
    keys = np.ones(1, dtype=np.int64 if largest < 2**63 else object)
    for y in y_seq:
        keys = (keys[:, None] * nums[:, y].astype(keys.dtype)[None, :]).ravel()
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
    by_counts = {y_counts: (law, y_sequences) for law in dist.laws for y_counts, y_sequences in law.y_types}
    assert len(by_counts) == sum(len(law.y_types) for law in dist.laws)
    y_size = source.y_alphabet.size
    col_sums = numerators(source).sum(axis=0, dtype=np.int64)
    expected_types = set(y_types(n, y_size))
    assert set(by_counts) == expected_types
    for counts in expected_types:
        law, y_sequences = by_counts[counts]
        assert y_sequences == multinomial(counts)
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


def golden_max_array(fn, lo: np.ndarray, hi: np.ndarray, tol: float = GOLDEN_TOL) -> np.ndarray:
    """Maxima of a concave fn on many brackets [lo, hi] at once by golden-section search;
    fn maps an array of points to their values."""
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while np.any(hi - lo > tol):
        left = f1 >= f2
        lo, hi = np.where(left, lo, x1), np.where(left, x2, hi)
        keep, f_keep = np.where(left, x1, x2), np.where(left, f1, f2)
        new = np.where(left, hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo))
        f_new = fn(new)
        x1, f1 = np.where(left, new, keep), np.where(left, f_new, f_keep)
        x2, f2 = np.where(left, keep, new), np.where(left, f_keep, f_new)
    return fn(0.5 * (lo + hi))


def golden_max(fn, lo: float, hi: float, tol: float = GOLDEN_TOL) -> float:
    """Maximum of a concave scalar fn on [lo, hi] by golden-section search."""
    points = golden_max_array(lambda xs: np.array([fn(float(x)) for x in xs]), np.array([lo]), np.array([hi]), tol)
    return float(points[0])


def rate_endpoint(source: PairSource) -> float:
    """Lambda*(x_sup) as the beta -> 0 limit of alpha x_sup - Lambda(alpha), in 40-digit mpmath:
    -log sum over the columns y of largest support N of N (prod_x p(x, y))^(1/N)."""
    supports = [[mpmath.mpf(float(v)) for v in col if v > 0.0] for col in source.joint.T]
    widest = max(len(cells) for cells in supports)
    with mpmath.workdps(40):
        total = mpmath.fsum(widest * mpmath.fprod(cells) ** (mpmath.mpf(1) / widest)
                            for cells in supports if len(cells) == widest)
        return float(-mpmath.log(total))


def rate_golden(source: PairSource, x):
    """Lambda*(x) for a scalar or an array of x: h_inf - x up to gamma, +inf
    past the attainable slopes, ``rate_endpoint`` at x_sup, and in between
    the sup over orders of x*alpha - Lambda(alpha), maximised by golden
    section on Lambda's values alone, for all points at once: over alpha in
    [-1, 0] up to H(X|Y) and over beta = 1/(1+alpha) in (0, 1] above it."""
    xs = np.asarray(x, dtype=np.float64)
    flat = xs.ravel()
    g, h = gamma_closed_form(source), conditional_shannon(source)
    x_sup = math.log(int(np.count_nonzero(source.joint, axis=0).max()))
    out = np.where(flat <= g, conditional_min_entropy(source) - flat, math.inf)
    out[(flat > g) & (flat >= x_sup) & (flat <= min(x_sup + 1e-12, source.log_x_size))] = rate_endpoint(source)
    cols = source.columns
    # (points, the bracket's ends, beta and alpha at an order of the bracket)
    ranges = [((flat > g) & (flat <= h), (-1.0, 0.0), lambda a: (1.0 / (1.0 + a), a)),
              ((flat > max(g, h)) & (flat < x_sup), (0.0, 1.0), lambda b: (b, (1.0 - b) / b))]
    for inside, (lo, hi), orders in ranges:
        at = flat[inside]
        if at.size:
            def gain(point, at=at, orders=orders):
                beta, alpha = orders(point)
                return alpha * at - alpha * _arimoto(cols, beta, alpha)
            out[inside] = golden_max_array(gain, np.full(at.shape, lo), np.full(at.shape, hi))
    values = out.reshape(xs.shape)
    return float(values) if xs.ndim == 0 else values


def exact_columns(source: PairSource) -> list[list[mpmath.mpf]]:
    """The columns of the joint, exact in mpmath and normalised to mass exactly 1: every
    reference below then has Lambda(0) = 0, which the library's kernel asserts."""
    cells = [[mpmath.mpf(float(v)) for v in col if v > 0.0] for col in source.joint.T]
    total = mpmath.fsum(c for col in cells for c in col)
    return [[c / total for c in col] for col in cells]


def mp_scgf(cols, alpha) -> mpmath.mpf:
    """Lambda(alpha) = log sum_y (sum_x p(x, y)^beta)^(1 + alpha), beta = 1/(1 + alpha)."""
    beta = 1 / (1 + alpha)
    return mpmath.log(mpmath.fsum(mpmath.fsum(p**beta for p in col) ** (1 + alpha) for col in cols))


def mp_arimoto(cols, beta) -> mpmath.mpf:
    """H_beta(X|Y) = (beta/(1 - beta)) log sum_y (sum_x p(x, y)^beta)^(1/beta)."""
    return beta / (1 - beta) * mpmath.log(mpmath.fsum(mpmath.fsum(p**beta for p in col) ** (1 / beta) for col in cols))


def mp_rate(cols, x, alpha0: float) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(Lambda*(x), alpha*) on the strictly convex branch: the root of Lambda'(alpha) = x,
    from the tilted columns' entropies, by mpmath's secant method from alpha0."""
    def slope(alpha):
        beta = 1 / (1 + alpha)
        sums = [mpmath.fsum(p**beta for p in col) for col in cols]
        weights = [s ** (1 + alpha) for s in sums]
        ents = [-mpmath.fsum(p**beta / s * mpmath.log(p**beta / s) for p in col) for col, s in zip(cols, sums)]
        return mpmath.fsum(w * h for w, h in zip(weights, ents)) / mpmath.fsum(weights)

    alpha = mpmath.findroot(lambda a: slope(a) - x, mpmath.mpf(alpha0))
    return alpha * x - mp_scgf(cols, alpha), alpha


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


def group_levels(cells: dict[int, int], size: int) -> dict[int, int]:
    """Level key -> count over `size` positions: multinomial(size; x) * prod mult**x for each composition x."""
    keys = list(cells)
    powers = [(i, [mult**k for k in range(size + 1)]) for i, mult in enumerate(cells.values()) if mult > 1]
    counts: dict[int, int] = {}
    for x_counts, count in _counted_compositions(size, len(cells)):
        for i, power in powers:
            count *= power[x_counts[i]]
        key = sum(k * x for k, x in zip(keys, x_counts))
        counts[key] = counts.get(key, 0) + count
    return counts


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
    counts = [levels[lv] for lv in ranked]
    if DYADIC_ZERO in levels:
        counts.append(levels[DYADIC_ZERO])
    # the law names its levels as numerators over the smallest common 2**bits,
    # a stand-in for the level code and its word rows: the checks read only
    # its dyadic, at keys[i], and its log_scales
    bits = max(-lv.e for lv in ranked)
    code = NumeratorCode(bits)
    keys = [lv.m << (bits + lv.e) for lv in ranked]
    logs, scales = code.log_scales(keys)
    total = sum(counts)
    return YTypeLaw(
        signature=y_counts,
        members=singleton_classes(len(y_counts)),
        y_sequences=multinomial(y_counts),
        py_product=py_product,
        counts=np.array(counts, dtype=np.int64 if total < 1 << 63 else object),
        keys=np.array(keys, dtype=object),
        code=code,
        logs=logs,
        scales=scales,
    )


def unpack(packing, key: int) -> list[int]:
    """The exponent vector of an int key, field by field."""
    return [(key >> offset) & mask for offset, mask in packing.fields]


def key_ints(packing, rows: np.ndarray) -> list[int]:
    """The int keys that a packing's word rows spell, word j at bit _WORD * j."""
    return [sum(w << (_WORD * j) for j, w in enumerate(row)) for row in rows.tolist()]


def singleton_classes(y_size: int) -> tuple[tuple[int, ...], ...]:
    """Every y-symbol its own column class: a signature is then a y-type."""
    return tuple((y,) for y in range(y_size))


def split_laws(dist: GuessworkDistribution) -> GuessworkDistribution:
    """The distribution with one law per y-type, in composition order: each law repeated for each of its y-types."""
    singletons = singleton_classes(len(dist.y_symbols))
    laws = sorted((replace(law, signature=y_counts, members=singletons, y_sequences=count)
                   for law in dist.laws for y_counts, count in law.y_types),
                  key=lambda law: law.signature)
    return GuessworkDistribution(dist.n, dist.x_size, dist.y_symbols, tuple(laws))


def percell_laws(source: PairSource, n: int) -> list[tuple]:
    """(y_types, py_product, counts, keys) of each law, as the per-cell build made them, in its law order.

    The counts are a tuple of ints and the keys the packing's word rows.
    Columns share a class when their sorted positive keys agree, classes
    are numbered by first member, and each y-type joins the law of its
    signature, in the order the y-types first reach them.
    """
    packing = source.level_code.packing(n)
    classes: dict[tuple[int, ...], int] = {}
    members = []
    for column in zip(*source.joint_dyadic):
        cells = tuple(sorted(key for key in map(packing.key, column) if key is not None))
        members.append(classes.setdefault(cells, len(classes)))
    cells_of = list(classes)

    def group(c: int, size: int) -> dict[int, int]:
        counts: dict[int, int] = {}
        for x_counts, count in _counted_compositions(size, len(cells_of[c])):
            key = sum(k * w for k, w in zip(x_counts, cells_of[c]))
            counts[key] = counts.get(key, 0) + count
        return counts

    by_signature: dict[tuple[int, ...], list] = {}
    for y_counts, y_sequences in _counted_compositions(n, source.y_alphabet.size):
        signature = [0] * len(cells_of)
        for c, size in zip(members, y_counts):
            signature[c] += size
        by_signature.setdefault(tuple(signature), []).append((y_counts, y_sequences))
    merged = []
    for signature in by_signature:
        counts = None
        for c, size in enumerate(signature):
            if size:
                counts = group(c, size) if counts is None else _convolve(counts, group(c, size))
        merged.append(counts)
    keys = [key for counts in merged for key in counts]
    rows = packing.rows(keys)
    logs, scales = packing.log_scales(rows)
    groups = np.repeat(np.arange(len(merged)), [len(counts) for counts in merged])
    ranked = [keys[i] for i in descending(logs, scales, groups, lambda i: packing.dyadic(rows[i])).tolist()]
    class_py = dict(zip(members, source.py_dyadic))
    total = source.x_alphabet.size**n
    laws, stop = [], 0
    for (signature, y_types), counts in zip(by_signature.items(), merged):
        start, stop = stop, stop + len(counts)
        law_keys = tuple(ranked[start:stop])
        law_counts = [counts[key] for key in law_keys]
        if total > sum(law_counts):
            law_counts.append(total - sum(law_counts))
        py_product = math.prod((class_py[c] ** size for c, size in enumerate(signature)), start=DYADIC_ONE)
        laws.append((tuple(y_types), py_product, tuple(law_counts), packing.rows(list(law_keys))))
    return laws


def divide_exact(a: Dyadic, b: Dyadic) -> "Dyadic | None":
    """a / b when the quotient is dyadic, else None.

    Used by the tie-offset rank search: a required suffix product either
    is an achievable dyadic value or cannot occur at all.
    """
    if b.m == 0:
        raise ZeroDivisionError("dyadic division by zero")
    if a.m == 0:
        return DYADIC_ZERO
    q, r = divmod(a.m, b.m)
    if r != 0:
        return None
    return Dyadic(q, a.e - b.e)  # odd/odd with no remainder is odd


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
                quotient = divide_exact(target, prefix * w)
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


def kmin_law_per_rank(users, k: int, n: int) -> tuple[tuple[int, ...], tuple[Dyadic, ...]]:
    """(counts, levels) of the k-th smallest of the users' ranks, by one
    Poisson-binomial over users at every rank on integers over one 2**K."""
    m = len(users)
    dists = [guesswork_distribution(u, n) for u in users]
    total = dists[0].total_sequences
    shift = max(
        -block.joint_level.e
        for dist in dists
        for law in dist.laws
        for block in law.blocks
        if block.joint_level
    )
    steps = {1: [0] * m, total + 1: [0] * m}
    pending = [0] * m
    for i, dist in enumerate(dists):
        for law in dist.laws:
            for block in law.blocks:
                level = block.joint_level
                if level:
                    q = (law.y_sequences * level.m) << (shift + level.e)
                    steps.setdefault(block.start, [0] * m)[i] += q
                    steps.setdefault(block.start + block.count, [0] * m)[i] -= q
                    pending[i] += q * block.count

    done = [0] * m
    probs = [0] * m
    survival_prev = math.prod(pending)
    scale = Dyadic(1, -shift * m)
    counts, levels = [], []
    run_start, run_num = 1, None
    boundaries = sorted(steps)
    for b, b_next in zip(boundaries, boundaries[1:]):
        probs = [p + d for p, d in zip(probs, steps[b])]
        for t in range(b, b_next):
            for i in range(m):
                done[i] += probs[i]
                pending[i] -= probs[i]
            coef = [1] + [0] * (k - 1)
            for f, r in zip(done, pending):
                coef = [coef[0] * r] + [coef[j] * r + coef[j - 1] * f for j in range(1, k)]
            survival = sum(coef)
            num = survival_prev - survival
            survival_prev = survival
            if num != run_num:
                if run_num is not None:
                    counts.append(t - run_start)
                    levels.append(Dyadic.from_int(run_num) * scale)
                run_start, run_num = t, num
    counts.append(total + 1 - run_start)
    levels.append(Dyadic.from_int(run_num) * scale)
    return tuple(counts), tuple(levels)


_EM_START = 64  # ranks below are summed one by one
_EM_TERMS = 40


def log_power_sum(a: int, b: int, alpha: float) -> mpmath.mpf:
    """log of sum_{r=a}^{b} r**alpha at 40 digits, for 1 <= a <= b of any size.

    Ranks below 64, and blocks of at most 64 ranks, are summed one by one.
    The rest is Euler-Maclaurin on [a, b] until its terms fall below
    1e-45 of the sum, with every difference f^(m)(b) - f^(m)(a) =
    (alpha)_m a**(alpha-m) expm1((alpha - m) log(b/a)) taken without
    cancellation, so no precision scales with the size of a or b/a.
    """
    with mpmath.workdps(40):
        alpha = mpmath.mpf(alpha)
        head_end = b if b - a < _EM_START else min(b, _EM_START - 1)
        total = mpmath.fsum(mpmath.mpf(r) ** alpha for r in range(a, head_end + 1))
        a = max(a, head_end + 1)
        if a <= b:
            x = mpmath.mpf(a)
            span = mpmath.log1p(mpmath.mpf(b - a) / x)  # log(b/a)

            def jump(m: int, falling) -> mpmath.mpf:
                """f^(m)(b) - f^(m)(a), with f^(m)(x) = falling * x**(alpha - m)."""
                return falling * x ** (alpha - m) * mpmath.expm1((alpha - m) * span)

            power = alpha + 1
            integral = span if power == 0 else x**power * mpmath.expm1(power * span) / power
            ends = x**alpha * (2 + mpmath.expm1(alpha * span)) / 2  # (f(a) + f(b)) / 2
            total += integral + ends
            falling = alpha  # (alpha)_(2k-1) = alpha (alpha - 1) ... (alpha - 2k + 2)
            for k in range(1, _EM_TERMS + 1):
                term = mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * jump(2 * k - 1, falling)
                total += term
                if abs(term) < mpmath.mpf(10) ** -45 * abs(total):
                    break
                falling *= (alpha - 2 * k + 1) * (alpha - 2 * k)
            else:
                raise ArithmeticError(f"Euler-Maclaurin did not settle on [{a}, {b}] at order {alpha}")
        return mpmath.log(total)
