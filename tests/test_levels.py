"""The level code: packed exponent keys against exact Dyadic levels.

Laws and ranks built on packed keys must be bit-identical to the
Dyadic-keyed references in ``_oracle`` past brute-force reach, near ties
that float logs cannot separate must be ordered exactly, and the packing
must never carry across a field for products of up to n levels.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guesslab import dyadic as dyadic_module
from guesslab.dyadic import DYADIC_ONE, Dyadic, LevelCode, LevelPacking, coprime_basis, descending
from guesslab.guesswork import _compositions, guess_rank_indices, guesswork_distribution
from guesslab.model import make_source

import _oracle


def float_source(seed: int, x_size: int, y_size: int):
    """Random joint pmf of arbitrary floats, every entry at least 0.03."""
    rng = np.random.default_rng(seed)
    weights = 0.03 + rng.random((x_size, y_size))
    joint = weights / weights.sum()
    joint[-1, -1] = 1.0 - (joint.sum() - joint[-1, -1])
    xs = [f"x{i}" for i in range(x_size)]
    ys = [f"y{j}" for j in range(y_size)]
    return make_source(xs, ys, joint.tolist())


def assert_matches_reference(source, n: int) -> None:
    dist = guesswork_distribution(source, n)
    compositions = list(_compositions(n, source.y_alphabet.size))
    assert len(dist.laws) == len(compositions)
    for law, y_counts in zip(dist.laws, compositions):
        ref = _oracle.dyadic_law(source, y_counts)
        assert law.y_counts == ref.y_counts
        assert law.y_sequences == ref.y_sequences
        assert law.py_product == ref.py_product
        assert len(law.blocks) == len(ref.blocks)
        for block, want in zip(law.blocks, ref.blocks):
            assert (block.start, block.count) == (want.start, want.count)
            assert block.joint_level == want.joint_level


def test_law_matches_dyadic_reference_bsc_n64(bsc01):
    assert_matches_reference(bsc01, 64)


def test_law_matches_dyadic_reference_float_sources():
    assert_matches_reference(float_source(31, 3, 2), 18)
    assert_matches_reference(float_source(32, 3, 1), 100)


def test_law_matches_dyadic_reference_corpus_n8(corpus):
    for src in corpus:
        assert_matches_reference(src, 8)


def zero_cell_source():
    return make_source(["a", "b", "c"], ["u", "v"], [[0.3, 0.0], [0.2, 0.25], [0.0, 0.25]])


def test_rank_matches_dyadic_reference_n32(bsc01, skew22, noiseless, corpus):
    n = 32
    # corpus[1] and corpus[5] are 2x1 and 2x3: the Dyadic reference is slow on larger ones
    sources = [bsc01, skew22, noiseless, zero_cell_source(), corpus[1], corpus[5]]
    zero_tail = 0
    for index, src in enumerate(sources):
        rng = np.random.default_rng(900 + index)
        x_size, y_size = src.x_alphabet.size, src.y_alphabet.size
        for _ in range(200):
            xs = [int(v) for v in rng.integers(0, x_size, n)]
            ys = [int(v) for v in rng.integers(0, y_size, n)]
            want = _oracle.dyadic_rank(src, xs, ys)
            assert guess_rank_indices(src, xs, ys) == want
            zero_tail += any(src.joint[x][y] == 0.0 for x, y in zip(xs, ys))
    assert zero_tail >= 200


# 0.01 * 0.09 and 0.03 * 0.03 are distinct dyadics with equal float logs.
NEAR_TIE_ENTRIES = (0.01, 0.09, 0.03, 0.87)


def near_tie_source():
    return make_source(["a", "b", "c", "d"], ["y"], [[p] for p in NEAR_TIE_ENTRIES])


def test_near_tie_pair_is_distinct_with_equal_logs():
    d = [Dyadic.from_float(p) for p in NEAR_TIE_ENTRIES]
    high, low = d[0] * d[1], d[2] * d[2]
    assert high != low and high > low
    assert high.log() == low.log()
    assert descending({"low": low, "high": high}) == ["high", "low"]
    assert descending({"high": high, "low": low}) == ["high", "low"]


def test_near_tie_law_and_ranks_match_fraction_brute_force(monkeypatch):
    src = near_tie_source()
    runs_taken = []
    exact_ranks = []
    runs = dyadic_module._runs
    packed_dyadic = LevelPacking.dyadic
    monkeypatch.setattr(dyadic_module, "_runs", lambda near: runs_taken.extend(runs(near)) or runs(near))
    monkeypatch.setattr(
        LevelPacking, "dyadic", lambda self, key: exact_ranks.append(key) or packed_dyadic(self, key)
    )
    cells = [Fraction(p) for p in NEAR_TIE_ENTRIES]
    for n in range(1, 5):
        dist = guesswork_distribution(src, n)
        (law,) = dist.laws
        probs = sorted(
            (math.prod((cells[x] for x in seq), start=Fraction(1)) for seq in itertools.product(range(4), repeat=n)),
            reverse=True,
        )
        want = []
        start = 1
        for level, group in itertools.groupby(probs):
            count = len(list(group))
            want.append((start, count, level))
            start += count
        assert [(b.start, b.count, b.joint_level.as_fraction()) for b in law.blocks] == want
        for xs in itertools.product(range(4), repeat=n):
            ys = [0] * n
            assert guess_rank_indices(src, list(xs), ys) == _oracle.fraction_rank(src, list(xs), ys)
    assert runs_taken, "the exact tie-break of the law build was never taken"
    assert exact_ranks, "the exact tie-break of the rank was never taken"


MANTISSA_3_33 = 3**33  # the largest power of 3 below 2**53: the widest exponent field

odd_mantissas = st.builds(
    lambda a, b, c, d, e: 3**a * 5**b * 7**c * 11**d * 13**e,
    *(st.integers(0, 4) for _ in range(5)),
)


@st.composite
def level_sets(draw):
    """Levels m * 2**e <= 1 sharing odd factors, plus one with mantissa 3**33."""
    mantissas = draw(st.lists(odd_mantissas, min_size=1, max_size=5)) + [MANTISSA_3_33]
    return [Dyadic(m, -m.bit_length() - draw(st.integers(0, 6))) for m in mantissas]


def random_product(draw, levels, n):
    factors = draw(st.lists(st.sampled_from(levels), min_size=0, max_size=n))
    level = DYADIC_ONE
    for f in factors:
        level = level * f
    return factors, level


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(levels=level_sets(), n=st.integers(1, 12), data=st.data())
def test_level_code_is_exact_on_shared_factors(levels, n, data):
    code = LevelCode(levels)
    basis = code.basis
    assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(basis, 2))
    packing = code.packing(n)
    assert code.packing(n) is packing

    products = [random_product(data.draw, levels, n) for _ in range(6)]
    products.append((levels[-1:] * n, levels[-1] ** n))  # the widest field, full
    keys = []
    for factors, level in products:
        key = sum(packing.key(f) for f in factors)
        keys.append(key)
        # no carry: the packed sum unpacks to the sum of the vectors
        fields = len(packing.fields)
        assert packing.unpack(key) == [sum(code.vectors[f][i] for f in factors) for i in range(fields)]
        assert key & packing.guard == 0
        assert packing.dyadic(key) == level

    for (_, a), ka in zip(products, keys):
        for (_, b), kb in zip(products, keys):
            assert (ka == kb) == (a == b)
            q = packing.quotient(ka, kb)
            exact = a.divide_exact(b)
            if exact is None or exact.e > 0:
                assert q is None
            else:
                assert q is not None and packing.dyadic(q) == exact

    exact_levels = {}
    for key, (_, level) in zip(keys, products):
        exact_levels[key] = level
    order = descending(exact_levels)
    assert [exact_levels[k] for k in order] == sorted(exact_levels.values(), reverse=True)


def test_coprime_basis_refines_shared_factors():
    assert coprime_basis([15, 21, 1]) == (3, 5, 7)
    assert coprime_basis([9, 3]) == (3,)
    assert coprime_basis([45, 75]) == (3, 5)
    assert coprime_basis([]) == ()


def test_level_code_rejects_levels_above_one():
    with pytest.raises(ValueError):
        LevelCode([Dyadic(3, 1)])
