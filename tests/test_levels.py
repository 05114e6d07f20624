"""The level code: packed exponent keys against exact Dyadic levels.

Laws and ranks built on packed keys must be bit-identical to the
Dyadic-keyed references in ``_oracle`` past brute-force reach, near ties
that float logs cannot separate must be ordered exactly, and the packing
must never carry across a field for products of up to n levels.
"""

import csv
import hashlib
import itertools
import json
import math
import sys
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guesslab import dyadic as dyadic_module
from guesslab.dyadic import (
    DYADIC_ONE,
    NEAR_TIE,
    Dyadic,
    LevelCode,
    LevelPacking,
    coprime_basis,
    descending,
)
from guesslab.guesswork import (
    GuessworkDistribution,
    GuessworkError,
    guess_rank_indices,
    guesswork_distribution,
)
from guesslab.cli import dispatch
from guesslab.parallel import UserEnsemble, kmin_distribution
from guesslab.model import load_source_file, make_source

import _oracle
from _oracle import float_source


def assert_matches_reference(source, n: int) -> None:
    dist = _oracle.split_laws(guesswork_distribution(source, n))
    compositions = list(_oracle.y_types(n, source.y_alphabet.size))
    assert len(dist.laws) == len(compositions)
    for law, y_counts in zip(dist.laws, compositions):
        ref = _oracle.dyadic_law(source, y_counts)
        assert law.y_types == ref.y_types
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


# ---------------------------------------------------------------------------
# column classes: y-types with equal class signatures share one law
# ---------------------------------------------------------------------------


def erasure_source():
    """Uniform binary X through an erasure channel, erasure probability 1/4.

    Columns 0 and 2 are permutations of each other; the erasure column, 1,
    is its own class.
    """
    return make_source(["0", "1"], ["0", "1", "2"], [[0.375, 0.125, 0.0], [0.0, 0.125, 0.375]])


def ternary_symmetric_source():
    """Uniform ternary X through a 3-ary symmetric channel: one class of three columns."""
    a, b = 0.8 / 3, 0.1 / 3
    return make_source(["0", "1", "2"], ["0", "1", "2"], [[a, b, b], [b, a, b], [b, b, a]])


def permuted_zero_source():
    """3x2, the columns permutations of each other with their zero cells in different rows."""
    return make_source(["a", "b", "c"], ["u", "v"], [[0.3, 0.0], [0.2, 0.3], [0.0, 0.2]])


def test_law_matches_dyadic_reference_on_shared_column_classes(noiseless, independent):
    for source, n in ((noiseless, 12), (independent, 12), (erasure_source(), 12),
                      (ternary_symmetric_source(), 8), (permuted_zero_source(), 12)):
        assert_matches_reference(source, n)


def test_each_class_signature_builds_one_shared_law(bsc01, skew22):
    # (source, n, the class of each y-symbol, y-types, laws built); skew22's columns are each their own class
    for source, n, members, y_types, built in ((bsc01, 64, (0, 0), 65, 1), (bsc01, 400, (0, 0), 401, 1),
                                               (erasure_source(), 12, (0, 1, 0), 91, 13),
                                               (skew22, 20, (0, 1), 21, 21)):
        laws = guesswork_distribution(source, n).laws
        assert len(laws) == len({law.signature for law in laws}) == built
        listed = [y_counts for law in laws for y_counts, _ in law.y_types]
        assert len(listed) == y_types
        assert sorted(listed) == list(_oracle.y_types(n, source.y_alphabet.size))
        signatures = set()
        for law in laws:
            assert [y_counts for y_counts, _ in law.y_types] == sorted(y_counts for y_counts, _ in law.y_types)
            law_signatures = set()
            for y_counts, _ in law.y_types:
                signature = [0] * (max(members) + 1)
                for c, size in zip(members, y_counts):
                    signature[c] += size
                law_signatures.add(tuple(signature))
            assert len(law_signatures) == 1
            signatures |= law_signatures
        assert len(signatures) == built


@st.composite
def sources_with_a_permuted_column(draw):
    """A lattice source with one column halved and a row permutation of that half appended.

    Halving keeps the lattice exact, so the new column is an exact
    permutation of the halved one, and the two share a class.
    """
    source = draw(_oracle.lattice_sources())
    joint = source.joint.copy()
    j = draw(st.integers(0, joint.shape[1] - 1))
    joint[:, j] /= 2.0
    permutation = draw(st.permutations(range(joint.shape[0])))
    joint = np.column_stack([joint, joint[list(permutation), j]])
    return make_source(source.x_alphabet.symbols, [f"y{k}" for k in range(joint.shape[1])], joint.tolist())


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(source=sources_with_a_permuted_column(), n=st.integers(1, 5))
def test_law_matches_dyadic_reference_with_a_permuted_column(source, n):
    assert_matches_reference(source, n)


@st.composite
def sources_with_repeats(draw):
    """Lattice sources whose columns repeat cell values and repeat as row permutations of each other.

    Each base column draws its cells from at most three numerators and
    appears once or twice, permuted; a last column takes the rest of the
    mass, so the joint stays on the 1/1024 lattice.
    """
    x_size = draw(st.integers(2, 4))
    values = draw(st.lists(st.integers(0, 32), min_size=1, max_size=3))
    columns = []
    for _ in range(draw(st.integers(1, 2))):
        base = draw(st.lists(st.sampled_from(values), min_size=x_size, max_size=x_size))
        base[0] = base[0] if any(base) else 1
        columns += [draw(st.permutations(base)) for _ in range(draw(st.integers(1, 2)))]
    columns.append([_oracle.DENOM - sum(map(sum, columns))] + [0] * (x_size - 1))
    joint = (np.array(columns).T / _oracle.DENOM).tolist()
    return make_source([f"x{i}" for i in range(x_size)], [f"y{j}" for j in range(len(columns))], joint)


def assert_matches_per_cell_build(source, n: int) -> None:
    dist = guesswork_distribution(source, n)
    reference = _oracle.percell_laws(source, n)
    assert len(dist.laws) == len(reference)
    for law, (y_types, py_product, counts, keys) in zip(dist.laws, reference):
        assert (law.keys.tolist(), law.counts.tolist(), law.y_types) == (keys.tolist(), list(counts), y_types)
        assert (law.py_product.m, law.py_product.e) == (py_product.m, py_product.e)
        assert law.y_sequences == sum(count for _, count in law.y_types)
    assert sum(law.y_sequences for law in dist.laws) == source.y_alphabet.size**n


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(source=sources_with_repeats(), n=st.integers(1, 5))
def test_laws_match_per_cell_build_with_repeated_cells_and_columns(source, n):
    assert_matches_per_cell_build(source, n)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(source=_oracle.lattice_sources(), n=st.integers(1, 7))
def test_columnar_build_matches_dict_build_over_lattice_sources(source, n):
    # the per-cell dict build: keys merged in dicts and convolved one signature at a time
    assert_matches_per_cell_build(source, n)


def test_columnar_build_matches_dict_build_on_two_word_keys():
    source = _oracle.float_3x3()
    assert source.level_code.packing(14).words == 2  # 87 bits in two words
    assert_matches_per_cell_build(source, 14)


def test_columnar_build_matches_dict_build_past_int64_counts():
    # two column classes, so the second is merged into the first: 2**63 sequences at n = 63;
    # the erasure source's laws also have zero-level blocks
    two_classes = make_source(["a", "b"], ["u", "v"], [[0.3, 0.1], [0.2, 0.4]])
    for source, n, dtype in ((two_classes, 62, np.int64), (two_classes, 63, object), (two_classes, 70, object),
                             (erasure_source(), 64, object)):
        assert len(source.column_classes) == 2
        assert {law.counts.dtype for law in guesswork_distribution(source, n).laws} == {np.dtype(dtype)}
        assert_matches_per_cell_build(source, n)


def test_laws_match_per_cell_build_on_fixtures(bsc01, skew22, noiseless, independent, uniform_binary, corpus):
    for source in (bsc01, skew22, noiseless, independent, uniform_binary, erasure_source(),
                   ternary_symmetric_source(), permuted_zero_source(), near_tie_source(), *corpus):
        assert_matches_per_cell_build(source, 6)


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


def descending_names(levels: dict, groups: list[int]) -> list:
    """``descending`` over named Dyadic levels, with their own logs and scales."""
    names = list(levels)
    logs = np.array([levels[k].log() for k in names])
    scales = np.array([(levels[k].m.bit_length() + abs(levels[k].e)) * math.log(2) for k in names])
    order = descending(logs, scales, np.array(groups), lambda i: levels[names[i]])
    return [names[i] for i in order.tolist()]


def test_near_tie_pair_is_distinct_with_equal_logs():
    d = [Dyadic.from_float(p) for p in NEAR_TIE_ENTRIES]
    high, low = d[0] * d[1], d[2] * d[2]
    assert high != low and high > low
    assert high.log() == low.log()
    assert descending_names({"low": low, "high": high}, [0, 0]) == ["high", "low"]
    assert descending_names({"high": high, "low": low}, [0, 0]) == ["high", "low"]
    # groups are sorted apart: no run crosses from one group into the next
    two_groups = {"low0": low, "high0": high, "low1": low, "high1": high}
    assert descending_names(two_groups, [0, 0, 1, 1]) == ["high0", "low0", "high1", "low1"]


def test_near_tie_law_and_ranks_match_fraction_brute_force(monkeypatch):
    src = near_tie_source()
    runs_taken = []
    exact_ranks = []
    rank_exact = 0
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
        exact_ranks.clear()  # the build and its blocks read exact levels too
        for xs in itertools.product(range(4), repeat=n):
            ys = [0] * n
            assert guess_rank_indices(src, list(xs), ys) == _oracle.fraction_rank(src, list(xs), ys)
        rank_exact += len(exact_ranks)
    assert runs_taken, "the exact tie-break of the law build was never taken"
    assert rank_exact, "the exact tie-break of the rank was never taken"


def test_view_logs_are_within_near_tie_of_exact_logs(bsc01, skew22, noiseless, corpus):
    sources = [(bsc01, 64), (float_source(31, 3, 2), 18), (float_source(32, 3, 1), 100)]
    sources += [(src, 8) for src in corpus]
    laws = [law for src, n in sources for law in guesswork_distribution(src, n).laws]
    for law in laws:
        for i, (log, scale) in enumerate(zip(law.logs.tolist(), law.scales.tolist())):
            assert abs(log - law.level(i).log()) <= NEAR_TIE * (1.0 + scale)
    # k-min pmf values, survival differences: numerators over one 2**K, K past a thousand bits at m = 3
    ensembles = (((bsc01,) * 3, 2, 12), ((bsc01, noiseless, skew22), 2, 10), ((bsc01, corpus[5]), 1, 9))
    for users, k, n in ensembles:
        dist = kmin_distribution(UserEnsemble(users, k), n)
        survivals = [dist._survival_at(t) for t in range(dist.total_sequences + 1)]
        nums = sorted({above - below for above, below in zip(survivals, survivals[1:])} - {0})
        logs, scales = dist.code.log_scales(nums)
        for num, log, scale in zip(nums, logs.tolist(), scales.tolist()):
            assert abs(log - dist.code.dyadic(num).log()) <= NEAR_TIE * (1.0 + scale)


def test_explicit_level_laws_read_like_keyed_laws(bsc01, corpus):
    """The Dyadic-keyed reference laws, as a distribution, equal the packed-key build."""
    for src, n in ((bsc01, 12), (corpus[5], 5), (near_tie_source(), 4)):
        keyed = guesswork_distribution(src, n)
        y_types = _oracle.y_types(n, src.y_alphabet.size)
        laws = tuple(_oracle.dyadic_law(src, y_counts) for y_counts in y_types)
        explicit = GuessworkDistribution(n, src.x_alphabet.size, src.y_alphabet.symbols, laws)
        assert explicit.laws == _oracle.split_laws(keyed).laws
        assert explicit.prob_eq_one_dyadic() == keyed.prob_eq_one_dyadic()
        for alpha in (-1.5, 0.5, 2.0):
            assert explicit.log_moment(alpha) == pytest.approx(keyed.log_moment(alpha), rel=1e-13, abs=0)
        lo, hi = 0.2 * src.log_x_size, 0.7 * src.log_x_size
        assert explicit.log_prob_log_window(lo, hi) == pytest.approx(keyed.log_prob_log_window(lo, hi), rel=1e-13, abs=0)


def swapped(law, i: int, j: int):
    """The law with its positive blocks i and j exchanged, counts, keys, logs and scales."""
    order = np.arange(len(law.counts))
    order[[i, j]] = j, i
    positive = order[: len(law.keys)]
    return replace(law, counts=law.counts[order], keys=law.keys[positive], logs=law.logs[positive],
                   scales=law.scales[positive])


@pytest.mark.parametrize("fault, message", [
    ("zero count", "contiguous"),
    ("short cover", "cover"),
    ("far-apart levels swapped", "decrease"),
    ("near-tie levels swapped", "decrease"),
    ("mass off 1", "mass"),
])
def test_distribution_rejects_malformed_laws(bsc01, fault, message):
    src = near_tie_source() if fault == "near-tie levels swapped" else bsc01
    n = 4
    laws = list(guesswork_distribution(src, n).laws)
    GuessworkDistribution(n, src.x_alphabet.size, src.y_alphabet.symbols, tuple(laws))  # as built: valid
    law = laws[0]
    if fault == "zero count":
        laws[0] = replace(law, counts=np.append(law.counts, 0))
    elif fault == "short cover":
        counts = law.counts.copy()
        counts[-1] += 1
        laws[0] = replace(law, counts=counts)
    elif fault == "far-apart levels swapped":
        laws[0] = swapped(law, 0, len(law.keys) - 1)
    elif fault == "near-tie levels swapped":
        # logs one ulp apart, inside the near-tie tolerance: only the exact levels tell
        assert abs(law.logs[6] - law.logs[7]) <= NEAR_TIE and law.level(6) > law.level(7)
        laws[0] = swapped(law, 6, 7)
    else:
        laws[0] = replace(law, y_sequences=law.y_sequences + 1)  # one y-sequence too many
    with pytest.raises(GuessworkError, match=message):
        GuessworkDistribution(n, src.x_alphabet.size, src.y_alphabet.symbols, tuple(laws))


def test_build_makes_exact_levels_only_on_near_ties(monkeypatch, bsc01):
    asked = []
    packed_dyadic = LevelPacking.dyadic
    monkeypatch.setattr(LevelPacking, "dyadic", lambda self, row: asked.append(tuple(row)) or packed_dyadic(self, row))
    for src, n, ties in ((bsc01, 64, False), (float_source(31, 3, 2), 18, False), (near_tie_source(), 4, True)):
        asked.clear()
        dist = guesswork_distribution(src, n)
        assert bool(asked) == ties
        # members of near-tie runs: neighbours in float order within the law's tolerance
        members = set()
        for law in dist.laws:
            order = np.argsort(-law.logs, kind="stable")
            ranked = law.logs[order]
            tolerance = NEAR_TIE * (1.0 + law.scales.max())
            for i in np.flatnonzero(ranked[:-1] - ranked[1:] <= tolerance).tolist():
                members |= {tuple(law.keys[order[i]]), tuple(law.keys[order[i + 1]])}
        assert set(asked) <= members


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
        assert _oracle.unpack(packing, key) == [sum(code.vectors[f][i] for f in factors) for i in range(fields)]
        assert key & packing.guard == 0
        assert packing.dyadic(packing.rows([key])[0]) == level

    for (_, a), ka in zip(products, keys):
        for (_, b), kb in zip(products, keys):
            assert (ka == kb) == (a == b)
            q = packing.quotient(ka, kb)
            exact = _oracle.divide_exact(a, b)
            if exact is None or exact.e > 0:
                assert q is None
            else:
                assert q is not None and packing.dyadic(packing.rows([q])[0]) == exact

    exact_levels = {}
    for key, (_, level) in zip(keys, products):
        exact_levels[key] = level
    distinct = list(exact_levels)
    logs, scales = packing.log_scales(packing.rows(distinct))
    groups = np.zeros(len(distinct), dtype=int)
    order = descending(logs, scales, groups, lambda i: exact_levels[distinct[i]]).tolist()
    assert [exact_levels[distinct[i]] for i in order] == sorted(exact_levels.values(), reverse=True)


def random_keys(packing, rng, size: int = 500) -> list[int]:
    """Keys of random vectors, every field below its guard bit."""
    return [sum(int(rng.integers(0, (mask >> 1) + 1)) << offset for offset, mask in packing.fields)
            for _ in range(size)]


def test_unpack_all_matches_unpack_key_by_key():
    word = dyadic_module._WORD
    tri2 = float_source(32, 3, 2)
    rng = np.random.default_rng(5)
    one_word = float_source(32, 3, 1).level_code.packing(140)
    # nine 53-bit mantissas at n = 10**4: three words
    wide = float_source(33, 3, 3).level_code.packing(10**4)
    cases = [(one_word, random_keys(one_word, rng)), (wide, random_keys(wide, rng))]
    for n in (18, 40):  # two words
        packing = tri2.level_code.packing(n)
        assert packing.words == 2
        cases.append((packing, random_keys(packing, rng)))
    cases.append((tri2.level_code.packing(18), _oracle.key_ints(tri2.level_code.packing(18), np.concatenate(
        [law.keys for law in guesswork_distribution(tri2, 18).laws]))))
    assert one_word.words == 1 and wide.words >= 3
    for packing, keys in cases:
        # no field runs across two words, so the int keys split into rows with no carry between words
        assert all(offset // word == (offset + mask.bit_length() - 1) // word for offset, mask in packing.fields)
        want = np.array([_oracle.unpack(packing, key) for key in keys], dtype=np.int64).T
        rows = packing.rows(keys)
        assert rows.shape == (len(keys), packing.words)
        assert np.array_equal(packing._unpack_all(rows), want)
        assert _oracle.key_ints(packing, rows) == keys


def test_log_scales_of_a_key_do_not_depend_on_the_batch(bsc01):
    # bsc01 at n = 40: batch-wide matrix products gave 13 of its 41 keys another log alone
    rng = np.random.default_rng(11)
    for source, n in ((bsc01, 40), (float_source(32, 3, 2), 18), (float_source(31, 3, 2), 10)):
        packing = source.level_code.packing(n)
        keys = np.unique(np.concatenate([law.keys for law in guesswork_distribution(source, n).laws]), axis=0)
        keys = keys[rng.permutation(len(keys))]
        logs, scales = packing.log_scales(keys)
        for i in sorted(rng.permutation(len(keys))[:300].tolist()):
            alone = packing.log_scales(keys[i : i + 1])
            assert (alone[0][0], alone[1][0]) == (logs[i], scales[i])


def test_coprime_basis_refines_shared_factors():
    assert coprime_basis([15, 21, 1]) == (3, 5, 7)
    assert coprime_basis([9, 3]) == (3,)
    assert coprime_basis([45, 75]) == (3, 5)
    assert coprime_basis([]) == ()


def test_level_code_rejects_levels_above_one():
    with pytest.raises(ValueError):
        LevelCode([Dyadic(3, 1)])


# ---------------------------------------------------------------------------
# correctly rounded level floats
# ---------------------------------------------------------------------------


@st.composite
def float_sources(draw):
    """Joint pmfs of arbitrary floats, |X| <= 3 and |Y| <= 2, every entry at least 0.03 before scaling."""
    x_size, y_size = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    weights = np.array(draw(st.lists(st.floats(0.03, 1.0), min_size=x_size * y_size,
                                     max_size=x_size * y_size))).reshape(x_size, y_size)
    joint = weights / weights.sum()
    joint[-1, -1] = 1.0 - (joint.sum() - joint[-1, -1])
    return make_source([f"x{i}" for i in range(x_size)], [f"y{j}" for j in range(y_size)], joint.tolist())


def exact_floats(code, keys) -> list[float]:
    return [code.dyadic(key).to_float() for key in keys]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(source=st.one_of(_oracle.lattice_sources(), float_sources()), n=st.integers(1, 6))
def test_floats_match_exact_to_float(source, n):
    dist = guesswork_distribution(source, n)
    packing = source.level_code.packing(n)
    keys = np.concatenate([law.keys for law in dist.laws])
    assert packing.floats(keys).tolist() == exact_floats(packing, keys)


@pytest.fixture(scope="module")
def bsc01_n240(bsc01):
    """bsc01 at n = 240: its smallest levels, 0.05**240 and near, are subnormal."""
    return guesswork_distribution(bsc01, 240)


@pytest.fixture()
def asked(monkeypatch):
    """The keys that LevelPacking.floats sends to the exact path."""
    keys = []
    packed_dyadic = LevelPacking.dyadic
    monkeypatch.setattr(LevelPacking, "dyadic", lambda self, row: keys.append(row.tolist()) or packed_dyadic(self, row))
    return keys


def test_floats_take_the_exact_path_on_midpoints_and_tiny_levels(asked, bsc01_n240):
    # 0.75 * (0.5 + 2**-53) = (3 * 2**52 + 3) * 2**-55: a 54-bit odd mantissa, halfway between doubles
    three_quarters, above_half, tiny = (Dyadic.from_float(x) for x in (0.75, 0.5 + 2.0**-53, 1e-160))
    packing = LevelCode([three_quarters, above_half, tiny]).packing(3)
    key = packing.key
    cases = {
        key(three_quarters) + key(above_half): 0.375 + 2.0**-53,  # the tie goes to the even mantissa
        2 * key(tiny): 1e-160 * 1e-160,  # subnormal
        3 * key(tiny): 0.0,  # below half the smallest subnormal
        key(three_quarters): 0.75,
    }
    keys = packing.rows(list(cases))
    assert packing.floats(keys).tolist() == list(cases.values())
    assert asked == keys[:3].tolist()

    # the levels below about 1e-300, by their float logs
    packing = bsc01_n240.laws[0].code
    keys = np.concatenate([law.keys[law.logs < -690.0] for law in bsc01_n240.laws])
    asked.clear()
    floats = packing.floats(keys).tolist()
    want = exact_floats(packing, keys)
    assert floats == want
    subnormal = {tuple(key) for key, x in zip(keys.tolist(), want) if x < sys.float_info.min}
    assert subnormal and subnormal <= set(map(tuple, asked))


def test_shared_law_reads_like_one_law_per_y_type(bsc01_n240):
    """The one law that bsc01's 241 y-types share agrees with a copy of it per y-type."""
    (law,) = bsc01_n240.laws
    assert len(law.y_types) == 241
    split = _oracle.split_laws(bsc01_n240)
    assert len(split.laws) == 241
    for alpha in (-1.5, -0.5, 1.5, 12.5):
        assert bsc01_n240.log_moment(alpha) == pytest.approx(split.log_moment(alpha), rel=1e-13, abs=0)
    # window probabilities, not their logs: the log of one near 1 is relatively ill-conditioned
    log_x = math.log(2.0)
    for lo, hi in ((0.0, 0.1 * log_x), (0.2 * log_x, 0.7 * log_x), (0.5 * log_x, 2.0 * log_x), (0.3, 0.3001)):
        assert bsc01_n240.prob_log_window(lo, hi) == pytest.approx(split.prob_log_window(lo, hi), rel=1e-13, abs=0.0)
    assert bsc01_n240.prob_eq_one_dyadic() == split.prob_eq_one_dyadic()


def test_log_prob_eq_one_is_within_4_ulps_of_mpmath(bsc01_n240, bsc01, noiseless, skew22):
    # the k-min law's P(G = 1) is 1 up to the rounding of the users' float entries:
    # m * 2**-1320 with a 1,320-bit m, whose log is about -9e-33
    kmin = kmin_distribution(UserEnsemble((bsc01, noiseless, skew22), 1), 12)
    for dist in (guesswork_distribution(bsc01, 64), bsc01_n240, kmin):
        exact = dist.prob_eq_one_dyadic()
        with mpmath.workdps(60):
            want = float(mpmath.log(mpmath.mpf(exact.m) * mpmath.mpf(2) ** exact.e))
        assert abs(dist.log_prob_eq_one() - want) <= 4 * math.ulp(want)


def test_floats_with_a_huge_error_bound_take_the_exact_path_everywhere(monkeypatch, asked, bsc01):
    monkeypatch.setattr(dyadic_module, "_FLOAT_ERROR", 1.0)
    for source, n in ((bsc01, 40), (float_source(31, 3, 2), 10)):
        asked.clear()
        keys = np.concatenate([law.keys for law in guesswork_distribution(source, n).laws])
        packing = source.level_code.packing(n)
        floats = packing.floats(keys).tolist()
        assert asked == keys.tolist()
        assert floats == exact_floats(packing, keys)


def run_dist(tmp_path, capsys, source, n: int) -> tuple[object, list[list[str]], str]:
    """The loaded source, and the rows and text of ``guesslab dist`` on a config written from it."""
    path = tmp_path / "source.json"
    path.write_text(json.dumps({"x_symbols": list(source.x_alphabet.symbols),
                                "y_symbols": list(source.y_alphabet.symbols),
                                "joint": source.joint.tolist()}))
    assert dispatch(["dist", "--source", str(path), "--n", str(n)]) == 0
    text = capsys.readouterr().out
    rows = list(csv.reader(text.splitlines()))
    assert rows[0] == ["y_type", "y_mass", "start", "count", "level"]
    return load_source_file(str(path)), rows[1:], text


def test_dist_makes_a_few_exact_levels_per_law(monkeypatch, tmp_path, capsys):
    made = []
    init = Dyadic.__init__
    monkeypatch.setattr(Dyadic, "__init__", lambda self, m, e: made.append(m) or init(self, m, e))
    _, rows, _ = run_dist(tmp_path, capsys, float_source(32, 3, 1), 140)
    assert len(rows) == 10_011  # C(142, 2) levels in the one law
    assert len(made) <= 10  # the source's entries and the y-type's probability


def test_dist_rows_match_exact_oracle_levels(tmp_path, capsys, bsc01, corpus):
    # the long laws' text is also pinned byte for byte, by its SHA-256
    cases = [
        (float_source(32, 3, 1), 140, "ae99bf0be4691c52778c520fb320254bc023dddf7ea865291eb551d9eda92002"),
        (bsc01, 100, "b232fbcdca958b57ce49bf125c0361bedcf5475b7885946129e442e052d2e1a4"),
        (float_source(31, 3, 2), 18, "6d403791bc26cc9f6f37a52ee2bf2304a359e4f3e5e55158c808741e15220ad7"),
    ]
    cases += [(src, n, None) for src in corpus for n in (3, 6)]
    for source, n, digest in cases:
        source, rows, text = run_dist(tmp_path, capsys, source, n)
        assert digest is None or hashlib.sha256(text.encode()).hexdigest() == digest
        want = []
        for y_counts in _oracle.y_types(n, source.y_alphabet.size):
            law = _oracle.dyadic_law(source, y_counts)
            y_type = ";".join(f"{s}:{c}" for s, c in zip(source.y_alphabet.symbols, y_counts))
            py = law.py_product.to_float()
            for block in law.blocks:
                level = block.joint_level.to_float()
                assert level > 0.0 or block.joint_level.is_zero()  # no level underflows here
                want.append((y_type, law.y_sequences * py, block.start, block.count, level / py))
        got = [(y_type, float(mass), int(start), int(count), float(level))
               for y_type, mass, start, count, level in rows]
        assert got == want


def test_dist_rows_whose_joint_level_underflows(tmp_path, capsys):
    """A y-column of mass 2**-12 at n = 90: joint levels below the normal doubles, conditional levels not.

    Every row, those included, is within 2 ulps of the float of the exact quotient.
    """
    small = 2.0**-13
    source = make_source(["0", "1"], ["u", "v"], [[0.5 - small, 1.5 * small], [0.5 - small, 0.5 * small]])
    n = 90
    source, rows, _ = run_dist(tmp_path, capsys, source, n)
    want = []
    for y_counts in _oracle.y_types(n, 2):
        law = _oracle.dyadic_law(source, y_counts)
        py = law.py_product.as_fraction()
        for block in law.blocks:
            below_normal = block.joint_level.to_float() < sys.float_info.min
            want.append((f"u:{y_counts[0]};v:{y_counts[1]}", block.start, block.count,
                         float(block.joint_level.as_fraction() / py), below_normal))
    assert [(row[0], int(row[2]), int(row[3])) for row in rows] == [w[:3] for w in want]
    for row, (*_, level, _) in zip(rows, want):
        assert abs(float(row[4]) - level) <= 2 * math.ulp(level)
    assert sum(below_normal for *_, below_normal in want) > 100
