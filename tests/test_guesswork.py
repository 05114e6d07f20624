"""Exact guesswork laws, ranks, moments, and provable bounds."""

import itertools
import math
import time
import warnings
from bisect import bisect_right
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from guesslab import guesswork as guesswork_module
from guesslab.dyadic import DYADIC_ONE, DYADIC_ZERO, Dyadic
from guesslab.guesswork import (
    BudgetExceededError,
    GuessworkError,
    RankTables,
    SequenceError,
    enumeration_budget,
    guess_rank,
    guess_rank_indices,
    guesswork_distribution,
    log_moment_bounds,
    log_moment_exact,
    moment_bounds,
    moment_exact,
    optimal_order,
    plateau_window,
    scgf_empirical,
    _counted_compositions,
    _group_levels,
    _logsumexp,
)
from guesslab.entropy import conditional_min_entropy, conditional_renyi_arimoto
from guesslab.ldp import scgf_limit
from guesslab.model import Distribution, make_source

import _oracle


def test_optimal_order_examples():
    ab = make_source(["a", "b"], ["y"], [[0.75], [0.25]]).x_alphabet
    order = optimal_order(Distribution(ab, np.array([0.75, 0.25])))
    assert order.permutation == ("a", "b")
    assert order.rank("a") == 1 and order.symbol(2) == "b"

    tied = optimal_order(Distribution(ab, np.array([0.5, 0.5])))
    assert tied.permutation == ("a", "b")

    abc = make_source(["a", "b", "c"], ["y"], [[0.2], [0.5], [0.3]]).x_alphabet
    order3 = optimal_order(Distribution(abc, np.array([0.2, 0.5, 0.3])))
    assert order3.permutation == ("b", "c", "a")


def test_guess_rank_noiseless_is_always_one(noiseless):
    for n in (1, 3, 6):
        seq = ["0", "1"] * (n // 2) + ["0"] * (n % 2)
        assert guess_rank(noiseless, seq, seq) == 1


def test_guess_rank_uniform_ties_are_lexicographic():
    src = make_source(["a", "b"], ["y"], [[0.5], [0.5]])
    assert guess_rank(src, ["a", "a", "a"], ["y", "y", "y"]) == 1
    assert guess_rank(src, ["b", "b", "b"], ["y", "y", "y"]) == 8
    assert guess_rank(src, ["a", "b", "a"], ["y", "y", "y"]) == 3  # binary 010


def test_naive_rank_past_int64_numerators():
    # 384**8 ~ 4.7e20 passes 2**63: the oracle's keys must not wrap
    src = make_source(["0", "1"], ["0", "1"], [[0.375, 0.125], [0.125, 0.375]])
    xs, ys = [1, 0, 0, 1, 0, 0, 0, 0], [0] * 8
    assert _oracle.naive_rank(src, xs, ys) == 35
    assert guess_rank(src, [str(x) for x in xs], [str(y) for y in ys]) == 35


def test_guess_rank_matches_naive_oracle(corpus):
    rng = np.random.default_rng(404)
    for src in corpus[:8]:
        x_size, y_size = src.x_alphabet.size, src.y_alphabet.size
        for n in (1, 2, 4):
            for _ in range(12):
                xs = [int(v) for v in rng.integers(0, x_size, n)]
                ys = [int(v) for v in rng.integers(0, y_size, n)]
                want = _oracle.naive_rank(src, xs, ys)
                got = guess_rank(
                    src,
                    [src.x_alphabet.symbols[i] for i in xs],
                    [src.y_alphabet.symbols[j] for j in ys],
                )
                assert got == want


def test_guess_rank_matches_fraction_oracle_off_lattice(bsc01):
    rng = np.random.default_rng(405)
    for _ in range(10):
        xs = [int(v) for v in rng.integers(0, 2, 4)]
        ys = [int(v) for v in rng.integers(0, 2, 4)]
        want = _oracle.fraction_rank(bsc01, xs, ys)
        got = guess_rank(bsc01, [str(x) for x in xs], [str(y) for y in ys])
        assert got == want


def test_guess_rank_zero_probability_tail():
    src = make_source(["a", "b"], ["y"], [[1.0], [0.0]])
    # positive-mass sequences first, then zero sequences lexicographically
    assert guess_rank(src, ["a", "a"], ["y", "y"]) == 1
    assert guess_rank(src, ["a", "b"], ["y", "y"]) == 2
    assert guess_rank(src, ["b", "a"], ["y", "y"]) == 3
    assert guess_rank(src, ["b", "b"], ["y", "y"]) == 4


def test_guess_rank_input_errors(bsc01):
    with pytest.raises(SequenceError):
        guess_rank(bsc01, ["0"], ["0", "1"])
    with pytest.raises(SequenceError):
        guess_rank(bsc01, [], [])
    with pytest.raises(SequenceError):
        guess_rank(bsc01, ["z"], ["0"])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_oracle.lattice_sources(), st.integers(1, 6), st.data())
def check_shared_tables_rank_like_naive(source, n, data):
    x_size, y_size = source.x_alphabet.size, source.y_alphabet.size
    sequence = st.lists(st.integers(0, x_size - 1), min_size=n, max_size=n)
    y_sequence = st.lists(st.integers(0, y_size - 1), min_size=n, max_size=n)
    draws = data.draw(st.lists(st.tuples(sequence, y_sequence), min_size=1, max_size=8))
    # the second pass meets the source's tables cached, or evicted, by the first
    for xs, ys in draws + draws[::-1]:
        assert guess_rank_indices(source, xs, ys) == _oracle.naive_rank(source, xs, ys)
        tables = source.rank_tables(n)
        cached = sum(len(table) for by_code in tables.tables for table in by_code.values())
        assert tables.entries == cached + tables.width * (len(tables.states) - 1) + len(tables.above)
        assert tables.entries <= guesswork_module.MAX_RANK_TABLE_ENTRIES


def test_shared_rank_tables_match_naive_rank():
    check_shared_tables_rank_like_naive()


def test_shared_rank_tables_match_naive_rank_under_eviction(monkeypatch):
    monkeypatch.setattr(guesswork_module, "MAX_RANK_TABLE_ENTRIES", 8)
    check_shared_tables_rank_like_naive()


@st.composite
def sources_with_zero_cells(draw):
    """A lattice source with up to two cells' mass moved to the next row of their column."""
    joint = draw(_oracle.lattice_sources()).joint.copy()
    x_size, y_size = joint.shape
    for x, y in draw(st.lists(st.tuples(st.integers(0, x_size - 1), st.integers(0, y_size - 1)), max_size=2)):
        joint[(x + 1) % x_size, y] += joint[x, y]
        joint[x, y] = 0.0
    return make_source([f"x{i}" for i in range(x_size)], [f"y{j}" for j in range(y_size)], joint.tolist())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sources_with_zero_cells(), st.integers(1, 6), st.data())
def check_batch_ranks_like_scalar_and_naive(source, n, data):
    y_size = source.y_alphabet.size
    row = st.lists(st.integers(0, source.x_alphabet.size * y_size - 1), min_size=n, max_size=n)
    rows = data.draw(st.lists(row, max_size=12))
    tables = RankTables(source, n)
    # the second batch meets the memo the first left, or what its eviction kept
    for batch in (rows, rows[::-1] + rows):
        ranks = tables.ranks(np.array(batch, dtype=np.int64).reshape(-1, n))
        assert tables.entries <= guesswork_module.MAX_RANK_TABLE_ENTRIES
        for cells, rank in zip(batch, ranks.tolist()):
            xs, ys = [c // y_size for c in cells], [c % y_size for c in cells]
            assert rank == tables.rank(xs, ys) == _oracle.naive_rank(source, xs, ys)


def test_batch_ranks_match_scalar_and_naive_rank():
    check_batch_ranks_like_scalar_and_naive()


def test_batch_ranks_match_scalar_and_naive_rank_under_eviction(monkeypatch):
    # at 8 entries a batch evicts at nearly every position, keeping the states its rows are at
    monkeypatch.setattr(guesswork_module, "MAX_RANK_TABLE_ENTRIES", 8)
    check_batch_ranks_like_scalar_and_naive()


def test_batch_ranks_past_int64_match_the_scalar_walk(bsc01):
    # 2**70 ranks: ties and ranks are Python ints; uniform rows rank far past 2**63
    n = 70
    rng = np.random.default_rng(70)
    pairs = np.concatenate([rng.integers(0, 4, (40, n)), rng.choice(4, (40, n), p=bsc01.joint.ravel())])
    ranks = RankTables(bsc01, n).ranks(pairs)
    assert ranks.dtype == object and max(ranks) > 2**63
    scalar = RankTables(bsc01, n)
    assert ranks.tolist() == [scalar.rank((row // 2).tolist(), (row % 2).tolist()) for row in pairs]
    for row, rank in zip(pairs[::20], ranks[::20]):
        assert rank == _oracle.dyadic_rank(bsc01, (row // 2).tolist(), (row % 2).tolist())


@pytest.mark.parametrize(
    "pairs",
    [np.zeros((2, 3), dtype=np.int64), np.zeros(2, dtype=np.int64), np.full((1, 2), 4), np.full((1, 2), -1),
     np.zeros((1, 2))],
)
def test_batch_ranks_refuse_bad_arrays(bsc01, pairs):
    with pytest.raises(SequenceError):
        RankTables(bsc01, 2).ranks(pairs)


def test_shared_rank_tables_agree_with_the_law(corpus):
    # every y-sequence's x-sequences take ranks 1..|X|^n, each in the block of its level
    zero_cells = make_source(["a", "b", "c"], ["u", "v"], [[0.3, 0.0], [0.2, 0.25], [0.0, 0.25]])
    for src in (corpus[3], corpus[5], corpus[10], zero_cells):
        x_size, y_size = src.x_alphabet.size, src.y_alphabet.size
        for n in range(1, 6):
            laws = {y_counts: law for law in guesswork_distribution(src, n).laws for y_counts, _ in law.y_types}
            for ys in itertools.product(range(y_size), repeat=n):
                law = laws[tuple(ys.count(y) for y in range(y_size))]
                starts = [block.start for block in law.blocks]
                ranks = []
                for xs in itertools.product(range(x_size), repeat=n):
                    rank = guess_rank_indices(src, list(xs), list(ys))
                    level = math.prod((src.joint_dyadic[x][y] for x, y in zip(xs, ys)), start=DYADIC_ONE)
                    assert law.blocks[bisect_right(starts, rank) - 1].joint_level == level
                    ranks.append(rank)
                assert sorted(ranks) == list(range(1, x_size**n + 1))


def test_rank_tables_share_one_suffix_table_per_class_signature():
    # a lattice channel whose two columns are row permutations of each other, so one class and one
    # table per suffix length; a 2x2 one has a cell of at least 256/1024, whose 8th power
    # overflows the oracle's int64 numerators
    src = make_source(["a", "b", "c"], ["0", "1"], [[200 / 1024, 112 / 1024], [112 / 1024, 200 / 1024],
                                                    [200 / 1024, 200 / 1024]])
    n = 8
    rng = np.random.default_rng(8)
    for ys in itertools.product(range(2), repeat=n):
        for _ in range(3):
            xs = [int(v) for v in rng.integers(0, 3, n)]
            assert guess_rank_indices(src, xs, list(ys)) == _oracle.naive_rank(src, xs, list(ys))
    tables = src.rank_tables(n)
    assert [len(tables.tables[length]) for length in range(1, n + 1)] == [1] * n


def test_rank_tables_refuse_another_length(bsc01):
    with pytest.raises(SequenceError):
        RankTables(bsc01, 3).rank([0, 1], [0, 1])


@pytest.mark.parametrize(
    "xs, ys",
    [([-1], [0]), ([0], [-1]), ([2], [0]), ([0], [2]), ([0, -1], [1, 0]), ([], []), ([0, 1], [0])],
)
def test_rank_indices_out_of_range_are_sequence_errors(bsc01, xs, ys):
    # a negative index would wrap to the last symbol and rank another sequence
    with pytest.raises(SequenceError):
        guess_rank_indices(bsc01, xs, ys)
    if len(xs) == len(ys) == 2:
        with pytest.raises(SequenceError):
            RankTables(bsc01, 2).rank(xs, ys)


def test_a_second_rank_at_one_length_builds_no_suffix_table(monkeypatch):
    # a source built here, since the session fixtures carry their tables from test to test
    src = make_source(["0", "1"], ["0", "1"], [[0.45, 0.05], [0.05, 0.45]])
    want = guess_rank(src, "01100100", "01001100")
    built = []
    convolve, init = guesswork_module._convolve, RankTables.__init__
    monkeypatch.setattr(guesswork_module, "_convolve", lambda a, b: built.append("table") or convolve(a, b))
    monkeypatch.setattr(RankTables, "__init__", lambda self, *args: built.append("tables") or init(self, *args))
    assert guess_rank(src, "01100100", "01001100") == want
    assert built == []


@pytest.mark.parametrize("bound", [guesswork_module.MAX_RANK_TABLE_ENTRIES, 8])
def test_one_source_ranked_at_alternating_lengths_holds_one_bounded_table(monkeypatch, bound):
    monkeypatch.setattr(guesswork_module, "MAX_RANK_TABLE_ENTRIES", bound)
    # on the 1/1024 lattice, as naive_rank needs, with two zero cells
    src = make_source(["a", "b", "c"], ["u", "v"], [[307 / 1024, 0.0], [205 / 1024, 0.25], [0.0, 0.25]])
    rng = np.random.default_rng(343)
    for n in (3, 4, 3, 5, 3, 4, 4, 1, 3):
        for _ in range(4):
            xs, ys = rng.integers(0, 3, n).tolist(), rng.integers(0, 2, n).tolist()
            assert guess_rank_indices(src, xs, ys) == _oracle.naive_rank(src, xs, ys)
        # the source holds one RankTables, the one for the last length ranked
        (tables,) = [value for value in vars(src).values() if isinstance(value, RankTables)]
        assert tables is src.rank_tables(n) and tables.n == n
        assert tables.entries <= bound


def test_malformed_ranks_keep_the_source_tables():
    src = make_source(["0", "1"], ["0", "1"], [[0.45, 0.05], [0.05, 0.45]])
    guess_rank_indices(src, [0, 1, 1], [1, 0, 1])
    tables = src.rank_tables(3)
    for xs, ys in (([], []), ([0, 1], [0]), ([0], [0, 1])):
        with pytest.raises(SequenceError):
            guess_rank_indices(src, xs, ys)
        assert src.rank_tables(3) is tables


def test_out_of_range_ranks_keep_the_source_tables():
    src = make_source(["0", "1"], ["0", "1"], [[0.45, 0.05], [0.05, 0.45]])
    want = guess_rank_indices(src, [0, 1, 1], [1, 0, 1])
    tables = src.rank_tables(3)
    states, ids = list(tables.states), dict(tables.ids)
    for xs, ys in (([0, 5], [0, 0]), ([0, 0], [0, -1]), ([2, 0, 0], [0, 0, 0]), ([0], [2])):
        with pytest.raises(SequenceError):
            guess_rank_indices(src, xs, ys)
        assert src.__dict__["_rank_tables"] is tables
        assert tables.states == states and tables.ids == ids
    assert guess_rank_indices(src, [0, 1, 1], [1, 0, 1]) == want
    assert tables.states == states


def test_uniform_n5_single_block(uniform_binary):
    dist = guesswork_distribution(uniform_binary, 5)
    assert len(dist.laws) == 1
    law = dist.laws[0]
    assert len(law.blocks) == 1
    block = law.blocks[0]
    assert (block.start, block.count) == (1, 32)
    assert block.joint_level == Dyadic.from_float(0.5) ** 5
    assert dist.total_mass == pytest.approx(1.0, abs=1e-15)


def test_counted_compositions_match_reference():
    for total, parts in ((0, 1), (5, 1), (0, 3), (7, 2), (6, 3), (5, 4)):
        got = list(_counted_compositions(total, parts))
        assert [x for x, _ in got] == list(_oracle.y_types(total, parts))
        assert [count for _, count in got] == [_oracle.multinomial(x) for x, _ in got]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(keys=st.one_of(st.lists(st.integers(0, 12), min_size=1, max_size=5, unique=True),
                      st.lists(st.integers(1, 2**80), min_size=1, max_size=5, unique=True)),
       size=st.integers(1, 13), data=st.data())
def test_group_levels_match_per_composition_reference(keys, size, data):
    """The binomial recurrence gives the per-composition table, keys in the same order; small keys' sums collide."""
    mults = data.draw(st.lists(st.integers(1, 4), min_size=len(keys), max_size=len(keys)))
    cells = dict(zip(keys, mults))
    got, want = _group_levels(cells, size), _oracle.group_levels(cells, size)
    assert got == want and list(got) == list(want)
    assert sum(got.values()) == sum(mults) ** size


# no shrinking: each example sums up to 10**4 terms in mpmath, and a failure is reported as drawn
@settings(max_examples=30, deadline=None, derandomize=True, database=None, phases=[Phase.explicit, Phase.generate])
@given(size=st.one_of(st.integers(2, 10**4), st.just(10**4)), seed=st.integers(0, 2**32 - 1),
       top=st.one_of(st.floats(-1.0, 1.0), st.floats(-700.0, 700.0)), binades=st.floats(600.0, 2000.0),
       shape=st.floats(0.05, 30.0))
def test_logsumexp_is_within_the_pairwise_sum_bound_of_mpmath(size, seed, top, binades, shape):
    """N nonnegative terms spanning 600 binades or more: the sum within (2 + ceil(log2 N)) 2**-52 relative.

    The log of the sum is rounded twice more, in its log and in adding the
    largest value back, and each rounding adds half an ulp.
    """
    depth = binades * math.log(2.0)
    values = top - depth * np.random.default_rng(seed).random(size) ** shape
    values[:2] = top, top - depth
    got = _logsumexp(values)
    with mpmath.workdps(30):
        want = mpmath.log(mpmath.fsum(mpmath.exp(mpmath.mpf(v)) for v in values.tolist()))
        error = float(abs(got - want))
    assert error <= (2 + math.ceil(math.log2(size))) * 2.0**-52 + (math.ulp(got) + math.ulp(math.log(size))) / 2


def test_logsumexp_of_no_mass_is_minus_inf():
    for values in (np.array([]), np.full(5, -np.inf)):
        assert _logsumexp(values) == -math.inf


def test_moments_past_float_ranks_match_mpmath(uniform_binary):
    # one block of 2**1200 ranks at level 2**-1200, its last rank past float range
    wide = guesswork_distribution(uniform_binary, 1200)
    for alpha in (-3.5, 1.5):
        with mpmath.workdps(40):
            want = float(_oracle.log_power_sum(1, 2**1200, alpha) - 1200 * mpmath.log(2))
        assert wide.log_moment(alpha) == pytest.approx(want, rel=1e-14)


def test_moments_of_a_law_past_2_to_the_1000_match_mpmath_block_by_block():
    """Every block of a law whose ranks pass 2**1000 is summed without a warning.

    The law's blocks whose ranks stay below 2**1000 once overflowed a float
    product in the kernel.  Block d holds the C(n, d) sequences with d ones,
    at level .75**(n - d) .25**d.
    """
    n = 1100
    dist = guesswork_distribution(make_source(["0", "1"], ["y"], [[0.75], [0.25]]), n)
    for alpha in (-3.5, 1.5, 6.5):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dist.log_moment(alpha)
        with mpmath.workdps(40):
            terms, start = [], 1
            for d in range(n + 1):
                count = math.comb(n, d)
                level = (n - d) * mpmath.log(0.75) + d * mpmath.log(0.25)
                terms.append(mpmath.exp(_oracle.log_power_sum(start, start + count - 1, alpha) + level))
                start += count
            want = float(mpmath.log(mpmath.fsum(terms)))
        assert got == pytest.approx(want, rel=1e-14)


def test_bsc_n2_block_structure(bsc01):
    dist = guesswork_distribution(bsc01, 2)
    for law in dist.laws:
        starts = [b.start for b in law.blocks]
        counts = [b.count for b in law.blocks]
        assert starts == [1, 2, 4]
        assert counts == [1, 2, 1]
    flat = dist.blocks
    levels = sorted({round(level, 12) for _, _, _, _, level in flat}, reverse=True)
    assert levels == [0.81, 0.09, 0.01]
    assert dist.prob_eq_one() == pytest.approx(0.81, abs=1e-15)


def test_n1_blocks_reproduce_optimal_order(skew22, corpus):
    for src in [skew22] + corpus[:5]:
        dist = guesswork_distribution(src, 1)
        for law in dist.laws:
            for y_counts, _ in law.y_types:
                y_index = y_counts.index(1)
                column = [src.joint_dyadic[i][y_index] for i in range(src.x_alphabet.size)]
                # block levels in rank order are the column multiset, sorted
                block_levels = []
                for block in law.blocks:
                    block_levels.extend([block.joint_level] * block.count)
                assert block_levels == sorted(column, reverse=True)
                # per-symbol ranks match optimal_order of the conditional pmf
                cond = Distribution(src.x_alphabet, src.cond_x_given_y[:, y_index])
                order = optimal_order(cond)
                y_sym = src.y_alphabet.symbols[y_index]
                for x_sym in src.x_alphabet.symbols:
                    assert guess_rank(src, [x_sym], [y_sym]) == order.rank(x_sym)


def test_distribution_matches_naive_oracle_small(corpus):
    for src in corpus[:6]:
        for n in (1, 2, 3):
            dist = guesswork_distribution(src, n)
            _oracle.assert_matches_naive(src, dist, n)


def test_moment_examples(uniform_binary, bsc01):
    assert moment_exact(uniform_binary, 1, 1.0) == pytest.approx(1.5, rel=1e-15)
    skew = make_source(["a", "b"], ["y"], [[0.75], [0.25]])
    assert moment_exact(skew, 1, 1.0) == pytest.approx(1.25, rel=1e-15)
    want = 0.9 + 0.1 * 2.0**-0.5
    assert moment_exact(bsc01, 1, -0.5) == pytest.approx(want, rel=1e-14)
    assert want == pytest.approx(0.970711, abs=5e-7)


def test_moment_against_naive_rank_sums(corpus):
    # E G^alpha recomputed from per-sequence oracle ranks and probabilities
    for src in corpus[:4]:
        n = 2
        y_size = src.y_alphabet.size
        x_size = src.x_alphabet.size
        nums = _oracle.numerators(src)
        denom = Fraction(_oracle.DENOM**n)
        for alpha in (-0.7, 1.0, 2.0):
            total = Fraction(0)
            acc = 0.0
            for ys in np.ndindex(*(y_size,) * n):
                keys = _oracle.sequence_keys(src, list(ys))
                order = np.lexsort((np.arange(keys.size), -keys))
                for rank0, idx in enumerate(order):
                    if keys[idx]:
                        acc += float(Fraction(int(keys[idx]), _oracle.DENOM**n)) * float(rank0 + 1) ** alpha
            assert moment_exact(src, n, alpha) == pytest.approx(acc, rel=1e-11)


def test_moment_bounds_example(uniform_binary):
    lower, upper = moment_bounds(uniform_binary, 1, -0.5)
    assert lower == pytest.approx(2.0**-0.5, rel=1e-14)
    assert upper == pytest.approx((1.0 + math.log(2.0)) ** 0.5 * 2.0**-0.5, rel=1e-14)
    assert lower == pytest.approx(0.707107, abs=5e-7)
    assert upper == pytest.approx(0.920094, abs=5e-7)
    exact = moment_exact(uniform_binary, 1, -0.5)
    assert exact == pytest.approx(0.853553, abs=5e-7)
    assert lower <= exact <= upper


def test_moment_bounds_deterministic_source():
    src = make_source(["a", "b"], ["0", "1"], [[0.5, 0.0], [0.0, 0.5]])
    lower, upper = moment_bounds(src, 4, -0.5)
    assert lower == pytest.approx(1.0, rel=1e-14)
    assert moment_exact(src, 4, -0.5) == pytest.approx(1.0, rel=1e-14)
    assert upper >= 1.0


def test_moment_bounds_domain():
    src = make_source(["a", "b"], ["y"], [[0.5], [0.5]])
    for bad in (-1.0, 0.0, 0.5, -2.0):
        with pytest.raises(GuessworkError):
            moment_bounds(src, 2, bad)


def test_sandwich_on_fixtures(bsc01, skew22, independent):
    for src in (bsc01, skew22, independent):
        for n in range(1, 9):
            for alpha in (-0.9, -0.5, -0.1):
                lower, upper = moment_bounds(src, n, alpha)
                exact = moment_exact(src, n, alpha)
                assert lower <= exact * (1.0 + 1e-12)
                assert exact <= upper * (1.0 + 1e-12)
                assert math.isfinite(lower) and math.isfinite(upper)


def test_plateau_window_sandwich(bsc01, skew22):
    for src in (bsc01, skew22):
        for n in (1, 4, 8):
            dist = guesswork_distribution(src, n)
            log_p1 = dist.log_prob_eq_one()
            width = math.log1p(n * math.log(src.x_alphabet.size))
            for alpha in (-1.0, -2.0, -5.0):
                log_m = dist.log_moment(alpha)
                assert log_p1 <= log_m + 1e-12
                assert log_m <= log_p1 + width + 1e-12
            lo, hi = plateau_window(src, n)
            assert lo == pytest.approx(log_p1 / n, abs=1e-15)
            assert hi == pytest.approx((log_p1 + width) / n, abs=1e-15)


def test_prob_eq_one_factorizes_exactly(bsc01, skew22, corpus):
    for src in [bsc01, skew22] + corpus[:5]:
        per_letter = DYADIC_ZERO
        for j in range(src.y_alphabet.size):
            col = [src.joint_dyadic[i][j] for i in range(src.x_alphabet.size)]
            per_letter = per_letter + max(col)
        for n in (1, 2, 5):
            dist = guesswork_distribution(src, n)
            assert dist.prob_eq_one_dyadic() == per_letter**n
        assert -per_letter.log() == pytest.approx(conditional_min_entropy(src), abs=1e-12)


def test_tie_invariance_under_relabeling(skew22):
    # swapping x labels permutes ranks inside tie blocks but not moments
    relabeled = make_source(["1", "0"], ["0", "1"], [[0.1, 0.1], [0.7, 0.1]])
    for n in (1, 2, 4):
        for alpha in (-0.5, 1.0, 2.0):
            assert log_moment_exact(skew22, n, alpha) == log_moment_exact(relabeled, n, alpha)


def test_mass_conservation_on_corpus(corpus):
    for src in corpus:
        for n in (1, 3, 5):
            dist = guesswork_distribution(src, n)
            assert abs(dist.total_mass - 1.0) <= 1e-10


def test_budget_formula_and_error(bsc01):
    # C(n + R - 1, R - 1) compositions over the R distinct (class, value) cells, times
    # the 64-bit words of a count up to |X|**n: bsc01 has one class of two values
    assert enumeration_budget(bsc01, 999) == 1000 * 16
    assert enumeration_budget(bsc01, 100_000) == 100_001 * 1563
    float33 = _oracle.float_source(7, 3, 3)  # nine distinct cells, every column its own class
    assert enumeration_budget(float33, 40) == math.comb(48, 8)
    for source, n, required in ((bsc01, 100_000, 100_001 * 1563), (float33, 40, math.comb(48, 8))):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError) as err:
            guesswork_distribution(source, n)
        assert time.perf_counter() - start < 1.0
        assert (err.value.required, err.value.cap) == (required, 10**8)
        assert f"required budget {required} exceeds cap 100000000" in str(err.value)
    # bsc01 at n = 999, refused by a count of every cell, is built and checked
    dist = guesswork_distribution(bsc01, 999)
    assert len(dist.laws) == 1 and dist.laws[0].y_sequences == 2**999
    assert dist.total_mass == pytest.approx(1.0, abs=1e-10)
    log_m = dist.log_moment(1.0) / 999
    assert scgf_limit(bsc01, 1.0) - math.log1p(999 * math.log(2.0)) / 999 <= log_m <= scgf_limit(bsc01, 1.0)


def test_scgf_empirical_uniform_closed_form(uniform_binary):
    for n in (1, 5, 10):
        total = 2**n
        want = math.log((total + 1) / 2.0) / n
        assert scgf_empirical(uniform_binary, n, 1.0) == pytest.approx(want, rel=1e-12)


def test_scgf_empirical_noiseless_zero(noiseless):
    for n in (1, 4):
        for alpha in (-2.0, -0.5, 1.0, 3.0):
            assert scgf_empirical(noiseless, n, alpha) == pytest.approx(0.0, abs=1e-14)


def test_scgf_empirical_approaches_arimoto_limit(bsc01):
    limit = -0.5 * conditional_renyi_arimoto(bsc01, 2.0)
    gaps = [abs(scgf_empirical(bsc01, n, -0.5) - limit) for n in range(1, 13)]
    assert gaps[-1] < gaps[0]
    assert gaps[-1] < 0.06


def test_prob_log_window_against_oracle():
    src = make_source(["0", "1"], ["0", "1"], [[0.4375, 0.0625], [0.0625, 0.4375]])
    n = 4
    dist = guesswork_distribution(src, n)
    keys_by_y = {}
    for ys in np.ndindex(2, 2, 2, 2):
        keys = _oracle.sequence_keys(src, list(ys))
        order = np.lexsort((np.arange(keys.size), -keys))
        keys_by_y[ys] = keys[order]
    for lo, hi in ((0.0, 0.2), (0.1, 0.45), (math.log(3) / 4, math.log(7) / 4), (0.6, 0.9)):
        # same float floor/ceil convention as the library binning
        r_lo = max(1, math.ceil(math.exp(n * lo)))
        r_hi = math.floor(math.exp(n * hi))
        want = 0.0
        for keys in keys_by_y.values():
            for r in range(r_lo, min(len(keys), r_hi) + 1):
                want += int(keys[r - 1]) / _oracle.DENOM**n
        got = dist.prob_log_window(lo, hi)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert dist.prob_log_window(0.9, 0.2) == 0.0
    assert dist.log_prob_log_window(10.0, 11.0) == -math.inf
    # ends past log|X| are settled without building e^(n lo) or e^(n hi)
    assert dist.prob_log_window(1e308, math.inf) == 0.0
    assert dist.prob_log_window(0.0, math.inf) == pytest.approx(1.0, rel=1e-15)
    r_lo = math.ceil(math.exp(n * 0.3))
    want = sum(int(key) for keys in keys_by_y.values() for key in keys[r_lo - 1 :]) / _oracle.DENOM**n
    assert dist.prob_log_window(0.3, 1e308) == pytest.approx(want, rel=1e-12)


def test_log_window_past_float_exp_range():
    # uniform binary at n = 1200 spans ranks up to 2^1200 ~ e^832; windows with
    # both ends beyond e^700 take the 60-bit ceil and floor of e^(n lo), e^(n hi)
    n = 1200
    dist = guesswork_distribution(make_source(["0", "1"], ["y"], [[0.5], [0.5]]), n)
    for t_lo, t_hi in ((750.0, 800.0), (720.0, 780.0)):
        lo, hi = t_lo / n, t_hi / n
        with mpmath.workdps(60):
            count = (
                mpmath.floor(mpmath.exp(mpmath.mpf(n * hi)))
                - mpmath.ceil(mpmath.exp(mpmath.mpf(n * lo)))
                + 1
            )
            want = float(mpmath.log(count) - n * mpmath.log(2))
        # n*hi / ln 2 ~ 1154 bits carries about 2.3e-13 of float rounding
        assert dist.log_prob_log_window(lo, hi) == pytest.approx(want, abs=1e-12)


def q_ary_symmetric(q: int, eps: float):
    """Uniform q-ary input through a q-ary symmetric channel that errs with probability eps."""
    hit, miss = (1.0 - eps) / q, eps / (q - 1) / q
    symbols = [str(i) for i in range(q)]
    return make_source(symbols, symbols, [[hit if x == y else miss for y in range(q)] for x in range(q)])


def test_large_n_laws_build_fast_and_keep_their_finite_n_bounds(bsc01):
    """bsc01 at n = 4,000 and the 8-ary symmetric channel at n = 1,000, past a count of every cell.

    n^-1 log E G lies in Arikan's envelope [Lambda(1) - log(1 + n ln|X|)/n,
    Lambda(1)], and the bounds of E G^alpha bracket it, compared in logs,
    which stay in the float range at any n.
    """
    for source, n in ((bsc01, 4000), (q_ary_symmetric(8, 0.125), 1000)):
        start = time.perf_counter()
        dist = guesswork_distribution(source, n)
        assert time.perf_counter() - start < 1.0
        (law,) = dist.laws  # one class: one law for every y-type
        assert law.y_sequences == source.y_alphabet.size**n
        limit = scgf_limit(source, 1.0)
        envelope = math.log1p(n * source.log_x_size) / n
        assert limit - envelope <= dist.log_moment(1.0) / n <= limit
        for alpha in (-0.75, -0.5, -0.25):
            log_lower, log_upper = log_moment_bounds(source, n, alpha)
            assert log_lower <= dist.log_moment(alpha) <= log_upper


def test_q_ary_law_merges_equal_cells(monkeypatch):
    """A q-ary symmetric column has two distinct values: size + 1 compositions, not C(size + q - 1, q - 1)."""
    source = q_ary_symmetric(8, 0.125)
    (cls,) = source.column_classes
    assert cls.members == tuple(range(8)) and cls.multiplicities == (7, 1)
    tables = []
    group_levels = guesswork_module._group_levels
    monkeypatch.setattr(guesswork_module, "_group_levels",
                        lambda cells, size: tables.append((list(cells.values()), size)) or group_levels(cells, size))
    (law,) = guesswork_distribution(source, 12).laws
    assert tables == [([7, 1], 12)]  # one group table, over the two distinct values at size 12
    assert law.y_sequences == 8**12 and len(law.y_types) == math.comb(19, 7)
    assert sum(law.counts) == 8**12
