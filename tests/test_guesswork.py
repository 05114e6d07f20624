"""Exact guesswork laws, ranks, moments, and provable bounds."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from guesslab import guesswork as guesswork_module
from guesslab.dyadic import DYADIC_ZERO, Dyadic
from guesslab.guesswork import (
    BudgetExceededError,
    GuessworkError,
    SequenceError,
    enumeration_budget,
    guess_rank,
    guesswork_distribution,
    log_moment_exact,
    moment_bounds,
    moment_exact,
    optimal_order,
    plateau_window,
    scgf_empirical,
    _counted_compositions,
)
from guesslab.entropy import conditional_min_entropy, conditional_renyi_arimoto
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


def test_moments_sum_by_scalar_only_past_float_ranks(monkeypatch, bsc01, uniform_binary):
    calls = []
    scalar = guesswork_module.power_sum_log
    monkeypatch.setattr(
        guesswork_module, "power_sum_log", lambda a, b, alpha: calls.append((a, b)) or scalar(a, b, alpha)
    )
    dist = guesswork_distribution(bsc01, 240)
    for alpha in (-3.5, 1.5, 12.5):
        dist.log_moment(alpha)
    assert calls == []
    # one block of 2**1200 ranks at level 2**-1200, its last rank past float range
    wide = guesswork_distribution(uniform_binary, 1200)
    for alpha in (-3.5, 1.5):
        want = scalar(1, 2**1200, alpha) - 1200 * math.log(2.0)
        assert wide.log_moment(alpha) == pytest.approx(want, rel=1e-14)
    assert calls == [(1, 2**1200)] * 2


def test_bsc_n2_block_structure(bsc01):
    dist = guesswork_distribution(bsc01, 2)
    for law in dist.laws:
        starts = [b.start for b in law.blocks]
        counts = [b.count for b in law.blocks]
        assert starts == [1, 2, 4]
        assert counts == [1, 2, 1]
    flat = dist.blocks
    levels = sorted({round(level, 12) for _, _, level, _ in flat}, reverse=True)
    assert levels == [0.81, 0.09, 0.01]
    assert dist.prob_eq_one() == pytest.approx(0.81, abs=1e-15)


def test_n1_blocks_reproduce_optimal_order(skew22, corpus):
    for src in [skew22] + corpus[:5]:
        dist = guesswork_distribution(src, 1)
        for law in dist.laws:
            y_index = law.y_counts.index(1)
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
    assert enumeration_budget(bsc01, 999) == math.comb(1002, 3)
    with pytest.raises(BudgetExceededError) as err:
        guesswork_distribution(bsc01, 999)
    assert err.value.required == math.comb(1002, 3)
    assert err.value.cap == 10**8
    assert "required budget 167167000" in str(err.value)
    # raising the cap makes the same n legal (not executed to completion here)
    assert enumeration_budget(bsc01, 999) <= 2 * 10**8


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
