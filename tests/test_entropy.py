"""Rényi and Arimoto conditional entropies against high-precision oracles."""

import math

import mpmath
import numpy as np
import pytest

from guesslab.entropy import (
    OrderError,
    conditional_min_entropy,
    conditional_renyi_arimoto,
    conditional_shannon,
    renyi_entropy,
    shannon_entropy,
)
from guesslab.guesswork import guesswork_distribution
from guesslab.ldp import scgf_limit
from guesslab.model import Distribution, make_source

from _oracle import exact_columns, mp_arimoto, mp_scgf

mpmath.mp.dps = 40

ALPHA_GRID = [0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0, 5.0, 10.0]


def renyi_oracle(pmf, alpha) -> float:
    a = mpmath.mpf(alpha)
    s = mpmath.fsum(mpmath.mpf(p) ** a for p in pmf if p > 0)
    return float(mpmath.log(s) / (1 - a))


def arimoto_oracle(source, alpha) -> float:
    a = mpmath.mpf(alpha)
    outer = mpmath.mpf(0)
    for j in range(source.y_alphabet.size):
        inner = mpmath.fsum(
            mpmath.mpf(float(p)) ** a for p in source.joint[:, j] if p > 0
        )
        outer += inner ** (1 / a)
    return float(a / (1 - a) * mpmath.log(outer))


def x_marginal(source) -> Distribution:
    return Distribution(source.x_alphabet, source.joint.sum(axis=1))


def test_uniform_is_order_independent():
    d = Distribution(make_source(["a", "b"], ["y"], [[0.5], [0.5]]).x_alphabet, np.array([0.5, 0.5]))
    for alpha in ALPHA_GRID + [0.0, math.inf]:
        assert renyi_entropy(d, alpha) == pytest.approx(math.log(2.0), abs=1e-12)


def test_renyi_half_skewed_pair():
    d = Distribution(make_source(["a", "b"], ["y"], [[0.75], [0.25]]).x_alphabet, np.array([0.75, 0.25]))
    want = 2.0 * math.log(math.sqrt(0.75) + math.sqrt(0.25))
    assert renyi_entropy(d, 0.5) == pytest.approx(want, rel=1e-14)
    assert want == pytest.approx(0.623811, abs=5e-7)
    assert renyi_entropy(d, 0.5) == pytest.approx(renyi_oracle([0.75, 0.25], 0.5), rel=1e-13, abs=0)


def test_deterministic_distribution_zero_entropy():
    alpha_list = [0.0, 0.5, 1.0, 2.0, math.inf]
    d = Distribution(make_source(["a", "b"], ["y"], [[1.0], [0.0]]).x_alphabet, np.array([1.0, 0.0]))
    for alpha in alpha_list:
        assert renyi_entropy(d, alpha) == pytest.approx(0.0, abs=1e-15)


def test_renyi_special_orders():
    pmf = [0.6, 0.3, 0.1]
    d = Distribution(make_source(["a", "b", "c"], ["y"], [[p] for p in pmf]).x_alphabet, np.array(pmf))
    assert renyi_entropy(d, 0.0) == pytest.approx(math.log(3.0), abs=1e-15)
    assert renyi_entropy(d, math.inf) == pytest.approx(-math.log(0.6), rel=1e-15)
    assert renyi_entropy(d, 1.0) == pytest.approx(shannon_entropy(d), abs=1e-15)
    shannon_oracle = -math.fsum(p * math.log(p) for p in pmf)
    assert shannon_entropy(d) == pytest.approx(shannon_oracle, rel=1e-15)


def test_order_domain_errors():
    d = Distribution(make_source(["a", "b"], ["y"], [[0.5], [0.5]]).x_alphabet, np.array([0.5, 0.5]))
    with pytest.raises(OrderError):
        renyi_entropy(d, -0.5)
    with pytest.raises(OrderError):
        renyi_entropy(d, math.nan)


def test_arimoto_bsc_half_is_log_1p6(bsc01):
    # (sqrt(0.45) + sqrt(0.05))^2 = 0.8 exactly, so the value is ln 1.6
    got = conditional_renyi_arimoto(bsc01, 0.5)
    assert got == pytest.approx(math.log(1.6), rel=1e-14)
    assert got == pytest.approx(0.470004, abs=5e-7)
    assert got == pytest.approx(arimoto_oracle(bsc01, 0.5), rel=1e-13, abs=0)


def test_arimoto_generic_orders_match_oracle(bsc01, skew22, corpus):
    for src in [bsc01, skew22] + corpus[:6]:
        for alpha in [0.1, 0.35, 0.5, 2.0, 4.5, 10.0]:
            got = conditional_renyi_arimoto(src, alpha)
            assert got == pytest.approx(arimoto_oracle(src, alpha), rel=1e-12, abs=1e-13)


def test_noiseless_channel_zero_for_all_orders(noiseless):
    for alpha in [0.0, 0.5, 1.0, 2.0, math.inf]:
        assert conditional_renyi_arimoto(noiseless, alpha) == pytest.approx(0.0, abs=1e-15)


def test_independent_reduces_to_marginal(independent):
    marg = x_marginal(independent)
    for alpha in ALPHA_GRID + [0.0, math.inf]:
        got = conditional_renyi_arimoto(independent, alpha)
        assert got == pytest.approx(renyi_entropy(marg, alpha), rel=1e-12, abs=1e-12)


def test_order_zero_limit_is_continuous(bsc01, noiseless):
    # full support: the alpha -> 0 limit is log|X|
    assert conditional_renyi_arimoto(bsc01, 0.0) == pytest.approx(math.log(2.0), abs=1e-12)
    small = conditional_renyi_arimoto(bsc01, 1e-9)
    assert small == pytest.approx(math.log(2.0), abs=1e-6)
    # with zero entries the limit is log of the largest column support
    assert conditional_renyi_arimoto(noiseless, 0.0) == 0.0
    assert conditional_renyi_arimoto(noiseless, 1e-9) == pytest.approx(0.0, abs=1e-6)


def test_monotone_nonincreasing_in_order(bsc01, skew22, independent, corpus):
    for src in [bsc01, skew22, independent] + corpus:
        values = [conditional_renyi_arimoto(src, a) for a in ALPHA_GRID]
        for lo, hi in zip(values, values[1:]):
            assert hi <= lo + 1e-12


def test_conditioning_reduces_entropy(bsc01, skew22, corpus):
    for src in [bsc01, skew22] + corpus:
        marg = x_marginal(src)
        bound = math.log(src.x_alphabet.size)
        for alpha in ALPHA_GRID:
            cond = conditional_renyi_arimoto(src, alpha)
            uncond = renyi_entropy(marg, alpha)
            assert -1e-12 <= cond <= uncond + 1e-12
            assert uncond <= bound + 1e-12


def test_limit_consistency_near_order_one(bsc01, skew22):
    for src in (bsc01, skew22):
        h1 = conditional_shannon(src)
        assert conditional_renyi_arimoto(src, 1.0) == pytest.approx(h1, abs=1e-9)
        gaps = []
        for k in range(1, 7):
            above = conditional_renyi_arimoto(src, 1.0 + 10.0**-k)
            below = conditional_renyi_arimoto(src, 1.0 - 10.0**-k)
            gaps.append(max(abs(above - h1), abs(below - h1)))
        assert gaps[-1] < 1e-5
        assert gaps[-1] <= gaps[0]


def test_conditional_shannon_oracle(bsc01):
    # H(X|Y) = H(X,Y) - H(Y) for the BSC: 2*(-0.45 ln 0.45 - 0.05 ln 0.05) - ln 2
    joint_terms = [-2 * 0.45 * math.log(0.45), -2 * 0.05 * math.log(0.05)]
    want = math.fsum(joint_terms) - math.log(2.0)
    assert conditional_shannon(bsc01) == pytest.approx(want, rel=1e-14)


def test_min_entropy_values(bsc01, uniform_binary, noiseless):
    assert conditional_min_entropy(bsc01) == pytest.approx(-math.log(0.9), rel=1e-15)
    assert conditional_min_entropy(uniform_binary) == pytest.approx(math.log(2.0), rel=1e-15)
    assert conditional_min_entropy(noiseless) == pytest.approx(0.0, abs=1e-15)
    assert conditional_renyi_arimoto(bsc01, math.inf) == conditional_min_entropy(bsc01)


def test_min_entropy_identity_with_first_guess_probability(bsc01, skew22):
    # P(G=1) factorizes across positions, so -log P(G=1)/n is n-independent
    for src in (bsc01, skew22):
        h_inf = conditional_min_entropy(src)
        for n in range(1, 9):
            dist = guesswork_distribution(src, n)
            got = -dist.log_prob_eq_one() / n
            assert abs(got - h_inf) <= 1e-10


def test_range_bounds_on_corpus(corpus):
    for src in corpus:
        bound = math.log(src.x_alphabet.size) + 1e-12
        for alpha in (0.0, 0.5, 1.0, 2.0, math.inf):
            v = conditional_renyi_arimoto(src, alpha)
            assert 0.0 <= v <= bound


def test_orders_near_one_and_near_zero_match_mpmath(bsc01, skew22, corpus):
    # H_beta at beta = 1 +- 10^-k and Lambda(alpha) at alpha = +-10^-k, k = 1..12,
    # to 1e-13 relative: the kernel takes the order's distance from 1 out
    # analytically, so nothing cancels as it shrinks
    lat22 = make_source(["0", "1"], ["0", "1"], [[0.5, 0.1], [0.15, 0.25]])
    with mpmath.workdps(50):
        for src in [bsc01, skew22, lat22] + corpus[:5]:
            cols = exact_columns(src)
            for k in range(1, 13):
                for sign in (1.0, -1.0):
                    beta = 1.0 + sign * 10.0**-k
                    want = mp_arimoto(cols, mpmath.mpf(beta))
                    assert abs(conditional_renyi_arimoto(src, beta) - want) <= 1e-13 * abs(want)
                    alpha = sign * 10.0**-k
                    want = mp_scgf(cols, mpmath.mpf(alpha))
                    assert abs(scgf_limit(src, alpha) - want) <= 1e-13 * abs(want)
