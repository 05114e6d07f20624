"""The benchmark's reference computations agree with each other where they overlap.

Run with ``python3 -m pytest perfbench/test_reference.py`` from the repository
root.  None of these tests imports guesslab.
"""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402
from workloads import (  # noqa: E402
    BSC01,
    INDEPENDENT,
    NOISELESS,
    SKEW22,
    UNIFORM,
    bsc_joint,
    lattice_joint,
)

FIXTURES = [BSC01, SKEW22, UNIFORM, NOISELESS, INDEPENDENT]


def _lattice(seed: int, x_size: int, y_size: int) -> list[list[float]]:
    return lattice_joint(np.random.default_rng(seed), x_size, y_size)


def test_exact_joint_is_exact():
    for joint in FIXTURES + [_lattice(3, 4, 3)]:
        nums, shift = ref.exact_joint(joint)
        for row, num_row in zip(joint, nums):
            for v, num in zip(row, num_row):
                assert Fraction(v) == Fraction(num, 1 << shift)


@pytest.mark.parametrize("q", [0.1, 0.0731])
def test_bsc_closed_form_equals_brute_force_law(q):
    joint = bsc_joint(q)
    a, b = joint[0]
    for n in range(1, 9):
        brute = ref.rank_pmf(joint, n)
        closed = ref.bsc_rank_pmf(a, b, n)
        assert brute.ranks == closed.ranks == 2**n
        for r in range(1, 2**n + 1):
            assert brute.fraction(r) == closed.fraction(r)


def test_bsc_integer_moments_equal_brute_force_sums():
    a, b = BSC01[0]
    for n in range(1, 8):
        law = ref.rank_pmf(BSC01, n)
        for k in (0, 1, 2):
            brute = sum(law.fraction(r) * r**k for r in range(1, law.ranks + 1))
            assert ref.bsc_moment_exact(a, b, n, k) == brute


def test_bsc_hurwitz_moments_match_rank_sums():
    a, b = BSC01[0]
    for n in (3, 7, 10):
        law = ref.rank_pmf(BSC01, n)
        for alpha in (-2.3, -1.0, -0.5, 0.5, 1.7, 1.0, 2.0):
            hurwitz = ref.bsc_log_moment(a, b, n, alpha)
            brute = ref.law_log_moment(law, alpha)
            assert hurwitz == pytest.approx(brute, rel=1e-13, abs=1e-13)


def test_bsc_integer_moments_match_hurwitz_at_large_n():
    a, b = bsc_joint(0.0931)[0]
    for n in (40, 100):
        for k in (1, 2):
            exact = ref.bsc_moment_exact(a, b, n, k)
            log_exact = math.log(exact.numerator) - math.log(exact.denominator)
            assert ref.bsc_log_moment(a, b, n, float(k)) == pytest.approx(log_exact, rel=1e-14)


def test_hurwitz_series_matches_mpmath_zeta():
    with mpmath.workdps(40):
        for s in (-3.3, -1.7, -0.5, 0.5, 1.5, 2.2, 4.0):
            for a in (1, 7, 64, 65, 1000):
                want = mpmath.zeta(s, a)
                assert abs(ref.hurwitz(s, a) - want) <= mpmath.mpf(10) ** -30 * max(1, abs(want))


def test_uniform_hurwitz_matches_rank_sums():
    for n in (1, 4, 9):
        law = ref.rank_pmf(UNIFORM, n)
        for alpha in (-3.0, -0.7, 0.4, 1.5):
            assert ref.uniform_log_moment(n, alpha) == pytest.approx(
                ref.law_log_moment(law, alpha), rel=1e-13, abs=1e-13
            )


def test_uniform_window_counts_match_brute_force():
    rng = np.random.default_rng(7)
    for n in (3, 8, 11):
        law = ref.rank_pmf(UNIFORM, n)
        for _ in range(20):
            x, eps = rng.uniform(0.0, 0.75), rng.uniform(0.01, 0.2)
            lo, hi = x - eps, x + eps
            count = sum(
                1 for r in range(1, 2**n + 1) if lo <= math.log(r) / n <= hi
            )
            assert ref.uniform_window_count(n, lo, hi) == [count]
            [(r_lo, r_hi)] = ref.window_ranks(n, lo, hi, 2**n)
            assert ref.law_window_prob(law, r_lo, r_hi) == Fraction(count, 2**n)


def test_bsc_window_matches_brute_force():
    a, b = BSC01[0]
    rng = np.random.default_rng(8)
    for n in (4, 9):
        law = ref.rank_pmf(BSC01, n)
        for _ in range(10):
            x, eps = rng.uniform(0.0, 0.7), rng.uniform(0.02, 0.1)
            [(r_lo, r_hi)] = ref.window_ranks(n, x - eps, x + eps, 2**n)
            mass = ref.law_window_prob(law, r_lo, r_hi)
            log_bsc = ref.bsc_log_window(a, b, n, r_lo, r_hi)
            if mass == 0:
                assert log_bsc == -math.inf
            else:
                assert math.exp(log_bsc) == pytest.approx(float(mass), rel=1e-13)


def test_window_boundaries_near_an_integer_admit_both_sides():
    t = math.log(10**11)  # e**t is within 1e-15 of the integer 10**11
    assert ref.window_ranks(1, t, t, 10**12) == [
        (10**11, 10**11 - 1), (10**11, 10**11), (10**11 + 1, 10**11 - 1), (10**11 + 1, 10**11)
    ]
    assert ref.window_ranks(1, 0.5, 2.0, 100) == [(2, 7)]


def test_bsc_mean_log_rank_matches_rank_sum():
    a, b = BSC01[0]
    for n in (3, 9):
        law = ref.rank_pmf(BSC01, n)
        brute = math.fsum(float(law.fraction(r)) * math.log(r) for r in range(1, law.ranks + 1))
        assert ref.bsc_mean_log_rank(a, b, n) == pytest.approx(brute, rel=1e-13)
    for n in (3, 9):
        brute = math.fsum(math.log(r) for r in range(1, 2**n + 1)) / 2**n
        assert ref.uniform_mean_log_rank(n) == pytest.approx(brute, rel=1e-13)


def test_bsc_rank_matches_brute_force_rank():
    rng = np.random.default_rng(9)
    for n in (1, 5, 9):
        for _ in range(30):
            xs = [int(v) for v in rng.integers(0, 2, n)]
            ys = [int(v) for v in rng.integers(0, 2, n)]
            assert ref.bsc_rank(xs, ys) == ref.brute_rank(BSC01, xs, ys)


def test_brute_force_ranks_are_a_permutation_consistent_with_the_law():
    joint = _lattice(11, 3, 2)
    n = 4
    for ys in ([0, 1, 1, 0], [1, 1, 1, 1]):
        ranks = sorted(ref.brute_rank(joint, list(xs), ys) for xs in product(range(3), repeat=n))
        assert ranks == list(range(1, 3**n + 1))


def test_scgf_closed_form_matches_arimoto_and_finite_n_limit():
    for joint in FIXTURES + [_lattice(5, 3, 3)]:
        for alpha in (-0.8, -0.3, 0.4, 1.0, 2.5):
            expected = alpha * ref.arimoto(joint, 1.0 / (1.0 + alpha))
            assert ref.scgf(joint, alpha) == pytest.approx(expected, rel=1e-12, abs=1e-14)
    # n^-1 log E G^alpha approaches Lambda(alpha) inside Arikan's envelope
    for alpha in (-0.5, 1.0):
        for n in (2, 6, 10):
            lo, hi = ref.moment_interval(BSC01, n, alpha)
            exact = ref.law_log_moment(ref.rank_pmf(BSC01, n), alpha)
            assert lo - 1e-12 <= exact <= hi + 1e-12


def test_scgf_prime_and_second_match_finite_differences():
    for joint in FIXTURES + [_lattice(6, 4, 2)]:
        for alpha in (-0.7, -0.2, 0.3, 1.5, 4.0):
            h = 1e-5
            fd1 = (ref.scgf(joint, alpha + h) - ref.scgf(joint, alpha - h)) / (2 * h)
            fd2 = (ref.scgf_prime(joint, alpha + h) - ref.scgf_prime(joint, alpha - h)) / (2 * h)
            assert ref.scgf_prime(joint, alpha) == pytest.approx(fd1, abs=1e-8)
            assert ref.scgf_second(joint, alpha) == pytest.approx(fd2, abs=1e-6)


def test_gamma_is_the_slope_at_the_plateau_edge():
    for joint in FIXTURES + [_lattice(12, 3, 2)]:
        assert ref.scgf_prime(joint, -1.0 + 1e-8) == pytest.approx(ref.gamma(joint), abs=1e-6)
    assert ref.gamma(SKEW22) == pytest.approx(0.0866433975700, abs=1e-12)


def test_rate_is_the_legendre_transform():
    grid = np.concatenate((-1.0 + np.logspace(-9, -1, 2000), np.linspace(-0.9, 40.0, 20001)))
    for joint in (BSC01, SKEW22, INDEPENDENT, _lattice(13, 3, 2)):
        lam = np.array([ref.scgf(joint, a) for a in grid])
        for x in np.linspace(0.0, ref.x_sup(joint) * 0.97, 15):
            value, alpha = ref.rate(joint, float(x))
            brute = max(float(np.max(x * grid - lam)), ref.h_inf(joint) - x)
            assert value >= brute - 1e-12
            assert value == pytest.approx(brute, abs=1e-6)
            if alpha is not None:
                assert ref.scgf_prime(joint, alpha) == pytest.approx(x, abs=1e-12)
        h = ref.h_shannon(joint)
        assert ref.rate(joint, h)[0] == pytest.approx(0.0, abs=1e-12)


def test_rate_special_cases():
    assert ref.rate(UNIFORM, 0.3)[0] == pytest.approx(math.log(2.0) - 0.3, abs=1e-15)
    assert ref.rate(NOISELESS, 0.0)[0] == 0.0
    assert ref.rate(NOISELESS, 0.1)[0] == math.inf
    assert ref.rate(BSC01, 0.7)[0] == math.inf


def test_entropies():
    assert ref.arimoto(BSC01, 0.5) == pytest.approx(math.log(1.6), rel=1e-14)
    assert ref.renyi([0.25] * 4, 2.0) == pytest.approx(math.log(4.0), rel=1e-14)
    assert ref.arimoto(INDEPENDENT, 2.0) == pytest.approx(ref.renyi([0.7, 0.3], 2.0), rel=1e-14)


def test_moment_interval_holds_on_brute_force_laws():
    for seed, shape in ((1, (2, 2)), (2, (3, 1)), (3, (4, 3)), (4, (3, 2))):
        joint = _lattice(seed, *shape)
        for n in (1, 3, 5):
            law = ref.rank_pmf(joint, n)
            for alpha in (-3.0, -1.0, -0.6, -0.1, 0.3, 1.0, 2.2):
                lo, hi = ref.moment_interval(joint, n, alpha)
                exact = ref.law_log_moment(law, alpha)
                assert lo - 1e-10 <= exact <= hi + 1e-10


def _pairwise_kmin(laws, k):
    """P(k-th smallest = t) by enumerating every rank tuple."""
    out = [Fraction(0)] * laws[0].ranks
    for ranks in product(range(1, laws[0].ranks + 1), repeat=len(laws)):
        p = Fraction(1)
        for law, r in zip(laws, ranks):
            p *= law.fraction(r)
        out[sorted(ranks)[k - 1] - 1] += p
    return out


def test_kmin_matches_tuple_enumeration():
    laws = [ref.rank_pmf(BSC01, 3), ref.rank_pmf(SKEW22, 3), ref.rank_pmf(_lattice(4, 2, 3), 3)]
    for users, k in (((0, 1), 1), ((0, 1), 2), ((0, 1, 2), 2), ((0, 0, 2), 1)):
        chosen = [laws[i] for i in users]
        law = ref.kmin_pmf(chosen, k)
        expected = _pairwise_kmin(chosen, k)
        assert [law.fraction(t) for t in range(1, law.ranks + 1)] == expected


def test_kmin_of_one_user_is_the_user():
    law = ref.rank_pmf(SKEW22, 5)
    single = ref.kmin_pmf([law], 1)
    assert [single.fraction(t) for t in range(1, 33)] == [law.fraction(t) for t in range(1, 33)]


def test_type_levels_match_brute_force():
    pmf = [0.5123, 0.3011, 0.1866]
    n = 6
    law = ref.rank_pmf([[p] for p in pmf], n)
    levels = ref.type_levels(pmf, n)
    assert sum(c for _, c in levels) == 3**n
    start = 1
    for log_level, count in levels:
        for r in range(start, start + count):
            assert math.log(float(law.fraction(r))) == pytest.approx(log_level, rel=1e-13)
        start += count


def test_lattice_generator_reproduces_the_test_corpus_shapes():
    from workloads import CORPUS_SEED, corpus_joints

    joints = corpus_joints(CORPUS_SEED)
    rng = np.random.default_rng(CORPUS_SEED)
    for joint in joints:
        x_size, y_size = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        assert (len(joint), len(joint[0])) == (x_size, y_size)
        assert lattice_joint(rng, x_size, y_size) == joint
