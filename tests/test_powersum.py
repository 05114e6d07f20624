"""Certified log power sums against mpmath Hurwitz-zeta oracles."""

import math
from math import fsum

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guesslab.powersum import _tail_log, power_sum, power_sum_log, power_sums_log

mpmath.mp.dps = 40


def zeta_log_sum(a: int, b: int, alpha: float) -> float:
    """Oracle: log sum_{r=a}^{b} r^alpha.

    Decreasing terms use the Hurwitz-zeta continuation (fast for s > 0);
    increasing terms use mpmath's own Euler-Maclaurin summation, seeded
    past r = 10^4 where its asymptotic series reaches full precision.
    """
    if alpha == -1.0:
        s = mpmath.digamma(b + 1) - mpmath.digamma(a)
    elif alpha < 0.0:
        s = mpmath.zeta(-alpha, a) - mpmath.zeta(-alpha, b + 1)
    else:
        head_end = min(b, a + 10**4)
        s = mpmath.fsum(mpmath.mpf(r) ** alpha for r in range(a, head_end + 1))
        if head_end < b:
            s += mpmath.sumem(lambda k: k ** mpmath.mpf(alpha), [head_end + 1, b])
    return float(mpmath.log(s))


def test_small_ranges_match_direct_sums():
    for alpha in (-2.3, -1.0, -0.5, 0.25, 1.7, 4.1):
        for a, b in ((1, 1), (1, 7), (3, 50), (999, 1024)):
            direct = math.log(fsum(r**alpha for r in range(a, b + 1)))
            assert power_sum_log(a, b, alpha) == pytest.approx(direct, rel=1e-13)
    # counts around the exact head, H = max(32, 4 * (floor|alpha| + 1)) terms,
    # including orders whose head grows past 32
    for alpha in (-12.5, -2.3, -1.0, 0.25, 4.1, 12.5, 40.5):
        head = max(32, 4 * (int(abs(alpha)) + 1))
        for a in (1, 999):
            for count in (head - 1, head, head + 1, head + 2, 3 * head):
                b = a + count - 1
                direct = mpmath.log(mpmath.fsum(mpmath.mpf(r) ** alpha for r in range(a, b + 1)))
                assert power_sum_log(a, b, alpha) == pytest.approx(float(direct), rel=1e-13)


def test_tail_is_returned_only_within_its_certificate():
    # short heads on purpose: there the B_10 bound binds, and is refused or met
    given = refused = 0
    for alpha in (-8.5, -3.2, -1.0, -0.5, 0.7, 2.5, 6.3, 10.5, 14.5):
        for lo in (2, 4, 8, 16, 32, 64):
            for hi in (lo + 40, 5000):
                got = _tail_log(lo, hi, alpha)
                if got is None:
                    refused += 1
                    continue
                given += 1
                assert abs(math.expm1(got - zeta_log_sum(lo, hi, alpha))) <= 1e-12
    assert given and refused


def test_faulhaber_orders_are_exact():
    assert power_sum(1, 10**6, 0.0) == 10**6
    assert power_sum(1, 10**6, 1.0) == (10**6 * (10**6 + 1)) // 2
    n = 12345
    assert power_sum(1, n, 2.0) == n * (n + 1) * (2 * n + 1) // 6
    assert power_sum(1, n, 3.0) == (n * (n + 1) // 2) ** 2
    assert power_sum(5, 5, 2.0) == 25.0


@pytest.mark.parametrize("alpha", [-3.2, -1.7, -1.0, -0.5, -0.1, 0.5, 2.5, 6.0 - 1e-9])
@pytest.mark.parametrize("b", [10**6, 10**9, 10**12, 10**15])
def test_huge_ranges_match_zeta_oracle(alpha, b):
    got = power_sum_log(1, b, alpha)
    want = zeta_log_sum(1, b, alpha)
    assert got == pytest.approx(want, rel=1e-12)


def test_offset_huge_ranges():
    for a, b in ((10**6, 10**9), (10**9 + 17, 10**12)):
        for alpha in (-2.5, -1.0, -0.3, 1.25):
            got = power_sum_log(a, b, alpha)
            want = zeta_log_sum(a, b, alpha)
            assert got == pytest.approx(want, rel=1e-12)


def test_narrow_blocks_at_huge_rank():
    a = 10**17
    for width in (0, 1, 5):
        for alpha in (-0.5, 1.3, -2.0):
            got = power_sum_log(a, a + width, alpha)
            want = zeta_log_sum(a, a + width, alpha)
            assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_non_finite_order_is_refused(alpha):
    with pytest.raises(ValueError, match="order"):
        power_sum_log(1, 10, alpha)
    with pytest.raises(ValueError, match="order"):
        power_sums_log(np.array([1.0]), np.array([10.0]), alpha)


def test_empty_range_and_domain():
    assert power_sum_log(5, 4, 1.3) == -math.inf
    assert power_sum(5, 4, 1.3) == 0.0
    with pytest.raises(ValueError):
        power_sum_log(0, 10, 1.0)


def test_log_and_linear_agree():
    for alpha in (-0.8, 0.6):
        linear = power_sum(2, 10**5, alpha)
        assert math.log(linear) == pytest.approx(power_sum_log(2, 10**5, alpha), rel=1e-13)


def test_overflow_saturates_to_inf():
    assert power_sum(1, 2**400, 2.5) == math.inf
    assert power_sum_log(1, 2**400, 2.5) == pytest.approx(
        float(3.5 * 400 * math.log(2) - math.log(3.5)), rel=1e-6
    )


def test_monotone_in_upper_limit():
    prev = -math.inf
    for b in (10, 100, 10**4, 10**8, 10**12):
        cur = power_sum_log(1, b, -0.5)
        assert cur > prev
        prev = cur


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    a=st.integers(1, 10**15),
    count=st.one_of(st.integers(1, 300), st.integers(1, 10**12)),
    alpha=st.floats(-8.0, 8.0).filter(lambda v: v != round(v)),
)
def test_power_sum_log_matches_zeta_oracle(a, count, alpha):
    b = a + count - 1
    assert power_sum_log(a, b, alpha) == pytest.approx(zeta_log_sum(a, b, alpha), rel=1e-12)


@st.composite
def block_arrays(draw):
    """An order and blocks (start, count) that take every path of power_sum_log.

    Counts straddle the head length H, so some blocks are summed by the head
    alone and some add a tail; starts past 2**53 are not exact as floats.
    """
    alpha = draw(st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.0]), st.floats(-14.0, 14.0)))
    head = max(32, 4 * (int(abs(alpha)) + 1))
    starts = st.one_of(st.integers(1, 100), st.integers(1, 10**15), st.integers(2**53, 2**60))
    counts = st.one_of(
        st.just(1),
        st.integers(2, 5),
        st.sampled_from([head - 1, head, head + 1, head + 2]),
        st.integers(1, 10**4),
        st.integers(1, 10**12),
    )
    return alpha, draw(st.lists(st.tuples(starts, counts), min_size=1, max_size=40))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=block_arrays())
def test_power_sums_log_matches_scalar_per_block(case):
    """Each block's sum within 1e-13 relative of power_sum_log's, |exp(got - want) - 1|."""
    alpha, blocks = case
    starts = np.array([a for a, _ in blocks], dtype=np.float64)
    counts = np.array([c for _, c in blocks], dtype=np.float64)
    got = power_sums_log(starts, counts, alpha).tolist()
    for (a, c), value in zip(blocks, got):
        assert abs(math.expm1(value - power_sum_log(a, a + c - 1, alpha))) <= 1e-13
