"""Certified log power sums against mpmath Hurwitz-zeta oracles."""

import math
from math import fsum

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guesslab import guesswork_distribution, powersum
from guesslab.parallel import UserEnsemble, kmin_distribution
from guesslab.powersum import BudgetExceededError, _tail_logs, log_ints, power_sum, power_sum_log, power_sums_log

from _oracle import log_power_sum, split_laws

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
            assert power_sum_log(a, b, alpha) == pytest.approx(direct, rel=1e-13, abs=0)
    # counts around the exact head, H = max(32, 4 * (floor|alpha| + 1)) terms,
    # including orders whose head grows past 32
    for alpha in (-12.5, -2.3, -1.0, 0.25, 4.1, 12.5, 40.5):
        head = max(32, 4 * (int(abs(alpha)) + 1))
        for a in (1, 999):
            for count in (head - 1, head, head + 1, head + 2, 3 * head):
                b = a + count - 1
                direct = mpmath.log(mpmath.fsum(mpmath.mpf(r) ** alpha for r in range(a, b + 1)))
                assert power_sum_log(a, b, alpha) == pytest.approx(float(direct), rel=1e-13, abs=0)


def test_tail_is_returned_only_within_its_certificate():
    # short heads on purpose: there the B_10 bound binds, and is refused or met
    given = refused = 0
    for alpha in (-8.5, -3.2, -1.0, -0.5, 0.7, 2.5, 6.3, 10.5, 14.5):
        for lo in (2, 4, 8, 16, 32, 64):
            for hi in (lo + 40, 5000):
                tail, ok = _tail_logs(np.array([math.log(lo)]), np.array([math.log1p((hi - lo) / lo)]), alpha)
                if not ok[0]:
                    refused += 1
                    continue
                given += 1
                assert abs(math.expm1(tail[0] - zeta_log_sum(lo, hi, alpha))) <= 1e-12
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
        assert math.log(linear) == pytest.approx(power_sum_log(2, 10**5, alpha), rel=1e-13, abs=0)


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
    """An order and blocks (start, count) that take every path of the kernel.

    Counts straddle the head length H, so some blocks are summed by the head
    alone and some add a tail; starts past 2**53 are not exact as floats,
    and starts up to 2**1100 pass the range of a double.
    """
    alpha = draw(st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.0]), st.floats(-14.0, 14.0)))
    head = max(32, 4 * (int(abs(alpha)) + 1))
    starts = st.one_of(
        st.integers(1, 100), st.integers(1, 10**15), st.integers(2**53, 2**60), st.integers(2**1000, 2**1100)
    )
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
def test_power_sums_log_matches_mpmath_per_block(case):
    """Each block's sum within 1e-12 relative of a 40-digit mpmath sum, |exp(got - want) - 1|.

    Doubles past 2048 are 4.5e-13 or more apart, so no log there is always
    within 1e-12 of the true one; the bound is the larger of 1e-12 and 4
    units in the last place of the log.
    """
    alpha, blocks = case
    bound = max(a + c for a, c in blocks)
    starts = log_ints([a for a, _ in blocks], bound)
    counts = log_ints([c for _, c in blocks], bound)
    got = power_sums_log(starts, counts, alpha).tolist()
    for (a, c), value in zip(blocks, got):
        want = log_power_sum(a, a + c - 1, alpha)
        assert abs(mpmath.expm1(value - want)) <= max(1e-12, 4 * math.ulp(float(want)))


@pytest.fixture(scope="module")
def bsc01_n240_view(bsc01):
    """The blocks of bsc01 at n = 240, its one law tiled once per y-type: 42,416 tail blocks, most starting past 2**53 * H."""
    return split_laws(guesswork_distribution(bsc01, 240))._view


def _head_logs_every_term(log_a, inv_a, m, alpha):
    """``_head_logs`` with every block's terms summed column by column, none skipped."""
    if alpha > 0.0:
        q = (m - 1.0) * inv_a
        log_top, step = log_a + np.log1p(q), -inv_a / (1.0 + q)
    else:
        log_top, step = log_a, inv_a
    total = np.zeros(m.size)
    for j in range(1, int(m.max()) if m.size else 1):
        live = m > j
        total[live] += (1.0 + step[live] * j) ** alpha
    return alpha * log_top + np.log1p(total)


@pytest.mark.parametrize("alpha", [-3.5, 0.37, 1.5, 12.5])
def test_head_of_terms_rounding_to_one_is_bit_identical(bsc01_n240_view, monkeypatch, alpha):
    """Blocks whose head terms all round to 1.0 add m - 1 without the column loop."""
    view, head_logs, heads = bsc01_n240_view, powersum._head_logs, []
    monkeypatch.setattr(powersum, "_head_logs", lambda *args: heads.append(args) or head_logs(*args))
    got = power_sums_log(view.log_starts, view.log_counts, alpha)
    monkeypatch.setattr(powersum, "_head_logs", _head_logs_every_term)
    assert np.array_equal(got, power_sums_log(view.log_starts, view.log_counts, alpha))
    # the heads on their own, as the tails swamp most of them in the sums
    assert sum(args[0].size for args in heads) > 40000
    for args in heads:
        assert np.array_equal(head_logs(*args), _head_logs_every_term(*args))


def _terms_summed(log_a, inv_a, m, alpha):
    """The head terms ``_head_logs`` sums: m - 1 per block, but none where even the last rounds to 1.0."""
    step = -inv_a / (1.0 + (m - 1.0) * inv_a) if alpha > 0.0 else inv_a
    return int((m - 1.0)[1.0 + step * (m - 1.0) != 1.0].sum())


@pytest.mark.parametrize("alpha", [-50.0, 0.5, 100.0])
def test_head_budget_counts_only_the_terms_summed(bsc01_n240_view, monkeypatch, alpha):
    """A pass is refused past BUDGET_CAP terms summed, whatever the heads of terms rounding to 1.0 would add."""
    view, head_logs, passes = bsc01_n240_view, powersum._head_logs, []
    want = power_sums_log(view.log_starts, view.log_counts, alpha)
    monkeypatch.setattr(powersum, "_head_logs", lambda *args: passes.append(args) or head_logs(*args))
    power_sums_log(view.log_starts, view.log_counts, alpha)
    summed = max(_terms_summed(*args) for args in passes)
    # every block's head, those whose terms round to 1.0 included, is over ten times that: the cap falls between
    assert 10 * summed < max(float((args[2] - 1.0).sum()) for args in passes)
    monkeypatch.setattr(powersum, "BUDGET_CAP", summed)
    assert np.array_equal(power_sums_log(view.log_starts, view.log_counts, alpha), want)
    monkeypatch.setattr(powersum, "BUDGET_CAP", summed - 1)
    with pytest.raises(BudgetExceededError) as err:
        power_sums_log(view.log_starts, view.log_counts, alpha)
    assert (err.value.required, err.value.cap) == (summed, summed - 1)


@pytest.mark.parametrize("alpha", [1e308, -1e308])
def test_covered_count_past_the_float_range_is_refused(alpha):
    """2**1025 ranks from 1, which a head of 4 (|alpha| + 1) terms covers: refused before the count saturates."""
    with pytest.raises(BudgetExceededError):
        power_sums_log(log_ints([1], 2**1025), log_ints([2**1025], 2**1025), alpha)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    blocks=st.lists(
        st.tuples(st.one_of(st.integers(1, 1000), st.integers(1, 10**15), st.integers(2**53, 2**1000)),
                  st.integers(1, 300)),
        min_size=1, max_size=20,
    ),
    alpha=st.one_of(st.floats(-60.0, 60.0), st.sampled_from([-1e4, -0.5, 0.5, 1e4])),
    chunk=st.sampled_from([1, 7, 64, 1 << 16]),
)
def test_ragged_head_is_bit_identical_to_the_column_loop(blocks, alpha, chunk):
    """Chunks of 7 terms split blocks and end inside and between them; every sum keeps its bits."""
    log_a = log_ints([a for a, _ in blocks], max(a for a, _ in blocks))
    m = np.array([float(c) for _, c in blocks])
    args = log_a, np.exp(-log_a), m, alpha
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(powersum, "_HEAD_CHUNK", chunk)
        got = powersum._head_logs(*args)
    assert np.array_equal(got, _head_logs_every_term(*args))


def poly_sum_reference(a: int, b: int, degrees, coefs, alpha: float, minus_one: bool) -> float:
    """log|sum_{t=a}^{b} (t**alpha [- 1]) sum_l c_l (t - a)**i_l (b - t)**j_l| term by term at 40 digits."""
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for t in range(a, b + 1):
            weight = mpmath.expm1(alpha * mpmath.log(t)) if minus_one else mpmath.mpf(t) ** alpha
            total += weight * mpmath.fsum(mpmath.mpf(c) * (t - a) ** i * (b - t) ** j
                                          for (i, j), c in zip(degrees, coefs))
        return float(mpmath.log(abs(total)))


@st.composite
def polynomial_rows(draw):
    degrees = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.tuples(st.integers(1, 10**6), st.integers(0, 300)), min_size=1, max_size=3))
    coefs = [[draw(st.sampled_from([0.0, 1.0])) * draw(st.floats(1e-3, 1.0)) for _ in degrees] for _ in rows]
    for row in coefs:
        row[0] = max(row[0], 0.5)
    alpha = draw(st.floats(-1.5, 4.0, allow_subnormal=False))
    return degrees, [(a, a + length) for a, length in rows], coefs, alpha, draw(st.booleans())


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(case=polynomial_rows())
def test_poly_power_sums_log_matches_mpmath_term_by_term(case):
    degrees, rows, coefs, alpha, minus_one = case
    with np.errstate(divide="ignore"):
        log_coefs = np.log(np.array(coefs))
    got = powersum.poly_power_sums_log([a for a, _ in rows], [b for _, b in rows], degrees, log_coefs, alpha,
                                       minus_one)
    for value, (a, b), row in zip(got.tolist(), rows, coefs):
        if minus_one and (alpha == 0.0 or b == 1):
            assert value == -math.inf
        else:
            assert value == pytest.approx(poly_sum_reference(a, b, degrees, row, alpha, minus_one), rel=1e-13, abs=0)


@pytest.mark.parametrize("alpha", [-1.5, -0.5, 0.5, 1.0, 2.5, 4.0])
@pytest.mark.parametrize("a, b", [(1, 10**9), (3, 2**60), (10**12, 10**12 + 10**9), (2**70, 2**80)])
def test_poly_power_sums_log_on_huge_segments(alpha, a, b):
    """1, t - a and b - t against t**alpha over huge ranges: power sums of the oracle, at 40 digits."""
    got = powersum.poly_power_sums_log([a] * 3, [b] * 3, [(0, 0), (1, 0), (0, 1)],
                                       np.array([[0.0, -np.inf, -np.inf], [-np.inf, 0.0, -np.inf],
                                                 [-np.inf, -np.inf, 0.0]]), alpha)
    with mpmath.workdps(40):
        s0, s1 = mpmath.exp(log_power_sum(a, b, alpha)), mpmath.exp(log_power_sum(a, b, alpha + 1))
        want = [float(mpmath.log(s)) for s in (s0, s1 - a * s0, b * s0 - s1)]
    assert got.tolist() == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("alpha", [-float(powersum.POLY_MAX_ORDER), -37.5, 123.25, float(powersum.POLY_MAX_ORDER)])
@pytest.mark.parametrize("a, b", [(1, 10**9), (2**70, 2**80)])
def test_poly_power_sums_log_at_large_orders(alpha, a, b):
    """1 against power_sums_log, and (t - a) + (b - t) = b - a against b - a times it, each sum to 1e-13."""
    got = powersum.poly_power_sums_log([a] * 3, [b] * 3, [(0, 0), (1, 0), (0, 1)],
                                       np.array([[0.0, -np.inf, -np.inf], [-np.inf, 0.0, -np.inf],
                                                 [-np.inf, -np.inf, 0.0]]), alpha)
    plain = power_sums_log(np.array([math.log(a)]), np.array([math.log(b - a + 1)]), alpha)[0]
    # a log error of e is a relative error of about e in the sum, so logs near 0 compare absolutely
    assert abs(got[0] - plain) <= 1e-13 * max(1.0, abs(plain))
    both = math.log(b - a) + plain
    assert abs(np.logaddexp(got[1], got[2]) - both) <= 1e-13 * max(1.0, abs(both))
    with pytest.raises(ValueError, match="orders up to"):
        powersum.poly_power_sums_log([a], [b], [(0, 0)], np.zeros((1, 1)), math.copysign(1000.5, alpha))


@pytest.mark.parametrize("alpha", [-1.5, 0.5, 2.5])
def test_poly_power_sums_log_in_small_chunks_is_bit_identical(monkeypatch, bsc01, alpha):
    """Rows split into chunks of a few hundred values sum to the same bits as in one chunk."""
    starts = [1, 7, 40, 3, 10**6, 2**70, 5]
    stops = [9, 30, 41, 10**9, 10**6 + 10**4, 2**80, 5 + 10**5]  # three head-only rows, four with tails
    degrees = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]
    log_coefs = np.log(np.linspace(0.1, 1.0, len(starts) * len(degrees))).reshape(len(starts), -1)
    log_coefs[1, 2] = log_coefs[4, 0] = -np.inf
    dists = [kmin_distribution(UserEnsemble(users=(bsc01, bsc01), k=1), 80) for _ in range(2)]

    def sums(dist):
        rows = [powersum.poly_power_sums_log(starts, stops, degrees, log_coefs, alpha, minus_one).tolist()
                for minus_one in (False, True)]
        return rows, dist.log_moment(alpha)

    want = sums(dists[0])
    chunks, split = [], powersum._chunks
    monkeypatch.setattr(powersum, "_chunks", lambda costs: chunks.append(split(costs)) or chunks[-1])
    monkeypatch.setattr(powersum, "_CELLS", 300)
    assert sums(dists[1]) == want
    assert max(map(len, chunks)) > 2
