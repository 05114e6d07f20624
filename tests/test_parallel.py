"""Tests for k-of-m parallel guesswork: exact order-statistic laws and asymptotics.

The k-min law combiner is checked against a brute-force enumeration that
iterates over all rank tuples of the (already independently validated)
single-user laws in exact Fraction arithmetic, and, past brute-force
reach, rank for rank against the per-rank Poisson-binomial law of
``_oracle.kmin_law_per_rank`` on ensembles whose segments between user
block boundaries run far longer than m ranks.  Both read the k-min pmf
as exact survival differences S(t - 1) - S(t).
"""

import math
import time
from collections import defaultdict
from fractions import Fraction
from itertools import permutations, product

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guesslab import parallel as parallel_module
from guesslab import (
    DomainError,
    Dyadic,
    EnsembleError,
    RateFunction,
    UserEnsemble,
    conditional_renyi_arimoto,
    conditional_shannon,
    guesswork_distribution,
    kmin_distribution,
    kmin_moment_exact,
    make_source,
    moment_exact,
    rate_parallel,
    rate_parallel_iid,
    scgf_limit,
    scgf_parallel,
    scgf_parallel_iid,
)
from guesslab.parallel import KminDistribution

from _oracle import golden_max, kmin_law_per_rank, lattice_sources, rate_golden

# Arimoto order-2/3 value for the 0.1-flip binary symmetric channel,
# frozen from the mpmath oracle below (the test re-derives it).
H_TWO_THIRDS_BSC = 0.41305297631942955


def arimoto_oracle(src, order: float) -> float:
    """High-precision conditional Arimoto entropy from the joint pmf."""
    with mpmath.workdps(40):
        a = mpmath.mpf(order)
        total = mpmath.mpf(0)
        for j in range(src.y_alphabet.size):
            inner = mpmath.fsum(
                mpmath.mpf(float(src.joint[i, j])) ** a
                for i in range(src.x_alphabet.size)
                if src.joint[i, j] > 0.0
            )
            total += inner ** (1 / a)
        return float(a / (1 - a) * mpmath.log(total))


def kmin_rank_pmf(dist: KminDistribution) -> list[Fraction]:
    """P(k-min = t) for t = 1..|X|**n, the exact survival differences S(t - 1) - S(t) over 2**bits."""
    survivals = [dist._survival_at(t) for t in range(dist.total_sequences + 1)]
    one = 2**dist.code.bits
    return [Fraction(above - below, one) for above, below in zip(survivals, survivals[1:])]


def rank_pmf(dist) -> dict[int, Fraction]:
    """Unconditional per-rank pmf of a rank law, as exact Fractions."""
    if isinstance(dist, KminDistribution):
        return dict(enumerate(kmin_rank_pmf(dist), start=1))
    pmf: dict[int, Fraction] = defaultdict(Fraction)
    for law in dist.laws:
        for block in law.blocks:
            if block.joint_level.is_zero():
                continue
            q = block.joint_level.as_fraction() * law.y_sequences
            for r in range(block.start, block.start + block.count):
                pmf[r] += q
    return pmf


def kmin_pmf_brute(user_pmfs: list[dict[int, Fraction]], k: int) -> dict[int, Fraction]:
    """k-th smallest of independent ranks by enumerating all rank tuples.

    Every user probability is dyadic, so each user's pmf is taken as integer
    numerators over its largest denominator, a power of two; tuple
    probabilities are integer products over the product of those, and each
    rank becomes one Fraction at the end.
    """
    scaled, denominator = [], 1
    for pmf in user_pmfs:
        scale = max(q.denominator for q in pmf.values())
        assert scale & (scale - 1) == 0
        scaled.append(sorted((r, q.numerator * (scale // q.denominator)) for r, q in pmf.items()))
        denominator *= scale
    out: dict[int, int] = defaultdict(int)
    for combo in product(*scaled):
        ranks = sorted(r for r, _ in combo)
        prob = 1
        for _, q in combo:
            prob *= q
        out[ranks[k - 1]] += prob
    return {r: Fraction(num, denominator) for r, num in out.items()}


# ---------------------------------------------------------------------------
# exact k-min law
# ---------------------------------------------------------------------------


def test_two_uniform_users_n1_min(uniform_binary):
    ens = UserEnsemble(users=(uniform_binary, uniform_binary), k=1)
    dist = kmin_distribution(ens, 1)
    pmf = rank_pmf(dist)
    assert pmf[1] == Fraction(3, 4)
    assert pmf[2] == Fraction(1, 4)
    assert kmin_moment_exact(ens, 1, 1.0) == pytest.approx(1.25, rel=1e-12)


def test_two_uniform_users_n1_max(uniform_binary):
    ens = UserEnsemble(users=(uniform_binary, uniform_binary), k=2)
    dist = kmin_distribution(ens, 1)
    pmf = rank_pmf(dist)
    assert pmf[1] == Fraction(1, 4)
    assert pmf[2] == Fraction(3, 4)
    # an increasing pmf: the segments take no order on their levels
    assert kmin_moment_exact(ens, 1, 1.0) == pytest.approx(1.75, rel=1e-12)


def test_single_user_delegates_bit_for_bit(bsc01):
    ens = UserEnsemble(users=(bsc01,), k=1)
    kd = kmin_distribution(ens, 4)
    gd = guesswork_distribution(bsc01, 4)
    assert kd.laws == gd.laws
    assert kd.y_symbols == gd.y_symbols
    for alpha in (-0.5, 1.0, 2.0):
        assert kmin_moment_exact(ens, 4, alpha) == moment_exact(bsc01, 4, alpha)


def assert_kmin_matches_brute_force(users, n: int) -> None:
    singles = [rank_pmf(guesswork_distribution(u, n)) for u in users]
    for k in range(1, len(users) + 1):
        ens = UserEnsemble(users=users, k=k)
        got = rank_pmf(kmin_distribution(ens, n))
        want = kmin_pmf_brute(singles, k)
        ranks = set(got) | set(want)
        for r in ranks:
            assert got.get(r, Fraction(0)) == want.get(r, Fraction(0)), (
                f"rank {r} mismatch for k={k}, n={n}, m={len(users)}"
            )


def test_kmin_matches_brute_force_combination(bsc01, skew22, uniform_binary, noiseless, corpus):
    # noiseless has zero-probability ranks, so the k-min law has zero runs
    wide = [src for src in corpus if src.y_alphabet.size == 3 and src.x_alphabet.size == 2]
    for users, n in [
        ((bsc01, skew22), 1),
        ((bsc01, skew22), 2),
        ((bsc01, skew22), 3),
        ((bsc01, skew22), 5),
        ((bsc01, skew22, uniform_binary), 2),
        ((bsc01, noiseless), 3),
        ((noiseless, noiseless, skew22), 2),
        ((wide[0], bsc01), 3),
        ((bsc01, skew22, uniform_binary, noiseless), 2),
    ]:
        assert_kmin_matches_brute_force(users, n)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_kmin_matches_brute_force_on_random_lattice_users(data):
    x_size = data.draw(st.integers(2, 3))
    m = data.draw(st.integers(2, 3))
    n = data.draw(st.integers(1, 3))
    users = tuple(data.draw(lattice_sources(x_size)) for _ in range(m))
    assert_kmin_matches_brute_force(users, n)


def assert_kmin_matches_per_rank_oracle(users, n: int) -> None:
    for k in range(1, len(users) + 1):
        got = kmin_rank_pmf(kmin_distribution(UserEnsemble(users=users, k=k), n))
        counts, levels = kmin_law_per_rank(users, k, n)
        want = [level.as_fraction() for count, level in zip(counts, levels) for _ in range(count)]
        assert got == want, f"levels differ for k={k}, n={n}, m={len(users)}"


def longest_segment(users, n: int) -> int:
    """Most ranks between consecutive block boundaries of the users' laws."""
    bounds = {users[0].x_alphabet.size**n + 1}
    for user in users:
        for law in guesswork_distribution(user, n).laws:
            bounds.update(block.start for block in law.blocks)
    bounds = sorted(bounds)
    return max(b - a for a, b in zip(bounds, bounds[1:]))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [10, 11, 12])
def test_kmin_matches_per_rank_oracle_iid(bsc01, m, n):
    users = (bsc01,) * m
    assert longest_segment(users, n) > 10 * m
    assert_kmin_matches_per_rank_oracle(users, n)


def test_kmin_matches_per_rank_oracle_mixed(bsc01, skew22, uniform_binary, independent, noiseless, corpus):
    wide = next(src for src in corpus if src.y_alphabet.size == 3 and src.x_alphabet.size == 2)
    for users, n in [
        ((bsc01, skew22, noiseless), 10),  # noiseless leaves zero runs
        ((wide, bsc01), 10),
        ((bsc01, skew22, uniform_binary, independent, bsc01), 8),
    ]:
        assert longest_segment(users, n) > len(users)
        assert_kmin_matches_per_rank_oracle(users, n)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_kmin_matches_per_rank_oracle_on_random_lattice_users(data):
    x_size = data.draw(st.integers(2, 3))
    m = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(1, 8))
    users = tuple(data.draw(lattice_sources(x_size)) for _ in range(m))
    assert_kmin_matches_per_rank_oracle(users, n)


def exact_log_moment_and_window(counts, levels, n: int, alpha: float, lo: float, hi: float):
    """log E G^alpha and log P(log(G)/n in [lo, hi]) of an exact per-rank law, at 40 digits.

    The window's end ranks are rounded from float e^(n lo) and e^(n hi), as the library does.
    """
    r_lo = max(1, math.ceil(math.exp(n * lo)))
    r_hi = math.floor(math.exp(n * hi))
    moment, window = mpmath.mpf(0), Fraction(0)
    with mpmath.workdps(40):
        start = 1
        for count, level in zip(counts, levels):
            q = level.as_fraction()
            if q:
                ranks = range(start, start + count)
                power_sum = mpmath.fsum(mpmath.mpf(r) ** alpha for r in ranks)
                moment += mpmath.mpf(q.numerator) / q.denominator * power_sum
                window += q * max(0, min(ranks[-1], r_hi) - max(start, r_lo) + 1)
            start += count
        log_window = mpmath.log(mpmath.mpf(window.numerator) / window.denominator) if window else -mpmath.inf
        return float(mpmath.log(moment)), float(log_window)


@pytest.mark.parametrize("users, k, n", [
    (("bsc01", "noiseless", "skew22"), 1, 12),  # all mass at rank 1: log E G^alpha ~ -1e-32
    (("bsc01", "noiseless", "skew22"), 2, 12),
    (("bsc01", "bsc01", "bsc01"), 2, 12),
    (("bsc01", "lat22"), 1, 12),
])
def test_kmin_moments_and_windows_match_exact_reference(request, users, k, n):
    """Float logs of the k-min levels come from their numerators without cancellation.

    The float readers are the exps of the logs, and a window above log|X| is empty.
    """
    lat22 = make_source(["0", "1"], ["0", "1"], [[0.5, 0.1], [0.15, 0.25]])
    users = tuple(lat22 if u == "lat22" else request.getfixturevalue(u) for u in users)
    dist = kmin_distribution(UserEnsemble(users=users, k=k), n)
    counts, levels = kmin_law_per_rank(users, k, n)
    for alpha, lo, hi in ((1.5, 0.1, 0.4), (-0.5, 0.0, 0.3), (2.0, 0.35, 0.6), (1.0, 0.7, 1.5)):
        log_moment, log_window = exact_log_moment_and_window(counts, levels, n, alpha, lo, hi)
        assert abs(dist.log_moment(alpha) - log_moment) <= 1e-14
        got = dist.log_prob_log_window(lo, hi)
        assert got == log_window == -math.inf or abs(got - log_window) <= 1e-14
        assert dist.prob_log_window(lo, hi) == math.exp(got)
    assert dist.log_prob_log_window(0.7, 1.5) == -math.inf and dist.prob_log_window(0.7, 1.5) == 0.0
    assert dist.prob_eq_one() == dist.prob_eq_one_dyadic().to_float() == levels[0].to_float()


def test_kmin_law_makes_exact_levels_only_for_user_keys(monkeypatch, bsc01, skew22, noiseless):
    """The k-min law keeps numerators; only the users' distinct keys and the values read become Dyadic."""
    users, n = (bsc01, skew22, noiseless), 10
    ensemble = UserEnsemble(users=users, k=2)
    kmin_distribution(ensemble, n)  # level codes and their cached powers are built once per source
    made = []
    init = Dyadic.__init__
    monkeypatch.setattr(Dyadic, "__init__", lambda self, m, e: made.append(m) or init(self, m, e))
    dists = [guesswork_distribution(u, n) for u in users]
    by_users = len(made)
    kmin = kmin_distribution(ensemble, n)
    kmin.log_moment(1.5)
    kmin.log_moment(-0.5)
    kmin.log_prob_log_window(0.1, 0.4)
    kmin.prob_eq_one_dyadic()
    by_kmin = len(made) - 2 * by_users  # kmin_distribution builds the users' laws again
    distinct = sum(len({key for user_law in dist.laws for key in user_law.keys}) for dist in dists)
    assert by_kmin <= distinct + 4
    assert kmin.total_sequences > 10 * (distinct + 4)  # one per rank would not pass


def test_kmin_mass_conservation(bsc01, skew22, uniform_binary):
    users = (bsc01, skew22, uniform_binary)
    for k in (1, 2, 3):
        ens = UserEnsemble(users=users, k=k)
        for n in (1, 2, 3):
            dist = kmin_distribution(ens, n)
            assert dist.total_mass == pytest.approx(1.0, abs=1e-10)


def test_kmin_stochastic_dominance(bsc01, skew22, uniform_binary):
    # the k-th smallest rank is pointwise >= the (k-1)-th smallest, so its
    # CDF sits below at every threshold
    users = (bsc01, skew22, uniform_binary)
    n = 2
    pmfs = [
        rank_pmf(kmin_distribution(UserEnsemble(users=users, k=k), n))
        for k in (1, 2, 3)
    ]
    total = 2**n
    for weaker, stronger in ((0, 1), (1, 2)):
        cdf_w = Fraction(0)
        cdf_s = Fraction(0)
        for r in range(1, total + 1):
            cdf_w += pmfs[weaker].get(r, Fraction(0))
            cdf_s += pmfs[stronger].get(r, Fraction(0))
            assert cdf_s <= cdf_w


def test_kmin_moment_accepts_precomputed_dist(bsc01, skew22):
    ens = UserEnsemble(users=(bsc01, skew22), k=2)
    dist = kmin_distribution(ens, 3)
    assert kmin_moment_exact(ens, 3, 1.0, dist=dist) == kmin_moment_exact(ens, 3, 1.0)


def test_ensemble_validation(bsc01, noiseless):
    with pytest.raises(EnsembleError):
        UserEnsemble(users=(), k=1)
    with pytest.raises(EnsembleError):
        UserEnsemble(users=(bsc01,), k=0)
    with pytest.raises(EnsembleError):
        UserEnsemble(users=(bsc01, bsc01), k=3)
    from guesslab import make_source

    ternary = make_source(("a", "b", "c"), ("y",), [[0.4], [0.3], [0.3]])
    with pytest.raises(EnsembleError):
        UserEnsemble(users=(bsc01, ternary), k=1)


def test_kmin_size_limits(bsc01, uniform_binary):
    """Moments take the segments at any n the users' builds admit; only orders past POLY_MAX_ORDER are capped."""
    with pytest.raises(EnsembleError):
        kmin_distribution(UserEnsemble(users=(bsc01,) * 13, k=1), 1)
    ens = UserEnsemble(users=(bsc01, bsc01), k=1)
    for n in (20, 40, 80):
        got = kmin_distribution(ens, n).scgf_empirical(1.0)
        assert got == pytest.approx(_min_of_two_exponent(bsc01, n), rel=1e-12, abs=0)
    wide = kmin_distribution(UserEnsemble(users=(uniform_binary, uniform_binary), k=1), 21)
    start = time.perf_counter()
    with pytest.raises(EnsembleError, match="exceeds"):
        wide.log_moment(1e5)  # single ranks, 2^21 of them > MAX_KMIN_RANKS
    assert time.perf_counter() - start < 0.5


def log_moment_reference(counts, levels, alpha: float) -> float:
    """log E G^alpha of an exact per-rank law at 40 digits, as log M + log1p(E/M), E = sum P(t) (t**alpha - 1)."""
    with mpmath.workdps(40):
        mass, excess = Fraction(0), mpmath.mpf(0)
        start = 1
        for count, level in zip(counts, levels):
            q = level.as_fraction()
            if q:
                mass += q * count
                excess += mpmath.mpf(q.numerator) / q.denominator * mpmath.fsum(
                    mpmath.expm1(alpha * mpmath.log(r)) for r in range(start, start + count))
            start += count
        mass = mpmath.mpf(mass.numerator) / mass.denominator
        return float(mpmath.log(mass) + mpmath.log1p(excess / mass))


@pytest.mark.parametrize("k", [1, 6, 12])
def test_kmin_twelve_users_on_long_segments(bsc01, k):
    """Twelve users give basis terms of degree 11 on segments of up to C(10, 5) = 252 ranks."""
    users = (bsc01,) * 12
    counts, levels = kmin_law_per_rank(users, k, 10)
    dist = kmin_distribution(UserEnsemble(users=users, k=k), 10)
    for alpha in (-0.5, 1.0, 2.5):
        assert dist.log_moment(alpha) == pytest.approx(log_moment_reference(counts, levels, alpha), rel=1e-13, abs=0)


def test_kmin_large_orders_end_quickly(bsc01, skew22, noiseless):
    """Orders up to POLY_MAX_ORDER take the segments; larger ones single ranks, within MAX_KMIN_RANKS."""
    ensemble = UserEnsemble(users=(bsc01, bsc01), k=1)
    counts, levels = kmin_law_per_rank(ensemble.users, 1, 12)
    dist = kmin_distribution(ensemble, 12)
    for alpha in (-500.0, 500.0, -501.0, 501.0, -1e5, 1e5):
        assert dist.log_moment(alpha) == pytest.approx(log_moment_reference(counts, levels, alpha), rel=1e-13, abs=0)
    lat22 = make_source(["0", "1"], ["0", "1"], [[0.5, 0.1], [0.15, 0.25]])
    users = (bsc01, skew22, lat22)
    counts, levels = kmin_law_per_rank(users, 2, 8)
    dist = kmin_distribution(UserEnsemble(users=users, k=2), 8)
    for alpha in (-501.0, 501.0, 1e5):
        assert dist.log_moment(alpha) == pytest.approx(log_moment_reference(counts, levels, alpha), rel=1e-13, abs=0)
    # a noiseless user's rank is always 1, so ranks of zero pmf meet weights t**alpha = inf
    certain = kmin_distribution(UserEnsemble(users=(bsc01, noiseless), k=1), 3)
    for alpha in (-1e308, 1e308):
        assert certain.log_moment(alpha) == certain.log_moment(0.0)  # log of the mass, all at rank 1
    start = time.perf_counter()
    wide = kmin_distribution(ensemble, 80)
    assert wide.log_moment(-500.0) < 0.0 < wide.log_moment(1.0) < wide.log_moment(500.0) < math.inf
    with pytest.raises(EnsembleError, match="exceeds"):
        kmin_distribution(ensemble, 40).log_moment(1e5)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("m", [2, 3])
def test_kmin_users_of_equal_sources_read_alike(bsc01, m):
    """Users of one source object share one column; equal but distinct objects give the same law, bit for bit."""
    shared = kmin_distribution(UserEnsemble(users=(bsc01,) * m, k=1), 10)
    copies = tuple(make_source(["0", "1"], ["0", "1"], [[0.45, 0.05], [0.05, 0.45]]) for _ in range(m))
    distinct = kmin_distribution(UserEnsemble(users=copies, k=1), 10)
    assert len(shared.columns) == 1 and len(distinct.columns) == m
    for alpha in (-0.5, 1.0, 2.5):
        assert shared.log_moment(alpha) == distinct.log_moment(alpha)
    assert shared.prob_eq_one_dyadic() == distinct.prob_eq_one_dyadic()
    for lo, hi in ((0.1, 0.4), (0.0, 0.3), (0.35, 0.6)):
        assert shared.log_prob_log_window(lo, hi) == distinct.log_prob_log_window(lo, hi)


def test_kmin_table_past_its_words_fails_before_any_build(monkeypatch, bsc01):
    def build(source, n):
        raise AssertionError("no user law should be built")

    monkeypatch.setattr(parallel_module, "guesswork_distribution", build)
    start = time.perf_counter()
    with pytest.raises(EnsembleError, match="words"):
        kmin_distribution(UserEnsemble(users=(bsc01, bsc01), k=1), 60000)
    assert time.perf_counter() - start < 0.5


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_kmin_survival_matches_per_rank_oracle(data):
    """S(t) over 2**(K_1 + ... + K_m) is 1 - the exact CDF at any t in [0, |X|**n], zero cells included."""
    x_size = data.draw(st.integers(2, 3))
    m = data.draw(st.integers(2, 3))
    k = data.draw(st.integers(1, m))
    n = data.draw(st.integers(1, 8))
    users = tuple(data.draw(lattice_sources(x_size)) for _ in range(m))
    dist = kmin_distribution(UserEnsemble(users=users, k=k), n)
    counts, levels = kmin_law_per_rank(users, k, n)
    ends = np.cumsum(counts).tolist()
    for t in data.draw(st.lists(st.integers(0, x_size**n), min_size=1, max_size=6)):
        # the law is constant on each block, so the CDF at t sums whole blocks and part of one
        block = int(np.searchsorted(ends, t))
        cdf = sum(level.as_fraction() * count for count, level in zip(counts[:block], levels[:block]))
        if block < len(counts):
            cdf += levels[block].as_fraction() * (t - (ends[block - 1] if block else 0))
        assert Fraction(dist._survival_at(t), 2**dist.code.bits) == 1 - cdf


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_kmin_segment_moments_and_windows_match_per_rank_oracle(data):
    """Segment moments (single ranks and the certified polynomial sums), windows and P(G = 1), m <= 3, n <= 8."""
    x_size = data.draw(st.integers(2, 3))
    m = data.draw(st.integers(2, 3))
    k = data.draw(st.integers(1, m))
    n = data.draw(st.integers(1, 8))
    users = tuple(data.draw(lattice_sources(x_size)) for _ in range(m))
    counts, levels = kmin_law_per_rank(users, k, n)
    alphas = data.draw(st.lists(st.floats(-1.5, 4.0, allow_subnormal=False), min_size=1, max_size=2))
    wants = [log_moment_reference(counts, levels, alpha) for alpha in alphas]
    # segments this short split into single ranks; with none every segment takes
    # the polynomial sums, and with |X|**n every segment splits
    for short in (parallel_module._SHORT, 0, x_size**n):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parallel_module, "_SHORT", short)
            dist = kmin_distribution(UserEnsemble(users=users, k=k), n)
            for alpha, want in zip(alphas, wants):
                assert dist.log_moment(alpha) == pytest.approx(want, rel=1e-13, abs=0)
    assert dist.prob_eq_one_dyadic() == levels[0]
    log_x = math.log(x_size)
    lo, hi = sorted(data.draw(st.lists(st.floats(0.0, 1.05 * log_x), min_size=2, max_size=2)))
    r_lo = max(1, math.ceil(math.exp(n * lo)))
    r_hi = x_size**n if hi > log_x else math.floor(math.exp(n * hi))
    window, start = Fraction(0), 1
    for count, level in zip(counts, levels):
        window += level.as_fraction() * max(0, min(start + count - 1, r_hi) - max(start, r_lo) + 1)
        start += count
    got = dist.log_prob_log_window(lo, hi)
    if not window:
        assert got == -math.inf
    else:
        with mpmath.workdps(40):
            want = float(mpmath.log(mpmath.mpf(window.numerator) / window.denominator))
        assert got == pytest.approx(want, rel=1e-13, abs=0)


# ---------------------------------------------------------------------------
# convergence of the empirical k-min growth rate
# ---------------------------------------------------------------------------


def test_bsc_min_of_two_moment_growth(bsc01):
    oracle = arimoto_oracle(bsc01, 2.0 / 3.0)
    assert oracle == pytest.approx(H_TWO_THIRDS_BSC, abs=1e-15)
    assert conditional_renyi_arimoto(bsc01, 2.0 / 3.0) == pytest.approx(
        oracle, rel=1e-12
    )
    # the limit of n^-1 log E min(G1, G2) is 2*Lambda(1/2) = H_{2/3}(X|Y)
    assert scgf_parallel_iid(bsc01, 1, 2, 1.0) == pytest.approx(oracle, rel=1e-12)

    ens = UserEnsemble(users=(bsc01, bsc01), k=1)
    targets = {1.0: oracle, -0.5: scgf_parallel_iid(bsc01, 1, 2, -0.5)}
    gaps = {alpha: [] for alpha in targets}
    for n in range(2, 13):
        dist = kmin_distribution(ens, n)
        for alpha, limit in targets.items():
            empirical = math.log(kmin_moment_exact(ens, n, alpha, dist=dist)) / n
            gaps[alpha].append(abs(empirical - limit))
    for alpha, series in gaps.items():
        for prev, nxt in zip(series, series[1:]):
            assert nxt < prev + 1e-12, f"alpha={alpha}: gap not decreasing"
    # frozen n=12 gaps: positive-order convergence is log(n)/n slow, so the
    # asymptote is still far away here (see the large-n test below)
    assert gaps[1.0][-1] == pytest.approx(0.22356273703412716, abs=1e-12)
    assert gaps[-0.5][-1] == pytest.approx(0.06654826769554786, abs=1e-12)


def _min_of_two_exponent(source, n: int) -> float:
    """n^-1 log E min(G1, G2) for iid users, by blockwise survival sums.

    E min = sum_t P(G > t)^2 with P(G > t) piecewise linear in t, so each
    constant-pmf run contributes a closed-form quadratic sum.  Runs come
    from a difference array over the type-class law's blocks (correctness
    covered by the small-n brute force above), so n far beyond the
    expandable rank range is reachable.  Per-rank probabilities span
    ~1e-80 here; they enter mpmath exactly from integer numerators over
    2^shift because any float rounding of the running survival leaves
    noise floors that the huge tail runs amplify.
    """
    dist = guesswork_distribution(source, n)
    shift = max(-b.joint_level.e for law in dist.laws for b in law.blocks if b.joint_level)
    steps = defaultdict(int, {1: 0, dist.total_sequences + 1: 0})
    for law in dist.laws:
        for block in law.blocks:
            level = block.joint_level
            if level:
                q = (law.y_sequences * level.m) << (shift + level.e)
                steps[block.start] += q
                steps[block.start + block.count] -= q
    bounds = sorted(steps)
    with mpmath.workdps(30):
        survival = mpmath.mpf(1)
        total = mpmath.mpf(1)  # the t=0 term
        numerator = 0
        for start, stop in zip(bounds, bounds[1:]):
            numerator += steps[start]
            length = mpmath.mpf(stop - start)
            q = mpmath.ldexp(mpmath.mpf(numerator), -shift)
            total += (
                length * survival**2
                - q * survival * length * (length + 1)
                + q**2 * length * (length + 1) * (2 * length + 1) / 6
            )
            survival -= q * length
        return float(mpmath.log(total)) / n


def test_bsc_min_of_two_limit_reached_at_large_n(bsc01):
    # cross-check the blockwise evaluator against the exact library moment
    ens = UserEnsemble(users=(bsc01, bsc01), k=1)
    lib = math.log(kmin_moment_exact(ens, 10, 1.0)) / 10
    assert _min_of_two_exponent(bsc01, 10) == pytest.approx(lib, rel=1e-12)
    # the n=12 gap of ~0.224 keeps shrinking toward zero well beyond the
    # expandable range, confirming the limit value
    gaps = [
        abs(_min_of_two_exponent(bsc01, n) - H_TWO_THIRDS_BSC) for n in (20, 40, 80)
    ]
    assert gaps[0] == pytest.approx(0.155210, abs=1e-3)
    assert gaps[1] == pytest.approx(0.091476, abs=1e-3)
    assert gaps[2] == pytest.approx(0.053253, abs=1e-3)
    assert gaps[2] < gaps[1] < gaps[0]


def test_min_of_two_gap_falls_below_005_at_n87(bsc01):
    """Criterion 7c's limit gap H_{2/3}(X|Y) - n^-1 log E min(G1, G2), from the library's own k-min law."""
    ens = UserEnsemble(users=(bsc01, bsc01), k=1)
    gaps = [H_TWO_THIRDS_BSC - kmin_distribution(ens, n).scgf_empirical(1.0) for n in (86, 87)]
    assert gaps[0] > 0.05 > gaps[1]
    assert gaps == pytest.approx([0.050294, 0.049836], abs=1e-6)


# ---------------------------------------------------------------------------
# rate functions
# ---------------------------------------------------------------------------


def test_rate_parallel_single_user(bsc01):
    ens = UserEnsemble(users=(bsc01,), k=1)
    rf = RateFunction.from_source(bsc01)
    for x in np.linspace(0.0, math.log(2.0), 15):
        assert rate_parallel(ens, float(x)) == pytest.approx(rf(float(x)), abs=1e-12)


def test_rate_parallel_identical_users_matches_iid(bsc01, uniform_binary):
    for src, k, m in [(bsc01, 1, 2), (bsc01, 2, 3), (uniform_binary, 1, 2)]:
        ens = UserEnsemble(users=(src,) * m, k=k)
        for x in np.linspace(0.0, src.log_x_size, 50):
            x = float(x)
            assert rate_parallel(ens, x) == pytest.approx(
                rate_parallel_iid(src, k, m, x), abs=1e-12
            )


def test_rate_parallel_two_distinct_users_brute_force(uniform_binary, bsc01):
    ens = UserEnsemble(users=(uniform_binary, bsc01), k=1)
    rfs = [RateFunction.from_source(u) for u in (uniform_binary, bsc01)]
    shannons = [conditional_shannon(u) for u in (uniform_binary, bsc01)]
    for x in np.linspace(0.0, math.log(2.0), 21):
        x = float(x)
        rates = [rf(x) for rf in rfs]
        gams = [r if x >= h else 0.0 for r, h in zip(rates, shannons)]
        want = min(rates[0] + gams[1], rates[1] + gams[0])
        got = rate_parallel(ens, x)
        assert got == pytest.approx(want, abs=1e-15)
        assert got >= min(rates) - 1e-12


def test_rate_parallel_iid_piecewise(bsc01, uniform_binary):
    rf = RateFunction.from_source(bsc01)
    h = conditional_shannon(bsc01)
    for x in (0.05, h / 2, h - 0.01):
        assert rate_parallel_iid(bsc01, 2, 3, x) == pytest.approx(2 * rf(x), abs=1e-12)
    for x in (h + 0.01, (h + math.log(2.0)) / 2):
        # m-k+1 = 2 as well: same coefficient on both sides of H
        assert rate_parallel_iid(bsc01, 2, 3, x) == pytest.approx(2 * rf(x), abs=1e-12)
    assert rate_parallel_iid(bsc01, 2, 3, h) <= 1e-9
    assert rate_parallel_iid(bsc01, 2, 3, h - 0.05) > 1e-4
    assert rate_parallel_iid(bsc01, 2, 3, h + 0.05) > 1e-4
    # uniform binary: H = ln 2 is the domain end, so k=1 gives bare Lambda*
    rfu = RateFunction.from_source(uniform_binary)
    for x in np.linspace(0.0, math.log(2.0), 10):
        x = float(x)
        assert rate_parallel_iid(uniform_binary, 1, 2, x) == pytest.approx(
            rfu(x), abs=1e-12
        )


def test_rate_parallel_domain_errors(bsc01):
    ens = UserEnsemble(users=(bsc01, bsc01), k=1)
    with pytest.raises(DomainError):
        rate_parallel(ens, -0.1)
    with pytest.raises(DomainError):
        rate_parallel_iid(bsc01, 1, 2, -0.1)
    with pytest.raises(EnsembleError):
        rate_parallel_iid(bsc01, 0, 2, 0.1)
    with pytest.raises(EnsembleError):
        rate_parallel_iid(bsc01, 3, 2, 0.1)


def _min_over_permutations(users, k: int, x: float) -> float:
    """I_{k,m}(x) as the cheapest of all m! assignments of users to roles."""
    rates = [RateFunction.from_source(u)(x) for u in users]
    shannons = [conditional_shannon(u) for u in users]
    delta = [r if x <= h else 0.0 for r, h in zip(rates, shannons)]
    gam = [r if x >= h else 0.0 for r, h in zip(rates, shannons)]
    best = math.inf
    for perm in permutations(range(len(users))):
        value = rates[perm[0]]
        value += sum(delta[i] for i in perm[1:k]) + sum(gam[i] for i in perm[k:])
        best = min(best, value)
    return best


def test_rate_parallel_selection_matches_permutation_brute_force(
    bsc01, skew22, uniform_binary, noiseless, independent, corpus
):
    binary = [bsc01, skew22, uniform_binary, noiseless, independent]
    binary += [src for src in corpus if src.x_alphabet.size == 2]
    xs = np.linspace(0.0, math.log(2.0), 12)
    for m in range(2, 8):
        users = tuple(binary[:m])
        for k in sorted({1, (m + 1) // 2, m}):
            got = rate_parallel(UserEnsemble(users, k), xs)
            want = [_min_over_permutations(users, k, float(x)) for x in xs]
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    # twelve users: 12! assignments are out of reach, the selection is not.
    # (The noiseless user is left out: it pins every k-min rank at 1.)
    users = tuple(([u for u in binary if u is not noiseless] * 2)[:12])
    for k in (1, 6, 12):
        ens = UserEnsemble(users, k)
        assert np.all(np.isfinite(rate_parallel(ens, xs[:-1])))


def test_heterogeneous_rate_finite_and_dominates_components(uniform_binary, skew22):
    ens = UserEnsemble(users=(uniform_binary, skew22), k=1)
    rfs = [RateFunction.from_source(u) for u in ens.users]
    xs = np.linspace(0.0, math.log(2.0) - 1e-9, 40)
    values = [rate_parallel(ens, float(x)) for x in xs]
    assert all(math.isfinite(v) for v in values)
    h_min = min(conditional_shannon(u) for u in ens.users)
    for x, v in zip(xs, values):
        rates = [rf(float(x)) for rf in rfs]
        assert min(rates) - 1e-12 <= v <= sum(rates) + 1e-12
        if x < h_min:
            # P(min_i G_i <= e^(nx)) >= max_i P(G_i <= e^(nx))
            assert v == min(rates)
    # convexity probe: a violation would witness the non-convex regime, but
    # its absence on this particular pair is inconclusive, not a failure
    second_diffs = np.diff(values, 2)
    assert np.all(np.isfinite(second_diffs))


# ---------------------------------------------------------------------------
# SCGFs
# ---------------------------------------------------------------------------


def test_scgf_parallel_single_user_matches_scgf_limit(bsc01):
    ens = UserEnsemble(users=(bsc01,), k=1)
    for alpha in (-2.0, -0.9, -0.5, 0.0, 0.5, 1.0, 2.0):
        assert scgf_parallel(ens, alpha) == scgf_limit(bsc01, alpha)


def test_scgf_parallel_identical_users_matches_iid(bsc01):
    for k, m in [(1, 2), (2, 2), (2, 3), (1, 9)]:
        ens = UserEnsemble(users=(bsc01,) * m, k=k)
        for alpha in (-1.5, -0.5, 0.5, 1.0, 2.0):
            assert scgf_parallel(ens, alpha) == pytest.approx(
                scgf_parallel_iid(bsc01, k, m, alpha), abs=1e-13
            )


@pytest.mark.parametrize("m, k", [(2, 1), (3, 2), (3, 1), (4, 2), (9, 1), (13, 1), (13, 13)])
def test_scgf_parallel_matches_iid_closed_forms(bsc01, skew22, m, k):
    for src in (bsc01, skew22):
        ens = UserEnsemble(users=(src,) * m, k=k)
        for alpha in (-2.0, -1.2, -0.5, -0.1, 0.3, 1.0, 2.5, 5.0):
            assert abs(scgf_parallel(ens, alpha) - scgf_parallel_iid(src, k, m, alpha)) <= 1e-13


def scgf_parallel_oracle(users, k: int, alpha: float) -> float:
    """Lambda_{k,m}(alpha) as the best over all role permutations of sup_x [alpha x - I_a(x)].

    Each assignment is maximised on its own, by golden section over [0, x_a]
    with both ends also tried, x_a the least x_sup of the leader and the
    users above; I_a adds up the users' ``RateFunction`` values where their
    roles cost something.
    """
    rfs = [RateFunction.from_source(u) for u in users]
    shannons = [conditional_shannon(u) for u in users]
    best = -math.inf
    for lead, *below in {perm[:k] for perm in permutations(range(len(users)))}:
        above = [j for j in range(len(users)) if j != lead and j not in below]

        def gain(x: float) -> float:
            paying = [lead] + [j for j in below if x <= shannons[j]] + [j for j in above if x >= shannons[j]]
            return alpha * x - sum(rfs[j](x) for j in paying)

        top = min(rfs[j].x_sup for j in [lead] + above)
        best = max(best, gain(0.0), gain(top), golden_max(gain, 0.0, top))
    return best


def test_scgf_parallel_matches_assignment_oracle(bsc01, skew22):
    lat22 = make_source(["0", "1"], ["0", "1"], [[0.5, 0.1], [0.15, 0.25]])
    for src in (bsc01, skew22, lat22):
        for x in np.linspace(0.0, src.log_x_size, 9):
            assert abs(RateFunction.from_source(src)(float(x)) - rate_golden(src, float(x))) <= 1e-12
    for users, k in [((bsc01, skew22), 1), ((bsc01, skew22, lat22), 1), ((bsc01, skew22, lat22), 2)]:
        ens = UserEnsemble(users=users, k=k)
        for alpha in (-1.5, -0.5, 0.5, 1.0, 3.0):
            assert abs(scgf_parallel(ens, alpha) - scgf_parallel_oracle(users, k, alpha)) <= 1e-12


def test_scgf_parallel_zero_alpha(bsc01):
    ens = UserEnsemble(users=(bsc01, bsc01), k=1)
    assert abs(scgf_parallel(ens, 0.0)) <= 1e-15


def test_scgf_parallel_caps_the_assignment_count(bsc01):
    # 13 * C(12, 5) = 10,296 assignments, past the 5,544 of 12 users with k = 6
    with pytest.raises(EnsembleError):
        scgf_parallel(UserEnsemble(users=(bsc01,) * 13, k=6), 1.0)


def test_scgf_parallel_takes_many_users_with_few_assignments():
    # k = 1 has m assignments, so the cap leaves any m (13 identical users,
    # at k = 1 and k = m, are among the iid closed-form cases)
    users = [make_source(["0", "1"], ["0", "1"], [[0.45 - 0.025 * i, 0.05 + 0.025 * i], [0.1, 0.4]])
             for i in range(13)]
    ens = UserEnsemble(users=users, k=1)
    # the minimum of the ranks is below each of them
    for alpha in (-1.5, -0.5, 0.5, 2.0):
        value = scgf_parallel(ens, alpha)
        singles = [scgf_limit(u, alpha) for u in users]
        assert value <= min(singles) + 1e-13 if alpha > 0.0 else value >= max(singles) - 1e-13


def test_scgf_parallel_domain_errors(bsc01):
    ens = UserEnsemble(users=(bsc01, bsc01), k=1)
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            scgf_parallel(ens, alpha)


def test_scgf_parallel_iid_closed_forms(bsc01, uniform_binary):
    for alpha in (-2.0, -0.5, 0.0, 1.0, 3.0):
        assert scgf_parallel_iid(bsc01, 1, 1, alpha) == scgf_limit(bsc01, alpha)
    assert scgf_parallel_iid(bsc01, 1, 2, 1.0) == pytest.approx(
        2.0 * scgf_limit(bsc01, 0.5), rel=1e-12
    )
    assert scgf_parallel_iid(bsc01, 1, 2, 1.0) == pytest.approx(
        H_TWO_THIRDS_BSC, abs=1e-12
    )
    # uniform binary has a linear SCGF, so the rescalings cancel
    for k, m in [(1, 2), (2, 3), (3, 3)]:
        for alpha in (0.25, 1.0, 2.5):
            assert scgf_parallel_iid(uniform_binary, k, m, alpha) == pytest.approx(
                alpha * math.log(2.0), rel=1e-12
            )
    assert scgf_parallel_iid(uniform_binary, 2, 3, 0.0) == 0.0
    with pytest.raises(EnsembleError):
        scgf_parallel_iid(bsc01, 3, 2, 1.0)


def test_scgf_parallel_iid_order_identity(bsc01, skew22):
    # Lambda_{k,m}(1) equals the Arimoto entropy of order s/(s+1), s = m-k+1
    for src in (bsc01, skew22):
        for k, m in [(1, 2), (2, 3), (1, 3), (2, 2)]:
            s = m - k + 1
            want = conditional_renyi_arimoto(src, s / (s + 1))
            assert scgf_parallel_iid(src, k, m, 1.0) == pytest.approx(want, rel=1e-10)


def test_scgf_parallel_iid_derivative_at_zero(bsc01):
    h = 1e-5
    shannon = conditional_shannon(bsc01)
    for k, m in [(1, 2), (2, 3)]:
        diff = (
            scgf_parallel_iid(bsc01, k, m, h) - scgf_parallel_iid(bsc01, k, m, -h)
        ) / (2 * h)
        assert diff == pytest.approx(shannon, abs=1e-6)
