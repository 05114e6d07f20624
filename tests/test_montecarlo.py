"""Tests for seeded Monte Carlo estimation against exact finite-n oracles.

Every statistical check uses a frozen seed, so outcomes are deterministic;
targets come from closed forms or from the exact type-class law, never from
the sampler itself.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guesslab import guesswork as guesswork_module
from guesslab import (
    SampleError,
    SampleReport,
    estimate_log_guesswork_rate,
    estimate_moment,
    guesswork_distribution,
    moment_exact,
)
from guesslab.montecarlo import MIN_SAMPLES, _sample_ranks

import _oracle

# n^-1 E log R for R uniform on 1..2^32, i.e. lgamma(2^32 + 1) / 2^32 / 32
UNIFORM_LOG_RATE_N32 = 0.6618971806473244


def exact_log_rate(source, n: int) -> float:
    """n^-1 E log G from the exact law, blockwise via log-factorial sums."""
    dist = guesswork_distribution(source, n)
    total = 0.0
    for law in dist.laws:
        for block in law.blocks:
            if block.joint_level.is_zero():
                continue
            weight = law.y_sequences * block.joint_level.to_float()
            total += weight * (
                math.lgamma(block.start + block.count) - math.lgamma(block.start)
            )
    return total / n


def test_reports_are_reproducible(bsc01):
    a = estimate_moment(bsc01, 6, 1.0, 500, seed=42)
    b = estimate_moment(bsc01, 6, 1.0, 500, seed=42)
    assert a == b
    assert isinstance(a, SampleReport)
    assert (a.n, a.samples, a.seed) == (6, 500, 42)
    c = estimate_moment(bsc01, 6, 1.0, 500, seed=43)
    assert c.estimate != a.estimate
    d = estimate_log_guesswork_rate(bsc01, 6, 500, seed=42)
    assert d == estimate_log_guesswork_rate(bsc01, 6, 500, seed=42)


def test_noiseless_channel_is_exact(noiseless):
    rate = estimate_log_guesswork_rate(noiseless, 7, 300, seed=0)
    assert rate.estimate == 0.0
    assert rate.std_error == 0.0
    mom = estimate_moment(noiseless, 7, 2.0, 300, seed=0)
    assert mom.estimate == 1.0
    assert mom.std_error == 0.0


def test_uniform_log_rate_matches_lgamma_value(uniform_binary):
    n = 32
    exact = math.lgamma(2.0**n + 1) / 2.0**n / n
    assert exact == pytest.approx(UNIFORM_LOG_RATE_N32, abs=1e-15)
    report = estimate_log_guesswork_rate(uniform_binary, n, 10_000, seed=11)
    assert report.std_error > 0.0
    assert abs(report.estimate - exact) <= 3 * report.std_error


def test_bsc_log_rate_matches_exact_law(bsc01):
    # the finite-n mean of log G sits well below the n->infinity limit
    # H(X|Y) ~ 0.3251 (exact value ~0.2465 at n=32), so the target must be
    # the exact finite-n expectation, not the limit
    n = 32
    exact = exact_log_rate(bsc01, n)
    assert exact == pytest.approx(0.246536677035858, abs=1e-12)
    report = estimate_log_guesswork_rate(bsc01, n, 10_000, seed=11)
    assert abs(report.estimate - exact) <= 3 * report.std_error


def test_uniform_first_moment(uniform_binary):
    report = estimate_moment(uniform_binary, 10, 1.0, 100_000, seed=7)
    assert abs(report.estimate - 512.5) <= 3 * report.std_error


def test_bsc_negative_moment_vs_exact(bsc01):
    exact = moment_exact(bsc01, 8, -0.5)
    report = estimate_moment(bsc01, 8, -0.5, 10_000, seed=3)
    assert abs(report.estimate - exact) <= 3 * report.std_error


def test_rank_one_frequency(skew22):
    # P(G = 1) = sum_y max_x p(x, y) = 0.8 at n=1
    report = estimate_moment(skew22, 1, -4.0, 10_000, seed=5)
    # G^-4 concentrates nearly all mass on rank 1: E G^-4 = 0.8 + 0.2/16
    assert abs(report.estimate - 0.8125) <= 5 * report.std_error


def test_sampling_domain_errors(bsc01):
    with pytest.raises(SampleError):
        estimate_moment(bsc01, 4, 1.0, 99, seed=0)
    with pytest.raises(SampleError):
        estimate_log_guesswork_rate(bsc01, 0, 500, seed=0)
    with pytest.raises(SampleError):
        estimate_moment(bsc01, 4, 4.5, 500, seed=0)
    with pytest.raises(SampleError):
        estimate_moment(bsc01, 4, -4.5, 500, seed=0)
    with pytest.raises(SampleError):
        estimate_moment(bsc01, 4, math.nan, 500, seed=0)
    # Philox keys are 128-bit unsigned integers
    with pytest.raises(SampleError):
        estimate_log_guesswork_rate(bsc01, 4, 500, seed=-1)
    with pytest.raises(SampleError):
        estimate_moment(bsc01, 4, 1.0, 500, seed=2**128)
    # the boundary order is allowed
    report = estimate_moment(bsc01, 4, 4.0, 500, seed=0)
    assert math.isfinite(report.estimate)


def test_non_finite_estimates_are_errors(uniform_binary, bsc01):
    # G^4 reaches 2^1200 at n = 300 and e^1109 at n = 400: past the float range
    with pytest.raises(SampleError, match="overflows"):
        estimate_moment(uniform_binary, 300, 4.0, 100, seed=5)
    with pytest.raises(SampleError, match="overflows"):
        estimate_moment(bsc01, 400, 4.0, 100, seed=5)


def test_two_sigma_calibration_coverage(uniform_binary):
    covered = 0
    for seed in range(50):
        report = estimate_moment(uniform_binary, 10, 1.0, 2_000, seed=seed)
        if abs(report.estimate - 512.5) <= 2 * report.std_error:
            covered += 1
    assert covered >= 43


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 3).flatmap(lambda x_size: _oracle.lattice_sources(x_size=x_size)), st.integers(1, 6),
       st.integers(0, 2**32))
def check_sample_ranks_like_naive(source, n, seed):
    ranks, inverse = _sample_ranks(source, n, MIN_SAMPLES, seed)
    # sample i is the pairs of row i of the seed's uniform matrix, each cell a flat (x, y) index
    cumulative = np.cumsum(source.joint.ravel())
    cumulative[-1] = 1.0
    uniforms = np.random.Generator(np.random.Philox(key=seed)).random((MIN_SAMPLES, n))
    y_size = source.y_alphabet.size
    naive = {}
    for row, i in zip(np.searchsorted(cumulative, uniforms, side="right").tolist(), inverse.tolist()):
        pairs = tuple(row)
        if pairs not in naive:
            naive[pairs] = _oracle.naive_rank(source, [c // y_size for c in row], [c % y_size for c in row])
        assert ranks[i] == naive[pairs]
    # each distinct rank once, ascending
    assert ranks == sorted(set(naive.values()))


def test_sample_ranks_match_naive_rank():
    check_sample_ranks_like_naive()


def test_sample_ranks_match_naive_rank_under_eviction(monkeypatch):
    monkeypatch.setattr(guesswork_module, "MAX_RANK_TABLE_ENTRIES", 8)
    check_sample_ranks_like_naive()
