"""Acceptance gate: the eight headline guarantees, timed and reported.

Each criterion prints one ``[PASS]``/``[FAIL]`` line carrying the measured
extreme (worst gap, coverage count, elapsed time) so a log scan shows which
guarantee held and by how much.  Tolerances here are contractual: they are
asserted exactly as stated and must not be loosened to make a run green.

Criterion 7c does not ask the order-1 growth rate e_n = n^-1 log E min(G1, G2)
of two identical users to have reached its n -> oo limit T = H_{2/3}(X|Y) at
n <= 12: that gap decays like log(n)/n, is 0.2236 nats at n = 12 and first
drops below 0.05 at n = 87 (see the large-n cross-check in test_parallel.py).
Instead it asserts the finite-n sandwich that Arikan's guessing inequality
(IEEE T-IT 42(1), 1996) proves at every n, built from the single-user rate
h_n = (2/n) log E G^(1/2) and L_n = 1 + n ln|X|:

  e_n <= h_n                       min(a, b) <= sqrt(ab), users independent;
  h_n <= T                         Arikan's upper bound at rho = 1/2;
  e_n >= h_n - log(1 + L_n/4)/n    Cauchy-Schwarz on E G^(1/2) written as
                                   sum_t (sqrt t - sqrt(t-1)) P(G >= t);
  h_n >= T - log(L_n)/n            Arikan's lower bound.

Together they give 0 <= T - e_n <= [log L_n + log(1 + L_n/4)]/n -> 0.
"""

from __future__ import annotations

import math
import time

import numpy as np

from _oracle import assert_matches_naive, naive_rank
from guesslab.entropy import (
    conditional_min_entropy,
    conditional_renyi_arimoto,
    conditional_shannon,
)
from guesslab.guesswork import (
    guess_rank,
    guesswork_distribution,
    moment_bounds,
    plateau_window,
    scgf_empirical,
)
from guesslab.ldp import RateFunction, empirical_exponent
from guesslab.montecarlo import estimate_moment
from guesslab.parallel import (
    UserEnsemble,
    kmin_distribution,
    kmin_moment_exact,
    rate_parallel,
    rate_parallel_iid,
)

LN2 = math.log(2.0)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_acceptance_1_exact_law_equals_naive_enumeration(corpus):
    """All 20 corpus sources, every n <= 6: block law and ranks integer-exact."""
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    laws = ranks = 0
    for src in corpus:
        for n in range(1, 7):
            dist = guesswork_distribution(src, n)
            assert_matches_naive(src, dist, n)
            laws += sum(len(law.y_types) for law in dist.laws)
            for _ in range(3):
                xs = [int(v) for v in rng.integers(0, src.x_alphabet.size, n)]
                ys = [int(v) for v in rng.integers(0, src.y_alphabet.size, n)]
                x_seq = [src.x_alphabet.symbols[i] for i in xs]
                y_seq = [src.y_alphabet.symbols[j] for j in ys]
                assert guess_rank(src, x_seq, y_seq) == naive_rank(src, xs, ys)
                ranks += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    _report(
        "criterion 1 (oracle equivalence)",
        ok,
        f"{laws} y-type laws and {ranks} spot ranks integer-exact in {elapsed:.1f}s",
    )
    assert ok


def test_acceptance_2_moment_bounds_sandwich(corpus):
    """lower <= E G^alpha <= upper on the corpus, n <= 8, three negative orders."""
    worst = -math.inf
    checks = 0
    for src in corpus:
        for n in range(1, 9):
            dist = guesswork_distribution(src, n)
            for alpha in (-0.9, -0.5, -0.1):
                exact = dist.moment(alpha)
                lower, upper = moment_bounds(src, n, alpha)
                assert lower - 1e-12 <= exact <= upper + 1e-12
                worst = max(worst, lower - exact, exact - upper)
                checks += 1
    ok = worst <= 1e-12
    _report(
        "criterion 2 (moment sandwich)",
        ok,
        f"{checks} checks, worst excursion outside the bounds {worst:.3e}",
    )
    assert ok


def test_acceptance_3_scgf_empirical_converges(bsc01):
    """n^-1 log E G^-0.5 tracks -0.5 H_2(X|Y) inside a log(n)/n envelope."""
    target = -0.5 * conditional_renyi_arimoto(bsc01, 2.0)
    worst_slack = math.inf
    final_gap = math.nan
    for n in range(2, 15):
        gap = abs(scgf_empirical(bsc01, n, -0.5) - target)
        envelope = 0.5 * math.log(1.0 + n * LN2) / n
        assert gap <= envelope, f"n={n}: gap {gap:.6f} exceeds envelope {envelope:.6f}"
        worst_slack = min(worst_slack, envelope - gap)
        if n == 14:
            final_gap = gap
    ok = final_gap <= 0.05
    _report(
        "criterion 3 (negative-order convergence)",
        ok,
        f"gap at n=14 is {final_gap:.4f} nats, min envelope slack {worst_slack:.4f}",
    )
    assert ok


def test_acceptance_4_min_entropy_plateau_window(corpus):
    """For alpha <= -1 the growth rate sits in the P(G=1)-anchored window."""
    worst_anchor = 0.0
    worst_window = -math.inf
    for src in corpus:
        h_inf = conditional_min_entropy(src)
        for n in range(1, 9):
            lo, hi = plateau_window(src, n)
            worst_anchor = max(worst_anchor, abs(lo + h_inf))
            assert abs(lo + h_inf) <= 1e-10
            dist = guesswork_distribution(src, n)
            for alpha in (-1.0, -2.0, -5.0):
                value = dist.log_moment(alpha) / n
                assert lo - 1e-12 <= value <= hi + 1e-12
                worst_window = max(worst_window, lo - value, value - hi)
    ok = worst_anchor <= 1e-10 and worst_window <= 1e-12
    _report(
        "criterion 4 (min-entropy plateau)",
        ok,
        f"anchor error {worst_anchor:.2e}, worst window excursion {worst_window:.2e}",
    )
    assert ok


def test_acceptance_5_rate_function_closed_segment(bsc01, uniform_binary):
    """Linear segment, zero at Shannon entropy, +inf past log|X|."""
    start = time.perf_counter()
    worst = 0.0
    for src in (bsc01, uniform_binary):
        rate = RateFunction.from_source(src)
        for x in np.linspace(0.0, rate.gamma, 50):
            worst = max(worst, abs(rate(float(x)) - (rate.h_inf - float(x))))
        assert worst <= 1e-6
        assert abs(rate(conditional_shannon(src))) <= 1e-9
        assert math.isinf(rate(src.log_x_size + 0.01))
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    _report(
        "criterion 5 (rate-function segment)",
        ok,
        f"worst linear-segment error {worst:.2e}, elapsed {elapsed:.2f}s",
    )
    assert ok


def test_acceptance_6_empirical_ldp_window(uniform_binary):
    """Windowed rank-count exponents approach the rate over the closed ball."""
    start = time.perf_counter()
    limit = LN2 - 0.35  # inf of (ln 2 - u) over the closed ball around 0.3
    worst_slack = math.inf
    for n in (8, 12, 16, 20):
        emp = empirical_exponent(uniform_binary, 0.3, 0.05, n)
        bound = 2 * 0.05 + 3 * math.log(n + 1.0) / n
        gap = abs(emp - limit)
        assert gap <= bound, f"n={n}: gap {gap:.6f} exceeds bound {bound:.6f}"
        worst_slack = min(worst_slack, bound - gap)
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    _report(
        "criterion 6 (empirical exponents)",
        ok,
        f"min bound slack {worst_slack:.4f} nats, elapsed {elapsed:.2f}s",
    )
    assert ok


def test_acceptance_7_parallel_identities(bsc01, corpus):
    """Single-user reduction, iid rate identity, and the k-min finite-n sandwich.

    (c) checks, for two identical users and every n = 2..12, Arikan's (1996)
    finite-n bounds chained through h_n = (2/n) log E G^(1/2):
    h_n - log(1 + L_n/4)/n <= e_n <= h_n and T - log(L_n)/n <= h_n <= T,
    hence T - env_n <= e_n <= T with env_n = [log L_n + log(1 + L_n/4)]/n.
    """
    start = time.perf_counter()

    # (a) one user, k = 1: the combined law is the single-user law, bit for bit
    for src, n in ((bsc01, 8), (corpus[0], 5)):
        single = guesswork_distribution(src, n)
        combined = kmin_distribution(UserEnsemble((src,), 1), n)
        assert combined.laws == single.laws
        assert combined.n == single.n and combined.x_size == single.x_size
        for alpha in (-2.0, -0.5, 1.0, 2.0):
            assert combined.moment(alpha) == single.moment(alpha)
    _report("criterion 7a (single-user reduction)", True, "laws and moments identical")

    # (b) identical users: the general rate equals the replicated closed form
    worst_b = 0.0
    for k, m in ((1, 2), (2, 3)):
        ensemble = UserEnsemble((bsc01,) * m, k)
        for x in np.linspace(0.0, bsc01.log_x_size, 50):
            general = rate_parallel(ensemble, float(x))
            closed = rate_parallel_iid(bsc01, k, m, float(x))
            worst_b = max(worst_b, abs(general - closed))
    ok_b = worst_b <= 1e-12
    _report(
        "criterion 7b (identical-user rate identity)",
        ok_b,
        f"worst |general - iid| = {worst_b:.2e} over two (k, m) grids",
    )
    assert ok_b

    # (c) min of two: the finite-n sandwich T - env_n <= e_n <= h_n <= T
    ensemble = UserEnsemble((bsc01, bsc01), 1)
    target = 2.0 * 0.5 * conditional_renyi_arimoto(bsc01, 2.0 / 3.0)
    gaps = []
    slacks = []
    for n in range(2, 13):
        dist = kmin_distribution(ensemble, n)
        e_n = dist.log_moment(1.0) / n
        h_n = 2.0 * guesswork_distribution(bsc01, n).log_moment(0.5) / n
        l_n = 1.0 + n * bsc01.log_x_size
        arikan = math.log(l_n) / n
        cauchy = math.log(1.0 + l_n / 4.0) / n
        env = arikan + cauchy
        assert e_n <= h_n + 1e-12, f"n={n}: E min exceeds (E G^1/2)^2"
        assert h_n <= target + 1e-12, f"n={n}: Arikan upper bound violated"
        assert e_n >= h_n - cauchy - 1e-12, f"n={n}: Cauchy-Schwarz link violated"
        assert h_n >= target - arikan - 1e-12, f"n={n}: Arikan lower bound violated"
        assert e_n >= target - env - 1e-12, f"n={n}: gap exceeds env_n {env:.6f}"
        gaps.append(target - e_n)
        slacks.append(env - gaps[-1])
    for prev, nxt in zip(gaps, gaps[1:]):
        assert nxt < prev + 1e-12, "gap must decrease with n"
    final = math.log(kmin_moment_exact(ensemble, 12, 1.0, dist=dist)) / 12 - target
    assert abs(final + gaps[-1]) <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 7 exceeded 60s: {elapsed:.1f}s"

    ok_c = min(slacks) >= -1e-12
    _report(
        "criterion 7c (k-min finite-n sandwich)",
        ok_c,
        f"gap at n=12 is {gaps[-1]:.4f} nats, env_n = {env:.4f}, slack "
        f"{slacks[-1]:.4f}; the gap decreases ({gaps[0]:.4f} -> {gaps[-1]:.4f}) "
        f"and the smallest slack over n=2..12 is {min(slacks):.4f} nats",
    )
    assert ok_c


def test_acceptance_8_monte_carlo_calibration(uniform_binary):
    """Seeded estimator covers E G = 512.5 within 3 standard errors."""
    start = time.perf_counter()
    exact = (2**10 + 1) / 2
    nominal = estimate_moment(uniform_binary, 10, 1.0, 100_000, 0)
    assert abs(nominal.estimate - exact) <= 3.0 * nominal.std_error

    hits = 0
    for seed in range(50):
        report = estimate_moment(uniform_binary, 10, 1.0, 100_000, seed)
        if abs(report.estimate - exact) <= 3.0 * report.std_error:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 43 and elapsed < 30.0
    _report(
        "criterion 8 (Monte Carlo calibration)",
        ok,
        f"3-sigma coverage {hits}/50, elapsed {elapsed:.1f}s",
    )
    assert ok
