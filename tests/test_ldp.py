"""SCGF limit, gamma, Legendre-transform rate function, finite-n exponents."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guesslab.entropy import (
    conditional_min_entropy,
    conditional_renyi_arimoto,
    conditional_shannon,
)
from guesslab.guesswork import guesswork_distribution
from guesslab.ldp import (
    DomainError,
    RateFunction,
    empirical_exponent,
    gamma,
    rate_function,
    scgf_derivative,
    scgf_limit,
)
from guesslab.model import make_source

from _oracle import exact_columns, gamma_closed_form, lattice_sources, mp_rate, rate_endpoint, rate_golden


def test_scgf_plateau_and_values(bsc01, uniform_binary):
    h_inf = conditional_min_entropy(bsc01)
    for alpha in (-1.0, -1.5, -2.0, -10.0):
        assert scgf_limit(bsc01, alpha) == pytest.approx(-h_inf, abs=1e-12)
    assert scgf_limit(bsc01, 1.0) == pytest.approx(math.log(1.6), rel=1e-14)
    assert scgf_limit(bsc01, 0.0) == 0.0
    for alpha in (-0.5, 0.5, 1.0, 3.0):
        assert scgf_limit(uniform_binary, alpha) == pytest.approx(alpha * math.log(2.0), rel=1e-13, abs=0)
    assert scgf_limit(uniform_binary, -2.0) == pytest.approx(-math.log(2.0), rel=1e-13, abs=0)


def test_scgf_continuous_at_plateau_edge(bsc01, skew22):
    for src in (bsc01, skew22):
        plateau = scgf_limit(src, -1.0)
        assert scgf_limit(src, -1.0 + 1e-9) == pytest.approx(plateau, abs=1e-6)


def test_scgf_identity_alpha_one(bsc01, skew22, corpus):
    # Lambda(1) equals the Arimoto entropy of order 1/2
    for src in [bsc01, skew22] + corpus[:5]:
        assert scgf_limit(src, 1.0) == pytest.approx(
            conditional_renyi_arimoto(src, 0.5), rel=1e-12, abs=1e-12
        )


def test_scgf_convexity_on_grid(bsc01, skew22, independent, corpus):
    grid = [-2.0 + 0.5 * k for k in range(13)]  # -2, -1.5, ..., 4
    for src in [bsc01, skew22, independent] + corpus:
        values = [scgf_limit(src, a) for a in grid]
        quotients = [
            (hi - lo) / 0.5 for lo, hi in zip(values, values[1:])
        ]
        for q0, q1 in zip(quotients, quotients[1:]):
            assert q1 >= q0 - 1e-9


def test_scgf_derivative_values(bsc01, uniform_binary, noiseless):
    assert scgf_derivative(bsc01, 0.0) == pytest.approx(conditional_shannon(bsc01), abs=1e-6)
    assert conditional_shannon(bsc01) == pytest.approx(0.325083, abs=5e-7)
    for alpha in (-0.5, 0.0, 1.0, 5.0):
        assert scgf_derivative(uniform_binary, alpha) == pytest.approx(math.log(2.0), abs=1e-7)
        assert scgf_derivative(noiseless, alpha) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(DomainError):
        scgf_derivative(bsc01, -1.0)


def test_scgf_derivative_monotone(bsc01):
    values = [scgf_derivative(bsc01, a) for a in (-0.9, -0.5, 0.0, 1.0, 3.0)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-9


def test_scgf_takes_an_array_of_orders_in_one_pass(bsc01, skew22, corpus):
    """An array of orders gives each order's scalar value bit for bit; a scalar gives a float."""
    alphas = np.array([-3.0, -1.0, -0.999, -0.5, -1e-9, 0.0, 1e-9, 0.5, 1.0, 7.5, 1e6])
    for src in (bsc01, skew22, *corpus[:6]):
        limits = scgf_limit(src, alphas)
        assert limits.tolist() == [scgf_limit(src, a) for a in alphas.tolist()]
        for alpha, limit in zip(alphas.tolist(), limits.tolist()):
            want = alpha * conditional_renyi_arimoto(src, 1.0 / (1.0 + alpha)) if alpha > -1.0 else -conditional_min_entropy(src)
            assert limit == pytest.approx(want, rel=1e-12, abs=1e-15)
        above = alphas[alphas > -1.0]
        assert scgf_derivative(src, above).tolist() == [scgf_derivative(src, a) for a in above.tolist()]
        assert scgf_limit(src, alphas.reshape(1, -1)).shape == (1, alphas.size)
    assert isinstance(scgf_limit(bsc01, 0.5), float) and isinstance(scgf_derivative(bsc01, 0.5), float)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="order must be finite"):
            scgf_limit(bsc01, [0.5, bad])
    with pytest.raises(DomainError, match="derivative undefined"):
        scgf_derivative(bsc01, [0.5, -1.0])


def test_gamma_fixture_values(uniform_binary, noiseless, bsc01, skew22):
    assert gamma(uniform_binary) == pytest.approx(math.log(2.0), abs=1e-5)
    assert gamma(noiseless) == pytest.approx(0.0, abs=1e-5)
    # unique column maxima force a zero slope limit at the plateau edge
    assert gamma(bsc01) == pytest.approx(0.0, abs=1e-4)
    want = 0.1 * math.log(2.0) / 0.8
    assert gamma_closed_form(skew22) == pytest.approx(want, rel=1e-12)
    assert gamma(skew22) == pytest.approx(want, abs=1e-5)


def test_gamma_matches_closed_form_on_corpus(corpus):
    for src in corpus:
        assert gamma(src) == pytest.approx(gamma_closed_form(src), abs=1e-12)
        assert 0.0 <= gamma(src) <= src.log_x_size + 1e-12


def test_rate_function_uniform_closed_form(uniform_binary):
    rf = RateFunction.from_source(uniform_binary)
    ln2 = math.log(2.0)
    for x in np.linspace(0.0, ln2, 50):
        assert rf(float(x)) == pytest.approx(ln2 - float(x), abs=1e-6)
    assert rf(ln2 + 0.01) == math.inf


def test_rate_function_zero_at_shannon(bsc01, skew22, independent):
    for src in (bsc01, skew22, independent):
        h = conditional_shannon(src)
        assert abs(rate_function(src, h)) <= 1e-9
        # strictly positive away from the zero
        for delta in (-0.05, 0.05):
            x = h + delta
            if 0.0 <= x <= src.log_x_size:
                assert rate_function(src, x) > 0.0


def test_rate_function_linear_segment(skew22):
    rf = RateFunction.from_source(skew22)
    h_inf = conditional_min_entropy(skew22)
    for x in np.linspace(0.0, rf.gamma, 50):
        assert rf(float(x)) == pytest.approx(h_inf - float(x), abs=1e-6)


def test_rate_function_domain_and_sentinel(bsc01):
    rf = RateFunction.from_source(bsc01)
    assert rf(math.log(2.0) + 0.01) == math.inf
    assert rf(5.0) == math.inf
    for x in (-0.1, math.nan, [0.1, math.nan]):
        with pytest.raises(DomainError):
            rf(x)
    assert math.isfinite(rf(0.0))
    assert rf(0.0) == pytest.approx(conditional_min_entropy(bsc01), abs=1e-9)


def test_first_order_condition_inside_strict_branch(bsc01, skew22):
    for src in (bsc01, skew22):
        rf = RateFunction.from_source(src)
        xs = np.linspace(rf.gamma + 0.05, 0.6, 8)
        values, args, _, _, _ = rf.conjugate(xs, np.full_like(xs, math.log(2.0)))
        assert values.tolist() == rf(xs).tolist()
        for x, value, arg in zip(xs, values, args):
            assert -1.0 < arg < math.inf
            assert scgf_derivative(src, arg) == pytest.approx(float(x), abs=1e-12)
            assert value == pytest.approx(arg * x - scgf_limit(src, arg), abs=1e-12)
            assert value >= -1e-12


def test_rate_function_matches_golden_section_reference(
    bsc01, skew22, noiseless, independent, uniform_binary, corpus
):
    fixtures = [bsc01, skew22, noiseless, independent, uniform_binary]
    for i, src in enumerate(fixtures + corpus):
        rf = RateFunction.from_source(src)
        grid = np.linspace(0.0, src.log_x_size, 300)
        got = rf(grid)
        want = rate_golden(src, grid)
        assert np.array_equal(np.isinf(got), np.isinf(want)), f"source {i}"
        finite = np.isfinite(want)
        assert np.max(np.abs(got[finite] - want[finite])) <= 1e-12, f"source {i}"
        if i < len(fixtures):
            # a point's value does not depend on the rest of the array
            assert [rf(float(x)) for x in grid] == got.tolist()


def test_rate_near_shannon_is_backward_stable(bsc01, skew22, corpus):
    # at x = H +- 10^-k, k = 1..8, Lambda*(x) = alpha x - Lambda(alpha) is off
    # from 50-digit mpmath by no more than the rounding of x itself moves it,
    # |alpha| ulp(x) per unit; points outside (gamma, x_sup) have no tangent
    lat22 = make_source(["0", "1"], ["0", "1"], [[0.5, 0.1], [0.15, 0.25]])
    with mpmath.workdps(50):
        for src in [bsc01, skew22, lat22] + corpus[:5]:
            rf = RateFunction.from_source(src)
            cols = exact_columns(src)
            h = conditional_shannon(src)
            for k in range(1, 9):
                for x in (h + 10.0**-k, h - 10.0**-k):
                    if not rf.gamma < x < rf.x_sup:
                        continue
                    got, alpha, _, _, _ = rf.conjugate(np.array([x]), np.array([math.log(2.0)]))
                    want, exact = mp_rate(cols, mpmath.mpf(x), float(alpha[0]))
                    assert abs(got[0] - want) <= 1e-13 * abs(want) + 4.0 * abs(float(exact)) * math.ulp(x)


def test_rate_rises_to_its_closed_form_endpoint(bsc01, skew22, noiseless, independent, uniform_binary, corpus):
    # at x_sup the order is +inf and the rate the closed form
    # -log sum_{y: N_y = N} N (prod_x p(x, y))^(1/N); just below it Newton
    # converges for every x_sup - 10^-k, k = 1..12, and the rate rises to it
    assert RateFunction.from_source(bsc01)(math.log(2.0)) == pytest.approx(-math.log(0.6), abs=1e-15)
    for src in [bsc01, skew22, noiseless, independent, uniform_binary] + corpus:
        rf = RateFunction.from_source(src)
        top = rf(rf.x_sup)
        assert abs(top - rate_endpoint(src)) <= 1e-12
        xs = rf.x_sup - 10.0 ** -np.arange(1, 13)
        xs = xs[xs > max(rf.gamma, conditional_shannon(src))]
        values, alphas, _, _, _ = rf.conjugate(xs, np.full_like(xs, math.log(2.0)))
        assert np.all(np.diff(values) > 0.0) and np.all(values < top)
        for x, alpha in zip(xs, alphas):
            assert abs(scgf_derivative(src, alpha) - x) <= 1e-14


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    lattice_sources(),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    st.lists(st.floats(-1.0, 1e6), min_size=1, max_size=8),
)
def test_rate_function_is_a_conjugate_bound(src, fractions, alphas):
    # Lambda* is the sup over alpha of alpha x - Lambda(alpha), so every
    # order bounds it from below, with equality at the slope
    # x = Lambda'(alpha) up to the rounding of x, which alpha x amplifies
    # (4 units of alpha ulp(x) on each side), and it vanishes at H(X|Y)
    rf = RateFunction.from_source(src)
    xs = np.array(fractions) * src.log_x_size
    values = rf(xs)
    for alpha in alphas:
        assert np.all(values >= alpha * xs - scgf_limit(src, alpha) - 1e-12 * (1.0 + abs(alpha)))
        slope = scgf_derivative(src, alpha) if alpha >= -0.9 else rf.gamma
        if slope > rf.gamma:
            tol = 1e-10 + 8.0 * abs(alpha) * math.ulp(slope)
            assert rf(slope) == pytest.approx(alpha * slope - scgf_limit(src, alpha), abs=tol)
    assert abs(rf(conditional_shannon(src))) <= 1e-12


def test_rate_function_convex_on_grid(bsc01):
    rf = RateFunction.from_source(bsc01)
    xs = np.linspace(0.0, 0.65, 27)
    vals = [rf(float(x)) for x in xs]
    step = xs[1] - xs[0]
    quotients = [(b - a) / step for a, b in zip(vals, vals[1:])]
    for q0, q1 in zip(quotients, quotients[1:]):
        assert q1 >= q0 - 1e-5


def test_empirical_exponent_uniform_window(uniform_binary):
    ln2 = math.log(2.0)
    got = empirical_exponent(uniform_binary, 0.3, 0.05, 20)
    assert ln2 - 0.35 - 0.1 <= got <= ln2 - 0.25 + 0.1


def test_empirical_exponent_noiseless_zero(noiseless):
    for n in (1, 4, 9):
        assert empirical_exponent(noiseless, 0.0, 0.01, n) == pytest.approx(0.0, abs=1e-12)


def test_empirical_exponent_impossible_event(bsc01):
    assert empirical_exponent(bsc01, 5.0, 0.1, 4) == math.inf


def test_empirical_exponent_domain(bsc01):
    for x, eps in ((-0.1, 0.05), (0.3, 0.0), (math.nan, 0.05), (math.inf, 0.05),
                   (0.3, math.nan), (0.3, math.inf)):
        with pytest.raises(DomainError):
            empirical_exponent(bsc01, x, eps, 4)


def test_empirical_exponent_reuses_distribution(bsc01):
    dist = guesswork_distribution(bsc01, 6)
    a = empirical_exponent(bsc01, 0.3, 0.05, 6, dist=dist)
    b = empirical_exponent(bsc01, 0.3, 0.05, 6)
    assert a == b


def test_ldp_convergence_bound_uniform(uniform_binary):
    ln2 = math.log(2.0)
    for n in (8, 12, 16, 20):
        for x in (0.1, 0.3, 0.5):
            got = empirical_exponent(uniform_binary, x, 0.05, n)
            limit = ln2 - min(x + 0.05, ln2)
            assert abs(got - limit) <= 2 * 0.05 + 3 * math.log(n + 1) / n


def test_envelope_bound_is_provable_for_negative_alpha(bsc01, skew22):
    # the finite-n SCGF sits inside [limit, limit + envelope] for alpha in (-1,0)
    for src in (bsc01, skew22):
        for alpha in (-0.9, -0.5, -0.1):
            limit = scgf_limit(src, alpha)
            for n in (1, 2, 3, 4, 5, 6, 10):
                emp = guesswork_distribution(src, n).scgf_empirical(alpha)
                envelope = -alpha * math.log1p(n * src.log_x_size) / n
                assert limit - 1e-12 <= emp <= limit + envelope + 1e-12
