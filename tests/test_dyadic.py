"""Exact dyadic arithmetic against Fraction ground truth."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guesslab.dyadic import DYADIC_ONE, DYADIC_ZERO, Dyadic, LevelCode, descending

import _oracle
from _oracle import divide_exact


def random_dyadics(seed: int, count: int) -> list[Dyadic]:
    rng = np.random.default_rng(seed)
    values = []
    for _ in range(count):
        x = float(rng.random()) * 10.0 ** int(rng.integers(-8, 9))
        values.append(Dyadic.from_float(x))
    return values


def test_from_float_round_trips_exactly():
    rng = np.random.default_rng(7)
    for _ in range(500):
        x = float(rng.random()) * 2.0 ** int(rng.integers(-60, 61))
        d = Dyadic.from_float(x)
        assert d.as_fraction() == Fraction(x)
        assert d.to_float() == x


def test_from_float_rejects_negative_and_infinite():
    with pytest.raises(ValueError):
        Dyadic.from_float(-1.0)
    with pytest.raises(ValueError):
        Dyadic.from_float(float("inf"))
    with pytest.raises(ValueError):
        Dyadic.from_float(float("nan"))


def test_canonical_form_is_odd_mantissa():
    for d in random_dyadics(11, 200):
        assert d.m % 2 == 1
    assert Dyadic.from_int(48).m == 3
    assert Dyadic.from_int(48).e == 4
    assert DYADIC_ZERO.m == 0 and DYADIC_ZERO.e == 0


def test_mul_add_match_fractions():
    values = random_dyadics(13, 60)
    for a, b in zip(values[::2], values[1::2]):
        fa, fb = a.as_fraction(), b.as_fraction()
        assert (a * b).as_fraction() == fa * fb
        assert (a + b).as_fraction() == fa + fb


def test_pow_matches_fraction():
    d = Dyadic.from_float(0.45)
    assert (d**7).as_fraction() == Fraction(0.45) ** 7
    assert d**0 == DYADIC_ONE
    assert DYADIC_ZERO**5 == DYADIC_ZERO
    with pytest.raises(ValueError):
        d**-1


def test_tie_products_collide_exactly():
    # float rounding merges 0.01*0.09 with 0.03*0.03; exact products differ
    a = Dyadic.from_float(0.01) * Dyadic.from_float(0.09)
    b = Dyadic.from_float(0.03) * Dyadic.from_float(0.03)
    assert 0.01 * 0.09 == 0.03 * 0.03
    assert a != b
    assert a.as_fraction() != b.as_fraction()
    # genuinely equal rationals must collide and hash together
    c = Dyadic.from_float(0.4) * Dyadic.from_float(0.1)
    d = Dyadic.from_float(0.2) * Dyadic.from_float(0.2)
    assert c == d
    assert hash(c) == hash(d)


def test_ordering_matches_fractions():
    values = random_dyadics(17, 80)
    for a, b in zip(values[::2], values[1::2]):
        fa, fb = a.as_fraction(), b.as_fraction()
        assert (a < b) == (fa < fb)
        assert (a <= b) == (fa <= fb)
        assert (a > b) == (fa > fb)
        assert (a >= b) == (fa >= fb)
    assert DYADIC_ZERO < values[0]
    assert not DYADIC_ZERO < DYADIC_ZERO


def test_divide_exact_inverse_of_mul():
    values = random_dyadics(19, 40)
    for a, b in zip(values[::2], values[1::2]):
        assert divide_exact(a * b, b) == a
    three = Dyadic.from_int(3)
    assert divide_exact(DYADIC_ONE, three) is None
    assert divide_exact(DYADIC_ZERO, three) == DYADIC_ZERO
    with pytest.raises(ZeroDivisionError):
        divide_exact(DYADIC_ONE, DYADIC_ZERO)


def test_log_accuracy_far_below_float_range():
    d = Dyadic.from_float(0.5) ** 10000  # 2**-10000 underflows linear floats
    assert d.to_float() == 0.0
    assert d.log() == pytest.approx(-10000 * math.log(2.0), rel=1e-15)
    e = Dyadic.from_float(0.45) ** 3000
    assert e.log() == pytest.approx(3000 * math.log(0.45), rel=1e-13, abs=0)


def test_to_float_is_correctly_rounded():
    rng = np.random.default_rng(23)
    for _ in range(200):
        a = Dyadic.from_float(float(rng.random()))
        b = Dyadic.from_float(float(rng.random()))
        product = a * b
        assert product.to_float() == float(product.as_fraction())
    big = Dyadic.from_int(10) ** 400
    assert big.to_float() == math.inf


def test_from_int_matches_value():
    for n in (0, 1, 2, 12, 1024, 3 * 2**40):
        assert Dyadic.from_int(n).as_fraction() == Fraction(n)
    with pytest.raises(ValueError):
        Dyadic.from_int(-2)


# Property tests against Fraction, built from (m, e) pairs so that the
# ground truth never goes through Dyadic arithmetic.  Exponents reach the
# subnormal and overflowing ends of the float range as well as 1.
EXPONENTS = st.one_of(st.integers(-80, 80), st.integers(-1160, -1000), st.integers(900, 960))
PAIRS = st.tuples(st.integers(0, 2**80), EXPONENTS)
# m 2**e within a relative 2**-8 of 1, where a log must not cancel
NEAR_ONE = st.integers(9, 200).flatmap(lambda k: st.tuples(st.integers(2**k - 2 ** (k - 8), 2**k + 2 ** (k - 8)), st.just(-k)))
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def dyadic_and_fraction(pair) -> tuple[Dyadic, Fraction]:
    m, e = pair
    return Dyadic.from_int(m) * Dyadic(1, e), Fraction(m) * Fraction(2) ** e


def canonical(d: Dyadic) -> bool:
    return (d.m == 0 and d.e == 0) or d.m % 2 == 1


@PROPERTY
@given(PAIRS, PAIRS, st.integers(0, 6))
def test_arithmetic_matches_fraction(p, q, k):
    a, fa = dyadic_and_fraction(p)
    b, fb = dyadic_and_fraction(q)
    for got, want in ((a * b, fa * fb), (a + b, fa + fb), (a**k, fa**k)):
        assert canonical(got)
        assert got.as_fraction() == want


@PROPERTY
@given(PAIRS, PAIRS, st.integers(0, 8))
def test_comparisons_match_fraction(p, q, shift):
    a, fa = dyadic_and_fraction(p)
    b, fb = dyadic_and_fraction(q)
    # the same value as a, from another (m, e) pair
    same, _ = dyadic_and_fraction((p[0] << shift, p[1] - shift))
    for c, fc in ((b, fb), (same, fa)):
        assert (a == c) == (fa == fc)
        assert hash(a) == hash(c) or fa != fc
        assert (a < c, a <= c, a > c, a >= c) == (fa < fc, fa <= fc, fa > fc, fa >= fc)


@PROPERTY
@given(st.one_of(PAIRS, NEAR_ONE))
def test_to_float_and_log_match_fraction(p):
    a, fa = dyadic_and_fraction(p)
    # float(Fraction) rounds correctly
    assert a.to_float() == (float(fa) if fa < 2**1024 else math.inf)
    if fa == 0:
        assert a.log() == -math.inf
        return
    with mpmath.workdps(40):
        log = float(mpmath.log(mpmath.mpf(fa.numerator) / fa.denominator))
    assert abs(a.log() - log) <= 2.0 * math.ulp(log)


@PROPERTY
@given(st.lists(st.tuples(st.integers(1, 2**20), st.integers(-60, 0)), min_size=1, max_size=5),
       st.integers(1, 8), st.data())
def test_level_packing_round_trip_matches_fraction(pairs, n, data):
    # levels m * 2**e, e <= 0: the key of a product is the sum of the
    # factors' keys, field by field with no carry, and dyadic() gives the
    # product back
    levels = [d for d in (dyadic_and_fraction(pair)[0] for pair in pairs) if d.e <= 0]
    if not levels:
        return
    packing = LevelCode(levels).packing(n)
    factors = data.draw(st.lists(st.sampled_from(levels), max_size=n))
    key = sum(packing.key(f) for f in factors)
    vectors = [_oracle.unpack(packing, packing.key(f)) for f in factors]
    assert _oracle.unpack(packing, key) == [sum(v[i] for v in vectors) for i in range(len(packing.fields))]
    want = Fraction(1)
    for f in factors:
        want *= f.as_fraction()
    # numerators over one power of two, the largest -e of the keys, before dyadic() caches any power
    keys = [key] + [packing.key(level) for level in levels]
    rows = packing.rows(keys)
    numerators, shift = packing.numerators(rows)
    assert shift == max(_oracle.unpack(packing, k)[-1] for k in keys)
    assert [Fraction(m, 2**shift) for m in numerators] == [want] + [level.as_fraction() for level in levels]
    assert packing.dyadic(rows[0]).as_fraction() == want
    for level, row in zip(levels, rows[1:]):
        assert packing.dyadic(row) == level


# 0.01 * 0.09 and 0.03 * 0.03 are distinct dyadics with equal float logs, so a
# composition over these entries and its twin, one 0.01 and one 0.09 traded
# for two 0.03s, are near ties that only an exact comparison orders.
NEAR_TIE_ENTRIES = (0.01, 0.09, 0.03, 0.87)
COMPOSITIONS = st.tuples(*[st.integers(0, 3)] * 4)


@PROPERTY
@given(st.lists(st.lists(COMPOSITIONS, min_size=1, max_size=6), min_size=1, max_size=4), st.data())
def test_descending_matches_fraction_sort_on_near_ties(groups, data):
    entries = [Dyadic.from_float(p) for p in NEAR_TIE_ENTRIES]
    packing = LevelCode(entries).packing(16)
    keys, group_of = [], []
    for g, compositions in enumerate(groups):
        group = set()
        for a, b, c, d in compositions:
            twins = [(a, b, c, d)] + ([(a - 1, b - 1, c + 2, d)] if a and b else [])
            group |= {sum(k * packing.key(e) for k, e in zip(twin, entries)) for twin in twins}
        group = data.draw(st.permutations(sorted(group)))  # any order in, one order out
        keys += group
        group_of += [g] * len(group)
    rows = packing.rows(keys)
    logs, scales = packing.log_scales(rows)
    order = descending(logs, scales, np.array(group_of), lambda i: packing.dyadic(rows[i]))
    exact = [packing.dyadic(row).as_fraction() for row in rows]
    assert order.tolist() == sorted(range(len(keys)), key=lambda i: (group_of[i], -exact[i]))
