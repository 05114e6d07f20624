"""Exact dyadic arithmetic against Fraction ground truth."""

import math
from fractions import Fraction

import numpy as np
import pytest

from guesslab.dyadic import DYADIC_ONE, DYADIC_ZERO, Dyadic

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
    assert e.log() == pytest.approx(3000 * math.log(0.45), rel=1e-13)


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
