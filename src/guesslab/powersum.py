"""Power sums sum_{r=a}^{b} r**alpha over integer rank ranges, in log space.

Rank ranges reach |X|**n, so endpoints are arbitrary-precision integers
and results are carried as natural logs.  Small nonnegative integer
orders use exact Faulhaber closed forms, and blocks so narrow that the
summand is constant to within 1e-13 use count * mid**alpha.  Every other
range is one formula: an exact head of the first H = max(32, 4 * (|alpha|
floor + 1)) terms, then the Euler-Maclaurin expansion through the B_8
term on the tail [a + H, b].  Every derivative of f(x) = x**alpha keeps
its sign on positive ranges, so the remainder after the B_8 term is at
most the B_10 term, |B_10|/10! * |f^(9)(b) - f^(9)(a + H)|, and twice that
for 10 < alpha < 11, where f^(10) and f^(12) differ in sign (Graham,
Knuth & Patashnik, Concrete Mathematics, eq. 9.80; DLMF 2.10.1).  The
tail is returned only when that bound is within 1e-12 of it; otherwise H
doubles until the bound holds or the head covers the whole range.
Nothing is bisected and no uncertified value is returned.
"""

from __future__ import annotations

import math

__all__ = ["power_sum_log", "power_sum"]

_RTOL = 1e-12
# Euler-Maclaurin terms B_2j / (2j)! * (f^(2j-1)(b) - f^(2j-1)(c)), j = 1..4
_EM_TERMS = ((1.0 / 12.0, 1), (-1.0 / 720.0, 3), (1.0 / 30240.0, 5), (-1.0 / 1209600.0, 7))
_B10_TERM = 1.0 / 47900160.0  # |B_10| / 10!


def _faulhaber(b: int, k: int) -> int:
    """sum_{r=1}^{b} r**k exactly for k in {0, 1, 2, 3}."""
    if k == 0:
        return b
    if k == 1:
        return b * (b + 1) // 2
    if k == 2:
        return b * (b + 1) * (2 * b + 1) // 6
    return (b * (b + 1) // 2) ** 2


def _log1mexp(u: float) -> float:
    """log(1 - exp(u)) for u < 0, stable at both ends."""
    if u > -0.6931471805599453:
        return math.log(-math.expm1(u))
    return math.log1p(-math.exp(u))


def _log_integral(log_lo: float, span: float, alpha: float) -> float:
    """log of integral_lo^hi x**alpha dx, given span = log(hi/lo) > 0."""
    c = alpha + 1.0
    if c == 0.0:
        return math.log(span)
    if c > 0.0:
        return c * (log_lo + span) + _log1mexp(-c * span) - math.log(c)
    return c * log_lo + _log1mexp(c * span) - math.log(-c)


def _head_log(lo: int, hi: int, alpha: float) -> float:
    """log of sum_{r=lo}^{hi} r**alpha, term by term relative to the largest term."""
    if alpha > 0.0:
        top, offsets = hi, range(lo - hi, 0)
    else:
        top, offsets = lo, range(1, hi - lo + 1)
    step = 1 / top
    return alpha * math.log(top) + math.log1p(math.fsum([(1.0 + i * step) ** alpha for i in offsets]))


def _tail_log(lo: int, hi: int, alpha: float) -> float | None:
    """Euler-Maclaurin through B_8 on [lo, hi], or None when the B_10 bound fails."""
    log_lo = math.log(lo)
    # log(hi/lo) without cancellation when the ends are close
    span = math.log1p((hi - lo) / lo) if hi - lo < lo else math.log(hi) - log_lo
    log_i = _log_integral(log_lo, span, alpha)
    # f^(k)(x) / integral at both ends, k = 0..9, and their jumps hi minus lo
    d_lo = math.exp(alpha * log_lo - log_i)
    d_hi = math.exp(alpha * (log_lo + span) - log_i)
    step_lo, step_hi = math.exp(-log_lo), math.exp(-log_lo - span)
    delta = 0.5 * (d_lo + d_hi)
    jumps = []
    for k in range(1, 10):
        d_lo *= (alpha - k + 1) * step_lo
        d_hi *= (alpha - k + 1) * step_hi
        jumps.append(d_hi - d_lo)
    delta += math.fsum(coef * jumps[k - 1] for coef, k in _EM_TERMS)
    bound = _B10_TERM * abs(jumps[8]) * (2.0 if 10.0 < alpha < 11.0 else 1.0)
    if abs(delta) < 0.5 and bound <= _RTOL * (1.0 + delta):
        return log_i + math.log1p(delta)
    return None


def _narrow_log(lo: int, hi: int, alpha: float) -> float:
    # count/lo is below 1e-13/|alpha|: the summand is constant to within 1e-13
    mid = (lo + hi) // 2
    return math.log(hi - lo + 1) + alpha * math.log(mid)


def power_sum_log(a: int, b: int, alpha: float) -> float:
    """log of sum_{r=a}^{b} r**alpha; -inf for an empty range."""
    if b < a:
        return -math.inf
    if a < 1:
        raise ValueError(f"rank ranges start at 1, got {a}")
    alpha = float(alpha)
    if alpha in (0.0, 1.0, 2.0, 3.0):
        return math.log(_faulhaber(b, int(alpha)) - _faulhaber(a - 1, int(alpha)))
    scale = int(abs(alpha)) + 1
    if a == b:
        return alpha * math.log(a)
    if (b - a + 1) * scale * 10**13 <= a:
        return _narrow_log(a, b, alpha)
    head = max(32, 4 * scale)
    while a + head < b:
        tail = _tail_log(a + head, b, alpha)
        if tail is not None:
            first = _head_log(a, a + head - 1, alpha)
            return max(first, tail) + math.log1p(math.exp(-abs(first - tail)))
        head *= 2
    return _head_log(a, b, alpha)


def power_sum(a: int, b: int, alpha: float) -> float:
    """sum_{r=a}^{b} r**alpha as a float; overflows saturate to inf."""
    if b >= a and float(alpha) in (0.0, 1.0, 2.0, 3.0):
        exact = _faulhaber(b, int(alpha)) - _faulhaber(a - 1, int(alpha))
        try:
            return float(exact)
        except OverflowError:
            return math.inf
    log_s = power_sum_log(a, b, alpha)
    if log_s == -math.inf:
        return 0.0
    try:
        return math.exp(log_s)
    except OverflowError:
        return math.inf
