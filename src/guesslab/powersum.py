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

``power_sums_log`` takes the same paths for a whole array of blocks with
ranks below 2**1000, in one numpy pass, and shares the tail and its
certificate with ``power_sum_log``.  Its Faulhaber sums are float sums
of positive terms, and its head is accumulated one term column at a time,
so memory stays linear in the blocks.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["power_sum_log", "power_sums_log", "power_sum"]

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


def _log1mexp(u: np.ndarray) -> np.ndarray:
    """log(1 - exp(u)) for u < 0, stable at both ends; each branch on its own elements."""
    out = np.empty_like(u)
    near = u > -0.6931471805599453
    out[near] = np.log(-np.expm1(u[near]))
    out[~near] = np.log1p(-np.exp(u[~near]))
    return out


def _log_integral(log_lo: np.ndarray, span: np.ndarray, alpha: float) -> np.ndarray:
    """log of integral_lo^hi x**alpha dx, given span = log(hi/lo) > 0."""
    c = alpha + 1.0
    if c == 0.0:
        return np.log(span)
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


def _tail_logs(log_lo: np.ndarray, span: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Maclaurin through B_8 on each [lo, hi], given log lo and log(hi/lo).

    Returns the log tails and whether each one's B_10 bound holds.
    """
    log_i = _log_integral(log_lo, span, alpha)
    # f^(k)(x) / integral at both ends, k = 0..9, and their jumps hi minus lo
    d_lo = np.exp(alpha * log_lo - log_i)
    d_hi = np.exp(alpha * (log_lo + span) - log_i)
    step_lo, step_hi = np.exp(-log_lo), np.exp(-log_lo - span)
    delta = 0.5 * (d_lo + d_hi)
    jumps = []
    for k in range(1, 10):
        d_lo = d_lo * ((alpha - k + 1) * step_lo)
        d_hi = d_hi * ((alpha - k + 1) * step_hi)
        jumps.append(d_hi - d_lo)
    for coef, k in _EM_TERMS:
        delta = delta + coef * jumps[k - 1]
    bound = _B10_TERM * np.abs(jumps[8]) * (2.0 if 10.0 < alpha < 11.0 else 1.0)
    ok = (np.abs(delta) < 0.5) & (bound <= _RTOL * (1.0 + delta))
    return log_i + np.log1p(np.where(ok, delta, 0.0)), ok


def _tail_log(lo: int, hi: int, alpha: float) -> float | None:
    """Euler-Maclaurin through B_8 on [lo, hi], or None when the B_10 bound fails."""
    log_lo = math.log(lo)
    # log(hi/lo) without cancellation when the ends are close
    span = math.log1p((hi - lo) / lo) if hi - lo < lo else math.log(hi) - log_lo
    tail, ok = _tail_logs(np.array([log_lo]), np.array([span]), alpha)
    return float(tail[0]) if ok[0] else None


def _narrow_log(lo: int, hi: int, alpha: float) -> float:
    # count/lo is below 1e-13/|alpha|: the summand is constant to within 1e-13
    mid = (lo + hi) // 2
    return math.log(hi - lo + 1) + alpha * math.log(mid)


def _finite_order(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"power-sum order must be finite, got {alpha}")
    return alpha


def power_sum_log(a: int, b: int, alpha: float) -> float:
    """log of sum_{r=a}^{b} r**alpha; -inf for an empty range."""
    alpha = _finite_order(alpha)
    if b < a:
        return -math.inf
    if a < 1:
        raise ValueError(f"rank ranges start at 1, got {a}")
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


def _faulhaber_logs(a: np.ndarray, c: np.ndarray, k: int) -> np.ndarray:
    """log sum_{i=0}^{c-1} (a + i)**k, k in {0, 1, 2, 3}, as positive terms over u = max(a, c).

    The sum is sum_j C(k, j) a**(k-j) S_j with S_j = sum_{i<c} i**j; every
    term is positive and each factor below is at most 2, so nothing
    cancels or overflows.
    """
    u = np.maximum(a, c)
    x, z = a / u, (c - 1.0) / u
    s = [c, c * z / 2.0, c * z * ((2.0 * c - 1.0) / u) / 6.0, c * (c / u) * z * z / 4.0]
    total = sum(math.comb(k, j) * x ** (k - j) * s[j] for j in range(k + 1))
    return k * np.log(u) + np.log(total)


def _head_logs(a: np.ndarray, m: np.ndarray, alpha: float) -> np.ndarray:
    """``_head_log`` of the m terms from a, elementwise, one term column at a time."""
    top = a + m - 1.0 if alpha > 0.0 else a
    step = 1.0 / top
    sign = -1.0 if alpha > 0.0 else 1.0
    # columns j = 1..m-1 relative to the largest term; blocks sorted by m, longest
    # first, so the blocks still summing at column j are a prefix
    order = np.argsort(-m, kind="stable")
    m_sorted, step_sorted = m[order], step[order]
    columns = np.arange(1, int(m_sorted[0]) if m.size else 1)
    active = np.searchsorted(-m_sorted, -columns, side="left")
    acc = np.zeros(m.size)
    for j, n_active in enumerate(active.tolist(), start=1):
        acc[:n_active] += (1.0 + sign * j * step_sorted[:n_active]) ** alpha
    total = np.empty(m.size)
    total[order] = acc
    return alpha * np.log(top) + np.log1p(total)


def power_sums_log(starts: np.ndarray, counts: np.ndarray, alpha: float) -> np.ndarray:
    """log of sum_{r=a}^{a+c-1} r**alpha for every block (a, c) of two float arrays.

    Starts and counts are positive integers, exact below 2**53, and every
    last rank a + c - 1 lies below 2**1000.  Each block takes the path
    ``power_sum_log`` would take, with the same head lengths and the same
    B_10 certificate.
    """
    alpha = _finite_order(alpha)
    a = np.asarray(starts, dtype=np.float64)
    c = np.asarray(counts, dtype=np.float64)
    if alpha in (0.0, 1.0, 2.0, 3.0):
        return _faulhaber_logs(a, c, int(alpha))
    out = np.empty(a.shape)
    scale = int(abs(alpha)) + 1
    one = c == 1.0
    out[one] = alpha * np.log(a[one])
    narrow = ~one & (c * scale * 1e13 <= a)
    # the summand is constant to within 1e-13 on these; mid as in _narrow_log
    mid = a[narrow] + np.floor((c[narrow] - 1.0) / 2.0)
    out[narrow] = np.log(c[narrow]) + alpha * np.log(mid)
    # head plus certified tail, the head doubling where the certificate fails,
    # as in power_sum_log; a block the head covers is summed term by term
    todo = np.flatnonzero(~one & ~narrow)
    head = max(32, 4 * scale)
    while todo.size:
        tail = c[todo] > head + 1
        done = todo[~tail]
        out[done] = _head_logs(a[done], c[done], alpha)
        todo = todo[tail]
        lo, width = a[todo] + head, c[todo] - 1.0 - head
        log_lo = np.log(lo)
        span = np.where(width < lo, np.log1p(width / lo), np.log(lo + width) - log_lo)
        tail_logs, ok = _tail_logs(log_lo, span, alpha)
        first = _head_logs(a[todo[ok]], np.full(int(ok.sum()), float(head)), alpha)
        out[todo[ok]] = np.logaddexp(first, tail_logs[ok])
        todo = todo[~ok]
        head *= 2
    return out


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
