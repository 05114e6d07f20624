"""Power sums sum_{r=a}^{b} r**alpha over integer rank ranges, in log space.

Rank ranges reach |X|**n, so endpoints are arbitrary-precision integers
and results are carried as natural logs.  ``power_sums_log`` is the one
kernel: it takes every block (a, c), the c ranks from a, as log a and
log c, and forms only ratios exp(log x - log y) <= 1 from them, never a
or c, so a block of any size neither overflows nor warns.  Small
nonnegative integer orders use Faulhaber closed forms, and blocks so
narrow that the summand is constant to within 1e-13 use count *
mid**alpha.  Every other block is one formula: an exact head of the first
H = max(32, 4 * (|alpha| floor + 1)) terms, then the Euler-Maclaurin
expansion through the B_8 term on the tail [a + H, b].  Every derivative
of f(x) = x**alpha keeps its sign on positive ranges, so the remainder
after the B_8 term is at most the B_10 term, |B_10|/10! * |f^(9)(b) -
f^(9)(a + H)|, and twice that for 10 < alpha < 11, where f^(10) and
f^(12) differ in sign (Graham, Knuth & Patashnik, Concrete Mathematics,
eq. 9.80; DLMF 2.10.1).  The tail is returned only when that bound is
within 1e-12 of it; otherwise H doubles until the bound holds or the head
covers the whole block.  Nothing is bisected and no uncertified value is
returned.  The Faulhaber sums are float sums of positive terms, and the
head is accumulated one term column at a time, so memory stays linear in
the blocks.

``power_sum_log`` is the kernel on one block, and ``power_sum`` keeps
exact integer Faulhaber sums for its integer orders.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["power_sum_log", "power_sums_log", "power_sum", "log_ints"]

_RTOL = 1e-12
# Euler-Maclaurin terms B_2j / (2j)! * (f^(k)(b) - f^(k)(c)), k = 2j - 1, j = 1..4
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


def log_ints(ints: list[int], bound: int) -> np.ndarray:
    """Natural logs of positive ints, none of them above bound.

    numpy converts ints below 2**1023 to doubles in one call; past that
    each int takes ``math.log``, which reads its bits directly.
    """
    if bound.bit_length() <= 1023:
        return np.log(np.array(ints, dtype=np.float64))
    return np.array([math.log(i) for i in ints], dtype=np.float64)


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


def _tail_logs(log_lo: np.ndarray, span: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Maclaurin through B_8 on each [lo, hi], given log lo and log(hi/lo).

    Returns the log tails and whether each one's B_10 bound holds.
    """
    log_i = _log_integral(log_lo, span, alpha)
    # f(x) / integral at both ends; then p = x**(alpha - k) / integral for odd
    # k = 1..9, each from the last by 1/x**2, and f^(k) = (alpha)_k * p
    f_lo, f_hi = np.exp(alpha * log_lo - log_i), np.exp(alpha * (log_lo + span) - log_i)
    delta = 0.5 * (f_lo + f_hi)
    step_lo, step_hi = np.exp(-log_lo), np.exp(-log_lo - span)
    p_lo, p_hi = f_lo * step_lo, f_hi * step_hi
    falling = alpha  # (alpha)_k = alpha (alpha - 1) ... (alpha - k + 1)
    for coef, k in _EM_TERMS:
        delta += (coef * falling) * (p_hi - p_lo)
        p_lo *= step_lo * step_lo
        p_hi *= step_hi * step_hi
        falling *= (alpha - k) * (alpha - k - 1)
    jump = falling * (p_hi - p_lo)  # f^(9)(hi) - f^(9)(lo), over the integral
    bound = _B10_TERM * np.abs(jump) * (2.0 if 10.0 < alpha < 11.0 else 1.0)
    ok = (np.abs(delta) < 0.5) & (bound <= _RTOL * (1.0 + delta))
    return log_i + np.log1p(np.where(ok, delta, 0.0)), ok


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
    return float(power_sums_log(np.array([math.log(a)]), np.array([math.log(b - a + 1)]), alpha)[0])


def _faulhaber_logs(log_a: np.ndarray, log_c: np.ndarray, k: int) -> np.ndarray:
    """log sum_{i=0}^{c-1} (a + i)**k, k in {0, 1, 2, 3}, as positive terms over c * u**k, u = max(a, c).

    The sum is sum_j C(k, j) a**(k-j) S_j with S_j = sum_{i<c} i**j; every
    term is positive and each factor below is at most 2, so nothing
    cancels or overflows.
    """
    log_u = np.maximum(log_a, log_c)
    x, cu = np.exp(log_a - log_u), np.exp(log_c - log_u)  # a/u and c/u
    inv_c = np.exp(-log_c)
    z = cu * (1.0 - inv_c)  # (c - 1)/u
    s = [1.0, z / 2.0, z * (cu * (2.0 - inv_c)) / 6.0, cu * z * z / 4.0]  # S_j / (c u**j)
    total = sum(math.comb(k, j) * x ** (k - j) * s[j] for j in range(k + 1))
    return k * log_u + log_c + np.log(total)


def _head_logs(log_a: np.ndarray, inv_a: np.ndarray, m: np.ndarray, alpha: float) -> np.ndarray:
    """log of the m terms from a, given 1/a, relative to the largest, one term column at a time."""
    if alpha > 0.0:  # the largest term is the last, top = a + m - 1, and terms step down
        q = (m - 1.0) * inv_a
        log_top, step = log_a + np.log1p(q), -inv_a / (1.0 + q)
    else:
        log_top, step = log_a, inv_a
    # columns j = 1..m-1 relative to the largest term.  Where even the last,
    # 1 + (m - 1) step, rounds to 1.0, every term is exactly 1.0 and they sum
    # to m - 1; the other blocks are sorted by m, longest first, so the blocks
    # still summing at column j are a prefix
    total = m - 1.0
    rest = np.flatnonzero(1.0 + step * total != 1.0)
    order = rest[np.argsort(-m[rest], kind="stable")]
    m_sorted, step_sorted = m[order], step[order]
    columns = np.arange(1, int(m_sorted[0]) if order.size else 1)
    active = np.searchsorted(-m_sorted, -columns, side="left")
    acc, term = np.zeros(order.size), np.empty(order.size)
    for j, n_active in enumerate(active.tolist(), start=1):
        t = np.multiply(step_sorted[:n_active], j, out=term[:n_active])
        t += 1.0
        acc[:n_active] += np.power(t, alpha, out=t)
    total[order] = acc
    return alpha * log_top + np.log1p(total)


def power_sums_log(log_starts: np.ndarray, log_counts: np.ndarray, alpha: float) -> np.ndarray:
    """log of sum_{r=a}^{a+c-1} r**alpha for every block (a, c), given log a and log c.

    Starts and counts are positive integers of any size; ``log_ints``
    takes their logs from the exact ints.  Each block takes one of the
    paths of the module docstring, and a tail only under its B_10
    certificate.
    """
    alpha = _finite_order(alpha)
    la = np.asarray(log_starts, dtype=np.float64)
    lc = np.asarray(log_counts, dtype=np.float64)
    if alpha in (0.0, 1.0, 2.0, 3.0):
        return _faulhaber_logs(la, lc, int(alpha))
    out = np.empty(la.shape)
    scale = int(abs(alpha)) + 1
    one = lc == 0.0
    out[one] = alpha * la[one]
    narrow = ~one & (lc + math.log(scale * 1e13) <= la)
    # the summand is constant to within 1e-13 on these: c * mid**alpha, with
    # log mid = log a + (c - 1)/(2a) to first order, and (c - 1)/a below 1e-13
    log_a, log_c = la[narrow], lc[narrow]
    out[narrow] = log_c + alpha * (log_a + 0.5 * np.exp(log_c - log_a) * -np.expm1(-log_c))
    # head plus certified tail, the head doubling where the certificate fails;
    # a block the head covers (c <= head + 1, so c is exact from its log) is
    # summed term by term
    todo = np.flatnonzero(~one & ~narrow)
    head = max(32, 4 * scale)
    while todo.size:
        tail = lc[todo] > math.log(head + 1.5)
        done = todo[~tail]
        if done.size:
            out[done] = _head_logs(la[done], np.exp(-la[done]), np.rint(np.exp(lc[done])), alpha)
        todo = todo[tail]
        if not todo.size:
            break
        log_a, log_c = la[todo], lc[todo]
        inv_a = np.exp(-log_a)
        log_lo = log_a + np.log1p(head * inv_a)
        # log(hi/lo) = log1p of the tail's width (c - 1 - head) over lo = a + head
        log_width = log_c + np.log1p(-(head + 1.0) * np.exp(-log_c))
        span = np.logaddexp(0.0, log_width - log_lo)
        tail_logs, ok = _tail_logs(log_lo, span, alpha)
        first = _head_logs(log_a[ok], inv_a[ok], np.full(int(ok.sum()), float(head)), alpha)
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
