"""Power sums sum_{r=a}^{b} r**alpha over integer rank ranges, in log space.

Rank ranges reach |X|**n, so endpoints are arbitrary-precision integers
and results are carried as natural logs.  ``power_sums_log`` is the
kernel on rank blocks: it takes every block (a, c), the c ranks from a,
as log a and log c, and forms only ratios exp(log x - log y) <= 1 from
them, never a or c, so a block of any size neither overflows nor warns.
Small nonnegative integer orders use Faulhaber closed forms, and blocks
so narrow that the summand is constant to within 1e-13 use count *
mid**alpha.  Every other block, one rank or more, is one formula: an
exact head of the first H = max(32, 4 * (|alpha| floor + 1)) terms (a
block the head covers is summed term by term), then the Euler-Maclaurin
expansion through the B_8 term on the tail [a + H, b].  Every derivative
of f(x) = x**alpha keeps its sign on positive ranges, so the remainder
after the B_8 term is at most the B_10 term, |B_10|/10! * |f^(9)(b) -
f^(9)(a + H)|, and twice that for 10 < alpha < 11, where f^(10) and
f^(12) differ in sign (Graham, Knuth & Patashnik, Concrete Mathematics,
eq. 9.80; DLMF 2.10.1).  The tail is returned only when that bound is
within 1e-12 of it; otherwise H doubles until the bound holds or the head
covers the whole block.  Nothing is bisected and no uncertified value is
returned.  The Faulhaber sums are float sums of positive terms.  A pass's
head terms, every block's laid end to end, go through one ragged pass in
chunks of at most 2**16 terms, each block's added in order by
``np.bincount``, so memory stays linear in the blocks.  A block whose
head terms all round to 1.0 adds its count and sums none of them; a pass
that would sum more than ``BUDGET_CAP`` terms raises ``BudgetExceededError``
before any is summed.

``power_sum_log`` is the kernel on one block, and ``power_sum`` keeps
exact integer Faulhaber sums for its integer orders.

``poly_power_sums_log`` sums t**alpha (or t**alpha - 1) against a
polynomial P(t) = sum_l c_l (t - a)**i_l (b - t)**j_l with c_l >= 0 on
each row's ranks [a, b]: the k-min law's pmf on one segment.  Every term
is positive, so it is summed in logs: an exact head of H terms, then
Euler-Maclaurin through the B_2p term on the tail [a + H, b], whose
derivatives come from Leibniz's rule.  They change sign, so the
remainder is bounded by 2 zeta(2p) / (2 pi)**(2p) * integral |f^(2p)|
(DLMF 2.10.1, 24.17), with |f^(2p)| bounded term by term on integer
pieces [c, c + c // 4].  The integral is Gauss-Legendre on the same
pieces, its error bounded by the same derivative bound at order 2N
(Abramowitz & Stegun 25.4.30).  H doubles until the first bound is within
1e-14 of the tail, and N until the second is, up to 192 nodes; orders up
to ``POLY_MAX_ORDER`` in size certify there, and larger ones are refused.
Rows go in chunks of at most 2**20 values per array, so memory does not
grow with the number of rows or the order.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

from .dyadic import _LN2

__all__ = ["BUDGET_CAP", "GuessworkError", "BudgetExceededError", "POLY_MAX_ORDER", "power_sum_log", "power_sums_log",
           "poly_power_sums_log", "power_sum", "log_ints"]

# Cap on ``enumeration_budget``, on the rows of ``GuessworkDistribution.blocks``, on the cells of a
# Monte Carlo draw matrix and on the head terms of one ``power_sums_log`` pass.
BUDGET_CAP = 10**8

_RTOL = 1e-12
# B_2q / (2q)! for q = 1..7, and zeta(2p) <= zeta(10) for the p >= 5 of poly_power_sums_log
_BERNOULLI = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0, 1.0 / 47900160.0,
              -691.0 / 2730.0 / 479001600.0, 7.0 / 6.0 / 87178291200.0)
_ZETA_10 = 1.0009945751278180
_POLY_RTOL = 1e-14
_MAX_NODES = 192
# poly_power_sums_log's largest order in size; _MAX_NODES nodes certified its integral up to
# about twice this on degree-11 polynomials over ranges up to 2**60
POLY_MAX_ORDER = 500
_LOG_PIECE = math.log(1.25)  # a tail piece [c, c + c // 4] spans at most this in log
_CELLS = 1 << 20  # values in one chunk's largest array of poly_power_sums_log
_HEAD_CHUNK = 1 << 16  # head terms in one chunk of _head_logs


class GuessworkError(ValueError):
    """Base class for guesswork computation failures."""


class BudgetExceededError(GuessworkError):
    """A law build, its display rows, a Monte Carlo draw matrix or a power-sum head would exceed the budget cap."""

    def __init__(self, required: int, cap: int):
        self.required = required
        self.cap = cap
        super().__init__(f"required budget {required} exceeds cap {cap}")


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
    """log(1 - exp(u)) for u <= 0 (-inf at 0), stable at both ends; each branch on its own elements."""
    out = np.empty_like(u)
    near = u > -_LN2
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
    # B_2j / (2j)! * (f^(k)(hi) - f^(k)(lo)), k = 2j - 1, j = 1..4
    for k, coef in zip((1, 3, 5, 7), _BERNOULLI):
        delta += (coef * falling) * (p_hi - p_lo)
        p_lo *= step_lo * step_lo
        p_hi *= step_hi * step_hi
        falling *= (alpha - k) * (alpha - k - 1)
    jump = falling * (p_hi - p_lo)  # f^(9)(hi) - f^(9)(lo), over the integral
    bound = _BERNOULLI[4] * np.abs(jump) * (2.0 if 10.0 < alpha < 11.0 else 1.0)
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
    """log of the m terms from a, given 1/a, relative to the largest, in ragged chunks of terms."""
    if alpha > 0.0:  # the largest term is the last, top = a + m - 1, and terms step down
        q = (m - 1.0) * inv_a
        log_top, step = log_a + np.log1p(q), -inv_a / (1.0 + q)
    else:
        log_top, step = log_a, inv_a
    # terms j = 1..m-1 relative to the largest.  Where even the last,
    # 1 + (m - 1) step, rounds to 1.0, every term is exactly 1.0 and they sum
    # to m - 1; the other blocks' terms lie end to end, j rising within each,
    # and np.bincount adds each block's from 0.0 in j order.  A block that a
    # chunk's end splits carries its partial sum into the next chunk as its
    # first weight, so every sum is the same whatever the chunks
    total = m - 1.0
    rest = np.flatnonzero(1.0 + step * total != 1.0)
    step, ends = step[rest], np.cumsum(total[rest])
    # only these terms are summed, and they are counted before any is; the
    # count is exact below the cap, and a count past the float range saturates
    size = ends[-1] if rest.size else 0.0
    if size > BUDGET_CAP:
        raise BudgetExceededError(int(min(size, sys.float_info.max)), BUDGET_CAP)
    size = int(size)
    starts, acc = ends - total[rest], np.zeros(rest.size)
    for lo in range(0, size, _HEAD_CHUNK):
        hi = min(lo + _HEAD_CHUNK, size)
        first, last = np.searchsorted(ends, [lo, hi - 1], side="right").tolist()
        blocks = slice(first, last + 1)
        counts = (np.minimum(ends[blocks], hi) - np.maximum(starts[blocks], lo)).astype(np.int64)
        # t[0] is the first block's sum so far, then its terms and the others'
        t = np.empty(hi - lo + 1)
        t[0] = acc[first]
        terms = np.subtract(np.arange(lo + 1.0, hi + 1.0), np.repeat(starts[blocks], counts), out=t[1:])
        terms *= np.repeat(step[blocks], counts)
        terms += 1.0
        np.power(terms, alpha, out=terms)
        counts[0] += 1
        acc[blocks] = np.bincount(np.repeat(np.arange(counts.size), counts), weights=t)
    total[rest] = acc
    with np.errstate(over="ignore"):  # saturates to +-inf for orders near the float range
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
    narrow = lc + math.log(scale * 1e13) <= la
    # the summand is constant to within 1e-13 on these: c * mid**alpha, with
    # log mid = log a + (c - 1)/(2a) to first order, and (c - 1)/a below 1e-13
    log_a, log_c = la[narrow], lc[narrow]
    out[narrow] = log_c + alpha * (log_a + 0.5 * np.exp(log_c - log_a) * -np.expm1(-log_c))
    # head plus certified tail, the head doubling where the certificate fails;
    # a block the head covers (c <= head + 1, so c is exact from its log) is
    # summed term by term.  ``_head_logs`` counts a pass's head terms against
    # BUDGET_CAP before any is summed, leaving out the blocks whose terms all
    # round to 1.0.  A head longer than the cap may pass the float range, so
    # it is refused first where a tail block, or a covered count past the
    # float range, would take it: one such block would pass the cap alone
    todo = np.flatnonzero(~narrow)
    head = max(32, 4 * scale)
    while todo.size:
        tail = lc[todo] > math.log(2 * head + 3) - _LN2  # log(head + 1.5) from the exact int: head may pass 1e308
        done, todo = todo[~tail], todo[tail]
        with np.errstate(over="ignore"):  # a covered count past the float range saturates
            counts = np.rint(np.exp(lc[done]))
        if head > BUDGET_CAP and (todo.size or np.isinf(counts).any()):
            raise BudgetExceededError(head * max(todo.size, 1), BUDGET_CAP)
        if not todo.size:
            out[done] = _head_logs(la[done], np.exp(-la[done]), counts, alpha)
            break
        # the tails first, then one head pass over the covered blocks and the certified tails
        log_a, log_c = la[todo], lc[todo]
        inv_a = np.exp(-log_a)
        log_lo = log_a + np.log1p(head * inv_a)
        # log(hi/lo) = log1p of the tail's width (c - 1 - head) over lo = a + head
        log_width = log_c + np.log1p(-(head + 1.0) * np.exp(-log_c))
        span = np.logaddexp(0.0, log_width - log_lo)
        tail_logs, ok = _tail_logs(log_lo, span, alpha)
        logs = _head_logs(np.concatenate((la[done], log_a[ok])), np.concatenate((np.exp(-la[done]), inv_a[ok])),
                          np.concatenate((counts, np.full(int(ok.sum()), float(head)))), alpha)
        out[done] = logs[:done.size]
        out[todo[ok]] = np.logaddexp(logs[done.size:], tail_logs[ok])
        todo = todo[~ok]
        head *= 2
    return out


def _log_weights(y: np.ndarray, minus_one: bool) -> np.ndarray:
    """log|t**alpha - 1| (minus_one) or log t**alpha, given y = alpha log t."""
    if not minus_one:
        return y
    with np.errstate(divide="ignore"):
        return np.maximum(y, 0.0) + _log1mexp(-np.abs(y))


# The helpers below run inside poly_power_sums_log's errstate: logs of 0 are -inf, and a
# non-finite tail or bound fails its certificate.


def _times_log(power: np.ndarray, log_base: np.ndarray) -> np.ndarray:
    """power * log_base, broadcast, with 0 * log 0 = 0."""
    return np.where(power > 0, power * log_base, 0.0)


def _logsumexp(values: np.ndarray, axis: int) -> np.ndarray:
    top = values.max(axis=axis, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    return np.squeeze(top, axis) + np.log(np.exp(values - top).sum(axis=axis))


def _group_logsumexp(values: np.ndarray, groups: np.ndarray, size: int) -> np.ndarray:
    top = np.full(size, -np.inf)
    np.maximum.at(top, groups, values)
    top = np.where(np.isfinite(top), top, 0.0)
    return top + np.log(np.bincount(groups, weights=np.exp(values - top[groups]), minlength=size))


@lru_cache(maxsize=None)
def _legendre(nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log s, log(1 - s) and log weight of the Gauss-Legendre nodes s on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    return np.log(0.5 * (1.0 + x)), np.log(0.5 * (1.0 - x)), np.log(0.5 * w)


@lru_cache(maxsize=None)
def _leibniz(degrees: tuple[tuple[int, int], ...]) -> list:
    """Per r = 0..top, the terms of D^r[u**i v**j] over the basis, with v falling as u rises.

    D^r[u**i v**j] = sum_s C(r, s) (i)_s (j)_(r-s) (-1)**(r-s) u**(i-s) v**(j-r+s);
    each term is (log|coefficient|, sign, power of u, power of v), arrays over the basis.
    """
    i, j = np.array(degrees).T
    table = []
    for r in range(int((i + j).max()) + 1):
        terms = []
        for s in range(r + 1):
            coef = np.array([math.comb(r, s) * math.perm(a, s) * math.perm(b, r - s) for a, b in degrees], dtype=float)
            live = coef > 0.0
            if live.any():
                log_coef = np.where(live, np.log(np.where(live, coef, 1.0)), -np.inf)
                terms.append((log_coef, (-1.0) ** (r - s), np.where(live, i - s, 0), np.where(live, j - r + s, 0)))
        table.append(terms)
    return table


def _poly_derivatives(log_coefs, table, log_u, log_v, absolute: bool = False):
    """(P^(r) * exp(-shift) for r = 0..top, shift) at one point per row, u and v given in logs.

    With ``absolute`` every term counts positive: a bound on |P^(r)| where u and v are upper bounds.
    """
    log_u, log_v = log_u[:, None], log_v[:, None]
    parts = [[(1.0 if absolute else sign, log_coefs + lc + _times_log(eu, log_u) + _times_log(ev, log_v))
              for lc, sign, eu, ev in terms] for terms in table]
    shift = np.max([q.max(axis=1) for terms in parts for _, q in terms], axis=0)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    out = np.zeros((log_coefs.shape[0], len(table)))
    for r, terms in enumerate(parts):
        for sign, q in terms:
            out[:, r] += sign * np.exp(q - shift[:, None]).sum(axis=1)
    return out, shift


def _falling(alpha: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """log|(alpha)_k| and the sign of (alpha)_k for k = 0..count - 1."""
    factors = alpha - np.arange(count - 1)
    with np.errstate(divide="ignore"):
        logs = np.concatenate([[0.0], np.cumsum(np.log(np.abs(factors)))])
    return logs, np.concatenate([[1.0], np.cumprod(np.sign(factors))])


def _log_derivative_bounds(k, falling, bounds, shift, log_lo, log_hi, alpha):
    """log of sum_r C(k, r) |(alpha)_(k-r)| max x**(alpha-k+r) |P^(r)| per piece, a bound on |f^(k)|."""
    terms = []
    for r in range(bounds.shape[1]):
        power = alpha - k + r
        terms.append(math.log(math.comb(k, r)) + falling[k - r] + power * (log_lo if power < 0 else log_hi)
                     + shift + np.log(bounds[:, r]))
    return _logsumexp(np.array(terms), 0)


def _chunks(costs: list[int]) -> list[slice]:
    """Consecutive runs of rows whose costs sum to at most ``_CELLS``, each run at least one row."""
    out, lo, total = [], 0, 0
    for row, cost in enumerate(costs):
        if row > lo and total + cost > _CELLS:
            out.append(slice(lo, row))
            lo, total = row, 0
        total += cost
    return out + [slice(lo, len(costs))]


def _poly_head_logs(starts, widths, log_coefs, degrees, count, alpha, minus_one):
    """log|sum w(a + u) P(a + u)| over u = 0..min(count - 1, W) per row, W = b - a.

    Rows go in groups whose term counts share a bit length, each group over
    its longest row's terms, in chunks of at most ``_CELLS`` values.
    """
    terms = [min(w, count - 1) + 1 for w in widths]
    groups: dict[int, list[int]] = {}
    for row, size in enumerate(terms):
        groups.setdefault(size.bit_length(), []).append(row)
    out = np.empty(len(terms))
    for rows in groups.values():
        size = max(terms[r] for r in rows)
        for part in _chunks([size * len(degrees)] * len(rows)):
            part = rows[part]
            out[part] = _poly_head_chunk([starts[r] for r in part], [widths[r] for r in part], log_coefs[part],
                                         degrees, size, alpha, minus_one)
    return out


def _poly_head_chunk(starts, widths, log_coefs, degrees, count, alpha, minus_one):
    """``_poly_head_logs`` on rows that all sum over u = 0..count - 1 or to their end."""
    u = np.arange(count, dtype=np.float64)
    log_u = np.log(u)
    log_a = log_ints(starts, max(starts))
    log_w = np.array([math.log(w) if w else -math.inf for w in widths])
    small = np.array([float(min(w, 1 << 53)) for w in widths])
    # v = W - u exactly below 2**53, and from u / W < 2**-40 above
    log_v = np.where((small < 2.0**53)[:, None], np.log(np.maximum(small[:, None] - u, 0.0)),
                     log_w[:, None] + np.log1p(-np.exp(log_u - log_w[:, None])))
    i, j = degrees[:, 0], degrees[:, 1]
    q = (log_coefs[:, :, None] + _times_log(i[None, :, None], log_u[None, None, :])
         + _times_log(j[None, :, None], log_v[:, None, :]))
    terms = _logsumexp(q, 1) + _log_weights(alpha * np.logaddexp(log_a[:, None], log_u), minus_one)
    return _logsumexp(np.where(u <= small[:, None], terms, -np.inf), 1)


def _poly_tail_logs(starts, stops, log_coefs, degrees, table, head, nodes, p, alpha, minus_one):
    """log of the Euler-Maclaurin tail on [a + head, b] per row, and whether its two bounds hold."""
    rows = len(starts)
    # integer pieces [c, c + c // 4] cover each tail; c >= head >= 32
    owner, ints = [], []
    for row, (a, b) in enumerate(zip(starts, stops)):
        c = a + head
        while c < b:
            c2 = min(b, c + (c >> 2))
            owner.append(row)
            ints += (c, c2 - c, c - a, b - c2)
            c = c2
    owner = np.array(owner)
    log_c, log_d, log_e, log_g = np.array([math.log(x) if x else -math.inf for x in ints]).reshape(-1, 4).T
    log_s, log_1s, log_w = _legendre(nodes)
    log_x = np.logaddexp(log_c[:, None], log_d[:, None] + log_s)
    log_u = np.logaddexp(log_e[:, None], log_d[:, None] + log_s)
    log_v = np.logaddexp(log_g[:, None], log_d[:, None] + log_1s)
    i, j = degrees[:, 0], degrees[:, 1]
    q = log_coefs[owner][:, :, None] + i[None, :, None] * log_u[:, None, :] + j[None, :, None] * log_v[:, None, :]
    integrand = log_d[:, None] + log_w + _log_weights(alpha * log_x, minus_one) + _logsumexp(q, 1)
    lam = _group_logsumexp(integrand.ravel(), np.repeat(owner, nodes), rows)

    # f = w P, f^(k) = sum_r C(k, r) w^(k-r) P^(r), with w^(0) = w and w^(k) = (alpha)_k x**(alpha-k)
    sigma = -1.0 if minus_one and alpha < 0.0 else 1.0
    falling, signs = _falling(alpha, 2 * max(p, nodes) + 1)
    a_arr = np.array([math.log(a + head) for a in starts])
    b_arr = np.array([math.log(b) for b in stops])
    orders = [0] + [2 * q - 1 for q in range(1, p + 1)]
    kappa = np.arange(2 * p)
    picks = np.array([[max(k - r, 0) for r in range(len(table))] for k in orders])
    binom = np.array([[math.comb(k, r) for r in range(len(table))] for k in orders], dtype=float)
    ends = []
    for log_end, log_u_end, log_v_end in ((a_arr, np.full(rows, math.log(head)),
                                           np.array([math.log(b - a - head) for a, b in zip(starts, stops)])),
                                          (b_arr, np.array([math.log(b - a) for a, b in zip(starts, stops)]),
                                           np.full(rows, -np.inf))):
        derivs, shift = _poly_derivatives(log_coefs, table, log_u_end, log_v_end)
        scale = (shift - lam)[:, None]
        weights = signs[kappa] * np.exp(falling[kappa] + (alpha - kappa) * log_end[:, None] + scale)
        weights[:, 0] = sigma * np.exp(_log_weights(alpha * log_end, minus_one) + scale[:, 0])
        ends.append(np.einsum("kr,nkr,nr->nk", binom, weights[:, picks], derivs))
    fa, fb = ends
    correction = 0.5 * (fa[:, 0] + fb[:, 0]) + (fb[:, 1:] - fa[:, 1:]) @ np.array(_BERNOULLI[:p])
    tail = lam + np.log1p(sigma * correction)

    # bounds on |f^(k)| on each piece, from u <= e + d and v <= g + d there
    bounds, shift = _poly_derivatives(log_coefs[owner], table, np.logaddexp(log_e, log_d),
                                      np.logaddexp(log_g, log_d), absolute=True)
    log_hi = np.logaddexp(log_c, log_d)
    em = _log_derivative_bounds(2 * p, falling, bounds, shift, log_c, log_hi, alpha)
    em = math.log(2.0 * _ZETA_10) - 2 * p * math.log(2.0 * math.pi) + _group_logsumexp(log_d + em, owner, rows)
    gl = _log_derivative_bounds(2 * nodes, falling, bounds, shift, log_c, log_hi, alpha)
    log_kn = 4.0 * math.lgamma(nodes + 1) - math.log(2 * nodes + 1) - 3.0 * math.lgamma(2 * nodes + 1)
    gl = log_kn + _group_logsumexp((2 * nodes + 1) * log_d + gl, owner, rows)
    limit = tail + math.log(0.5 * _POLY_RTOL)
    return tail, em <= limit, gl <= limit


def poly_power_sums_log(starts, stops, degrees, log_coefs, alpha: float, minus_one: bool = False) -> np.ndarray:
    """log|sum_{t=a}^{b} w(t) P(t)| per row (a, b), w(t) = t**alpha - 1 (minus_one) or t**alpha.

    P(t) = sum_l c_l (t - a)**i_l (b - t)**j_l with every c_l >= 0, the
    basis (i_l, j_l) given by ``degrees`` and log c_l (-inf for none) by
    the rows of ``log_coefs``; starts and stops are ints of any size.  A
    row's head covers it where b - a <= H; the rest take the certified tail
    of the module docstring, with H and N doubling where a bound fails.
    Orders past ``POLY_MAX_ORDER`` in size raise ``ValueError``.
    """
    alpha = _finite_order(alpha)
    if abs(alpha) > POLY_MAX_ORDER:
        raise ValueError(f"polynomial power sums take orders up to {POLY_MAX_ORDER} in size, got {alpha}")
    degrees = np.asarray(degrees, dtype=np.int64).reshape(-1, 2)
    log_coefs = np.asarray(log_coefs, dtype=np.float64)
    table = _leibniz(tuple(map(tuple, degrees.tolist())))
    p = max(5, len(table) // 2 + 1)  # 2p > the degree, so f^(2p) has no w^(0) term
    if p > len(_BERNOULLI):
        raise ValueError(f"polynomial degree {len(table) - 1} is above {2 * len(_BERNOULLI) - 2}")
    widths = [b - a for a, b in zip(starts, stops)]
    out = np.full(len(starts), -np.inf)
    if minus_one and alpha == 0.0:
        return out
    head, nodes = max(32, 4 * (int(abs(alpha)) + 1)), min(12 + int(abs(alpha)), _MAX_NODES)
    leibniz_terms = sum(len(terms) for terms in table)
    todo = np.arange(len(starts))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while todo.size:
            covered = np.array([widths[r] <= head for r in todo.tolist()])
            done = todo[covered]
            if done.size:
                out[done] = _poly_head_logs([starts[r] for r in done.tolist()], [widths[r] for r in done.tolist()],
                                            log_coefs[done], degrees, head + 1, alpha, minus_one)
            todo = todo[~covered]
            if not todo.size:
                break
            rows_a = [starts[r] for r in todo.tolist()]
            rows_b = [stops[r] for r in todo.tolist()]
            # a tail row's largest arrays hold basis * max(nodes, Leibniz terms) values per piece and end
            cells = len(degrees) * max(nodes, leibniz_terms)
            costs = [cells * (3 + int((math.log(b) - math.log(a + head)) / _LOG_PIECE))
                     for a, b in zip(rows_a, rows_b)]
            tail, em_ok, gl_ok = (np.concatenate(parts) for parts in zip(*(
                _poly_tail_logs(rows_a[part], rows_b[part], log_coefs[todo[part]], degrees, table, head, nodes, p,
                                alpha, minus_one) for part in _chunks(costs))))
            first = _poly_head_logs(rows_a, [widths[r] for r in todo.tolist()], log_coefs[todo], degrees, head,
                                    alpha, minus_one)
            ok = em_ok & gl_ok
            out[todo[ok]] = np.logaddexp(first[ok], tail[ok])
            if not gl_ok.all():
                if nodes == _MAX_NODES:
                    raise ValueError(f"order {alpha} polynomial sums are not certified with {nodes} nodes")
                nodes = min(2 * nodes, _MAX_NODES)
            if not em_ok.all():
                head *= 2
            todo = todo[~ok]
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
