"""Reference computations for the benchmark's output checks, made apart from guesslab.

Nothing here imports guesslab.  Every function takes a joint pmf as a list
of rows (one row per x symbol, one column per y symbol, symbols already in
sorted order) and recomputes a quantity the program reports:

- ``rank_pmf``: the brute-force per-rank law.  Every double is m * 2**e,
  so the joint entries become integer numerators over one power of two and
  the |X|**n x-sequences of every y-type are sorted by exact integer keys.
- ``bsc_blocks`` and friends: the binary symmetric channel in closed form.
  Given any y-sequence, the x-sequences at Hamming distance d form one block
  of C(n, d) ranks at joint level a**(n-d) * b**d.
- ``power_sum``: sum of r**alpha over a rank range as a difference of two
  Hurwitz zeta values (in mpmath), or from Faulhaber's formulas for alpha in
  {0, 1, 2}.
- ``scgf``, ``scgf_prime``, ``rate``: the closed-form SCGF
  Lambda(alpha) = log sum_y (sum_x p**(1/(1+alpha)))**(1+alpha), its
  derivative as a tilted expectation, and its Legendre transform by Newton's
  method on Lambda'(alpha) = x.
- ``moment_interval``: Arikan's finite-n sandwich for alpha > -1 and the
  P(G = 1) plateau window for alpha <= -1, both on log E G**alpha.
- ``kmin_pmf``: the k-th smallest of m independent ranks, by a
  Poisson-binomial recursion in exact rationals over per-rank pmfs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import mpmath
import numpy as np

__all__ = [
    "ExactLaw",
    "exact_joint",
    "y_types",
    "rank_pmf",
    "brute_rank",
    "law_log_moment",
    "law_window_prob",
    "bsc_blocks",
    "bsc_rank_pmf",
    "bsc_moment_exact",
    "bsc_log_moment",
    "bsc_log_window",
    "bsc_mean_log_rank",
    "bsc_rank",
    "hurwitz",
    "power_sum",
    "uniform_log_moment",
    "uniform_window_count",
    "uniform_mean_log_rank",
    "window_ranks",
    "scgf",
    "scgf_prime",
    "scgf_second",
    "gamma",
    "h_inf",
    "h_shannon",
    "x_sup",
    "rate",
    "arimoto",
    "renyi",
    "moment_interval",
    "kmin_pmf",
    "type_levels",
]


class ExactLaw:
    """Per-rank pmf as integer numerators over the common denominator 2**shift."""

    def __init__(self, numerators: list[int], shift: int):
        self.numerators = numerators
        self.shift = shift

    @property
    def ranks(self) -> int:
        return len(self.numerators)

    def fraction(self, rank: int) -> Fraction:
        return Fraction(self.numerators[rank - 1], 1 << self.shift)

    def floats(self) -> np.ndarray:
        """Correctly rounded per-rank probabilities (int / int rounds exactly once)."""
        denom = 1 << self.shift
        return np.array([num / denom for num in self.numerators])


def exact_joint(joint) -> tuple[list[list[int]], int]:
    """Integer numerators N and shift K with joint[x][y] == N[x][y] / 2**K exactly."""
    fracs = [[Fraction(float(v)) for v in row] for row in joint]
    shift = max(f.denominator.bit_length() - 1 for row in fracs for f in row)
    nums = [
        [f.numerator << (shift - (f.denominator.bit_length() - 1)) for f in row]
        for row in fracs
    ]
    return nums, shift


def y_types(n: int, y_size: int):
    """All y count vectors summing to n."""
    if y_size == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in y_types(n - head, y_size - 1):
            yield (head,) + rest


def _multinomial(counts) -> int:
    value, remaining = 1, sum(counts)
    for c in counts:
        value *= math.comb(remaining, c)
        remaining -= c
    return value


def _x_keys(nums: list[list[int]], y_seq: list[int]) -> list[int]:
    """Joint numerator of every x-sequence given y_seq, in lexicographic x order."""
    keys = [1]
    x_size = len(nums)
    for y in y_seq:
        col = [nums[x][y] for x in range(x_size)]
        keys = [k * c for k in keys for c in col]
    return keys


def rank_pmf(joint, n: int) -> ExactLaw:
    """Brute-force unconditional rank law: sum over y-types of the sorted x keys."""
    nums, shift = exact_joint(joint)
    y_size = len(nums[0])
    total = [0] * (len(nums) ** n)
    for counts in y_types(n, y_size):
        rep = [y for y, c in enumerate(counts) for _ in range(c)]
        mult = _multinomial(counts)
        for r, key in enumerate(sorted(_x_keys(nums, rep), reverse=True)):
            total[r] += mult * key
    return ExactLaw(total, shift * n)


def brute_rank(joint, x_seq: list[int], y_seq: list[int]) -> int:
    """Rank of x_seq given y_seq: keys descending, ties in lexicographic x order."""
    nums, _ = exact_joint(joint)
    keys = _x_keys(nums, y_seq)
    target = 0
    for x in x_seq:
        target = target * len(nums) + x
    key = keys[target]
    if key == 0:
        positive = sum(1 for k in keys if k > 0)
        return positive + sum(1 for i in range(target) if keys[i] == 0) + 1
    return 1 + sum(1 for k in keys if k > key) + sum(1 for i in range(target) if keys[i] == key)


def law_log_moment(law: ExactLaw, alpha: float) -> float:
    """log E G**alpha from a per-rank law, summed rank by rank."""
    ranks = np.arange(1, law.ranks + 1, dtype=np.float64)
    probs = law.floats()
    keep = probs > 0.0
    terms = np.log(probs[keep]) + alpha * np.log(ranks[keep])
    top = float(np.max(terms))
    return top + math.log(math.fsum(np.exp(terms - top).tolist()))


def law_window_prob(law: ExactLaw, r_lo: int, r_hi: int) -> Fraction:
    """P(r_lo <= G <= r_hi) exactly."""
    lo, hi = max(1, r_lo), min(law.ranks, r_hi)
    if hi < lo:
        return Fraction(0)
    return Fraction(sum(law.numerators[lo - 1 : hi]), 1 << law.shift)


# --- binary symmetric channel in closed form -------------------------------


def bsc_blocks(a: float, b: float, n: int) -> list[tuple[int, int, Fraction]]:
    """(start, count, joint level) of the rank law given any y-sequence; a > b."""
    fa, fb = Fraction(a), Fraction(b)
    blocks, start = [], 1
    for d in range(n + 1):
        count = math.comb(n, d)
        blocks.append((start, count, fa ** (n - d) * fb**d))
        start += count
    return blocks


def bsc_rank_pmf(a: float, b: float, n: int) -> ExactLaw:
    """Per-rank pmf: each of the 2**n y-sequences has the same blocks."""
    blocks = bsc_blocks(a, b, n)
    shift = max(level.denominator.bit_length() - 1 for _, _, level in blocks)
    nums = []
    for _, count, level in blocks:
        num = (level.numerator << (shift - (level.denominator.bit_length() - 1))) << n
        nums.extend([num] * count)
    return ExactLaw(nums, shift)


def _faulhaber(m: int, k: int) -> int:
    """sum_{r=1}^{m} r**k for k in {0, 1, 2}."""
    if k == 0:
        return m
    if k == 1:
        return m * (m + 1) // 2
    return m * (m + 1) * (2 * m + 1) // 6


def bsc_moment_exact(a: float, b: float, n: int, k: int) -> Fraction:
    """E G**k for k in {0, 1, 2} as an exact Fraction."""
    total = Fraction(0)
    for start, count, level in bsc_blocks(a, b, n):
        total += level * (_faulhaber(start + count - 1, k) - _faulhaber(start - 1, k))
    return total * 2**n


HURWITZ_START = 64  # the asymptotic series is used from here on
HURWITZ_TERMS = 24


def hurwitz(s: float, a: int) -> mpmath.mpf:
    """Hurwitz zeta(s, a) = sum_{r >= a} r**-s (continued analytically for s < 1).

    Terms below HURWITZ_START are added one by one; the tail is the
    asymptotic series a**(1-s)/(s-1) + a**-s/2 + sum_k B_2k/(2k)! (s)_(2k-1)
    a**(1-s-2k), whose k-th term at a >= 64 is below (2k)!/(2 pi 64)**(2k).
    mpmath.zeta gives the same values but slows down in proportion to a
    for s < 0, and the ranks here reach 10**7.
    """
    s = mpmath.mpf(s)
    head = mpmath.mpf(0)
    while a < HURWITZ_START:
        head += mpmath.mpf(a) ** -s
        a += 1
    a = mpmath.mpf(a)
    total = a ** (1 - s) / (s - 1) + a**-s / 2
    rising = s  # s (s+1) ... (s+2k-2)
    power = a ** (-s - 1)
    for k in range(1, HURWITZ_TERMS + 1):
        total += mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * rising * power
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        power /= a * a
    return head + total


def power_sum(lo: int, hi: int, alpha: float) -> mpmath.mpf:
    """sum_{r=lo}^{hi} r**alpha at the current mpmath precision."""
    alpha = float(alpha)
    if alpha in (0.0, 1.0, 2.0):
        return mpmath.mpf(_faulhaber(hi, int(alpha)) - _faulhaber(lo - 1, int(alpha)))
    if alpha == -1.0:
        return mpmath.digamma(hi + 1) - mpmath.digamma(lo)
    return hurwitz(-alpha, lo) - hurwitz(-alpha, hi + 1)


def _dps_for(total_ranks: int) -> int:
    # a block of one rank deep in a long law cancels about log10(total) digits
    return 30 + len(str(total_ranks))


def bsc_log_moment(a: float, b: float, n: int, alpha: float) -> float:
    """log E G**alpha from the Hurwitz zeta function, block by block."""
    with mpmath.workdps(_dps_for(2**n)):
        total = mpmath.mpf(0)
        for start, count, level in bsc_blocks(a, b, n):
            weight = mpmath.mpf(level.numerator) / level.denominator
            total += weight * power_sum(start, start + count - 1, alpha)
        return float(mpmath.log(total * 2**n))


def bsc_log_window(a: float, b: float, n: int, r_lo: int, r_hi: int) -> float:
    """log P(r_lo <= G <= r_hi) from exact block overlaps; -inf when empty."""
    mass = Fraction(0)
    for start, count, level in bsc_blocks(a, b, n):
        lo, hi = max(start, r_lo), min(start + count - 1, r_hi)
        if hi >= lo:
            mass += level * (hi - lo + 1)
    if mass == 0:
        return -math.inf
    return math.log(mass.numerator) - math.log(mass.denominator) + n * math.log(2.0)


def bsc_mean_log_rank(a: float, b: float, n: int) -> float:
    """E log G, with sum_{r=lo}^{hi} log r = lgamma(hi+1) - lgamma(lo)."""
    with mpmath.workdps(_dps_for(2**n)):
        total = mpmath.mpf(0)
        for start, count, level in bsc_blocks(a, b, n):
            weight = mpmath.mpf(level.numerator) / level.denominator
            total += weight * (mpmath.loggamma(start + count) - mpmath.loggamma(start))
        return float(total * 2**n)


def bsc_rank(x_seq: list[int], y_seq: list[int]) -> int:
    """Rank of x given y: distance blocks, then lexicographic offset among equal distance."""
    n = len(x_seq)
    d = sum(1 for x, y in zip(x_seq, y_seq) if x != y)
    before = sum(math.comb(n, j) for j in range(d))
    offset = 0
    used = 0
    for j in range(n):
        if x_seq[j] == 1:
            # x' agrees on the prefix and puts symbol 0 here
            need = d - used - (1 if y_seq[j] != 0 else 0)
            rest = n - j - 1
            if 0 <= need <= rest:
                offset += math.comb(rest, need)
        used += 1 if x_seq[j] != y_seq[j] else 0
    return before + offset + 1


# --- uniform binary X with no side information -----------------------------


def uniform_log_moment(n: int, alpha: float) -> float:
    """log E G**alpha for G uniform on 1..2**n."""
    with mpmath.workdps(_dps_for(2**n)):
        return float(mpmath.log(power_sum(1, 2**n, alpha)) - n * mpmath.log(2))


def _exp_rounded(t: float, up: bool) -> set[int]:
    """ceil (up) or floor of e**t for the exact double t.

    Where e**t lies within 1e-12 of an integer k, a correctly working program
    that rounds exp to a double may land on either side of k, so both
    neighbours are returned.
    """
    with mpmath.workdps(60):
        v = mpmath.exp(mpmath.mpf(t))
        k = int(mpmath.nint(v))
        if abs(v - k) <= v * mpmath.mpf(1e-12):
            return {k, k + 1} if up else {k - 1, k}
        return {int(mpmath.ceil(v))} if up else {int(mpmath.floor(v))}


def window_ranks(n: int, lo: float, hi: float, total: int) -> list[tuple[int, int]]:
    """The rank ranges [r_lo, r_hi] of log(r)/n in [lo, hi], clipped to 1..total.

    n*lo and n*hi are the products in double precision, as a program computes
    them.  Almost always there is one range; see ``_exp_rounded``.
    """
    los = {1} if n * lo <= 0 else {max(1, r) for r in _exp_rounded(n * lo, True)}
    his = {0} if n * hi < 0 else {min(total, r) for r in _exp_rounded(n * hi, False)}
    return sorted((a, b) for a in los for b in his)


def uniform_window_count(n: int, lo: float, hi: float) -> list[int]:
    """Number of ranks of 1..2**n inside the log window, one per range of ``window_ranks``."""
    return [max(0, r_hi - r_lo + 1) for r_lo, r_hi in window_ranks(n, lo, hi, 2**n)]


def uniform_mean_log_rank(n: int) -> float:
    """E log G = log((2**n)!) / 2**n."""
    with mpmath.workdps(40):
        return float(mpmath.loggamma(2**n + 1) / 2**n)


# --- SCGF, its derivatives and the rate function ----------------------------


def _log_columns(joint) -> list[np.ndarray]:
    arr = np.asarray(joint, dtype=np.float64)
    return [np.log(arr[:, j][arr[:, j] > 0.0]) for j in range(arr.shape[1])]


def _lse(v: np.ndarray) -> float:
    top = float(np.max(v))
    return top + math.log(float(np.sum(np.exp(v - top))))


def _tilt(joint, alpha: float):
    """Per-column f_y = s log sum_x p**(1/s), tilted entropies H(q_y), Var_q(log p)."""
    s = 1.0 + alpha
    f, ent, var = [], [], []
    for logs in _log_columns(joint):
        z = logs / s
        lz = _lse(z)
        log_q = z - lz
        q = np.exp(log_q)
        q /= q.sum()
        mean = float(np.dot(q, logs))
        f.append(s * lz)
        # -sum q log q from log q itself: lz - mean/s cancels badly as s -> 0
        ent.append(-float(np.dot(q, log_q)))
        var.append(float(np.dot(q, (logs - mean) ** 2)))
    return s, np.array(f), np.array(ent), np.array(var)


def h_inf(joint) -> float:
    arr = np.asarray(joint, dtype=np.float64)
    return -math.log(math.fsum(arr.max(axis=0).tolist()))


def h_shannon(joint) -> float:
    """H(X|Y) = -sum p(x,y) log p(x|y)."""
    arr = np.asarray(joint, dtype=np.float64)
    terms = []
    for j in range(arr.shape[1]):
        col = arr[:, j]
        py = math.fsum(col.tolist())
        terms.extend(float(v) * math.log(float(v) / py) for v in col if v > 0.0)
    return -math.fsum(terms)


def x_sup(joint) -> float:
    """log of the largest column support: ranks above it have probability zero."""
    arr = np.asarray(joint, dtype=np.float64)
    return math.log(int((arr > 0.0).sum(axis=0).max()))


def scgf(joint, alpha: float) -> float:
    """Lambda(alpha); the plateau -H_inf(X|Y) for alpha <= -1."""
    alpha = float(alpha)
    if alpha <= -1.0:
        return -h_inf(joint)
    _, f, _, _ = _tilt(joint, alpha)
    return _lse(f)


def scgf_prime(joint, alpha: float) -> float:
    """Lambda'(alpha) = sum_y w_y H(q_y): tilted column weights times tilted entropies."""
    _, f, ent, _ = _tilt(joint, alpha)
    w = np.exp(f - _lse(f))
    return float(np.dot(w, ent))


def scgf_second(joint, alpha: float) -> float:
    """Lambda''(alpha) = sum_y w_y Var_q(log p)/s**3 + Var_w(H(q_y))."""
    s, f, ent, var = _tilt(joint, alpha)
    w = np.exp(f - _lse(f))
    mean = float(np.dot(w, ent))
    return float(np.dot(w, var)) / s**3 + float(np.dot(w, (ent - mean) ** 2))


def gamma(joint) -> float:
    """Lambda'(-1+) = sum_y (m_y / sum m) log t_y, m_y the column max, t_y its ties."""
    arr = np.asarray(joint, dtype=np.float64)
    top = arr.max(axis=0)
    ties = (arr == top[np.newaxis, :]).sum(axis=0)
    return math.fsum((top * np.log(ties)).tolist()) / math.fsum(top.tolist())


def rate(joint, x: float) -> tuple[float, float | None]:
    """(Lambda*(x), the maximizing alpha); alpha is None off the strictly convex branch.

    Lambda*(x) = H_inf - x on [0, gamma], +inf above log(max support), and
    alpha x - Lambda(alpha) with Lambda'(alpha) = x in between.  At x equal
    to log(max support) no finite alpha attains the slope; callers keep off it.
    """
    x = float(x)
    if x < 0.0:
        raise ValueError("rate function domain is x >= 0")
    if x > x_sup(joint):
        return math.inf, None
    if x <= gamma(joint):
        return h_inf(joint) - x, None
    # bracket s = 1 + alpha so that Lambda'(s_lo - 1) < x < Lambda'(s_hi - 1)
    s_lo, s_hi = 1.0, 1.0
    while scgf_prime(joint, s_lo - 1.0) > x and s_lo > 1e-9:
        s_lo /= 2.0
    while scgf_prime(joint, s_hi - 1.0) < x:
        s_hi *= 2.0
        if s_hi > 1e9:
            raise ArithmeticError(f"no alpha attains Lambda' = {x}")
    s = 0.5 * (s_lo + s_hi)
    for _ in range(200):
        g = scgf_prime(joint, s - 1.0) - x
        if g > 0.0:
            s_hi = s
        else:
            s_lo = s
        step = g / scgf_second(joint, s - 1.0)
        nxt = s - step
        if not s_lo < nxt < s_hi:
            nxt = 0.5 * (s_lo + s_hi)
        if abs(nxt - s) <= 1e-15 * s:
            s = nxt
            break
        s = nxt
    alpha = s - 1.0
    return alpha * x - scgf(joint, alpha), alpha


def arimoto(joint, order: float) -> float:
    """Arimoto conditional Renyi entropy H_order(X|Y) in nats."""
    order = float(order)
    arr = np.asarray(joint, dtype=np.float64)
    if order == math.inf:
        return h_inf(joint)
    if order == 0.0:
        return math.log(int((arr > 0.0).sum(axis=0).max()))
    if order == 1.0:
        return h_shannon(joint)
    outer = [_lse(order * logs) / order for logs in _log_columns(joint)]
    return order / (1.0 - order) * _lse(np.array(outer))


def renyi(pmf, order: float) -> float:
    """Renyi entropy of a pmf in nats."""
    p = np.asarray(pmf, dtype=np.float64)
    p = p[p > 0.0]
    order = float(order)
    if order == math.inf:
        return -math.log(float(p.max()))
    if order == 0.0:
        return math.log(p.size)
    if order == 1.0:
        return -math.fsum((p * np.log(p)).tolist())
    return _lse(order * np.log(p)) / (1.0 - order)


def moment_interval(joint, n: int, alpha: float) -> tuple[float, float]:
    """Interval that provably holds log E G**alpha at length n.

    alpha > -1: Arikan (1996), E G**alpha lies between e**(n Lambda) and
    e**(n Lambda) (1 + n ln|X|)**(-alpha).  alpha <= -1: P(G=1) <= E G**alpha
    <= P(G=1) (1 + n ln|X|), with P(G=1) = e**(-n H_inf).
    """
    x_size = len(joint)
    log_l = math.log1p(n * math.log(x_size))
    if alpha <= -1.0:
        lo = -n * h_inf(joint)
        return lo, lo + log_l
    base = n * scgf(joint, alpha)
    shift = -alpha * log_l
    return base + min(0.0, shift), base + max(0.0, shift)


# --- k-th smallest of m independent ranks ------------------------------------


def kmin_pmf(laws: list[ExactLaw], k: int) -> ExactLaw:
    """Law of the k-th smallest of independent ranks.

    P(G_(k) > t) = P(fewer than k users have G_i <= t), summed over the
    subsets of finished users; every user's survival is the mass of its
    ranks above t.  All values are integers over one power-of-two denominator.
    """
    m = len(laws)
    ranks = laws[0].ranks
    if any(law.ranks != ranks for law in laws):
        raise ValueError("users must share the rank span")
    shift = max(law.shift for law in laws)
    nums = [[v << (shift - law.shift) for v in law.numerators] for law in laws]
    totals = [sum(col) for col in nums]
    subsets = [set(s) for size in range(k) for s in combinations(range(m), size)]

    def below_k(done: list[int]) -> int:
        out = 0
        for subset in subsets:
            term = 1
            for i in range(m):
                term *= done[i] if i in subset else totals[i] - done[i]
            out += term
        return out

    done = [0] * m
    prev = below_k(done)
    pmf = []
    for t in range(ranks):
        for i in range(m):
            done[i] += nums[i][t]
        cur = below_k(done)
        pmf.append(prev - cur)
        prev = cur
    return ExactLaw(pmf, shift * m)


# --- single-y method of types -------------------------------------------------


def type_levels(pmf: list[float], n: int) -> list[tuple[float, int]]:
    """(log level, count) of every x-type of a source with one y symbol, levels descending.

    Exact levels compare as integers; ties between different types merge.
    """
    nums, shift = exact_joint([[p] for p in pmf])
    flat = [row[0] for row in nums]
    merged: dict[int, int] = {}
    for counts in y_types(n, len(flat)):
        key = 1
        for num, c in zip(flat, counts):
            key *= num**c
        merged[key] = merged.get(key, 0) + _multinomial(counts)
    out = []
    for key in sorted(merged, reverse=True):
        if key == 0:
            continue
        out.append((math.log(key) - shift * n * math.log(2.0), merged[key]))
    return out
