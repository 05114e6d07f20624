"""Parallel k-of-m conditional guesswork: exact order statistics and asymptotics.

G_{k,m} is the k-th smallest of m independent users' guess ranks.  Its
exact finite-n law is built from the users' rank laws.  Every
probability is an integer numerator over one denominator 2**K, K the
largest -e of the users' block levels m * 2**e.  Each user's per-rank
probability is constant on each segment between the union of all
users' block boundaries, so there P(G_i > t) is linear in t and
P(k-min > t), a Poisson-binomial over users, is a polynomial of degree
<= m in t.  The first min(m, length) ranks of a segment take the
Poisson-binomial recursion on those integers; the rest of the segment
extends the pmf from its m - 1 backward differences by integer
additions, exactly.  The survival differences telescope, so the pmf is
exactly nonnegative; each run of equal pmf values becomes one block,
keyed by its numerator (``dyadic.NumeratorCode``).

The asymptotic layer evaluates the rate function of G_{k,m} ~ e^(nx):
one user i lands at e^(nx) at cost Lambda*_i(x), k-1 others finish
below at cost delta_j(x) and the rest above at cost gam_j(x), with
delta/gam the below/above-Shannon clamps of each user's rate function.
The likeliest assignment of these roles sets the rate, so

    I_{k,m}(x) = min_i [Lambda*_i(x) + sum_{j != i} gam_j(x)
                        + (sum of the k-1 smallest delta_j(x) - gam_j(x), j != i)],

the minimum over all permutations of the users, found by selection.
Each assignment's cost I_a is convex, so the parallel SCGF, the Legendre
transform of I, is the largest over assignments a of the 1-D concave
maxima sup_x [alpha x - I_a(x)], each found exactly (Rockafellar, Convex
Analysis, Thm 16.4; Christiansen, Duffy, du Pin Calmon & Medard, IEEE
T-IT 61(12), 2015).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .dyadic import DYADIC_ONE, Dyadic, NumeratorCode
from .entropy import conditional_shannon
from .guesswork import GuessworkDistribution, YTypeLaw, guesswork_distribution
from .ldp import _MAX_STEPS, _V_COLD, RateFunction, _domain, _finite_orders, _shaped, scgf_derivative, scgf_limit
from .model import PairSource

__all__ = [
    "MAX_KMIN_RANKS",
    "MAX_KMIN_USERS",
    "EnsembleError",
    "UserEnsemble",
    "kmin_distribution",
    "kmin_moment_exact",
    "rate_parallel",
    "rate_parallel_iid",
    "scgf_parallel",
    "scgf_parallel_iid",
]

# k-min laws hold one pmf value per rank, |X|**n of them
MAX_KMIN_RANKS = 1 << 20
MAX_KMIN_USERS = 12
# scgf_parallel's role assignments, m * C(m-1, k-1), at most as many as for 12 users, k = 6
_MAX_ASSIGNMENTS = MAX_KMIN_USERS * math.comb(MAX_KMIN_USERS - 1, MAX_KMIN_USERS // 2 - 1)
# scgf_parallel's Newton stops where its predicted gain g**2 / (2 dF/dx) is below this
_GAIN_TOL = 1e-17
# it drops an assignment once its bound is this far below the best value found
_PRUNE_GAP = 1e-9


class EnsembleError(ValueError):
    """Invalid ensemble shape or an operation beyond its size limits."""


@dataclass(frozen=True)
class UserEnsemble:
    """m independent pair sources queried round-robin until k ranks resolve."""

    users: tuple[PairSource, ...]
    k: int

    def __post_init__(self):
        object.__setattr__(self, "users", tuple(self.users))
        if len(self.users) < 1:
            raise EnsembleError("ensemble needs at least one user")
        if not 1 <= self.k <= len(self.users):
            raise EnsembleError(f"k must satisfy 1 <= k <= {len(self.users)}, got {self.k}")
        sizes = {u.x_alphabet.size for u in self.users}
        if len(sizes) != 1:
            raise EnsembleError(f"users must share the x-alphabet size, got {sorted(sizes)}")

    @property
    def m(self) -> int:
        return len(self.users)

    @property
    def x_size(self) -> int:
        return self.users[0].x_alphabet.size

    @property
    def log_x_size(self) -> float:
        return self.users[0].log_x_size

    @cached_property
    def rate_functions(self) -> tuple[RateFunction, ...]:
        return tuple(RateFunction.from_source(u) for u in self.users)

    @cached_property
    def shannon_values(self) -> tuple[float, ...]:
        return tuple(conditional_shannon(u) for u in self.users)

    @cached_property
    def _roles(self) -> np.ndarray:
        """One row per assignment of the users to roles: 0 leads, -1 finishes below, +1 above."""
        rows = []
        for lead in range(self.m):
            for below in combinations([j for j in range(self.m) if j != lead], self.k - 1):
                rows.append([0.0 if j == lead else -1.0 if j in below else 1.0 for j in range(self.m)])
        return np.array(rows)


def kmin_distribution(ensemble: UserEnsemble, n: int) -> GuessworkDistribution:
    """Exact law of the k-th smallest of the m independent guess ranks."""
    if ensemble.m == 1:
        # degenerate k-min: the single-user law itself, bit for bit
        return guesswork_distribution(ensemble.users[0], n)
    if ensemble.m > MAX_KMIN_USERS:
        raise EnsembleError(f"k-min enumeration supports m <= {MAX_KMIN_USERS}, got {ensemble.m}")
    total = ensemble.x_size**n
    if total > MAX_KMIN_RANKS:
        # |X|**n itself may be too long to print in decimal
        raise EnsembleError(f"rank span {ensemble.x_size}**{n} exceeds {MAX_KMIN_RANKS} ranks")

    m = ensemble.m
    dists = [guesswork_distribution(u, n) for u in ensemble.users]
    user_levels = [_distinct_levels(dist) for dist in dists]
    # every probability below is an integer numerator over 2**shift
    shift = max(-level.e for levels in user_levels for level in levels.values())
    steps = {1: [0] * m, total + 1: [0] * m}  # per-user pmf changes, keyed by rank
    pending = [0] * m                         # T_i(t) = P(G_i > t)
    for i, (dist, exact) in enumerate(zip(dists, user_levels)):
        for law in dist.laws:
            start = 1
            for key, count in zip(law.keys, law.counts):  # the zero block has no key
                level = exact[key]
                q = (law.y_sequences * level.m) << (shift + level.e)
                steps.setdefault(start, [0] * m)[i] += q
                start += count
                steps.setdefault(start, [0] * m)[i] -= q
                pending[i] += q * count

    counts, keys = [], []
    for num in _kmin_pmf(steps, pending, ensemble.k):
        if keys and num == keys[-1]:
            counts[-1] += 1
        else:
            counts.append(1)
            keys.append(num)
    # user pmfs are positive on prefixes of the ranks, so the k-min pmf is too
    if not keys[-1]:
        keys.pop()
    code = NumeratorCode(shift * m)
    logs, scales = code.log_scales(keys)
    law = YTypeLaw(signature=(), members=(), y_sequences=1, py_product=DYADIC_ONE, counts=tuple(counts),
                   keys=tuple(keys), code=code, logs=logs, scales=scales)
    return GuessworkDistribution(n=n, x_size=ensemble.x_size, y_symbols=(), laws=(law,), monotone=False)


def _distinct_levels(dist: GuessworkDistribution) -> dict[int, Dyadic]:
    """The exact level of each distinct key of a single-user distribution (one code for all its laws)."""
    code = dist.laws[0].code
    return {key: code.dyadic(key) for key in {key for law in dist.laws for key in law.keys}}


def _survival(done: list[int], pending: list[int], k: int) -> int:
    """P(fewer than k users have finished), a Poisson-binomial over users."""
    coef = [1] + [0] * (k - 1)
    for f, r in zip(done, pending):
        coef = [coef[0] * r] + [coef[j] * r + coef[j - 1] * f for j in range(1, k)]
    return sum(coef)


def _kmin_pmf(steps: dict[int, list[int]], pending: list[int], k: int):
    """The numerator of P(k-min = t) for t = 1, 2, ..., segment by segment.

    ``steps`` maps each user block boundary to the users' pmf changes there
    and ``pending`` holds P(G_i > 0).  On a segment between boundaries every
    user pmf p_i is constant, so P(G_i > t) is linear in t, the survival
    P(k-min > t) a polynomial of degree <= m and the k-min pmf, its
    difference, one of degree <= m - 1.  The first m ranks take the
    Poisson-binomial; the rest extend their backward differences by m - 1
    integer additions per rank, exactly.
    """
    m = len(pending)
    done = [0] * m                      # F_i(t) = P(G_i <= t)
    probs = [0] * m                     # P(G_i = t)
    survival_prev = _survival(done, pending, k)
    boundaries = sorted(steps)
    for b, b_next in zip(boundaries, boundaries[1:]):
        probs = [p + d for p, d in zip(probs, steps[b])]
        head = []
        for _ in range(min(b_next - b, m)):
            for i in range(m):
                done[i] += probs[i]
                pending[i] -= probs[i]
            survival = _survival(done, pending, k)
            head.append(survival_prev - survival)
            survival_prev = survival
            yield head[-1]
        left = b_next - b - m
        if left <= 0:
            continue
        diffs = [head[-1]]              # backward differences at the last head rank
        for _ in range(m - 1):
            head = [hi - lo for lo, hi in zip(head, head[1:])]
            diffs.append(head[-1])
        for _ in range(left):
            for j in range(m - 2, -1, -1):
                diffs[j] += diffs[j + 1]
            yield diffs[0]
        for i in range(m):
            done[i] += probs[i] * left
            pending[i] -= probs[i] * left
        survival_prev = _survival(done, pending, k)


def kmin_moment_exact(
    ensemble: UserEnsemble,
    n: int,
    alpha: float,
    dist: GuessworkDistribution | None = None,
) -> float:
    """E G_{k,m}^alpha over the exact k-min law."""
    if dist is None:
        dist = kmin_distribution(ensemble, n)
    return dist.moment(alpha)


def _cheapest_assignment(ensemble: UserEnsemble, xs: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """I_{k,m} on a 1-D x array from the users' rate rows, rates[i] = Lambda*_i(xs)."""
    shannon = np.array(ensemble.shannon_values)[:, np.newaxis]
    delta = np.where(xs <= shannon, rates, 0.0)
    gam = np.where(xs >= shannon, rates, 0.0)
    m, k = ensemble.m, ensemble.k
    best = np.full(xs.shape, math.inf)
    for i in range(m):
        others = np.arange(m) != i
        below_d, above_g = delta[others], gam[others]
        # below the leader go the k-1 users whose finishing below costs least
        # relative to finishing above
        order = np.argsort(below_d - above_g, axis=0, kind="stable")
        below = np.take_along_axis(below_d, order[: k - 1], axis=0).sum(axis=0)
        above = np.take_along_axis(above_g, order[k - 1 :], axis=0).sum(axis=0)
        np.minimum(best, rates[i] + below + above, out=best)
    return best


def rate_parallel(ensemble: UserEnsemble, x):
    """I_{k,m}(x) for a scalar or an array of x: the likeliest assignment of roles."""
    xs = _domain(x)
    flat = xs.ravel()
    rates = np.stack([rf(flat) for rf in ensemble.rate_functions])
    return _shaped(xs, _cheapest_assignment(ensemble, flat, rates))


def rate_parallel_iid(source: PairSource, k: int, m: int, x):
    """I(k,m,x) = k Lambda*(x) below H(X|Y), (m-k+1) Lambda*(x) above."""
    if not 1 <= k <= m:
        raise EnsembleError(f"k must satisfy 1 <= k <= {m}, got {k}")
    xs = _domain(x)
    rate = RateFunction.from_source(source)(xs)
    return _shaped(xs, np.where(xs <= conditional_shannon(source), k * rate, (m - k + 1) * rate))


def _assignment_slopes(ensemble: UserEnsemble, roles: np.ndarray, x: np.ndarray, v: np.ndarray):
    """F_a(x), dF_a/dx and I_a(x) for each row of roles at its x, with each user's v and dv/dx.

    A user counts where its role costs something: always as the leader,
    as a user below at x < H_j and as one above at x > H_j.  Elsewhere its
    cost and order are 0 and its v, the Newton start on entry, passes
    through.
    """
    f, rise, rate = np.zeros(x.shape), np.zeros(x.shape), np.zeros(x.shape)
    v, pace = v.copy(), np.zeros(v.shape)
    for j, (rf, h) in enumerate(zip(ensemble.rate_functions, ensemble.shannon_values)):
        role = roles[:, j]
        on = (role == 0.0) | np.where(role < 0.0, x < h, x > h)
        value, order, v[on, j], pace[on, j], order_rise = rf.conjugate(x[on], v[on, j])
        f[on] += order
        rise[on] += order_rise
        rate[on] += value
    return f, rise, rate, v, pace


def scgf_parallel(ensemble: UserEnsemble, alpha: float) -> float:
    """Lambda_{k,m}(alpha) = sup over x of alpha*x - I_{k,m}(x), by exact conjugation.

    The sup is the largest over role assignments a of sup_x [alpha x -
    I_a(x)] on [0, x_a], x_a the least x_sup of the leader and the users
    above.  Each is concave with slope alpha - F_a(x), where F_a sums the
    conjugate orders of the users whose roles cost something at x, so F_a
    rises with x.  The sup is at 0 where alpha <= F_a(0) and at x_a where
    alpha >= F_a(x_a); the other assignments take one safeguarded Newton
    in x, all at once, started at the leader's slope for the order identical
    users would take.  Each user's order starts from its last iterate moved
    by dv/dx, so a step costs about one tilt per user.  There are
    m * C(m-1, k-1) assignments, allowed up to the 5,544 of 12 users with
    k = 6, so k = 1 and k = m take any m.  A single user's SCGF is
    ``scgf_limit``, bit for bit.
    """
    alpha = float(_finite_orders(alpha))
    if ensemble.m == 1:
        return scgf_limit(ensemble.users[0], alpha)
    count = ensemble.m * math.comb(ensemble.m - 1, ensemble.k - 1)
    if count > _MAX_ASSIGNMENTS:
        raise EnsembleError(f"scgf_parallel enumerates at most {_MAX_ASSIGNMENTS} role assignments, "
                            f"m = {ensemble.m}, k = {ensemble.k} has {count}")
    roles = ensemble._roles
    x_sup = np.array([rf.x_sup for rf in ensemble.rate_functions])
    lo = np.zeros(len(roles))
    hi = np.where(roles >= 0.0, x_sup, math.inf).min(axis=1)
    cold = np.full(roles.shape, _V_COLD)
    f_lo, _, rate_lo, _, _ = _assignment_slopes(ensemble, roles, lo, cold)
    f_hi, _, rate_hi, _, _ = _assignment_slopes(ensemble, roles, hi, cold)
    # every value is alpha x - I_a(x) at some x, and every bound a tangent's
    # top on the bracket, so value <= sup_a <= bound
    value = np.maximum(-rate_lo, alpha * hi - rate_hi)
    bound = np.minimum((alpha - f_lo) * hi - rate_lo, f_hi * hi - rate_hi)
    todo = np.flatnonzero((f_lo < alpha) & (alpha < f_hi) & (bound >= value.max() - _PRUNE_GAP))
    if todo.size:
        # identical users share alpha evenly over the k (alpha <= 0) or m - k + 1
        # (alpha > 0) users whose roles cost something, and their maximiser is
        # the slope there; distinct users too start there (at the middle of
        # [0, x_a] in place of x_a, where an order may be +inf)
        spread = ensemble.k if alpha <= 0.0 else ensemble.m - ensemble.k + 1
        share = alpha / spread  # > -1, as alpha > F_a(0) >= -k
        lead = np.argmin(np.abs(roles[todo]), axis=1)
        x = np.array([scgf_derivative(user, share) for user in ensemble.users])[lead]
        lo, hi, rows = lo[todo], hi[todo], roles[todo]
        x = np.where(x < hi, x, 0.5 * (lo + hi))
        v = np.full(rows.shape, math.log1p(1.0 / (1.0 + share)))
        run = np.arange(todo.size)
        for _ in range(_MAX_STEPS):
            if run.size == 0:
                break
            f, rise, rate, v[run], pace = _assignment_slopes(ensemble, rows[run], x[run], v[run])
            here = todo[run]
            now = alpha * x[run] - rate
            value[here] = np.maximum(value[here], now)
            g = alpha - f
            lo[run] = np.where(g > 0.0, x[run], lo[run])
            hi[run] = np.where(g < 0.0, x[run], hi[run])
            # x is now one end of the bracket, so one of these terms is 0
            bound[here] = np.minimum(bound[here], now + g * (lo[run] + hi[run] - 2.0 * x[run]))
            with np.errstate(divide="ignore", invalid="ignore"):
                step = x[run] + g / rise
            inside = (step > lo[run]) & (step < hi[run])
            step = np.where(inside, step, 0.5 * (lo[run] + hi[run]))
            done = (g * g <= 2.0 * _GAIN_TOL * rise) | (step == x[run])
            done |= bound[here] < value.max() - _PRUNE_GAP
            v[run] += (step - x[run])[:, np.newaxis] * pace
            x[run] = step
            run = run[~done]
    return float(value.max())


def scgf_parallel_iid(source: PairSource, k: int, m: int, alpha: float) -> float:
    """k Lambda(alpha/k) for alpha <= 0, (m-k+1) Lambda(alpha/(m-k+1)) for alpha > 0."""
    if not 1 <= k <= m:
        raise EnsembleError(f"k must satisfy 1 <= k <= {m}, got {k}")
    alpha = float(alpha)
    if alpha <= 0.0:
        return k * scgf_limit(source, alpha / k)
    spread = m - k + 1
    return spread * scgf_limit(source, alpha / spread)
