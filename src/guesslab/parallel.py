"""Parallel k-of-m conditional guesswork: exact order statistics and asymptotics.

G_{k,m} is the k-th smallest of m independent users' guess ranks.  Its
exact finite-n law is built from the users' rank laws.  Every
probability is an integer numerator over one denominator 2**K, K the
largest -e of the users' block levels m * 2**e.  Each user's per-rank
probability is piecewise constant between the union of all users'
block boundaries, and P(k-min > t) is evaluated rank by rank with a
Poisson-binomial recursion over users on those integers.  The survival
differences telescope, so the resulting pmf is exactly nonnegative;
each run of equal pmf values becomes one block with an exact level.

The asymptotic layer evaluates the rate function of G_{k,m} ~ e^(nx):
one user i lands at e^(nx) at cost Lambda*_i(x), k-1 others finish
below at cost delta_j(x) and the rest above at cost gam_j(x), with
delta/gam the below/above-Shannon clamps of each user's rate function.
The likeliest assignment of these roles sets the rate, so

    I_{k,m}(x) = min_i [Lambda*_i(x) + sum_{j != i} gam_j(x)
                        + (sum of the k-1 smallest delta_j(x) - gam_j(x), j != i)],

the minimum over all permutations of the users, found by selection.  The
parallel SCGF is the Legendre transform of I on a dense grid of x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dyadic import DYADIC_ONE, Dyadic
from .entropy import conditional_shannon
from .guesswork import (
    DEFAULT_MAX_TYPE_TUPLES,
    GuessworkDistribution,
    YTypeLaw,
    guesswork_distribution,
)
from .ldp import RateFunction, _domain, _finite_order, _shaped, scgf_limit
from .model import PairSource

__all__ = [
    "DEFAULT_MAX_RANKS",
    "MAX_KMIN_USERS",
    "SCGF_GRID_STEP",
    "EnsembleError",
    "UserEnsemble",
    "kmin_distribution",
    "kmin_moment_exact",
    "rate_parallel",
    "rate_parallel_iid",
    "scgf_parallel",
    "scgf_parallel_iid",
]

DEFAULT_MAX_RANKS = 1 << 20
MAX_KMIN_USERS = 12
SCGF_GRID_STEP = 1e-4
_REFINE_POINTS = 2001


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
    def _xgrid(self) -> np.ndarray:
        points = int(round(1.0 / SCGF_GRID_STEP)) + 1
        return np.linspace(0.0, self.log_x_size, points)

    @cached_property
    def _user_rate_grid(self) -> np.ndarray:
        return np.stack([rf(self._xgrid) for rf in self.rate_functions])


def kmin_distribution(
    ensemble: UserEnsemble,
    n: int,
    max_type_tuples: int = DEFAULT_MAX_TYPE_TUPLES,
    max_ranks: int = DEFAULT_MAX_RANKS,
) -> GuessworkDistribution:
    """Exact law of the k-th smallest of the m independent guess ranks."""
    if ensemble.m == 1:
        # degenerate k-min: the single-user law itself, bit for bit
        return guesswork_distribution(ensemble.users[0], n, max_type_tuples)
    if ensemble.m > MAX_KMIN_USERS:
        raise EnsembleError(f"k-min enumeration supports m <= {MAX_KMIN_USERS}, got {ensemble.m}")
    total = ensemble.x_size**n
    if total > max_ranks:
        raise EnsembleError(f"rank span {total} exceeds max_ranks {max_ranks}")

    m, k = ensemble.m, ensemble.k
    dists = [guesswork_distribution(u, n, max_type_tuples) for u in ensemble.users]
    # every probability below is an integer numerator over 2**shift
    shift = max(
        -block.joint_level.e
        for dist in dists
        for law in dist.laws
        for block in law.blocks
        if block.joint_level
    )
    steps = {1: [0] * m, total + 1: [0] * m}  # per-user pmf changes, keyed by rank
    pending = [0] * m                         # T_i(t) = P(G_i > t)
    for i, dist in enumerate(dists):
        for law in dist.laws:
            for block in law.blocks:
                level = block.joint_level
                if level:
                    q = (law.y_sequences * level.m) << (shift + level.e)
                    steps.setdefault(block.start, [0] * m)[i] += q
                    steps.setdefault(block.start + block.count, [0] * m)[i] -= q
                    pending[i] += q * block.count

    done = [0] * m                            # F_i(t) = P(G_i <= t)
    probs = [0] * m                           # P(G_i = t)
    survival_prev = math.prod(pending)        # P(k-min > 0), over 2**(shift * m)
    scale = Dyadic(1, -shift * m)
    counts, levels = [], []
    run_start, run_num = 1, None
    boundaries = sorted(steps)
    for b, b_next in zip(boundaries, boundaries[1:]):
        probs = [p + d for p, d in zip(probs, steps[b])]
        for t in range(b, b_next):
            for i in range(m):
                done[i] += probs[i]
                pending[i] -= probs[i]
            # P(fewer than k users have finished), a Poisson-binomial over users
            coef = [1] + [0] * (k - 1)
            for f, r in zip(done, pending):
                coef = [coef[0] * r] + [coef[j] * r + coef[j - 1] * f for j in range(1, k)]
            survival = sum(coef)
            num = survival_prev - survival
            survival_prev = survival
            if num != run_num:
                if run_num is not None:
                    counts.append(t - run_start)
                    levels.append(Dyadic.from_int(run_num) * scale)
                run_start, run_num = t, num
    counts.append(total + 1 - run_start)
    levels.append(Dyadic.from_int(run_num) * scale)
    law = YTypeLaw(y_counts=(), y_sequences=1, py_product=DYADIC_ONE, counts=tuple(counts), levels=tuple(levels))
    return GuessworkDistribution(
        n=n, x_size=ensemble.x_size, y_symbols=(), laws=(law,), monotone=False
    )


def kmin_moment_exact(
    ensemble: UserEnsemble,
    n: int,
    alpha: float,
    max_type_tuples: int = DEFAULT_MAX_TYPE_TUPLES,
    max_ranks: int = DEFAULT_MAX_RANKS,
    dist: GuessworkDistribution | None = None,
) -> float:
    """E G_{k,m}^alpha over the exact k-min law."""
    if dist is None:
        dist = kmin_distribution(ensemble, n, max_type_tuples, max_ranks)
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


def scgf_parallel(ensemble: UserEnsemble, alpha: float) -> float:
    """Lambda_{k,m}(alpha) = sup over x in [0, log|X|] of alpha*x - I_{k,m}(x).

    Dense-grid sup, refined on a finer grid across the two cells around
    the winning point; +inf values of I are excluded by the arithmetic itself.
    """
    alpha = _finite_order(alpha)
    xs = ensemble._xgrid
    grid = alpha * xs - _cheapest_assignment(ensemble, xs, ensemble._user_rate_grid)
    best_idx = int(np.argmax(grid))
    fine = np.linspace(xs[max(0, best_idx - 1)], xs[min(xs.size - 1, best_idx + 1)], _REFINE_POINTS)
    refined = np.max(alpha * fine - rate_parallel(ensemble, fine))
    return max(float(grid[best_idx]), float(refined))


def scgf_parallel_iid(source: PairSource, k: int, m: int, alpha: float) -> float:
    """k Lambda(alpha/k) for alpha <= 0, (m-k+1) Lambda(alpha/(m-k+1)) for alpha > 0."""
    if not 1 <= k <= m:
        raise EnsembleError(f"k must satisfy 1 <= k <= {m}, got {k}")
    alpha = float(alpha)
    if alpha <= 0.0:
        return k * scgf_limit(source, alpha / k)
    spread = m - k + 1
    return spread * scgf_limit(source, alpha / spread)
