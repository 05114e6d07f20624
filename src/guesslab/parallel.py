"""Parallel k-of-m conditional guesswork: exact order statistics and asymptotics.

G_{k,m} is the k-th smallest of m independent users' guess ranks.  Its
exact finite-n law is built from the users' rank laws: each user's law
flattens to per-rank probabilities (piecewise constant between the
union of all users' block boundaries), and P(k-min > t) is evaluated
rank by rank with a Poisson-binomial recursion over users, entirely in
exact dyadic arithmetic.  The survival differences telescope, so the
resulting pmf is exactly nonnegative.

The asymptotic layer evaluates the rate function of G_{k,m} ~ e^(nx):
one user i lands at e^(nx) at cost Lambda*_i(x), k-1 others finish
below at cost delta_j(x) and the rest above at cost gam_j(x), with
delta/gam the below/above-Shannon clamps of each user's rate function.
The likeliest assignment of these roles sets the rate, so

    I_{k,m}(x) = min_i [Lambda*_i(x) + sum_{j != i} gam_j(x)
                        + (sum of the k-1 smallest delta_j(x) - gam_j(x), j != i)],

the minimum over all permutations of the users, found by selection.  An
unconstrained tuple mode, where one user may fill several roles, gives
the lower bound min Lambda* + (k-1) min delta + (m-k) min gam.  The
parallel SCGF is the Legendre transform of I on a dense grid of x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dyadic import DYADIC_ONE, DYADIC_ZERO, Dyadic
from .entropy import conditional_shannon
from .guesswork import (
    DEFAULT_MAX_TYPE_TUPLES,
    GuessworkDistribution,
    TypeBlock,
    YTypeLaw,
    guesswork_distribution,
)
from .ldp import RateFunction, _domain, _shaped, scgf_limit
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
_MODES = ("permutations", "tuples")
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


def _flat_segments(dist: GuessworkDistribution) -> list[tuple[int, int, Dyadic]]:
    """Per-rank pmf of an unconditional rank law as (start, end, prob) runs."""
    intervals = []
    for law in dist.laws:
        weight = Dyadic.from_int(law.y_sequences)
        for block in law.blocks:
            if block.joint_level.is_zero():
                continue
            intervals.append(
                (block.start, block.start + block.count - 1, weight * block.joint_level)
            )
    events: dict[int, list[Dyadic]] = {}
    removals: dict[int, list[Dyadic]] = {}
    for start, end, q in intervals:
        events.setdefault(start, []).append(q)
        removals.setdefault(end + 1, []).append(q)
    boundaries = sorted(set(events) | set(removals) | {1, dist.total_sequences + 1})
    segments = []
    active = DYADIC_ZERO
    for b, b_next in zip(boundaries, boundaries[1:]):
        for q in events.get(b, ()):
            active = active + q
        for q in removals.get(b, ()):
            active = active - q
        segments.append((b, b_next - 1, active))
    return segments


def _per_rank_probs(segments: list[tuple[int, int, Dyadic]], total: int) -> list[Dyadic]:
    probs = [DYADIC_ZERO] * total
    for start, end, q in segments:
        for r in range(start, end + 1):
            probs[r - 1] = q
    return probs


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

    user_segments = [
        _flat_segments(guesswork_distribution(u, n, max_type_tuples))
        for u in ensemble.users
    ]
    per_user = [_per_rank_probs(segs, total) for segs in user_segments]
    totals = []
    for segs in user_segments:
        acc = DYADIC_ZERO
        for start, end, q in segs:
            acc = acc + Dyadic.from_int(end - start + 1) * q
        totals.append(acc)

    m, k = ensemble.m, ensemble.k
    done = [DYADIC_ZERO] * m      # F_i(t) = P(G_i <= t)
    pending = list(totals)        # T_i(t) = P(G_i > t)
    survival_prev = _poisson_binomial_below(done, pending, k)
    pmf: list[Dyadic] = []
    for t in range(1, total + 1):
        for i in range(m):
            p = per_user[i][t - 1]
            if not p.is_zero():
                done[i] = done[i] + p
                pending[i] = pending[i] - p
        survival = _poisson_binomial_below(done, pending, k)
        pmf.append(survival_prev - survival)
        survival_prev = survival

    blocks = []
    start = 1
    run_level = pmf[0]
    run_count = 1
    for level in pmf[1:]:
        if level == run_level:
            run_count += 1
        else:
            blocks.append(TypeBlock(start, run_count, run_level))
            start += run_count
            run_level = level
            run_count = 1
    blocks.append(TypeBlock(start, run_count, run_level))
    law = YTypeLaw(y_counts=(), y_sequences=1, py_product=DYADIC_ONE, blocks=tuple(blocks))
    return GuessworkDistribution(
        n=n, x_size=ensemble.x_size, y_symbols=(), laws=(law,), monotone=False
    )


def _poisson_binomial_below(done: list[Dyadic], pending: list[Dyadic], k: int) -> Dyadic:
    """P(fewer than k users have finished), users independent."""
    coef = [DYADIC_ONE] + [DYADIC_ZERO] * (k - 1)
    for f, t in zip(done, pending):
        nxt = [DYADIC_ZERO] * k
        for j in range(k):
            term = coef[j] * t
            if j > 0:
                term = term + coef[j - 1] * f
            nxt[j] = term
        coef = nxt
    out = DYADIC_ZERO
    for c in coef:
        out = out + c
    return out


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


def _cheapest_assignment(ensemble: UserEnsemble, xs: np.ndarray, rates: np.ndarray, mode: str) -> np.ndarray:
    """I_{k,m} on a 1-D x array from the users' rate rows, rates[i] = Lambda*_i(xs)."""
    shannon = np.array(ensemble.shannon_values)[:, np.newaxis]
    delta = np.where(xs <= shannon, rates, 0.0)
    gam = np.where(xs >= shannon, rates, 0.0)
    m, k = ensemble.m, ensemble.k
    if mode == "tuples":
        # a zero coefficient must not meet an infinite clamp
        value = rates.min(axis=0)
        if k > 1:
            value = value + (k - 1) * delta.min(axis=0)
        if m > k:
            value = value + (m - k) * gam.min(axis=0)
        return value
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


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise EnsembleError(f"unknown assignment mode {mode!r}")


def rate_parallel(ensemble: UserEnsemble, x, mode: str = "permutations"):
    """I_{k,m}(x) for a scalar or an array of x: the likeliest assignment of roles."""
    xs = _domain(x)
    _check_mode(mode)
    flat = xs.ravel()
    rates = np.stack([rf(flat) for rf in ensemble.rate_functions])
    return _shaped(xs, _cheapest_assignment(ensemble, flat, rates, mode))


def rate_parallel_iid(source: PairSource, k: int, m: int, x):
    """I(k,m,x) = k Lambda*(x) below H(X|Y), (m-k+1) Lambda*(x) above."""
    if not 1 <= k <= m:
        raise EnsembleError(f"k must satisfy 1 <= k <= {m}, got {k}")
    xs = _domain(x)
    rate = RateFunction.from_source(source)(xs)
    return _shaped(xs, np.where(xs <= conditional_shannon(source), k * rate, (m - k + 1) * rate))


def scgf_parallel(ensemble: UserEnsemble, alpha: float, mode: str = "permutations") -> float:
    """Lambda_{k,m}(alpha) = sup over x in [0, log|X|] of alpha*x - I_{k,m}(x).

    Dense-grid sup, refined on a finer grid across the two cells around
    the winning point; +inf values of I are excluded by the arithmetic itself.
    """
    _check_mode(mode)
    xs = ensemble._xgrid
    grid = alpha * xs - _cheapest_assignment(ensemble, xs, ensemble._user_rate_grid, mode)
    best_idx = int(np.argmax(grid))
    fine = np.linspace(xs[max(0, best_idx - 1)], xs[min(xs.size - 1, best_idx + 1)], _REFINE_POINTS)
    refined = np.max(alpha * fine - rate_parallel(ensemble, fine, mode))
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
