"""Parallel k-of-m conditional guesswork: exact order statistics and asymptotics.

G_{k,m} is the k-th smallest of m independent users' guess ranks.  Its
exact finite-n law is held as one step column per distinct user source:
the user's sorted pmf-change ranks, and on each block between them its
pmf p_j and F_j = P(G < start_j), integers over its own 2**K_i, K_i the
largest -e of its block levels m * 2**e.  A k-min probability, one factor
per user, is a numerator over 2**(K_1 + ... + K_m).  Between consecutive
points of the union of the columns' change ranks, a segment, every user
pmf is constant, so P(G_i > t) is linear in t and the survival P(k-min >
t), a Poisson-binomial over users, is exact at any rank from one bisect
per column: windows, P(G = 1) and the mass are survival differences.
The pmf on a segment is a polynomial of degree <= m - 1 in t with
nonnegative coefficients in (t - a, b - 1 - t), one sum over the (below,
tied, above) splits of the users, taken in float logs from each column's
log p, log F and log T per block, so nothing cancels.  Moments sum it
against t**alpha by the certified ``poly_power_sums_log``, so a segment
costs the same at any length.  Segments of at most 32 ranks split into
single ranks, each pmf one coefficient, summed term by term; orders past
``POLY_MAX_ORDER`` split every segment so, up to ``MAX_KMIN_RANKS`` ranks.

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
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations
from operator import mul, sub

import numpy as np

from .dyadic import _LN2, DYADIC_ZERO, Dyadic, NumeratorCode
from .entropy import conditional_shannon
from .guesswork import (
    GuessworkDistribution,
    GuessworkError,
    _logsumexp,
    _window_ranks,
    exp_or_inf,
    guesswork_distribution,
)
from .ldp import _MAX_STEPS, _V_COLD, RateFunction, _domain, _finite_orders, _shaped, scgf_derivative, scgf_limit
from .model import PairSource
from .powersum import POLY_MAX_ORDER, _log_weights, poly_power_sums_log

__all__ = [
    "MAX_KMIN_RANKS",
    "MAX_KMIN_USERS",
    "MAX_KMIN_WORDS",
    "EnsembleError",
    "KminDistribution",
    "UserEnsemble",
    "kmin_distribution",
    "kmin_moment_exact",
    "rate_parallel",
    "rate_parallel_iid",
    "scgf_parallel",
    "scgf_parallel_iid",
]

# moment orders past POLY_MAX_ORDER split every k-min segment into single ranks, |X|**n of them,
# up to this many
MAX_KMIN_RANKS = 1 << 20
# k-min segments times m times the 64-bit words of one user numerator (32 MiB of words), checked
# from the users' block counts: an upper bound on the moment path's per-user float rows over the
# segments and on the columns' exact numerators, two per user block
MAX_KMIN_WORDS = 1 << 22
MAX_KMIN_USERS = 12
# segments of at most this many ranks split into single ranks on the moment path, each pmf one
# coefficient; the longer take the polynomial sums.  With none, the moments of the bsc + lat22 +
# lat23 k = 2, n = 12 bench request take about 4x as long (8 to 200 time alike)
_SHORT = 32
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


def kmin_distribution(ensemble: UserEnsemble, n: int) -> "KminDistribution | GuessworkDistribution":
    """Exact law of the k-th smallest of the m independent guess ranks, segment by segment.

    Each distinct user source is built once, and its pmf changes become
    one step column that every user of that source reuses.  The rest is
    lazy: ``KminDistribution`` reads moments, windows and P(G = 1) from
    its segments at any n the users' builds admit, within
    ``MAX_KMIN_WORDS`` (checked from a lower bound before any build and
    again after), and splits every segment into single ranks only for
    moment orders past ``POLY_MAX_ORDER``, up to ``MAX_KMIN_RANKS`` ranks.
    One user is the single-user law itself.
    """
    if ensemble.m == 1:
        # degenerate k-min: the single-user law itself, bit for bit
        return guesswork_distribution(ensemble.users[0], n)
    if ensemble.m > MAX_KMIN_USERS:
        raise EnsembleError(f"k-min enumeration supports m <= {MAX_KMIN_USERS}, got {ensemble.m}")
    # the words count m numerators of at most K bits per segment, K at most n
    # times the largest -e of an entry, and the segments are at most the
    # users' block boundaries.  A law has at least n (R - 1) + 1 keys, R the
    # most distinct values in a column class (n copies of R integer keys sum to
    # that many), so too many words show before any build as well as after
    bits = n * max(-d.e for user in ensemble.users for row in user.joint_dyadic for d in row if d.m)
    fewest = n * (max(len(cls.levels) for user in ensemble.users for cls in user.column_classes) - 1) + 2
    _check_words(ensemble, n, fewest * ensemble.m * -(-bits // 64))
    builds = {}
    for user in ensemble.users:
        if id(user) not in builds:
            builds[id(user)] = guesswork_distribution(user, n)
    segments = 1 + sum(len(law.keys) + 1 for dist in builds.values() for law in dist.laws)
    _check_words(ensemble, n, segments * ensemble.m * -(-bits // 64))
    columns = {key: _step_column(dist) for key, dist in builds.items()}
    return KminDistribution(n, ensemble.x_size, ensemble.k, [columns[id(user)] for user in ensemble.users])


def _check_words(ensemble: UserEnsemble, n: int, words: int) -> None:
    if words > MAX_KMIN_WORDS:
        raise EnsembleError(f"k-min segments at rank span {ensemble.x_size}**{n} need about {words} words, "
                            f"more than {MAX_KMIN_WORDS}")


def _step_column(dist: GuessworkDistribution) -> tuple[list[int], list[int], list[int], int]:
    """One user's pmf as steps: (starts, probs, below, shift), numerators over 2**shift.

    Block j is [starts[j], starts[j + 1]), from rank 1 to |X|**n + 1, with
    pmf probs[j] and P(G < starts[j]) = below[j]; below[-1] is the mass.
    Each law's pmf steps by q_b - q_(b-1) at its block starts, so the
    column is the running sum of all the laws' steps in rank order.  The
    shift is the largest -e of the user's levels, so each user keeps its own
    denominator.
    """
    keys = list({key for law in dist.laws for key in law.keys})
    numerators, shift = dist.laws[0].code.numerators(keys)  # one code for all the laws
    scaled = dict(zip(keys, numerators))
    steps = {1: 0, dist.total_sequences + 1: 0}
    for law in dist.laws:
        q = [law.y_sequences * scaled[key] for key in law.keys]  # the zero block has no key
        for rank, step in zip(accumulate(law.counts[: len(q)], initial=1), map(sub, q + [0], [0] + q)):
            steps[rank] = steps.get(rank, 0) + step
    starts = sorted(steps)
    probs = list(accumulate([steps[rank] for rank in starts[:-1]]))
    below = list(accumulate(map(mul, probs, map(sub, starts[1:], starts)), initial=0))
    return starts, probs, below, shift


def _log_naturals(ints: np.ndarray) -> np.ndarray:
    """log of nonnegative ints, int64 or Python, -inf for 0 (under np.errstate(divide="ignore"))."""
    if ints.dtype != object:
        return np.log(ints.astype(np.float64))
    return np.array([math.log(i) if i else -math.inf for i in ints.ravel().tolist()]).reshape(ints.shape)


def _survival(done: list[int], pending: list[int], k: int) -> int:
    """P(fewer than k users have finished), a Poisson-binomial over users."""
    coef = [1] + [0] * (k - 1)
    for f, r in zip(done, pending):
        for j in range(k - 1, 0, -1):
            coef[j] = coef[j] * r + coef[j - 1] * f
        coef[0] *= r
    return sum(coef)


def _log_bernstein(rows: np.ndarray, k: int, degrees: tuple[int, int]) -> np.ndarray:
    """log c_ij of P(k-min = t) = sum c_ij u**i v**j on pieces [a, b), u = t - a, v = b - 1 - t.

    The rows are (users, 3, pieces) logs of F_i = P(G_i < a), p_i and
    T_i = P(G_i > b - 1).  User i is below t with P(G_i < t) = F_i + p_i u,
    tied with p_i and above with P(G_i > t) = T_i + p_i v, and the k-min
    is at t when fewer than k users are below and at least k are below or
    tied.  One pass over the users carries, per (users below, users tied
    capped at k), the sum over those splits as a polynomial in (u, v) of
    u-degree < k and v-degree < m, for every piece at once; on unit pieces
    u = v = 0, and degrees (1, 1) keep only c_00.  Each coefficient is a
    sum of products of nonnegative terms (an integer over 2**(K_1 + ... +
    K_m)), so the pass runs in float logs and nothing cancels.  Returns
    (pieces, *degrees) logs, -inf where a coefficient is 0.
    """
    u_degrees, v_degrees = degrees
    start = np.full((rows.shape[2], u_degrees, v_degrees), -np.inf)
    start[:, 0, 0] = 0.0
    states = {(0, 0): start}
    for f, p, r in rows[:, :, :, None, None]:
        out: dict[tuple[int, int], np.ndarray] = {}

        def add(state, terms):
            out[state] = np.logaddexp(out[state], terms) if state in out else terms

        for (nb, nt), poly in states.items():
            above = poly + r                                            # above: T + p v
            if v_degrees > 1:
                np.logaddexp(above[:, :, 1:], poly[:, :, :-1] + p, out=above[:, :, 1:])
            add((nb, nt), above)
            if nb + 1 < k:
                below = poly + f                                        # below: F + p u
                if u_degrees > 1:
                    np.logaddexp(below[:, 1:], poly[:, :-1] + p, out=below[:, 1:])
                add((nb + 1, nt), below)
            add((nb, min(nt + 1, k)), poly + p)                         # tied: p
        states = out
    done = [poly for (nb, nt), poly in states.items() if nb + nt >= k]
    return np.logaddexp.reduce(done, axis=0) if len(done) > 1 else done[0]


class KminDistribution:
    """Exact law of the k-th smallest of m independent ranks, held as one step column per source.

    A column (``_step_column``) keeps a user's change ranks, 1 and |X|**n
    + 1 included, and per block its pmf p_j and F_j = P(G < start_j),
    integers over 2**K_i; users of one source share one column.  The
    survival S(t) = P(k-min > t) is one Poisson-binomial over users from
    one bisect per column (``_state``), so windows, P(G = 1) and the mass
    are exact differences S(r_lo - 1) - S(r_hi) over 2**(K_1 + ... + K_m).
    Moments sum the pmf against t**alpha over the segments between
    consecutive points of the union of the columns' change ranks, where
    every user pmf is constant: a segment of at most ``_SHORT`` ranks
    rank by rank, a longer one by its coefficients in (t - a, b - 1 - t)
    (``_log_bernstein``) and the certified kernel ``poly_power_sums_log``,
    whatever its length, for orders up to ``POLY_MAX_ORDER`` in size;
    larger orders take every segment rank by rank, up to
    ``MAX_KMIN_RANKS`` ranks.  Both read float logs only, gathered per
    segment from each column's log p, log F and log T per block.
    """

    def __init__(self, n: int, x_size: int, k: int, columns: list[tuple[list[int], list[int], list[int], int]]):
        self.n = n
        self.x_size = x_size
        self.k = k
        self.m = len(columns)
        # users of one source share one column, and the moment path reads its logs once
        distinct = {id(column): column for column in columns}
        self.columns = list(distinct.values())
        self.user_columns = [list(distinct).index(id(column)) for column in columns]
        self.masses = [below[-1] for _, _, below, _ in columns]
        # a k-min probability takes one factor per user, so its numerator is over 2**sum(shifts)
        self.code = NumeratorCode(sum(shift for *_, shift in columns))
        # int64 ranks while |X|**n + 1 and its differences fit, Python ints past that
        dtype = np.int64 if self.total_sequences < 1 << 62 else object
        self.edges = [np.array(starts, dtype=dtype) for starts, *_ in self.columns]
        # segment s is [bounds[s], bounds[s + 1]), between consecutive points of the union of the columns' starts
        self.bounds = self.edges[0] if len(self.edges) == 1 else np.unique(np.concatenate(self.edges))
        self._terms = {}  # split length -> _moment_terms

    @cached_property
    def total_sequences(self) -> int:
        return self.x_size**self.n

    def _state(self, t: int) -> tuple[list[int], list[int]]:
        """(P(G_i <= t), P(G_i > t)) per user, for 0 <= t <= |X|**n: one bisect per column."""
        done = []
        for starts, probs, below, _ in self.columns:
            j = bisect_right(starts, t, 1) - 1  # t = 0 reads block 0 at no ranks
            done.append(below[j] + probs[j] * (t - starts[j] + 1))
        done = [done[c] for c in self.user_columns]
        return done, [mass - f for mass, f in zip(self.masses, done)]

    def _survival_at(self, t: int) -> int:
        return _survival(*self._state(t), self.k)

    def _moment_terms(self, short: int):
        """(log t, log P(k-min = t)) per unit piece of positive pmf, and the polynomial rows of the long segments, for the power sums.

        A segment of at most ``short`` ranks splits into unit pieces [t, t +
        1), whose pmf is their coefficient c_00; a longer one is one piece,
        summed by its polynomial rows.  Each column takes log F, log p and
        log T once per block, T the mass past the block, and a piece [a, b)
        in block [c, d) has
        log P(G_i < a) = logaddexp(log F, log p + log(a - c)) and
        log P(G_i > b - 1) = logaddexp(log T, log p + log(d - b)), sums of
        nonnegative terms.
        """
        bounds = self.bounds
        lengths = bounds[1:] - bounds[:-1]
        long = lengths > short
        reps = np.where(long, 1, lengths).astype(np.int64)
        ends = np.cumsum(reps)
        starts = np.repeat(bounds[:-1] - (ends - reps), reps) + np.arange(ends[-1])
        stops = np.concatenate((starts[1:], bounds[-1:]))
        long = np.repeat(long, reps)
        rows = []
        with np.errstate(divide="ignore"):
            for (_, probs, below, shift), edges in zip(self.columns, self.edges):
                tails = [below[-1] - f for f in below[1:]]
                # a zero numerator's log is -inf
                logs = NumeratorCode(shift).log_scales(below[:-1] + probs + tails)[0].reshape(3, -1)
                j = np.searchsorted(edges[1:], starts, "right")
                row = logs[:, j]
                np.logaddexp(row[0], row[1] + _log_naturals(starts - edges[j]), out=row[0])
                np.logaddexp(row[2], row[1] + _log_naturals(edges[j + 1] - stops), out=row[2])
                rows.append(row)
            rows = np.array([rows[c] for c in self.user_columns])
            log_levels = _log_bernstein(rows, self.k, (1, 1))[:, 0, 0]
            # zero pmfs drop out, so -inf meets no infinite weight; long pieces sum by their polynomials
            live = ~long & np.isfinite(log_levels)
            log_ranks, log_levels = _log_naturals(starts[live]), log_levels[live]
        pieces = np.flatnonzero(long)
        if not pieces.size:
            return log_ranks, log_levels, None
        log_coefs = _log_bernstein(rows[:, :, pieces], self.k, (self.k, self.m)).reshape(len(pieces), -1)
        degrees = [(i, j) for i in range(self.k) for j in range(self.m)]
        live = np.flatnonzero(np.isfinite(log_coefs).any(axis=0))
        keep = np.isfinite(log_coefs[:, live]).any(axis=1)
        pieces = pieces[keep]
        polys = (starts[pieces].tolist(), (stops[pieces] - 1).tolist(), [degrees[c] for c in live.tolist()],
                 log_coefs[keep][:, live]) if pieces.size else None
        return log_ranks, log_levels, polys

    def _log_sum(self, alpha: float, minus_one: bool) -> float:
        """log|sum_t P(k-min = t) w(t)|, w(t) = t**alpha - 1 (minus_one) or t**alpha.

        Orders up to ``POLY_MAX_ORDER`` in size split segments of at most
        ``_SHORT`` ranks; larger ones, past the orders whose polynomial sums
        certify, split every segment into single ranks, up to
        ``MAX_KMIN_RANKS`` of them.
        """
        if abs(alpha) <= POLY_MAX_ORDER:
            short = _SHORT
        elif self.total_sequences <= MAX_KMIN_RANKS:
            short = self.total_sequences
        else:
            # |X|**n itself may be too long to print in decimal
            raise EnsembleError(f"rank span {self.x_size}**{self.n} exceeds {MAX_KMIN_RANKS} ranks")
        if short not in self._terms:
            self._terms[short] = self._moment_terms(short)
        log_ranks, log_levels, polys = self._terms[short]
        with np.errstate(over="ignore"):  # alpha * log t may saturate for orders near the float range
            terms = log_levels + _log_weights(alpha * log_ranks, minus_one)
        if polys is not None:
            terms = np.concatenate((terms, poly_power_sums_log(*polys, alpha, minus_one)))
        return _logsumexp(terms)

    @cached_property
    def _mass(self) -> Dyadic:
        return self.code.dyadic(math.prod(self.masses))

    @cached_property
    def total_mass(self) -> float:
        return self._mass.to_float()

    def log_moment(self, alpha: float) -> float:
        """log E G^alpha, as log M + log1p(E/M) with E = sum_t P(t) (t**alpha - 1) and M the mass.

        Every term of E has alpha's sign, so E keeps its relative precision
        as alpha nears 0.  Where E/M < -1/2 the plain sum of P(t) t**alpha
        is the better conditioned.
        """
        alpha = float(alpha)
        if not math.isfinite(alpha):
            raise GuessworkError(f"moment order must be finite, got {alpha}")
        log_mass = self._mass.log()
        if alpha == 0.0:
            return log_mass
        ratio = self._log_sum(alpha, True) - log_mass  # log|E/M|
        if alpha > 0.0:
            return log_mass + float(np.logaddexp(0.0, ratio))
        if ratio < -_LN2:
            return log_mass + math.log1p(-math.exp(ratio))
        return self._log_sum(alpha, False)

    def moment(self, alpha: float) -> float:
        return exp_or_inf(self.log_moment(alpha))

    def scgf_empirical(self, alpha: float) -> float:
        return self.log_moment(alpha) / self.n

    def _level(self, num: int) -> Dyadic:
        return self.code.dyadic(num) if num else DYADIC_ZERO

    def prob_eq_one_dyadic(self) -> Dyadic:
        return self._level(self._survival_at(0) - self._survival_at(1))

    def prob_eq_one(self) -> float:
        return self.prob_eq_one_dyadic().to_float()

    def log_prob_eq_one(self) -> float:
        return self.prob_eq_one_dyadic().log()

    def log_prob_log_window(self, lo: float, hi: float) -> float:
        """log P(log(G)/n in [lo, hi]) from S(r_lo - 1) - S(r_hi); -inf when the event has zero mass."""
        ends = _window_ranks(self.n, self.x_size, lo, hi)
        if ends is None:
            return -math.inf
        r_lo, r_hi = ends
        return self._level(self._survival_at(r_lo - 1) - self._survival_at(r_hi)).log()

    def prob_log_window(self, lo: float, hi: float) -> float:
        log_p = self.log_prob_log_window(lo, hi)
        return 0.0 if log_p == -math.inf else math.exp(log_p)


def kmin_moment_exact(
    ensemble: UserEnsemble,
    n: int,
    alpha: float,
    dist: "KminDistribution | GuessworkDistribution | None" = None,
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
            with np.errstate(over="ignore"):  # g**2 saturates for orders near the float range
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
