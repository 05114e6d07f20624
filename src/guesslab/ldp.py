"""Asymptotics of the guess rank: SCGF, rate function, finite-n exponents.

The SCGF is Lambda(alpha) = alpha H_{1/(1+alpha)}(X|Y) for alpha > -1 and
-H_inf(X|Y) below; its slope Lambda' = sum_y w_y H(q_y) over the tilted
columns tends at the plateau edge to gamma = sum_y m_y log t_y / sum_y m_y,
m_y the column maximum and t_y its ties.  Both come from ``entropy``.

The rate function Lambda*(x) is h_inf - x on [0, gamma], +inf above
x_sup = log max_y |supp y|, and alpha x - Lambda(alpha) in between, at the
root of Lambda'(alpha) = x by safeguarded Newton in v = log(1 + beta) over
an array of x: v is -log(1 + alpha) as alpha nears -1 and beta as alpha
grows, so no order is capped.  At x_sup the order is +inf and the rate
-log sum_{y: N_y = N} N (prod_{x in supp y} p(x, y))^(1/N), N = max_y N_y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import Columns, _arimoto, _scgf, _shaped, _slope, conditional_min_entropy
from .guesswork import GuessworkDistribution, guesswork_distribution
from .model import PairSource

__all__ = [
    "DomainError",
    "RateFunction",
    "scgf_limit",
    "scgf_derivative",
    "gamma",
    "rate_function",
    "empirical_exponent",
]

_V_COLD = math.log(2.0)  # v = log(1 + beta) at alpha = 0, the Newton start with no better guess
_V_MAX = 36.0  # beta = e^36: 1 + alpha below double precision's resolution of alpha near -1
# Newton stops on the residual |Lambda' - x|: a step-size test lets points
# cycle near the root for the whole iteration budget.
_RESIDUAL_TOL = 1e-14
_MAX_STEPS = 100


class DomainError(ValueError):
    """Argument outside the operation's domain."""


def _finite_orders(alpha) -> np.ndarray:
    alphas = np.asarray(alpha, dtype=np.float64)
    if not np.isfinite(alphas).all():
        raise DomainError(f"order must be finite, got {float(alphas[~np.isfinite(alphas)].flat[0])}")
    return alphas


def scgf_limit(source: PairSource, alpha):
    """Lambda(alpha) = lim n^-1 log E G^alpha in nats, for a scalar or an array of orders, in one kernel pass."""
    alphas = _finite_orders(alpha)
    flat = alphas.ravel()
    above = flat > -1.0  # -H_inf(X|Y) on the plateau, where the kernel sees order 0 instead
    value = np.where(above, _scgf(source, np.where(above, flat, 0.0)), -conditional_min_entropy(source))
    return _shaped(alphas, value)


def _orders(cols: Columns, x: np.ndarray, v: np.ndarray):
    """(alpha x - Lambda(alpha), alpha, v, dv/dx, dalpha/dx) at the root of Lambda'(alpha) = x, gamma < x < x_sup.

    Newton in v = log(1 + beta) starts at the given v, or mid-bracket for one
    outside (0, _V_MAX); Lambda' falls from x_sup as v rises.  Each step takes
    only Lambda' and dLambda'/dt, t = log(1 + alpha), and each point Lambda
    once, at its last iterate.  The derivatives are 0 where dLambda'/dt underflows.
    """
    lo, hi = np.zeros_like(x), np.full_like(x, _V_MAX)
    v = np.where((v > lo) & (v < hi), v, 0.5 * hi)
    curv = np.empty_like(x)  # dLambda'/dt at the last iterate taken
    todo = np.arange(x.size)
    for _ in range(_MAX_STEPS):
        if todo.size == 0:
            break
        v_now = v[todo]
        beta = np.expm1(v_now)
        slope, curv[todo] = _slope(cols, beta)
        resid = slope - x[todo]
        keep = np.abs(resid) > _RESIDUAL_TOL
        todo, v_now, beta, resid = todo[keep], v_now[keep], beta[keep], resid[keep]
        lo[todo] = np.where(resid > 0.0, v_now, lo[todo])
        hi[todo] = np.where(resid > 0.0, hi[todo], v_now)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            step = v_now + resid * beta / ((1.0 + beta) * curv[todo])
        inside = (step > lo[todo]) & (step < hi[todo])
        v[todo] = np.where(inside, step, 0.5 * (lo[todo] + hi[todo]))
    beta = np.expm1(v)
    alpha = (1.0 - beta) / beta
    known = curv > 0.0
    pace = np.divide(-beta, (1.0 + beta) * curv, out=np.zeros_like(x), where=known)
    rise = np.divide(1.0, beta * curv, out=np.zeros_like(x), where=known)
    return alpha * (x - _arimoto(cols, beta, alpha)), alpha, v, pace, rise


def scgf_derivative(source: PairSource, alpha):
    """Lambda'(alpha) for alpha > -1, a scalar or an array of orders; Lambda'(0) = H(X|Y)."""
    alphas = _finite_orders(alpha)
    if np.any(alphas <= -1.0):
        raise DomainError(f"derivative undefined at alpha <= -1, got {float(alphas[alphas <= -1.0].flat[0])}")
    return _shaped(alphas, _slope(source.columns, 1.0 / (1.0 + alphas.ravel()))[0])


def gamma(source: PairSource) -> float:
    """gamma = lim_{alpha down to -1} Lambda'(alpha) = sum_y m_y log t_y / sum_y m_y."""
    top = source.joint.max(axis=0)
    ties = (source.joint == top).sum(axis=0)
    return math.fsum((top * np.log(ties)).tolist()) / math.fsum(top.tolist())


def _domain(x) -> np.ndarray:
    """x as a float array, checked against the rate-function domain x >= 0."""
    xs = np.asarray(x, dtype=np.float64)
    if not np.all(xs >= 0.0):
        raise DomainError(f"rate function domain is x >= 0, got {float(xs.min())}")
    return xs


@dataclass(frozen=True)
class RateFunction:
    """Lambda*(x) on [0, log|X|] for a scalar or an array of x.

    Guess ranks never exceed the product of the per-letter column support
    sizes, so growth rates above x_sup = log(max_y |support(y)|) have zero
    probability at every n and the rate is +inf there.  At x_sup it is the
    closed form ``at_sup``, and below it the conjugate at an uncapped order.
    """

    gamma: float
    h_inf: float
    log_x_size: float
    x_sup: float
    at_sup: float
    columns: Columns

    @classmethod
    def from_source(cls, source: PairSource) -> "RateFunction":
        sizes = np.count_nonzero(source.joint, axis=0)
        widest = int(sizes.max())
        terms = [widest * math.exp(np.log(col[col > 0.0]).mean()) for col in source.joint.T[sizes == widest]]
        return cls(
            gamma=gamma(source),
            h_inf=conditional_min_entropy(source),
            log_x_size=source.log_x_size,
            x_sup=math.log(widest),
            at_sup=-math.log(math.fsum(terms)) + 0.0,
            columns=source.columns,
        )

    def __call__(self, x):
        xs = _domain(x)
        value = np.full(xs.shape, math.inf)
        finite = (xs <= self.log_x_size) & (xs <= self.x_sup + 1e-12)
        attainable = xs[finite]
        value[finite] = self.conjugate(attainable, np.full_like(attainable, _V_COLD))[0]
        return _shaped(xs, value)

    def conjugate(self, x: np.ndarray, v: np.ndarray):
        """(Lambda*(x), alpha, v, dv/dx, dalpha/dx) on a 1-D array of x in [0, x_sup].

        alpha is the order attaining the sup: -1 on [0, gamma], where v passes
        through; +inf from x_sup on, with v = 0 and dalpha/dx = +inf; between,
        ``_orders``' from Newton started at v.
        """
        value = self.h_inf - x
        alpha = np.full_like(x, -1.0)
        v, pace, rise = v.copy(), np.zeros_like(x), np.zeros_like(x)
        strict = x > self.gamma
        end = strict & (x >= self.x_sup)
        value[end], alpha[end], v[end], rise[end] = self.at_sup, math.inf, 0.0, math.inf
        strict &= ~end
        value[strict], alpha[strict], v[strict], pace[strict], rise[strict] = _orders(
            self.columns, x[strict], v[strict])
        return value, alpha, v, pace, rise


def rate_function(source: PairSource, x):
    """Lambda*(x); +inf sentinel beyond log|X| or the attainable slope range."""
    return RateFunction.from_source(source)(x)


def empirical_exponent(
    source: PairSource,
    x: float,
    eps: float,
    n: int,
    dist: GuessworkDistribution | None = None,
) -> float:
    """-n^-1 log P(n^-1 log G in [x-eps, x+eps]); +inf for zero-mass events."""
    if not 0.0 <= x < math.inf:
        raise DomainError(f"x must be finite and >= 0, got {x}")
    if not 0.0 < eps < math.inf:
        raise DomainError(f"eps must be finite and > 0, got {eps}")
    if dist is None:
        dist = guesswork_distribution(source, n)
    log_p = dist.log_prob_log_window(x - eps, x + eps)
    if log_p == -math.inf:
        return math.inf
    return -log_p / n
