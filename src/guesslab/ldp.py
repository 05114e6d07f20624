"""Asymptotics of the guess rank: SCGF, rate function, finite-n exponents.

For memoryless pair sources the scaled cumulant generating function is
Lambda(alpha) = alpha * H_{1/(1+alpha)}(X|Y) = log sum_y s_y^(1+alpha), with
s_y = sum_x p(x,y)^beta and beta = 1/(1+alpha), for alpha > -1; it plateaus
at -H_inf(X|Y) for alpha <= -1.  Its slope is closed-form: with the tilted
columns q_y = p(., y)^beta / s_y and weights w_y proportional to
s_y^(1+alpha), Lambda'(alpha) = sum_y w_y H(q_y).  At the plateau edge it
tends to gamma = sum_y m_y log t_y / sum_y m_y, m_y the column maximum and
t_y the number of entries tied at it.

The rate function Lambda*(x) is linear (h_inf - x) on [0, gamma], +inf
above log max_y |support(y)|, and alpha*x - Lambda(alpha) in between, at
the order solving Lambda'(alpha) = x.  That order comes from a safeguarded
Newton iteration in t = log(1 + alpha), run over a whole array of x at
once, with the order bracketed in (-1, ALPHA_BRACKET].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import conditional_min_entropy, conditional_renyi_arimoto
from .guesswork import DEFAULT_MAX_TYPE_TUPLES, GuessworkDistribution, guesswork_distribution
from .model import PairSource

__all__ = [
    "ALPHA_BRACKET",
    "DomainError",
    "RateFunction",
    "scgf_limit",
    "scgf_derivative",
    "gamma",
    "rate_function",
    "empirical_exponent",
]

ALPHA_BRACKET = 64.0
_T_LO = -36.0  # t = log(1 + alpha) below double precision's resolution of alpha near -1
_T_HI = math.log1p(ALPHA_BRACKET)
# Newton stops on the residual |Lambda' - x|: a step-size test lets points
# cycle near the root for the whole iteration budget.
_RESIDUAL_TOL = 1e-14
_MAX_STEPS = 100


class DomainError(ValueError):
    """Argument outside the operation's domain."""


def _finite_order(alpha) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise DomainError(f"order must be finite, got {alpha}")
    return alpha


def scgf_limit(source: PairSource, alpha: float) -> float:
    """Lambda(alpha) = lim n^-1 log E G^alpha in nats."""
    alpha = _finite_order(alpha)
    if alpha <= -1.0:
        return -conditional_min_entropy(source)
    if alpha == 0.0:
        return 0.0
    return alpha * conditional_renyi_arimoto(source, 1.0 / (1.0 + alpha))


Columns = tuple[tuple[float, np.ndarray], ...]


def _columns(source: PairSource) -> Columns:
    """Per y-column: log max_x p(x,y), and log p(x,y) minus it on the support."""
    logs = [np.log(col[col > 0.0]) for col in source.joint.T]
    return tuple((float(v.max()), v - v.max()) for v in logs)


def _tilt(columns: Columns, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Lambda, Lambda', dLambda'/dt) at alpha = e^t - 1, for a 1-D array t.

    dLambda'/dt = sum_y w_y Var_{q_y}(log q_y) + (1+alpha) Var_w(H(q_y)).
    H(q_y) = -sum q log q takes log q from the shifted logs, as the equal
    log s_y - beta E_q[log p] cancels catastrophically near alpha = -1.
    Reductions run along one point's row: points do not affect each other.
    """
    s = np.exp(t)
    beta = np.exp(-t)
    f, ent, var = [], [], []
    for top, gaps in columns:
        log_q = np.multiply.outer(beta, gaps)
        lse = np.log(np.exp(log_q).sum(axis=1))
        log_q -= lse[:, np.newaxis]
        q = np.exp(log_q)
        h = -(q * log_q).sum(axis=1)
        f.append(top + s * lse)  # (1 + alpha) log s_y
        ent.append(h)
        var.append((q * (log_q + h[:, np.newaxis]) ** 2).sum(axis=1))
    f, ent, var = (np.stack(rows, axis=1) for rows in (f, ent, var))
    f_top = f.max(axis=1)
    w = np.exp(f - f_top[:, np.newaxis])
    total = w.sum(axis=1)
    w /= total[:, np.newaxis]
    slope = (w * ent).sum(axis=1)
    spread = (w * (ent - slope[:, np.newaxis]) ** 2).sum(axis=1)
    return f_top + np.log(total), slope, (w * var).sum(axis=1) + s * spread


def _orders(columns: Columns, x: np.ndarray, t: np.ndarray):
    """(alpha*x - Lambda(alpha), alpha, t, dt/dx) at the order solving Lambda'(alpha) = x, for x > gamma.

    t = log(1 + alpha) comes from Newton started at the given t, so a start
    at the root for a nearby x takes one or two steps; dt/dx is 1 over
    dLambda'/dt there, and 0 where that underflows.  Where no bracketed
    order reaches the slope x, alpha = ALPHA_BRACKET and dt/dx = 0.
    """
    lam_hi, slope_hi, _ = _tilt(columns, np.array([_T_HI]))
    capped = x >= slope_hi[0]
    t = np.where(capped, _T_HI, np.clip(t, _T_LO, _T_HI))
    lam = np.full_like(x, lam_hi[0])
    curv = np.zeros_like(x)  # dLambda'/dt; 0 where capped
    lo = np.full_like(x, _T_LO)
    hi = np.full_like(x, _T_HI)
    todo = np.flatnonzero(~capped)
    for _ in range(_MAX_STEPS):
        if todo.size == 0:
            break
        value, slope, curvature = _tilt(columns, t[todo])
        resid = slope - x[todo]
        done = np.abs(resid) <= _RESIDUAL_TOL
        lam[todo[done]] = value[done]
        curv[todo[done]] = curvature[done]
        todo, resid, curvature = todo[~done], resid[~done], curvature[~done]
        t_now = t[todo]
        hi[todo] = np.where(resid > 0.0, t_now, hi[todo])
        lo[todo] = np.where(resid > 0.0, lo[todo], t_now)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            step = t_now - resid / curvature
        inside = (step > lo[todo]) & (step < hi[todo])
        t[todo] = np.where(inside, step, 0.5 * (lo[todo] + hi[todo]))
    if todo.size:  # out of steps: the last iterate stands
        lam[todo], _, curv[todo] = _tilt(columns, t[todo])
    alpha = np.where(capped, ALPHA_BRACKET, np.expm1(t))
    pace = np.divide(1.0, curv, out=np.zeros_like(x), where=curv > 0.0)
    return alpha * x - lam, alpha, t, pace


def scgf_derivative(source: PairSource, alpha: float) -> float:
    """Lambda'(alpha) for alpha > -1; Lambda'(0) = H(X|Y)."""
    alpha = _finite_order(alpha)
    if alpha <= -1.0:
        raise DomainError(f"derivative undefined at alpha <= -1, got {alpha}")
    _, slope, _ = _tilt(_columns(source), np.array([math.log1p(alpha)]))
    return float(slope[0])


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


def _shaped(xs: np.ndarray, values: np.ndarray):
    """values in the shape of xs: a float for a scalar x."""
    values = np.reshape(values, xs.shape)
    return float(values) if xs.ndim == 0 else values


@dataclass(frozen=True)
class RateFunction:
    """Lambda*(x) on [0, log|X|] for a scalar or an array of x.

    Guess ranks never exceed the product of the per-letter column support
    sizes, so growth rates above x_sup = log(max_y |support(y)|) have zero
    probability at every n and the rate is +inf there.  Where the order
    solving Lambda'(alpha) = x exceeds ALPHA_BRACKET, the order is held at
    the bracket and the value is a slight underestimate.
    """

    gamma: float
    h_inf: float
    log_x_size: float
    x_sup: float
    columns: Columns

    @classmethod
    def from_source(cls, source: PairSource) -> "RateFunction":
        max_support = int((source.joint > 0.0).sum(axis=0).max())
        return cls(
            gamma=gamma(source),
            h_inf=conditional_min_entropy(source),
            log_x_size=source.log_x_size,
            x_sup=math.log(max_support),
            columns=_columns(source),
        )

    def __call__(self, x):
        xs = _domain(x)
        value = np.full(xs.shape, math.inf)
        finite = (xs <= self.log_x_size) & (xs <= self.x_sup + 1e-12)
        attainable = xs[finite]
        value[finite] = self.conjugate(attainable, np.zeros_like(attainable))[0]
        return _shaped(xs, value)

    def conjugate(self, x: np.ndarray, t: np.ndarray):
        """(Lambda*(x), alpha, t, dt/dx) on a 1-D array of x in [0, x_sup].

        alpha is the order attaining the sup: -1 with dt/dx = 0 on [0, gamma],
        where t passes through unchanged; above gamma it is ``_orders``',
        with the Newton iteration in t = log(1 + alpha) started from t.
        """
        value = self.h_inf - x
        alpha = np.full_like(x, -1.0)
        t, pace = t.copy(), np.zeros_like(x)
        strict = x > self.gamma
        value[strict], alpha[strict], t[strict], pace[strict] = _orders(self.columns, x[strict], t[strict])
        return value, alpha, t, pace


def rate_function(source: PairSource, x):
    """Lambda*(x); +inf sentinel beyond log|X| or the attainable slope range."""
    return RateFunction.from_source(source)(x)


def empirical_exponent(
    source: PairSource,
    x: float,
    eps: float,
    n: int,
    max_type_tuples: int = DEFAULT_MAX_TYPE_TUPLES,
    dist: GuessworkDistribution | None = None,
) -> float:
    """-n^-1 log P(n^-1 log G in [x-eps, x+eps]); +inf for zero-mass events."""
    if not 0.0 <= x < math.inf:
        raise DomainError(f"x must be finite and >= 0, got {x}")
    if not 0.0 < eps < math.inf:
        raise DomainError(f"eps must be finite and > 0, got {eps}")
    if dist is None:
        dist = guesswork_distribution(source, n, max_type_tuples)
    log_p = dist.log_prob_log_window(x - eps, x + eps)
    if log_p == -math.inf:
        return math.inf
    return -log_p / n
