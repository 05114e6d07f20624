"""Rényi and Arimoto conditional Rényi entropies, and the SCGF, in nats.

One kernel evaluates every order beta in (0, inf).  With a = beta - 1,
alpha = (1 - beta)/beta and L = log p(x|y), each column has
log S_y = log sum_x p(x|y)^beta = log1p(a A_y), A_y = sum_x p(x|y) L expm1(aL)/(aL),
or, where S_y < 1/2 and log1p would cancel, the log-sum-exp of beta L.
With B_y = log S_y/(alpha beta), B* the largest B_y for alpha > 0 and the
smallest otherwise, d_y = B_y - B* and u = sum_y p_y expm1(alpha d_y),

    H_beta(X|Y) = B* + (sum_y p_y d_y expm1(alpha d_y)/(alpha d_y)) log1p(u)/u

and Lambda(alpha) = alpha H_beta(X|Y).  No 1/(1 - beta) or 1/alpha factor
is left, so order 1 needs no branch and a small alpha keeps its digits.
Masses count as exactly 1, as Lambda(0) = 0 asserts.  Orders 0 and inf
keep their closed forms, log max_y |supp p(.|y)| and -log sum_y max_x
p(x, y).  A Rényi entropy is the one-column case.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import Distribution, PairSource

__all__ = [
    "OrderError",
    "renyi_entropy",
    "shannon_entropy",
    "conditional_renyi_arimoto",
    "conditional_shannon",
    "conditional_min_entropy",
]


class OrderError(ValueError):
    """Entropy order outside [0, infinity]."""


class Columns(NamedTuple):
    """The columns of p(x|y), indexed [x, y, 0] (the last axis broadcasts over orders)."""

    mass: np.ndarray      # p_y, indexed [y, 0]
    logs: np.ndarray      # log p(x|y), and 0 off the support p(x|y) > 0, as in the next two
    weighted: np.ndarray  # p(x|y) log p(x|y)
    gaps: np.ndarray      # log p(x|y) less the column's largest, ``top`` (indexed [y, 0])
    top: np.ndarray
    support: np.ndarray


def columns(joint: np.ndarray) -> Columns:
    """The columns of a joint pmf, rows x and columns y, each normalised to mass 1."""
    mass = np.array([[math.fsum(col)] for col in joint.T.tolist()])
    cond = joint[:, :, np.newaxis] / mass
    support = cond > 0.0
    logs = np.log(cond, out=np.zeros_like(cond), where=support)
    top = logs.max(axis=0, where=support, initial=-math.inf)
    return Columns(mass, logs, cond * logs, (logs - top) * support, top, support)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num/den, and 1 where den = 0, where num vanishes too: expm1(z)/z and log1p(z)/z at z = 0."""
    zero = (den == 0.0).astype(np.float64)
    return (num + zero) / (den + zero)


def _shifted(cols: Columns, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q_y, log q_y, log S_y) at each order of a 1-D array beta, q_y = p(.|y)^beta / S_y, from logs
    shifted by each column's largest: log q_y is not beta log p - log S_y, which cancels as beta grows."""
    shifted = beta * cols.gaps
    e = np.exp(shifted) * cols.support
    total = e.sum(axis=0)
    log_total = np.log(total)
    return e / total, shifted - log_total, beta * cols.top + log_total


def _arimoto(cols: Columns, beta: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """H_beta(X|Y) = Lambda(alpha)/alpha at each pair of 1-D arrays beta, alpha = (1 - beta)/beta."""
    a = -alpha * beta
    z = a * cols.logs
    big_a = (cols.weighted * _ratio(np.expm1(z), z)).sum(axis=0)
    s_less_1 = a * big_a
    log_s = np.log1p(np.maximum(s_less_1, -0.5))
    if (s_less_1 < -0.5).any():  # S_y < 1/2, where log1p would cancel
        log_s = np.where(s_less_1 < -0.5, _shifted(cols, beta)[2], log_s)
    b = -big_a * _ratio(log_s, s_less_1)
    pick = np.where(alpha > 0.0, b.max(axis=0), b.min(axis=0))
    d = b - pick
    z = alpha * d
    em = np.expm1(z)
    u = (cols.mass * em).sum(axis=0)
    return pick + (cols.mass * d * _ratio(em, z)).sum(axis=0) * _ratio(np.log1p(u), u)


def _slope(cols: Columns, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Lambda'(alpha), dLambda'/dt) at each order of a 1-D array beta = 1/(1 + alpha), t = log(1 + alpha).

    With w_y proportional to p_y S_y^(1/beta), Lambda' = sum_y w_y H(q_y) and
    dLambda'/dt = sum_y w_y Var_{q_y}(log q_y) + (1 + alpha) Var_w(H(q_y)).
    """
    q, log_q, log_s = _shifted(cols, beta)
    ent = -(q * log_q).sum(axis=0)
    var = (q * (log_q + ent) ** 2).sum(axis=0)
    log_w = log_s / beta
    w = cols.mass * np.exp(log_w - log_w.max(axis=0))
    w /= w.sum(axis=0)
    slope = (w * ent).sum(axis=0)
    spread = (w * (ent - slope) ** 2).sum(axis=0)
    return slope, (w * var).sum(axis=0) + spread / beta


def _scgf(source: PairSource, alpha: np.ndarray) -> np.ndarray:
    """Lambda(alpha) = alpha H_{1/(1+alpha)}(X|Y) at an array of finite alpha > -1, a = beta - 1 as -alpha beta."""
    return alpha * _arimoto(source.columns, 1.0 / (1.0 + alpha), alpha)


def _shaped(xs: np.ndarray, values: np.ndarray):
    """values in the shape of xs: a float for a scalar x."""
    values = np.reshape(values, xs.shape)
    return float(values) if xs.ndim == 0 else values


def _entropies(cols: Columns, order, at_zero: float, at_inf: float):
    """H_beta at a scalar or an array of orders beta; orders 0 and inf take the given closed forms."""
    beta = np.asarray(order, dtype=np.float64)
    bad = np.isnan(beta) | (beta < 0.0)
    if bad.any():
        raise OrderError(f"entropy order must be in [0, inf], got {float(beta[bad].flat[0])!r}")
    flat = beta.ravel()
    # alpha is nan at order inf, +inf at 0 and where 1/beta overflows, as H_beta rounds to order 0's there
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        alpha = (1.0 - flat) / flat
    h = np.where(flat == math.inf, at_inf, at_zero)
    mid = np.isfinite(alpha)
    h[mid] = _arimoto(cols, flat[mid], alpha[mid])
    h = h.reshape(beta.shape) + 0.0
    return float(h) if beta.ndim == 0 else h


def shannon_entropy(dist: Distribution) -> float:
    """H(X) = -sum p log p in nats."""
    return renyi_entropy(dist, 1.0)


def renyi_entropy(dist: Distribution, order):
    """H_beta(X) = (1/(1-beta)) log sum_x p(x)^beta in nats, for a scalar or an array of orders."""
    at_inf = -math.log(float(np.max(dist.pmf)))
    return _entropies(columns(dist.pmf[:, np.newaxis]), order, math.log(dist.support_size), at_inf)


def conditional_shannon(source: PairSource) -> float:
    """H(X|Y) = -sum_{x,y} p(x,y) log p(x|y) in nats."""
    return conditional_renyi_arimoto(source, 1.0)


def conditional_renyi_arimoto(source: PairSource, order):
    """H_beta(X|Y) = (beta/(1-beta)) log sum_y (sum_x p(x,y)^beta)^(1/beta), for a scalar or an array of orders."""
    widest = int(np.count_nonzero(source.joint, axis=0).max())
    return _entropies(source.columns, order, math.log(widest), conditional_min_entropy(source))


def conditional_min_entropy(source: PairSource) -> float:
    """H_inf(X|Y) = -log sum_y max_x p(x,y) in nats."""
    top = np.max(source.joint, axis=0)
    return -math.log(math.fsum(float(v) for v in top)) + 0.0
