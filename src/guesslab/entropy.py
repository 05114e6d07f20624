"""Rényi entropies and Arimoto conditional Rényi entropies in nats.

Generic orders are evaluated in log space, skipping zero-probability
atoms, so large orders do not underflow.  Orders 0, 1, and infinity are
routed to their limiting formulas; the window |order - 1| < SHANNON_WINDOW
is routed to the Shannon branch because the order/(1-order) prefactor
loses all precision there, and orders below ZERO_WINDOW are routed to
the order-0 limit for the same reason.

The order-0 limit of the conditional form is log max_y |supp p(.|y)|,
which equals log|X| whenever some conditional has full support; the
noiseless channel (one positive x per y) correctly gets 0.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .model import Distribution, PairSource

__all__ = [
    "SHANNON_WINDOW",
    "ZERO_WINDOW",
    "OrderError",
    "renyi_entropy",
    "shannon_entropy",
    "conditional_renyi_arimoto",
    "conditional_shannon",
    "conditional_min_entropy",
]

SHANNON_WINDOW = 1e-6
ZERO_WINDOW = 1e-12


class OrderError(ValueError):
    """Entropy order outside [0, infinity]."""


def _check_order(order: float) -> float:
    alpha = float(order)
    if math.isnan(alpha) or alpha < 0.0:
        raise OrderError(f"entropy order must be in [0, inf], got {order!r}")
    return alpha


def _logsumexp(values: "Sequence[float] | np.ndarray") -> float:
    vals = np.asarray(values, dtype=np.float64)
    vals = vals[vals != -math.inf]
    if not vals.size:
        return -math.inf
    top = float(vals.max())
    if top == math.inf:
        return math.inf
    return top + math.log(math.fsum(np.exp(vals - top).tolist()))


def shannon_entropy(dist: Distribution) -> float:
    """H(X) = -sum p log p in nats."""
    p = dist.pmf[dist.pmf > 0.0]
    return -math.fsum((p * np.log(p)).tolist()) + 0.0


def renyi_entropy(dist: Distribution, order: float) -> float:
    """H_alpha(X) = (1/(1-alpha)) log sum_x p(x)^alpha in nats."""
    alpha = _check_order(order)
    p = dist.pmf[dist.pmf > 0.0]
    if alpha == math.inf:
        return -math.log(float(np.max(p))) + 0.0
    if alpha < ZERO_WINDOW:
        return math.log(p.size)
    if abs(alpha - 1.0) < SHANNON_WINDOW:
        return shannon_entropy(dist)
    logp = np.log(p)
    return _logsumexp(alpha * logp) / (1.0 - alpha) + 0.0


def conditional_shannon(source: PairSource) -> float:
    """H(X|Y) = -sum_{x,y} p(x,y) log p(x|y) in nats."""
    joint = source.joint
    py = source.py
    terms = []
    for j in range(source.y_alphabet.size):
        log_py = math.log(float(py[j]))
        for v in joint[:, j]:
            if v > 0.0:
                terms.append(float(v) * (math.log(float(v)) - log_py))
    return -math.fsum(terms) + 0.0


def conditional_renyi_arimoto(source: PairSource, order: float) -> float:
    """H_alpha(X|Y) = (alpha/(1-alpha)) log sum_y (sum_x p(x,y)^alpha)^(1/alpha)."""
    alpha = _check_order(order)
    joint = source.joint
    if alpha == math.inf:
        return conditional_min_entropy(source)
    if alpha < ZERO_WINDOW:
        support = np.count_nonzero(joint > 0.0, axis=0)
        return math.log(int(np.max(support)))
    if abs(alpha - 1.0) < SHANNON_WINDOW:
        return conditional_shannon(source)
    outer = []
    for j in range(source.y_alphabet.size):
        col = joint[:, j]
        col = col[col > 0.0]
        outer.append(_logsumexp(alpha * np.log(col)) / alpha)
    return (alpha / (1.0 - alpha)) * _logsumexp(outer) + 0.0


def conditional_min_entropy(source: PairSource) -> float:
    """H_inf(X|Y) = -log sum_y max_x p(x,y) in nats."""
    top = np.max(source.joint, axis=0)
    return -math.log(math.fsum(float(v) for v in top)) + 0.0
