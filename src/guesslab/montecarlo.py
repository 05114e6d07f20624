"""Seeded Monte Carlo estimates of guesswork statistics beyond exact budgets.

Pair sequences are drawn from the memoryless law with a counter-based
Philox generator keyed by the seed; sample i consumes row i of a fixed
uniform matrix, so reports are bit-reproducible and independent of any
evaluation schedule.  A draw matrix of more than BUDGET_CAP cells is
refused before anything is allocated.  Every sample gets its exact rank
from one batch walk of the source's ``RankTables`` at length n, the tables
``guess_rank`` reads too: all draws step through the memoised suffix
states together, one array gather per position, and only transitions the
tables do not hold yet are computed.  Each value is computed once per
distinct rank and gathered per sample.  Only the aggregation is
statistical, and it uses numpy's deterministic pairwise summation.  A mean
or standard error past the float range is an error, never an inf or NaN.

Moment estimation is capped at |alpha| <= MAX_MOMENT_ORDER: guesswork
moments are heavy-tailed and naive Monte Carlo loses all reliability
for large positive orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .guesswork import BUDGET_CAP, BudgetExceededError
from .model import PairSource

__all__ = [
    "MAX_MOMENT_ORDER",
    "MIN_SAMPLES",
    "SampleError",
    "SampleReport",
    "estimate_log_guesswork_rate",
    "estimate_moment",
]

MAX_MOMENT_ORDER = 4.0
MIN_SAMPLES = 100


class SampleError(ValueError):
    """Invalid sampling parameters."""


@dataclass(frozen=True)
class SampleReport:
    estimate: float
    std_error: float
    n: int
    samples: int
    seed: int


def _sample_ranks(source: PairSource, n: int, samples: int, seed: int) -> tuple[list[int], np.ndarray]:
    """The samples' distinct exact ranks, ascending, from one batch walk, and each sample's index into them."""
    if n < 1:
        raise SampleError(f"sequence length must be >= 1, got {n}")
    if samples < MIN_SAMPLES:
        raise SampleError(f"need at least {MIN_SAMPLES} samples, got {samples}")
    if not 0 <= seed < 1 << 128:
        raise SampleError(f"seed must be in [0, 2**128), got {seed}")
    if samples * n > BUDGET_CAP:
        raise BudgetExceededError(samples * n, BUDGET_CAP)
    atoms = source.joint.ravel()
    cumulative = np.cumsum(atoms)
    cumulative[-1] = 1.0
    rng = np.random.Generator(np.random.Philox(key=seed))
    cells = np.searchsorted(cumulative, rng.random((samples, n)), side="right")
    ranks, inverse = np.unique(source.rank_tables(n).ranks(cells), return_inverse=True)
    return ranks.tolist(), inverse


def _report(values: np.ndarray, n: int, samples: int, seed: int) -> SampleReport:
    """Mean and standard error of the per-sample values; overflow is an error."""
    with np.errstate(over="ignore", invalid="ignore"):
        estimate = float(np.mean(values))
        std_error = float(np.std(values, ddof=1) / math.sqrt(samples))
    if not (math.isfinite(estimate) and math.isfinite(std_error)):
        raise SampleError(
            f"estimate {estimate} with standard error {std_error} overflows float64; "
            "lower the moment order or n"
        )
    return SampleReport(estimate, std_error, n, samples, seed)


def estimate_log_guesswork_rate(source: PairSource, n: int, samples: int, seed: int) -> SampleReport:
    """Estimates n^-1 E log G(X1n|Y1n) from seeded i.i.d. samples."""
    ranks, inverse = _sample_ranks(source, n, samples, seed)
    values = np.array([math.log(r) / n for r in ranks])[inverse]
    return _report(values, n, samples, seed)


def _rank_power(rank: int, alpha: float) -> float:
    try:
        return float(rank) ** alpha
    except OverflowError:
        return math.inf if alpha > 0.0 else 0.0


def estimate_moment(source: PairSource, n: int, alpha: float, samples: int, seed: int) -> SampleReport:
    """Sample mean of G^alpha with its standard error."""
    alpha = float(alpha)
    if not abs(alpha) <= MAX_MOMENT_ORDER:
        raise SampleError(f"moment sampling requires |alpha| <= {MAX_MOMENT_ORDER}, got {alpha}")
    ranks, inverse = _sample_ranks(source, n, samples, seed)
    values = np.array([_rank_power(r, alpha) for r in ranks])[inverse]
    return _report(values, n, samples, seed)
