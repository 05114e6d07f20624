"""Exact finite-n guesswork statistics for memoryless pair sources.

The package computes the exact law of the optimal guess rank G(X^n | Y^n)
as compressed probability-level blocks, its fractional moments with
provable finite-n bounds, the limiting scaled cumulant generating
function and its Legendre-transform rate function, k-of-m parallel
guesswork, and seeded Monte Carlo estimators, plus a CSV/JSON CLI.
"""

from .dyadic import DYADIC_ONE, DYADIC_ZERO, Dyadic
from .entropy import (
    OrderError,
    conditional_min_entropy,
    conditional_renyi_arimoto,
    conditional_shannon,
    renyi_entropy,
    shannon_entropy,
)
from .guesswork import (
    BUDGET_CAP,
    BudgetExceededError,
    GuessOrder,
    GuessworkDistribution,
    GuessworkError,
    SequenceError,
    TypeBlock,
    YTypeLaw,
    enumeration_budget,
    guess_rank,
    guesswork_distribution,
    log_moment_exact,
    log_moment_bounds,
    moment_bounds,
    moment_exact,
    optimal_order,
    plateau_window,
    scgf_empirical,
)
from .ldp import (
    DomainError,
    RateFunction,
    empirical_exponent,
    gamma,
    rate_function,
    scgf_derivative,
    scgf_limit,
)
from .model import (
    Alphabet,
    ConfigError,
    Distribution,
    ModelError,
    PairSource,
    ValidationError,
    conditional_x_given_y,
    load_source,
    load_source_file,
    make_source,
    marginal_y,
)
from .montecarlo import (
    SampleError,
    SampleReport,
    estimate_log_guesswork_rate,
    estimate_moment,
)
from .parallel import (
    EnsembleError,
    UserEnsemble,
    kmin_distribution,
    kmin_moment_exact,
    rate_parallel,
    rate_parallel_iid,
    scgf_parallel,
    scgf_parallel_iid,
)
from .powersum import power_sum, power_sum_log

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Dyadic",
    "DYADIC_ZERO",
    "DYADIC_ONE",
    "ModelError",
    "ConfigError",
    "ValidationError",
    "Alphabet",
    "Distribution",
    "PairSource",
    "load_source",
    "load_source_file",
    "make_source",
    "marginal_y",
    "conditional_x_given_y",
    "OrderError",
    "renyi_entropy",
    "shannon_entropy",
    "conditional_renyi_arimoto",
    "conditional_shannon",
    "conditional_min_entropy",
    "power_sum",
    "power_sum_log",
    "BUDGET_CAP",
    "GuessworkError",
    "SequenceError",
    "BudgetExceededError",
    "GuessOrder",
    "TypeBlock",
    "YTypeLaw",
    "GuessworkDistribution",
    "optimal_order",
    "guess_rank",
    "enumeration_budget",
    "guesswork_distribution",
    "moment_exact",
    "log_moment_exact",
    "log_moment_bounds",
    "moment_bounds",
    "scgf_empirical",
    "plateau_window",
    "DomainError",
    "RateFunction",
    "scgf_limit",
    "scgf_derivative",
    "gamma",
    "rate_function",
    "empirical_exponent",
    "EnsembleError",
    "UserEnsemble",
    "kmin_distribution",
    "kmin_moment_exact",
    "rate_parallel",
    "rate_parallel_iid",
    "scgf_parallel",
    "scgf_parallel_iid",
    "SampleError",
    "SampleReport",
    "estimate_log_guesswork_rate",
    "estimate_moment",
]
