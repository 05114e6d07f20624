"""Command-line entry point: subcommand dispatch, CSV/JSON emission, manifests.

All numeric output is in nats unless --bits is given, which divides
log-scale columns by ln 2 at display time only.  CSV cells carry 17
significant digits with a literal ``inf`` for the infinite sentinel.
Every run emits a RunManifest (parameters plus 64-bit content digests
of the input sources): as a sibling ``<out>.manifest.json`` when
writing files, embedded in the JSON payload for ``sample``, and on
stderr for CSV printed to stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, field
from functools import cache

from .dyadic import _LN2
from .entropy import (
    OrderError,
    conditional_renyi_arimoto,
    renyi_entropy,
)
from .guesswork import (
    BudgetExceededError,
    GuessworkError,
    SequenceError,
    exp_or_inf,
    guesswork_distribution,
    log_moment_bounds,
)
from .ldp import (
    DomainError,
    RateFunction,
    empirical_exponent,
    scgf_derivative,
    scgf_limit,
)
from .model import (
    ConfigError,
    Distribution,
    ModelError,
    PairSource,
    ValidationError,
    load_source_file,
)
from .montecarlo import SampleError, estimate_log_guesswork_rate, estimate_moment
from .parallel import (
    EnsembleError,
    UserEnsemble,
    kmin_distribution,
    rate_parallel,
    rate_parallel_iid,
    scgf_parallel,
    scgf_parallel_iid,
)

__all__ = ["RunManifest", "dispatch", "main"]

# an --xgrid list is built before any handler runs
_MAX_GRID_POINTS = 10**6

_ERROR_CODES: tuple[tuple[type, str], ...] = (
    (BudgetExceededError, "budget_exceeded"),
    (SequenceError, "sequence_error"),
    (EnsembleError, "ensemble_error"),
    (SampleError, "sample_error"),
    (DomainError, "domain_error"),
    (OrderError, "order_error"),
    (ConfigError, "config_error"),
    (ValidationError, "validation_error"),
    (GuessworkError, "guesswork_error"),
    (ModelError, "model_error"),
    (OSError, "io_error"),
)


@dataclass(frozen=True)
class RunManifest:
    """What produced an output: subcommand, parameters, input digests."""

    subcommand: str
    parameters: dict
    sources: dict = field(default_factory=dict)
    outputs: tuple = ()

    def fields(self) -> dict:
        """The fields by name, values shared: ``asdict`` would deep-copy every parameter."""
        return {"subcommand": self.subcommand, "parameters": self.parameters, "sources": self.sources,
                "outputs": self.outputs}

    def to_json(self) -> str:
        return json.dumps(self.fields(), sort_keys=True)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.blake2b(fh.read(), digest_size=8).hexdigest()


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _grid(text: str) -> list[float]:
    try:
        lo, hi, step = (float(tok) for tok in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be lo:hi:step, got {text!r}")
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0.0 or hi < lo:
        raise argparse.ArgumentTypeError(f"grid must be finite with step > 0 and hi >= lo: {text!r}")
    span = (hi - lo) / step  # inf when it overflows
    if not span < _MAX_GRID_POINTS - 0.5:  # round(span) + 1 points
        raise argparse.ArgumentTypeError(f"grid must have at most {_MAX_GRID_POINTS} points: {text!r}")
    return [lo + i * step for i in range(int(round(span)) + 1)]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")  # nan, inf and -inf included


def _scaled(value: float | None, bits: bool) -> float | None:
    if value is None or not bits:
        return value
    return value / _LN2


def _emit_csv(args, header: list[str], rows: list[list], manifest: RunManifest) -> None:
    _emit_lines(args, header, [",".join(map(_format_cell, row)) for row in rows], manifest)


def _emit_lines(args, header: list[str], lines: list[str], manifest: RunManifest) -> None:
    """Write the header and the already formatted CSV lines, and the manifest."""
    text = "\n".join([",".join(header), *lines]) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(out + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(manifest.to_json() + "\n")
    else:
        sys.stdout.write(text)
        sys.stderr.write(manifest.to_json() + "\n")


def _manifest(args, subcommand: str, source_paths: list[str]) -> RunManifest:
    parameters = {
        key: value
        for key, value in vars(args).items()
        if key not in ("handler",) and value is not None
    }
    out = getattr(args, "out", None)
    return RunManifest(
        subcommand=subcommand,
        parameters=parameters,
        sources={path: _digest(path) for path in source_paths},
        outputs=(out,) if out else (),
    )


def _x_marginal(source: PairSource) -> Distribution:
    return Distribution(source.x_alphabet, source.joint.sum(axis=1))


def _cmd_entropy(args) -> int:
    source = load_source_file(args.source)
    marginal = _x_marginal(source)
    conditional = conditional_renyi_arimoto(source, args.orders).tolist()
    unconditional = renyi_entropy(marginal, args.orders).tolist()
    rows = [[order, _scaled(c, args.bits), _scaled(u, args.bits)]
            for order, c, u in zip(args.orders, conditional, unconditional)]
    _emit_csv(args, ["order", "conditional", "unconditional"], rows, _manifest(args, "entropy", [args.source]))
    return 0


def _cmd_moments(args) -> int:
    source = load_source_file(args.source)
    dist = guesswork_distribution(source, args.n)
    inside = [alpha for alpha in args.alphas if -1.0 < alpha < 0.0]  # the bounds' orders, in one kernel pass
    bounds = {}
    if inside:
        logs = zip(inside, *(values.tolist() for values in log_moment_bounds(source, args.n, inside)))
        bounds = {alpha: (math.exp(lo), math.exp(hi)) for alpha, lo, hi in logs}
    rows = []
    for alpha in args.alphas:
        lower, upper = bounds.get(alpha, (None, None))
        log_m = dist.log_moment(alpha)
        rows.append([args.n, alpha, exp_or_inf(log_m), lower, upper, _scaled(log_m / dist.n, args.bits)])
    header = ["n", "alpha", "exact", "lower", "upper", "scgf_empirical"]
    _emit_csv(args, header, rows, _manifest(args, "moments", [args.source]))
    return 0


def _cmd_dist(args) -> int:
    source = load_source_file(args.source)
    dist = guesswork_distribution(source, args.n)
    y_types = []
    for law, starts, counts, levels in dist.law_rows():
        # each law's rows are formatted once, in one pass, as _format_cell writes its cells
        flat = [None] * (3 * len(starts))
        flat[::3], flat[1::3], flat[2::3] = starts, counts, levels
        rows = ("%d,%d,%.17g\n" * len(starts) % tuple(flat)).split("\n")[:-1]
        for y_counts, y_mass in law.y_masses:  # one label and y-mass per y-type
            y_type = ";".join(f"{sym}:{cnt}" for sym, cnt in zip(dist.y_symbols, y_counts))
            prefix = f"{y_type},{_format_cell(y_mass)},"
            y_types.append((y_counts, prefix + ("\n" + prefix).join(rows)))
    lines = [text for _, text in sorted(y_types)]
    header = ["y_type", "y_mass", "start", "count", "level"]
    _emit_lines(args, header, lines, _manifest(args, "dist", [args.source]))
    return 0


def _cmd_scgf(args) -> int:
    source = load_source_file(args.source)
    limits = scgf_limit(source, args.alphas).tolist()
    # the derivative is defined above the plateau only, and left blank on it
    derivatives = iter(scgf_derivative(source, [a for a in args.alphas if a > -1.0]).tolist())
    rows = [[alpha, _scaled(limit, args.bits), _scaled(next(derivatives) if alpha > -1.0 else None, args.bits)]
            for alpha, limit in zip(args.alphas, limits)]
    _emit_csv(args, ["alpha", "scgf_limit", "derivative"], rows, _manifest(args, "scgf", [args.source]))
    return 0


def _cmd_rate(args) -> int:
    source = load_source_file(args.source)
    values = RateFunction.from_source(source)(args.xgrid).tolist()
    rows = [[x, _scaled(value, args.bits)] for x, value in zip(args.xgrid, values)]
    _emit_csv(args, ["x", "rate"], rows, _manifest(args, "rate", [args.source]))
    return 0


def _cmd_ldp(args) -> int:
    source = load_source_file(args.source)
    rate = RateFunction.from_source(source)
    limit = rate(args.x)
    rows = []
    for n in range(1, args.nmax + 1):
        dist = guesswork_distribution(source, n)
        empirical = empirical_exponent(source, args.x, args.eps, n, dist=dist)
        gap = None
        if math.isfinite(empirical) and math.isfinite(limit):
            gap = empirical - limit
        rows.append(
            [
                n,
                args.x,
                args.eps,
                _scaled(empirical, args.bits),
                _scaled(limit, args.bits),
                _scaled(gap, args.bits),
            ]
        )
    header = ["n", "x", "eps", "empirical_exponent", "rate_function", "gap"]
    _emit_csv(args, header, rows, _manifest(args, "ldp", [args.source]))
    return 0


def _cmd_parallel(args) -> int:
    paths = [tok for tok in args.sources.split(",") if tok]
    sources = [load_source_file(p) for p in paths]
    if args.iid:
        if len(sources) != 1 or args.m is None:
            raise EnsembleError("--iid takes exactly one source and requires --m")
        base = sources[0]
        users = tuple([base] * args.m)
        k, m = args.k, args.m
    else:
        if args.m is not None:
            raise EnsembleError("--m is only meaningful with --iid")
        users = tuple(sources)
        k, m = args.k, len(sources)
    ensemble = UserEnsemble(users, k)
    rows = []
    if args.alphas and args.n is not None:
        dist = kmin_distribution(ensemble, args.n)
        for alpha in args.alphas:
            log_m = dist.log_moment(alpha)
            rows.append(["kmin_moment", args.n, alpha, None, exp_or_inf(log_m)])
            rows.append(["kmin_scgf_empirical", args.n, alpha, None, _scaled(log_m / dist.n, args.bits)])
    if args.alphas:
        for alpha in args.alphas:
            if args.iid:
                value = scgf_parallel_iid(users[0], k, m, alpha)
            else:
                value = scgf_parallel(ensemble, alpha)
            rows.append(["scgf_parallel", None, alpha, None, _scaled(value, args.bits)])
    if args.xgrid:
        if args.iid:
            values = rate_parallel_iid(users[0], k, m, args.xgrid)
        else:
            values = rate_parallel(ensemble, args.xgrid)
        for x, value in zip(args.xgrid, values.tolist()):
            rows.append(["rate_parallel", None, None, x, _scaled(value, args.bits)])
    header = ["quantity", "n", "alpha", "x", "value"]
    _emit_csv(args, header, rows, _manifest(args, "parallel", paths))
    return 0


def _cmd_sample(args) -> int:
    source = load_source_file(args.source)
    if args.alpha is None:
        report = estimate_log_guesswork_rate(source, args.n, args.samples, args.seed)
        statistic = "log_rate"
    else:
        report = estimate_moment(source, args.n, args.alpha, args.samples, args.seed)
        statistic = "moment"
    manifest = _manifest(args, "sample", [args.source])
    payload = dict(asdict(report), statistic=statistic, manifest=manifest.fields())
    if args.alpha is not None:
        payload["alpha"] = args.alpha
    text = json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _add_common(sub) -> None:
    sub.add_argument("--source", required=True, help="path to a JSON source config")
    sub.add_argument("--out", help="write CSV here plus a sibling manifest JSON")
    sub.add_argument("--bits", action="store_true", help="display log-scale values in bits")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that accepts comma lists starting with a negative number."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\.?\d[\d.,:eE+-]*$")


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="guesslab",
        description="Exact finite-n guesswork statistics and their large-deviation asymptotics.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("entropy", help="Rényi and Arimoto conditional entropies")
    _add_common(p)
    p.add_argument("--orders", type=_csv_floats, required=True)
    p.set_defaults(handler=_cmd_entropy)

    p = subs.add_parser("moments", help="exact E G^alpha with provable bounds")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alphas", type=_csv_floats, required=True)
    p.set_defaults(handler=_cmd_moments)

    p = subs.add_parser("dist", help="exact rank law as probability-level blocks")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_dist)

    p = subs.add_parser("scgf", help="SCGF limit and derivative")
    _add_common(p)
    p.add_argument("--alphas", type=_csv_floats, required=True)
    p.set_defaults(handler=_cmd_scgf)

    p = subs.add_parser("rate", help="Legendre-transform rate function on a grid")
    _add_common(p)
    p.add_argument("--xgrid", type=_grid, required=True)
    p.set_defaults(handler=_cmd_rate)

    p = subs.add_parser("ldp", help="finite-n exponents against the rate function")
    _add_common(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.set_defaults(handler=_cmd_ldp)

    p = subs.add_parser("parallel", help="k-of-m parallel guesswork")
    p.add_argument("--sources", required=True, help="comma-separated source config paths")
    p.add_argument("--out", help="write CSV here plus a sibling manifest JSON")
    p.add_argument("--bits", action="store_true")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--iid", action="store_true", help="replicate one source m times")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int, help="exact k-min moments at this length")
    p.add_argument("--alphas", type=_csv_floats)
    p.add_argument("--xgrid", type=_grid)
    p.set_defaults(handler=_cmd_parallel)

    p = subs.add_parser("sample", help="seeded Monte Carlo estimates")
    p.add_argument("--source", required=True)
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, help="moment order; omit to estimate n^-1 E log G")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=_cmd_sample)

    return parser


def dispatch(argv: list[str]) -> int:
    """Run one CLI invocation: 0 ok, 1 computation error, 2 usage error.

    The parser is built on the first call and reused: parsing keeps no
    state in it.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except tuple(cls for cls, _ in _ERROR_CODES) as exc:
        payload = {"error": _error_code(exc), "message": str(exc)}
        if isinstance(exc, BudgetExceededError):
            payload["required"] = exc.required
            payload["cap"] = exc.cap
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        return 1


def _error_code(exc: BaseException) -> str:
    for cls, code in _ERROR_CODES:
        if isinstance(exc, cls):
            return code
    return "computation_error"


def main() -> int:
    return dispatch(sys.argv[1:])
