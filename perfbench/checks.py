"""Checks of every request's output against the references in ``reference.py``.

A check compares an output with a value computed apart from guesslab, or
with a property the method must have (a provable bound, an identity between
two outputs).  It never compares with a stored copy of an earlier output.

``Checker.check`` returns the request's failures as (message, known) pairs.
``known`` marks a failure of the fault that the workload keeps on purpose
(``workloads.KNOWN_FAULT``): such a request counts as failed, but the run
stays correct.  Any other failure makes the run incorrect.

References are computed once per request and reused in later rounds, since
every round repeats the same requests.
"""

from __future__ import annotations

import json
import math

import reference as ref

__all__ = ["Checker", "parse_csv"]


def _cell(tok: str):
    if tok == "":
        return None
    if tok.lstrip("-").isdigit():
        return int(tok)
    try:
        return float(tok)
    except ValueError:
        return tok


def parse_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, (_cell(t) for t in line.split(",")))) for line in lines[1:]]


def _log_frac(v) -> float:
    return math.log(v.numerator) - math.log(v.denominator)


def _is_bsc(joint) -> bool:
    return (
        len(joint) == 2 and len(joint[0]) == 2
        and joint[0][0] == joint[1][1] and joint[0][1] == joint[1][0]
        and joint[0][0] > joint[0][1] > 0.0
    )


def _is_uniform_binary(joint) -> bool:
    return joint == [[0.5], [0.5]]


BRUTE_KEYS = 300_000  # largest |X|**n * (number of y-types) brute-forced


def _brute_ok(joint, n: int) -> bool:
    return len(joint) ** n * math.comb(n + len(joint[0]) - 1, len(joint[0]) - 1) <= BRUTE_KEYS


class Checks:
    """Collects the failures of one request."""

    def __init__(self):
        self.failures: list[tuple[str, bool]] = []

    def fail(self, message: str, known: bool = False) -> None:
        self.failures.append((message, known))

    def close(self, what: str, got, want, tol: float, known: bool = False) -> None:
        """|got - want| <= tol, with infinities equal only to themselves."""
        if got is None or want is None:
            if got is not want:
                self.fail(f"{what}: got {got!r}, want {want!r}", known)
            return
        if math.isinf(want) or math.isinf(got):
            if got != want:
                self.fail(f"{what}: got {got!r}, want {want!r}", known)
            return
        if not abs(got - want) <= tol:
            self.fail(f"{what}: got {got!r}, want {want!r} (|diff| {abs(got - want):.3g} > {tol:.1g})", known)

    def at_most(self, what: str, got, bound: float, tol: float, known: bool = False) -> None:
        if not got <= bound + tol:
            self.fail(f"{what}: {got!r} exceeds {bound!r}", known)


class Checker:
    def __init__(self, workload):
        self.workload = workload
        self.joints = {name: src.joint for name, src in workload.sources.items()}
        self._cache: dict = {}

    def check(self, request: dict, code: int, output, error: str, round_outputs: list) -> list[tuple[str, bool]]:
        c = Checks()
        spec = request["check"]
        if code != 0:
            c.fail(f"exit code {code}: {error.strip()[-300:]}")
            return c.failures
        try:
            getattr(self, "_" + spec["type"])(c, spec, output, request["id"], round_outputs)
        except Exception as exc:  # malformed output: report it, keep checking the rest
            c.fail(f"unreadable output: {type(exc).__name__}: {exc}")
        return c.failures

    # --- references, cached per request ---------------------------------------------

    def _cached(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def _law(self, name: str, n: int) -> ref.ExactLaw:
        joint = self.joints[name]
        if _is_bsc(joint):
            return self._cached(("law", name, n), lambda: ref.bsc_rank_pmf(joint[0][0], joint[0][1], n))
        return self._cached(("law", name, n), lambda: ref.rank_pmf(joint, n))

    def _log_moment_ref(self, name: str, n: int, alpha: float) -> tuple[float, float] | None:
        """(log E G**alpha, tolerance) from an exact reference, or None past brute-force sizes."""
        joint = self.joints[name]
        if _is_uniform_binary(joint):
            return ref.uniform_log_moment(n, alpha), 1e-10
        if _is_bsc(joint):
            a, b = joint[0]
            if alpha in (1.0, 2.0):
                return _log_frac(ref.bsc_moment_exact(a, b, n, int(alpha))), 1e-12
            return ref.bsc_log_moment(a, b, n, alpha), 1e-10
        if _brute_ok(joint, n):
            return ref.law_log_moment(self._law(name, n), alpha), 1e-10
        return None

    # --- one method per request type -------------------------------------------------

    def _moments(self, c: Checks, spec, output, rid, _round):
        joint, n = self.joints[spec["source"]], spec["n"]
        rows = parse_csv(output)
        if [r["alpha"] for r in rows] != spec["alphas"] or any(r["n"] != n for r in rows):
            c.fail("rows do not match the requested n and orders")
            return
        log_l = math.log1p(n * math.log(len(joint)))
        for row, alpha in zip(rows, spec["alphas"]):
            exact = row["exact"]
            if not (isinstance(exact, (int, float)) and 0.0 < exact < math.inf):
                c.fail(f"alpha={alpha}: moment {exact!r} is not positive and finite")
                continue
            log_exact = math.log(exact)
            c.close(f"alpha={alpha}: scgf_empirical", row["scgf_empirical"], log_exact / n, 1e-13)
            lo, hi = ref.moment_interval(joint, n, alpha)
            tol = 1e-9 * max(1.0, abs(lo))
            if not lo - tol <= log_exact <= hi + tol:
                c.fail(f"alpha={alpha}: log E G^alpha {log_exact!r} outside [{lo!r}, {hi!r}]")
            if -1.0 < alpha < 0.0:
                base = n * ref.scgf(joint, alpha)
                c.close(f"alpha={alpha}: lower bound", math.log(row["lower"]), base, 1e-9 * max(1.0, abs(base)))
                c.close(f"alpha={alpha}: upper bound", math.log(row["upper"]), base - alpha * log_l,
                        1e-9 * max(1.0, abs(base)))
            elif row["lower"] is not None or row["upper"] is not None:
                c.fail(f"alpha={alpha}: bound cells must be empty outside (-1, 0)")
            want = self._cached((rid, alpha), lambda: self._log_moment_ref(spec["source"], n, alpha))
            if want is not None:
                value, tol = want
                # a relative error of the moment is an absolute error of its log
                c.close(f"alpha={alpha}: log E G^alpha", log_exact, value, tol)

    def _window_log_probs(self, name: str, n: int, lo: float, hi: float) -> list[float]:
        """log P(log(G)/n in [lo, hi]) for each rank range of ``ref.window_ranks``."""
        joint = self.joints[name]
        if _is_uniform_binary(joint):
            counts = ref.uniform_window_count(n, lo, hi)
            return [math.log(k) - n * math.log(2.0) if k else -math.inf for k in counts]
        out = []
        for r_lo, r_hi in ref.window_ranks(n, lo, hi, len(joint) ** n):
            if _is_bsc(joint):
                out.append(ref.bsc_log_window(joint[0][0], joint[0][1], n, r_lo, r_hi))
            else:
                mass = ref.law_window_prob(self._law(name, n), r_lo, r_hi)
                out.append(_log_frac(mass) if mass else -math.inf)
        return out

    def _ldp(self, c: Checks, spec, output, rid, _round):
        name, x, eps = spec["source"], spec["x"], spec["eps"]
        joint = self.joints[name]
        rows = parse_csv(output)
        if [r["n"] for r in rows] != list(range(1, spec["nmax"] + 1)):
            c.fail("rows must run over n = 1..nmax")
            return
        limit = self._cached((rid, "rate"), lambda: ref.rate(joint, x)[0])
        for row in rows:
            n = row["n"]
            c.close(f"n={n}: rate_function", row["rate_function"], limit, 1e-9)
            log_ps = self._cached((rid, n), lambda: self._window_log_probs(name, n, x - eps, x + eps))
            wants = [math.inf if log_p == -math.inf else -log_p / n for log_p in log_ps]
            got = row["empirical_exponent"]
            want = min(wants, key=lambda w: 0.0 if w == got else abs(w - got) if math.isfinite(w - got) else math.inf)
            c.close(f"n={n}: empirical exponent", got, want, 1e-12 * max(1.0, abs(want)))
            emp, lim = row["empirical_exponent"], row["rate_function"]
            if math.isfinite(emp) and math.isfinite(lim):
                c.close(f"n={n}: gap", row["gap"], emp - lim, 1e-12)
            elif row["gap"] is not None:
                c.fail(f"n={n}: gap must be empty when an exponent is infinite")

    def _dist(self, c: Checks, spec, output, rid, _round):
        joint, n = self.joints[spec["source"]], spec["n"]
        rows = parse_csv(output)
        total = len(joint) ** n
        by_type: dict[str, list[dict]] = {}
        for row in rows:
            by_type.setdefault(row["y_type"], []).append(row)
        for y_type, block_rows in by_type.items():
            start = 1
            previous = math.inf
            for row in block_rows:
                if row["start"] != start or row["count"] < 1:
                    c.fail(f"{y_type}: blocks are not contiguous at rank {start}")
                    return
                if not row["level"] < previous:
                    c.fail(f"{y_type}: levels do not strictly decrease at rank {start}")
                    return
                previous = row["level"]
                start += row["count"]
            if start != total + 1:
                c.fail(f"{y_type}: counts cover {start - 1} ranks, not {total}")
        if len(joint[0]) != 1:
            return
        # one y symbol: the blocks are the x-types themselves
        want = self._cached(rid, lambda: ref.type_levels([row[0] for row in joint], n))
        if len(want) != len(rows):
            c.fail(f"{len(rows)} blocks, want {len(want)} types")
            return
        for row, (log_level, count) in zip(rows, want):
            if row["count"] != count:
                c.fail(f"block at rank {row['start']}: count {row['count']}, want {count}")
                return
            c.close(f"block at rank {row['start']}: log level", math.log(row["level"]), log_level,
                    1e-12 * abs(log_level))
            c.close(f"block at rank {row['start']}: y_mass", row["y_mass"], 1.0, 1e-12)

    def _entropy(self, c: Checks, spec, output, rid, _round):
        joint = self.joints[spec["source"]]
        marginal = [math.fsum(row) for row in joint]
        rows = parse_csv(output)
        if len(rows) != len(spec["orders"]):
            c.fail("one row per order expected")
            return
        for row, order in zip(rows, spec["orders"]):
            c.close(f"order={order}: conditional", row["conditional"], ref.arimoto(joint, order), 1e-12)
            c.close(f"order={order}: unconditional", row["unconditional"], ref.renyi(marginal, order), 1e-12)

    def _scgf(self, c: Checks, spec, output, rid, _round):
        joint = self.joints[spec["source"]]
        rows = parse_csv(output)
        if [r["alpha"] for r in rows] != spec["alphas"]:
            c.fail("one row per order expected")
            return
        for row, alpha in zip(rows, spec["alphas"]):
            want = ref.scgf(joint, alpha)
            c.close(f"alpha={alpha}: Lambda", row["scgf_limit"], want, 1e-12 * max(1.0, abs(want)))
            if alpha <= -1.0:
                c.close(f"alpha={alpha}: derivative", row["derivative"], None, 0.0)
            else:
                # the program differentiates numerically (Richardson, h = 1e-6)
                c.close(f"alpha={alpha}: derivative", row["derivative"], ref.scgf_prime(joint, alpha), 1e-7)

    def _rate_ref(self, name: str, x: float) -> tuple[float, float | None]:
        return self._cached(("rate", name, x), lambda: ref.rate(self.joints[name], x))

    def _check_rate(self, c: Checks, what: str, got: float, name: str, x: float, factor: float = 1.0):
        value, alpha = self._rate_ref(name, x)
        want = factor * value
        if alpha is not None and alpha > 60.0:
            # the program brackets the maximizing order at 64, so it may only undershoot
            c.at_most(what, got, want, 1e-9 * factor)
        else:
            c.close(what, got, want, 1e-9 * factor)

    def _rate(self, c: Checks, spec, output, rid, _round):
        name = spec["source"]
        rows = parse_csv(output)
        if len(rows) != len(spec["xgrid"]):
            c.fail(f"{len(rows)} rows for {len(spec['xgrid'])} grid points")
            return
        for row, x in zip(rows, spec["xgrid"]):
            c.close(f"x={x}: grid point", row["x"], x, 1e-12)
            self._check_rate(c, f"x={row['x']}: rate", row["rate"], name, row["x"])
            if spec.get("zero"):
                c.close(f"x={row['x']}: rate at H(X|Y)", row["rate"], 0.0, 1e-9)

    def _split_parallel(self, output) -> dict[str, list[dict]]:
        out: dict[str, list[dict]] = {}
        for row in parse_csv(output):
            out.setdefault(row["quantity"], []).append(row)
        return out

    def _kmin_log_moment(self, key, laws, k: int, alpha: float) -> float:
        """log E G_(k)**alpha over the exact k-of-m law of ``laws()``, cached under ``key``."""
        law = self._cached(key, lambda: ref.kmin_pmf(laws(), k))
        return self._cached(key + (alpha,), lambda: ref.law_log_moment(law, alpha))

    def _check_kmin_rows(self, c: Checks, rows: dict, key, laws, k: int, n: int, alphas):
        moments = rows.get("kmin_moment", [])
        scgfs = rows.get("kmin_scgf_empirical", [])
        if [r["alpha"] for r in moments] != alphas or len(scgfs) != len(alphas):
            c.fail("kmin rows do not match the requested orders")
            return
        for mrow, srow, alpha in zip(moments, scgfs, alphas):
            want = self._kmin_log_moment(key, laws, k, alpha)
            got = math.log(mrow["value"])
            c.close(f"alpha={alpha}: log E G_(k)^alpha", got, want, 1e-10)
            c.close(f"alpha={alpha}: kmin_scgf_empirical", srow["value"], got / n, 1e-13)

    def _parallel_iid(self, c: Checks, spec, output, rid, round_outputs):
        name, m, k, n = spec["source"], spec["m"], spec["k"], spec["n"]
        joint = self.joints[name]
        rows = self._split_parallel(output)
        if n is not None:
            self._check_kmin_rows(c, rows, ("kmin", name, m, k, n), lambda: [self._law(name, n)] * m,
                                  k, n, spec["alphas"])
        scgf_rows = rows.get("scgf_parallel", [])
        if [r["alpha"] for r in scgf_rows] != spec["alphas"]:
            c.fail("scgf_parallel rows do not match the requested orders")
        for row, alpha in zip(scgf_rows, spec["alphas"]):
            spread = k if alpha <= 0.0 else m - k + 1
            want = spread * ref.scgf(joint, alpha / spread)
            c.close(f"alpha={alpha}: Lambda_(k,m)", row["value"], want, 1e-12 * max(1.0, abs(want)))
        self._check_identical_rates(c, rows, spec)
        if spec.get("chain"):
            self._chain(c, spec, rows, round_outputs)

    def _parallel_same(self, c: Checks, spec, output, rid, _round):
        self._check_identical_rates(c, self._split_parallel(output), spec)

    def _check_identical_rates(self, c: Checks, rows: dict, spec):
        """m identical users: I(x) = k Lambda*(x) below H(X|Y), (m-k+1) Lambda*(x) above."""
        name, m, k = spec["source"], spec["m"], spec["k"]
        rate_rows = rows.get("rate_parallel", [])
        if len(rate_rows) != len(spec["xgrid"]):
            c.fail(f"{len(rate_rows)} rate rows for {len(spec['xgrid'])} grid points")
            return
        h = ref.h_shannon(self.joints[name])
        for row in rate_rows:
            x = row["x"]
            factor = k if x <= h else m - k + 1
            self._check_rate(c, f"x={x}: I_(k,m)", row["value"], name, x, factor)

    def _chain(self, c: Checks, spec, rows: dict, round_outputs):
        """Criterion 7c at this n: T - env_n <= e_n <= h_n <= T for two identical users."""
        name, n = spec["source"], spec["n"]
        joint = self.joints[name]
        partner = next(
            r for r in self.workload.requests
            if r["check"]["type"] == "moments" and r["check"]["source"] == name
            and r["check"]["n"] == n and r["check"]["alphas"] == [0.5]
        )
        half = parse_csv(round_outputs[partner["id"]])[0]["exact"]
        e_n = math.log(rows["kmin_moment"][0]["value"]) / n
        h_n = 2.0 * math.log(half) / n
        target = 2.0 * ref.scgf(joint, 0.5)
        l_n = 1.0 + n * math.log(len(joint))
        cauchy = math.log(1.0 + l_n / 4.0) / n
        arikan = math.log(l_n) / n
        if not e_n <= h_n + 1e-12:
            c.fail(f"n={n}: e_n {e_n!r} exceeds h_n {h_n!r}")
        if not h_n <= target + 1e-12:
            c.fail(f"n={n}: h_n {h_n!r} exceeds T {target!r}")
        if not e_n >= h_n - cauchy - 1e-12:
            c.fail(f"n={n}: e_n {e_n!r} below h_n - log(1 + L_n/4)/n")
        if not h_n >= target - arikan - 1e-12:
            c.fail(f"n={n}: h_n {h_n!r} below T - log(L_n)/n")

    def _parallel_mixed(self, c: Checks, spec, output, rid, _round):
        """Distinct users, k = 1: the exact law, and the order-statistic bounds on Lambda and I."""
        names, n = spec["sources"], spec["n"]
        joints = [self.joints[s] for s in names]
        rows = self._split_parallel(output)
        self._check_kmin_rows(c, rows, ("kmin", tuple(names), spec["k"], n),
                              lambda: [self._law(s, n) for s in names], spec["k"], n, spec["alphas"])
        known = spec.get("known_fault") is not None
        for row, alpha in zip(rows.get("scgf_parallel", []), spec["alphas"]):
            lams = [ref.scgf(j, alpha) for j in joints]
            if alpha < 0.0:
                # min(G)^alpha = max_i G_i^alpha lies between max_i and sum_i of E G_i^alpha
                c.close(f"alpha={alpha}: Lambda_(1,m) = max_i Lambda_i", row["value"], max(lams), 1e-6, known)
            else:
                c.at_most(f"alpha={alpha}: Lambda_(1,m) <= min_i Lambda_i", row["value"], min(lams), 1e-9, known)
        h_min = min(ref.h_shannon(j) for j in joints)
        rate_rows = rows.get("rate_parallel", [])
        if len(rate_rows) != len(spec["xgrid"]):
            c.fail(f"{len(rate_rows)} rate rows for {len(spec['xgrid'])} grid points")
        for row in rate_rows:
            x = row["x"]
            if x < h_min:
                # P(min_i G_i <= e^(nx)) >= max_i P(G_i <= e^(nx))
                bound = min(self._rate_ref(s, x)[0] for s in names)
                c.at_most(f"x={x}: I_(1,m) <= min_i Lambda*_i", row["value"], bound, 1e-9, known)

    def _kmin(self, c: Checks, spec, output, rid, _round):
        users, k, n = spec["users"], spec["k"], spec["n"]
        for got, alpha in zip(output, spec["alphas"]):
            want = self._kmin_log_moment(("kmin", tuple(users), k, n), lambda: [self._law(u, n) for u in users],
                                         k, alpha)
            c.close(f"alpha={alpha}: log E G_(k)^alpha", math.log(got), want, 1e-10)

    def _sample(self, c: Checks, spec, output, rid, _round):
        joint, n, alpha = self.joints[spec["source"]], spec["n"], spec["alpha"]
        report = json.loads(output)
        if report["n"] != n or report["samples"] != spec["samples"]:
            c.fail("report does not echo n and samples")
        if alpha is None:
            if report["statistic"] != "log_rate":
                c.fail(f"statistic {report['statistic']!r}, want 'log_rate'")
            if _is_uniform_binary(joint):
                exact = ref.uniform_mean_log_rank(n) / n
            else:
                exact = self._cached(rid, lambda: ref.bsc_mean_log_rank(joint[0][0], joint[0][1], n)) / n
        else:
            if report["statistic"] != "moment" or report["alpha"] != alpha:
                c.fail("report does not echo the moment order")
            exact = math.exp(self._cached(rid, lambda: self._log_moment_ref(spec["source"], n, alpha)[0]))
        se = report["std_error"]
        if not (se > 0.0 and abs(report["estimate"] - exact) <= 5.0 * se):
            c.fail(f"estimate {report['estimate']!r} is not within 5 standard errors ({se!r}) of {exact!r}")

    def _rank(self, c: Checks, spec, output, rid, _round):
        want = ref.bsc_rank(spec["x"], spec["y"])
        if output != want:
            c.fail(f"rank {output!r}, want {want!r}")
