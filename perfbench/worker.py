"""One workload's client: a fresh process that imports guesslab and runs rounds of requests.

Started by ``run.py``; not meant to be run by hand.  It speaks JSON lines:
after set-up it writes ``{"setup_s": ...}`` with a calibration taken right
after (``calibration.py``); then, for each ``{"cmd": "round", "trace": bool}``
read from stdin, it runs every request of the spec once, in order, one at a
time, while a ``calibration.Ticker`` samples the machine's speed in untraced
rounds, and writes the round's latencies, calibration and outputs; ``{"cmd": "stop"}`` makes it write its peak resident memory and exit.
It never checks an output: checking happens in ``run.py``, between rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter


def _setup(root: str, spec: dict):
    """Import guesslab from the checkout and load every source with its exact views."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    t0 = perf_counter()
    import guesslab
    from guesslab.cli import dispatch
    from guesslab.model import load_source_file
    from guesslab.parallel import UserEnsemble

    sources = {}
    for name, path in spec["sources"].items():
        source = load_source_file(path)
        source.joint_dyadic
        source.py_dyadic
        sources[name] = source
    setup_s = perf_counter() - t0
    if not os.path.abspath(guesslab.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"guesslab imported from {guesslab.__file__}, not from {src}")

    def call(request: dict) -> tuple[int, object, str]:
        kind, p = request["kind"], request.get("params")
        if kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = dispatch(request["argv"])
            return rc, out.getvalue(), err.getvalue()
        # looked up at call time, so a traced round calls the traced functions
        if kind == "kmin":
            ensemble = UserEnsemble(tuple(sources[u] for u in p["users"]), p["k"])
            dist = guesslab.parallel.kmin_distribution(ensemble, p["n"])
            return 0, [dist.moment(a) for a in p["alphas"]], ""
        if kind == "rank":
            return 0, guesslab.guesswork.guess_rank(sources[p["source"]], list(p["x"]), list(p["y"])), ""
        raise ValueError(f"unknown request kind {kind!r}")

    def run(request: dict) -> tuple[int, object, str]:
        try:
            return call(request)
        except Exception:  # a failed request is reported, and the round goes on
            return 1, None, traceback.format_exc()

    return setup_s, run


def _rows(out: str) -> int:
    """Rows a CLI request printed: CSV lines after the header, or one JSON report."""
    if not out:
        return 0
    return 1 if out.startswith("{") else max(0, out.count("\n") - 1)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    setup_s, run = _setup(args.root, spec)
    import calibration  # after set-up: it imports numpy, which set-up must pay for

    calibration.run(calibration.WARMUP_UNITS)  # a fresh process's first units run slow
    setup_cal_s = calibration.run(calibration.SETUP_UNITS)
    proto = sys.stdout
    proto.write(json.dumps({
        "setup_s": setup_s, "cal_s": setup_cal_s, "cal_units": calibration.SETUP_UNITS,
    }) + "\n")
    proto.flush()
    if args.setup_only:
        return 0

    from spans import Tracer

    tracer = Tracer()
    ticker = calibration.Ticker()
    requests = spec["requests"]
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "stop":
            break
        traced = cmd["trace"]
        gc.collect()  # every round starts from a collected heap, untimed
        if traced:
            tracer.reset()
            tracer.install()
        latency, codes, outputs, errors, cli_s, rows = [], [], [], [], 0.0, 0
        # no ticks in a traced round: its spans would time them
        spans = []
        if not traced:
            ticker.start()
        start = perf_counter()
        for request in requests:
            lib_before = tracer.top_s
            tick_before = ticker.seconds
            t0 = perf_counter()
            rc, out, err = run(request)
            t1 = perf_counter()
            spans.append((t0 - start, t1 - start))
            dur = t1 - t0 - (ticker.seconds - tick_before)
            latency.append(dur)
            codes.append(rc)
            outputs.append(out)
            errors.append(err if rc else "")
            if traced and request["kind"] == "cli":
                cli_s += dur - (tracer.top_s - lib_before)
                rows += _rows(out)
        ticker.stop()
        cal_s, cal_units = (ticker.seconds, ticker.units) if not traced else (0.0, 0)
        marks = [(t - start, d) for t, d in ticker.marks] if not traced else []
        wall = perf_counter() - start - cal_s
        layers = None
        if traced:
            tracer.uninstall()
            layers = tracer.snapshot()
            layers["self_s"]["cli"] = cli_s
            layers["counts"]["cli.rows"] = rows
        proto.write(json.dumps({
            "wall": wall, "cal_s": cal_s, "cal_units": cal_units, "spans": spans, "marks": marks,
            "latency": latency, "codes": codes,
            "outputs": outputs, "errors": errors, "layers": layers,
        }) + "\n")
        proto.flush()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    proto.write(json.dumps({"peak_rss_kib": peak_kib}) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
