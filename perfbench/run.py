#!/usr/bin/env python3
"""guesslab's benchmark: run one workload (or all four) and print its metrics as JSON.

    python3 perfbench/run.py --workload corpus-moments --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; guesslab is imported from ``src/``.  Each
workload runs in a fresh ``worker.py`` process: a closed loop with one
client that issues the workload's requests one at a time, in rounds, until
the next round would end past ``--seconds`` of measured time.  The first
round is a warm-up: it is run and checked like the others, but left out of
the timings whenever later rounds exist.  Between rounds the outputs are
checked against ``reference.py``; checking is not timed.  The end-to-end
times are scaled to a reference machine speed, sampled all through each
round by ``calibration.py``.  ``--trace 1`` alternates untraced and traced
rounds and reports the per-layer metrics, unscaled, instead of the
end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
``--workload`` every workload runs in turn and each prints such a line,
with its name added.  A record of each run (per-round times, per-request
latencies, failure messages) is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import calibration
from checks import Checker
from workloads import DEFAULT_SEED, WORKLOADS, build

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 8  # extra fresh processes that only set up; setup_s is the median of 9
TIME_LIMIT_S = 170.0  # a run must end within 180 s, set-up and checks included

# per-layer metric -> (unit, source in the traced rounds)
PER_LAYER = {
    "model.load_s": ("s", "self_s", "model.load"),
    "guesswork.build_s": ("s", "self_s", "guesswork.build"),
    "guesswork.build_calls": ("count", "calls", "guesswork.build"),
    "guesswork.blocks": ("count", "counts", "guesswork.blocks"),
    "guesswork.moment_s": ("s", "self_s", "guesswork.moment"),
    "guesswork.moment_calls": ("count", "calls", "guesswork.moment"),
    "guesswork.window_s": ("s", "self_s", "guesswork.window"),
    "guesswork.window_calls": ("count", "calls", "guesswork.window"),
    "guesswork.rank_s": ("s", "self_s", "guesswork.rank"),
    "guesswork.rank_calls": ("count", "calls", "guesswork.rank"),
    "powersum.s": ("s", "self_s", "powersum"),
    "powersum.calls": ("count", "calls", "powersum"),
    "entropy.s": ("s", "self_s", "entropy"),
    "entropy.calls": ("count", "calls", "entropy"),
    "ldp.rate_setup_s": ("s", "self_s", "ldp.rate_setup"),
    "ldp.rate_s": ("s", "self_s", "ldp.rate"),
    "ldp.rate_calls": ("count", "calls", "ldp.rate"),
    "ldp.scgf_s": ("s", "self_s", "ldp.scgf"),
    "ldp.scgf_calls": ("count", "calls", "ldp.scgf"),
    "parallel.kmin_s": ("s", "self_s", "parallel.kmin"),
    "parallel.kmin_ranks": ("count", "counts", "parallel.kmin_ranks"),
    "parallel.scgf_s": ("s", "self_s", "parallel.scgf"),
    "parallel.rate_s": ("s", "self_s", "parallel.rate"),
    "parallel.rate_calls": ("count", "calls", "parallel.rate"),
    "montecarlo.s": ("s", "self_s", "montecarlo"),
    "montecarlo.samples": ("count", "counts", "montecarlo.samples"),
    "montecarlo.rank_reuse": ("share", None, None),
    "cli.s": ("s", "self_s", "cli"),
    "cli.rows": ("count", "counts", "cli.rows"),
    "trace.overhead_s": ("s", None, None),
    "guesslab.source_lines": ("lines", None, None),
}


class BenchError(RuntimeError):
    """The run cannot produce a result."""


class Worker:
    """A worker process and its JSON-lines pipe, read against a deadline."""

    def __init__(self, spec_path: str, setup_only: bool = False):
        env = dict(os.environ)
        env.pop("GUESSLAB_THREADS", None)  # measure the configuration users get
        argv = [sys.executable, WORKER, "--root", ROOT, "--spec", spec_path]
        if setup_only:
            argv.append("--setup-only")
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        self._buffer = b""

    def send(self, message: dict) -> None:
        self.proc.stdin.write((json.dumps(message) + "\n").encode())
        self.proc.stdin.flush()

    def read(self, deadline: float) -> dict:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            if left <= 0.0:
                raise BenchError("the worker did not answer before the time limit")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    err = self.proc.stderr.read().decode(errors="replace")
                    raise BenchError(f"the worker exited early:\n{err.strip()}")
                self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def close(self, deadline: float) -> None:
        """Wait for the worker to exit; kill it if it outlives the deadline."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc.stderr.close()


def source_lines() -> int:
    """Non-blank lines of guesslab's sources."""
    total = 0
    for folder, _, files in os.walk(os.path.join(ROOT, "src", "guesslab")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    total += sum(1 for line in fh if line.strip())
    return total


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    worker = None
    try:
        workload = build(name, seed, run_dir)
        spec_path = os.path.join(run_dir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(workload.spec(), fh)
        setups = []
        for _ in range(SETUP_PROBES):
            probe = Worker(spec_path, setup_only=True)
            try:
                setups.append(probe.read(deadline))
            finally:
                probe.close(deadline)
        worker = Worker(spec_path)
        setups.append(worker.read(deadline))

        checker = Checker(workload)
        requests = workload.requests
        rounds = []
        failures: dict[int, list] = {}
        attempted = failed = 0
        correct = True
        measured = 0.0
        while True:
            traced = trace and len(rounds) % 2 == 1
            worker.send({"cmd": "round", "trace": traced})
            record = worker.read(deadline)
            record["traced"] = traced
            if not traced:  # traced rounds run no ticks, and their times are not scaled
                record["scale"] = calibration.scale(record["cal_s"], record["cal_units"])
                record["scales"] = calibration.local_scales(record["spans"], record["marks"])
            measured += record["wall"] + record["cal_s"]
            check_start = time.monotonic()
            for request, code, output, error in zip(
                requests, record["codes"], record["outputs"], record["errors"]
            ):
                found = checker.check(request, code, output, error, record["outputs"])
                attempted += 1
                if found:
                    failed += 1
                    failures.setdefault(request["id"], found)
                    correct = correct and all(known for _, known in found)
            record.pop("outputs")
            rounds.append(record)
            check_s = time.monotonic() - check_start
            print(f"[{name}] round {len(rounds)}{' traced' if traced else ''}: "
                  f"{record['wall']:.3f} s, checks {check_s:.2f} s", file=sys.stderr)
            have_both = not trace or any(r["traced"] for r in rounds)
            round_s = record["wall"] + record["cal_s"]
            next_end = time.monotonic() + round_s + check_s
            if have_both and (measured + round_s > seconds or next_end > deadline - 5.0):
                break
        worker.send({"cmd": "stop"})
        peak_kib = worker.read(deadline)["peak_rss_kib"]
    finally:
        if worker is not None:
            worker.close(deadline)
        shutil.rmtree(run_dir, ignore_errors=True)

    if trace:
        metrics = _per_layer(rounds)
    else:
        latency = _request_medians(_timed(rounds), scaled=True)
        metrics = {
            "wall_s": {"value": math.fsum(latency), "unit": "s"},
            "request_gmean_s": {"value": _gmean(latency), "unit": "s"},
            "setup_s": {"value": statistics.median(_setup_times(setups, scaled=True)), "unit": "s"},
            "peak_rss_mib": {"value": peak_kib / 1024.0, "unit": "MiB"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    _write_record(name, seed, seconds, trace, workload, rounds, setups, failures, result)
    return result


def _timed(rounds: list) -> list:
    """The untraced rounds that count: all but the warm-up round, unless it is the only one."""
    untraced = [r for r in rounds if not r["traced"]]
    return untraced[1:] or untraced


def _request_medians(rounds: list, scaled: bool) -> list[float]:
    """Each request's median latency over the rounds, in reference seconds if `scaled`."""
    return [
        statistics.median(r["latency"][i] * (r["scales"][i] if scaled else 1.0) for r in rounds)
        for i in range(len(rounds[0]["latency"]))
    ]


def _gmean(values: list[float]) -> float:
    return math.exp(math.fsum(map(math.log, values)) / len(values))


def _setup_times(setups: list, scaled: bool) -> list[float]:
    """Each process's set-up time, in reference seconds if `scaled`."""
    return [s["setup_s"] * (calibration.scale(s["cal_s"], s["cal_units"]) if scaled else 1.0)
            for s in setups]


def _per_layer(rounds: list) -> dict:
    traced = [r for r in rounds if r["traced"]]
    untraced = _timed(rounds)
    first = traced[0]["layers"]
    metrics = {}
    for metric, (unit, kind, key) in PER_LAYER.items():
        if kind == "self_s":
            value = statistics.median([r["layers"]["self_s"].get(key, 0.0) for r in traced])
        elif kind is not None:
            value = first[kind].get(key, 0)
        elif metric == "montecarlo.rank_reuse":
            samples = first["counts"].get("montecarlo.samples", 0)
            ranked = first["counts"].get("montecarlo.ranked", 0)
            value = 1.0 - ranked / samples if samples else 0.0
        elif metric == "trace.overhead_s":
            value = statistics.median([r["wall"] for r in traced]) - statistics.median([r["wall"] for r in untraced])
        else:
            value = source_lines()
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def _write_record(name, seed, seconds, trace, workload, rounds, setups, failures, result) -> None:
    raw = _request_medians(_timed(rounds), scaled=False)
    per_request = []
    for i, request in enumerate(workload.requests):
        per_request.append({
            "id": request["id"],
            "op": request["argv"][0] if request["kind"] == "cli" else request["kind"],
            "check": request["check"]["type"],
            "median_s": raw[i],
            "failures": failures.get(request["id"], []),
        })
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "setup_s": setups,
        "rounds": [{k: r.get(k) for k in ("wall", "cal_s", "cal_units", "scale", "traced", "layers")}
                   for r in rounds],
        "requests": per_request,
        # the end-to-end times in measured seconds, before scaling to the reference speed
        "unscaled": {"wall_s": math.fsum(raw), "request_gmean_s": _gmean(raw),
                     "setup_s": statistics.median(_setup_times(setups, scaled=False))},
        "result": result,
    }
    path = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")
    if not os.path.isfile(os.path.join(ROOT, "src", "guesslab", "__init__.py")):
        print(f"no guesslab sources under {os.path.join(ROOT, 'src')}: "
              "run the benchmark from the root of a guesslab checkout", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            if args.workload is None:
                result = {"workload": name, **result}
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
