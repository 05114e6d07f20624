"""Layer spans taken from outside guesslab, around calls into each module's public functions.

``Tracer.install`` replaces each traced function wherever a guesslab module
holds it (its own module, the modules that imported it by name, and the
package namespace) and ``uninstall`` puts the originals back, so an
untraced round runs the unmodified program.

Every ``*_s`` value is a self time: a span's duration minus the time of the
spans it encloses.  So the layer times add up to the library's share of a
request, and ``cli.s`` is what is left of a CLI request outside every span.
A ``*_calls`` value counts the spans of a layer that are not nested in a
span of the same layer.  Spans are aggregated as they close, not stored one
by one: a corpus round closes about 10**5 power-sum spans.

``guesslab.dyadic`` gets no span: its operations are far too many and too
small to wrap without distorting the run.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

__all__ = ["LAYERS", "Tracer"]

# layer -> functions as (module, attribute path)
LAYERS = {
    "model.load": [
        ("guesslab.model", "load_source_file"),
        ("guesslab.model", "load_source"),
        ("guesslab.model", "make_source"),
    ],
    "guesswork.build": [("guesslab.guesswork", "guesswork_distribution")],
    "guesswork.moment": [
        ("guesslab.guesswork", "GuessworkDistribution.log_moment"),
        ("guesslab.guesswork", "moment_bounds"),
    ],
    "guesswork.window": [
        ("guesslab.guesswork", "GuessworkDistribution.log_prob_log_window"),
        ("guesslab.guesswork", "GuessworkDistribution.prob_eq_one_dyadic"),
    ],
    "guesswork.rank": [
        ("guesslab.guesswork", "guess_rank"),
        ("guesslab.guesswork", "guess_rank_indices"),
    ],
    "powersum": [
        ("guesslab.powersum", "power_sum_log"),
        ("guesslab.powersum", "power_sum"),
    ],
    "entropy": [
        ("guesslab.entropy", "conditional_renyi_arimoto"),
        ("guesslab.entropy", "conditional_shannon"),
        ("guesslab.entropy", "conditional_min_entropy"),
        ("guesslab.entropy", "renyi_entropy"),
        ("guesslab.entropy", "shannon_entropy"),
    ],
    "ldp.rate_setup": [("guesslab.ldp", "RateFunction.from_source")],
    "ldp.rate": [
        ("guesslab.ldp", "RateFunction.__call__"),
        ("guesslab.ldp", "rate_function"),
    ],
    "ldp.scgf": [
        ("guesslab.ldp", "scgf_limit"),
        ("guesslab.ldp", "scgf_derivative"),
        ("guesslab.ldp", "gamma"),
    ],
    "parallel.kmin": [
        ("guesslab.parallel", "kmin_distribution"),
        ("guesslab.parallel", "kmin_moment_exact"),
    ],
    "parallel.scgf": [
        ("guesslab.parallel", "scgf_parallel"),
        ("guesslab.parallel", "scgf_parallel_iid"),
    ],
    "parallel.rate": [
        ("guesslab.parallel", "rate_parallel"),
        ("guesslab.parallel", "rate_parallel_iid"),
    ],
    "montecarlo": [
        ("guesslab.montecarlo", "estimate_moment"),
        ("guesslab.montecarlo", "estimate_log_guesswork_rate"),
    ],
}


def _count_blocks(tracer, args, kwargs, result) -> None:
    tracer.counts["guesswork.blocks"] += sum(len(law.blocks) for law in result.laws)


def _count_kmin_ranks(tracer, args, kwargs, result) -> None:
    ensemble, n = args[0], args[1] if len(args) > 1 else kwargs["n"]
    if ensemble.m > 1:
        tracer.counts["parallel.kmin_ranks"] += ensemble.x_size**n


def _count_samples(tracer, args, kwargs, result) -> None:
    tracer.counts["montecarlo.samples"] += result.samples


def _count_rank(tracer, args, kwargs, result) -> None:
    if any(frame[0] == "montecarlo" for frame in tracer.stack):
        tracer.counts["montecarlo.ranked"] += 1


COUNTERS = {
    "guesswork_distribution": _count_blocks,
    "kmin_distribution": _count_kmin_ranks,
    "estimate_moment": _count_samples,
    "estimate_log_guesswork_rate": _count_samples,
    "guess_rank_indices": _count_rank,
}


class Tracer:
    """Self time and call counts per layer, for one round at a time."""

    def __init__(self):
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.top_s = 0.0
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.top_s = 0.0

    def _wrap(self, layer: str, fn, count):
        stack = self.stack
        self_s, calls = self.self_s, self.calls

        def traced(*args, **kwargs):
            outer = all(frame[0] != layer for frame in stack)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    self.top_s += dur
            if outer:
                calls[layer] += 1
                if count is not None:
                    count(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "guesslab" or name.startswith("guesslab.")]
        for layer, targets in LAYERS.items():
            for module_name, path in targets:
                owner = sys.modules[module_name]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        patched = classmethod(self._wrap(layer, raw.__func__, None))
                    else:
                        patched = self._wrap(layer, raw, None)
                    self._patches.append((cls, attr, raw))
                    setattr(cls, attr, patched)
                    continue
                original = getattr(owner, path)
                patched = self._wrap(layer, original, COUNTERS.get(path))
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, name, original))
                            setattr(module, name, patched)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
