"""The benchmark's four workloads: seeded source configs and one round of requests each.

A request is one README-style operation.  ``cli`` requests go through
``guesslab.cli.dispatch`` with the argv a user would type; ``kmin`` and
``rank`` requests call the library, because the CLI either has no such
operation (``guess_rank``) or would add work that belongs to another
workload (``parallel`` on distinct users always adds the ``scgf_parallel``
grid when orders are asked for).  Every request carries the parameters its
check needs; the checks live in ``checks.py``.

The seed changes the sources, the orders and the grids, but never the cost
of a round: every seed issues the same requests at the same sizes, and where
a source's tied probabilities set how many blocks a law has (the lattice
sources) or how often Monte Carlo samples repeat (the sharp channel), the
seed relabels a fixed source instead of drawing a new one.  A relabelled
source has another config and the same rank law, so a round costs the same
on every seed and the share of failed requests is the same too.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from reference import h_shannon

__all__ = [
    "CORPUS_SEED",
    "DEFAULT_SEED",
    "WORKLOADS",
    "Workload",
    "build",
    "bsc_joint",
    "corpus_joints",
    "lattice_joint",
    "relabel",
]

CORPUS_SEED = 20250825
DEFAULT_SEED = CORPUS_SEED
KMIN_LATTICE_SEED = 7
SHARP_Q = 0.025
SMALL_COPIES = 4  # asymptotics: copies of its short requests per round

# Shapes of the tests' 20-source corpus (drawn from CORPUS_SEED).  Fixing them
# keeps the amount of type enumeration the same on every seed.
CORPUS_SHAPES = (
    (3, 3), (2, 1), (3, 1), (4, 1), (3, 3), (2, 3), (3, 1), (3, 1), (4, 2), (3, 3),
    (3, 2), (3, 2), (4, 1), (4, 3), (4, 3), (2, 3), (2, 1), (4, 3), (4, 1), (2, 1),
)

BSC01 = [[0.45, 0.05], [0.05, 0.45]]
SKEW22 = [[0.7, 0.1], [0.1, 0.1]]
UNIFORM = [[0.5], [0.5]]
NOISELESS = [[0.5, 0.0], [0.0, 0.5]]
INDEPENDENT = [[0.35, 0.35], [0.15, 0.15]]

# The heterogeneous parallel request of the README: its inputs never depend
# on the seed, because it fails on every run (see KNOWN_FAULT).
KNOWN_FAULT = "parallel-max-over-assignments"


@dataclass
class Source:
    joint: list[list[float]]
    x_symbols: list[str]
    y_symbols: list[str]

    def config(self) -> str:
        return json.dumps(
            {"x_symbols": self.x_symbols, "y_symbols": self.y_symbols, "joint": self.joint}
        )


@dataclass
class Workload:
    name: str
    seed: int
    sources: dict[str, Source] = field(default_factory=dict)
    requests: list[dict] = field(default_factory=list)
    config_dir: str = ""

    def add_source(self, name: str, joint, x_symbols=None, y_symbols=None) -> None:
        joint = [[float(v) for v in row] for row in joint]
        xs = x_symbols or [str(i) for i in range(len(joint))]
        ys = y_symbols or [str(j) for j in range(len(joint[0]))]
        self.sources[name] = Source(joint, list(xs), list(ys))

    def path(self, name: str) -> str:
        return os.path.join(self.config_dir, name + ".json")

    def cli(self, check: dict, *argv: str) -> None:
        """Add a CLI request; source names in --source/--sources become config paths."""
        args = list(argv)
        for i, tok in enumerate(args):
            if i and args[i - 1] == "--source":
                args[i] = self.path(tok)
            elif i and args[i - 1] == "--sources":
                args[i] = ",".join(self.path(t) for t in tok.split(","))
        self.requests.append({"kind": "cli", "argv": args, "check": check})

    def lib(self, kind: str, check: dict, **params) -> None:
        self.requests.append({"kind": kind, "params": params, "check": check})

    def write_configs(self, config_dir: str) -> None:
        for name, src in self.sources.items():
            with open(os.path.join(config_dir, name + ".json"), "w", encoding="utf-8") as fh:
                fh.write(src.config())

    def spec(self) -> dict:
        return {
            "sources": {name: self.path(name) for name in self.sources},
            "requests": [{k: v for k, v in r.items() if k != "check"} for r in self.requests],
        }


def _num(v: float) -> str:
    """Shortest repr: the CLI parses it back to the same double."""
    return repr(float(v))


def _list(values) -> str:
    return ",".join(_num(v) for v in values)


def lattice_joint(rng: np.random.Generator, x_size: int, y_size: int) -> list[list[float]]:
    """Random joint pmf with entries k/1024 and every y-column positive (the tests' generator)."""
    cells = x_size * y_size
    counts = rng.multinomial(1024, [1.0 / cells] * cells).reshape(x_size, y_size)
    for j in range(y_size):
        if counts[:, j].sum() == 0:
            i, k = np.unravel_index(int(counts.argmax()), counts.shape)
            counts[i, k] -= 1
            counts[0, j] += 1
    return (counts / 1024).tolist()


def corpus_joints(seed: int) -> list[list[list[float]]]:
    """20 lattice sources in the tests' corpus shapes.

    The shape draws are made and discarded so that the random stream is the
    tests' own: CORPUS_SEED gives exactly the tests' corpus.
    """
    rng = np.random.default_rng(seed)
    joints = []
    for x_size, y_size in CORPUS_SHAPES:
        rng.integers(2, 5)
        rng.integers(1, 4)
        joints.append(lattice_joint(rng, x_size, y_size))
    return joints


def relabel(rng: np.random.Generator, joint: list[list[float]]) -> list[list[float]]:
    """The joint with its x rows and y columns permuted: another config, the same rank law."""
    rows = rng.permutation(len(joint))
    cols = rng.permutation(len(joint[0]))
    return [[joint[i][j] for j in cols] for i in rows]


def bsc_joint(q: float) -> list[list[float]]:
    a, b = (1.0 - q) / 2.0, q / 2.0
    return [[a, b], [b, a]]


def _float_joint(rng: np.random.Generator, x_size: int, y_size: int, floor: float) -> list[list[float]]:
    """Random joint pmf with entries at least `floor`, summing to 1 in floating point."""
    w = floor + rng.dirichlet(np.ones(x_size * y_size)) * (1.0 - floor * x_size * y_size)
    w = w / w.sum()
    return w.reshape(x_size, y_size).tolist()


def _non_integer(rng: np.random.Generator, lo: float, hi: float) -> float:
    """Uniform on [lo, hi], kept 0.05 away from integers (which take closed forms)."""
    while True:
        v = float(rng.uniform(lo, hi))
        if abs(v - round(v)) > 0.05:
            return v


def _add_cross_layer(w: Workload, rng: np.random.Generator) -> None:
    """Four tiny requests that reach every layer, so every layer is timed on every workload.

    Together they cost a few milliseconds, well under 1% of any round.
    """
    if "uniform" not in w.sources:
        w.add_source("uniform", UNIFORM, y_symbols=["y"])
    x, eps = float(rng.uniform(0.35, 0.45)), float(rng.uniform(0.05, 0.1))
    w.cli({"type": "ldp", "source": "uniform", "x": x, "eps": eps, "nmax": 3},
          "ldp", "--source", "uniform", "--x", _num(x), "--eps", _num(eps), "--nmax", "3")
    w.cli({"type": "moments", "source": "uniform", "n": 3, "alphas": [0.5]},
          "moments", "--source", "uniform", "--n", "3", "--alphas", "0.5")
    w.cli({"type": "parallel_iid", "source": "uniform", "m": 2, "k": 1, "n": 3,
           "alphas": [1.0], "xgrid": [0.3]},
          "parallel", "--sources", "uniform", "--iid", "--m", "2", "--k", "1", "--n", "3",
          "--alphas", "1", "--xgrid", "0.3:0.3:1")
    seed = int(rng.integers(0, 2**31))
    w.cli({"type": "sample", "source": "uniform", "n": 6, "alpha": None, "samples": 100},
          "sample", "--source", "uniform", "--n", "6", "--samples", "100", "--seed", str(seed))


def _corpus_moments(w: Workload, rng: np.random.Generator) -> None:
    # the tests' corpus, relabelled: its ties set the block counts, so they stay fixed
    for i, joint in enumerate(corpus_joints(CORPUS_SEED)):
        joint = relabel(rng, joint)
        w.add_source(f"c{i:02d}", joint, [f"x{j}" for j in range(len(joint))],
                     [f"y{j}" for j in range(len(joint[0]))])
    # one non-integer order in each regime: the P(G=1) plateau, Arikan's (-1, 0) window, positive
    alphas = [_non_integer(rng, -1.9, -1.1), _non_integer(rng, -0.9, -0.1), _non_integer(rng, 1.1, 1.9)]
    for i in range(20):
        for n in (3, 4, 5):
            w.cli({"type": "moments", "source": f"c{i:02d}", "n": n, "alphas": alphas},
                  "moments", "--source", f"c{i:02d}", "--n", str(n), "--alphas", _list(alphas))
    q = float(rng.uniform(0.05, 0.15))
    w.add_source("bsc", bsc_joint(q))
    # n = 20: blocks of C(20, d) up to 184,756 ranks, summed term by term
    w.cli({"type": "moments", "source": "bsc", "n": 20, "alphas": alphas[2:]},
          "moments", "--source", "bsc", "--n", "20", "--alphas", _list(alphas[2:]))
    w.add_source("uniform", UNIFORM, y_symbols=["y"])
    # n = 21, 23: one block of 2.1 M and 8.4 M ranks, by Euler-Maclaurin
    for n in (21, 23):
        w.cli({"type": "moments", "source": "uniform", "n": n, "alphas": alphas},
              "moments", "--source", "uniform", "--n", str(n), "--alphas", _list(alphas))


def _long_laws(w: Workload, rng: np.random.Generator) -> None:
    w.add_source("bsc", bsc_joint(float(rng.uniform(0.06, 0.14))))
    w.add_source("tri2", _float_joint(rng, 3, 2, 0.03), ["a", "b", "c"], ["u", "v"])
    w.add_source("tri1", _float_joint(rng, 3, 1, 0.1), ["a", "b", "c"], ["y"])
    w.add_source("uniform", UNIFORM, y_symbols=["y"])
    for name, n in (("bsc", 40), ("bsc", 64), ("bsc", 100), ("tri1", 100), ("tri1", 140), ("tri2", 18)):
        w.cli({"type": "moments", "source": name, "n": n, "alphas": [1.0, 2.0]},
              "moments", "--source", name, "--n", str(n), "--alphas", "1,2")
    x, eps = float(rng.uniform(0.2, 0.4)), float(rng.uniform(0.03, 0.07))
    w.cli({"type": "ldp", "source": "bsc", "x": x, "eps": eps, "nmax": 30},
          "ldp", "--source", "bsc", "--x", _num(x), "--eps", _num(eps), "--nmax", "30")
    x, eps = float(rng.uniform(0.3, 0.6)), float(rng.uniform(0.03, 0.07))
    w.cli({"type": "ldp", "source": "uniform", "x": x, "eps": eps, "nmax": 40},
          "ldp", "--source", "uniform", "--x", _num(x), "--eps", _num(eps), "--nmax", "40")
    # C(142, 2) = 10,011 types, one row each
    w.cli({"type": "dist", "source": "tri1", "n": 140},
          "dist", "--source", "tri1", "--n", "140")


def _xgrid(rng: np.random.Generator) -> tuple[str, list[float]]:
    """A 0.01-step grid of 69 points below log 2, with a seeded offset."""
    lo = round(float(rng.uniform(0.0, 0.009)), 4)
    text = f"{lo!r}:{lo + 0.68!r}:0.01"
    return text, [lo + i * 0.01 for i in range(69)]


def _asymptotics(w: Workload, rng: np.random.Generator) -> None:
    fixtures = {
        "bsc01": BSC01, "skew22": SKEW22, "uniform": UNIFORM,
        "noiseless": NOISELESS, "independent": INDEPENDENT,
    }
    for name, joint in fixtures.items():
        w.add_source(name, joint, y_symbols=["y"] if name == "uniform" else None)
    for name in fixtures:
        orders = [0.0, float(rng.uniform(0.1, 0.9)), 1.0, float(rng.uniform(1.2, 5.0)), math.inf]
        w.cli({"type": "entropy", "source": name, "orders": orders},
              "entropy", "--source", name, "--orders", "0," + _list(orders[1:4]) + ",inf")
        alphas = [float(rng.uniform(-3.0, -1.1)), float(rng.uniform(-0.9, -0.1)),
                  float(rng.uniform(0.1, 3.0))]
        w.cli({"type": "scgf", "source": name, "alphas": alphas},
              "scgf", "--source", name, "--alphas", _list(alphas))
        text, grid = _xgrid(rng)
        w.cli({"type": "rate", "source": name, "xgrid": grid},
              "rate", "--source", name, "--xgrid", text)
    # the rate function vanishes at H(X|Y)
    for name in ("bsc01", "skew22", "independent"):
        h = h_shannon(fixtures[name])
        w.cli({"type": "rate", "source": name, "xgrid": [h], "zero": True},
              "rate", "--source", name, "--xgrid", f"{h!r}:{h!r}:1")
    for name, m, k in (("bsc01", 3, 2), ("skew22", 2, 1)):
        text, grid = _xgrid(rng)
        alphas = [float(rng.uniform(-2.0, -0.1)), float(rng.uniform(0.1, 2.0))]
        w.cli({"type": "parallel_iid", "source": name, "m": m, "k": k, "n": None,
               "alphas": alphas, "xgrid": grid},
              "parallel", "--sources", name, "--iid", "--m", str(m), "--k", str(k),
              "--alphas", _list(alphas), "--xgrid", text)
        # the same identical users through the general assignment path
        w.cli({"type": "parallel_same", "source": name, "m": m, "k": k, "xgrid": grid},
              "parallel", "--sources", ",".join([name] * m), "--k", str(k), "--xgrid", text)
    # The round holds SMALL_COPIES copies of the requests above, so that each
    # small request is timed more than once in a run of one long round.
    small = w.requests[:]
    w.requests = [dict(r) for _ in range(SMALL_COPIES) for r in small]
    grid = [i * 0.01 for i in range(70)]
    w.cli({"type": "parallel_mixed", "sources": ["bsc01", "skew22"], "k": 1, "n": 8,
           "alphas": [-0.5, 1.0], "xgrid": grid, "known_fault": KNOWN_FAULT},
          "parallel", "--sources", "bsc01,skew22", "--k", "1", "--n", "8",
          "--alphas", "-0.5,1", "--xgrid", "0:0.69:0.01")


def _kmin_sampling(w: Workload, rng: np.random.Generator) -> None:
    q = float(rng.uniform(0.08, 0.12))
    w.add_source("bsc", bsc_joint(q))
    # fixed lattice sources, relabelled by the seed (see the module docstring)
    fixed = np.random.default_rng(KMIN_LATTICE_SEED)
    w.add_source("lat22", relabel(rng, lattice_joint(fixed, 2, 2)))
    w.add_source("lat23", relabel(rng, lattice_joint(fixed, 2, 3)))
    # criterion 7c's chain: E min(G1, G2) of two identical users against E G^(1/2)
    for n in range(2, 13):
        w.cli({"type": "parallel_iid", "source": "bsc", "m": 2, "k": 1, "n": n,
               "alphas": [1.0], "xgrid": [], "chain": True},
              "parallel", "--sources", "bsc", "--iid", "--m", "2", "--k", "1",
              "--n", str(n), "--alphas", "1")
        w.cli({"type": "moments", "source": "bsc", "n": n, "alphas": [0.5]},
              "moments", "--source", "bsc", "--n", str(n), "--alphas", "0.5")
    alphas = [-0.5, 1.5]
    w.cli({"type": "parallel_iid", "source": "bsc", "m": 3, "k": 2, "n": 14,
           "alphas": alphas, "xgrid": []},
          "parallel", "--sources", "bsc", "--iid", "--m", "3", "--k", "2", "--n", "14",
          "--alphas", _list(alphas))
    w.lib("kmin", {"type": "kmin", "users": ["bsc", "lat22"], "k": 1, "n": 14, "alphas": alphas},
          users=["bsc", "lat22"], k=1, n=14, alphas=alphas)
    w.lib("kmin", {"type": "kmin", "users": ["bsc", "lat22", "lat23"], "k": 2, "n": 12,
                   "alphas": alphas},
          users=["bsc", "lat22", "lat23"], k=2, n=12, alphas=alphas)
    # a sharper channel at n = 10: about 70% of the samples repeat a pair already ranked.
    # Its crossover is fixed, because it sets that share and so the request's cost.
    w.add_source("bsc_sharp", bsc_joint(SHARP_Q))
    alpha = _non_integer(rng, 0.5, 1.5)
    seed = int(rng.integers(0, 2**31))
    w.cli({"type": "sample", "source": "bsc_sharp", "n": 10, "alpha": alpha, "samples": 20000},
          "sample", "--source", "bsc_sharp", "--n", "10", "--alpha", _num(alpha),
          "--samples", "20000", "--seed", str(seed))
    seed = int(rng.integers(0, 2**31))
    w.cli({"type": "sample", "source": "bsc", "n": 32, "alpha": None, "samples": 300},
          "sample", "--source", "bsc", "--n", "32", "--samples", "300", "--seed", str(seed))
    # single ranks of sequences drawn from the source at n = 32
    a, b = bsc_joint(q)[0]
    cells = np.cumsum([a, b, b, a])
    for _ in range(12):
        draws = np.searchsorted(cells, rng.random(32) * cells[-1], side="right")
        xs = [int(c) // 2 for c in draws]
        ys = [int(c) % 2 for c in draws]
        w.lib("rank", {"type": "rank", "source": "bsc", "x": xs, "y": ys},
              source="bsc", x="".join(map(str, xs)), y="".join(map(str, ys)))


WORKLOADS = {
    "corpus-moments": _corpus_moments,
    "long-laws": _long_laws,
    "asymptotics": _asymptotics,
    "kmin-sampling": _kmin_sampling,
}


def build(name: str, seed: int, config_dir: str) -> Workload:
    """The workload's sources and one round of requests; writes the configs."""
    w = Workload(name=name, seed=seed, config_dir=config_dir)
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    WORKLOADS[name](w, rng)
    _add_cross_layer(w, rng)
    for i, req in enumerate(w.requests):
        req["id"] = i
    w.write_configs(config_dir)
    return w
