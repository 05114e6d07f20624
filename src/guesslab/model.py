"""Memoryless pair sources: validated joint pmfs over finite X x Y.

A PairSource fixes the single-letter joint law p(x, y); the length-n
sequence law is the n-fold product.  Validation is strict: probability
mass must sum to 1 within MASS_TOL and no silent renormalization is
applied, because the downstream asymptotic exponents are sensitive to
mass errors.  Symbols are canonicalized to lexicographic order at load
so that tie-breaking by label and tie-breaking by index coincide.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .dyadic import Dyadic, LevelCode

__all__ = [
    "MASS_TOL",
    "ModelError",
    "ConfigError",
    "ValidationError",
    "Alphabet",
    "Distribution",
    "ColumnClass",
    "PairSource",
    "load_source",
    "load_source_file",
    "make_source",
    "marginal_y",
    "conditional_x_given_y",
]

MASS_TOL = 1e-12


class ModelError(ValueError):
    """Base class for source-construction failures."""


class ConfigError(ModelError):
    """Config document is malformed (JSON syntax, missing keys, shapes)."""


class ValidationError(ModelError):
    """Config parsed but violates a probability invariant."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite symbol set; iteration order is lexicographic."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) == 0:
            raise ValidationError("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValidationError(f"duplicate symbol labels in {list(self.symbols)}")
        if list(self.symbols) != sorted(self.symbols):
            raise ValidationError("alphabet symbols must be in sorted order")

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self._index_map[symbol]
        except KeyError:
            raise KeyError(f"unknown symbol {symbol!r}") from None

    @cached_property
    def _index_map(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.symbols)}

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)


@dataclass(frozen=True)
class Distribution:
    """A pmf over an Alphabet."""

    alphabet: Alphabet
    pmf: np.ndarray

    def __post_init__(self):
        pmf = np.array(self.pmf, dtype=np.float64)
        pmf.setflags(write=False)
        object.__setattr__(self, "pmf", pmf)
        if pmf.shape != (self.alphabet.size,):
            raise ValidationError(
                f"pmf length {pmf.shape} does not match alphabet size {self.alphabet.size}"
            )
        if np.any(pmf < 0.0):
            raise ValidationError("pmf entries must be >= 0")
        mass = math.fsum(pmf.tolist())
        if abs(mass - 1.0) > MASS_TOL:
            raise ValidationError(f"mass {mass!r} exceeds tolerance {MASS_TOL}")

    def prob(self, symbol: str) -> float:
        return float(self.pmf[self.alphabet.index(symbol)])

    @property
    def support_size(self) -> int:
        return int(np.count_nonzero(self.pmf))


class ColumnClass(NamedTuple):
    """y-indices whose columns are row permutations of each other; their distinct positive entries and counts."""

    members: tuple[int, ...]
    levels: tuple[Dyadic, ...]
    multiplicities: tuple[int, ...]


@dataclass(frozen=True)
class PairSource:
    """Joint pmf p(x, y) on X x Y defining a memoryless pair sequence.

    Rows index x, columns index y.  Zero x-rows are allowed (they get
    the worst guess ranks); zero-mass y-columns are rejected because
    conditioning on them is 0/0.
    """

    x_alphabet: Alphabet
    y_alphabet: Alphabet
    joint: np.ndarray

    def __post_init__(self):
        joint = np.array(self.joint, dtype=np.float64)
        joint.setflags(write=False)
        object.__setattr__(self, "joint", joint)
        nx, ny = self.x_alphabet.size, self.y_alphabet.size
        if joint.shape != (nx, ny):
            raise ValidationError(
                f"joint shape {joint.shape} does not match alphabets ({nx}, {ny})"
            )
        if np.any(joint < 0.0):
            raise ValidationError("joint entries must be >= 0")
        mass = math.fsum(joint.ravel().tolist())
        if abs(mass - 1.0) > MASS_TOL:
            raise ValidationError(f"mass {mass!r} exceeds tolerance {MASS_TOL}")
        for j, y in enumerate(self.y_alphabet):
            if not np.any(joint[:, j] > 0.0):
                raise ValidationError(f"y-column {y!r} has zero mass")

    @cached_property
    def joint_dyadic(self) -> tuple[tuple[Dyadic, ...], ...]:
        """Exact dyadic view of the joint entries (row per x)."""
        return tuple(
            tuple(Dyadic.from_float(float(v)) for v in row) for row in self.joint
        )

    @cached_property
    def level_code(self) -> LevelCode:
        """Coprime-basis code of the nonzero joint entries, built on first use."""
        return LevelCode(d for row in self.joint_dyadic for d in row)

    @cached_property
    def py_dyadic(self) -> tuple[Dyadic, ...]:
        """Exact column sums p_Y(y) (no float rounding)."""
        cols = []
        for j in range(self.y_alphabet.size):
            acc = Dyadic.from_float(0.0)
            for i in range(self.x_alphabet.size):
                acc = acc + self.joint_dyadic[i][j]
            cols.append(acc)
        return tuple(cols)

    @cached_property
    def py(self) -> np.ndarray:
        p = np.array([d.to_float() for d in self.py_dyadic])
        p.setflags(write=False)
        return p

    @cached_property
    def cond_x_given_y(self) -> np.ndarray:
        """Column-stochastic matrix p(x|y)."""
        c = self.joint / self.py[np.newaxis, :]
        c.setflags(write=False)
        return c

    @cached_property
    def columns(self):
        """The columns of p(x|y) as ``entropy``'s order-beta kernel reads them, built once."""
        from .entropy import columns  # entropy imports this module

        return columns(self.joint)

    @cached_property
    def column_classes(self) -> tuple[ColumnClass, ...]:
        """The columns as classes of exact row permutations, zero cells left out, built on first use.

        Classes are numbered by their last member, so signatures sort as the y-types they stand for.
        """
        classes: dict[tuple[Dyadic, ...], list[int]] = {}
        for j, column in enumerate(zip(*self.joint_dyadic)):
            classes.setdefault(tuple(sorted(d for d in column if d)), []).append(j)
        out = []
        for cells, members in sorted(classes.items(), key=lambda item: item[1][-1]):
            levels = tuple(dict.fromkeys(cells))  # ascending, as the cells are
            out.append(ColumnClass(tuple(members), levels, tuple(map(cells.count, levels))))
        return tuple(out)

    def rank_tables(self, n: int):
        """The ``RankTables`` every exact rank at length n reads, built on first use.

        The source holds one, for the last n ranked: a rank at another n
        replaces it, so ``MAX_RANK_TABLE_ENTRIES`` bounds all it holds.
        Ranks write to the tables unlocked, so rank one source from one
        thread at a time.
        """
        from .guesswork import RankTables  # guesswork imports this module

        tables = self.__dict__.get("_rank_tables")
        if tables is None or tables.n != n:
            tables = self.__dict__["_rank_tables"] = RankTables(self, n)
        return tables

    @property
    def log_x_size(self) -> float:
        return math.log(self.x_alphabet.size)

    def y_index(self, symbol: str) -> int:
        return self.y_alphabet.index(symbol)


def _sorted_alphabet_and_order(symbols: Sequence[str], what: str) -> tuple[Alphabet, list[int]]:
    if not isinstance(symbols, (list, tuple)) or not all(isinstance(s, str) for s in symbols):
        raise ConfigError(f"{what} must be a list of strings")
    if len(set(symbols)) != len(symbols):
        raise ValidationError(f"duplicate symbol labels in {what}: {list(symbols)}")
    order = sorted(range(len(symbols)), key=lambda i: symbols[i])
    return Alphabet(tuple(symbols[i] for i in order)), order


def make_source(
    x_symbols: Sequence[str],
    y_symbols: Sequence[str],
    joint: Sequence[Sequence[float]],
) -> PairSource:
    """Build a PairSource from rows-per-x joint entries, canonicalizing symbol order."""
    x_alpha, x_order = _sorted_alphabet_and_order(x_symbols, "x_symbols")
    y_alpha, y_order = _sorted_alphabet_and_order(y_symbols, "y_symbols")
    try:
        mat = np.asarray(joint, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"joint matrix is not numeric: {exc}") from None
    if mat.ndim != 2 or mat.shape != (len(x_symbols), len(y_symbols)):
        raise ConfigError(
            f"joint must be a {len(x_symbols)}x{len(y_symbols)} matrix, got shape {mat.shape}"
        )
    mat = mat[np.ix_(x_order, y_order)]
    return PairSource(x_alpha, y_alpha, mat)


def load_source(config_text: str) -> PairSource:
    """Parse and validate a JSON source config.

    Schema: ``{"x_symbols": [...], "y_symbols": [...], "joint": [[row per x]]}``.
    """
    try:
        doc = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    missing = {"x_symbols", "y_symbols", "joint"} - doc.keys()
    if missing:
        raise ConfigError(f"config missing keys: {sorted(missing)}")
    return make_source(doc["x_symbols"], doc["y_symbols"], doc["joint"])


def load_source_file(path) -> PairSource:
    with open(path, "r", encoding="utf-8") as fh:
        return load_source(fh.read())


def marginal_y(source: PairSource) -> Distribution:
    """p_Y(y) = sum_x p(x, y)."""
    return Distribution(source.y_alphabet, source.py)


def conditional_x_given_y(source: PairSource, y: str) -> Distribution:
    """p(x | y) for an observed y symbol."""
    j = source.y_index(y)
    return Distribution(source.x_alphabet, source.cond_x_given_y[:, j])
