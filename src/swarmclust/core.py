"""Shared domain types and primitives: datasets, search bounds, assignments,
seeded random streams, and the distance kernel every algorithm builds on.

All floating point work is float64. Distances are computed and compared in
squared form internally; square roots are taken only where the clustering
cost needs the plain Euclidean norm.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


class ContractViolation(ValueError):
    """An argument breaks a documented precondition."""


class DegenerateInput(ValueError):
    """Structurally valid input that is too small or too degenerate to process."""


def _as_matrix(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ContractViolation(f"points must be a 2-D matrix, got ndim={pts.ndim}")
    return pts


@dataclass(frozen=True)
class Dataset:
    """An immutable N x d point matrix with optional integer class labels.

    Labels, when present, must be 0-based and contiguous (every value in
    [0, n_classes) appears at least once); the CSV loader factorizes raw
    labels into this form.
    """

    points: np.ndarray
    labels: Optional[np.ndarray] = None
    name: str = "unnamed"
    k_true: Optional[int] = None

    def __post_init__(self):
        pts = _as_matrix(self.points).copy()
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ContractViolation("dataset needs at least one row and one column")
        if not np.all(np.isfinite(pts)):
            raise ContractViolation("dataset contains non-finite values")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=np.int64).copy()
            if lab.shape != (pts.shape[0],):
                raise ContractViolation(
                    f"labels must have length {pts.shape[0]}, got shape {lab.shape}"
                )
            present = np.unique(lab)
            if present[0] != 0 or not np.array_equal(present, np.arange(len(present))):
                raise ContractViolation("labels must be 0-based contiguous integers")
            lab.setflags(write=False)
            object.__setattr__(self, "labels", lab)
        if self.k_true is not None:
            if self.k_true < 1:
                raise ContractViolation("k_true must be >= 1")
            if self.labels is not None and self.k_true != self.n_classes:
                raise ContractViolation(
                    f"k_true={self.k_true} disagrees with {self.n_classes} distinct labels"
                )

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def n_classes(self) -> Optional[int]:
        if self.labels is None:
            return None
        return int(self.labels.max()) + 1


@dataclass(frozen=True)
class SearchBounds:
    """Per-dimension closed box [lower, upper] delimiting the search space."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64).copy()
        hi = np.asarray(self.upper, dtype=np.float64).copy()
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ContractViolation("bounds must be 1-D vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ContractViolation("bounds must be finite")
        if np.any(lo > hi):
            raise ContractViolation("lower bound exceeds upper bound")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def d(self) -> int:
        return self.lower.shape[0]

    def tiled(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Bounds for k centroids flattened row-major into one k*d vector."""
        return np.tile(self.lower, k), np.tile(self.upper, k)


@dataclass(frozen=True)
class Assignment:
    """Cluster membership for every point: cluster_of[j] in [0, k)."""

    cluster_of: np.ndarray
    k: int

    def __post_init__(self):
        idx = np.asarray(self.cluster_of, dtype=np.int64).copy()
        if idx.ndim != 1:
            raise ContractViolation("cluster_of must be a 1-D vector")
        if self.k < 1:
            raise ContractViolation("k must be >= 1")
        if idx.size and (idx.min() < 0 or idx.max() >= self.k):
            raise ContractViolation("cluster indices out of [0, k)")
        idx.setflags(write=False)
        object.__setattr__(self, "cluster_of", idx)

    @property
    def n(self) -> int:
        return self.cluster_of.shape[0]


def derive_seed(base_seed: int, *parts: Union[int, str]) -> int:
    """Deterministically mix a base seed with labels into a fresh 64-bit seed.

    The split is stable across processes and platforms (keyed blake2b over a
    length-prefixed encoding), so any (dataset, algorithm, repetition) cell
    of a benchmark grid gets its own reproducible stream.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(int(base_seed & _MASK64).to_bytes(8, "little"))
    for part in parts:
        if isinstance(part, (int, np.integer)):
            payload = b"i" + int(int(part) & _MASK64).to_bytes(8, "little")
        elif isinstance(part, str):
            raw = part.encode("utf-8")
            payload = b"s" + len(raw).to_bytes(4, "little") + raw
        else:
            raise ContractViolation(f"seed parts must be int or str, got {type(part)!r}")
        h.update(len(payload).to_bytes(4, "little"))
        h.update(payload)
    return int.from_bytes(h.digest(), "little")


class Rng:
    """Seeded random stream: identical seeds yield identical draws.

    Wraps numpy's PCG64 generator. ``random`` draws lie in [0, 1). Child
    streams come from :meth:`spawn`, which derives a fresh seed from the
    parent seed plus string/int labels; a stream is single-owner.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def random(self, size=None):
        return self._gen.random(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size=size)

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        return self._gen.choice(n, size=k, replace=False)

    def spawn(self, *parts: Union[int, str]) -> "Rng":
        return Rng(derive_seed(self.seed, *parts))

    def __repr__(self):
        return f"Rng(seed={self.seed})"


def squared_euclidean(a, b) -> float:
    """Squared Euclidean distance between two equal-length vectors."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape or av.ndim != 1:
        raise ContractViolation(
            f"vectors must share one dimension, got {av.shape} vs {bv.shape}"
        )
    diff = av - bv
    return float(np.dot(diff, diff))


def bounds_of(dataset: Dataset) -> SearchBounds:
    """Tight per-dimension bounding box of the dataset; every row lies inside."""
    return SearchBounds(dataset.points.min(axis=0), dataset.points.max(axis=0))
