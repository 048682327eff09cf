"""Shared domain types and primitives: datasets, assignments, seeded random
streams, and the row-block driver the distance kernels run on.

All floating point work is float64. Distances are computed and compared in
squared form internally; square roots are taken only where the clustering
cost needs the plain Euclidean norm, and then after the minimum over
centers, on the N nearest distances alone (``sqrt`` is correctly rounded
and monotone, so the square root of the minimum is the minimum of the
square roots, bit for bit).

Threads and memory: the N-sized passes run on :func:`map_blocks`: the
subtractive densities, the batched SICD fitness, the nearest-center
assignment and the SICD of an assignment (the centroid update is one
bincount over about twice the points). Each pass is one function
``fn(lo, hi)`` that computes rows ``lo:hi`` of its output as one slice
expression, allocating its own temporaries, and declares how many float64
entries it holds per row, numpy's temporaries included. :func:`map_blocks`
splits the rows into one contiguous range per ``KERNEL_WORKERS`` thread (a
call under 2 * ``PARALLEL_MIN`` entries stays on the calling thread), and
each thread walks its range in blocks of rows whose entries, over all
threads, fit ``KERNEL_BLOCK``. The assignment and the SICD take points as
rows (2k and d + 1 entries each), and a fitness row larger than a thread's
share of the budget is walked in tiles of points that fit that share
(``swarmclust.pipelines``). So at any N a call holds ``KERNEL_BLOCK``
entries of temporaries, plus one length-N minima vector per thread in a
tiled fitness call. Only a density row, N entries, is never split:
seeding at N above ``KERNEL_BLOCK`` holds one such row a thread. Each
output entry is computed as it would be alone and each row's sum runs over
one contiguous vector, so results are bit-identical whatever the thread
count and block size.
numpy and scipy release the interpreter lock while they work. The helper
threads wait on a queue for ranges to run; they start with the first call
that splits, so a process whose kernels all run inline starts none.

Every distance those kernels and the nearest-center assignment compute
goes through :func:`sqeuclidean`, an (m, d) x (n, d) -> (m, n) matrix of
squared Euclidean distances, optionally written into ``out``. It is
scipy's own compiled ``cdist_sqeuclidean``, the function that
``scipy.spatial.distance.cdist(a, b, "sqeuclidean")`` calls, so its bits
are scipy's. It is loaded from its extension file
(``spatial/_distance_pybind``) in the installed scipy package without
importing ``scipy`` or ``scipy.spatial``: importing ``scipy.spatial``
also loads ``scipy.sparse``, ``scipy.linalg`` and scipy's OpenBLAS, which
took more than half the import time of ``swarmclust.bench`` and about
30 MB of resident memory in every process (scipy 1.17, Python 3.11). An
``ImportError`` raised here names the directory searched and the scipy
version: that scipy no longer ships the extension file or the function
where this module looks for it.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Union

import numpy as np

from .schema import TYPES, check_fields

if TYPE_CHECKING:
    from queue import SimpleQueue

_MASK64 = 0xFFFFFFFFFFFFFFFF


class ContractViolation(ValueError):
    """An argument breaks a documented precondition."""


class DegenerateInput(ValueError):
    """Structurally valid input that is too small or too degenerate to process."""


class Checked:
    """Base of the dataclasses whose fields carry :func:`swarmclust.schema.rule`
    schemas: building one checks those fields and raises ContractViolation,
    with the message a config would get, for the first that breaks its rule.
    A subclass with a rule across fields checks it after
    ``super().__post_init__()``."""

    def __post_init__(self):
        check_fields(self, ContractViolation)


def given_centers(centers, k: int, d: int) -> np.ndarray:
    """``centers`` given to ``run_kmeans`` or ``init_swarm``, copied into a
    k x d float64 matrix; another shape or a non-finite entry raises
    ContractViolation."""
    c = np.array(centers, dtype=np.float64)
    if c.shape != (k, d):
        raise ContractViolation(f"given centers shape {c.shape} != ({k}, {d})")
    if not np.all(np.isfinite(c)):
        raise ContractViolation("given centers must be finite")
    return c


def int_array(values, name: str) -> np.ndarray:
    """``values`` copied into an int64 array; like a config integer, an id is
    never a bool or ``2.0``, so a non-integer dtype raises ContractViolation
    instead of being cast. An empty sequence (float64 to numpy) passes."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ContractViolation(f"{name} must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64)


@dataclass(frozen=True)
class Dataset:
    """An immutable N x d point matrix with optional integer class labels.

    Every value must be finite, and so must every column's range, max - min:
    the search box, the normalization and the distances all subtract
    points, so data past that is refused here, once, rather than
    overflowing in each of them.

    Labels, when present, must be integers, 0-based and contiguous (every
    value in [0, n_classes) appears at least once); the CSV loader
    factorizes raw labels into this form. ``k_true`` is an integer >= 1.
    """

    points: np.ndarray
    labels: Optional[np.ndarray] = None
    name: str = "unnamed"
    k_true: Optional[int] = None

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ContractViolation(f"points must be a 2-D matrix, got ndim={pts.ndim}")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ContractViolation("dataset needs at least one row and one column")
        if not np.all(np.isfinite(pts)):
            raise ContractViolation("dataset contains non-finite values")
        with np.errstate(over="ignore"):
            span = pts.max(axis=0) - pts.min(axis=0)
        if not np.all(np.isfinite(span)):
            raise ContractViolation(
                f"dataset columns {np.flatnonzero(~np.isfinite(span)).tolist()} span more "
                "than the float range (max - min overflows)")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            lab = int_array(self.labels, "labels")
            if lab.shape != (pts.shape[0],):
                raise ContractViolation(
                    f"labels must have length {pts.shape[0]}, got shape {lab.shape}"
                )
            # every value in [0, max] present; max < n keeps bincount small
            # (np.unique would also load numpy.ma, which nothing else uses)
            if lab.min() < 0 or lab.max() >= lab.size or not np.bincount(lab).all():
                raise ContractViolation("labels must be 0-based contiguous integers")
            lab.setflags(write=False)
            object.__setattr__(self, "labels", lab)
        if self.k_true is not None:
            if not TYPES["integer"](self.k_true) or self.k_true < 1:
                raise ContractViolation(f"k_true must be an integer >= 1, got {self.k_true!r}")
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
class Assignment:
    """Cluster membership for every point: integer cluster_of[j] in [0, k),
    where ``k`` is an integer >= 1."""

    cluster_of: np.ndarray
    k: int

    def __post_init__(self):
        idx = int_array(self.cluster_of, "cluster_of")
        if idx.ndim != 1:
            raise ContractViolation("cluster_of must be a 1-D vector")
        if not TYPES["integer"](self.k) or self.k < 1:
            raise ContractViolation(f"k must be an integer >= 1, got {self.k!r}")
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


_KERNEL_MODULE = "scipy.spatial._distance_pybind"


def _load_sqeuclidean():
    """``cdist_sqeuclidean`` from scipy's ``spatial/_distance_pybind``
    extension file, found and loaded without importing scipy."""
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        raise ImportError("swarmclust needs scipy, and no scipy package was found")
    where = os.path.join(scipy_spec.submodule_search_locations[0], "spatial")
    finder = importlib.machinery.FileFinder(
        where, (importlib.machinery.ExtensionFileLoader,
                importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(_KERNEL_MODULE)
    if spec is not None:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        if hasattr(module, "cdist_sqeuclidean"):
            return module.cdist_sqeuclidean
    from importlib.metadata import PackageNotFoundError, version

    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = "of unknown version"
    raise ImportError(
        f"no {_KERNEL_MODULE} extension with cdist_sqeuclidean in {where} "
        f"(scipy {scipy_version}); swarmclust computes its distances with it"
    )


sqeuclidean = _load_sqeuclidean()


# Threads the kernels split their rows over: the CPUs this process may run
# on. Grid worker processes lower it so that jobs x threads fits the CPUs.
KERNEL_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)
# Fewest kernel entries (distances or kernel terms) worth a thread of their
# own; a call of fewer than twice this many runs inline. A split costs a
# queue hand-off to a waiting helper thread, 12-13 us on a 2-vCPU VM, where
# 2^14 entries of the fitness are 30-60 us of work. 2^14 ran paired
# paper_grid and large_n rounds 4-6 % faster than 2^15, and 2^15 7 % faster
# than 2^17, which keeps every paper_grid call on one thread.
PARALLEL_MIN = 1 << 14
# Entries a kernel call's blocks hold at once over all threads (float64,
# 2 MB), numpy's temporaries included. At N = 4000 the densities take as
# long at 2^16 to 2^20 entries; 2^17 held 0.6 MB less on large_n's fitness
# but ran its cells 3% slower.
KERNEL_BLOCK = 1 << 18

# (helper thread count, the queue they take ranges from), made on first use
_pool: Optional[tuple[int, SimpleQueue]] = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    # A forked child has none of its parent's threads: start afresh.
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def set_kernel_workers(threads: int) -> None:
    """Split kernel rows over ``threads`` threads from now on (at least one)."""
    global KERNEL_WORKERS
    KERNEL_WORKERS = max(1, int(threads))


def _helper(tasks: SimpleQueue) -> None:
    """A helper thread's loop: each ``(run, lo, hi, done)`` taken from
    ``tasks`` runs ``run(lo, hi)`` and puts None, or the error it raised,
    on ``done``. A None task ends the thread."""
    while (task := tasks.get()) is not None:
        run, lo, hi, done = task
        try:
            run(lo, hi)
        except BaseException as exc:  # map_blocks raises it in the caller
            done.put(exc)
        else:
            done.put(None)


def _helper_pool() -> SimpleQueue:
    """The queue of the ``KERNEL_WORKERS - 1`` helper threads that run beside
    the caller, started on first use and replaced when ``KERNEL_WORKERS``
    changes. They are daemon threads, idle between calls."""
    from queue import SimpleQueue

    global _pool
    helpers = KERNEL_WORKERS - 1
    with _pool_lock:
        if _pool is None or _pool[0] != helpers:
            if _pool is not None:
                for _ in range(_pool[0]):
                    _pool[1].put(None)
            tasks = SimpleQueue()
            for i in range(helpers):
                threading.Thread(target=_helper, args=(tasks,), daemon=True,
                                 name=f"swarmclust-kernel-{i}").start()
            _pool = helpers, tasks
        return _pool[1]


def row_parts(n_rows: int, row_entries: int) -> int:
    """How many ranges :func:`map_blocks` splits ``n_rows`` rows of
    ``row_entries`` entries each into: one per ``PARALLEL_MIN`` entries, at
    most one per row and per ``KERNEL_WORKERS``, at least one."""
    return max(1, min(KERNEL_WORKERS, n_rows, n_rows * row_entries // PARALLEL_MIN))


def map_blocks(fn: Callable[[int, int], None], n_rows: int, row_entries: int) -> None:
    """Call ``fn(lo, hi)`` over blocks of rows covering ``[0, n_rows)``.

    ``row_entries`` is the float64 entries ``fn`` holds per row, numpy's
    own temporaries included. The rows are split into :func:`row_parts`
    contiguous ranges that differ in length by at most one row, and each
    range is walked in blocks of
    ``max(1, KERNEL_BLOCK // (ranges * row_entries))`` rows, so the blocks
    in flight hold at most ``KERNEL_BLOCK`` entries together (one row each
    when a row alone is larger). The calling thread walks a lone range
    itself, so a call that fits one block is a single ``fn(0, n_rows)``.
    With more ranges it runs the last while helper threads run the rest,
    and the call returns once all are done, raising a range's error if one
    failed.
    ``fn`` must write only rows ``lo:hi`` of its outputs and must not call
    ``map_blocks`` itself.
    """
    parts = row_parts(n_rows, row_entries)
    rows = max(1, KERNEL_BLOCK // (parts * row_entries))

    def blocks(lo: int, hi: int) -> None:
        for start in range(lo, hi, rows):
            fn(start, min(start + rows, hi))

    if parts == 1:
        blocks(0, n_rows)
        return
    from queue import SimpleQueue

    edges = [n_rows * i // parts for i in range(parts + 1)]
    tasks, done = _helper_pool(), SimpleQueue()
    for i in range(parts - 1):
        tasks.put((blocks, edges[i], edges[i + 1], done))
    try:
        blocks(edges[-2], edges[-1])
    finally:
        errors = [done.get() for _ in range(parts - 1)]
    for error in errors:
        if error is not None:
            raise error
