"""The six benchmark clustering algorithms behind one uniform interface.

Every ``run_*`` function returns a :class:`ClusteringOutcome` whose
``sicd_trace`` is the per-iteration best cost (non-increasing for the swarm
family, and per-iteration cost for Lloyd's algorithm).

The algorithms differ only in seeding, boundary, inertia and gbest refine.
:data:`ALGORITHMS` holds one row per algorithm with those choices; the
frozen baseline defaults (version 1) let ablations vary only these
dimensions. The five swarm entry points all run one shared body.

"gbest refine" is the adaptive family's per-iteration nearest-assignment /
center-recalculation pass: the swarm's best centroid set is refined by one
Lloyd step and written back only when that strictly improves fitness (the
refined point also becomes the owning particle's pbest, preserving the
gbest = min pbest bookkeeping). The pass is a pure function of the gbest,
and ``step`` replaces the gbest only when it strictly lowers its fitness,
so after a rejected attempt the pass is skipped for as long as the gbest
fitness still equals the rejected one: the attempt would repeat the same
arithmetic and be rejected again. An accepted attempt lowers the gbest
fitness, so the next iteration always refines.

The swarms' batched SICD fitness and the nearest-center assignment are
N-sized passes on ``swarmclust.core.map_blocks``, within the threads and
memory budget the ``swarmclust.core`` docstring describes: the fitness over
rows, or over each row's points when one row is larger than a thread's
share of the budget, and the assignment over points.
``recompute_centroids`` is not blocked; its bincount holds about twice the
points.

The two subtractive entry points take either a ``sub_config`` or a
precomputed ``seeding`` (a :class:`~swarmclust.subtractive.SeedingResult`,
which depends only on the dataset and the config): a benchmark grid seeds
each distinct (dataset, config) once and hands the result to every cell.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Union

import numpy as np

from . import core
from .core import (
    Assignment,
    ContractViolation,
    Dataset,
    DegenerateInput,
    Rng,
)
from .metrics import sicd, stalled
from .subtractive import SeedingResult, SubtractiveConfig, select_centers
from .swarm import (
    PsoConfig,
    decode,
    exponential_normalized,
    init_swarm,
    linear,
    step,
)

DEFAULTS_VERSION = 1

PLAIN_PSO = PsoConfig(inertia=linear(0.9, 0.4), boundary="none")
ADAPTIVE_PSO = PsoConfig(inertia=exponential_normalized(0.9), boundary="restricted")

# Benchmark-config param names each seeding accepts besides ``k``. For
# random rows (Lloyd's algorithm) ``max_iter`` counts Lloyd iterations.
SEEDING_PARAMS = {
    "random_rows": ("max_iter",), "random": (), "kmeans": ("kmeans_max_iter",),
    "subtractive": ("stop", "epsilon", "r_a", "r_b", "max_centers"),
}
PSO_PARAMS = tuple(f.name for f in fields(PsoConfig))


@dataclass(frozen=True)
class AlgorithmDef:
    """One benchmark algorithm. ``entry`` names its public ``run_*``
    function; ``pso`` is the base swarm config, which fixes boundary and
    inertia (None for Lloyd's algorithm); ``refine`` turns on gbest refine."""

    id: str
    entry: str
    seeding: str
    pso: Optional[PsoConfig]
    refine: bool
    summary: str

    @property
    def param_names(self) -> frozenset:
        """Keys a benchmark config may set in this algorithm's ``params``."""
        swarm = PSO_PARAMS if self.pso is not None else ()
        return frozenset(("k", *SEEDING_PARAMS[self.seeding], *swarm))


ALGORITHMS = {row.id: row for row in (
    AlgorithmDef("kmeans", "run_kmeans", "random_rows", None, False,
                 "Lloyd's algorithm from random data-point centers"),
    AlgorithmDef("pso", "run_pso", "random", PLAIN_PSO, False,
                 "plain particle swarm over centroid sets (linear inertia)"),
    AlgorithmDef("kmeans_pso", "run_kmeans_pso", "kmeans", PLAIN_PSO, False,
                 "k-means result seeds one particle of a plain swarm"),
    AlgorithmDef("sub_pso", "run_subtractive_pso", "subtractive", PLAIN_PSO, False,
                 "subtractive seeding, then a plain swarm"),
    AlgorithmDef("brapso", "run_brapso", "random", ADAPTIVE_PSO, True,
                 "boundary-restricted swarm with exponential inertia"),
    AlgorithmDef("sc_br_apso", "run_sc_br_apso", "subtractive", ADAPTIVE_PSO, True,
                 "subtractive seeding plus the boundary-restricted swarm"),
)}

ALGORITHM_IDS = tuple(ALGORITHMS)


@dataclass(frozen=True)
class ClusteringOutcome:
    centroids: np.ndarray
    assignment: Assignment
    sicd: float
    iterations_used: int
    sicd_trace: np.ndarray
    seed: int


def assign_nearest(dataset: Dataset, centroids: np.ndarray) -> Assignment:
    """Map every point to its closest centroid; ties go to the lower index.

    The k x N squared distances come from
    :func:`swarmclust.core.sqeuclidean`, bit for bit
    ``cdist(centroids, points, "sqeuclidean")``. They are the same squared
    distances as the N x k ones, each summed in the same order, and argmin
    keeps the first minimum down each column, so the picks are those of a
    row-wise argmin over N x k. It runs on
    :func:`swarmclust.core.map_blocks` over the points, 2k entries each (the
    distances and the point-major copy argmin makes of them), so a large
    call never holds the whole k x N matrix; every pick is the same."""
    c = np.asarray(centroids, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] < 1:
        raise ContractViolation("centroids must be a nonempty k x d matrix")
    if c.shape[1] != dataset.d:
        raise ContractViolation(
            f"centroids of shape {c.shape} do not fit points of shape {dataset.points.shape}")
    x, k = dataset.points, c.shape[0]
    n = x.shape[0]
    nearest = np.empty(n, dtype=np.intp)

    def pick(lo: int, hi: int) -> None:
        np.argmin(core.sqeuclidean(c, x[lo:hi]), axis=0, out=nearest[lo:hi])

    core.map_blocks(pick, n, 2 * k)
    return Assignment(nearest, k=k)


def recompute_centroids(dataset: Dataset, assignment: Assignment) -> np.ndarray:
    """Arithmetic mean of each cluster's members.

    An empty cluster is repaired by relocating its centroid to the point
    farthest from the centroid of the cluster it is assigned to (ties to the
    lower point index); the point is then treated as reassigned so later
    repairs pick different points. Repairs run in ascending cluster order,
    and the centroid a repaired point leaves is not recomputed: it stays
    the mean of the cluster's original members, that point included.

    The bincount holds about twice the points: the N*d bin of every
    coordinate and an N-entry step towards it. The assignment is copied
    only when a cluster is empty.
    """
    if assignment.n != dataset.n:
        raise ContractViolation("assignment length differs from dataset size")
    k, d = assignment.k, dataset.d
    x = dataset.points
    cluster_of = assignment.cluster_of
    counts = np.bincount(cluster_of, minlength=k).astype(np.float64)
    # Entry (cluster c, column j) is bin c*d + j. bincount walks the points
    # in order, so each sum accumulates exactly as np.add.at would.
    bins = (cluster_of[:, None] * d + np.arange(d)).ravel()
    centroids = np.bincount(bins, weights=x.ravel(), minlength=k * d).reshape(k, d)
    nonempty = counts > 0
    centroids[nonempty] /= counts[nonempty, None]

    empty = np.flatnonzero(~nonempty)
    if empty.size:
        cluster_of = cluster_of.copy()  # the repairs reassign points
    for i in empty:
        diffs = x - centroids[cluster_of]
        dist_to_own = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
        farthest = int(np.argmax(dist_to_own))
        centroids[i] = x[farthest]
        cluster_of[farthest] = i
    return centroids


def _fitness_for(dataset: Dataset, k: int):
    """Batched SICD fitness: an (m, k*d) block of flattened centroid sets to
    the (m,) vector of their sums of nearest-center distances.

    The squared distances come from :func:`swarmclust.core.sqeuclidean`
    (scipy's compiled ``cdist(..., "sqeuclidean")``) and are reduced to
    each point's minimum over the k centers before the square root, so only
    N roots are taken per row; ``sqrt`` is correctly rounded and monotone
    and scipy's ``euclidean`` is exactly ``sqrt(sqeuclidean)``, so the
    minima are the same bits. Each row's sum runs over one contiguous
    length-N vector, so it is bit-identical to
    ``cdist(x, c).min(axis=1).sum()`` for that row alone.

    A row holds (k+1)*N entries, distances and minima. When that fits each
    thread's share of ``KERNEL_BLOCK``, the rows run on
    :func:`swarmclust.core.map_blocks`; a call it would run as one block on
    one thread, such as any one-row refine, is computed directly, skipping
    the driver's per-call cost. Otherwise every row is tiled: its points run
    on ``map_blocks`` at k distances each, and each tile writes its minima
    into the row's one length-N minima vector, which is then rooted and
    summed as above. ``KERNEL_WORKERS``, ``PARALLEL_MIN`` and
    ``KERNEL_BLOCK`` are read when the closure is built to make these
    choices; they change which path a call takes, never its values."""
    x = dataset.points
    n, d = dataset.n, dataset.d
    row_entries = (k + 1) * n
    sqeuclidean = core.sqeuclidean
    min_reduce, add_reduce, sqrt = np.minimum.reduce, np.add.reduce, np.sqrt

    if row_entries * core.KERNEL_WORKERS > core.KERNEL_BLOCK:
        def tiled_fitness(positions: np.ndarray) -> np.ndarray:
            out = np.empty(positions.shape[0])
            mins = np.empty(n)
            for i, row in enumerate(positions):
                centers = row.reshape(k, d)

                def fill(lo: int, hi: int) -> None:
                    min_reduce(sqeuclidean(centers, x[lo:hi]), axis=0, out=mins[lo:hi])

                core.map_blocks(fill, n, k)
                out[i] = add_reduce(sqrt(mins, out=mins))
            return out

        return tiled_fitness

    # more rows than one run in one go below this many entries: one block
    # on one thread (under 2 * PARALLEL_MIN entries, or one worker)
    one_go_below = core.KERNEL_BLOCK + 1
    if core.KERNEL_WORKERS > 1:
        one_go_below = min(one_go_below, 2 * core.PARALLEL_MIN)

    def fitness(positions: np.ndarray) -> np.ndarray:
        m = positions.shape[0]
        if m == 1 or m * row_entries < one_go_below:
            mins = min_reduce(sqeuclidean(positions.reshape(-1, d), x).reshape(m, k, n),
                              axis=1)
            return add_reduce(sqrt(mins, out=mins), axis=1)
        out = np.empty(m)

        def fill(lo: int, hi: int) -> None:
            mins = min_reduce(sqeuclidean(positions[lo:hi].reshape(-1, d), x)
                              .reshape(hi - lo, k, n), axis=1)
            add_reduce(sqrt(mins, out=mins), axis=1, out=out[lo:hi])

        core.map_blocks(fill, m, row_entries)
        return out

    return fitness


def _run_swarm(
    algo_id: str, dataset: Dataset, k: Optional[int], config: Optional[PsoConfig],
    rng: Optional[Rng], sub_config: Optional[SubtractiveConfig] = None,
    kmeans_max_iter: int = 100, seeding: Optional[SeedingResult] = None,
) -> ClusteringOutcome:
    """Seed and run the swarm of ``ALGORITHMS[algo_id]``. Subtractive
    seeding picks k itself, so ``k`` is unused there; a given ``seeding``
    stands in for selecting the centers from ``sub_config``."""
    algo = ALGORITHMS[algo_id]
    if rng is None:
        raise ContractViolation(f"{algo.entry} needs an rng")
    if seeding is not None and sub_config is not None:
        raise ContractViolation(f"{algo.entry} takes a seeding or a sub_config, not both")
    seed_centers = None
    if algo.seeding == "subtractive":
        if seeding is None:
            seeding = select_centers(dataset, sub_config or SubtractiveConfig())
        k, seed_centers = seeding.k, seeding.centers
    elif not 1 <= k <= dataset.n:
        raise DegenerateInput(f"k={k} outside [1, {dataset.n}]")
    elif algo.seeding == "kmeans":
        seed_centers = run_kmeans(dataset, k, "random_points", rng, kmeans_max_iter).centroids
    config = config or algo.pso

    fitness = _fitness_for(dataset, k)
    swarm = init_swarm(seed_centers, k, dataset, config, rng, fitness)
    trace = [swarm.gbest_fitness]
    stall_streak = 0
    iterations = 0
    rejected = None  # gbest fitness at the last rejected refine

    for _ in range(config.max_iter):
        step(swarm, fitness, config, rng)
        if algo.refine and swarm.gbest_fitness != rejected:
            # Views, not copies: neither the gbest nor the refined centers
            # are written to.
            refined = recompute_centroids(
                dataset, assign_nearest(dataset, swarm.gbest_position.reshape(k, dataset.d)))
            refined_pos = refined.reshape(1, -1)
            refined_fit = float(fitness(refined_pos)[0])
            if refined_fit < swarm.gbest_fitness:
                owner = swarm.pbest_fitness.argmin()
                swarm.pbest_position[owner] = refined_pos[0]
                swarm.pbest_fitness[owner] = refined_fit
                swarm.gbest_position = refined_pos[0]
                swarm.gbest_fitness = refined_fit
            else:
                rejected = swarm.gbest_fitness
        iterations += 1
        trace.append(swarm.gbest_fitness)
        stall_streak = stall_streak + 1 if stalled(trace[-2], trace[-1], config.rel_tol) else 0
        if stall_streak >= config.stall_iters:
            break

    centroids = decode(swarm.gbest_position, k, dataset.d)
    assignment = assign_nearest(dataset, centroids)
    return ClusteringOutcome(
        centroids=centroids,
        assignment=assignment,
        sicd=swarm.gbest_fitness,
        iterations_used=iterations,
        sicd_trace=np.asarray(trace),
        seed=rng.seed,
    )


def run_kmeans(
    dataset: Dataset,
    k: int,
    init: Union[str, np.ndarray] = "random_points",
    rng: Optional[Rng] = None,
    max_iter: int = 100,
) -> ClusteringOutcome:
    """Lloyd's algorithm: assign to nearest centers, recompute means, repeat
    until the assignment stabilizes or ``max_iter`` passes."""
    if max_iter < 1:
        raise ContractViolation(f"k-means needs max_iter >= 1, got {max_iter}")
    if not 1 <= k <= dataset.n:
        raise DegenerateInput(f"k={k} outside [1, {dataset.n}]")
    if isinstance(init, str):
        if init != "random_points":
            raise ContractViolation(f"unknown init mode {init!r}")
        if rng is None:
            raise ContractViolation("random_points init needs an rng")
        centroids = dataset.points[rng.choice_without_replacement(dataset.n, k)].copy()
    else:
        centroids = np.asarray(init, dtype=np.float64).copy()
        if centroids.shape != (k, dataset.d):
            raise ContractViolation(
                f"given centers shape {centroids.shape} != ({k}, {dataset.d})"
            )

    trace = []
    prev_assign = None
    assignment = assign_nearest(dataset, centroids)
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        trace.append(sicd(centroids, assignment, dataset))
        if prev_assign is not None and np.array_equal(
            prev_assign.cluster_of, assignment.cluster_of
        ):
            break
        centroids = recompute_centroids(dataset, assignment)
        prev_assign = assignment
        assignment = assign_nearest(dataset, centroids)

    final = sicd(centroids, assignment, dataset)
    if not trace or trace[-1] != final:
        trace.append(final)
    return ClusteringOutcome(
        centroids=centroids,
        assignment=assignment,
        sicd=final,
        iterations_used=iterations,
        sicd_trace=np.asarray(trace),
        seed=rng.seed if rng is not None else 0,
    )


def run_pso(
    dataset: Dataset,
    k: int,
    config: Optional[PsoConfig] = None,
    rng: Optional[Rng] = None,
) -> ClusteringOutcome:
    """Plain PSO over centroid sets, random initialization."""
    return _run_swarm("pso", dataset, k, config, rng)


def run_kmeans_pso(
    dataset: Dataset,
    k: int,
    config: Optional[PsoConfig] = None,
    rng: Optional[Rng] = None,
    kmeans_max_iter: int = 100,
) -> ClusteringOutcome:
    """Sequential hybrid: k-means first, its centroids seed one particle of a
    plain PSO which refines them."""
    return _run_swarm("kmeans_pso", dataset, k, config, rng, kmeans_max_iter=kmeans_max_iter)


def run_subtractive_pso(
    dataset: Dataset,
    sub_config: Optional[SubtractiveConfig] = None,
    pso_config: Optional[PsoConfig] = None,
    rng: Optional[Rng] = None,
    seeding: Optional[SeedingResult] = None,
) -> ClusteringOutcome:
    """Subtractive seeding determines k and the seeds; plain PSO refines.
    ``seeding``, if given, is ``select_centers(dataset, sub_config)``
    computed beforehand, and replaces ``sub_config``."""
    return _run_swarm("sub_pso", dataset, None, pso_config, rng, sub_config,
                      seeding=seeding)


def run_brapso(
    dataset: Dataset,
    k: int,
    config: Optional[PsoConfig] = None,
    rng: Optional[Rng] = None,
) -> ClusteringOutcome:
    """Boundary-restricted adaptive PSO: random initialization, exponential
    inertia, boundary restriction, per-iteration gbest refinement."""
    return _run_swarm("brapso", dataset, k, config, rng)


def run_sc_br_apso(
    dataset: Dataset,
    sub_config: Optional[SubtractiveConfig] = None,
    pso_config: Optional[PsoConfig] = None,
    rng: Optional[Rng] = None,
    seeding: Optional[SeedingResult] = None,
) -> ClusteringOutcome:
    """The full pipeline: subtractive seeding supplies k and the initial
    centers, then boundary-restricted adaptive PSO with per-iteration center
    recalculation refines them until convergence. ``seeding`` is as for
    :func:`run_subtractive_pso`."""
    return _run_swarm("sc_br_apso", dataset, None, pso_config, rng, sub_config,
                      seeding=seeding)
