"""The six benchmark clustering algorithms behind one uniform interface.

Every ``run_*`` function returns a :class:`ClusteringOutcome` whose
``sicd_trace`` is the per-iteration best cost (non-increasing for the swarm
family, and per-iteration cost for Lloyd's algorithm), whose ``sicd`` is
that trace's last entry, and whose ``iterations_to_converge`` is
:func:`~swarmclust.metrics.convergence_stats` of that trace: a swarm
reports the stall window that stopped it under its own config, and Lloyd's
algorithm applies ``PsoConfig``'s default rule. Lloyd's loop computes each
traced cost once; when ``max_iter`` ends it, the last update's cost follows
unless it equals the last traced one.

A swarm's initialization and iterations, after seeding, run under one
``np.errstate(over="raise", invalid="raise")``, so a velocity or position
that stops being finite raises ``DegenerateInput`` naming the iteration
without a per-step check. The error state is per thread: the kernels'
helper threads keep their own. A linear inertia weight that overflows to
``-inf`` does so in Python arithmetic, out of numpy's sight, and is caught
after the loop from the last weight used.

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
rows, each block walking its rows' points in tiles that fit a thread's
share of the budget (all N unless a row is larger), and the assignment
over points.
``recompute_centroids`` is not blocked; its bincount holds about twice the
points.

The two subtractive entry points take either a ``sub_config`` or a
precomputed ``seeding`` (a :class:`~swarmclust.subtractive.SeedingResult`,
which depends only on the dataset and the config): a benchmark grid seeds
each distinct (dataset, config) once and hands the result to every cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import core
from .core import (
    Assignment,
    ContractViolation,
    Dataset,
    DegenerateInput,
    Rng,
)
from .metrics import convergence_stats, sicd, stalled
from .schema import field_rules
from .subtractive import DensityRatio, SeedingResult, SubtractiveConfig, select_centers
from .swarm import (
    PsoConfig,
    decode,
    exponential_normalized,
    inertia_weight,
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
    "subtractive": ("stop", *field_rules(DensityRatio), *field_rules(SubtractiveConfig)),
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
    iterations_used: int
    sicd_trace: np.ndarray
    iterations_to_converge: int

    @property
    def sicd(self) -> float:
        """The run's final cost: the last entry of its trace, which is never
        empty."""
        return float(self.sicd_trace[-1])


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

    A row holds (k+1)*N entries, distances and minima. A call that
    :func:`swarmclust.core.map_blocks` would run as one block on one
    thread, such as a one-row refine whose row fits ``KERNEL_BLOCK``, is
    computed in one go, skipping the driver's per-call cost. Every other
    call runs its rows on ``map_blocks``: each block walks its rows' points
    in tiles of ``KERNEL_BLOCK // (KERNEL_WORKERS * (k+1))`` points (all N
    when a row fits a thread's share of the budget), writing their minima
    into the block's length-N minima rows, which are then rooted and summed
    as above. ``KERNEL_WORKERS`` and ``KERNEL_BLOCK`` are read at each
    call, as is what ``row_parts`` reads; they change which path a call
    takes and how it is tiled, never its values."""
    x = dataset.points
    n, d = dataset.n, dataset.d
    row_entries = (k + 1) * n
    sqeuclidean = core.sqeuclidean
    min_reduce, add_reduce, sqrt = np.minimum.reduce, np.add.reduce, np.sqrt

    def fitness(positions: np.ndarray) -> np.ndarray:
        m = positions.shape[0]
        if m * row_entries <= core.KERNEL_BLOCK and core.row_parts(m, row_entries) == 1:
            mins = min_reduce(sqeuclidean(positions.reshape(-1, d), x).reshape(m, k, n),
                              axis=1)
            return add_reduce(sqrt(mins, out=mins), axis=1)
        out = np.empty(m)
        tile = max(1, core.KERNEL_BLOCK // (core.KERNEL_WORKERS * (k + 1)))

        def fill(lo: int, hi: int) -> None:
            centers = positions[lo:hi].reshape(-1, d)
            mins = np.empty((hi - lo, n))
            for start in range(0, n, tile):
                stop = min(start + tile, n)
                min_reduce(sqeuclidean(centers, x[start:stop]).reshape(hi - lo, k, stop - start),
                           axis=1, out=mins[:, start:stop])
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
        seed_centers = run_kmeans(dataset, k, None, rng, kmeans_max_iter).centroids
    config = config or algo.pso

    fitness = _fitness_for(dataset, k)
    swarm = None
    try:
        with np.errstate(over="raise", invalid="raise"):
            swarm = init_swarm(seed_centers, k, dataset, config, rng, fitness)
            trace = [swarm.gbest_fitness]
            stall_streak = 0
            rejected = None  # gbest fitness at the last rejected refine

            for _ in range(config.max_iter):
                step(swarm, fitness, config, rng)
                if algo.refine and swarm.gbest_fitness != rejected:
                    # Views, not copies: neither the gbest nor the refined
                    # centers are written to.
                    refined = recompute_centroids(dataset, assign_nearest(
                        dataset, swarm.gbest_position.reshape(k, dataset.d)))
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
                trace.append(swarm.gbest_fitness)
                stall_streak = (stall_streak + 1
                                if stalled(trace[-2], trace[-1], config.rel_tol) else 0)
                if stall_streak >= config.stall_iters:
                    converged_at = swarm.iter - config.stall_iters
                    break
            else:
                converged_at = len(trace)
    except FloatingPointError as exc:
        where = ("search box not finite during swarm initialization" if swarm is None
                 else f"velocity or position not finite at iteration {swarm.iter}")
        raise DegenerateInput(f"swarm {where}: {exc}") from None
    # A linear schedule's weight is Python arithmetic, which numpy's error
    # state does not see: past some iteration its product overflows, and the
    # weight is -inf from there on, which the v_max clamp can hide. So the
    # last weight used tells whether any was not finite.
    if not math.isfinite(inertia_weight(config, swarm.iter - 1)):
        first = next(i for i in range(swarm.iter)
                     if not math.isfinite(inertia_weight(config, i)))
        raise DegenerateInput(f"swarm velocity not finite at iteration {first}: inertia "
                              f"weight {inertia_weight(config, first)}")

    centroids = decode(swarm.gbest_position, k, dataset.d)
    assignment = assign_nearest(dataset, centroids)
    return ClusteringOutcome(
        centroids=centroids,
        assignment=assignment,
        iterations_used=swarm.iter,
        sicd_trace=np.asarray(trace),
        iterations_to_converge=converged_at,
    )


def run_kmeans(
    dataset: Dataset,
    k: int,
    init: Optional[np.ndarray] = None,
    rng: Optional[Rng] = None,
    max_iter: int = 100,
) -> ClusteringOutcome:
    """Lloyd's algorithm: assign to nearest centers, recompute means, repeat
    until the assignment stabilizes or ``max_iter`` passes. ``init`` holds
    the k starting centers, a finite k x d matrix; without it they are k
    distinct data points drawn from ``rng``."""
    if max_iter < 1:
        raise ContractViolation(f"k-means needs max_iter >= 1, got {max_iter}")
    if not 1 <= k <= dataset.n:
        raise DegenerateInput(f"k={k} outside [1, {dataset.n}]")
    if init is not None:
        centroids = core.given_centers(init, k, dataset.d)
    elif rng is None:
        raise ContractViolation("run_kmeans needs init centers or an rng")
    else:
        centroids = dataset.points[rng.choice_without_replacement(dataset.n, k)].copy()

    trace = []
    prev_assign = None
    assignment = assign_nearest(dataset, centroids)
    for iterations in range(1, max_iter + 1):
        trace.append(sicd(centroids, assignment, dataset))
        if prev_assign is not None and np.array_equal(
            prev_assign.cluster_of, assignment.cluster_of
        ):
            break
        centroids = recompute_centroids(dataset, assignment)
        prev_assign = assignment
        assignment = assign_nearest(dataset, centroids)
    else:  # the last update's cost is not traced yet
        final = sicd(centroids, assignment, dataset)
        if trace[-1] != final:
            trace.append(final)
    return ClusteringOutcome(
        centroids=centroids,
        assignment=assignment,
        iterations_used=iterations,
        sicd_trace=np.asarray(trace),
        iterations_to_converge=convergence_stats(trace, PsoConfig.rel_tol, PsoConfig.stall_iters),
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
    config: Optional[PsoConfig] = None,
    rng: Optional[Rng] = None,
    seeding: Optional[SeedingResult] = None,
) -> ClusteringOutcome:
    """Subtractive seeding determines k and the seeds; plain PSO refines.
    ``seeding``, if given, is ``select_centers(dataset, sub_config)``
    computed beforehand, and replaces ``sub_config``."""
    return _run_swarm("sub_pso", dataset, None, config, rng, sub_config,
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
    config: Optional[PsoConfig] = None,
    rng: Optional[Rng] = None,
    seeding: Optional[SeedingResult] = None,
) -> ClusteringOutcome:
    """The full pipeline: subtractive seeding supplies k and the initial
    centers, then boundary-restricted adaptive PSO with per-iteration center
    recalculation refines them until convergence. ``seeding`` is as for
    :func:`run_subtractive_pso`."""
    return _run_swarm("sc_br_apso", dataset, None, config, rng, sub_config,
                      seeding=seeding)
