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
gbest = min pbest bookkeeping).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Union

import numpy as np
from scipy.spatial.distance import cdist

from .core import (
    Assignment,
    ContractViolation,
    Dataset,
    DegenerateInput,
    Rng,
)
from .metrics import sicd, stalled
from .subtractive import SubtractiveConfig, select_centers
from .swarm import (
    Inertia,
    PsoConfig,
    decode,
    encode,
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
INERTIA_PARAMS = frozenset(f.name for f in fields(Inertia))


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

    def unknown_params(self, params: dict) -> list:
        """Sorted keys of ``params`` this algorithm does not take; keys of an
        ``inertia`` mapping are checked too and reported as ``inertia.<key>``."""
        unknown = sorted(set(params) - self.param_names)
        inertia = params.get("inertia")
        if isinstance(inertia, dict):
            unknown += sorted(f"inertia.{key}" for key in set(inertia) - INERTIA_PARAMS)
        return unknown


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
    """Map every point to its closest centroid; ties go to the lower index."""
    c = np.asarray(centroids, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] < 1:
        raise ContractViolation("centroids must be a nonempty k x d matrix")
    dists = cdist(dataset.points, c, "sqeuclidean")
    return Assignment(np.argmin(dists, axis=1), k=c.shape[0])


def recompute_centroids(dataset: Dataset, assignment: Assignment) -> np.ndarray:
    """Arithmetic mean of each cluster's members.

    An empty cluster is repaired by relocating its centroid to the point
    farthest from that point's own nearest centroid (ties to the lower point
    index); the point is then treated as reassigned so later repairs pick
    different points.
    """
    k = assignment.k
    x = dataset.points
    cluster_of = assignment.cluster_of.copy()
    counts = np.bincount(cluster_of, minlength=k).astype(np.float64)
    centroids = np.zeros((k, dataset.d))
    np.add.at(centroids, cluster_of, x)
    nonempty = counts > 0
    centroids[nonempty] /= counts[nonempty, None]

    for i in np.flatnonzero(~nonempty):
        diffs = x - centroids[cluster_of]
        dist_to_own = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
        farthest = int(np.argmax(dist_to_own))
        centroids[i] = x[farthest]
        cluster_of[farthest] = i
    return centroids


def _fitness_for(dataset: Dataset, k: int):
    x = dataset.points
    d = dataset.d

    def fitness(position: np.ndarray) -> float:
        c = position.reshape(k, d)
        dists = cdist(x, c)
        return float(dists.min(axis=1).sum())

    return fitness


def _run_swarm(
    algo_id: str, dataset: Dataset, k: Optional[int], config: Optional[PsoConfig],
    rng: Optional[Rng], sub_config: Optional[SubtractiveConfig] = None,
    kmeans_max_iter: int = 100,
) -> ClusteringOutcome:
    """Seed and run the swarm of ``ALGORITHMS[algo_id]``. Subtractive
    seeding picks k itself, so ``k`` is unused there."""
    algo = ALGORITHMS[algo_id]
    if rng is None:
        raise ContractViolation(f"{algo.entry} needs an rng")
    seed_centers = None
    if algo.seeding == "subtractive":
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

    for _ in range(config.max_iter):
        step(swarm, fitness, config, rng)
        if algo.refine:
            centroids = decode(swarm.gbest_position, k, dataset.d)
            refined = recompute_centroids(dataset, assign_nearest(dataset, centroids))
            refined_pos = encode(refined)
            refined_fit = float(fitness(refined_pos))
            if refined_fit < swarm.gbest_fitness:
                owner = min(
                    range(len(swarm.particles)),
                    key=lambda i: swarm.particles[i].pbest_fitness,
                )
                swarm.particles[owner].pbest_position = refined_pos.copy()
                swarm.particles[owner].pbest_fitness = refined_fit
                swarm.gbest_position = refined_pos
                swarm.gbest_fitness = refined_fit
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
) -> ClusteringOutcome:
    """Subtractive seeding determines k and the seeds; plain PSO refines."""
    return _run_swarm("sub_pso", dataset, None, pso_config, rng, sub_config)


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
) -> ClusteringOutcome:
    """The full pipeline: subtractive seeding supplies k and the initial
    centers, then boundary-restricted adaptive PSO with per-iteration center
    recalculation refines them until convergence."""
    return _run_swarm("sc_br_apso", dataset, None, pso_config, rng, sub_config)
