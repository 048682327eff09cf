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
``np.errstate(over="raise", invalid="raise")``, so every swarm overflow, of
a velocity, a position or a linear inertia weight, raises
``DegenerateInput`` naming the iteration without a per-step check. The
error state is per thread: the kernels' helper threads keep their own.

The algorithms differ only in seeding, boundary, inertia and gbest refine.
:data:`ALGORITHMS` holds one row per algorithm with those choices; the
frozen baseline defaults (version 1) let ablations vary only these
dimensions.

A :class:`Plan` is one run but for its rng: the algorithm id, k, the
swarm config, the subtractive config or a precomputed ``seeding`` (a
:class:`~swarmclust.subtractive.SeedingResult`, which depends only on the
dataset and the config: a benchmark grid seeds each distinct (dataset,
config) once and hands the result to every cell), and the Lloyd limit of
Lloyd's algorithm or of a k-means pre-run. :func:`run_stack` runs several
plans, each on its own rng, on one dataset; :func:`run` is a
:func:`run_stack` of one, and each ``run_*`` entry point is :func:`run`
of its plan. This is where the stacking rule lives:

- Each run's checks and seeding (a subtractive selection or a k-means
  pre-run on the run's own stream) run in run order, as they would
  alone. Lloyd's algorithm (``kmeans``) runs there, whole and alone.
- The swarms of one k, ``swarm_size``, ``c1``, ``c2`` and
  ``v_max_fraction``, which shape a stack's arrays, then run as one
  :class:`~swarmclust.swarm.SwarmStack`, whose layout and per-swarm draw
  order the ``swarmclust.swarm`` docstring gives; the stacks run one
  after another. One :func:`~swarmclust.swarm.init_swarm` call builds a
  stack, each swarm drawing from its run's stream, with one fitness call.
- Each iteration moves every swarm still in the stack with one step and
  one fitness call, then refines the gbests of the swarms that refine in
  that iteration with one batched Lloyd step and one fitness call.
- Each swarm stops on its own stall or ``max_iter`` rule. Its outcome is
  built from the stack's gbest row and iteration count in the iteration
  it stops, and it leaves the stack, which goes on with the others.

Every run's trajectory, and so its outcome, is bit for bit the one it has
alone. A call's time is split over its runs for :class:`StackedRun`'s
``seconds``: each run's seeding, or its Lloyd's algorithm, and each
swarm's outcome are timed on their own, and the time of a stack's
initialization and of each of its iterations is shared equally by the
swarms in the stack during it (they have equal rows).

The first error of any run ends the whole call: its exception says what
failed, but not always in the words a lone run would use. A caller that
wants each run's own outcome or error runs them again one by one on fresh
streams, as the benchmark grid does.

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
over points, for every center set of a refine chunk at once.
``recompute_centroids`` is not blocked; its bincount holds about twice the
points. A refine of m gbests walks them in chunks whose bincounts fit the
budget, one set a chunk at large N.
"""

from __future__ import annotations

import time
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
from .schema import TYPES, field_rules
from .subtractive import DensityRatio, SeedingResult, SubtractiveConfig, select_centers
from .swarm import (  # noqa: F401  (step: perfbench/tracer.py wraps it here)
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
    return Assignment(_nearest(dataset, c[None])[0], k=c.shape[0])


def _nearest(dataset: Dataset, centers: np.ndarray) -> np.ndarray:
    """The (m, N) nearest-center picks of each of the m k x d center sets in
    ``centers``, as :func:`assign_nearest` makes them: the m*k centers'
    distances to a block of points come from one kernel call, and each
    entry is the one a set alone would get, so every pick is too. 2mk
    entries a point."""
    m, k, d = centers.shape
    x = dataset.points
    n = x.shape[0]
    flat = centers.reshape(m * k, d)
    nearest = np.empty((m, n), dtype=np.intp)

    def pick(lo: int, hi: int) -> None:
        np.argmin(core.sqeuclidean(flat, x[lo:hi]).reshape(m, k, hi - lo), axis=1,
                  out=nearest[:, lo:hi])

    core.map_blocks(pick, n, 2 * m * k)
    return nearest


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
    only when a cluster is empty. A mean past the float range raises
    DegenerateInput: the sums raise no numpy flag.
    """
    if assignment.n != dataset.n:
        raise ContractViolation("assignment length differs from dataset size")
    return _means(dataset, assignment.cluster_of[None], assignment.k)[0]


def _means(dataset: Dataset, cluster_of: np.ndarray, k: int) -> np.ndarray:
    """The (m, k, d) centroids :func:`recompute_centroids` gives each of the
    m assignments in the (m, N) ``cluster_of``. One bincount takes them all:
    each bin belongs to one assignment and accumulates its points in order,
    as that assignment's own bincount would. For m > 1 it also holds an
    m*N*d copy of the points."""
    m, n = cluster_of.shape
    d, x = dataset.d, dataset.points
    groups = cluster_of + (np.arange(m) * k)[:, None] if m > 1 else cluster_of
    counts = np.bincount(groups.ravel(), minlength=m * k).astype(np.float64)
    # Entry (assignment i, cluster c, column j) is bin (i*k + c)*d + j.
    bins = (groups[:, :, None] * d + np.arange(d)).ravel()
    weights = x.ravel() if m == 1 else np.broadcast_to(x, (m, n, d)).ravel()
    centroids = np.bincount(bins, weights=weights, minlength=m * k * d).reshape(m * k, d)
    nonempty = counts > 0
    centroids[nonempty] /= counts[nonempty, None]
    if not np.isfinite(centroids).all():
        raise DegenerateInput("cluster means overflow: a cluster's coordinate sum passes "
                              "the float range")
    centroids = centroids.reshape(m, k, d)

    for i in range(m):
        empty = np.flatnonzero(~nonempty[i * k:(i + 1) * k])
        own = cluster_of[i].copy() if empty.size else None  # the repairs reassign points
        for c in empty:
            diffs = x - centroids[i][own]
            dist_to_own = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
            farthest = int(np.argmax(dist_to_own))
            centroids[i, c] = x[farthest]
            own[farthest] = c
    return centroids


def _refine(dataset: Dataset, gbests: np.ndarray, k: int) -> np.ndarray:
    """One Lloyd step from each row of the (m, k*d) ``gbests``: the (m, k*d)
    means of their nearest-center assignments. The sets go in chunks of at
    most ``max(1, KERNEL_BLOCK // (2*N*d))``, one :func:`_nearest` and one
    :func:`_means` each, so that the chunk's copy of the points and its
    bins fit the kernel budget; each set's picks and bins are its own, so
    the chunks change no bit."""
    m, d = gbests.shape[0], dataset.d
    centers = gbests.reshape(m, k, d)
    chunk = max(1, core.KERNEL_BLOCK // (2 * dataset.n * d))
    return np.concatenate([_means(dataset, _nearest(dataset, centers[lo:lo + chunk]), k)
                           for lo in range(0, m, chunk)]).reshape(m, -1)


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


@dataclass(frozen=True)
class Plan:
    """One run of ``ALGORITHMS[algo_id]`` but for its rng (see the module
    docstring). ``k`` is unused by subtractive seeding, which picks k
    itself; a given ``seeding`` stands in for selecting the centers from
    ``sub_config``; ``config`` defaults to the row's."""

    algo_id: str
    k: Optional[int] = None
    config: Optional[PsoConfig] = None
    sub_config: Optional[SubtractiveConfig] = None
    kmeans_max_iter: int = 100
    seeding: Optional[SeedingResult] = None


@dataclass(frozen=True)
class StackedRun:
    """What :func:`run_stack` gives for one run: its outcome and the seconds
    spent on it (see the module docstring)."""

    outcome: ClusteringOutcome
    seconds: float


def _check_k(dataset: Dataset, k) -> None:
    """Raise ContractViolation unless ``k`` is an integer by the config
    schema's rule (numpy integers pass, bools and floats do not), and
    DegenerateInput unless it is in [1, N]."""
    if not TYPES["integer"](k):
        raise ContractViolation(f"k must be an integer, got {k!r}")
    if not 1 <= k <= dataset.n:
        raise DegenerateInput(f"k={k} outside [1, {dataset.n}]")


def _check_distances(dataset: Dataset) -> None:
    """Raise DegenerateInput when a squared distance across the data's
    bounding box, the sum of its columns' squared spans, overflows: the
    fitness and the assignment square every difference before any root,
    and neither scipy's kernel nor ``einsum`` raises a numpy flag when one
    does, so the run would end with an infinite SICD."""
    span = dataset.points.max(axis=0) - dataset.points.min(axis=0)
    with np.errstate(over="ignore"):
        reach = (span * span).sum()
    if not np.isfinite(reach):
        raise DegenerateInput("dataset's squared distances overflow: its columns' squared "
                              "spans sum past the float range")


def _seed_run(dataset: Dataset, plan: Plan, rng) -> tuple[int, Optional[np.ndarray]]:
    """(k, seed centers or None) of ``plan``'s swarm on ``rng``, after
    checking its inputs."""
    algo = ALGORITHMS[plan.algo_id]
    if rng is None:
        raise ContractViolation(f"{algo.entry} needs an rng")
    if plan.seeding is not None and plan.sub_config is not None:
        raise ContractViolation(f"{algo.entry} takes a seeding or a sub_config, not both")
    _check_distances(dataset)
    if algo.seeding == "subtractive":
        seeding = plan.seeding or select_centers(dataset, plan.sub_config or SubtractiveConfig())
        return seeding.k, seeding.centers
    _check_k(dataset, plan.k)
    if algo.seeding == "kmeans":
        return plan.k, run_kmeans(dataset, plan.k, None, rng, plan.kmeans_max_iter).centroids
    return plan.k, None


def run(dataset: Dataset, plan: Plan, rng: Optional[Rng]) -> ClusteringOutcome:
    """``plan`` run on ``dataset`` with ``rng``, as a :func:`run_stack` of one."""
    return run_stack(dataset, [(plan, rng)])[0].outcome


def run_stack(dataset: Dataset, runs) -> list[StackedRun]:
    """Run ``runs``, (:class:`Plan`, rng) pairs, on ``dataset``: one
    :class:`StackedRun` per run, in order. Lloyd's algorithm runs alone and
    the swarms in stacks, as the module docstring says; the first error of
    any run ends the call."""
    clock = time.perf_counter
    runs = list(runs)
    n = len(runs)
    configs, traces, outcomes = ([None] * n for _ in range(3))
    seconds, streaks = [0.0] * n, [0] * n
    rejected = [None] * n  # gbest fitness at the last rejected refine
    stacks = {}  # (k, swarm_size, c1, c2, v_max_fraction) -> [(run, seed centers or None)]
    for i, (plan, rng) in enumerate(runs):
        start = clock()
        algo = ALGORITHMS[plan.algo_id]
        if algo.pso is None:
            outcomes[i] = run_kmeans(dataset, plan.k, None, rng, plan.kmeans_max_iter)
        else:
            k, seed_centers = _seed_run(dataset, plan, rng)
            config = configs[i] = plan.config or algo.pso
            key = (k, config.swarm_size, config.c1, config.c2, config.v_max_fraction)
            stacks.setdefault(key, []).append((i, seed_centers))
        seconds[i] = clock() - start

    rngs = [rng for _, rng in runs]
    refines = [ALGORITHMS[plan.algo_id].refine for plan, _ in runs]
    for (k, *_), group in stacks.items():
        start = clock()
        members = [i for i, _ in group]
        fitness = _fitness_for(dataset, k)
        try:
            with np.errstate(over="raise", invalid="raise"):
                stack = init_swarm([(seed_centers, configs[i], rngs[i])
                                    for i, seed_centers in group], k, dataset, fitness)
        except FloatingPointError as exc:
            raise DegenerateInput(f"swarm not finite during initialization: {exc}") from None
        share = (clock() - start) / len(members)
        for i, gbest in zip(members, stack.gbest_fitness.tolist()):
            traces[i] = [gbest]
            seconds[i] += share
        active = members  # run of each stacked swarm
        try:
            with np.errstate(over="raise", invalid="raise"):
                while active:
                    start = clock()
                    stack.step(fitness, [rngs[i] for i in active])
                    gbest = stack.gbest_fitness.tolist()
                    refiners = [j for j, i in enumerate(active)
                                if refines[i] and gbest[j] != rejected[i]]
                    if refiners:
                        refined = _refine(dataset, stack.gbest_position[refiners], k)
                        for j, position, value in zip(refiners, refined,
                                                      fitness(refined).tolist()):
                            if value < gbest[j]:
                                stack.replace_gbest(j, position, value)
                                gbest[j] = value
                            else:
                                rejected[active[j]] = gbest[j]
                    leaving = []  # (member, iterations to converge)
                    for j, i in enumerate(active):
                        trace, config = traces[i], configs[i]
                        trace.append(gbest[j])
                        streaks[i] = streaks[i] + 1 if stalled(trace[-2], trace[-1],
                                                               config.rel_tol) else 0
                        if streaks[i] >= config.stall_iters:
                            leaving.append((j, stack.iter - config.stall_iters))
                        elif stack.iter == config.max_iter:
                            leaving.append((j, len(trace)))
                    share = (clock() - start) / len(active)
                    for i in active:
                        seconds[i] += share
                    if leaving:
                        for j, converged in leaving:
                            start = clock()
                            i = active[j]
                            centroids = decode(stack.gbest_position[j], k, dataset.d)
                            outcomes[i] = ClusteringOutcome(
                                centroids=centroids,
                                assignment=assign_nearest(dataset, centroids),
                                iterations_used=stack.iter,
                                sicd_trace=np.asarray(traces[i]),
                                iterations_to_converge=converged,
                            )
                            seconds[i] += clock() - start
                        stack.remove([j for j, _ in leaving])
                        active = [i for i in active if outcomes[i] is None]
        except FloatingPointError as exc:
            raise DegenerateInput(f"swarm velocity or position not finite at iteration "
                                  f"{stack.iter}: {exc}") from None
    return [StackedRun(*result) for result in zip(outcomes, seconds)]


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
    if not (TYPES["integer"](max_iter) and max_iter >= 1):
        raise ContractViolation(f"k-means needs an integer max_iter >= 1, got {max_iter!r}")
    _check_k(dataset, k)
    _check_distances(dataset)
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
    return run(dataset, Plan("pso", k, config), rng)


def run_kmeans_pso(
    dataset: Dataset,
    k: int,
    config: Optional[PsoConfig] = None,
    rng: Optional[Rng] = None,
    kmeans_max_iter: int = 100,
) -> ClusteringOutcome:
    """Sequential hybrid: k-means first, its centroids seed one particle of a
    plain PSO which refines them."""
    return run(dataset, Plan("kmeans_pso", k, config, kmeans_max_iter=kmeans_max_iter), rng)


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
    return run(dataset, Plan("sub_pso", None, config, sub_config, seeding=seeding), rng)


def run_brapso(
    dataset: Dataset,
    k: int,
    config: Optional[PsoConfig] = None,
    rng: Optional[Rng] = None,
) -> ClusteringOutcome:
    """Boundary-restricted adaptive PSO: random initialization, exponential
    inertia, boundary restriction, per-iteration gbest refinement."""
    return run(dataset, Plan("brapso", k, config), rng)


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
    return run(dataset, Plan("sc_br_apso", None, config, sub_config, seeding=seeding), rng)
