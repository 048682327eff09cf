"""Particle swarm engine over flattened centroid sets.

A particle's position is k centroids flattened row-major into one k*d
vector. Velocities and positions follow the classic update

    v <- w*v + c1*rand1*(pbest - x) + c2*rand2*(gbest - x)
    x <- x + v

with rand1/rand2 drawn per dimension. Three inertia schedules are
supported: a linear ramp w_max -> w_min, the literal exponential decay
maxw*exp(-iter), and a normalized variant maxw*exp(-iter/max_iter). The
literal decay drives w below 1e-4 within nine iterations, effectively
removing inertia, so the normalized variant is the default.

Boundary handling ("restricted"): a component that leaves the search box is
reverted to its pre-update value; a component that was already out of
bounds before the update is clamped to the nearer bound.

Array layout: a :class:`Swarm` holds the whole swarm as arrays with one row
per particle, ``position``, ``velocity`` and ``pbest_position`` of shape
(S, k*d) and ``pbest_fitness`` of shape (S,). A step is a handful of
whole-swarm array operations; every update is elementwise, so each row gets
exactly the floating-point operations a lone particle would.

A step makes a few dozen numpy calls, so on small data their fixed cost, not
the arithmetic, sets its time; the step is written to make few calls, on
contiguous arrays of one shape where it can, in place where it may:

- Per-swarm constants. The first step builds what every later step reuses
  and keeps it on the swarm: v_max and -v_max, ``lower`` and ``upper``
  tiled to (S, k*d) for the boundary comparisons, a (2, S, k*d) block of c1
  and c2 and two scratch blocks of that shape. They are built again when a
  step gets another config object or finds ``lower`` or ``upper`` rebound
  or the swarm's shape changed; bounds changed in place go unnoticed.
- The step draws as below, copies the draws out as contiguous rand1 and
  rand2 blocks, and turns those in place into c1*rand1*(pbest - x) and
  c2*rand2*(gbest - x), each product in the order of the plain update.
- ``position`` and ``velocity`` are new arrays every step, and a new gbest
  is a copy of its pbest row. ``pbest_position`` and ``pbest_fitness`` are
  updated in place, so they must not share memory with other arrays.

Draw order is part of the engine contract so runs are reproducible and can
be replayed against a straight-line reference with a stubbed stream.
Unseeded init draws one S*k*d block, row by row; seeded init draws one
(S-1)*k*d jitter block for the non-seed particles. Each step draws one flat
S*2*k*d block and reads it as (S, 2, k*d): per particle in order, first the
rand1 block, then the rand2 block, which is the same stream as drawing
rand1 and rand2 particle by particle. Any object with a ``random(size)``
method taking an int and returning draws in [0, 1) can stand in for the
stream.

Fitness is batched: ``fitness(positions)`` maps an (m, k*d) block of
positions to an (m,) vector, lower is better. The engine makes one call per
init and one per step, and updates pbest and gbest only after it returns.
The SICD fitness built in :mod:`swarmclust.pipelines` sums each row's N
nearest-center distances as one contiguous length-N vector, the same
summation numpy does for a single particle, so a row's value is
bit-identical to evaluating that particle alone. It takes the square root
after the minimum over centers (N roots per row instead of k*N; the same
bits, since ``sqrt`` is correctly rounded and monotone), and a call large
enough to pay for it runs on :func:`swarmclust.core.map_blocks`, over the
kernel threads and in blocks within one memory budget (the
``swarmclust.core`` docstring describes both), each row's minima still
summed as one contiguous vector into its own slot, so the values do not
depend on the thread count or the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import ContractViolation, Dataset, bounds_of
from .schema import check_fields, rule

# The ufunc np.clip calls, called directly to skip np.clip's Python-level
# argument handling; same loop, same bits.
try:
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

LINEAR = "linear"
EXPONENTIAL_LITERAL = "exponential_literal"
EXPONENTIAL_NORMALIZED = "exponential_normalized"
INERTIA_KINDS = (LINEAR, EXPONENTIAL_LITERAL, EXPONENTIAL_NORMALIZED)
BOUNDARIES = ("restricted", "none")


@dataclass(frozen=True)
class Inertia:
    kind: str = rule(type="string", enum=list(INERTIA_KINDS))
    w_max: float = rule(0.9, type="number", minimum=0)
    w_min: float = rule(0.4, type="number", minimum=0)

    def __post_init__(self):
        check_fields(self, ContractViolation)


def linear(w_max: float = 0.9, w_min: float = 0.4) -> Inertia:
    return Inertia(LINEAR, w_max, w_min)


def exponential_literal(maxw: float = 0.9) -> Inertia:
    return Inertia(EXPONENTIAL_LITERAL, maxw)


def exponential_normalized(maxw: float = 0.9) -> Inertia:
    return Inertia(EXPONENTIAL_NORMALIZED, maxw)


@dataclass(frozen=True)
class PsoConfig:
    """Swarm hyperparameters. Lower fitness is better throughout.

    ``v_max_fraction`` clamps each velocity component to that fraction of the
    per-dimension search range; None disables the clamp. A run stops early
    once the best fitness improves by less than ``rel_tol`` (relative) for
    ``stall_iters`` consecutive iterations.
    """

    c1: float = rule(2.0, type="number", minimum=0)
    c2: float = rule(2.0, type="number", minimum=0)
    inertia: Inertia = field(default_factory=exponential_normalized)
    max_iter: int = rule(200, type="integer", minimum=1)
    swarm_size: int = rule(20, type="integer", minimum=2)
    boundary: str = rule("restricted", type="string", enum=list(BOUNDARIES))
    v_max_fraction: Optional[float] = rule(
        1.0, type=["number", "null"], exclusiveMinimum=0, maximum=1)
    stall_iters: int = rule(25, type="integer", minimum=1)
    rel_tol: float = rule(1e-8, type="number")

    def __post_init__(self):
        check_fields(self, ContractViolation)


@dataclass(frozen=True)
class Particle:
    """One particle's state, as copied out by :attr:`Swarm.particles`."""

    position: np.ndarray
    velocity: np.ndarray
    pbest_position: np.ndarray
    pbest_fitness: float


@dataclass
class Swarm:
    """Whole-swarm state, one row per particle (see the module docstring)."""

    position: np.ndarray
    velocity: np.ndarray
    pbest_position: np.ndarray
    pbest_fitness: np.ndarray
    gbest_position: np.ndarray
    gbest_fitness: float
    iter: int
    lower: np.ndarray
    upper: np.ndarray
    k: int
    d: int
    _constants: Optional[_StepConstants] = field(default=None, init=False, repr=False,
                                                 compare=False)

    @property
    def particles(self) -> list[Particle]:
        """Read-only snapshot: a copy of each particle's row, in order.
        Writing to it does not change the swarm."""
        return [
            Particle(pos, vel, pbest, f)
            for pos, vel, pbest, f in zip(
                self.position.copy(), self.velocity.copy(), self.pbest_position.copy(),
                self.pbest_fitness.tolist(),
            )
        ]


def encode(centroids: np.ndarray) -> np.ndarray:
    """Flatten a k x d centroid matrix row-major into a position vector."""
    c = np.asarray(centroids, dtype=np.float64)
    if c.ndim != 2:
        raise ContractViolation("centroids must be a k x d matrix")
    return c.reshape(-1).copy()


def decode(position: np.ndarray, k: int, d: int) -> np.ndarray:
    """Inverse of :func:`encode`; exact round-trip."""
    p = np.asarray(position, dtype=np.float64)
    if p.ndim != 1 or p.size != k * d:
        raise ContractViolation(f"position length {p.size} != k*d = {k * d}")
    return p.reshape(k, d).copy()


def inertia_weight(config: PsoConfig, iter: int) -> float:
    """Inertia weight at a given iteration, always in [0, w_max]."""
    sched = config.inertia
    if sched.kind == LINEAR:
        return sched.w_max - (sched.w_max - sched.w_min) * iter / config.max_iter
    if sched.kind == EXPONENTIAL_LITERAL:
        return sched.w_max * math.exp(-iter)
    return sched.w_max * math.exp(-iter / config.max_iter)


def _apply_boundary(
    position: np.ndarray,
    previous: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
) -> None:
    """Restrict ``position`` in place: an out-of-box component goes back to
    its ``previous`` value, or to ``previous`` clipped into the box when that
    is out too. ``low`` and ``high`` are ``lower`` and ``upper`` tiled to the
    swarm's shape, for the comparisons; the clip takes the (k*d,) rows, as
    the earlier ``np.clip`` did (its contiguous loop can flip the sign of a
    zero that the broadcast one keeps)."""
    out = position < low
    out |= position > high
    if not np.count_nonzero(out):
        return
    np.copyto(position, previous, where=out)
    still_out = previous < low
    still_out |= previous > high
    still_out &= out
    if np.count_nonzero(still_out):
        np.copyto(position, _clip(previous, lower, upper), where=still_out)


def _evaluate(fitness: Callable[[np.ndarray], np.ndarray], positions: np.ndarray,
              iteration: Optional[int]) -> np.ndarray:
    """One batched fitness call; a NaN names the first particle that gave it.
    ``iteration`` is None during initialization."""
    evals = np.asarray(fitness(positions), dtype=np.float64)
    nan = np.isnan(evals)
    if np.count_nonzero(nan):
        when = ("during swarm initialization" if iteration is None
                else f"at iteration {iteration}")
        raise RuntimeError(f"fitness returned NaN {when}, particle {int(np.argmax(nan))}")
    return evals


def init_swarm(
    seed_centers: Optional[np.ndarray],
    k: int,
    dataset: Dataset,
    config: PsoConfig,
    rng,
    fitness: Callable[[np.ndarray], np.ndarray],
) -> Swarm:
    """Build and evaluate the initial swarm.

    With ``seed_centers`` the first particle sits exactly at the seeds and
    the rest jitter around them by up to +/-5% of each dimension's range,
    clipped into bounds. Without seeds, positions are uniform inside the
    dataset's bounding box. Velocities start at zero and pbest at the
    initial position.
    """
    if k < 1 or dataset.d < 1:
        raise ContractViolation("k and d must be >= 1")
    bounds = bounds_of(dataset)
    lower, upper = bounds.tiled(k)
    span = upper - lower
    kd = k * dataset.d
    size = config.swarm_size

    if seed_centers is not None:
        seeds = np.asarray(seed_centers, dtype=np.float64)
        if seeds.shape != (k, dataset.d):
            raise ContractViolation(
                f"seed_centers shape {seeds.shape} != ({k}, {dataset.d})"
            )
        base = encode(seeds)
        draws = rng.random((size - 1) * kd).reshape(size - 1, kd)
        jitter = (draws * 2.0 - 1.0) * 0.05 * span
        position = np.vstack([base, np.clip(base + jitter, lower, upper)])
    else:
        position = lower + rng.random(size * kd).reshape(size, kd) * span

    evals = _evaluate(fitness, position, None)
    best = int(np.argmin(evals))
    return Swarm(
        position=position,
        velocity=np.zeros_like(position),
        pbest_position=position.copy(),
        pbest_fitness=evals.copy(),  # updated in place by step
        gbest_position=position[best].copy(),
        gbest_fitness=float(evals[best]),
        iter=0,
        lower=lower,
        upper=upper,
        k=k,
        d=dataset.d,
    )


class _StepConstants:
    """What every step of one swarm reuses (see the module docstring)."""

    __slots__ = ("config", "lower", "upper", "shape", "v_max", "neg_v_max", "low",
                 "high", "coef", "terms", "pull")

    def __init__(self, swarm: Swarm, config: PsoConfig):
        self.config, self.lower, self.upper = config, swarm.lower, swarm.upper
        self.shape = size, kd = swarm.position.shape
        self.v_max = self.neg_v_max = None
        if config.v_max_fraction is not None:
            self.v_max = config.v_max_fraction * (swarm.upper - swarm.lower)
            self.neg_v_max = -self.v_max
        self.low = np.broadcast_to(swarm.lower, (size, kd)).copy()
        self.high = np.broadcast_to(swarm.upper, (size, kd)).copy()
        self.coef = np.empty((2, size, kd))
        self.coef[0], self.coef[1] = config.c1, config.c2
        self.terms = np.empty((2, size, kd))
        self.pull = np.empty((2, size, kd))


def step(
    swarm: Swarm,
    fitness: Callable[[np.ndarray], np.ndarray],
    config: PsoConfig,
    rng,
) -> Swarm:
    """Advance the swarm one iteration in place (and return it).

    Every particle moves against the previous iteration's gbest; pbest and
    gbest refresh only on strict improvement, after the swarm's one fitness
    call. gbest ties go to the lowest particle index. The boundary revert
    restores the saved pre-update component exactly, which keeps in-bounds
    swarms in bounds without float round-off.
    """
    previous = swarm.position
    const = swarm._constants
    if (const is None or const.config is not config or const.lower is not swarm.lower
            or const.upper is not swarm.upper or const.shape != previous.shape):
        const = swarm._constants = _StepConstants(swarm, config)
    size, kd = const.shape
    # The draws, read as (S, 2, kd), are copied out as rand1 and rand2
    # blocks, which then become c1*rand1*(pbest - x) and c2*rand2*(gbest - x)
    # in place, each product taken in the order the plain expression takes it.
    terms, pull = const.terms, const.pull
    np.copyto(terms, rng.random(size * 2 * kd).reshape(size, 2, kd).transpose(1, 0, 2))
    terms *= const.coef
    np.subtract(swarm.pbest_position, previous, out=pull[0])
    np.subtract(swarm.gbest_position, previous, out=pull[1])
    terms *= pull
    velocity = swarm.velocity * inertia_weight(config, swarm.iter)
    velocity += terms[0]
    velocity += terms[1]
    if const.v_max is not None:
        _clip(velocity, const.neg_v_max, const.v_max, out=velocity)
    position = previous + velocity
    if config.boundary == "restricted":
        _apply_boundary(position, previous, const.lower, const.upper, const.low, const.high)
    swarm.velocity = velocity
    swarm.position = position

    evals = _evaluate(fitness, position, swarm.iter)
    improved = evals < swarm.pbest_fitness
    np.copyto(swarm.pbest_fitness, evals, where=improved)
    np.copyto(swarm.pbest_position, position, where=improved[:, None])

    best = swarm.pbest_fitness.argmin()
    if swarm.pbest_fitness[best] < swarm.gbest_fitness:
        swarm.gbest_fitness = float(swarm.pbest_fitness[best])
        swarm.gbest_position = swarm.pbest_position[best].copy()

    swarm.iter += 1
    return swarm
