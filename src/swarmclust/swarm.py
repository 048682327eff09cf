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
reverted to its pre-update value (position - velocity); a component that was
already out of bounds before the update is clamped to the nearer bound.

Draw order is part of the engine contract so runs are reproducible and can
be replayed against a straight-line reference with a stubbed stream:
unseeded init draws one k*d block per particle in particle order; seeded
init draws one jitter block per non-seed particle; each step draws, per
particle in order, first the rand1 block then the rand2 block. Any object
with a ``random(size)`` method returning draws in [0, 1) can stand in for
the stream. pbest/gbest updates happen after all of a step's evaluations,
so fitness may be evaluated in any order within one step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import ContractViolation, Dataset, bounds_of

LINEAR = "linear"
EXPONENTIAL_LITERAL = "exponential_literal"
EXPONENTIAL_NORMALIZED = "exponential_normalized"
INERTIA_KINDS = (LINEAR, EXPONENTIAL_LITERAL, EXPONENTIAL_NORMALIZED)


@dataclass(frozen=True)
class Inertia:
    kind: str
    w_max: float = 0.9
    w_min: float = 0.4

    def __post_init__(self):
        if self.kind not in INERTIA_KINDS:
            raise ContractViolation(f"unknown inertia schedule {self.kind!r}")
        if self.w_max < 0 or self.w_min < 0:
            raise ContractViolation("inertia weights must be nonnegative")


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

    c1: float = 2.0
    c2: float = 2.0
    inertia: Inertia = field(default_factory=exponential_normalized)
    max_iter: int = 200
    swarm_size: int = 20
    boundary: str = "restricted"
    v_max_fraction: Optional[float] = 1.0
    stall_iters: int = 25
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.c1 < 0 or self.c2 < 0:
            raise ContractViolation("acceleration coefficients must be >= 0")
        if self.max_iter < 1:
            raise ContractViolation("max_iter must be >= 1")
        if self.swarm_size < 2:
            raise ContractViolation("swarm_size must be >= 2")
        if self.boundary not in ("restricted", "none"):
            raise ContractViolation("boundary must be 'restricted' or 'none'")
        if self.v_max_fraction is not None and not 0 < self.v_max_fraction <= 1:
            raise ContractViolation("v_max_fraction must lie in (0, 1]")


@dataclass
class Particle:
    position: np.ndarray
    velocity: np.ndarray
    pbest_position: np.ndarray
    pbest_fitness: float


@dataclass
class Swarm:
    particles: list[Particle]
    gbest_position: np.ndarray
    gbest_fitness: float
    iter: int
    lower: np.ndarray
    upper: np.ndarray
    k: int
    d: int


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


def update_velocity(
    particle: Particle,
    gbest_position: np.ndarray,
    w: float,
    config: PsoConfig,
    rng,
    v_max: Optional[np.ndarray] = None,
) -> np.ndarray:
    """New velocity from inertia plus cognitive and social attraction.

    Draws one rand block per attraction term (per dimension). ``v_max`` is
    the precomputed per-dimension clamp, or None for no clamp.
    """
    kd = particle.position.shape[0]
    rand1 = rng.random(kd)
    rand2 = rng.random(kd)
    vel = (
        w * particle.velocity
        + config.c1 * rand1 * (particle.pbest_position - particle.position)
        + config.c2 * rand2 * (gbest_position - particle.position)
    )
    if v_max is not None:
        vel = np.clip(vel, -v_max, v_max)
    return vel


def update_position(particle: Particle) -> np.ndarray:
    """Componentwise position shift by the current velocity."""
    return particle.position + particle.velocity


def _apply_boundary(
    position: np.ndarray,
    previous: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> np.ndarray:
    out = (position < lower) | (position > upper)
    if not out.any():
        return position
    restored = np.where(out, previous, position)
    still_out = out & ((previous < lower) | (previous > upper))
    if still_out.any():
        restored = np.where(still_out, np.clip(previous, lower, upper), restored)
    return restored


def restrict_boundary(
    position: np.ndarray,
    velocity: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> np.ndarray:
    """Per-component boundary restriction: in-bounds components stay, the
    rest revert to position - velocity (clamped if even that is outside,
    which can only happen from an out-of-bounds start)."""
    return _apply_boundary(position, position - velocity, lower, upper)


def init_swarm(
    seed_centers: Optional[np.ndarray],
    k: int,
    dataset: Dataset,
    config: PsoConfig,
    rng,
    fitness: Callable[[np.ndarray], float],
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

    positions = []
    if seed_centers is not None:
        seeds = np.asarray(seed_centers, dtype=np.float64)
        if seeds.shape != (k, dataset.d):
            raise ContractViolation(
                f"seed_centers shape {seeds.shape} != ({k}, {dataset.d})"
            )
        base = encode(seeds)
        positions.append(base.copy())
        for _ in range(1, config.swarm_size):
            jitter = (rng.random(kd) * 2.0 - 1.0) * 0.05 * span
            positions.append(np.clip(base + jitter, lower, upper))
    else:
        for _ in range(config.swarm_size):
            positions.append(lower + rng.random(kd) * span)

    particles = []
    for pos in positions:
        f = float(fitness(pos))
        if math.isnan(f):
            raise RuntimeError("fitness returned NaN during swarm initialization")
        particles.append(
            Particle(
                position=pos,
                velocity=np.zeros(kd),
                pbest_position=pos.copy(),
                pbest_fitness=f,
            )
        )

    best = min(range(len(particles)), key=lambda i: particles[i].pbest_fitness)
    return Swarm(
        particles=particles,
        gbest_position=particles[best].pbest_position.copy(),
        gbest_fitness=particles[best].pbest_fitness,
        iter=0,
        lower=lower,
        upper=upper,
        k=k,
        d=dataset.d,
    )


def step(
    swarm: Swarm,
    fitness: Callable[[np.ndarray], float],
    config: PsoConfig,
    rng,
) -> Swarm:
    """Advance the swarm one iteration in place (and return it).

    Every particle moves against the previous iteration's gbest; pbest and
    gbest refresh only on strict improvement, after all evaluations. The
    boundary revert restores the saved pre-update component exactly, which
    keeps in-bounds swarms in bounds without float round-off.
    """
    w = inertia_weight(config, swarm.iter)
    v_max = None
    if config.v_max_fraction is not None:
        v_max = config.v_max_fraction * (swarm.upper - swarm.lower)
    gbest_prev = swarm.gbest_position
    restricted = config.boundary == "restricted"

    evals = np.empty(len(swarm.particles))
    for i, p in enumerate(swarm.particles):
        vel = update_velocity(p, gbest_prev, w, config, rng, v_max)
        prev = p.position
        p.velocity = vel
        pos = update_position(p)
        if restricted:
            pos = _apply_boundary(pos, prev, swarm.lower, swarm.upper)
        p.position = pos
        f = float(fitness(pos))
        if math.isnan(f):
            raise RuntimeError(
                f"fitness returned NaN at iteration {swarm.iter}, particle {i}"
            )
        evals[i] = f

    for p, f in zip(swarm.particles, evals):
        if f < p.pbest_fitness:
            p.pbest_fitness = float(f)
            p.pbest_position = p.position.copy()

    best = min(range(len(swarm.particles)), key=lambda i: swarm.particles[i].pbest_fitness)
    if swarm.particles[best].pbest_fitness < swarm.gbest_fitness:
        swarm.gbest_fitness = swarm.particles[best].pbest_fitness
        swarm.gbest_position = swarm.particles[best].pbest_position.copy()

    swarm.iter += 1
    return swarm
