"""The particle swarm engine over flattened centroid sets.

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

Array layout: a :class:`Swarm` holds one swarm as arrays with one row per
particle, ``position``, ``velocity`` and ``pbest_position`` of shape
(S, k*d) and ``pbest_fitness`` of shape (S,). A :class:`SwarmStack` holds
several swarms of one shape in one block of those arrays: member j owns
rows ``j*S`` to ``(j+1)*S`` (its row offset is ``j*S``), and row j of the
stack's (n, k*d) ``gbest_position`` and (n,) ``gbest_fitness``. The
members share the search box, ``swarm_size``, ``c1``, ``c2`` and
``v_max_fraction``, which set the arrays' shapes and the constants every
row is multiplied or clipped by. What else a member's config sets becomes
a per-row column: the inertia weight each step, and whether the boundary
restriction applies to the member's rows. A step is a handful of
whole-block array operations and one fitness call for all members; every
update is elementwise, so each row gets exactly the floating-point
operations a lone particle would, whatever the other rows are. The weight
column multiplies as the scalar weight does, and the clips take the
(k*d,) bounds row by row as a lone swarm's do, so a stacked member's
trajectory is its lone trajectory bit for bit, signs of zeros included.
:func:`step` moves a lone swarm as a stack of one.

A step makes a few dozen numpy calls, so on small data their fixed cost, not
the arithmetic, sets its time; stacking swarms spreads that cost over them.
The step is written to make few calls, on contiguous arrays of one shape
where it can, in place where it may:

- Per-stack constants. A stack builds what every step reuses when it is
  made: v_max and -v_max, ``lower`` and ``upper`` tiled to the block's
  shape for the boundary comparisons, and two (2, rows, k*d) scratch
  blocks. Members leaving the stack leave the first rows of these in use;
  the rows the boundary restricts are marked again.
- The step draws as below, multiplies the draws by c1 and c2 into
  contiguous c1*rand1 and c2*rand2 blocks, and turns those in place into
  c1*rand1*(pbest - x) and c2*rand2*(gbest - x), each product in the order
  of the plain update.
- ``position`` and ``velocity`` are new arrays every step.
  ``pbest_position`` and ``pbest_fitness`` are updated in place, so they
  must not share memory with other arrays; a lone swarm's are its own
  arrays, updated in place too, and its new gbest is a new array.

Draw order is part of the engine contract so runs are reproducible and can
be replayed against a straight-line reference with a stubbed stream. Each
swarm draws from its own stream, and a stacked swarm draws exactly what it
would alone. Unseeded init draws one S*k*d block, row by row; seeded init
draws one (S-1)*k*d jitter block for the non-seed particles. Each step
draws one flat S*2*k*d block per member, from the member's stream, and
reads it as (S, 2, k*d): per particle in order, first the rand1 block,
then the rand2 block, which is the same stream as drawing rand1 and rand2
particle by particle. Any object with a ``random(size)`` method taking an
int and returning draws in [0, 1) can stand in for the stream.

Fitness is batched: ``fitness(positions)`` maps an (m, k*d) block of
positions to an (m,) vector, lower is better. The engine makes one call per
init and one per step of a whole stack, and updates pbest and gbest only
after it returns. The SICD fitness built in :mod:`swarmclust.pipelines`
gives each row the value of evaluating that particle alone, bit for bit,
whatever the batch, thread count or block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import Checked, ContractViolation, Dataset, given_centers
from .schema import rule

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
class Inertia(Checked):
    kind: str = rule(type="string", enum=list(INERTIA_KINDS))
    w_max: float = rule(0.9, type="number", minimum=0)
    w_min: float = rule(0.4, type="number", minimum=0)


def linear(w_max: float = 0.9, w_min: float = 0.4) -> Inertia:
    return Inertia(LINEAR, w_max, w_min)


def exponential_literal(maxw: float = 0.9) -> Inertia:
    return Inertia(EXPONENTIAL_LITERAL, maxw)


def exponential_normalized(maxw: float = 0.9) -> Inertia:
    return Inertia(EXPONENTIAL_NORMALIZED, maxw)


@dataclass(frozen=True)
class PsoConfig(Checked):
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
        super().__post_init__()
        if not isinstance(self.inertia, Inertia):
            raise ContractViolation(f"inertia: {self.inertia!r} is not an Inertia")


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
    rows: Optional[np.ndarray] = None,
) -> None:
    """Restrict ``position`` in place: an out-of-box component goes back to
    its ``previous`` value, or to ``previous`` clipped into the box when that
    is out too. ``low`` and ``high`` are ``lower`` and ``upper`` tiled to the
    block's shape, for the comparisons; the clip takes the (k*d,) rows, as
    the earlier ``np.clip`` did (its contiguous loop can flip the sign of a
    zero that the broadcast one keeps). ``rows``, a (rows, 1) boolean
    column, limits the restriction to the rows it marks; None restricts
    them all."""
    out = position < low
    out |= position > high
    if rows is not None:
        out &= rows
    if not np.count_nonzero(out):
        return
    np.copyto(position, previous, where=out)
    still_out = previous < low
    still_out |= previous > high
    still_out &= out
    if np.count_nonzero(still_out):
        np.copyto(position, _clip(previous, lower, upper), where=still_out)


def _evaluate(fitness: Callable[[np.ndarray], np.ndarray], positions: np.ndarray,
              iterations: Optional[list] = None, size: int = 0) -> np.ndarray:
    """One batched fitness call; a NaN names the first particle that gave it
    and the iteration of its swarm, ``iterations[j]`` for member j of a
    stack of ``size``-row members, and the member too when there are
    several. ``iterations`` is None during initialization."""
    evals = np.asarray(fitness(positions), dtype=np.float64)
    nan = np.isnan(evals)
    if np.count_nonzero(nan):
        particle = int(np.argmax(nan))
        if iterations is None:
            when = "during swarm initialization"
        else:
            member, particle = divmod(particle, size)
            when = f"at iteration {iterations[member]}"
            if len(iterations) > 1:
                when += f", stacked swarm {member}"
        raise RuntimeError(f"fitness returned NaN {when}, particle {particle}")
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

    The search box is the dataset's bounding box (each column's min and
    max) tiled once per centroid: ``lower`` and ``upper`` are k*d vectors.
    With ``seed_centers``, a finite k x d matrix, the first particle sits
    exactly at the seeds and the rest jitter around them by up to +/-5% of
    each dimension's range, clipped into the box. Without seeds, positions
    are uniform inside the box. Velocities start at zero and pbest at the
    initial position.
    """
    if k < 1:
        raise ContractViolation("k must be >= 1")
    lower = np.tile(dataset.points.min(axis=0), k)
    upper = np.tile(dataset.points.max(axis=0), k)
    span = upper - lower
    kd = k * dataset.d
    size = config.swarm_size

    if seed_centers is not None:
        base = given_centers(seed_centers, k, dataset.d).reshape(-1)
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
    )


class SwarmStack:
    """Swarms of one shape moved together, one block of rows (see the module
    docstring). Built from lone swarms and their configs, in member order;
    a lone swarm's arrays are used as they are, several swarms' are copied
    into the block. ``iters[j]`` counts member j's steps.

    The members must share ``lower`` and ``upper`` (equal values), the
    shape of their arrays, and ``c1``, ``c2`` and ``v_max_fraction``;
    otherwise building the stack raises ContractViolation."""

    def __init__(self, swarms: Sequence[Swarm], configs: Sequence[PsoConfig]):
        if not swarms or len(swarms) != len(configs):
            raise ContractViolation("a stack needs one config per swarm, and a swarm")
        first, base = swarms[0], configs[0]
        shared = (base.c1, base.c2, base.v_max_fraction)
        for swarm, config in zip(swarms[1:], configs[1:]):
            if (swarm.position.shape != first.position.shape
                    or (config.c1, config.c2, config.v_max_fraction) != shared
                    or not np.array_equal(swarm.lower, first.lower)
                    or not np.array_equal(swarm.upper, first.upper)):
                raise ContractViolation("stacked swarms need one shape, one search box "
                                        "and one c1, c2 and v_max_fraction")

        def block(name):
            if len(swarms) == 1:
                return getattr(first, name)
            return np.concatenate([getattr(swarm, name) for swarm in swarms])

        self.position, self.velocity = block("position"), block("velocity")
        self.pbest_position, self.pbest_fitness = block("pbest_position"), block("pbest_fitness")
        self.gbest_position = np.array([swarm.gbest_position for swarm in swarms],
                                       dtype=np.float64)
        self.gbest_fitness = np.array([swarm.gbest_fitness for swarm in swarms],
                                      dtype=np.float64)
        self.iters = [swarm.iter for swarm in swarms]
        self.configs = list(configs)
        self.lower, self.upper = first.lower, first.upper
        self.size = first.position.shape[0]
        self.v_max = self.neg_v_max = None
        if base.v_max_fraction is not None:
            self.v_max = base.v_max_fraction * (self.upper - self.lower)
            self.neg_v_max = -self.v_max
        # Scratch and tiled bounds for every first member count; members
        # leaving the stack leave the first rows in use.
        rows = self.position.shape
        self._all_terms, self._all_pull = np.empty((2, *rows)), np.empty((2, *rows))
        if any(c.boundary == "restricted" for c in self.configs):
            self._all_low = np.broadcast_to(self.lower, rows).copy()
            self._all_high = np.broadcast_to(self.upper, rows).copy()
        self._fit()

    def _fit(self) -> None:
        """The views of the scratch and bounds the current members use, and
        the rows the boundary restricts: ``_bounded_rows`` is None when it
        restricts them all."""
        rows = self.position.shape[0]
        self._terms, self._pull = self._all_terms[:, :rows], self._all_pull[:, :rows]
        restricted = [c.boundary == "restricted" for c in self.configs]
        self._bounded = any(restricted)
        if self._bounded:
            self._low, self._high = self._all_low[:rows], self._all_high[:rows]
            self._bounded_rows = (None if all(restricted)
                                  else np.repeat(restricted, self.size)[:, None])

    def step(self, fitness: Callable[[np.ndarray], np.ndarray], rngs: Sequence) -> None:
        """Advance every member one iteration in place, member j drawing from
        ``rngs[j]``.

        Every particle moves against its swarm's previous gbest; pbest and
        gbest refresh only on strict improvement, after the stack's one
        fitness call. gbest ties go to the lowest particle index. The
        boundary revert restores the saved pre-update component exactly,
        which keeps in-bounds swarms in bounds without float round-off."""
        n, size = len(self.configs), self.size
        if len(rngs) != n:
            raise ContractViolation(f"{len(rngs)} streams for {n} stacked swarms")
        previous = self.position
        rows, kd = previous.shape
        # The draws, read as (rows, 2, kd), times c1 and c2 make contiguous
        # c1*rand1 and c2*rand2 blocks, which then become c1*rand1*(pbest - x)
        # and c2*rand2*(gbest - x) in place, each product taken in the order
        # the plain expression takes it.
        terms, pull = self._terms, self._pull
        draws = [rng.random(size * 2 * kd) for rng in rngs]
        draws = (draws[0] if n == 1 else np.concatenate(draws)).reshape(rows, 2, kd)
        config = self.configs[0]
        np.multiply(draws[:, 0], config.c1, out=terms[0])
        np.multiply(draws[:, 1], config.c2, out=terms[1])
        np.subtract(self.pbest_position, previous, out=pull[0])
        np.subtract(self.gbest_position[:, None], previous.reshape(n, size, kd),
                    out=pull[1].reshape(n, size, kd))
        terms *= pull
        weights = np.array([inertia_weight(c, i) for c, i in zip(self.configs, self.iters)])
        velocity = np.multiply(self.velocity.reshape(n, size, kd),
                               weights[:, None, None]).reshape(rows, kd)
        velocity += terms[0]
        velocity += terms[1]
        if self.v_max is not None:
            _clip(velocity, self.neg_v_max, self.v_max, out=velocity)
        position = previous + velocity
        if self._bounded:
            _apply_boundary(position, previous, self.lower, self.upper, self._low, self._high,
                            self._bounded_rows)
        self.velocity = velocity
        self.position = position

        evals = _evaluate(fitness, position, self.iters, size)
        improved = evals < self.pbest_fitness
        np.copyto(self.pbest_fitness, evals, where=improved)
        np.copyto(self.pbest_position, position, where=improved[:, None])

        by_member = self.pbest_fitness.reshape(n, size)
        best, values = by_member.argmin(axis=1), by_member.min(axis=1)
        better = (values < self.gbest_fitness).nonzero()[0]
        if better.size:
            self.gbest_fitness[better] = values[better]
            self.gbest_position[better] = self.pbest_position[better * size + best[better]]
        self.iters = [i + 1 for i in self.iters]

    def replace_gbest(self, member: int, position: np.ndarray, value: float) -> None:
        """Make ``position``, whose fitness ``value`` is below member's gbest
        fitness, its gbest and the pbest of its best particle (the lowest
        index on ties), which keeps gbest = min pbest."""
        lo = member * self.size
        owner = lo + int(self.pbest_fitness[lo:lo + self.size].argmin())
        self.pbest_position[owner] = position
        self.pbest_fitness[owner] = value
        self.gbest_position[member] = position
        self.gbest_fitness[member] = value

    def remove(self, members: Sequence[int]) -> list[Swarm]:
        """Take ``members`` out of the stack; returns each one's state as a
        lone swarm of copied arrays, in the order given. The others keep
        their order, renumbered from 0."""
        size = self.size
        out = [Swarm(
            position=self.position[j * size:(j + 1) * size].copy(),
            velocity=self.velocity[j * size:(j + 1) * size].copy(),
            pbest_position=self.pbest_position[j * size:(j + 1) * size].copy(),
            pbest_fitness=self.pbest_fitness[j * size:(j + 1) * size].copy(),
            gbest_position=self.gbest_position[j].copy(),
            gbest_fitness=float(self.gbest_fitness[j]),
            iter=self.iters[j],
            lower=self.lower,
            upper=self.upper,
        ) for j in members]
        keep = np.ones(len(self.configs), dtype=bool)
        keep[list(members)] = False
        self.configs = [c for c, kept in zip(self.configs, keep) if kept]
        self.iters = [i for i, kept in zip(self.iters, keep) if kept]
        if self.configs:
            rows = np.repeat(keep, size)
            self.position, self.velocity = self.position[rows], self.velocity[rows]
            self.pbest_position = self.pbest_position[rows]
            self.pbest_fitness = self.pbest_fitness[rows]
            self.gbest_position = self.gbest_position[keep]
            self.gbest_fitness = self.gbest_fitness[keep]
            self._fit()
        return out


def step(
    swarm: Swarm,
    fitness: Callable[[np.ndarray], np.ndarray],
    config: PsoConfig,
    rng,
) -> Swarm:
    """Advance a lone swarm one iteration in place (and return it), as a
    stack of one (see :meth:`SwarmStack.step`)."""
    stack = SwarmStack([swarm], [config])
    stack.step(fitness, [rng])
    swarm.position, swarm.velocity = stack.position, stack.velocity
    swarm.gbest_position = stack.gbest_position[0]
    swarm.gbest_fitness = float(stack.gbest_fitness[0])
    swarm.iter = stack.iters[0]
    return swarm
