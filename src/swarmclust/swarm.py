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

Array layout: a :class:`SwarmStack` holds one or more swarms of one shape
in one block of arrays with one row per particle: ``position``,
``velocity`` and ``pbest_position`` of shape (n*S, k*d) and
``pbest_fitness`` of shape (n*S,), for n members of S particles each.
Member j owns rows ``j*S`` to ``(j+1)*S`` (its row offset is ``j*S``), and
row j of the stack's (n, k*d) ``gbest_position`` and (n,)
``gbest_fitness``. A lone swarm is a stack of one. :func:`init_swarm`
fills a stack's block for all its members at once. The members share the
search box, ``swarm_size``, ``c1``, ``c2`` and ``v_max_fraction``, which
set the arrays' shapes and the constants every row is multiplied or
clipped by. What else a member's config sets becomes a per-row column:
the inertia weight each step, and whether the boundary restriction
applies to the member's rows. A step is a handful of whole-block array
operations and one fitness call for all members; every update is
elementwise, so each row gets exactly the floating-point operations a
lone particle would, whatever the other rows are. The weight column
multiplies as the scalar weight does, and the clips take the (k*d,)
bounds row by row as a lone swarm's do, so a stacked member's trajectory
is its lone trajectory bit for bit, signs of zeros included.

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
  ``pbest_position``, ``pbest_fitness``, ``gbest_position`` and
  ``gbest_fitness`` are updated in place, so they must not share memory
  with other arrays.

Draw order is part of the engine contract so runs are reproducible and can
be replayed against a straight-line reference with a stubbed stream. Each
swarm draws from its own stream, and a stacked swarm draws exactly what it
would alone. Init draws member by member: one S*k*d block, row by row,
for an unseeded member, and one (S-1)*k*d jitter block for the non-seed
particles of a seeded one. Each step draws one flat S*2*k*d block per
member, from the member's stream, and reads it as (S, 2, k*d): per
particle in order, first the rand1 block, then the rand2 block, which is
the same stream as drawing rand1 and rand2 particle by particle. Any object with a ``random(size)`` method taking an
int and returning draws in [0, 1) can stand in for the stream.

Fitness is batched: ``fitness(positions)`` maps an (m, k*d) block of
positions to an (m,) vector, lower is better. The engine makes one call for
a whole stack's init and one per step of it, and updates pbest and gbest
only after it returns. The SICD fitness built in :mod:`swarmclust.pipelines`
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
    """Inertia weight at a given iteration. The linear ramp goes from
    ``w_max`` at iteration 0 to ``w_min`` at ``max_iter``, so it rises when
    ``w_min`` is the larger; it is taken in ``np.float64``, whose operations
    are Python's float ones, so that an overflow of its product is seen by
    numpy's error state. The exponential kinds decay from ``w_max`` towards
    0 and read no ``w_min``."""
    sched = config.inertia
    if sched.kind == LINEAR:
        w_max = np.float64(sched.w_max)
        return w_max - (w_max - sched.w_min) * iter / config.max_iter
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
              size: int, iteration: Optional[int] = None) -> np.ndarray:
    """One batched fitness call over a stack of ``size``-row members; a NaN
    names the first particle that gave it and the ``iteration``, and its
    member too in a stack of several. ``iteration`` is None during
    initialization."""
    evals = np.asarray(fitness(positions), dtype=np.float64)
    nan = np.isnan(evals)
    if np.count_nonzero(nan):
        member, particle = divmod(int(np.argmax(nan)), size)
        when = "during swarm initialization" if iteration is None else f"at iteration {iteration}"
        if len(evals) > size:
            when += f", stacked swarm {member}"
        raise RuntimeError(f"fitness returned NaN {when}, particle {particle}")
    return evals


def init_swarm(
    members: Sequence[tuple],
    k: int,
    dataset: Dataset,
    fitness: Callable[[np.ndarray], np.ndarray],
) -> SwarmStack:
    """Build and evaluate the initial swarms of one stack, one per member: a
    (seed centers or None, config, rng) triple, in member order.

    The search box is the dataset's bounding box (each column's min and
    max) tiled once per centroid: ``lower`` and ``upper`` are k*d vectors.
    With seed centers, a finite k x d matrix, the member's first particle
    sits exactly at the seeds and the rest jitter around them by up to +/-5%
    of each dimension's range, clipped into the box. Without seeds,
    positions are uniform inside the box. Each member draws from its own
    stream, in the order the module docstring gives, and one fitness call
    evaluates the whole block. Velocities start at zero, pbest at the
    initial position, and each member's gbest at its best particle (the
    lowest index on ties).
    """
    if k < 1:
        raise ContractViolation("k must be >= 1")
    if not members:
        raise ContractViolation("a stack needs a swarm")
    lower = np.tile(dataset.points.min(axis=0), k)
    upper = np.tile(dataset.points.max(axis=0), k)
    span = upper - lower
    kd = k * dataset.d
    configs = [config for _, config, _ in members]
    n, size = len(members), configs[0].swarm_size

    position = np.empty((n * size, kd))
    for rows, (seed_centers, _, rng) in zip(position.reshape(n, size, kd), members):
        if seed_centers is not None:
            base = given_centers(seed_centers, k, dataset.d).reshape(-1)
            draws = rng.random((size - 1) * kd).reshape(size - 1, kd)
            jitter = (draws * 2.0 - 1.0) * 0.05 * span
            rows[0] = base
            rows[1:] = np.clip(base + jitter, lower, upper)
        else:
            rows[:] = lower + rng.random(size * kd).reshape(size, kd) * span

    evals = _evaluate(fitness, position, size)
    best = np.arange(n) * size + evals.reshape(n, size).argmin(axis=1)
    return SwarmStack(configs, lower, upper, position, np.zeros_like(position),
                      position.copy(), evals.copy(), position[best], evals[best])


@dataclass(eq=False)
class SwarmStack:
    """Swarms of one shape moved together, one block of rows (see the module
    docstring): member j has ``configs[j]`` and the j-th ``len(position) //
    len(configs)`` rows of the block arrays. :func:`init_swarm` builds a
    stack's initial state; a stack can be built from any state too. The
    members step together, so ``iter`` counts the steps of them all;
    :meth:`remove` drops members' rows, and what a leaving member ends with
    is read from the stack before.

    The members must share ``swarm_size``, ``c1``, ``c2`` and
    ``v_max_fraction``; otherwise building the stack raises
    ContractViolation."""

    configs: list
    lower: np.ndarray
    upper: np.ndarray
    position: np.ndarray
    velocity: np.ndarray
    pbest_position: np.ndarray
    pbest_fitness: np.ndarray
    gbest_position: np.ndarray
    gbest_fitness: np.ndarray
    iter: int = 0

    def __post_init__(self):
        self.configs = list(self.configs)
        base = self.configs[0]
        shared = (base.swarm_size, base.c1, base.c2, base.v_max_fraction)
        if any((c.swarm_size, c.c1, c.c2, c.v_max_fraction) != shared for c in self.configs):
            raise ContractViolation("stacked swarms need one swarm_size, c1, c2 and "
                                    "v_max_fraction")
        self.size = self.position.shape[0] // len(self.configs)
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
        weights = np.array([inertia_weight(c, self.iter) for c in self.configs])
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

        evals = _evaluate(fitness, position, size, self.iter)
        improved = evals < self.pbest_fitness
        np.copyto(self.pbest_fitness, evals, where=improved)
        np.copyto(self.pbest_position, position, where=improved[:, None])

        by_member = self.pbest_fitness.reshape(n, size)
        best, values = by_member.argmin(axis=1), by_member.min(axis=1)
        better = (values < self.gbest_fitness).nonzero()[0]
        if better.size:
            self.gbest_fitness[better] = values[better]
            self.gbest_position[better] = self.pbest_position[better * size + best[better]]
        self.iter += 1

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

    def remove(self, members: Sequence[int]) -> None:
        """Take ``members`` out of the stack. The others keep their order,
        renumbered from 0."""
        keep = np.ones(len(self.configs), dtype=bool)
        keep[list(members)] = False
        self.configs = [c for c, kept in zip(self.configs, keep) if kept]
        if self.configs:
            rows = np.repeat(keep, self.size)
            self.position, self.velocity = self.position[rows], self.velocity[rows]
            self.pbest_position = self.pbest_position[rows]
            self.pbest_fitness = self.pbest_fitness[rows]
            self.gbest_position = self.gbest_position[keep]
            self.gbest_fitness = self.gbest_fitness[keep]
            self._fit()



# The stack's step under its module-level name, which perfbench/tracer.py
# wraps where swarmclust.pipelines imports it.
step = SwarmStack.step
