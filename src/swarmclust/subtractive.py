"""Density-based seeding of cluster centers (subtractive clustering).

Every data point is a candidate center. Its density is a sum of Gaussian
kernels over all points,

    D_i = sum_j exp(-||x_i - x_j||^2 / (r_a/2)^2),

so D_i in [1, n] (the self term contributes exactly 1). The highest-density
point becomes a center, after which densities are suppressed around it,

    D_i <- D_i - D_c * exp(-||x_i - x_c||^2 / (r_b/2)^2),

and selection repeats until a stop rule fires. The suppression radius r_b
defaults to 1.5 * r_a. Revised densities may go negative; they are kept as
is, since clamping would change later argmax picks.

A radius near 1e-161 has a subnormal kernel scale (r/2)**2, by which a
squared distance's quotient may overflow to -inf. Its term exp(-inf) = 0 is
right, so both kernels divide with numpy's overflow warning off.

Selection is fully deterministic: argmax ties break toward the lowest point
index, and a chosen row's density is set to -inf, which no suppression changes.

Memory and threads: the initial densities need all N^2 kernel terms, but
never all at once. :func:`density_initial` runs on
:func:`swarmclust.core.map_blocks` (the ``swarmclust.core`` docstring
describes the threads and the memory budget), so seeding holds O(N) memory
beyond the data at any N, with densities, and so picks, bit-identical to
building the whole N x N matrix on one thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import core
from .core import Checked, ContractViolation, Dataset, DegenerateInput
from .schema import rule


@dataclass(frozen=True)
class FixedK(Checked):
    """Stop after exactly k centers."""

    k: int = rule(type="integer", minimum=1)


@dataclass(frozen=True)
class DensityRatio(Checked):
    """Stop before accepting a center whose density falls below
    epsilon times the first peak's density."""

    epsilon: float = rule(0.15, type="number", exclusiveMinimum=0, exclusiveMaximum=1)


StopRule = Union[FixedK, DensityRatio]


@dataclass(frozen=True)
class SubtractiveConfig(Checked):
    """Radii, stop rule, and safety cap for center selection.

    The r_a default of 0.5 assumes min-max normalized data (unit hypercube);
    r_b defaults to 1.5 * r_a. ``max_centers`` caps how many centers a
    ``DensityRatio`` rule may pick; a ``FixedK`` rule whose k exceeds it
    raises ContractViolation.
    """

    r_a: float = rule(0.5, type="number", exclusiveMinimum=0)
    r_b: float | None = rule(None, type=["number", "null"], exclusiveMinimum=0)
    stop_rule: StopRule = field(default_factory=DensityRatio)
    max_centers: int = rule(64, type="integer", minimum=1)

    def __post_init__(self):
        super().__post_init__()
        if not isinstance(self.stop_rule, (FixedK, DensityRatio)):
            raise ContractViolation(
                f"stop_rule: {self.stop_rule!r} is not a FixedK or DensityRatio")
        if isinstance(self.stop_rule, FixedK) and self.stop_rule.k > self.max_centers:
            raise ContractViolation(
                f"stop_rule: k={self.stop_rule.k} exceeds max_centers={self.max_centers}")
        # a zero scale would make each density's self term exp(-0/0), NaN,
        # and an overflowing one cannot be computed
        r_b = "r_b" if self.r_b is not None else "r_b (1.5 * r_a)"
        for name, radius in (("r_a", float(self.r_a)), (r_b, float(self.effective_r_b))):
            try:
                scale = (radius / 2.0) ** 2
            except OverflowError:
                scale = math.inf
            if not 0 < scale < math.inf:
                raise ContractViolation(
                    f"{name}: radius {radius!r} gives kernel scale (r/2)**2 = {scale!r}, "
                    "not a positive finite float")

    @property
    def effective_r_b(self) -> float:
        return self.r_b if self.r_b is not None else 1.5 * self.r_a


@dataclass(frozen=True)
class SeedingResult:
    """Selected centers (rows of the input dataset) in selection order."""

    centers: np.ndarray
    densities_at_selection: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        dens = np.asarray(self.densities_at_selection, dtype=np.float64)
        if np.any(np.diff(dens) > 0):
            raise ContractViolation("selection densities must be non-increasing")

    @property
    def k(self) -> int:
        return len(self.indices)


def density_initial(dataset: Dataset, r_a: float) -> np.ndarray:
    """Initial density of every point: N^2 kernel evaluations, independent of
    dimensionality in term count.

    The kernel matrix is never held whole: for each block of rows that
    :func:`swarmclust.core.map_blocks` hands it, the block's squared
    distances come from :func:`swarmclust.core.sqeuclidean` (scipy's
    compiled ``cdist(..., "sqeuclidean")``), are divided by ``-(r_a/2)**2``
    and exponentiated in place, then summed per row into the result.
    Dividing by the negated scale gives exactly the bits of negating and
    then dividing (IEEE division is sign-symmetric), every term is
    elementwise, and each row is summed as one contiguous length-N vector,
    so the densities are bit-identical to
    ``np.exp(-cdist(x, x, "sqeuclidean") / (r_a/2)**2).sum(axis=1)``
    whatever the block size and thread count.
    """
    if not r_a > 0:
        raise ContractViolation("r_a must be positive")
    x = dataset.points
    n = x.shape[0]
    scale = (r_a / 2.0) ** 2
    densities = np.empty(n)

    def fill(lo: int, hi: int) -> None:
        block = core.sqeuclidean(x[lo:hi], x)
        with np.errstate(over="ignore"):  # per thread: helpers do not inherit it
            block /= -scale
        np.exp(block, out=block)
        block.sum(axis=1, out=densities[lo:hi])

    core.map_blocks(fill, n, n)
    return densities


def density_revise(
    densities: np.ndarray,
    center_index: int,
    dataset: Dataset,
    r_b: float,
) -> np.ndarray:
    """Suppress density around a freshly chosen center, scaled by the
    center's own density ``densities[center_index]``.

    The revised density at the center itself is exactly zero. Values may go
    negative and are not clamped.
    """
    if not r_b > 0:
        raise ContractViolation("r_b must be positive")
    if not 0 <= center_index < dataset.n:
        raise ContractViolation(f"center_index {center_index} out of range")
    center_density = densities[center_index]
    diff = dataset.points - dataset.points[center_index]
    sq = np.einsum("ij,ij->i", diff, diff)
    with np.errstate(over="ignore"):  # a subnormal scale: see the module docstring
        return densities - center_density * np.exp(-sq / (r_b / 2.0) ** 2)


def select_centers(dataset: Dataset, config: SubtractiveConfig) -> SeedingResult:
    """Greedy density-peak selection: argmax, record, suppress, repeat.

    Under ``FixedK(k)`` exactly k centers come back; k > N is a degenerate
    input, and so is a k whose next pick would outrank the previous center
    (suppression around a negative-density center raises its neighbours).
    Under ``DensityRatio(eps)`` selection stops before accepting a
    candidate whose pre-selection density is below eps times the first
    peak's density, so it never picks a negative one, and stops at
    ``max_centers`` centers; that cap binds ``DensityRatio`` only, since
    ``SubtractiveConfig`` refuses a k above it; a picked row's density becomes -inf.
    """
    rule = config.stop_rule
    if isinstance(rule, FixedK) and rule.k > dataset.n:
        raise DegenerateInput(
            f"cannot select {rule.k} centers from {dataset.n} points"
        )
    densities = density_initial(dataset, config.r_a)

    target = rule.k if isinstance(rule, FixedK) else min(config.max_centers, dataset.n)
    chosen: list[int] = []
    selected_density: list[float] = []

    while len(chosen) < target:
        candidate = int(np.argmax(densities))
        cand_density = float(densities[candidate])
        if chosen and isinstance(rule, DensityRatio):
            if cand_density < rule.epsilon * selected_density[0]:
                break
        elif chosen and cand_density > selected_density[-1]:
            raise DegenerateInput(
                f"cannot select {rule.k} centers: after {len(chosen)}, suppression "
                "around negative-density centers raised the remaining densities"
            )
        chosen.append(candidate)
        selected_density.append(cand_density)
        densities = density_revise(densities, candidate, dataset, config.effective_r_b)
        densities[candidate] = -np.inf

    indices = np.array(chosen, dtype=np.int64)
    return SeedingResult(
        centers=dataset.points[indices].copy(),
        densities_at_selection=np.array(selected_density, dtype=np.float64),
        indices=indices,
    )
