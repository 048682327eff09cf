"""Independent straight-line reference implementations used only by tests.

Everything here is written as plain double loops over Python floats (and
tiny helpers), deliberately avoiding the library's vectorized code paths so
the two sides of every comparison stay independent. The exceptions are
:func:`reference_step` and :func:`convergence_stats_ref`: earlier versions
of the library's own code, kept unchanged as bit-for-bit references for the
leaner versions that replaced them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


class StubStream:
    """Deterministic [0, 1) stream (64-bit LCG) standing in for an Rng.

    Two instances built from the same seed produce identical sequences, so
    an engine run and a straight-line replay can consume "the same" draws.
    """

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_float(self) -> float:
        self.state = (self.MULT * self.state + self.INC) & self.MASK
        return (self.state >> 11) / float(1 << 53)

    def random(self, size=None):
        if size is None:
            return self.next_float()
        return np.array([self.next_float() for _ in range(int(size))])


def sq_dist(a, b) -> float:
    return sum((float(x) - float(y)) ** 2 for x, y in zip(a, b))


def density_initial_ref(points, r_a: float) -> list[float]:
    denom = (r_a / 2.0) ** 2
    out = []
    for i in range(len(points)):
        total = 0.0
        for j in range(len(points)):
            total += math.exp(-sq_dist(points[i], points[j]) / denom)
        out.append(total)
    return out


def density_revise_ref(densities, center_index: int, center_density: float,
                       points, r_b: float) -> list[float]:
    denom = (r_b / 2.0) ** 2
    center = points[center_index]
    return [
        d - center_density * math.exp(-sq_dist(p, center) / denom)
        for d, p in zip(densities, points)
    ]


def select_centers_ref(points, r_a: float, r_b: float, rule, max_centers: int = 64):
    """Replay of greedy density-peak selection.

    ``rule`` is ("fixed_k", k) or ("density_ratio", eps). Returns
    (indices, densities_at_selection). Argmax ties break to the lowest
    index; chosen rows never repeat.
    """
    densities = density_initial_ref(points, r_a)
    available = [True] * len(points)
    kind, value = rule
    target = min(value if kind == "fixed_k" else max_centers, max_centers, len(points))
    indices, selected = [], []
    first_peak = None
    while len(indices) < target:
        best, best_d = None, None
        for i in range(len(points)):
            if available[i] and (best_d is None or densities[i] > best_d):
                best, best_d = i, densities[i]
        if first_peak is None:
            first_peak = best_d
        elif kind == "density_ratio" and best_d < value * first_peak:
            break
        indices.append(best)
        selected.append(best_d)
        available[best] = False
        densities = density_revise_ref(densities, best, best_d, points, r_b)
    return indices, selected


def sicd_ref(centroids, cluster_of, points) -> float:
    total = 0.0
    for p, c in zip(points, cluster_of):
        total += math.sqrt(sq_dist(p, centroids[c]))
    return total


def assign_nearest_ref(points, centroids) -> list[int]:
    out = []
    for p in points:
        best, best_d = 0, sq_dist(p, centroids[0])
        for c in range(1, len(centroids)):
            d = sq_dist(p, centroids[c])
            if d < best_d:
                best, best_d = c, d
        out.append(best)
    return out


def recompute_centroids_ref(points, cluster_of, k: int):
    """Cluster means, then the empty-cluster repair, as straight loops.

    Empty clusters are repaired in ascending order. Each takes the point
    farthest from the centroid of the cluster it is assigned to (first such
    point on ties), which is then assigned to the repaired cluster. The
    centroid that point leaves is not recomputed."""
    d = len(points[0])
    cluster_of = list(cluster_of)
    sums = [[0.0] * d for _ in range(k)]
    counts = [0] * k
    for p, c in zip(points, cluster_of):
        counts[c] += 1
        for j in range(d):
            sums[c][j] += float(p[j])
    centroids = [[s / counts[c] for s in sums[c]] if counts[c] else list(sums[c])
                 for c in range(k)]
    for c in range(k):
        if counts[c]:
            continue
        best, best_d = 0, -1.0
        for i, p in enumerate(points):
            dist = math.sqrt(sq_dist(p, centroids[cluster_of[i]]))
            if dist > best_d:
                best, best_d = i, dist
        centroids[c] = [float(x) for x in points[best]]
        cluster_of[best] = c
    return centroids


def _confusion(cluster_of, labels, k: int, n_classes: int):
    conf = [[0] * n_classes for _ in range(k)]
    for c, lab in zip(cluster_of, labels):
        conf[c][lab] += 1
    return conf


def error_rate_optimal_ref(cluster_of, labels, k: int) -> float:
    """Brute-force best one-to-one cluster-to-class matching."""
    n_classes = max(labels) + 1
    conf = _confusion(cluster_of, labels, k, n_classes)
    n = len(labels)
    best = 0
    if k <= n_classes:
        for classes in itertools.permutations(range(n_classes), k):
            best = max(best, sum(conf[i][c] for i, c in enumerate(classes)))
    else:
        for clusters in itertools.permutations(range(k), n_classes):
            best = max(best, sum(conf[i][c] for c, i in enumerate(clusters)))
    return 100.0 * (n - best) / n


def error_rate_majority_ref(cluster_of, labels, k: int) -> float:
    n_classes = max(labels) + 1
    conf = _confusion(cluster_of, labels, k, n_classes)
    matched = 0
    for row in conf:
        matched += max(row)
    return 100.0 * (len(labels) - matched) / len(labels)


def pso_replay(points, k, seeds, stub, *, c1, c2, inertia, max_iter, swarm_size,
               boundary, v_max_fraction, iters):
    """Straight-line replay of the swarm engine: init plus ``iters`` steps.

    ``inertia`` is ("linear", w_max, w_min) or ("exponential_literal", maxw)
    or ("exponential_normalized", maxw). Returns the per-iteration gbest
    fitness trace (including the initial value) and the final gbest vector.
    """
    n, d = len(points), len(points[0])
    kd = k * d
    lower = [min(p[j] for p in points) for j in range(d)] * k
    upper = [max(p[j] for p in points) for j in range(d)] * k
    span = [u - l for u, l in zip(upper, lower)]

    def fitness(pos):
        cents = [pos[i * d:(i + 1) * d] for i in range(k)]
        total = 0.0
        for p in points:
            total += math.sqrt(min(sq_dist(p, c) for c in cents))
        return total

    positions = []
    if seeds is not None:
        base = [x for row in seeds for x in row]
        positions.append(list(base))
        for _ in range(1, swarm_size):
            jitter = [(stub.next_float() * 2.0 - 1.0) * 0.05 * span[j] for j in range(kd)]
            pos = [base[j] + jitter[j] for j in range(kd)]
            positions.append([min(max(v, lo), up) for v, lo, up in zip(pos, lower, upper)])
    else:
        for _ in range(swarm_size):
            positions.append([lower[j] + stub.next_float() * span[j] for j in range(kd)])

    velocities = [[0.0] * kd for _ in range(swarm_size)]
    pbest = [list(p) for p in positions]
    pbest_f = [fitness(p) for p in positions]
    g = min(range(swarm_size), key=lambda i: pbest_f[i])
    gbest, gbest_f = list(pbest[g]), pbest_f[g]
    trace = [gbest_f]

    for it in range(iters):
        kind = inertia[0]
        if kind == "linear":
            w = inertia[1] - (inertia[1] - inertia[2]) * it / max_iter
        elif kind == "exponential_literal":
            w = inertia[1] * math.exp(-it)
        else:
            w = inertia[1] * math.exp(-it / max_iter)
        evals = []
        for i in range(swarm_size):
            r1 = [stub.next_float() for _ in range(kd)]
            r2 = [stub.next_float() for _ in range(kd)]
            vel = []
            for j in range(kd):
                v = (w * velocities[i][j]
                     + c1 * r1[j] * (pbest[i][j] - positions[i][j])
                     + c2 * r2[j] * (gbest[j] - positions[i][j]))
                if v_max_fraction is not None:
                    cap = v_max_fraction * span[j]
                    v = min(max(v, -cap), cap)
                vel.append(v)
            prev = positions[i]
            pos = [prev[j] + vel[j] for j in range(kd)]
            if boundary == "restricted":
                fixed = []
                for j in range(kd):
                    if lower[j] <= pos[j] <= upper[j]:
                        fixed.append(pos[j])
                    elif lower[j] <= prev[j] <= upper[j]:
                        fixed.append(prev[j])
                    else:
                        fixed.append(min(max(prev[j], lower[j]), upper[j]))
                pos = fixed
            velocities[i] = vel
            positions[i] = pos
            evals.append(fitness(pos))
        for i in range(swarm_size):
            if evals[i] < pbest_f[i]:
                pbest_f[i] = evals[i]
                pbest[i] = list(positions[i])
        g = min(range(swarm_size), key=lambda i: pbest_f[i])
        if pbest_f[g] < gbest_f:
            gbest_f = pbest_f[g]
            gbest = list(pbest[g])
        trace.append(gbest_f)
    return trace, gbest


def weiszfeld(points, tol: float = 1e-14, max_iter: int = 2000):
    """Geometric median of a small point set (minimizes the sum of plain
    Euclidean distances). Handles iterates landing on data points via the
    standard optimality check."""
    d = len(points[0])
    y = [sum(p[j] for p in points) / len(points) for j in range(d)]
    for _ in range(max_iter):
        num = [0.0] * d
        den = 0.0
        at_point = None
        for p in points:
            dist = math.sqrt(sq_dist(p, y))
            if dist < 1e-15:
                at_point = p
                continue
            w = 1.0 / dist
            den += w
            for j in range(d):
                num[j] += w * p[j]
        if at_point is not None:
            if den == 0.0:
                return list(at_point)
            # optimal at the data point iff the pull of the others is weak
            pull = [num[j] - den * at_point[j] for j in range(d)]
            if math.sqrt(sum(v * v for v in pull)) <= 1.0:
                return list(at_point)
            y = [at_point[j] + 1e-10 * (num[j] / den - at_point[j]) for j in range(d)]
            continue
        new = [num[j] / den for j in range(d)]
        if sq_dist(new, y) < tol * tol:
            return new
        y = new
    return y


def median_cost(points) -> float:
    center = weiszfeld(points)
    return sum(math.sqrt(sq_dist(p, center)) for p in points)


def partitions_upto_k(n: int, k: int):
    """All set partitions of range(n) into at most k nonempty blocks."""

    def rec(i, blocks):
        if i == n:
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        if len(blocks) < k:
            blocks.append([i])
            yield from rec(i + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


def exhaustive_best_sicd(points, k: int) -> float:
    """Global optimum of the clustering cost over every partition into at
    most k groups, with the cost-minimizing (geometric median) center for
    each group."""
    best = math.inf
    pts = [list(map(float, p)) for p in points]
    for partition in partitions_upto_k(len(pts), k):
        total = 0.0
        for block in partition:
            total += median_cost([pts[i] for i in block])
            if total >= best:
                break
        best = min(best, total)
    return best


def _reference_boundary(position, previous, lower, upper):
    out = (position < lower) | (position > upper)
    if not out.any():
        return position
    restored = np.where(out, previous, position)
    still_out = out & ((previous < lower) | (previous > upper))
    if still_out.any():
        restored = np.where(still_out, np.clip(previous, lower, upper), restored)
    return restored


def reference_step(swarm, fitness, config, rng):
    """``swarmclust.swarm.step`` as it was before its numpy calls were cut:
    one whole-swarm expression per update, new arrays throughout. The
    current step must reproduce its every bit, signs of zeros included."""
    from swarmclust.swarm import inertia_weight

    w = inertia_weight(config, swarm.iter)
    previous = swarm.position
    size, kd = previous.shape
    rand = rng.random(size * 2 * kd).reshape(size, 2, kd)
    velocity = (
        w * swarm.velocity
        + config.c1 * rand[:, 0] * (swarm.pbest_position - previous)
        + config.c2 * rand[:, 1] * (swarm.gbest_position - previous)
    )
    if config.v_max_fraction is not None:
        v_max = config.v_max_fraction * (swarm.upper - swarm.lower)
        velocity = np.clip(velocity, -v_max, v_max)
    position = previous + velocity
    if config.boundary == "restricted":
        position = _reference_boundary(position, previous, swarm.lower, swarm.upper)
    swarm.velocity = velocity
    swarm.position = position

    evals = np.asarray(fitness(position), dtype=np.float64)
    nan = np.isnan(evals)
    if nan.any():
        raise RuntimeError(
            f"fitness returned NaN at iteration {swarm.iter}, particle {int(np.argmax(nan))}"
        )
    improved = evals < swarm.pbest_fitness
    swarm.pbest_fitness = np.where(improved, evals, swarm.pbest_fitness)
    swarm.pbest_position = np.where(improved[:, None], position, swarm.pbest_position)

    best = int(np.argmin(swarm.pbest_fitness))
    if swarm.pbest_fitness[best] < swarm.gbest_fitness:
        swarm.gbest_fitness = float(swarm.pbest_fitness[best])
        swarm.gbest_position = swarm.pbest_position[best].copy()

    swarm.iter += 1
    return swarm


def convergence_stats_ref(sicd_trace, rel_tol: float = 1e-8, stall_iters: int = 25) -> int:
    """``swarmclust.metrics.convergence_stats`` as it was: stall flags for
    the whole trace, then a window of ``stall_iters`` flags scanned at each
    index."""
    from swarmclust.metrics import stalled

    trace = np.asarray(sicd_trace, dtype=np.float64)
    flags = np.zeros(trace.size, dtype=bool)
    for j in range(1, trace.size):
        flags[j] = stalled(trace[j - 1], trace[j], rel_tol)
    for i in range(trace.size):
        window = flags[i + 1 : i + 1 + stall_iters]
        if window.size == stall_iters and window.all():
            return i
    return int(trace.size)
