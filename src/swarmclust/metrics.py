"""Clustering evaluation: sum of intra-cluster distances, error rate against
ground-truth labels, and convergence bookkeeping.

The cost J of a clustering is the total plain (unsquared) Euclidean distance
of every point to its assigned centroid; it doubles as the swarm fitness.
The error rate needs an explicit cluster-to-class mapping first, because no
clustering algorithm guarantees that cluster ids align with class ids:
"optimal" finds the one-to-one matching that maximizes agreement, "majority"
takes each cluster's plurality label. With unequal cluster and class counts
the matching runs on the rectangular confusion matrix and every point of an
unmatched cluster counts as misplaced.

The cost of an assignment (:func:`sicd`) is an N-sized pass: it runs on
``swarmclust.core.map_blocks`` over the points, within the memory budget
the ``swarmclust.core`` docstring describes.

The optimal matching is an exact Kuhn-Munkres solver in integer arithmetic
(``_max_weight_matching``). It lives here rather than coming from
``scipy.optimize.linear_sum_assignment`` because that one small matching
per cell was the only use of ``scipy.optimize``, whose import adds about
150 modules and 11 MB of memory to every process (scipy 1.17, Python 3.11);
no module of this package imports it.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from . import core
from .core import Assignment, ContractViolation, Dataset


class UnsupportedEvaluation(RuntimeError):
    """Requested a label-based metric on an unlabeled dataset."""


def sicd(centroids: np.ndarray, assignment: Assignment, dataset: Dataset) -> float:
    """Sum over clusters of member distances to the cluster's centroid.

    The N distances are filled on :func:`swarmclust.core.map_blocks` over
    the points, d + 1 entries each (a point's differences and its distance),
    so a large dataset never holds the N x d differences at once, and then
    summed as one contiguous vector; each distance, and so the sum, is the
    same whatever the blocks."""
    c = np.asarray(centroids, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != assignment.k or c.shape[1] != dataset.d:
        raise ContractViolation(
            f"centroids shape {c.shape} inconsistent with k={assignment.k}, d={dataset.d}"
        )
    if assignment.n != dataset.n:
        raise ContractViolation("assignment length differs from dataset size")
    x, cluster_of = dataset.points, assignment.cluster_of
    n, d = x.shape
    dists = np.empty(n)

    def fill(lo: int, hi: int) -> None:
        diffs = c[cluster_of[lo:hi]]
        np.subtract(x[lo:hi], diffs, out=diffs)
        np.einsum("ij,ij->i", diffs, diffs, out=dists[lo:hi])
        np.sqrt(dists[lo:hi], out=dists[lo:hi])

    core.map_blocks(fill, n, d + 1)
    return float(dists.sum())


def confusion_matrix(assignment: Assignment, labels: np.ndarray) -> np.ndarray:
    """k_clusters x k_classes count matrix; entries sum to N."""
    n_classes = int(labels.max()) + 1
    conf = np.zeros((assignment.k, n_classes), dtype=np.int64)
    np.add.at(conf, (assignment.cluster_of, labels), 1)
    return conf


def _max_weight_matching(weights) -> list[tuple[int, int]]:
    """A one-to-one matching of rows to columns of an integer matrix with the
    largest total weight, as ``(row, col)`` pairs in ascending row order.

    Every row is matched when there are no more rows than columns, every
    column otherwise, so the matching has ``min(rows, cols)`` pairs. The
    solver is Kuhn-Munkres with shortest augmenting paths and integer
    potentials, run with the smaller side as rows: O(r^2 c) for
    r = min(rows, cols) and c = max(rows, cols). The arithmetic is exact on
    integers, so the total is the optimum. Ties between augmenting paths go
    to the lowest column, so the result is deterministic; when several
    matchings reach the optimum, the one returned need not be the one
    ``scipy.optimize.linear_sum_assignment`` returns.
    """
    w = np.asarray(weights)
    if w.ndim != 2:
        raise ContractViolation(f"weights must be a matrix, got shape {w.shape}")
    flip = w.shape[0] > w.shape[1]
    r, m = sorted(w.shape)
    if r == 0:
        return []
    rows = (w.T if flip else w).tolist()
    # Minimize the cost top - weight instead: nonnegative, and every
    # matching has r entries, so the same matchings are optimal.
    top = max(map(max, rows))
    cost = [[top - x for x in row] for row in rows]

    # Rows 1..r and columns 1..m; column 0 is the root of each search.
    u = [0] * (r + 1)
    v = [0] * (m + 1)
    owner = [0] * (m + 1)  # row matched to each column, 0 if none
    way = [0] * (m + 1)  # previous column on the shortest path
    for i in range(1, r + 1):
        owner[0] = i
        j0 = 0
        slack = [math.inf] * (m + 1)  # ints once a column is scanned
        used = [False] * (m + 1)
        while owner[j0]:
            used[j0] = True
            i0 = owner[j0]
            row, ui0 = cost[i0 - 1], u[i0]
            delta, j1 = math.inf, 0
            for j in range(1, m + 1):
                if not used[j]:
                    cur = row[j - 1] - ui0 - v[j]
                    if cur < slack[j]:
                        slack[j], way[j] = cur, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(m + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:  # augment along the path back to the root
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    pairs = [(owner[j] - 1, j - 1) for j in range(1, m + 1) if owner[j]]
    return sorted((b, a) for a, b in pairs) if flip else sorted(pairs)


def error_rate(
    assignment: Assignment,
    labels: Optional[np.ndarray],
    mapping_mode: str = "optimal",
) -> tuple[float, Dict[int, Optional[int]], np.ndarray]:
    """Percentage of points whose mapped cluster disagrees with their class.

    Returns (percent, cluster-to-class mapping, confusion matrix). Unmatched
    clusters map to None. Majority-mode ties resolve to the lower class id.
    Optimal mode matches clusters to classes on the confusion matrix with an
    exact in-house Kuhn-Munkres solver (``_max_weight_matching``). The
    percent depends only on the optimal matched count, which every optimal
    matching shares; when several matchings tie, the mapping names the one
    that solver picks, which can differ from the one
    ``scipy.optimize.linear_sum_assignment`` would pick.
    """
    if labels is None:
        raise UnsupportedEvaluation("error rate needs ground-truth labels")
    labels = core.int_array(labels, "labels")
    if labels.shape != (assignment.n,):
        raise ContractViolation("labels length differs from assignment length")
    if labels.min() < 0:
        # a negative label would index the confusion matrix from its end
        raise ContractViolation("labels must be nonnegative class ids")
    conf = confusion_matrix(assignment, labels)

    mapping: Dict[int, Optional[int]] = {i: None for i in range(assignment.k)}
    if mapping_mode == "optimal":
        for r, c in _max_weight_matching(conf):
            mapping[r] = c
    elif mapping_mode == "majority":
        for i in range(assignment.k):
            mapping[i] = int(np.argmax(conf[i]))
    else:
        raise ContractViolation(f"unknown mapping_mode {mapping_mode!r}")

    matched = sum(
        int(conf[i, c]) for i, c in mapping.items() if c is not None
    )
    n = assignment.n
    percent = 100.0 * (n - matched) / n
    return percent, mapping, conf


def stalled(prev: float, cur: float, rel_tol: float) -> bool:
    """True when the step from ``prev`` to ``cur`` improves the cost by less
    than ``rel_tol`` relative to ``prev`` (absolute when ``prev`` is 0).
    The costs are taken as Python floats, whose arithmetic overflows to
    infinity without numpy's RuntimeWarning (costs near +-1e308)."""
    prev, cur = float(prev), float(cur)
    den = abs(prev)
    rel = (prev - cur) / den if den > 0 else (prev - cur)
    return rel < rel_tol


def convergence_stats(sicd_trace, rel_tol: float = 1e-8, stall_iters: int = 25) -> int:
    """First index after which relative improvement stays below ``rel_tol``
    for ``stall_iters`` consecutive entries; the trace length if that never
    happens (including traces too short to confirm a stall window).

    One pass counts the run of stalled steps ending at each entry; the
    first run to reach ``stall_iters`` fixes the index."""
    trace = np.asarray(sicd_trace, dtype=np.float64)
    if stall_iters < 1:
        raise ContractViolation("stall_iters must be >= 1")
    values = trace.reshape(-1).tolist()
    run = 0
    for j in range(1, len(values)):
        if stalled(values[j - 1], values[j], rel_tol):
            run += 1
            if run == stall_iters:
                return j - stall_iters
        else:
            run = 0
    return len(values)


def evaluation_report(outcome, dataset: Dataset) -> Optional[float]:
    """The error rate of ``outcome``'s assignment under the optimal
    cluster-to-class mapping, in percent; None when ``dataset`` has no
    labels."""
    if dataset.labels is None:
        return None
    return error_rate(outcome.assignment, dataset.labels)[0]
