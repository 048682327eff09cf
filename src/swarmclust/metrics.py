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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import Assignment, ContractViolation, Dataset


class UnsupportedEvaluation(RuntimeError):
    """Requested a label-based metric on an unlabeled dataset."""


@dataclass(frozen=True)
class EvaluationReport:
    sicd: float
    error_rate_percent: Optional[float]
    iterations_to_converge: int
    confusion: Optional[np.ndarray]
    mapping: Optional[Dict[int, Optional[int]]]


def sicd(centroids: np.ndarray, assignment: Assignment, dataset: Dataset) -> float:
    """Sum over clusters of member distances to the cluster's centroid."""
    c = np.asarray(centroids, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != assignment.k or c.shape[1] != dataset.d:
        raise ContractViolation(
            f"centroids shape {c.shape} inconsistent with k={assignment.k}, d={dataset.d}"
        )
    if assignment.n != dataset.n:
        raise ContractViolation("assignment length differs from dataset size")
    diffs = dataset.points - c[assignment.cluster_of]
    return float(np.sqrt(np.einsum("ij,ij->i", diffs, diffs)).sum())


def confusion_matrix(assignment: Assignment, labels: np.ndarray) -> np.ndarray:
    """k_clusters x k_classes count matrix; entries sum to N."""
    n_classes = int(labels.max()) + 1
    conf = np.zeros((assignment.k, n_classes), dtype=np.int64)
    np.add.at(conf, (assignment.cluster_of, labels), 1)
    return conf


def error_rate(
    assignment: Assignment,
    labels: Optional[np.ndarray],
    mapping_mode: str = "optimal",
) -> tuple[float, Dict[int, Optional[int]], np.ndarray]:
    """Percentage of points whose mapped cluster disagrees with their class.

    Returns (percent, cluster-to-class mapping, confusion matrix). Unmatched
    clusters map to None. Majority-mode ties resolve to the lower class id.
    """
    if labels is None:
        raise UnsupportedEvaluation("error rate needs ground-truth labels")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (assignment.n,):
        raise ContractViolation("labels length differs from assignment length")
    conf = confusion_matrix(assignment, labels)

    mapping: Dict[int, Optional[int]] = {i: None for i in range(assignment.k)}
    if mapping_mode == "optimal":
        rows, cols = linear_sum_assignment(conf, maximize=True)
        for r, c in zip(rows, cols):
            mapping[int(r)] = int(c)
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
    than ``rel_tol`` relative to ``prev`` (absolute when ``prev`` is 0)."""
    den = abs(prev)
    rel = (prev - cur) / den if den > 0 else (prev - cur)
    return rel < rel_tol


def convergence_stats(sicd_trace, rel_tol: float = 1e-8, stall_iters: int = 25) -> int:
    """First index after which relative improvement stays below ``rel_tol``
    for ``stall_iters`` consecutive entries; the trace length if that never
    happens (including traces too short to confirm a stall window)."""
    trace = np.asarray(sicd_trace, dtype=np.float64)
    if stall_iters < 1:
        raise ContractViolation("stall_iters must be >= 1")
    flags = np.zeros(trace.size, dtype=bool)
    for j in range(1, trace.size):
        flags[j] = stalled(trace[j - 1], trace[j], rel_tol)
    for i in range(trace.size):
        window = flags[i + 1 : i + 1 + stall_iters]
        if window.size == stall_iters and window.all():
            return i
    return int(trace.size)


def evaluation_report(
    outcome,
    dataset: Dataset,
    mapping_mode: str = "optimal",
    rel_tol: float = 1e-8,
    stall_iters: int = 25,
) -> EvaluationReport:
    """Bundle the standard criteria for one clustering outcome."""
    iters = convergence_stats(outcome.sicd_trace, rel_tol, stall_iters)
    if dataset.labels is None:
        return EvaluationReport(outcome.sicd, None, iters, None, None)
    percent, mapping, conf = error_rate(outcome.assignment, dataset.labels, mapping_mode)
    return EvaluationReport(outcome.sicd, percent, iters, conf, mapping)
