"""Arithmetic of the swarmclust benchmark, kept apart from the runs so it can
be tested on its own: order statistics with sample counts, self time from
nested spans, grid efficiency, computed-bytes formulas, failure counting and
the wall-clock-free form of a report used for byte comparison."""

from __future__ import annotations

import math
import statistics
from pathlib import Path


def order_stats(values) -> dict:
    """Median and quartiles (``statistics.quantiles(n=4)``) with the sample
    count. With fewer than two samples every quantile is the sample itself."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("order statistics need at least one sample")
    if len(vals) == 1:
        q1 = med = q3 = vals[0]
    else:
        q1, med, q3 = statistics.quantiles(vals, n=4)
    return {"p25": q1, "p50": med, "p75": q3, "n": len(vals)}


def iqr_share(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    stats = order_stats(values)
    if stats["p50"] == 0:
        return math.inf if stats["p75"] != stats["p25"] else 0.0
    return (stats["p75"] - stats["p25"]) / abs(stats["p50"])


def self_times(starts, ends, parents) -> list:
    """Self time of every span: its duration minus the durations of its
    direct children. ``parents[i]`` is the index of span i's parent, or -1.
    Children of one span never overlap (the program is single-threaded
    inside a traced cell), so the subtraction is exact."""
    child = [0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    return [ends[i] - starts[i] - child[i] for i in range(len(starts))]


def parallel_efficiency(cell_ms_sum: float, grid_s: float) -> float:
    """Summed cell wall time over the grid's wall time, for a grid run on
    one worker: the share of the grid spent inside cells."""
    return cell_ms_sum / (grid_s * 1000.0)


def dispatch_ms_per_cell(cell_ms_sum: float, grid_s: float, cells: int) -> float:
    """Grid wall time not spent inside a cell (the cell loop's own
    dispatch and bookkeeping), per cell, for a grid run on one worker."""
    return (grid_s * 1000.0 - cell_ms_sum) / cells


def fitness_bytes(n: int, d: int, k: int) -> int:
    """Bytes one fitness call computes over: the N x d points and the N x k
    distance matrix, float64."""
    return 8 * (n * d + n * k)


def subtractive_kernel_evals(n: int) -> int:
    """Gaussian kernel terms of one density pass: every pair of points."""
    return n * n


def subtractive_bytes(n: int) -> int:
    """The two dense N x N float64 arrays of one density pass (squared
    distances and kernels)."""
    return 16 * n * n


def count_failures(records) -> tuple:
    """(attempted, failed) over grid records; a cell fails unless its status
    is ``ok`` and its SICD is finite."""
    attempted = len(records)
    failed = sum(
        1 for r in records
        if r.get("status") != "ok" or not math.isfinite(r.get("sicd", math.nan))
    )
    return attempted, failed


def strip_wall_ms(paths: dict) -> dict:
    """Report artifact bytes with the wall-clock fields removed: the
    ``"wall_ms"`` lines of report.json and the wall_ms column of records.csv.
    Everything else must repeat byte for byte."""
    out = {}
    for fmt, path in sorted(paths.items()):
        data = Path(path).read_bytes()
        if fmt == "json":
            data = b"\n".join(
                line for line in data.split(b"\n")
                if not line.lstrip().startswith(b'"wall_ms":')
            )
        elif fmt == "csv":
            rows = [row.split(b",") for row in data.split(b"\n")]
            col = rows[0].index(b"wall_ms")
            data = b"\n".join(
                b",".join(r[:col] + r[col + 1:]) if len(r) > col else b",".join(r)
                for r in rows
            )
        out[fmt] = data
    return out


def trace_problems(record: dict, trace, swarm: bool) -> list:
    """Problems with one cell's best-cost trace: it must end at the record's
    SICD and, for swarm algorithms, never increase."""
    problems = []
    where = f"{record['dataset']}/{record['algorithm']}/rep{record['rep']}"
    if not trace:
        return [f"{where}: empty trace"]
    if trace[-1] != record["sicd"]:
        problems.append(f"{where}: trace ends at {trace[-1]!r}, record has {record['sicd']!r}")
    if swarm and any(b > a for a, b in zip(trace, trace[1:])):
        problems.append(f"{where}: swarm trace increases")
    return problems
