#!/usr/bin/env python3
"""Traced peak memory of one brapso and one k-means cell, and of a stack
of 16 brapso swarms, at large N.

    PYTHONPATH=src python3 scripts/cell_memory.py

Draws N = 200 000 uniform points in d = 2 and runs a brapso cell
(swarm_size 4, max_iter 1), a k-means cell (one Lloyd iteration) and a
``pipelines.run_stack`` of 16 brapso runs (swarm_size 4, max_iter 2) at
k = 16 on 1, 2 and 3 kernel threads. Each runs once untraced, which
starts the helper threads, and once under ``tracemalloc``. Prints each
peak in MB beside the points' size and the kernel budget
(``core.KERNEL_BLOCK`` float64 entries); ``tests/test_pipelines.py``
asserts the cells' peaks stay within three times the points plus that
budget, and the stack's within that plus its 16 outcomes' assignments
(16 * N * 8 bytes). The script uses only the public library, so it runs
on older checkouts too: put their ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import tracemalloc

from swarmclust import core
from swarmclust.core import Dataset, Rng
from swarmclust.pipelines import Plan, run_brapso, run_kmeans, run_stack
from swarmclust.swarm import PsoConfig, exponential_normalized

N, K, STACKED = 200_000, 16, 16


def peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main() -> None:
    dataset = Dataset(points=Rng(2000).uniform(0, 1, size=(N, 2)))
    config = PsoConfig(inertia=exponential_normalized(0.9), boundary="restricted",
                       max_iter=1, swarm_size=4)
    stacked = PsoConfig(inertia=exponential_normalized(0.9), boundary="restricted",
                        max_iter=2, swarm_size=4)
    cells = {
        "brapso": lambda: run_brapso(dataset, K, config, Rng(3)),
        "kmeans": lambda: run_kmeans(dataset, K, rng=Rng(3), max_iter=1),
        f"{STACKED} x brapso": lambda: run_stack(
            dataset, [(Plan("brapso", K, stacked), Rng(seed)) for seed in range(STACKED)]),
    }
    print(f"N = {N}, d = 2, k = {K}: points {dataset.points.nbytes / 1e6:.2f} MB, "
          f"kernel budget {8 * core.KERNEL_BLOCK / 1e6:.2f} MB")
    for threads in (1, 2, 3):
        core.set_kernel_workers(threads)
        for name, cell in cells.items():
            cell()
            print(f"{threads} thread(s)  {name:12s} peak {peak_mb(cell):6.2f} MB")


if __name__ == "__main__":
    main()
