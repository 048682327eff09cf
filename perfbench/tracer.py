"""Spans and counters around the calls into swarmclust's modules.

The program is not changed: :func:`installed` swaps the module attributes
through which the harness and the pipelines reach each layer for timing
wrappers, and puts the originals back on exit. Spans are kept in memory
(name, start, end, parent, cell) and written out once the run ends.

Layers and the functions timed for them:

    data         load_dataset
    bench        the per-cell wrapper (_execute_cell: record building,
                 config translation, error capture)
    pipelines    the run_* entry points, the fitness closure, assign_nearest,
                 recompute_centroids
    subtractive  select_centers
    swarm        init_swarm, step
    metrics      evaluation_report

``core`` is called at sub-microsecond grain inside every layer and gets no
spans. Counters that cannot be read off the spans are derived from outside
the engine: boundary reverts by comparing each particle's position with its
pre-step position plus its new velocity, and accepted gbest refinements by
watching gbest fitness between one ``step`` exit and the next entry (or the
outcome).
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

from swarmclust import bench, pipelines

ALGORITHM_ENTRY_POINTS = (
    "run_kmeans", "run_pso", "run_kmeans_pso",
    "run_subtractive_pso", "run_brapso", "run_sc_br_apso",
)
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """One traced pass: spans, counters and the outcomes to verify."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.cell = array("q")
        self._stack: list[int] = []
        self.cell_id = -1
        # (cell, n, d, k) for every fitness closure built
        self.fitness_shapes: list[tuple] = []
        # N of every select_centers call
        self.seeding_sizes: list[int] = []
        self.boundary_reverts = 0
        self.boundary_moved = 0
        self.refine_accepts = 0
        self._last_swarm = None
        self._last_exit = None
        # (dataset, outcome) of every grid cell, checked after the pass
        self.outcomes: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timed(self, name: str, fn):
        """``fn`` wrapped in a span; a plain closure keeps the per-call
        overhead near a microsecond."""
        nid = self._name_id(name)
        start, end, parent, names, cell, stack = (
            self.start, self.end, self.parent, self.name, self.cell, self._stack
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            start.append(0)
            end.append(0)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            cell.append(self.cell_id)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return wrapper

    # --- wrappers with counters -------------------------------------------

    def _wrap_cell(self, fn):
        timed = self.timed("bench.cell", fn)

        def cell(args):
            self.cell_id += 1
            return timed(args)

        return cell

    def _wrap_entry(self, name, fn):
        timed = self.timed(f"pipelines.{name}", fn)

        def entry(dataset, *args, **kwargs):
            outcome = timed(dataset, *args, **kwargs)
            if self._last_swarm is not None and outcome.sicd < self._last_exit:
                self.refine_accepts += 1
            self._last_swarm = self._last_exit = None
            return outcome

        return entry

    def _wrap_cell_entry(self, name, fn):
        entry = self._wrap_entry(name, fn)

        def cell_entry(dataset, *args, **kwargs):
            outcome = entry(dataset, *args, **kwargs)
            self.outcomes.append((dataset, outcome))
            return outcome

        return cell_entry

    def _wrap_fitness_for(self, fn):
        def fitness_for(dataset, k):
            self.fitness_shapes.append((self.cell_id, dataset.n, dataset.d, k))
            return self.timed("pipelines.fitness", fn(dataset, k))

        return fitness_for

    def _wrap_select_centers(self, fn):
        timed = self.timed("subtractive.select_centers", fn)

        def select_centers(dataset, config):
            self.seeding_sizes.append(dataset.n)
            return timed(dataset, config)

        return select_centers

    def _count_reverts(self, before, particles):
        """Components the boundary put back: the new position differs from
        the pre-step position plus the new velocity."""
        old = np.array(before)
        vel = np.array([p.velocity for p in particles])
        new = np.array([p.position for p in particles])
        self.boundary_reverts += int(np.count_nonzero(new != old + vel))
        self.boundary_moved += int(np.count_nonzero(vel))

    def _wrap_step(self, fn):
        timed = self.timed("swarm.step", fn)
        # its own span, so the counting is not charged to the pipeline
        count_reverts = self.timed(BOOKKEEPING, self._count_reverts)

        def step(swarm, fitness, config, rng):
            if swarm is self._last_swarm and swarm.gbest_fitness < self._last_exit:
                self.refine_accepts += 1
            before = [p.position for p in swarm.particles]
            result = timed(swarm, fitness, config, rng)
            if config.boundary == "restricted":
                count_reverts(before, swarm.particles)
            self._last_swarm = swarm
            self._last_exit = swarm.gbest_fitness
            return result

        return step

    def patches(self) -> list:
        """(module, attribute, replacement) for every traced call site."""
        out = [
            (bench, "_execute_cell", self._wrap_cell(bench._execute_cell)),
            (bench, "load_dataset", self.timed("data.load_dataset", bench.load_dataset)),
            (bench, "evaluation_report",
             self.timed("metrics.evaluation_report", bench.evaluation_report)),
            (pipelines, "_fitness_for", self._wrap_fitness_for(pipelines._fitness_for)),
            (pipelines, "select_centers", self._wrap_select_centers(pipelines.select_centers)),
            (pipelines, "init_swarm", self.timed("swarm.init_swarm", pipelines.init_swarm)),
            (pipelines, "step", self._wrap_step(pipelines.step)),
            (pipelines, "assign_nearest",
             self.timed("pipelines.assign_nearest", pipelines.assign_nearest)),
            (pipelines, "recompute_centroids",
             self.timed("pipelines.recompute_centroids", pipelines.recompute_centroids)),
            # kmeans_pso reaches Lloyd through the pipelines module
            (pipelines, "run_kmeans", self._wrap_entry("run_kmeans", pipelines.run_kmeans)),
        ]
        out += [
            (bench, name, self._wrap_cell_entry(name, getattr(bench, name)))
            for name in ALGORITHM_ENTRY_POINTS
        ]
        return out

    # --- results ----------------------------------------------------------

    def save(self, path) -> None:
        """Write the spans (columns plus the name table) as one .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            cell=np.frombuffer(self.cell, dtype=np.int64),
        )


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every traced call site through ``tracer`` for the duration."""
    patches = tracer.patches()
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    for mod, attr, fn in patches:
        setattr(mod, attr, fn)
    try:
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
