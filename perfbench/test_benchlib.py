"""Tests for the benchmark's own arithmetic and instrumentation. Run from the
repository root with ``python3 -m unittest discover -s perfbench``."""

from __future__ import annotations

import math
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

import benchlib

SRC = Path(__file__).resolve().parent.parent / "src"


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 100] holds a [10, 40] (which holds [20, 30]) and b [50, 90]
        starts = [0, 10, 20, 50]
        ends = [100, 40, 30, 90]
        parents = [-1, 0, 1, 0]
        self.assertEqual(benchlib.self_times(starts, ends, parents), [30, 20, 10, 40])

    def test_self_times_sum_to_root_duration(self):
        starts = [0, 5, 6, 7, 20]
        ends = [50, 15, 7, 9, 45]
        parents = [-1, 0, 1, 1, 0]
        self.assertEqual(sum(benchlib.self_times(starts, ends, parents)), 50)


class OrderStats(unittest.TestCase):
    def test_quartiles_match_statistics_module(self):
        values = [4.0, 1.0, 3.0, 2.0, 10.0]
        stats = benchlib.order_stats(values)
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertEqual((stats["p25"], stats["p50"], stats["p75"]), (q1, med, q3))
        self.assertEqual(stats["n"], 5)

    def test_four_samples(self):
        stats = benchlib.order_stats([1, 2, 3, 4])
        self.assertEqual(stats, {"p25": 1.25, "p50": 2.5, "p75": 3.75, "n": 4})
        self.assertEqual(benchlib.iqr_share([1, 2, 3, 4]), 1.0)

    def test_single_sample(self):
        self.assertEqual(benchlib.order_stats([7]), {"p25": 7.0, "p50": 7.0, "p75": 7.0, "n": 1})
        self.assertEqual(benchlib.iqr_share([7]), 0.0)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            benchlib.order_stats([])


class GridEfficiency(unittest.TestCase):
    def test_parallel_efficiency(self):
        # 0.9 s of cells in 1 s of grid time
        self.assertAlmostEqual(benchlib.parallel_efficiency(900.0, 1.0), 0.9)
        self.assertAlmostEqual(benchlib.parallel_efficiency(500.0, 0.5), 1.0)

    def test_dispatch_per_cell(self):
        self.assertAlmostEqual(benchlib.dispatch_ms_per_cell(900.0, 1.0, 10), 10.0)


class ComputedBytes(unittest.TestCase):
    def test_fitness(self):
        # iris: N=150, d=4, k=3
        self.assertEqual(benchlib.fitness_bytes(150, 4, 3), 8 * (150 * 4 + 150 * 3))

    def test_subtractive(self):
        self.assertEqual(benchlib.subtractive_kernel_evals(4000), 16_000_000)
        self.assertEqual(benchlib.subtractive_bytes(4000), 256_000_000)


class Failures(unittest.TestCase):
    def test_count_failures(self):
        records = [
            {"status": "ok", "sicd": 1.5},
            {"status": "error", "error": "boom"},
            {"status": "ok", "sicd": math.nan},
            {"status": "ok", "sicd": math.inf},
            {"status": "ok", "sicd": 0.0},
        ]
        self.assertEqual(benchlib.count_failures(records), (5, 3))
        self.assertEqual(benchlib.count_failures([]), (0, 0))


class Checks(unittest.TestCase):
    def _write(self, root: Path, wall: str, sicd: str) -> dict:
        root.mkdir()
        (root / "report.json").write_text(
            f'{{\n  "records": [\n    {{\n      "sicd": {sicd},\n      "status": "ok",\n'
            f'      "wall_ms": {wall}\n    }}\n  ]\n}}\n')
        (root / "records.csv").write_text(
            f"dataset,sicd,wall_ms,error\niris,{sicd},{wall},\n")
        return {"json": root / "report.json", "csv": root / "records.csv"}

    def test_strip_wall_ms(self):
        with tempfile.TemporaryDirectory() as tmp:
            a = benchlib.strip_wall_ms(self._write(Path(tmp) / "a", "1.25", "3.5"))
            b = benchlib.strip_wall_ms(self._write(Path(tmp) / "b", "999.0", "3.5"))
            c = benchlib.strip_wall_ms(self._write(Path(tmp) / "c", "1.25", "3.6"))
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        self.assertEqual(a["csv"], b"dataset,sicd,error\niris,3.5,\n")

    def test_trace_problems(self):
        rec = {"dataset": "iris", "algorithm": "pso", "rep": 0, "sicd": 1.0}
        self.assertEqual(benchlib.trace_problems(rec, [3.0, 2.0, 1.0], True), [])
        self.assertEqual(len(benchlib.trace_problems(rec, [3.0, 3.5, 1.0], True)), 1)
        self.assertEqual(benchlib.trace_problems(rec, [3.0, 3.5, 1.0], False), [])
        self.assertEqual(len(benchlib.trace_problems(rec, [3.0, 2.0], True)), 1)
        self.assertEqual(len(benchlib.trace_problems(rec, [], True)), 1)


class Instrumentation(unittest.TestCase):
    """The tracer's counts on one small sc_br_apso run, against what the
    engine's draw-and-evaluate contract implies."""

    @classmethod
    def setUpClass(cls):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))

    def test_counts_and_restore(self):
        from swarmclust import bench, pipelines
        from swarmclust.core import Rng
        from swarmclust.data import make_blobs
        from swarmclust.subtractive import FixedK, SubtractiveConfig
        from swarmclust.swarm import PsoConfig
        from tracer import Tracer, installed

        dataset = make_blobs("grid", {"n": 24}, seed=3)
        original_step = pipelines.step
        tracer = Tracer()
        config = PsoConfig(swarm_size=6, max_iter=15)
        with installed(tracer):
            outcome = bench.run_sc_br_apso(
                dataset, SubtractiveConfig(r_a=4.0, stop_rule=FixedK(4)), config, Rng(5))
        self.assertIs(pipelines.step, original_step)

        names = [tracer.names[i] for i in tracer.name]
        steps = names.count("swarm.step")
        self.assertEqual(steps, outcome.iterations_used)
        entry = tracer.names.index("pipelines.run_sc_br_apso")
        refine = sum(
            1 for nid, p in zip(tracer.name, tracer.parent)
            if tracer.names[nid] == "pipelines.fitness" and p >= 0 and tracer.name[p] == entry
        )
        self.assertEqual(refine, steps)
        self.assertEqual(names.count("pipelines.fitness"), 6 + 6 * steps + refine)
        self.assertEqual(names.count("subtractive.select_centers"), 1)
        self.assertEqual(tracer.seeding_sizes, [24])
        self.assertLessEqual(tracer.refine_accepts, refine)
        self.assertLessEqual(tracer.boundary_reverts, tracer.boundary_moved)
        self.assertEqual(len(tracer.outcomes), 1)

        selfs = benchlib.self_times(tracer.start, tracer.end, tracer.parent)
        roots = [i for i, p in enumerate(tracer.parent) if p < 0]
        self.assertEqual(sum(selfs), sum(tracer.end[i] - tracer.start[i] for i in roots))


if __name__ == "__main__":
    unittest.main()
