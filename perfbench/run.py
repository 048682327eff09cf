#!/usr/bin/env python3
"""Grid benchmark for swarmclust. Run it from the repository root:

    python3 perfbench/run.py --workload paper_grid --seed 0 --seconds 20 --trace 0

Each run is one fresh interpreter for one workload. It drives the public
harness API the way ``bench run`` does without the click shell
(``parse_config`` -> ``run_grid`` -> ``emit_report``), in a closed loop: the
next grid round starts once the previous one has been written. The seed
sets every round's ``base_seed`` and the synthetic datasets' seeds; the
program only ever sees the generated config. Synthetic datasets are drawn
afresh for every round, so quality figures average over many draws.

Every workload runs the grid in-process (``jobs=1``). A process-pool
workload is left out: on a shared 2-vCPU Xeon VM (2.1 GHz), with both
workers busy, its run-to-run spread over ten seeds was 19-27 % IQR/median,
too wide for a regression gate.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` repeats a fixed set of rounds twice, untraced and traced, and
gives the per-layer metrics.

Human-readable lines come first, together with the environment; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The run exits 1 when an output
check fails and 2 on bad arguments or a checkout without the program.
A result file with the environment and every sample count is also written
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import benchlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

ALL_ALGORITHMS = ("kmeans", "pso", "kmeans_pso", "sub_pso", "brapso", "sc_br_apso")
PAPER_ALGORITHM = "sc_br_apso"
SETUP_PROBES = 9  # fresh-interpreter set-ups per run, spread over its window
LAYERS = ("data", "bench", "pipelines", "subtractive", "swarm", "metrics")


def _mix(seed: int, *parts) -> int:
    """A 31-bit seed derived from the workload seed and labels."""
    h = hashlib.blake2b(repr((seed,) + parts).encode(), digest_size=4)
    return int.from_bytes(h.digest(), "little") & 0x7FFFFFFF


def _paper_grid(seed: int, rnd: int) -> dict:
    return {
        "base_seed": _mix(seed, "base", rnd),
        "repetitions": 2,
        "output_dir": "results/paper_grid",
        "data_dir": str(ROOT / "data"),
        "datasets": [{"registry": "iris"}, {"registry": "wine"}],
        "algorithms": [{"id": a} for a in ALL_ALGORITHMS],
    }


def _large_n(seed: int, rnd: int) -> dict:
    return {
        "base_seed": _mix(seed, "base", rnd),
        "repetitions": 1,
        "output_dir": "results/large_n",
        "datasets": [{
            "name": "art_like_4000",
            "synthetic": {
                "kind": "art_like",
                "seed": _mix(seed, "art_like", rnd),
                "params": {"n": 4000, "d": 8, "k": 5, "spread": 0.8},
            },
        }],
        "algorithms": [{"id": a} for a in ("kmeans", "sub_pso", "brapso", "sc_br_apso")],
    }


@dataclass(frozen=True)
class Workload:
    why: str
    quality_rounds: int  # every run completes these; quality metrics use exactly them
    trace_rounds: int  # rounds in one traced pass
    raw: Callable[[int, int], dict]


WORKLOADS = {
    "paper_grid": Workload(
        "the paper's six-algorithm grid on bundled iris and wine: small N, so the "
        "per-particle Python loop and small-N fitness dominate",
        quality_rounds=24, trace_rounds=4, raw=_paper_grid),
    "large_n": Workload(
        "N=4000 art_like blobs, four algorithms: N^2 subtractive seeding and the "
        "N x k distance kernel do the work and set peak memory",
        quality_rounds=14, trace_rounds=3, raw=_large_n),
}


def dataset_sizes(raw: dict) -> dict:
    """N of every dataset in a raw config, from the registry or the generator
    parameters."""
    from swarmclust.data import REGISTRY

    return {
        entry.get("name", entry.get("registry")): (
            REGISTRY[entry["registry"]].n if "registry" in entry
            else entry["synthetic"]["params"]["n"]
        )
        for entry in raw["datasets"]
    }


# --- one grid round --------------------------------------------------------


@dataclass
class Round:
    report: object
    grid_s: float
    parse_ms: float
    emit_ms: float
    bytes_written: int
    stripped: dict


def run_round(raw: dict, out_dir: Path) -> Round:
    from swarmclust import bench

    t0 = time.perf_counter()
    config = bench.parse_config(raw)
    t1 = time.perf_counter()
    report = bench.run_grid(config, jobs=1)
    t2 = time.perf_counter()
    written = bench.emit_report(report, config.emit, out_dir)
    t3 = time.perf_counter()
    return Round(
        report=report,
        grid_s=t2 - t1,
        parse_ms=(t1 - t0) * 1000.0,
        emit_ms=(t3 - t2) * 1000.0,
        bytes_written=sum(Path(p).stat().st_size for p in written.values()),
        stripped=benchlib.strip_wall_ms(written),
    )


def round_problems(rnd: Round) -> list:
    """Every cell ok with a finite SICD, and every trace well formed."""
    problems = []
    for rec in rnd.report.records:
        where = f"{rec['dataset']}/{rec['algorithm']}/rep{rec['rep']}"
        if rec["status"] != "ok":
            problems.append(f"{where}: {rec.get('error')}")
            continue
        if not math.isfinite(rec["sicd"]):
            problems.append(f"{where}: SICD {rec['sicd']!r}")
            continue
        trace = rnd.report.traces.get((rec["dataset"], rec["algorithm"], rec["rep"]))
        problems += benchlib.trace_problems(rec, trace, rec["algorithm"] != "kmeans")
    return problems


def same_bytes(a: Round, b: Round, what: str) -> list:
    return [] if a.stripped == b.stripped else [f"reports differ beyond wall_ms: {what}"]


def records_of(rounds) -> list:
    return [rec for rnd in rounds for rec in rnd.report.records]


# --- environment -----------------------------------------------------------


def loadavg():
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "git_commit": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(
                ["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                timeout=30, check=False,
            ).stdout.strip()

        env["git_commit"] = git("rev-parse", "HEAD") or None
        env["git_dirty"] = bool(git("status", "--porcelain"))
    return env


# --- set-up ----------------------------------------------------------------


def setup_probe(workload: Workload, seed: int) -> None:
    """Everything a run does before its first cell: the imports (already
    done by the caller), config validation and dataset load or generation
    with normalization. Prints the wall clock when ready."""
    from swarmclust import bench

    config = bench.parse_config(workload.raw(seed, 0))
    for spec in config.datasets:
        bench.load_dataset(spec)
    print(repr(time.time()), flush=True)


def setup_probe_s(name: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its first cell."""
    t0 = time.time()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1]) - t0


# --- end-to-end run --------------------------------------------------------


def end_to_end(name: str, workload: Workload, seed: int, seconds: float, work: Path):
    # Round 0 runs once untimed first: it warms the allocator and page
    # cache, and the timed loop's own round 0 must repeat it byte for byte.
    warm = run_round(workload.raw(seed, 0), work)
    problems = round_problems(warm)
    sizes = dataset_sizes(workload.raw(seed, 0))

    # Only the numbers the metrics need are kept from a round, so peak
    # memory does not grow with the number of rounds a run completes.
    attempted = failed = 0
    walls, paper, quality, setup = [], [], [], []
    grid_s = 0.0
    start = time.perf_counter()
    r = 0
    while r < workload.quality_rounds or time.perf_counter() < start + seconds:
        # Set-up probes are spread over the run, so that one slow stretch of
        # a shared host does not skew all of them.
        if (len(setup) < SETUP_PROBES
                and time.perf_counter() >= start + seconds * len(setup) / SETUP_PROBES):
            setup.append(setup_probe_s(name, seed))
        rnd = run_round(workload.raw(seed, r), work)
        problems += round_problems(rnd)
        if r == 0:
            problems += same_bytes(warm, rnd, "round 0 repeated")
            warm = None
        records = rnd.report.records
        a, f = benchlib.count_failures(records)
        attempted += a
        failed += f
        ok = [rec for rec in records if rec["status"] == "ok"]
        walls += [rec["wall_ms"] for rec in ok]
        paper += [rec["wall_ms"] for rec in ok if rec["algorithm"] == PAPER_ALGORITHM]
        if r < workload.quality_rounds:
            quality += [(rec["sicd"], sizes[rec["dataset"]], rec["error_percent"])
                        for rec in ok]
        grid_s += rnd.grid_s
        r += 1
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe_s(name, seed))

    errors = [e for _, _, e in quality if e is not None]

    def stat(values):
        return benchlib.order_stats(values) if values else {"p50": math.nan, "n": 0}

    metrics = {
        "setup_s": (stat(setup), "s"),
        "cells_per_s": ({"p50": attempted / grid_s, "n": attempted,
                         "grid_s": grid_s, "rounds": r}, "1/s"),
        "cell_ms_p50": (stat(walls), "ms"),
        "sc_br_apso_ms_p50": (stat(paper), "ms"),
        "peak_rss_mb": ({"p50": peak_rss_kb / 1024.0, "n": 1}, "MB"),
        # 1 - failed_frac: failed_frac reads 0 on every healthy run, where a
        # bound given as a share of the median means nothing
        "ok_frac": ({"p50": (attempted - failed) / attempted, "n": attempted}, "fraction"),
        "sicd_per_point": ({"p50": sum(q[0] for q in quality) / sum(q[1] for q in quality),
                            "n": len(quality)}, "dist/point"),
        # 100 - error_pct_mean, for the same reason: the error rate reads 0
        # on easy data
        "accuracy_pct_mean": ({"p50": 100.0 - sum(errors) / len(errors) if errors else math.nan,
                               "n": len(errors)}, "%"),
    }
    detail = {"error_pct_mean": 100.0 - metrics["accuracy_pct_mean"][0]["p50"]}
    return metrics, attempted, failed, problems, detail


# --- traced run ------------------------------------------------------------


def outcome_problems(dataset, outcome) -> tuple:
    """The outcome's SICD recomputed with plain numpy from its centroids, and
    its assignment against the nearest-center assignment."""
    import numpy as np

    x = dataset.points
    c = np.asarray(outcome.centroids)
    d2 = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
    nearest = d2.argmin(axis=1)
    plain = float(np.sqrt(d2[np.arange(x.shape[0]), nearest]).sum())
    rel = abs(plain - outcome.sicd) / abs(plain) if plain else abs(outcome.sicd)
    problems = []
    if rel > 1e-9:
        problems.append(f"{dataset.name}: SICD {outcome.sicd!r} vs plain numpy {plain!r}")
    if not np.array_equal(nearest, outcome.assignment.cluster_of):
        problems.append(f"{dataset.name}: assignment is not nearest-center")
    return problems, rel


def span_summary(tracer, records) -> dict:
    """Self times by span name and layer, plus the counts of one traced pass."""
    from collections import defaultdict

    selfs = benchlib.self_times(tracer.start, tracer.end, tracer.parent)
    by_name = defaultdict(float)
    calls = defaultdict(int)
    total = defaultdict(float)
    for nid, s, b, e in zip(tracer.name, selfs, tracer.start, tracer.end):
        name = tracer.names[nid]
        by_name[name] += s / 1e6
        total[name] += (e - b) / 1e6
        calls[name] += 1
    entry_ids = {i for i, n in enumerate(tracer.names) if n.startswith("pipelines.run_")}
    fitness_id = tracer.names.index("pipelines.fitness") if "pipelines.fitness" in tracer.names else -1
    refine_attempts = sum(
        1 for nid, p in zip(tracer.name, tracer.parent)
        if nid == fitness_id and p >= 0 and tracer.name[p] in entry_ids
    )
    fitness_per_cell = defaultdict(int)
    for nid, cell in zip(tracer.name, tracer.cell):
        if nid == fitness_id:
            fitness_per_cell[cell] += 1
    fitness_bytes = sum(
        fitness_per_cell[cell] * benchlib.fitness_bytes(n, d, k)
        for cell, n, d, k in tracer.fitness_shapes
    )
    layer_ms = {layer: 0.0 for layer in LAYERS}
    for name, ms in by_name.items():
        layer = name.split(".", 1)[0]
        if layer in layer_ms:
            layer_ms[layer] += ms
    return {
        "self_ms": dict(by_name),
        "total_ms": dict(total),
        "calls": dict(calls),
        "layer_ms": layer_ms,
        "refine_attempts": refine_attempts,
        "refine_accepts": tracer.refine_accepts,
        "boundary_reverts": tracer.boundary_reverts,
        "boundary_moved": tracer.boundary_moved,
        "fitness_bytes": fitness_bytes,
        "kernel_evals": sum(benchlib.subtractive_kernel_evals(n) for n in tracer.seeding_sizes),
        "seeding_bytes": sum(benchlib.subtractive_bytes(n) for n in tracer.seeding_sizes),
        "swarm_iters": sum(r["iterations"] for r in records if r["algorithm"] != "kmeans"),
        "lloyd_iters": sum(r["iterations"] for r in records if r["algorithm"] == "kmeans"),
    }


COUNT_KEYS = ("refine_attempts", "refine_accepts", "boundary_reverts", "boundary_moved",
              "fitness_bytes", "kernel_evals", "seeding_bytes", "swarm_iters",
              "lloyd_iters", "calls")


def traced(name: str, workload: Workload, seed: int, seconds: float, work: Path,
           import_s: float):
    from tracer import Tracer, installed

    passes, problems, attempted, failed = [], [], 0, 0
    max_rel = 0.0
    first_tracer = None
    deadline = time.perf_counter() + seconds
    while len(passes) < 2 or time.perf_counter() < deadline:
        raws = [workload.raw(seed, r) for r in range(workload.trace_rounds)]
        untraced = [run_round(raw, work) for raw in raws]
        tracer = Tracer()
        with installed(tracer):
            traced_rounds = [run_round(raw, work) for raw in raws]
        for group in (untraced, traced_rounds):
            for rnd in group:
                problems += round_problems(rnd)
            a, f = benchlib.count_failures(records_of(group))
            attempted += a
            failed += f
        for a, b, what in zip(untraced, traced_rounds, range(len(raws))):
            problems += same_bytes(a, b, f"untraced vs traced round {what}")
        if passes:
            problems += same_bytes(passes[0]["round0"], untraced[0], "round 0 repeated")
        for dataset, outcome in tracer.outcomes:
            found, rel = outcome_problems(dataset, outcome)
            problems += found
            max_rel = max(max_rel, rel)

        cell_ms_sum = sum(r["wall_ms"] for r in records_of(untraced))
        grid_s = sum(r.grid_s for r in untraced)
        summary = span_summary(tracer, records_of(traced_rounds))
        summary.update(
            round0=untraced[0],
            cells=len(records_of(untraced)),
            untraced_grid_s=grid_s,
            traced_grid_s=sum(r.grid_s for r in traced_rounds),
            efficiency=benchlib.parallel_efficiency(cell_ms_sum, grid_s),
            dispatch=benchlib.dispatch_ms_per_cell(
                cell_ms_sum, grid_s, len(records_of(untraced))),
            parse_ms=[r.parse_ms for r in untraced],
            emit_ms=[r.emit_ms for r in untraced],
            bytes_written=[r.bytes_written for r in untraced],
        )
        if passes:
            for key in COUNT_KEYS:
                if summary[key] != passes[0][key]:
                    problems.append(f"traced count {key} differs between passes")
        else:
            first_tracer = tracer
        passes.append(summary)

    OUT.mkdir(parents=True, exist_ok=True)
    first_tracer.save(OUT / f"spans-{name}.npz")

    def med(values):
        return benchlib.order_stats(values)["p50"]

    def self_ms(span):
        return med([p["self_ms"].get(span, 0.0) for p in passes])

    first = passes[0]
    calls = first["calls"]
    step_calls = calls.get("swarm.step", 0)
    fit_calls = calls.get("pipelines.fitness", 0)
    traced_grid_ms = med([p["traced_grid_s"] for p in passes]) * 1000.0
    layer_ms = {layer: med([p["layer_ms"][layer] for p in passes]) for layer in LAYERS}
    m = {
        "setup.import_s": (import_s, "s"),
        "bench.parse_config.ms": (med([v for p in passes for v in p["parse_ms"]]), "ms"),
        "data.load_dataset.ms": (med([p["total_ms"].get("data.load_dataset", 0.0)
                                      for p in passes]) / workload.trace_rounds, "ms"),
        "swarm.step.calls": (step_calls, "count"),
        "swarm.step.self_ms": (self_ms("swarm.step"), "ms"),
        "swarm.step.us_per_call": (self_ms("swarm.step") * 1000.0 / max(step_calls, 1), "us"),
        "swarm.init_swarm.self_ms": (self_ms("swarm.init_swarm"), "ms"),
        "swarm.boundary_reverts": (first["boundary_reverts"], "count"),
        "swarm.boundary_revert_ratio": (
            first["boundary_reverts"] / max(first["boundary_moved"], 1), "ratio"),
        "pipelines.fitness.calls": (fit_calls, "count"),
        "pipelines.fitness.self_ms": (self_ms("pipelines.fitness"), "ms"),
        "pipelines.fitness.us_per_call": (
            self_ms("pipelines.fitness") * 1000.0 / max(fit_calls, 1), "us"),
        "pipelines.fitness.bytes_computed": (first["fitness_bytes"], "bytes"),
        "pipelines.refine.attempts": (first["refine_attempts"], "count"),
        "pipelines.refine.accepts": (first["refine_accepts"], "count"),
        "pipelines.refine.accept_ratio": (
            first["refine_accepts"] / max(first["refine_attempts"], 1), "ratio"),
        "pipelines.assign_nearest.self_ms": (self_ms("pipelines.assign_nearest"), "ms"),
        "pipelines.recompute_centroids.self_ms": (self_ms("pipelines.recompute_centroids"), "ms"),
        "pipelines.run_kmeans.self_ms": (self_ms("pipelines.run_kmeans"), "ms"),
        "pipelines.swarm_iters": (first["swarm_iters"], "count"),
        "pipelines.lloyd_iters": (first["lloyd_iters"], "count"),
        "subtractive.select_centers.calls": (calls.get("subtractive.select_centers", 0), "count"),
        "subtractive.select_centers.self_ms": (self_ms("subtractive.select_centers"), "ms"),
        "subtractive.kernel_evals": (first["kernel_evals"], "count"),
        "subtractive.bytes_computed": (first["seeding_bytes"], "bytes"),
        "metrics.evaluation_report.self_ms": (self_ms("metrics.evaluation_report"), "ms"),
        "bench.parallel_efficiency": (med([p["efficiency"] for p in passes]), "ratio"),
        "bench.dispatch_ms_per_cell": (med([p["dispatch"] for p in passes]), "ms"),
        "bench.emit_report.ms": (med([v for p in passes for v in p["emit_ms"]]), "ms"),
        "bench.bytes_written": (med([v for p in passes for v in p["bytes_written"]]), "bytes"),
        "trace.overhead_frac": (
            med([p["traced_grid_s"] / p["untraced_grid_s"] for p in passes]) - 1.0, "ratio"),
        "trace.grid_ms": (traced_grid_ms, "ms"),
        "trace.bookkeeping_ms": (self_ms("trace.bookkeeping"), "ms"),
        "trace.coverage": (sum(layer_ms.values()) / traced_grid_ms, "ratio"),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_ms"] = (layer_ms[layer], "ms")
    detail = {"passes": len(passes), "cells_per_pass": first["cells"],
              "max_sicd_rel_diff": max_rel}
    detail.update(
        (f"layer {layer}", f"self {layer_ms[layer]:.3f} ms, "
                           f"{layer_ms[layer] / traced_grid_ms:.2%} of traced grid time")
        for layer in LAYERS)
    metrics = {k: ({"p50": v, "n": len(passes)}, unit) for k, (v, unit) in m.items()}
    return metrics, attempted, failed, problems, detail


# --- command line ----------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 gives the baseline inputs")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "swarmclust" / "__init__.py").is_file():
        print(f"error: no swarmclust sources under {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import swarmclust.bench  # noqa: F401
    import_s = time.perf_counter() - t0

    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload, args.seed)
        return 0

    load_start = loadavg()
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            metrics, attempted, failed, problems, detail = traced(
                args.workload, workload, args.seed, args.seconds, work, import_s)
        else:
            metrics, attempted, failed, problems, detail = end_to_end(
                args.workload, workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    env.update(loadavg_start=load_start, loadavg_end=loadavg())
    print(f"# swarmclust benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# why: {workload.why}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for key, value in detail.items():
        print(f"# {key}: {value}")
    print(f"# cells attempted={attempted} failed={failed} "
          f"failed_frac={failed / max(attempted, 1)!r}")
    print(f"{'metric':40s} {'value':>16s} {'unit':8s} n  p25 / p75")
    for key, (stats, unit) in metrics.items():
        spread = (f"  {stats['p25']:.6g} / {stats['p75']:.6g}"
                  if "p25" in stats and stats["n"] > 1 else "")
        print(f"{key:40s} {stats['p50']:16.6f} {unit:8s} {stats['n']}{spread}")
    for problem in problems[:50]:
        print(f"CHECK FAILED: {problem}")

    correct = not problems and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": stats["p50"], "unit": unit}
                    for k, (stats, unit) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace, "env": env,
                    "detail": detail, "problems": problems,
                    "metrics": {k: dict(stats, unit=unit)
                                for k, (stats, unit) in metrics.items()},
                    **{k: result[k] for k in ("correct", "attempted", "failed")}},
                   indent=2, default=str) + "\n",
        encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
