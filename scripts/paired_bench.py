#!/usr/bin/env python3
"""Time two checkouts against each other in alternating pairs of benchmark runs.

    python3 scripts/paired_bench.py BASE TREE --workload W [--workload W2]
        --pairs N --seconds S [--seed SEED] [--out BENCH_<tag>.json]

Each pair runs each tree's own ``perfbench/run.py --trace 0`` once, at the
same seed and length, each in a fresh interpreter started in that tree;
pair i runs at seed SEED + i, so that the pairs see different inputs.
Pairs alternate their order, BASE first in pairs 0, 2, 4, ... and TREE
first in the others, so that a slow stretch of a shared host falls on
both sides alike. Each child's user+sys CPU seconds, from ``getrusage``
of the waited-for children, are kept beside its metrics as ``cpu_s``: a
second view, less exposed to steal time than the wall-clock metrics.

A pair whose ``ok_frac``, ``sicd_per_point`` or ``accuracy_pct_mean``
differ between the two sides compares programs that compute different
things, and the script stops with exit 1, as it does when a run fails.

For each end-to-end metric of this checkout's ``BENCHMARK.json``, and for
``cpu_s``, the output gives the median of the per-pair ratios TREE/BASE,
a distribution-free interval for that median from the order statistics
of the ratios (:func:`median_interval`), and each side's median and
quartiles. Its metadata holds the Python, numpy and scipy versions, the
CPU count, the load average at start and end, both commits with their
dirty flags, and the time of one fixed ``sqeuclidean`` call at start and
end, a reference for the host's speed. The result is printed and, with
``--out``, written as JSON.

Exits 0 when every pair ran and agreed, 1 when a run failed or a pair was
refused, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The metrics both sides of a pair must give alike: the same seed computes
# the same cells, so a difference means the programs differ in results.
SAME_IN_A_PAIR = ("ok_frac", "sicd_per_point", "accuracy_pct_mean")
SIDES = ("base", "tree")


class Refused(Exception):
    """A pair whose sides computed different results, or a failed run."""


def pair_order(index: int) -> tuple:
    """The order in which pair ``index`` runs its sides: BASE first in even
    pairs, TREE first in odd ones."""
    return SIDES if index % 2 == 0 else SIDES[::-1]


def run_output(stdout: str) -> dict:
    """The result of one ``perfbench/run.py`` run: the JSON object on the
    last line of its standard output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise Refused("the run printed nothing")
    return json.loads(lines[-1])


def pair_values(base: dict, tree: dict, base_cpu: float, tree_cpu: float) -> dict:
    """One pair's metric values, side -> metric -> value, from the two runs'
    results and CPU seconds. Raises Refused if a run failed its checks or
    the sides differ in a metric of :data:`SAME_IN_A_PAIR`."""
    for side, result in (("base", base), ("tree", tree)):
        if not result.get("correct"):
            raise Refused(f"the {side} run failed its checks "
                          f"({result.get('failed')} of {result.get('attempted')} cells failed)")
    values = {}
    for side, result, cpu in (("base", base, base_cpu), ("tree", tree, tree_cpu)):
        values[side] = {name: m["value"] for name, m in result["metrics"].items()}
        values[side]["cpu_s"] = cpu
    differ = [f"{name}: base {values['base'].get(name)!r}, tree {values['tree'].get(name)!r}"
              for name in SAME_IN_A_PAIR if values["base"].get(name) != values["tree"].get(name)]
    if differ:
        raise Refused("the sides of a pair differ in " + "; ".join(differ))
    return values


def binomial_cdf_half(n: int, k: int) -> float:
    """P(X <= k) for X ~ Binomial(n, 1/2)."""
    return sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n


def median_interval(values, level: float = 0.9) -> dict:
    """The sample median of ``values`` and a distribution-free interval for
    the population median: the order statistics x_(j) and x_(n+1-j)
    (1-based) with the largest j whose coverage,
    1 - 2 P(Binomial(n, 1/2) <= j - 1), is at least ``level``. With too
    few values for that level the interval is the range, and its coverage
    says how much less it holds."""
    x = sorted(float(v) for v in values)
    n = len(x)
    if not n:
        raise ValueError("an interval needs at least one value")
    j = 1
    while j + 1 <= n // 2 and 1 - 2 * binomial_cdf_half(n, j) >= level:
        j += 1
    return {"median": statistics.median(x), "lo": x[j - 1], "hi": x[n - j],
            "coverage": 1 - 2 * binomial_cdf_half(n, j - 1), "n": n}


def quartiles(values) -> dict:
    x = [float(v) for v in values]
    if len(x) < 2:
        return {"p25": x[0], "p50": x[0], "p75": x[0]}
    q1, med, q3 = statistics.quantiles(x, n=4)
    return {"p25": q1, "p50": med, "p75": q3}


def summarize(pairs: list, metrics: dict) -> dict:
    """Per metric (name -> "higher" or "lower", which is better): the
    per-pair ratios TREE/BASE, their median and interval, and each side's
    quartiles. A metric a pair lacks, or whose base value is 0, is left
    out of that pair's ratios."""
    out = {}
    for name, better in metrics.items():
        ratios = [p["tree"][name] / p["base"][name] for p in pairs
                  if name in p["base"] and name in p["tree"] and p["base"][name]]
        if not ratios:
            continue
        out[name] = {"better": better, "ratios": ratios, **median_interval(ratios),
                     **{side: quartiles([p[side][name] for p in pairs]) for side in SIDES}}
    return out


def end_to_end_metrics(benchmark: Path) -> dict:
    """Name -> which direction is better, for the end-to-end metrics of a
    ``BENCHMARK.json``, and for ``cpu_s`` (lower)."""
    spec = json.loads(benchmark.read_text(encoding="utf-8"))
    return {**{m["name"]: m["better"] for m in spec["end_to_end"]}, "cpu_s": "lower"}


# --- runs ------------------------------------------------------------------


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> tuple:
    """(result, user+sys CPU seconds) of one fresh run of ``tree``'s own
    benchmark script, started in ``tree``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=False)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    if done.returncode not in (0, 1):  # 1: the run's checks failed, shown by its result
        raise Refused(f"{tree.name or tree}: perfbench/run.py exited {done.returncode}: "
                      f"{done.stderr.strip()[-500:]}")
    return run_output(done.stdout), cpu


def git_state(tree: Path) -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                              text=True, check=False).stdout.strip()

    commit = git("rev-parse", "HEAD") or None
    return {"commit": commit, "dirty": bool(git("status", "--porcelain")) if commit else None}


def loadavg():
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def reference_us() -> float:
    """Median microseconds of one (600, 4) x (150, 4) ``sqeuclidean`` call,
    the size of one 200-row iris fitness call."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from swarmclust.core import sqeuclidean

    a, b = np.random.default_rng(0).random((600, 4)), np.random.default_rng(1).random((150, 4))
    times = []
    for _ in range(60):
        start = time.perf_counter()
        sqeuclidean(a, b)
        times.append(time.perf_counter() - start)
    return statistics.median(times[10:]) * 1e6


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("tree", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0 or args.seed < 0:
        parser.error("--pairs must be >= 1, --seconds > 0 and --seed >= 0")
    for tree in (args.base, args.tree):
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} has no perfbench/run.py")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    base, tree = args.base.resolve(), args.tree.resolve()
    metrics = end_to_end_metrics(ROOT / "BENCHMARK.json")
    result = {"base": git_state(base), "tree": git_state(tree), "env": environment(),
              "seconds": args.seconds, "loadavg_start": loadavg(),
              "reference_us_start": reference_us(), "workloads": {}}
    for workload in args.workload:
        pairs = []
        for index in range(args.pairs):
            runs, seed = {}, args.seed + index
            for side in pair_order(index):
                runs[side] = run_side(base if side == "base" else tree, workload, seed,
                                      args.seconds)
            try:
                values = pair_values(runs["base"][0], runs["tree"][0], runs["base"][1],
                                     runs["tree"][1])
            except Refused as exc:
                print(f"refused: {workload} pair {index}: {exc}", file=sys.stderr)
                return 1
            pairs.append({"seed": seed, "order": list(pair_order(index)), **values})
            ratio = values["tree"]["cells_per_s"] / values["base"]["cells_per_s"]
            print(f"{workload} pair {index}: cells_per_s base "
                  f"{values['base']['cells_per_s']:.1f} tree {values['tree']['cells_per_s']:.1f} "
                  f"ratio {ratio:.3f}", flush=True)
        result["workloads"][workload] = {"pairs": pairs, "ratios": summarize(pairs, metrics)}
    result.update(loadavg_end=loadavg(), reference_us_end=reference_us())

    for workload, found in result["workloads"].items():
        for name, r in found["ratios"].items():
            print(f"{workload:12s} {name:20s} median TREE/BASE {r['median']:.4f} "
                  f"[{r['lo']:.4f}, {r['hi']:.4f}] ({r['coverage']:.1%}, n={r['n']}, "
                  f"{r['better']} is better)")
    if args.out:
        args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
