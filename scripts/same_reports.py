#!/usr/bin/env python3
"""Check that reports, wall-clock fields aside, do not depend on --jobs and
do not change between two checkouts.

    python3 scripts/same_reports.py BASE_TREE [TREE]

Each tree (TREE defaults to this checkout) runs ``bench run`` as
``python -m swarmclust.cli run`` in a fresh interpreter with
``PYTHONPATH=<tree>/src``: the ``fixtures`` preset at ``--jobs 1`` (twice
into one directory, so that its report replaced an earlier one) and at
``--jobs 2``, a grid over iris and wine read from this checkout's
``data/`` (the six algorithms, the two subtractive ones again with
seeding stopped by the density ratio, ``pso`` and ``sc_br_apso`` again
under a stall rule of 5 steps at ``rel_tol`` 1e-4, so that a runner that
read PsoConfig's default stop rule would show, ``sc_br_apso`` without the
boundary restriction and ``brapso`` with linear inertia, so that a
dataset's stack mixes the per-row weight and boundary columns, and
``brapso`` with 12 particles, a second stack a dataset), and a grid on 60 000
synthetic points whose N-sized passes all run in several blocks (the other
grids fit one), at ``--jobs 1`` and ``--jobs 2``: a worker of two jobs
splits its kernels over fewer threads, so the fitness tiles its rows
differently. Every run must leave no ``*.tmp`` file beside its report.
The artifacts, stripped of their timing fields by this
checkout's ``bench.strip_timings``, are compared twice: TREE's fixtures
and 60 000-point reports at ``--jobs 1`` with those at ``--jobs 2``, and
every run of TREE with the same run of BASE_TREE. The
second comparison, and BASE_TREE's runs, are skipped when
``bench.SCHEMA_VERSION`` or ``pipelines.DEFAULTS_VERSION`` differs between
the trees, since a version bump is how report bytes may change; the first
is always made.

Exits 0 when the compared reports are equal, 1 when they differ or a run
fails a cell or leaves a temp file, 2 on bad arguments.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from swarmclust.bench import ARTIFACT_FILES, strip_timings  # noqa: E402

VERSIONS = (("bench.py", "SCHEMA_VERSION"), ("pipelines.py", "DEFAULTS_VERSION"))
IRIS_WINE = {
    "base_seed": 2014,
    "repetitions": 3,
    "emit": ["json", "csv", "plot_data"],
    "datasets": [{"registry": "iris"}, {"registry": "wine"}],
    "algorithms": [{"id": algo} for algo in (
        "kmeans", "pso", "kmeans_pso", "sub_pso", "brapso", "sc_br_apso")] + [
        # seeding stopped by the density ratio, which no other grid reaches
        {"id": algo, "label": f"{algo}_ratio", "params": {"stop": "density_ratio"}}
        for algo in ("sub_pso", "sc_br_apso")] + [
        # a stall rule other than PsoConfig's defaults, which stops every run
        {"id": algo, "label": f"{algo}_stall5", "params": {"stall_iters": 5, "rel_tol": 1.0e-4}}
        for algo in ("pso", "sc_br_apso")] + [
        # an adaptive swarm unrestricted and one under linear inertia, which
        # share their dataset's stack with the others, and a swarm size of
        # its own, which makes a second stack
        {"id": "sc_br_apso", "label": "sc_br_apso_unbounded", "params": {"boundary": "none"}},
        {"id": "brapso", "label": "brapso_linear", "params": {"inertia": "linear"}},
        {"id": "brapso", "label": "brapso_12", "params": {"swarm_size": 12}}],
}
# (k+1)*N, 2k*N and (d+1)*N entries all exceed core.KERNEL_BLOCK: the fitness
# rows are tiled, and the assignment and the SICD split over blocks of points
LARGE_N = {
    "base_seed": 2014,
    "repetitions": 1,
    "emit": ["json", "csv", "plot_data"],
    "datasets": [{"name": "art_like_60k", "synthetic": {
        "kind": "art_like", "seed": 5, "params": {"n": 60000, "d": 5, "k": 8}}}],
    "algorithms": [{"id": "kmeans"}, *({"id": algo, "params": {"max_iter": 3}}
                                       for algo in ("pso", "brapso"))],
}

# (grid, its run at --jobs 1, its run at --jobs 2)
JOBS_PAIRS = (("fixtures", "fixtures_jobs1", "fixtures_jobs2"),
              ("large_n", "large_n", "large_n_jobs2"))


def versions(tree: Path) -> dict:
    found = {}
    for module, name in VERSIONS:
        text = (tree / "src" / "swarmclust" / module).read_text()
        match = re.search(rf"^{name} = (\d+)$", text, re.M)
        found[name] = match.group(1) if match else None
    return found


def run_reports(tree: Path, runs: dict, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               SWARMCLUST_DATA=str(ROOT / "data"))
    env.pop("SWARMCLUST_OUT_DIR", None)
    env.pop("SWARMCLUST_JOBS", None)
    reports = {}
    for name, (config, jobs, times) in runs.items():
        where = out / name
        for _ in range(times):
            subprocess.run([sys.executable, "-m", "swarmclust.cli", "run", "--config", config,
                            "--jobs", str(jobs), "--out", str(where)],
                           env=env, cwd=out, check=True, stdout=subprocess.DEVNULL)
            left = sorted(p.name for p in where.glob("*.tmp"))
            if left:
                raise SystemExit(f"{tree}: a run of {name} left temp files {left}")
        failed = json.loads((where / "report.json").read_text())["failed_cells"]
        if failed:
            # equal reports of failed cells would show nothing
            raise SystemExit(f"{tree}: {failed} cells of {name} failed")
        reports[name] = strip_timings({fmt: where / file for fmt, file in ARTIFACT_FILES.items()})
    return reports


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, tree = (Path(p).resolve() for p in (*argv, ROOT)[:2])
    base_versions, tree_versions = versions(base), versions(tree)
    across = base_versions == tree_versions
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        grids = {"iris_wine": IRIS_WINE, "large_n": LARGE_N}
        for name, grid in grids.items():
            (tmp / f"{name}.yaml").write_text(json.dumps(grid))  # JSON is YAML
        # name -> (config, --jobs, runs into its directory)
        runs = {"fixtures_jobs1": ("fixtures", 1, 2), "fixtures_jobs2": ("fixtures", 2, 1),
                **{name: (str(tmp / f"{name}.yaml"), 1, 1) for name in grids},
                "large_n_jobs2": (str(tmp / "large_n.yaml"), 2, 1)}
        checkouts = {"tree": tree, **({"base": base} if across else {})}
        results = {}
        for label, checkout in checkouts.items():
            (tmp / label).mkdir()
            results[label] = run_reports(checkout, runs, tmp / label)
    ours = results["tree"]
    differ = [f"{grid} {fmt} between --jobs 1 and 2" for grid, one, two in JOBS_PAIRS
              for fmt in ARTIFACT_FILES if ours[one][fmt] != ours[two][fmt]]
    if across:
        differ += [f"{name} {fmt}" for name in runs for fmt in ARTIFACT_FILES
                   if results["base"][name][fmt] != ours[name][fmt]]
    for item in differ:
        print(f"differs: {item}")
    if not differ:
        print(f"same reports: {' and '.join(grid for grid, _, _ in JOBS_PAIRS)} "
              "at --jobs 1 and 2")
    if not across:
        print(f"skipped the base tree: versions differ, {base_versions} -> {tree_versions}")
    elif not differ:
        print(f"same reports as the base tree: {', '.join(runs)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
