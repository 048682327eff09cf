#!/usr/bin/env python3
"""Check that two checkouts write the same reports, wall-clock fields aside.

    python3 scripts/same_reports.py BASE_TREE [TREE]

Each tree (TREE defaults to this checkout) runs ``bench run`` as
``python -m swarmclust.cli run`` in a fresh interpreter with
``PYTHONPATH=<tree>/src``: the ``fixtures`` preset at ``--jobs 1`` and
``--jobs 2``, and a six-algorithm grid over iris and wine read from this
checkout's ``data/``. The stripped artifacts (``perfbench/benchlib.py``,
``strip_wall_ms``) of each run must be equal between the trees. The check
is skipped when ``bench.SCHEMA_VERSION`` or ``pipelines.DEFAULTS_VERSION``
differs between them, since a version bump is how report bytes may change.

Exits 0 when the reports are equal or the check is skipped, 1 when they
differ or a run fails a cell, 2 on bad arguments.
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
sys.path.insert(0, str(ROOT / "perfbench"))
from benchlib import strip_wall_ms  # noqa: E402

ARTIFACTS = {"json": "report.json", "csv": "records.csv", "plot_data": "traces.csv"}
VERSIONS = (("bench.py", "SCHEMA_VERSION"), ("pipelines.py", "DEFAULTS_VERSION"))
IRIS_WINE = {
    "base_seed": 2014,
    "repetitions": 3,
    "emit": ["json", "csv", "plot_data"],
    "datasets": [{"registry": "iris"}, {"registry": "wine"}],
    "algorithms": [{"id": algo} for algo in (
        "kmeans", "pso", "kmeans_pso", "sub_pso", "brapso", "sc_br_apso")],
}


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
    for name, (config, jobs) in runs.items():
        where = out / name
        subprocess.run([sys.executable, "-m", "swarmclust.cli", "run", "--config", config,
                        "--jobs", str(jobs), "--out", str(where)],
                       env=env, cwd=out, check=True, stdout=subprocess.DEVNULL)
        failed = json.loads((where / "report.json").read_text())["failed_cells"]
        if failed:
            # equal reports of failed cells would show nothing
            raise SystemExit(f"{tree}: {failed} cells of {name} failed")
        reports[name] = strip_wall_ms({fmt: where / file for fmt, file in ARTIFACTS.items()})
    return reports


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, tree = (Path(p).resolve() for p in (*argv, ROOT)[:2])
    base_versions, tree_versions = versions(base), versions(tree)
    if base_versions != tree_versions:
        print(f"skipped: versions differ, {base_versions} -> {tree_versions}")
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        grid = tmp / "iris_wine.yaml"
        grid.write_text(json.dumps(IRIS_WINE))  # JSON is YAML
        runs = {"fixtures_jobs1": ("fixtures", 1), "fixtures_jobs2": ("fixtures", 2),
                "iris_wine": (str(grid), 1)}
        results = []
        for label, checkout in (("base", base), ("tree", tree)):
            (tmp / label).mkdir()
            results.append(run_reports(checkout, runs, tmp / label))
    differ = [f"{name} {fmt}" for name in runs for fmt in ARTIFACTS
              if results[0][name][fmt] != results[1][name][fmt]]
    for item in differ:
        print(f"differs: {item}")
    if not differ:
        print(f"same reports: {', '.join(runs)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
