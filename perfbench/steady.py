#!/usr/bin/env python3
"""Steadiness mode: run one workload once per seed, each in a fresh
interpreter, and report every metric's median, quartiles and IQR/median.
Run it from the repository root:

    python3 perfbench/steady.py --workload large_n --seeds 1-10 --seconds 20 \\
        --save perfbench/out/steady-large_n-a.json
    python3 perfbench/steady.py --workload large_n --seeds 11-20 --seconds 20 \\
        --against perfbench/out/steady-large_n-a.json

Spreads are checked against a third of each end-to-end metric's bound in
BENCHMARK.json; ``--against``
also checks that the new medians are no worse than the saved ones by more
than the bound. Exits 1 when a run fails or a check does not hold.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def worse_by(new: float, old: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write the per-seed values and stats here")
    parser.add_argument("--against", help="a file written by --save to compare medians with")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    values: dict[str, list] = {}
    ok = True
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False, cwd=ROOT,
        )
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            print(f"seed {seed}: run failed (exit {done.returncode})\n{done.stderr[-2000:]}")
            ok = False
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            if k in declared), flush=True)

    previous = (json.loads(Path(args.against).read_text(encoding="utf-8"))["stats"]
                if args.against else {})
    stats = {}
    print(f"{'metric':40s} {'p50':>14s} {'p25':>14s} {'p75':>14s} {'iqr/p50':>8s}  n  check")
    for name, vals in values.items():
        s = benchlib.order_stats(vals)
        s["iqr_share"] = benchlib.iqr_share(vals)
        stats[name] = s
        notes = []
        metric = declared.get(name, {})
        bound = metric.get("bound")
        if bound is not None and s["iqr_share"] > bound / 3:
            notes.append(f"spread>{bound / 3:.3g}")
            ok = False
        if bound is not None and name in previous:
            worse = worse_by(s["p50"], previous[name]["p50"], metric["better"])
            notes.append(f"vs saved {worse:+.3%}")
            if worse > bound:
                notes.append("WORSE THAN BOUND")
                ok = False
        print(f"{name:40s} {s['p50']:14.6g} {s['p25']:14.6g} {s['p75']:14.6g} "
              f"{s['iqr_share']:8.4f} {s['n']:2d}  {' '.join(notes)}")
    if args.save:
        Path(args.save).write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
             "trace": args.trace, "values": values, "stats": stats}, indent=2) + "\n",
            encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
