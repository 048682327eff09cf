"""Benchmark harness: run (algorithm x dataset x repetition) grids and emit
reproducible reports.

Every cell derives its own seed from (base_seed, dataset name, algorithm
label, repetition), so results are independent of worker count and
completion order; reports are written atomically and serialize with sorted
keys, making reruns byte-identical apart from wall-clock fields.
"""

from __future__ import annotations

import json
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np
import yaml
from jsonschema import ValidationError, validate

from . import __version__
from .core import Dataset, Rng, derive_seed
from .data import (
    CsvSource,
    DatasetSpec,
    Expected,
    SyntheticSource,
    load_dataset,
    registry_spec,
)
from .metrics import evaluation_report
from .pipelines import (  # noqa: F401  (run_cell calls the run_* by name)
    ALGORITHM_IDS,
    ALGORITHMS,
    DEFAULTS_VERSION,
    PSO_PARAMS,
    run_brapso,
    run_kmeans,
    run_kmeans_pso,
    run_pso,
    run_sc_br_apso,
    run_subtractive_pso,
)
from .subtractive import DensityRatio, FixedK, SubtractiveConfig
from .swarm import INERTIA_KINDS, Inertia, PsoConfig

SCHEMA_VERSION = 1

EMIT_FORMATS = ("json", "csv", "plot_data")

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["base_seed", "repetitions", "datasets", "algorithms"],
    "additionalProperties": False,
    "properties": {
        "base_seed": {"type": "integer", "minimum": 0},
        "repetitions": {"type": "integer", "minimum": 1},
        "output_dir": {"type": "string"},
        "data_dir": {"type": "string"},
        "emit": {
            "type": "array",
            "items": {"enum": list(EMIT_FORMATS)},
            "minItems": 1,
        },
        "datasets": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "registry": {"type": "string"},
                    "name": {"type": "string"},
                    "normalize": {"type": "boolean"},
                    "csv": {
                        "type": "object",
                        "required": ["path"],
                        "additionalProperties": False,
                        "properties": {
                            "path": {"type": "string"},
                            "label_column": {"type": ["integer", "string", "null"]},
                            "delimiter": {"type": "string"},
                            "header": {"type": "boolean"},
                            "drop_columns": {"type": "array", "items": {"type": "integer"}},
                            "na_values": {"type": "array", "items": {"type": "string"}},
                            "na_policy": {"enum": ["error", "drop"]},
                        },
                    },
                    "synthetic": {
                        "type": "object",
                        "required": ["kind"],
                        "additionalProperties": False,
                        "properties": {
                            "kind": {"enum": ["two_blob", "grid", "art_like"]},
                            "params": {"type": "object"},
                            "seed": {"type": "integer"},
                        },
                    },
                    "expected": {
                        "type": "object",
                        "required": ["n", "d", "k", "class_sizes"],
                        "additionalProperties": False,
                        "properties": {
                            "n": {"type": "integer"},
                            "d": {"type": "integer"},
                            "k": {"type": "integer"},
                            "class_sizes": {"type": "array", "items": {"type": "integer"}},
                        },
                    },
                },
            },
        },
        "algorithms": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["id"],
                "additionalProperties": False,
                "properties": {
                    "id": {"enum": list(ALGORITHM_IDS)},
                    "label": {"type": "string"},
                    "params": {"type": "object"},
                },
            },
        },
    },
}


class ConfigError(ValueError):
    """The benchmark configuration is invalid."""


@dataclass(frozen=True)
class AlgorithmSpec:
    id: str
    params: dict = field(default_factory=dict)
    label: Optional[str] = None

    @property
    def key(self) -> str:
        return self.label or self.id


@dataclass(frozen=True)
class BenchConfig:
    datasets: tuple
    algorithms: tuple
    repetitions: int
    base_seed: int
    output_dir: str = "results"
    emit: tuple = EMIT_FORMATS
    raw: dict = field(default_factory=dict, compare=False)


@dataclass
class BenchReport:
    schema_version: int
    config: dict
    records: list
    aggregates: list
    normalization: dict
    versions: dict
    traces: dict
    failed_cells: int


def parse_config(raw: dict) -> BenchConfig:
    """Validate a parsed YAML/JSON mapping against the published schema,
    check each algorithm's param names against its ``ALGORITHMS`` row and
    build a BenchConfig. Raises ConfigError with a readable message."""
    try:
        validate(raw, CONFIG_SCHEMA)
    except ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {path}: {exc.message}") from None
    for i, entry in enumerate(raw["algorithms"]):
        unknown = ALGORITHMS[entry["id"]].unknown_params(entry.get("params", {}))
        if unknown:
            raise ConfigError(
                f"config invalid at algorithms/{i}/params: unknown keys {unknown}"
            )

    data_dir = raw.get("data_dir")
    datasets = []
    for entry in raw["datasets"]:
        sources = [key for key in ("registry", "csv", "synthetic") if key in entry]
        if len(sources) != 1:
            raise ConfigError(
                f"dataset entry needs exactly one of registry/csv/synthetic: {entry}"
            )
        if "registry" in entry:
            spec = registry_spec(
                entry["registry"], data_dir, normalize=entry.get("normalize", True)
            )
            if "name" in entry and entry["name"] != spec.name:
                raise ConfigError("registry entries take their registry name")
        else:
            if "name" not in entry:
                raise ConfigError(f"dataset entry needs a name: {entry}")
            expected = None
            if "expected" in entry:
                e = entry["expected"]
                expected = Expected(e["n"], e["d"], e["k"], tuple(e["class_sizes"]))
            if "csv" in entry:
                source = CsvSource(
                    path=entry["csv"]["path"],
                    label_column=entry["csv"].get("label_column"),
                    delimiter=entry["csv"].get("delimiter", ","),
                    header=entry["csv"].get("header", False),
                    drop_columns=tuple(entry["csv"].get("drop_columns", ())),
                    na_values=tuple(entry["csv"].get("na_values", ())),
                    na_policy=entry["csv"].get("na_policy", "error"),
                )
            else:
                source = SyntheticSource(
                    kind=entry["synthetic"]["kind"],
                    params=entry["synthetic"].get("params", {}),
                    seed=entry["synthetic"].get("seed", 0),
                )
            spec = DatasetSpec(
                name=entry["name"],
                source=source,
                normalize=entry.get("normalize", True),
                expected=expected,
            )
        datasets.append(spec)

    names = [spec.name for spec in datasets]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate dataset names: {sorted(names)}")

    algorithms = tuple(
        AlgorithmSpec(a["id"], dict(a.get("params", {})), a.get("label"))
        for a in raw["algorithms"]
    )
    keys = [a.key for a in algorithms]
    if len(set(keys)) != len(keys):
        raise ConfigError(f"duplicate algorithm labels: {sorted(keys)}")

    emit = tuple(raw.get("emit", EMIT_FORMATS))
    return BenchConfig(
        datasets=tuple(datasets),
        algorithms=algorithms,
        repetitions=raw["repetitions"],
        base_seed=raw["base_seed"],
        output_dir=raw.get("output_dir", "results"),
        emit=emit,
        raw=raw,
    )


def load_config(path) -> BenchConfig:
    with open(path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return parse_config(raw)


def _pso_config(base: PsoConfig, params: dict) -> PsoConfig:
    overrides = {name: params[name] for name in PSO_PARAMS if name in params}
    if "inertia" in overrides:
        spec = overrides["inertia"]
        if isinstance(spec, str):
            spec = {"kind": spec}
        if spec["kind"] not in INERTIA_KINDS:
            raise ConfigError(f"unknown inertia kind {spec['kind']!r}")
        overrides["inertia"] = Inertia(**spec)
    return replace(base, **overrides)


def _sub_config(params: dict, k: Optional[int]) -> SubtractiveConfig:
    stop = params.get("stop", "fixed_k" if k is not None else "density_ratio")
    if stop == "fixed_k":
        if k is None:
            raise ConfigError("fixed_k seeding needs k (param or dataset k_true)")
        rule = FixedK(k)
    elif stop == "density_ratio":
        rule = DensityRatio(params.get("epsilon", 0.15))
    else:
        raise ConfigError(f"unknown stop rule {stop!r}")
    knobs = {f.name: params[f.name] for f in fields(SubtractiveConfig) if f.name in params}
    return SubtractiveConfig(stop_rule=rule, **knobs)


def run_cell(dataset: Dataset, algo: AlgorithmSpec, seed: int):
    """Run one grid cell; pure function of its arguments."""
    row = ALGORITHMS[algo.id]
    # Looked up in this module's namespace at call time, not bound in the
    # table, so that perfbench/tracer.py can wrap the entry points here.
    entry = globals()[row.entry]
    params = algo.params
    k = params.get("k", dataset.k_true)
    rng = Rng(seed)
    if row.seeding == "subtractive":
        return entry(dataset, _sub_config(params, k), _pso_config(row.pso, params), rng)
    if k is None:
        raise ConfigError(f"{algo.id} needs k (param or dataset k_true)")
    if row.pso is None:
        return entry(dataset, k, "random_points", rng, params.get("max_iter", 100))
    pso = _pso_config(row.pso, params)
    if row.seeding == "kmeans":
        return entry(dataset, k, pso, rng, params.get("kmeans_max_iter", 100))
    return entry(dataset, k, pso, rng)


def _execute_cell(args):
    name, dataset, algo, rep, seed = args
    record = {
        "dataset": name,
        "algorithm": algo.key,
        "rep": rep,
        "seed": seed,
        "status": "ok",
    }
    start = time.perf_counter()
    try:
        outcome = run_cell(dataset, algo, seed)
        stall = algo.params.get("stall_iters", PsoConfig.stall_iters)
        rel_tol = algo.params.get("rel_tol", PsoConfig.rel_tol)
        report = evaluation_report(outcome, dataset, "optimal", rel_tol, stall)
        record.update(
            k=int(outcome.centroids.shape[0]),
            sicd=float(outcome.sicd),
            error_percent=(
                None if report.error_rate_percent is None
                else float(report.error_rate_percent)
            ),
            iterations=int(outcome.iterations_used),
            iterations_to_converge=int(report.iterations_to_converge),
        )
        trace = [float(v) for v in outcome.sicd_trace]
    except Exception as exc:  # recorded per-cell, grid continues
        record["status"] = "error"
        record["error"] = f"{type(exc).__name__}: {exc}"
        trace = []
    record["wall_ms"] = (time.perf_counter() - start) * 1000.0
    return record, trace


def run_grid(
    config: BenchConfig,
    jobs: int = 1,
    dataset_filter: Optional[set] = None,
    algo_filter: Optional[set] = None,
) -> BenchReport:
    """Execute the full grid. Datasets must all load up front; individual
    cell failures are recorded and do not stop the grid."""
    loaded: dict[str, Dataset] = {}
    normalization: dict[str, Optional[dict]] = {}
    for spec in config.datasets:
        if dataset_filter and spec.name not in dataset_filter:
            continue
        dataset, record = load_dataset(spec)
        loaded[spec.name] = dataset
        normalization[spec.name] = record.to_dict() if record else None

    algorithms = [
        a for a in config.algorithms if not algo_filter or a.key in algo_filter
    ]
    if dataset_filter is not None and not loaded:
        raise ConfigError("dataset filter matched nothing")
    if algo_filter is not None and not algorithms:
        raise ConfigError("algorithm filter matched nothing")

    cells = []
    for spec in config.datasets:
        if spec.name not in loaded:
            continue
        for algo in algorithms:
            for rep in range(config.repetitions):
                seed = derive_seed(config.base_seed, spec.name, algo.key, rep)
                cells.append((spec.name, loaded[spec.name], algo, rep, seed))

    if jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_execute_cell, cells, chunksize=1))
    else:
        results = [_execute_cell(cell) for cell in cells]

    records = [rec for rec, _ in results]
    traces = {
        (rec["dataset"], rec["algorithm"], rec["rep"]): trace
        for rec, trace in results
        if trace
    }
    records.sort(key=lambda r: (r["dataset"], r["algorithm"], r["rep"]))
    failed = sum(1 for r in records if r["status"] != "ok")
    return BenchReport(
        schema_version=SCHEMA_VERSION,
        config=config.raw,
        records=records,
        aggregates=aggregate_records(records),
        normalization=normalization,
        versions={
            "swarmclust": __version__,
            "defaults_version": DEFAULTS_VERSION,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        traces=traces,
        failed_cells=failed,
    )


def aggregate_records(records: list) -> list:
    """Per-(dataset, algorithm) summary statistics over successful cells."""
    groups: dict[tuple, list] = {}
    for rec in records:
        groups.setdefault((rec["dataset"], rec["algorithm"]), []).append(rec)
    aggregates = []
    for (dataset, algorithm), group in sorted(groups.items()):
        ok = [r for r in group if r["status"] == "ok"]
        agg = {
            "dataset": dataset,
            "algorithm": algorithm,
            "cells": len(group),
            "failures": len(group) - len(ok),
        }
        if ok:
            sicds = np.array([r["sicd"] for r in ok])
            errors = [r["error_percent"] for r in ok if r["error_percent"] is not None]
            agg.update(
                sicd_mean=float(sicds.mean()),
                sicd_std=float(sicds.std()),
                sicd_best=float(sicds.min()),
                sicd_worst=float(sicds.max()),
                error_percent_mean=(
                    float(np.mean(errors)) if errors else None
                ),
                iterations_mean=float(np.mean([r["iterations"] for r in ok])),
                iterations_to_converge_mean=float(
                    np.mean([r["iterations_to_converge"] for r in ok])
                ),
            )
        aggregates.append(agg)
    return aggregates


def report_to_dict(report: BenchReport) -> dict:
    return {
        "schema_version": report.schema_version,
        "config": report.config,
        "versions": report.versions,
        "normalization": report.normalization,
        "records": report.records,
        "aggregates": report.aggregates,
        "failed_cells": report.failed_cells,
    }


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def emit_report(report: BenchReport, formats, out_dir) -> dict[str, Path]:
    """Write the requested report artifacts; returns format -> path."""
    unknown = set(formats) - set(EMIT_FORMATS)
    if unknown:
        raise ConfigError(f"unknown emit formats: {sorted(unknown)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}

    if "json" in formats:
        path = out / "report.json"
        _write_atomic(path, json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n")
        written["json"] = path

    if "csv" in formats:
        path = out / "records.csv"
        columns = [
            "dataset", "algorithm", "rep", "seed", "status", "k", "sicd",
            "error_percent", "iterations", "iterations_to_converge",
            "wall_ms", "error",
        ]
        lines = [",".join(columns)]
        for rec in report.records:
            row = []
            for col in columns:
                value = rec.get(col)
                if value is None:
                    row.append("")
                elif isinstance(value, float):
                    row.append(repr(value))
                else:
                    row.append(str(value))
            lines.append(",".join(row))
        _write_atomic(path, "\n".join(lines) + "\n")
        written["csv"] = path

    if "plot_data" in formats:
        path = out / "traces.csv"
        lines = ["dataset,algorithm,rep,iteration,sicd"]
        for (dataset, algorithm, rep), trace in sorted(report.traces.items()):
            for i, value in enumerate(trace):
                lines.append(f"{dataset},{algorithm},{rep},{i},{value!r}")
        _write_atomic(path, "\n".join(lines) + "\n")
        written["plot_data"] = path

    return written
