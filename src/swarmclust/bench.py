"""Benchmark harness: run (algorithm x dataset x repetition) grids and emit
reproducible reports.

Every cell derives its own seed from (base_seed, dataset name, algorithm
label, repetition), so results are independent of worker count and
completion order; reports are written atomically and serialize with sorted
keys, making reruns byte-identical apart from wall-clock fields.

All cells of a (dataset, algorithm entry) pair make the same call but for
the rng. After :func:`load_grid`, :func:`run_grid` prepares that call once
per pair, before any cell runs, and hands it to the pair's cells inside
their arguments, so ``--jobs`` workers get it too. Subtractive seeding
draws no random numbers, so preparing seeds each distinct (dataset,
:class:`~swarmclust.subtractive.SubtractiveConfig`) once, failures
included, and the seeding time counts toward the grid's time but not
toward any cell's ``wall_ms``. A pair that cannot be prepared keeps its
exception, which each of its cells records as its error.

:func:`parse_config` checks a config against :data:`CONFIG_SCHEMA` with
the in-house :class:`~swarmclust.schema.SchemaChecker`, which reports the
error and wording ``jsonschema`` would. Modules a round from a parsed
mapping at one job does not use are imported where they are used: PyYAML
by :func:`load_config` and the process pool (``multiprocessing``) by
``--jobs`` above 1.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import __version__, core, pipelines
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
from .pipelines import (  # noqa: F401  (_execute_cell calls the run_* by name)
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
from .schema import SchemaChecker
from .subtractive import DensityRatio, FixedK, SubtractiveConfig
from .swarm import BOUNDARIES, INERTIA_KINDS, Inertia, PsoConfig

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

SCHEMA_VERSION = 1

EMIT_FORMATS = ("json", "csv", "plot_data")

STOP_RULES = ("fixed_k", "density_ratio")

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
                    # values only: the keys each id accepts are checked
                    # against its ALGORITHMS row in parse_config. The ranges
                    # and names are those PsoConfig, Inertia, _sub_config,
                    # SubtractiveConfig and DensityRatio take, so a bad value
                    # fails here instead of in every cell.
                    "params": {
                        "type": "object",
                        "properties": {
                            "boundary": {"type": "string", "enum": list(BOUNDARIES)},
                            "c1": {"type": "number", "minimum": 0},
                            "c2": {"type": "number", "minimum": 0},
                            "epsilon": {
                                "type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1,
                            },
                            "inertia": {
                                "type": ["string", "object"],
                                # an enum beside the type would reject mappings
                                "if": {"type": "string"},
                                "then": {"enum": list(INERTIA_KINDS)},
                                "required": ["kind"],
                                "properties": {
                                    "kind": {"type": "string", "enum": list(INERTIA_KINDS)},
                                    "w_max": {"type": "number", "minimum": 0},
                                    "w_min": {"type": "number", "minimum": 0},
                                },
                            },
                            "k": {"type": "integer", "minimum": 1},
                            "kmeans_max_iter": {"type": "integer", "minimum": 1},
                            "max_centers": {"type": "integer", "minimum": 1},
                            "max_iter": {"type": "integer", "minimum": 1},
                            "r_a": {"type": "number", "exclusiveMinimum": 0},
                            "r_b": {"type": "number", "exclusiveMinimum": 0},
                            "rel_tol": {"type": "number"},
                            "stall_iters": {"type": "integer", "minimum": 1},
                            "stop": {"type": "string", "enum": list(STOP_RULES)},
                            "swarm_size": {"type": "integer", "minimum": 2},
                            "v_max_fraction": {
                                "type": ["number", "null"], "exclusiveMinimum": 0, "maximum": 1,
                            },
                        },
                    },
                },
            },
        },
    },
}

# Built once, at import, which fails if the schema goes beyond the keywords
# the checker supports. Its integers take only Python ints, not 2.0.
CONFIG_CHECKER = SchemaChecker(CONFIG_SCHEMA)


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
    error = CONFIG_CHECKER.best_error(raw)
    if error is not None:
        path, message = error
        where = "/".join(str(p) for p in path) or "<root>"
        raise ConfigError(f"config invalid at {where}: {message}")
    for i, entry in enumerate(raw["algorithms"]):
        params = entry.get("params", {})
        unknown = ALGORITHMS[entry["id"]].unknown_params(params)
        if unknown:
            raise ConfigError(
                f"config invalid at algorithms/{i}/params: unknown keys {unknown}"
            )
        # fixed_k seeding has no use for epsilon; density_ratio picks k itself
        stop = _stop_of(params, params.get("k"))
        if "epsilon" in params and stop == "fixed_k":
            raise ConfigError(
                f"config invalid at algorithms/{i}/params: epsilon applies only to "
                "stop: density_ratio, but this entry seeds with stop: fixed_k"
            )
        if "k" in params and stop == "density_ratio":
            raise ConfigError(
                f"config invalid at algorithms/{i}/params: k applies only to "
                "stop: fixed_k, but this entry seeds with stop: density_ratio"
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
                expected = _from_mapping(Expected, entry["expected"])
            if "csv" in entry:
                source = _from_mapping(CsvSource, entry["csv"])
            else:
                source = _from_mapping(SyntheticSource, entry["synthetic"])
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


def _from_mapping(cls, mapping: dict):
    """``cls`` built from a schema-checked mapping of its field names, with
    lists as tuples."""
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in mapping.items()})


def load_config(path) -> BenchConfig:
    import yaml  # here, so that a run from a parsed mapping never loads it

    with open(path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return parse_config(raw)


def _pso_config(base: PsoConfig, params: dict) -> PsoConfig:
    overrides = {name: params[name] for name in PSO_PARAMS if name in params}
    if "inertia" in overrides:
        spec = overrides["inertia"]
        overrides["inertia"] = Inertia(**({"kind": spec} if isinstance(spec, str) else spec))
    return replace(base, **overrides)


def _stop_of(params: dict, k: Optional[int]) -> str:
    """The stop rule an entry seeds with: its ``stop``, else ``fixed_k``
    when k is known and ``density_ratio`` when it is not."""
    return params.get("stop", "fixed_k" if k is not None else "density_ratio")


def _sub_config(params: dict, k: Optional[int]) -> SubtractiveConfig:
    if _stop_of(params, k) == "fixed_k":
        if k is None:
            raise ConfigError("fixed_k seeding needs k (param or dataset k_true)")
        rule = FixedK(k)
    else:
        rule = DensityRatio(params["epsilon"]) if "epsilon" in params else DensityRatio()
    knobs = {f.name: params[f.name] for f in fields(SubtractiveConfig) if f.name in params}
    return SubtractiveConfig(stop_rule=rule, **knobs)


def check_seeding_params(algorithms, loaded: dict) -> None:
    """Raise ConfigError for an entry that sets ``epsilon`` with neither
    ``stop`` nor ``k`` (parse_config rejects the rest) where a dataset's
    class count makes it seed with ``fixed_k``, which ignores ``epsilon``."""
    for algo in algorithms:
        params = algo.params
        if "epsilon" not in params:
            continue
        for name, dataset in loaded.items():
            if _stop_of(params, params.get("k", dataset.k_true)) == "fixed_k":
                raise ConfigError(
                    f"config invalid for algorithm {algo.key} on dataset {name}: "
                    "epsilon applies only to stop: density_ratio, but this entry seeds "
                    f"with stop: fixed_k from the dataset's {dataset.k_true} classes"
                )


def check_k_params(algorithms, loaded: dict) -> None:
    """Raise ConfigError for an entry whose ``k`` param exceeds a dataset's
    point count: no algorithm can place more centers than there are points."""
    for algo in algorithms:
        k = algo.params.get("k")
        for name, dataset in loaded.items():
            if k is not None and k > dataset.n:
                raise ConfigError(
                    f"config invalid for algorithm {algo.key} on dataset {name}: "
                    f"k={k} exceeds the dataset's {dataset.n} points"
                )


def _prepare_call(name: str, dataset: Dataset, algo: AlgorithmSpec, seedings: dict):
    """The call every cell of (``dataset``, ``algo``) makes: the entry-point
    name, the positional arguments after the dataset and the keyword
    arguments other than the rng. A subtractive entry's seeding comes from
    ``seedings`` ((dataset name, SubtractiveConfig) -> SeedingResult or the
    exception seeding raised), filled on first use."""
    row = ALGORITHMS[algo.id]
    params = algo.params
    k = params.get("k", dataset.k_true)
    if row.seeding == "subtractive":
        sub = _sub_config(params, k)
        pso = _pso_config(row.pso, params)
        if (name, sub) not in seedings:
            try:
                # through the module attribute, so perfbench/tracer.py times it
                seedings[name, sub] = pipelines.select_centers(dataset, sub)
            except Exception as exc:
                seedings[name, sub] = exc
        seeding = seedings[name, sub]
        if isinstance(seeding, Exception):
            raise seeding
        return row.entry, (None, pso), {"seeding": seeding}
    if k is None:
        raise ConfigError(f"{algo.id} needs k (param or dataset k_true)")
    if row.pso is None:
        return row.entry, (k, "random_points"), {"max_iter": params.get("max_iter", 100)}
    pso = _pso_config(row.pso, params)
    if row.seeding == "kmeans":
        return row.entry, (k, pso), {"kmeans_max_iter": params.get("kmeans_max_iter", 100)}
    return row.entry, (k, pso), {}


def _execute_cell(args):
    name, dataset, algo, rep, seed, call = args
    record = {
        "dataset": name,
        "algorithm": algo.key,
        "rep": rep,
        "seed": seed,
        "status": "ok",
    }
    start = time.perf_counter()
    try:
        if isinstance(call, Exception):  # the pair could not be prepared
            raise call
        entry, entry_args, kwargs = call
        # Looked up in this module's namespace at call time, so that
        # perfbench/tracer.py can wrap the entry points here.
        outcome = globals()[entry](dataset, *entry_args, rng=Rng(seed), **kwargs)
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


def _process_pool(jobs: int) -> ProcessPoolExecutor:
    """``jobs`` grid workers, each splitting its kernels over its share of
    the kernel threads, so that jobs x threads does not exceed the CPUs."""
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    return ProcessPoolExecutor(
        max_workers=jobs,
        initializer=core.set_kernel_workers,
        initargs=(max(1, core.KERNEL_WORKERS // jobs),),
    )


def load_grid(config: BenchConfig, algorithms, dataset_filter: Optional[set] = None):
    """Load the datasets (those in ``dataset_filter``, if given) and check
    the ``k`` and seeding params against them, for ``bench validate`` and
    :func:`run_grid` alike: (name -> Dataset, name -> normalization)."""
    loaded: dict[str, Dataset] = {}
    normalization: dict[str, Optional[dict]] = {}
    for spec in config.datasets:
        if dataset_filter and spec.name not in dataset_filter:
            continue
        dataset, record = load_dataset(spec)
        loaded[spec.name] = dataset
        normalization[spec.name] = record.to_dict() if record else None
    if dataset_filter is not None and not loaded:
        raise ConfigError("dataset filter matched nothing")
    check_k_params(algorithms, loaded)
    check_seeding_params(algorithms, loaded)
    return loaded, normalization


def run_grid(
    config: BenchConfig,
    jobs: int = 1,
    dataset_filter: Optional[set] = None,
    algo_filter: Optional[set] = None,
) -> BenchReport:
    """Execute the full grid. Datasets must all load up front, and each
    (dataset, algorithm) pair's call is prepared once before the first cell
    (see the module docstring); individual cell failures are recorded and
    do not stop the grid."""
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    algorithms = [
        a for a in config.algorithms if not algo_filter or a.key in algo_filter
    ]
    loaded, normalization = load_grid(config, algorithms, dataset_filter)
    if algo_filter is not None and not algorithms:
        raise ConfigError("algorithm filter matched nothing")

    seedings: dict = {}
    cells = []
    for name, dataset in loaded.items():
        for algo in algorithms:
            try:
                call = _prepare_call(name, dataset, algo, seedings)
            except Exception as exc:  # recorded by each of the pair's cells
                call = exc
            for rep in range(config.repetitions):
                seed = derive_seed(config.base_seed, name, algo.key, rep)
                cells.append((name, dataset, algo, rep, seed, call))

    if jobs > 1 and len(cells) > 1:
        with _process_pool(jobs) as pool:
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
