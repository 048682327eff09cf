"""Benchmark harness: run (algorithm x dataset x repetition) grids and emit
reproducible reports.

Every cell derives its own seed from (base_seed, dataset name, algorithm
label, repetition), so results are independent of worker count and
completion order; reports serialize with sorted keys, making reruns
byte-identical apart from wall-clock fields.

Each report file is replaced in one ``os.replace`` of a temp file named for
the writing process (``report.json.<pid>.tmp``), so readers and a crashed
run see a whole old or new file, and two runs into one directory do not
share a temp file. Nothing is synced, so there is no promise across power
loss. ``bench run`` checks the output directory with :func:`check_out_dir`
before any cell runs.

All cells of a (dataset, algorithm entry) pair make the same call but for
the rng. :func:`load_grid` resolves that call once per pair, for ``bench
validate`` and :func:`run_grid` alike, and raises ``ConfigError`` for a
pair no cell could run. :func:`run_grid` hands each pair's call to its
cells inside their arguments, so ``--jobs`` workers get it too. Subtractive
seeding draws no random numbers, so :func:`run_grid` seeds each distinct
(dataset, :class:`~swarmclust.subtractive.SubtractiveConfig`) once, before
any cell runs and failures included; the seeding time counts toward the
grid's time but not toward any cell's ``wall_ms``. A failed seeding (such
as ``DegenerateInput``) is the only error a pair passes on to its cells,
each of which records it as its error.

:func:`parse_config` checks a config against :data:`CONFIG_SCHEMA` with
the in-house :class:`~swarmclust.schema.SchemaChecker`, which reports the
error and wording ``jsonschema`` would. Modules a round from a parsed
mapping at one job does not use are imported where they are used: PyYAML
by :func:`load_config` and the process pool (``multiprocessing``) by
``--jobs`` above 1.
"""

from __future__ import annotations

import csv
import io
import json
import os
import platform
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import __version__, core, pipelines
from .core import ContractViolation, Dataset, Rng, derive_seed
from .data import (
    REGISTRY,
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
    SEEDING_PARAMS,
    run_brapso,
    run_kmeans,
    run_kmeans_pso,
    run_pso,
    run_sc_br_apso,
    run_subtractive_pso,
)
from .schema import SchemaChecker, field_rules
from .subtractive import DensityRatio, FixedK, SubtractiveConfig
from .swarm import INERTIA_KINDS, Inertia, PsoConfig

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

SCHEMA_VERSION = 1

EMIT_FORMATS = ("json", "csv", "plot_data")

STOP_RULES = ("fixed_k", "density_ratio")


def _mapping_of(cls) -> dict:
    """Schema of a mapping of the dataclass ``cls``'s fields, those without a default required."""
    return {"type": "object",
            "required": [f.name for f in fields(cls) if f.default is f.default_factory is MISSING],
            "additionalProperties": False, "properties": field_rules(cls)}


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
                    "registry": {"type": "string", "enum": list(REGISTRY)},
                    "name": {"type": "string"},
                    "normalize": {"type": "boolean"},
                    "csv": _mapping_of(CsvSource),
                    # values only: SyntheticSource checks the keys each kind takes
                    "synthetic": _mapping_of(SyntheticSource),
                    "expected": _mapping_of(Expected),
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
                    # against its ALGORITHMS row in parse_config. A key that
                    # sets a dataclass field takes that field's rule, so a
                    # value the library would refuse fails here instead of
                    # in every cell.
                    "params": {
                        "type": "object",
                        "properties": {
                            **field_rules(PsoConfig), **field_rules(SubtractiveConfig),
                            **field_rules(DensityRatio), **field_rules(FixedK),
                            "inertia": {
                                **_mapping_of(Inertia),
                                "type": ["string", "object"],
                                # an enum beside the type would reject mappings
                                "if": {"type": "string"},
                                "then": {"enum": list(INERTIA_KINDS)},
                            },
                            "kmeans_max_iter": {"type": "integer", "minimum": 1},
                            "stop": {"type": "string", "enum": list(STOP_RULES)},
                        },
                    },
                },
            },
        },
    },
}

# Built once, at import, which fails if the schema goes beyond the keywords
# the checker supports. Its integers take no integral float (2.0).
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
        unknown = sorted(set(params) - ALGORITHMS[entry["id"]].param_names)
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
    for i, entry in enumerate(raw["datasets"]):
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
                try:
                    source = _from_mapping(SyntheticSource, entry["synthetic"])
                except ContractViolation as exc:  # a param its kind does not take
                    raise ConfigError(f"config invalid at datasets/{i}/synthetic/{exc}") from None
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
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}") from None
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


def _resolve_call(name: str, dataset: Dataset, algo: AlgorithmSpec):
    """The call every cell of (``dataset``, ``algo``) makes but for its rng:
    (entry-point name, positional arguments after the dataset, keyword
    arguments), with keyword arguments only where the params set them. A
    subtractive entry's positional arguments are its SubtractiveConfig and
    PsoConfig. Raises ConfigError for a pair no cell could run: a missing
    k, a k above the dataset's points, or an epsilon that fixed_k seeding
    would ignore."""
    row = ALGORITHMS[algo.id]
    params = algo.params
    k = params.get("k", dataset.k_true)
    pso = _pso_config(row.pso, params) if row.pso is not None else None
    where = f"config invalid for algorithm {algo.key} on dataset {name}"
    uses_k = row.seeding != "subtractive" or _stop_of(params, k) == "fixed_k"
    if uses_k and k is None:
        raise ConfigError(f"{where}: needs k: set it in params, since the dataset "
                          "has no class count")
    if uses_k and k > dataset.n:
        raise ConfigError(f"{where}: k={k} exceeds the dataset's {dataset.n} points")
    if row.seeding != "subtractive":
        kwargs = {key: params[key] for key in SEEDING_PARAMS[row.seeding] if key in params}
        return row.entry, (k,) if pso is None else (k, pso), kwargs
    if not uses_k:
        rule = DensityRatio(params.get("epsilon", DensityRatio.epsilon))
    elif "epsilon" in params:  # parse_config has rejected it beside stop or k
        raise ConfigError(
            f"{where}: epsilon applies only to stop: density_ratio, but this entry seeds "
            f"with stop: fixed_k from the dataset's {dataset.k_true} classes"
        )
    else:
        rule = FixedK(k)
    knobs = {f.name: params[f.name] for f in fields(SubtractiveConfig) if f.name in params}
    return row.entry, (SubtractiveConfig(stop_rule=rule, **knobs), pso), {}


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
        if isinstance(call, Exception):  # the pair's seeding failed
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
    """Load the datasets (those in ``dataset_filter``, if given) and resolve
    each (dataset, algorithm entry) pair's call, for ``bench validate`` and
    :func:`run_grid` alike: (name -> Dataset, name -> normalization,
    [(name, AlgorithmSpec, call)]). Raises ConfigError or LoadError."""
    loaded: dict[str, Dataset] = {}
    normalization: dict[str, Optional[dict]] = {}
    for spec in config.datasets:
        if dataset_filter and spec.name not in dataset_filter:
            continue
        try:
            dataset, record = load_dataset(spec)
        except ContractViolation as exc:  # make_blobs: fewer points than blobs
            raise ConfigError(f"config invalid for dataset {spec.name}: {exc}") from None
        loaded[spec.name] = dataset
        normalization[spec.name] = record.to_dict() if record else None
    calls = [(name, algo, _resolve_call(name, dataset, algo))
             for name, dataset in loaded.items() for algo in algorithms]
    return loaded, normalization, calls


def run_grid(
    config: BenchConfig,
    jobs: int = 1,
    dataset_filter: Optional[set] = None,
    algo_filter: Optional[set] = None,
) -> BenchReport:
    """Execute the grid, or its cells of the dataset names and algorithm
    labels the filters give, each of which must be in the config. Datasets
    must all load and every pair's call resolve up front, and each distinct
    seeding runs once before the first cell (see the module docstring);
    individual cell failures are recorded and do not stop the grid."""
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    unmatched = [f"dataset={name}" for name in sorted(
        set(dataset_filter or ()) - {spec.name for spec in config.datasets})]
    unmatched += [f"algo={key}" for key in sorted(
        set(algo_filter or ()) - {a.key for a in config.algorithms})]
    if unmatched:
        raise ConfigError(f"filter values match nothing in the config: {', '.join(unmatched)}")
    algorithms = [
        a for a in config.algorithms if not algo_filter or a.key in algo_filter
    ]
    loaded, normalization, calls = load_grid(config, algorithms, dataset_filter)

    seedings: dict = {}  # (dataset name, SubtractiveConfig) -> result or exception
    cells = []
    for name, algo, call in calls:
        entry, args, _ = call
        if ALGORITHMS[algo.id].seeding == "subtractive":
            sub, pso = args
            if (name, sub) not in seedings:
                try:
                    # through the module attribute, so perfbench/tracer.py times it
                    seedings[name, sub] = pipelines.select_centers(loaded[name], sub)
                except Exception as exc:  # recorded by each of the pair's cells
                    seedings[name, sub] = exc
            seeding = seedings[name, sub]
            call = seeding if isinstance(seeding, Exception) else (
                entry, (None, pso), {"seeding": seeding})
        for rep in range(config.repetitions):
            seed = derive_seed(config.base_seed, name, algo.key, rep)
            cells.append((name, loaded[name], algo, rep, seed, call))

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


def check_out_dir(out_dir) -> None:
    """Raise ConfigError unless ``out_dir`` is a directory or could be made
    as one: its nearest existing ancestor must be a writable directory.
    Creates nothing, so that a run can refuse it before any cell."""
    path = Path(out_dir).absolute()
    ancestor = path
    while not os.path.lexists(ancestor):
        ancestor = ancestor.parent
    if not ancestor.is_dir():
        raise ConfigError(f"cannot use output directory {out_dir}: {ancestor} is not a directory")
    if not os.access(ancestor, os.W_OK | os.X_OK):
        raise ConfigError(f"cannot use output directory {out_dir}: {ancestor} is not writable")


def _write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` as UTF-8 through this process's temp
    file beside it, removed if the write or the replace fails (see the
    module docstring). The blocks are preallocated because ext4 writes a
    renamed file's delayed-allocation data out at once when the rename
    replaces another file, which cost 50-75 ms per replace and about
    200 ms per three-file report."""
    data = text.encode("utf-8")
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            if data and hasattr(os, "posix_fallocate"):  # not on macOS
                os.posix_fallocate(fh.fileno(), 0, len(data))
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _csv_text(rows) -> str:
    """``rows`` of text cells as CSV, one newline-ended line a row. A cell
    holding a comma, a quote or a line break is quoted, so that names and
    error messages keep their column; other cells are written as they are."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


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
        rows = [columns]
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
            rows.append(row)
        _write_atomic(path, _csv_text(rows))
        written["csv"] = path

    if "plot_data" in formats:
        path = out / "traces.csv"
        rows = [["dataset", "algorithm", "rep", "iteration", "sicd"]]
        for (dataset, algorithm, rep), trace in sorted(report.traces.items()):
            for i, value in enumerate(trace):
                rows.append([dataset, algorithm, str(rep), str(i), repr(value)])
        _write_atomic(path, _csv_text(rows))
        written["plot_data"] = path

    return written
