"""Benchmark harness: run (algorithm x dataset x repetition) grids and emit
reproducible reports.

Every cell derives its own seed from (base_seed, dataset name, algorithm
label, repetition), so results are independent of worker count and
completion order; reports serialize with sorted keys, making reruns
byte-identical apart from the record fields named in :data:`TIMING_FIELDS`.
:func:`strip_timings` removes those from the written artifacts, whose file
names :data:`ARTIFACT_FILES` gives, so that two reports can be compared
byte for byte.

Each report file is replaced in one ``os.replace`` of a temp file named for
the writing process (``report.json.<pid>.tmp``), so readers and a crashed
run see a whole old or new file, and two runs into one directory do not
share a temp file. Nothing is synced, so there is no promise across power
loss. ``bench run`` checks the output directory with :func:`check_out_dir`
before any cell runs.

All cells of a (dataset, algorithm entry) pair make the same call but for
the rng, a ``functools.partial`` of the pair's ``run_*`` entry point.
:func:`load_grid` resolves that call once per pair, for ``bench validate``
and :func:`run_grid` alike, and raises ``ConfigError`` for a pair no cell
could run. :func:`run_grid` hands each pair's call to its cells inside
their arguments, so ``--jobs`` workers get it too. Subtractive seeding
draws no random numbers, so :func:`run_grid` seeds each distinct (dataset,
:class:`~swarmclust.subtractive.SubtractiveConfig`) once, before any cell
runs and failures included; seeding time counts toward the grid's time,
not a cell's ``wall_ms``. A failed seeding (such as ``DegenerateInput``)
is the only error a pair passes on to its cells, each of which records it.

A Lloyd's-algorithm cell, and a cell whose seeding failed, runs alone
through its call. The swarm cells of a dataset run in stacks
(:func:`swarmclust.pipelines.run_stack`), one per (k, ``swarm_size``,
``c1``, ``c2``, ``v_max_fraction``), which shape a stack's arrays; at
``--jobs`` J above 1 each such group of cells is cut into ``min(J, cells)``
stacks of neighbouring cells, so that every worker has work. A stack
gives each cell the outcome it has alone, so reports do not depend on
how cells are stacked. If a stack raises, each of its cells runs again
alone, on a fresh ``Rng(seed)``, and records its own outcome or error;
the failed stack's time counts toward the grid's time, not a cell's.

A cell's ``wall_ms`` is the time spent on that cell: its own seeding (a
k-means pre-run), initialization, outcome and evaluation, timed per cell,
plus its share of each stacked iteration, whose time is split over the
stack's swarms in proportion to their rows. So the ``wall_ms`` of one
grid's cells add up to the grid's time in them, as before, but a cell's
``wall_ms`` depends on its stack-mates: ``cells_per_s`` is the figure to
compare across changes that stack cells differently.

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
from functools import partial
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
from .pipelines import (  # noqa: F401  (_resolve_call looks the run_* up by name)
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

# Each report format and the file it is written to in the output directory
ARTIFACT_FILES = {"json": "report.json", "csv": "records.csv", "plot_data": "traces.csv"}
EMIT_FORMATS = tuple(ARTIFACT_FILES)

# The record fields that hold wall-clock time: all that may differ between
# two runs of one config
TIMING_FIELDS = ("wall_ms",)

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
                            "kmeans_max_iter": field_rules(PsoConfig)["max_iter"],
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
        _, problem = _stop_of(params, params.get("k"))
        if problem:
            raise ConfigError(f"config invalid at algorithms/{i}/params: {problem}")

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
            if "expected" in entry:
                raise ConfigError("registry entries take their registry characteristics")
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
    """The BenchConfig of the YAML file at ``path``. A key given twice in
    one mapping raises ConfigError naming the file, line and key, where
    PyYAML alone keeps the last value; merge keys (``<<``) merge as before,
    a mapping's own key overriding a merged one."""
    import yaml  # here, so that a run from a parsed mapping never loads it

    class UniqueKeyLoader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            seen = set()
            for key_node, _ in node.value:
                if (isinstance(key_node, yaml.ScalarNode)
                        and key_node.tag != "tag:yaml.org,2002:merge"):
                    key = self.construct_object(key_node)
                    if key in seen:
                        raise ConfigError(f"{path}: line {key_node.start_mark.line + 1}: "
                                          f"key {key!r} given twice in one mapping")
                    seen.add(key)
            return super().construct_mapping(node, deep)

    with open(path, encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=UniqueKeyLoader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return parse_config(raw)


def _swarm_config(base: PsoConfig, params: dict) -> PsoConfig:
    overrides = {name: params[name] for name in PSO_PARAMS if name in params}
    if "inertia" in overrides:
        spec = overrides["inertia"]
        overrides["inertia"] = Inertia(**({"kind": spec} if isinstance(spec, str) else spec))
    return replace(base, **overrides)


def _stop_of(params: dict, k: Optional[int]) -> tuple[str, Optional[str]]:
    """(stop rule, problem) of an entry's ``params`` when its k is ``k``.
    The rule is the entry's ``stop``, else ``fixed_k`` when k is known and
    ``density_ratio`` when it is not. The problem names the param that rule
    has no use for, if the entry sets it (fixed_k takes no epsilon, and
    density_ratio picks k itself); otherwise it is None."""
    stop = params.get("stop", "fixed_k" if k is not None else "density_ratio")
    unused, other = ("epsilon", "density_ratio") if stop == "fixed_k" else ("k", "fixed_k")
    if unused not in params:
        return stop, None
    return stop, f"{unused} applies only to stop: {other}, but this entry seeds with stop: {stop}"


def _resolve_call(name: str, dataset: Dataset, algo: AlgorithmSpec) -> partial:
    """The call every cell of (``dataset``, ``algo``) makes as
    ``call(dataset, rng=rng)``: a partial of its ``run_*`` entry point that
    holds ``k`` (or a subtractive entry's ``sub_config``) and the swarm
    ``config``, and other keywords only where the params set them. Raises
    ConfigError for a pair no cell could run: a missing k, a k above the
    dataset's points or above ``max_centers``, or a param its stop rule
    would ignore, such as an epsilon beside the dataset's class count."""
    row = ALGORITHMS[algo.id]
    # Looked up in this module's namespace when a grid resolves its pairs,
    # so that perfbench/tracer.py can wrap the entry points here.
    entry = globals()[row.entry]
    params = algo.params
    k = params.get("k", dataset.k_true)
    pso = _swarm_config(row.pso, params) if row.pso is not None else None
    where = f"config invalid for algorithm {algo.key} on dataset {name}"
    stop, problem = _stop_of(params, k)
    uses_k = row.seeding != "subtractive" or stop == "fixed_k"
    if uses_k and k is None:
        raise ConfigError(f"{where}: needs k: set it in params, since the dataset "
                          "has no class count")
    if uses_k and k > dataset.n:
        raise ConfigError(f"{where}: k={k} exceeds the dataset's {dataset.n} points")
    if row.seeding != "subtractive":
        kwargs = {key: params[key] for key in SEEDING_PARAMS[row.seeding] if key in params}
        return partial(entry, k=k, **kwargs, **({} if pso is None else {"config": pso}))
    if problem:  # parse_config has rejected those it could see without the dataset
        raise ConfigError(f"{where}: {problem} from the dataset's {k} classes")
    rule = FixedK(k) if uses_k else DensityRatio(params.get("epsilon", DensityRatio.epsilon))
    knobs = {f.name: params[f.name] for f in fields(SubtractiveConfig) if f.name in params}
    try:
        sub_config = SubtractiveConfig(stop_rule=rule, **knobs)
    except ContractViolation as exc:  # a fixed k above max_centers
        raise ConfigError(f"{where}: {exc}") from None
    return partial(entry, sub_config=sub_config, config=pso)


def _execute_cell(args):
    """Run one cell alone, through its call: (record, trace)."""
    name, dataset, label, rep, seed, call = args
    start = time.perf_counter()
    try:
        if isinstance(call, Exception):  # the pair's seeding failed
            raise call
        outcome = call(dataset, rng=Rng(seed))
    except Exception as exc:  # recorded per-cell, grid continues
        outcome = exc
    return _cell_result(args, outcome, start)


def _cell_result(args, outcome, start: float, spent: float = 0.0):
    """(record, trace) of the cell ``args`` from its outcome, or from the
    exception that ended it. ``wall_ms`` counts from ``start`` and adds
    ``spent`` seconds already spent on the cell."""
    name, dataset, label, rep, seed, _ = args
    record = {
        "dataset": name,
        "algorithm": label,
        "rep": rep,
        "seed": seed,
        "status": "ok",
    }
    try:
        if isinstance(outcome, Exception):
            raise outcome
        record.update(
            k=int(outcome.centroids.shape[0]),
            sicd=float(outcome.sicd),
            error_percent=evaluation_report(outcome, dataset),
            iterations=int(outcome.iterations_used),
            iterations_to_converge=int(outcome.iterations_to_converge),
        )
        trace = [float(v) for v in outcome.sicd_trace]
    except Exception as exc:  # recorded per-cell, grid continues
        record["status"] = "error"
        record["error"] = f"{type(exc).__name__}: {exc}"
        trace = []
    record["wall_ms"] = (time.perf_counter() - start + spent) * 1000.0
    return record, trace


def _execute_stack(cells):
    """Run swarm cells of one dataset and k, each as (algorithm id, cell
    args), as one stack: [(record, trace)] in order. If the stack raises,
    each cell runs again alone, on a fresh ``Rng(seed)``, and records its
    own outcome or error (see the module docstring)."""
    dataset = cells[0][1][1]
    runs = [pipelines.SwarmRun(algo_id, Rng(args[4]), **args[5].keywords)
            for algo_id, args in cells]
    try:
        results = pipelines.run_stack(dataset, runs)
    except Exception:  # some swarm failed: each cell's rerun records its own error
        return [_execute_cell(args) for _, args in cells]
    return [_cell_result(args, result.outcome, time.perf_counter(), result.seconds)
            for (_, args), result in zip(cells, results)]


def _execute_unit(unit):
    """A lone cell's args, or a stack's list of cells: [(record, trace)]."""
    if isinstance(unit, list):
        return _execute_stack(unit)
    # through the module attribute, so that perfbench/tracer.py times it
    return [_execute_cell(unit)]


def _work_units(cells, jobs: int) -> list:
    """The grid's cells, each as (algorithm id, cell args), as the units
    :func:`_execute_unit` runs: every cell without a swarm (Lloyd's
    algorithm) or whose seeding failed alone, and the swarm cells of each
    (dataset, k, swarm_size, c1, c2, v_max_fraction) as one stack, cut into
    ``min(jobs, cells)`` stacks of contiguous cells when ``jobs`` > 1."""
    units, groups = [], {}
    for algo_id, args in cells:
        call = args[5]
        if ALGORITHMS[algo_id].pso is None or isinstance(call, Exception):
            units.append(args)
            continue
        keywords = call.keywords
        config = keywords["config"]
        k = keywords["seeding"].k if "seeding" in keywords else keywords["k"]
        key = (args[0], k, config.swarm_size, config.c1, config.c2, config.v_max_fraction)
        groups.setdefault(key, []).append((algo_id, args))
    for group in groups.values():
        parts = min(jobs, len(group))
        units += [group[len(group) * i // parts:len(group) * (i + 1) // parts]
                  for i in range(parts)]
    return units


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
        if (sub := call.keywords.get("sub_config")) is not None:
            if (name, sub) not in seedings:
                try:
                    # through the module attribute, so perfbench/tracer.py times it
                    seedings[name, sub] = pipelines.select_centers(loaded[name], sub)
                except Exception as exc:  # recorded by each of the pair's cells
                    seedings[name, sub] = exc
            seeding = seedings[name, sub]
            call = seeding if isinstance(seeding, Exception) else partial(
                call, sub_config=None, seeding=seeding)
        for rep in range(config.repetitions):
            seed = derive_seed(config.base_seed, name, algo.key, rep)
            cells.append((algo.id, (name, loaded[name], algo.key, rep, seed, call)))

    units = _work_units(cells, jobs)
    if jobs > 1 and len(units) > 1:
        with _process_pool(jobs) as pool:
            done = list(pool.map(_execute_unit, units, chunksize=1))
    else:
        done = [_execute_unit(unit) for unit in units]
    results = [result for unit in done for result in unit]

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
    """Every field of ``report`` but ``traces``, which go to their own file."""
    return {f.name: getattr(report, f.name) for f in fields(BenchReport) if f.name != "traces"}


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
    """Write the requested report artifacts to their :data:`ARTIFACT_FILES`
    in ``out_dir``; returns format -> path. report.json holds one key a
    line, which :func:`strip_timings` relies on."""
    unknown = set(formats) - set(EMIT_FORMATS)
    if unknown:
        raise ConfigError(f"unknown emit formats: {sorted(unknown)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = {fmt: out / ARTIFACT_FILES[fmt] for fmt in EMIT_FORMATS if fmt in formats}

    if "json" in written:
        _write_atomic(written["json"],
                      json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n")

    if "csv" in written:
        columns = [
            "dataset", "algorithm", "rep", "seed", "status", "k", "sicd",
            "error_percent", "iterations", "iterations_to_converge",
            "wall_ms", "error",
        ]
        rows = [columns]
        for rec in report.records:
            # a missing value is an empty cell; a float's str is its repr
            rows.append(["" if rec.get(col) is None else str(rec[col]) for col in columns])
        _write_atomic(written["csv"], _csv_text(rows))

    if "plot_data" in written:
        rows = [["dataset", "algorithm", "rep", "iteration", "sicd"]]
        for (dataset, algorithm, rep), trace in sorted(report.traces.items()):
            for i, value in enumerate(trace):
                rows.append([dataset, algorithm, str(rep), str(i), repr(value)])
        _write_atomic(written["plot_data"], _csv_text(rows))

    return written


def strip_timings(paths) -> dict[str, bytes]:
    """The bytes of each artifact in ``paths`` (format -> path, as
    :func:`emit_report` returns them) without the :data:`TIMING_FIELDS`:
    their lines go from report.json and their columns from records.csv,
    which is read as CSV, so that a cell holding a comma keeps its column.
    traces.csv holds no timing and comes back as it is."""
    keys = tuple(f'"{name}":'.encode() for name in TIMING_FIELDS)
    stripped = {}
    for fmt, path in paths.items():
        data = Path(path).read_bytes()
        if fmt == "json":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.lstrip().startswith(keys))
        elif fmt == "csv":
            rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
            keep = [i for i, name in enumerate(rows[0]) if name not in TIMING_FIELDS]
            data = _csv_text([[row[i] for i in keep] for row in rows]).encode("utf-8")
        stripped[fmt] = data
    return stripped
