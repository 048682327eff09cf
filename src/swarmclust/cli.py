"""Command line benchmark harness.

    bench run --config <file-or-preset> [--out DIR] [--jobs N] [--filter ...]
    bench validate --config <file-or-preset>
    bench list-datasets
    bench list-algorithms

Exit codes: 0 success, 1 one or more cells failed, 2 configuration or
dataset loading errors. ``--config`` accepts a YAML file path or the name of
a packaged preset (``paper_protocol``, ``fixtures``). The output directory
and worker count can also come from the SWARMCLUST_OUT_DIR and
SWARMCLUST_JOBS environment variables; a worker count below 1, or an
output directory that is not a directory and cannot be created, exits 2
before any cell runs.
"""

from __future__ import annotations

import sys
from importlib import resources
from pathlib import Path

import click

from .bench import ConfigError, check_out_dir, emit_report, load_config, load_grid, run_grid
from .data import LoadError, REGISTRY, default_data_dir, registry_available
from .pipelines import ALGORITHMS


def _resolve_config(name: str) -> Path:
    path = Path(name)
    if path.exists():
        return path
    preset = resources.files("swarmclust").joinpath("presets", f"{name}.yaml")
    if preset.is_file():
        return Path(str(preset))
    raise ConfigError(f"no such config file or preset: {name}")


def _load(config_name: str):
    try:
        return load_config(_resolve_config(config_name))
    except (ConfigError, LoadError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


def _parse_filters(filters) -> tuple:
    datasets, algos = set(), set()
    for clause in filters:
        for part in clause.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ConfigError(f"bad filter {part!r}, expected key=value")
            key, value = part.split("=", 1)
            if key not in ("dataset", "algo", "algorithm"):
                raise ConfigError(f"unknown filter key {key!r}")
            values = value.split("|")
            if "" in values:  # such as "dataset=$DS" with DS unset
                raise ConfigError(f"empty value in filter {part!r}")
            (datasets if key == "dataset" else algos).update(values)
    return (datasets or None, algos or None)


@click.group()
@click.version_option()
def main():
    """Benchmark harness for swarm-based clustering algorithms."""


@main.command("run")
@click.option("--config", "config_name", required=True, help="Config file or preset name.")
@click.option("--out", envvar="SWARMCLUST_OUT_DIR", default=None,
              help="Output directory (overrides the config).")
@click.option("--jobs", envvar="SWARMCLUST_JOBS", default=1, type=click.IntRange(min=1),
              show_default=True,
              help="Worker processes; results are identical for any value.")
@click.option("--filter", "filters", multiple=True,
              help="Restrict cells, e.g. 'dataset=iris,algo=pso|brapso'. Repeatable.")
def run(config_name, out, jobs, filters):
    """Run the benchmark grid and write reports."""
    config = _load(config_name)
    out_dir = out or config.output_dir
    try:
        check_out_dir(out_dir)
        dataset_filter, algo_filter = _parse_filters(filters)
        report = run_grid(config, jobs=jobs, dataset_filter=dataset_filter,
                          algo_filter=algo_filter)
    except (ConfigError, LoadError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    written = emit_report(report, config.emit, out_dir)
    for fmt, path in sorted(written.items()):
        click.echo(f"wrote {fmt}: {path}")
    ok = len(report.records) - report.failed_cells
    click.echo(f"{ok}/{len(report.records)} cells ok")
    if report.failed_cells:
        for rec in report.records:
            if rec["status"] != "ok":
                click.echo(
                    f"failed: {rec['dataset']}/{rec['algorithm']}/rep{rec['rep']}: "
                    f"{rec['error']}",
                    err=True,
                )
        sys.exit(1)


@main.command("validate")
@click.option("--config", "config_name", required=True, help="Config file or preset name.")
def validate_cmd(config_name):
    """Check a config against the schema, verify datasets load and resolve
    every (dataset, algorithm) pair's plan, as ``run`` does."""
    config = _load(config_name)
    try:
        loaded, _, plans = load_grid(config, config.algorithms)
    except (ConfigError, LoadError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    for name, dataset in loaded.items():
        click.echo(f"dataset {name}: N={dataset.n}, d={dataset.d} ok")
    click.echo(f"config ok: {len(plans) * config.repetitions} cells")


@main.command("list-datasets")
def list_datasets():
    """Show the dataset registry and local availability."""
    data_dir = default_data_dir()
    click.echo(f"data directory: {data_dir}")
    for name, exp in sorted(REGISTRY.items()):
        status = "present" if registry_available(name, data_dir) else "missing"
        sizes = ",".join(str(s) for s in exp.class_sizes)
        click.echo(
            f"{name:10s} N={exp.n:<5d} d={exp.d:<3d} k={exp.k} sizes=({sizes}) [{status}]"
        )


@main.command("list-algorithms")
def list_algorithms():
    """Show available algorithm ids."""
    for row in ALGORITHMS.values():
        click.echo(f"{row.id:12s} {row.summary}")


if __name__ == "__main__":
    main()
