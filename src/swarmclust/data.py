"""Dataset ingestion, min-max normalization, the benchmark dataset registry,
and synthetic fixture generators.

Real datasets are not bundled. ``scripts/fetch_datasets.py`` downloads them
and rewrites each one into the canonical local form the registry expects:
comma-separated, header row, numeric feature columns, and a final ``class``
column. Registry loading validates the advertised (N, d, k, class sizes)
characteristics exactly and fails loudly on any mismatch; class sizes are
compared as multisets because the within-file class order is arbitrary.

The spec dataclasses are :class:`~swarmclust.core.Checked`: they check
themselves when built, by the field rules the benchmark config schema is
built from, so a bad spec fails before any load.

Min-max normalization records each column's min and max and nothing
derived from them: a :class:`NormalizationRecord`'s constant columns are
those whose max equals their min.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .core import Checked, ContractViolation, Dataset, Rng
from .schema import rule

DATA_DIR_ENV = "SWARMCLUST_DATA"


class LoadError(RuntimeError):
    """A dataset failed to parse or to match its declared characteristics."""


@dataclass(frozen=True)
class CsvSource(Checked):
    """A delimited text file: optional header, label column by index or name.

    Column indices refer to the raw file columns. ``drop_columns`` discards
    bookkeeping columns (row ids) before features are read. Feature fields
    matching ``na_values`` either drop the whole row (``na_policy="drop"``)
    or abort the load with the offending row number (``"error"``).
    """

    path: str = rule(type="string")
    label_column: Union[int, str, None] = rule(None, type=["integer", "string", "null"])
    delimiter: str = rule(",", type="string")
    header: bool = rule(False, type="boolean")
    drop_columns: tuple = rule((), type="array", items={"type": "integer"})
    na_values: tuple = rule((), type="array", items={"type": "string"})
    na_policy: str = rule("error", enum=["error", "drop"])


# Each synthetic kind's params and their defaults.
SYNTHETIC_PARAMS = {
    "two_blob": {"n": 20, "d": 2, "sep": 10.0, "spread": 0.1},
    "grid": {"n": 24, "d": 2, "side": 2, "scale": 10.0, "spread": 0.1},
    "art_like": {"n": 60, "d": 2, "k": 3, "box": 10.0, "spread": 0.1},
}
# Each param's rule, typed by its defaults: an integer of at least 1 where
# the default is an int, a number where it is a float, and for the widths
# box and spread a number of at least 0.
SYNTHETIC_RULES = {
    name: {"type": "integer", "minimum": 1} if isinstance(default, int)
    else {"type": "number", "minimum": 0} if name in ("box", "spread")
    else {"type": "number"}
    for table in SYNTHETIC_PARAMS.values()
    for name, default in table.items()
}


@dataclass(frozen=True)
class SyntheticSource(Checked):
    """A :func:`make_blobs` fixture: its kind, the params it sets among that
    kind's in :data:`SYNTHETIC_PARAMS`, each meeting its rule in
    :data:`SYNTHETIC_RULES`, and its seed."""

    kind: str = rule(enum=list(SYNTHETIC_PARAMS))
    params: dict = rule(default_factory=dict, type="object", properties=SYNTHETIC_RULES)
    seed: int = rule(0, type="integer")

    def __post_init__(self):
        super().__post_init__()
        unknown = sorted(set(self.params) - set(SYNTHETIC_PARAMS[self.kind]))
        if unknown:
            raise ContractViolation(f"params: unknown keys {unknown}")


@dataclass(frozen=True)
class Expected(Checked):
    n: int = rule(type="integer", minimum=1)
    d: int = rule(type="integer", minimum=1)
    k: int = rule(type="integer", minimum=1)
    class_sizes: tuple = rule(type="array", items={"type": "integer"})


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    source: Union[CsvSource, SyntheticSource]
    normalize: bool = True
    expected: Optional[Expected] = None


@dataclass(frozen=True)
class NormalizationRecord:
    """Per-dimension (min, max) used by min-max scaling. Constant columns,
    those whose max equals their min, are mapped to 0 and restored to that
    value by the inverse transform."""

    mins: np.ndarray
    maxs: np.ndarray

    @property
    def constant_columns(self) -> tuple:
        return tuple(np.flatnonzero(self.maxs == self.mins).tolist())

    def to_dict(self) -> dict:
        return {
            "mins": [float(v) for v in self.mins],
            "maxs": [float(v) for v in self.maxs],
            "constant_columns": list(self.constant_columns),
        }


def default_data_dir() -> Path:
    return Path(os.environ.get(DATA_DIR_ENV, "data"))


def load_csv(spec: DatasetSpec) -> Dataset:
    """Parse a CSV source into a raw (unnormalized) dataset.

    Labels are factorized to 0-based integers in first-appearance order.
    Row numbers in error messages are 1-based file lines.
    """
    src = spec.source
    if not isinstance(src, CsvSource):
        raise ContractViolation("load_csv needs a CsvSource spec")
    if len(src.delimiter) != 1:
        raise LoadError(f"{spec.name}: delimiter {src.delimiter!r} is not one character")
    path = Path(src.path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh, delimiter=src.delimiter)
            rows = [row for row in reader if row and any(field.strip() for field in row)]
    except FileNotFoundError:
        raise LoadError(f"{spec.name}: file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise LoadError(f"{spec.name}: {path} is not UTF-8 text: {exc.reason}") from None
    except OSError as exc:  # a directory, or a file this process may not read
        raise LoadError(f"{spec.name}: cannot read {path}: {exc.strerror or exc}") from None
    if not rows:
        raise LoadError(f"{spec.name}: {path} is empty")

    header_names = None
    start_line = 1
    if src.header:
        header_names = [name.strip() for name in rows[0]]
        rows = rows[1:]
        start_line = 2
        if not rows:
            raise LoadError(f"{spec.name}: {path} has a header but no data rows")

    width = len(rows[0])
    label_idx: Optional[int] = None
    if src.label_column is not None:
        if isinstance(src.label_column, str):
            if header_names is None:
                raise LoadError(
                    f"{spec.name}: label column {src.label_column!r} needs a header row"
                )
            try:
                label_idx = header_names.index(src.label_column)
            except ValueError:
                raise LoadError(
                    f"{spec.name}: no column named {src.label_column!r} in header"
                ) from None
        else:
            label_idx = int(src.label_column)
            if not -width <= label_idx < width:
                raise LoadError(f"{spec.name}: label column {label_idx} out of range")
            label_idx %= width
    dropped = {label_idx} if label_idx is not None else set()
    for c in src.drop_columns:
        if not -width <= c < width:
            raise LoadError(f"{spec.name}: drop column {c} out of range")
        dropped.add(c % width)

    features: list[list[float]] = []
    raw_labels: list[str] = []
    for offset, row in enumerate(rows):
        line = start_line + offset
        if len(row) != width:
            raise LoadError(
                f"{spec.name}: row {line} has {len(row)} fields, expected {width}"
            )
        values = []
        skip_row = False
        for j, cell in enumerate(row):
            if j in dropped:
                continue
            cell = cell.strip()
            if cell in src.na_values:
                if src.na_policy == "drop":
                    skip_row = True
                    break
                raise LoadError(
                    f"{spec.name}: missing value {cell!r} at row {line}, column {j}"
                )
            try:
                values.append(float(cell))
            except ValueError:
                raise LoadError(
                    f"{spec.name}: non-numeric feature {cell!r} at row {line}, column {j}"
                ) from None
        if skip_row:
            continue
        features.append(values)
        if label_idx is not None:
            raw_labels.append(row[label_idx].strip())

    if not features:
        raise LoadError(f"{spec.name}: no usable rows in {path}")

    labels = None
    if label_idx is not None:
        seen: dict[str, int] = {}
        labels = np.array([seen.setdefault(lab, len(seen)) for lab in raw_labels])

    dataset = Dataset(
        points=np.array(features, dtype=np.float64),
        labels=labels,
        name=spec.name,
        k_true=(int(labels.max()) + 1) if labels is not None
        else (spec.expected.k if spec.expected else None),
    )
    _check_expected(dataset, spec)
    return dataset


def _check_expected(dataset: Dataset, spec: DatasetSpec) -> None:
    exp = spec.expected
    if exp is None:
        return
    problems = []
    if dataset.n != exp.n:
        problems.append(f"N={dataset.n}, expected {exp.n}")
    if dataset.d != exp.d:
        problems.append(f"d={dataset.d}, expected {exp.d}")
    if dataset.labels is not None:
        k = dataset.n_classes
        if k != exp.k:
            problems.append(f"{k} classes, expected {exp.k}")
        sizes = tuple(sorted(np.bincount(dataset.labels).tolist()))
        if sizes != tuple(sorted(exp.class_sizes)):
            problems.append(
                f"class sizes {sizes}, expected {tuple(sorted(exp.class_sizes))}"
            )
    if problems:
        raise LoadError(f"{spec.name}: characteristics mismatch: " + "; ".join(problems))


def normalize_minmax(dataset: Dataset) -> tuple[Dataset, NormalizationRecord]:
    """Affinely map every non-constant column onto [0, 1]; constant columns
    map to 0. The record's per-column min and max are all the inverse
    transform needs."""
    x = dataset.points
    mins = x.min(axis=0)
    maxs = x.max(axis=0)
    span = maxs - mins
    constant = span == 0
    safe_span = np.where(constant, 1.0, span)
    scaled = (x - mins) / safe_span
    scaled[:, constant] = 0.0
    return (
        Dataset(points=scaled, labels=dataset.labels, name=dataset.name, k_true=dataset.k_true),
        NormalizationRecord(mins=mins, maxs=maxs),
    )


def denormalize(record: NormalizationRecord, points: np.ndarray) -> np.ndarray:
    """Inverse of :func:`normalize_minmax` on a point matrix."""
    span = record.maxs - record.mins
    restored = np.asarray(points, dtype=np.float64) * span + record.mins
    for col in record.constant_columns:
        restored[:, col] = record.mins[col]
    return restored


def make_blobs(kind: str, params: Optional[dict] = None, seed: int = 0) -> Dataset:
    """Labeled Gaussian blob fixtures, deterministic per seed.

    Kinds, whose params and defaults are in :data:`SYNTHETIC_PARAMS`:
      two_blob  -- two blobs ``sep`` apart
      grid      -- blobs on the corners of a ``side``-per-axis grid,
                   ``scale`` apart
      art_like  -- ``k`` blobs at random centers in a cube ``box`` wide
    Every kind shares ``n`` points in ``d`` dimensions among its blobs as
    evenly as it can, each blob with standard deviation ``spread``. Raises
    ContractViolation, before it builds any center, for what
    :class:`SyntheticSource` refuses (an unknown kind or param, a param that
    breaks its rule, such as a float or bool where an integer goes) and for
    fewer points than blobs.
    """
    params = SyntheticSource(kind, params or {}, seed).params
    p = {name: type(default)(params.get(name, default))
         for name, default in SYNTHETIC_PARAMS[kind].items()}
    n, d = p["n"], p["d"]
    k = 2 if kind == "two_blob" else p["side"] ** d if kind == "grid" else p["k"]
    if n < k:
        raise ContractViolation(f"need at least {k} points for {k} blobs")

    rng = Rng(seed)
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    chunks, labels = [], []
    # A point past the float range is Dataset's to refuse, without a warning first.
    with np.errstate(over="ignore"):
        if kind == "two_blob":
            half = (p["sep"] / 2.0) / np.sqrt(d)
            centers = np.array([[-half] * d, [half] * d])
        elif kind == "grid":
            axes = np.arange(p["side"]) * p["scale"]
            centers = np.array(np.meshgrid(*([axes] * d))).reshape(d, -1).T.astype(float)
        else:
            centers = rng.uniform(0.0, p["box"], size=(k, d))
        for i, (center, size) in enumerate(zip(centers, sizes)):
            chunks.append(center + rng.normal(0.0, 1.0, size=(size, d)) * p["spread"])
            labels.extend([i] * size)
    return Dataset(
        points=np.vstack(chunks),
        labels=np.array(labels),
        name=f"{kind}",
        k_true=k,
    )


def load_dataset(spec: DatasetSpec) -> tuple[Dataset, Optional[NormalizationRecord]]:
    """Load a spec (file or synthetic), validate expectations, and apply the
    recorded min-max normalization when it asks for one."""
    if isinstance(spec.source, SyntheticSource):
        dataset = make_blobs(spec.source.kind, spec.source.params, spec.source.seed)
        dataset = Dataset(dataset.points, dataset.labels, spec.name, dataset.k_true)
        _check_expected(dataset, spec)
    else:
        dataset = load_csv(spec)
    if spec.normalize:
        return normalize_minmax(dataset)
    return dataset, None


# Benchmark dataset registry: advertised characteristics of the nine
# real-world sets, asserted exactly at load time.
REGISTRY: dict[str, Expected] = {
    "cancer": Expected(683, 9, 2, (444, 239)),
    "cmc": Expected(1473, 9, 3, (629, 334, 510)),
    "crude_oil": Expected(56, 5, 3, (7, 11, 38)),
    "glass": Expected(214, 9, 6, (70, 17, 76, 13, 9, 29)),
    "iris": Expected(150, 4, 3, (50, 50, 50)),
    "pima": Expected(768, 8, 2, (500, 268)),
    "vowel": Expected(871, 3, 6, (72, 89, 172, 151, 207, 180)),
    "wine": Expected(178, 13, 3, (59, 71, 48)),
    "zoo": Expected(101, 17, 7, (41, 20, 5, 13, 4, 8, 10)),
}


def registry_spec(
    name: str, data_dir: Optional[Union[str, Path]] = None, normalize: bool = True
) -> DatasetSpec:
    """Spec for one registry dataset in its canonical local form."""
    if name not in REGISTRY:
        raise ContractViolation(f"unknown dataset {name!r}; known: {sorted(REGISTRY)}")
    directory = Path(data_dir) if data_dir is not None else default_data_dir()
    return DatasetSpec(
        name=name,
        source=CsvSource(
            path=str(directory / f"{name}.csv"), label_column="class", header=True
        ),
        normalize=normalize,
        expected=REGISTRY[name],
    )


def registry_available(name: str, data_dir: Optional[Union[str, Path]] = None) -> bool:
    directory = Path(data_dir) if data_dir is not None else default_data_dir()
    return (directory / f"{name}.csv").exists()
