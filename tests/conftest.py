"""Shared fixtures.

Real-data tests look in ``<repo>/data`` (or $SWARMCLUST_DATA). When iris or
wine are missing, the session tries to materialize them from scikit-learn's
bundled copies via scripts/fetch_datasets.py; tests that need files which
still aren't there skip rather than fail.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import settings

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tests"))

# `pytest --hypothesis-profile=ci` draws the same examples on every run and
# keeps no example database, so a property test that fails in CI fails
# again locally on the same examples.
settings.register_profile("ci", derandomize=True, database=None)


def _materialize_sklearn_sets(data_dir: Path) -> None:
    try:
        import sklearn  # noqa: F401
    except ImportError:
        return
    script = REPO_ROOT / "scripts" / "fetch_datasets.py"
    spec = importlib.util.spec_from_file_location("fetch_datasets", script)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        module.from_sklearn(data_dir)
    except SystemExit:
        pass


@pytest.fixture(scope="session")
def data_dir() -> Path:
    directory = Path(os.environ.get("SWARMCLUST_DATA", REPO_ROOT / "data"))
    directory.mkdir(parents=True, exist_ok=True)
    if not ((directory / "iris.csv").exists() and (directory / "wine.csv").exists()):
        _materialize_sklearn_sets(directory)
    return directory


@pytest.fixture
def require_dataset(data_dir):
    def _require(name: str) -> Path:
        path = data_dir / f"{name}.csv"
        if not path.exists():
            pytest.skip(f"dataset {name} not present locally")
        return path

    return _require


@pytest.fixture
def traced_peak():
    """``peak(fn)``: the most bytes held at once while ``fn()`` runs, beyond
    what was held when it started, as tracemalloc counts them: Python
    objects and numpy buffers, allocated by any thread."""
    def _peak(fn) -> int:
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()

    return _peak
