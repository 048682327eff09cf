import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from swarmclust import core
from swarmclust.core import (
    Assignment,
    ContractViolation,
    Dataset,
    Rng,
    derive_seed,
    map_blocks,
    row_parts,
)
from swarmclust.data import make_blobs, normalize_minmax
from swarmclust.metrics import error_rate
from swarmclust.swarm import PsoConfig, init_swarm


def box_of(dataset, k=1):
    """The search box ``init_swarm`` gives a k-centroid swarm, reshaped to
    one (lower, upper) row pair per centroid."""
    swarm = init_swarm(None, k, dataset, PsoConfig(swarm_size=2), Rng(0),
                       lambda positions: np.zeros(len(positions)))
    return swarm.lower.reshape(k, dataset.d), swarm.upper.reshape(k, dataset.d)


class TestBoundsOf:
    """The swarm's box is the dataset's bounding box, tiled per centroid."""

    def test_single_point_degenerate(self):
        ds = Dataset(points=np.array([[2.0, -3.0]]))
        lower, upper = box_of(ds)
        assert np.array_equal(lower, [[2.0, -3.0]])
        assert np.array_equal(upper, [[2.0, -3.0]])

    def test_column_min_max(self):
        ds = Dataset(points=np.array([[0.0, 5.0], [2.0, 1.0]]))
        lower, upper = box_of(ds, k=3)
        assert np.array_equal(lower, [[0.0, 1.0]] * 3)
        assert np.array_equal(upper, [[2.0, 5.0]] * 3)

    def test_normalized_dataset_unit_box(self):
        raw = make_blobs("two_blob", {"n": 12, "sep": 5.0, "spread": 0.3}, seed=3)
        norm, _ = normalize_minmax(raw)
        lower, upper = box_of(norm, k=2)
        assert np.allclose(lower, 0.0)
        assert np.allclose(upper, 1.0)

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 20), st.integers(1, 4)),
                      elements=st.floats(-1e9, 1e9, allow_nan=False)))
    def test_containment(self, points):
        ds = Dataset(points=points)
        lower, upper = box_of(ds)
        assert np.all(ds.points >= lower)
        assert np.all(ds.points <= upper)


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a, b = Rng(987654321), Rng(987654321)
        assert np.array_equal(a.random(10_000), b.random(10_000))

    def test_draws_in_unit_interval(self):
        draws = Rng(5).random(10_000)
        assert np.all(draws >= 0.0) and np.all(draws < 1.0)

    def test_spawn_is_deterministic_and_distinct(self):
        root = Rng(17)
        child1, child2 = root.spawn("stream", 0), root.spawn("stream", 1)
        assert child1.seed != child2.seed
        assert root.spawn("stream", 0).seed == child1.seed

    def test_derive_seed_separates_parts(self):
        assert derive_seed(1, "ab", "c") != derive_seed(1, "a", "bc")
        assert derive_seed(1, 2) != derive_seed(2, 1)
        assert derive_seed(0, "x") == derive_seed(0, "x")


class TestDomainTypes:
    def test_dataset_rejects_nan(self):
        with pytest.raises(ContractViolation):
            Dataset(points=np.array([[1.0, np.nan]]))

    def test_dataset_rejects_bad_labels(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ContractViolation):
            Dataset(points=pts, labels=np.array([0, 1]))
        with pytest.raises(ContractViolation):
            Dataset(points=pts, labels=np.array([0, 2, 2]))

    @pytest.mark.parametrize("labels", [
        [0, -1, 1], [-1, -1, -1], [0, 2, 2], [1, 2, 3], [1, 1, 1], [0, 1, 3],
    ], ids=["negative", "all negative", "gapped", "one-based", "no zero", "past n"])
    def test_dataset_bad_labels_keep_their_message(self, labels):
        with pytest.raises(ContractViolation) as info:
            Dataset(points=np.zeros((3, 2)), labels=np.array(labels))
        assert str(info.value) == "labels must be 0-based contiguous integers"

    def test_huge_label_rejected_without_a_huge_count(self, traced_peak):
        # a bare bincount of labels up to 2**40 would allocate 8 TB
        pts = np.zeros((2, 1))

        def load():
            with pytest.raises(ContractViolation, match="0-based contiguous"):
                Dataset(points=pts, labels=np.array([0, 2**40]))

        assert traced_peak(load) < 64 << 10

    def test_dataset_accepts_permuted_labels(self):
        labels = np.array([2, 0, 3, 1, 0, 2, 3, 1, 4])
        ds = Dataset(points=np.zeros((9, 1)), labels=labels)
        assert ds.n_classes == 5 and np.array_equal(ds.labels, labels)

    def test_dataset_k_true_consistency(self):
        pts = np.zeros((4, 1))
        labels = np.array([0, 0, 1, 1])
        assert Dataset(points=pts, labels=labels, k_true=2).k_true == 2
        with pytest.raises(ContractViolation):
            Dataset(points=pts, labels=labels, k_true=3)

    def test_dataset_immutable(self):
        ds = Dataset(points=np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            ds.points[0, 0] = 5.0

    def test_assignment_range_checked(self):
        with pytest.raises(ContractViolation):
            Assignment(cluster_of=np.array([0, 3]), k=2)
        a = Assignment(cluster_of=np.array([0, 1, 0]), k=2)
        assert a.n == 3

    NOT_INTEGERS = [
        ([0.7, 1.9], "float64"), ([0.0, 1.0], "float64"),
        (np.array([True, False, True]), "bool"), (np.array(["0", "1"]), "<U1"),
        (np.array([0, 1], dtype=object), "object"),
    ]

    @pytest.mark.parametrize("values, dtype", NOT_INTEGERS)
    def test_cluster_of_refused_unless_integers(self, values, dtype):
        # never cast: [0.7, 1.9] would become [0, 1] and True cluster 1
        with pytest.raises(ContractViolation) as info:
            Assignment(values, k=2)
        assert str(info.value) == f"cluster_of must be integers, got dtype {dtype}"

    @pytest.mark.parametrize("labels, dtype", [([0.2, 1.5, 1.0], "float64"),
                                               (np.array([False, True, True]), "bool")])
    def test_labels_refused_unless_integers(self, labels, dtype):
        with pytest.raises(ContractViolation) as info:
            Dataset(points=np.zeros((3, 1)), labels=labels)
        assert str(info.value) == f"labels must be integers, got dtype {dtype}"

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.int64])
    def test_integer_dtypes_accepted_as_int64(self, dtype):
        values = np.array([1, 0, 1], dtype=dtype)
        a = Assignment(values, k=2)
        ds = Dataset(points=np.zeros((3, 1)), labels=values)
        for got in (a.cluster_of, ds.labels):
            assert got.dtype == np.int64 and got.tolist() == [1, 0, 1]
            assert not got.flags.writeable

    def test_empty_assignment_accepted(self):
        # np.asarray([]) is float64, yet holds no id to cast
        assert Assignment([], k=1).n == 0

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2", np.float64(2), 0, -1])
    def test_assignment_k_refused_unless_an_integer_of_at_least_1(self, k):
        # 2.5 and 2.0 used to pass, and error_rate then raised TypeError
        with pytest.raises(ContractViolation) as info:
            Assignment([0, 1], k=k)
        assert str(info.value) == f"k must be an integer >= 1, got {k!r}"

    @pytest.mark.parametrize("k", [2, np.int64(2), np.uint8(2)])
    def test_integer_assignment_k_accepted(self, k):
        a = Assignment([0, 1], k=k)
        assert a.k == 2 and error_rate(a, np.array([1, 0]))[0] == 0.0

    @pytest.mark.parametrize("k_true", [2.5, 2.0, True, "2", np.float64(2), 0, -1])
    def test_k_true_refused_unless_an_integer_of_at_least_1(self, k_true):
        with pytest.raises(ContractViolation) as info:
            Dataset(points=np.zeros((4, 1)), k_true=k_true)
        assert str(info.value) == f"k_true must be an integer >= 1, got {k_true!r}"

    @pytest.mark.parametrize("k_true", [2, np.int64(2), np.uint8(2)])
    def test_integer_k_true_accepted(self, k_true):
        assert Dataset(points=np.zeros((4, 1)), k_true=k_true).k_true == 2


class TestMapBlocks:
    @staticmethod
    def record(n_rows, row_entries):
        """(lo, hi, thread) of each block, in row order."""
        calls = []
        lock = threading.Lock()

        def fn(lo, hi):
            with lock:
                calls.append((lo, hi, threading.get_ident()))

        map_blocks(fn, n_rows, row_entries)
        return sorted(calls)

    def test_small_call_runs_inline_once(self, monkeypatch):
        monkeypatch.setattr(core, "KERNEL_WORKERS", 4)
        entries = 2 * core.PARALLEL_MIN - 1
        assert row_parts(1, entries) == 1
        assert self.record(1, entries) == [(0, 1, threading.get_ident())]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n_rows, row_entries", [
        (1, 1), (10, 5), (100, 7), (1000, 3), (4000, 6), (200_000, 2), (3, 100_000),
    ])
    def test_single_call_exactly_when_it_fits_one_thread(self, monkeypatch, workers, n_rows,
                                                       row_entries):
        # within the budget, and on one worker or under 2 * PARALLEL_MIN entries
        monkeypatch.setattr(core, "KERNEL_WORKERS", workers)
        entries = n_rows * row_entries
        fits = entries <= core.KERNEL_BLOCK and (workers == 1 or entries < 2 * core.PARALLEL_MIN)
        calls = self.record(n_rows, row_entries)
        assert (calls == [(0, n_rows, threading.get_ident())]) == fits

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_rows, row_entries, block", [
        (1, 5, 1), (10, 5, 1), (10, 5, 20), (23, 4, 48), (100, 7, 7 * 100), (5, 3, 1 << 18),
        (2, 1, 1 << 18), (7, 1, 1 << 18), (1000, 1, 1 << 18),
    ])
    def test_blocks_cover_rows_within_the_budget(self, monkeypatch, workers, n_rows,
                                                 row_entries, block):
        monkeypatch.setattr(core, "KERNEL_WORKERS", workers)
        monkeypatch.setattr(core, "PARALLEL_MIN", 1)
        monkeypatch.setattr(core, "KERNEL_BLOCK", block)
        calls = self.record(n_rows, row_entries)
        assert calls[0][0] == 0 and calls[-1][1] == n_rows
        assert all(hi == nxt for (_, hi, _), (nxt, _, _) in zip(calls, calls[1:]))
        parts = row_parts(n_rows, row_entries)
        assert parts == min(workers, n_rows)
        rows = max(1, block // (parts * row_entries))
        assert all(1 <= hi - lo <= rows for lo, hi, _ in calls)
        # one range per thread, differing by at most one row; the caller
        # takes the last range, helper threads the others
        edges = [n_rows * i // parts for i in range(parts + 1)]
        sizes = [hi - lo for lo, hi in zip(edges, edges[1:])]
        assert max(sizes) - min(sizes) <= 1
        held = 0
        for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
            blocks = [c for c in calls if lo <= c[0] < hi]
            assert blocks[-1][1] == hi
            caller = i == parts - 1
            assert all((ident == threading.get_ident()) == caller for *_, ident in blocks)
            held += max(b - a for a, b, _ in blocks) * row_entries
        assert held <= max(block, parts * row_entries)

    def test_parts_need_parallel_min_entries_each(self, monkeypatch):
        monkeypatch.setattr(core, "KERNEL_WORKERS", 8)
        assert row_parts(100, core.PARALLEL_MIN // 100 * 3) == 2
        assert row_parts(100, core.PARALLEL_MIN) == 8
        assert row_parts(3, core.PARALLEL_MIN) == 3

    @pytest.mark.parametrize("failing", [0, 2])
    def test_range_error_raised_after_all_ranges_finish(self, monkeypatch, failing):
        monkeypatch.setattr(core, "KERNEL_WORKERS", 3)
        monkeypatch.setattr(core, "PARALLEL_MIN", 1)
        done = []

        def fn(lo, hi):
            if lo == failing:
                raise ZeroDivisionError(lo)
            done.append(lo)

        with pytest.raises(ZeroDivisionError):
            map_blocks(fn, 3, 1)
        assert sorted(done) == sorted({0, 1, 2} - {failing})

    def test_writes_land_in_their_rows(self, monkeypatch):
        monkeypatch.setattr(core, "KERNEL_WORKERS", 3)
        monkeypatch.setattr(core, "PARALLEL_MIN", 1)
        monkeypatch.setattr(core, "KERNEL_BLOCK", 8)
        out = np.full(17, -1.0)

        def fn(lo, hi):
            block = np.repeat(np.arange(lo, hi, dtype=np.float64)[:, None], 2, axis=1)
            block.sum(axis=1, out=out[lo:hi])

        map_blocks(fn, 17, 2)
        assert np.array_equal(out, 2.0 * np.arange(17))

    def test_set_kernel_workers_floor_is_one(self, monkeypatch):
        monkeypatch.setattr(core, "KERNEL_WORKERS", core.KERNEL_WORKERS)
        core.set_kernel_workers(0)
        assert core.KERNEL_WORKERS == 1


class TestSqeuclidean:
    """core.sqeuclidean is scipy's compiled kernel, so every result must equal
    the public cdist(a, b, "sqeuclidean") bit for bit; scipy.spatial is
    imported inside these tests only."""

    @staticmethod
    def shapes():
        yield from [(1, 1, 1), (1, 4000, 30), (64, 1, 1), (64, 4000, 30), (5, 4000, 8)]
        rng = Rng(97)
        for _ in range(15):
            yield (int(rng.integers(1, 65)), int(rng.integers(1, 4001)),
                   int(rng.integers(1, 31)))

    def test_equals_cdist_with_and_without_out(self):
        from scipy.spatial.distance import cdist

        rng = Rng(5)
        for rows, n, d in self.shapes():
            a = rng.normal(0.0, 3.0, size=(rows, d))
            b = rng.normal(0.0, 3.0, size=(n, d))
            want = cdist(a, b, "sqeuclidean")
            assert np.array_equal(core.sqeuclidean(a, b), want), (rows, n, d)
            # into a prefix of a larger buffer, as the row-blocked kernels do
            buf = np.full((rows + 3, n), np.nan)
            core.sqeuclidean(a, b, out=buf[:rows])
            assert np.array_equal(buf[:rows], want), (rows, n, d)
            assert np.isnan(buf[rows:]).all()

    def test_row_slice_of_reshaped_swarm_block(self):
        # _fitness_for passes positions[start:stop].reshape(-1, d) of an
        # (m, k*d) block of flattened centroid sets
        from scipy.spatial.distance import cdist

        rng = Rng(6)
        for m, k, d, n in [(1, 1, 1, 1), (20, 3, 4, 150), (64, 5, 8, 4000), (7, 16, 30, 33)]:
            positions = rng.uniform(-1.0, 1.0, size=(m, k * d))
            x = rng.uniform(-1.0, 1.0, size=(n, d))
            for start, stop in [(0, m), (m // 3, m), (m - 1, m)]:
                centers = positions[start:stop].reshape(-1, d)
                want = cdist(centers, x, "sqeuclidean")
                assert np.array_equal(core.sqeuclidean(centers, x), want)
                out = np.empty(((stop - start) * k, n))
                core.sqeuclidean(centers, x, out=out)
                assert np.array_equal(out, want)

    def test_missing_extension_names_directory_and_version(self, tmp_path):
        # a scipy package without the extension file: importing swarmclust
        # must fail and say where it looked, and for which scipy
        fake = tmp_path / "scipy"
        (fake / "spatial").mkdir(parents=True)
        (fake / "__init__.py").write_text("", encoding="utf-8")
        meta = tmp_path / "scipy-0.0.1.dist-info"
        meta.mkdir()
        (meta / "METADATA").write_text(
            "Metadata-Version: 2.1\nName: scipy\nVersion: 0.0.1\n", encoding="utf-8")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(tmp_path), src)))
        result = subprocess.run([sys.executable, "-c", "import swarmclust"], env=env,
                                cwd=tmp_path, capture_output=True, text=True, timeout=120,
                                check=False)
        assert result.returncode == 1
        assert "ImportError: no scipy.spatial._distance_pybind extension" in result.stderr
        assert f"in {fake / 'spatial'} (scipy 0.0.1)" in result.stderr
