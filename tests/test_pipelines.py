import itertools
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from swarmclust import bench, core, pipelines

from swarmclust.core import (
    Assignment,
    ContractViolation,
    Dataset,
    DegenerateInput,
    Rng,
    derive_seed,
)
from swarmclust.data import make_blobs, normalize_minmax
from swarmclust.metrics import convergence_stats, sicd
from swarmclust.pipelines import (
    ALGORITHMS,
    Plan,
    _fitness_for,
    assign_nearest,
    recompute_centroids,
    run_brapso,
    run_kmeans,
    run_kmeans_pso,
    run_pso,
    run_sc_br_apso,
    run_subtractive_pso,
    run_stack,
)
from swarmclust.subtractive import DensityRatio, FixedK, SubtractiveConfig, select_centers
from swarmclust.swarm import (
    PsoConfig, SwarmStack, decode, encode, exponential_literal, exponential_normalized,
    init_swarm, linear, step,
)

from oracles import assign_nearest_ref, exhaustive_best_sicd, recompute_centroids_ref

FAST_PLAIN = PsoConfig(inertia=linear(0.9, 0.4), boundary="none", max_iter=60,
                       swarm_size=10)
FAST_ADAPTIVE = PsoConfig(inertia=exponential_normalized(0.9), boundary="restricted",
                          max_iter=60, swarm_size=10)
# k and Lloyd limits the runners refuse with ContractViolation
NOT_INTEGERS = [None, 2.0, True, 2.5, "2"]


def blob_fixture(seed=7, **overrides):
    params = {"n": 20, "sep": 10.0, "spread": 0.1}
    params.update(overrides)
    ds, _ = normalize_minmax(make_blobs("two_blob", params, seed=seed))
    return ds


class TestBatchedFitness:
    """The batched fitness must equal the single-particle SICD bit for bit,
    on both sides of numpy's pairwise-summation block (128 values)."""

    @pytest.mark.parametrize("n,d,k,m", [
        (1, 1, 1, 2), (5, 2, 3, 4), (7, 3, 1, 3), (150, 4, 1, 6),
        (129, 2, 2, 20), (300, 3, 4, 20), (1000, 13, 3, 20),
    ])
    def test_rows_equal_per_particle_sicd(self, n, d, k, m):
        rng = Rng(derive_seed(77, n, d, k, m))
        x = rng.normal(size=(n, d)) * 3.0
        positions = rng.uniform(-4, 4, size=(m, k * d))
        batched = _fitness_for(Dataset(points=x), k)(positions)
        assert batched.shape == (m,)
        for i in range(m):
            assert batched[i] == cdist(x, positions[i].reshape(k, d)).min(axis=1).sum()

    # (k+1)*N = 600 scratch entries per row: blocks of 1, 1, 2 and 4 rows
    # over 9 rows, the first from a budget smaller than one row
    @pytest.mark.parametrize("block", [1, 800, 1600, 2400])
    def test_blocked_rows_equal_one_call(self, monkeypatch, block):
        rng = Rng(5)
        ds = Dataset(points=rng.normal(size=(200, 3)))
        positions = rng.uniform(-2, 2, size=(9, 6))
        whole = _fitness_for(ds, 2)(positions)
        monkeypatch.setattr(core, "KERNEL_BLOCK", block)
        assert np.array_equal(_fitness_for(ds, 2)(positions), whole)


class TestSplitFitness:
    """Large fitness calls split their rows over KERNEL_WORKERS threads; with
    PARALLEL_MIN at one distance every call of two or more rows splits,
    into uneven ranges. Each row must still equal the lone-particle SICD."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 5, 301, 1000])
    @pytest.mark.parametrize("m", [1, 7, 20])
    def test_rows_equal_per_particle_sicd(self, monkeypatch, workers, n, m):
        monkeypatch.setattr(core, "KERNEL_WORKERS", workers)
        monkeypatch.setattr(core, "PARALLEL_MIN", 1)
        d, k = 3, 4
        rng = Rng(derive_seed(91, workers, n, m))
        x = rng.normal(size=(n, d))
        positions = rng.uniform(-2, 2, size=(m, k * d))
        assert core.row_parts(m, k * n) == min(workers, m)
        batched = _fitness_for(Dataset(points=x), k)(positions)
        for i in range(m):
            assert batched[i] == cdist(x, positions[i].reshape(k, d)).min(axis=1).sum()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_many_blocks_per_thread(self, monkeypatch, workers):
        # (k+1)*N = 600 scratch entries per row: 2 rows per block over
        # 20 / workers rows
        rng = Rng(8)
        ds = Dataset(points=rng.normal(size=(200, 3)))
        positions = rng.uniform(-2, 2, size=(20, 6))
        whole = _fitness_for(ds, 2)(positions)
        monkeypatch.setattr(core, "KERNEL_WORKERS", workers)
        monkeypatch.setattr(core, "PARALLEL_MIN", 1)
        monkeypatch.setattr(core, "KERNEL_BLOCK", 1200 * workers)
        assert np.array_equal(_fitness_for(ds, 2)(positions), whole)


class TestFitnessMemory:
    """At N = 4000, k = 5 and m = 40 rows a fitness call runs in several
    blocks per thread: it holds at most KERNEL_BLOCK scratch entries over
    all its threads, plus O(N + m), and each row still equals the
    lone-particle SICD."""

    N, K, D, M = 4000, 5, 8, 40

    def shape(self, workers):
        rng = Rng(derive_seed(404, workers))
        x = rng.uniform(0, 1, size=(self.N, self.D))
        positions = rng.uniform(0, 1, size=(self.M, self.K * self.D))
        return Dataset(points=x), positions

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_peak_within_the_budget(self, monkeypatch, traced_peak, workers):
        monkeypatch.setattr(core, "KERNEL_WORKERS", workers)
        ds, positions = self.shape(workers)
        fitness = _fitness_for(ds, self.K)
        fitness(positions)  # starts the helper threads before the trace
        # the output, and 64 KiB for the call's Python objects
        allowance = 8 * (self.N + self.M) + (64 << 10)
        assert traced_peak(lambda: fitness(positions)) <= 8 * core.KERNEL_BLOCK + allowance

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_blocked_rows_equal_per_particle_sicd(self, monkeypatch, workers):
        monkeypatch.setattr(core, "KERNEL_WORKERS", workers)
        blocks = []
        real = core.sqeuclidean

        def counted(*args, **kwargs):
            blocks.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(core, "sqeuclidean", counted)
        ds, positions = self.shape(workers)
        batched = _fitness_for(ds, self.K)(positions)
        assert len(blocks) >= 3 * core.row_parts(self.M, (self.K + 1) * self.N)
        for i in range(self.M):
            want = cdist(ds.points, positions[i].reshape(self.K, self.D)).min(axis=1).sum()
            assert batched[i] == want


def spy_sqeuclidean(monkeypatch):
    """Sizes of the distance matrices core.sqeuclidean writes from now on."""
    sizes = []
    real = core.sqeuclidean

    def spy(a, b, out=None):
        sizes.append(a.shape[0] * b.shape[0])
        return real(a, b, out=out)

    monkeypatch.setattr(core, "sqeuclidean", spy)
    return sizes


class TestBlockedPasses:
    """With KERNEL_BLOCK at about a third of the points' scratch entries,
    every fitness row is tiled over its points (the one-row call too), in
    one driver call over the rows, and the assignment splits over blocks of
    points, on 1-3 threads. Values and picks must equal the unblocked ones,
    and no distance matrix may exceed the budget."""

    D, K = 3, 4

    @staticmethod
    def budget(monkeypatch, workers, block):
        monkeypatch.setattr(core, "KERNEL_WORKERS", workers)
        monkeypatch.setattr(core, "PARALLEL_MIN", 1)
        monkeypatch.setattr(core, "KERNEL_BLOCK", block)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 5, 301, 1000])
    @pytest.mark.parametrize("m", [1, 7])
    def test_tiled_rows_equal_per_particle_sicd(self, monkeypatch, workers, n, m):
        self.budget(monkeypatch, workers, self.K * max(1, n // 3))
        rng = Rng(derive_seed(515, workers, n, m))
        x = rng.normal(size=(n, self.D))
        positions = rng.uniform(-2, 2, size=(m, self.K * self.D))
        sizes = spy_sqeuclidean(monkeypatch)
        driven = []  # rows of each map_blocks call: one call over the m rows
        real_map_blocks = core.map_blocks

        def spy_map_blocks(fn, n_rows, row_entries):
            driven.append(n_rows)
            real_map_blocks(fn, n_rows, row_entries)

        monkeypatch.setattr(core, "map_blocks", spy_map_blocks)
        batched = _fitness_for(Dataset(points=x), self.K)(positions)
        assert driven == [m]
        assert max(sizes) <= core.KERNEL_BLOCK
        assert len(sizes) >= m * min(n, 3)
        for i in range(m):
            assert batched[i] == cdist(x, positions[i].reshape(self.K, self.D)).min(axis=1).sum()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 5, 301, 1000])
    def test_split_assignment_picks_the_first_minimum(self, monkeypatch, workers, n):
        # 2k scratch entries a point: the distances and their point-major copy
        k = 6
        self.budget(monkeypatch, workers, 2 * k * max(1, n // 3))
        rng = Rng(derive_seed(516, workers, n))
        x = rng.integers(-3, 4, size=(n, self.D)).astype(np.float64)
        centroids = rng.integers(-3, 4, size=(k, self.D)).astype(np.float64)
        centroids[k // 2:] = centroids[:k // 2]  # exact ties go to the lower index
        sizes = spy_sqeuclidean(monkeypatch)
        picks = assign_nearest(Dataset(points=x), centroids).cluster_of
        assert max(sizes) <= core.KERNEL_BLOCK
        assert len(sizes) >= min(n, 3)
        assert np.array_equal(picks, np.argmin(cdist(centroids, x, "sqeuclidean"), axis=0))


class TestLargeNCellMemory:
    """At N = 200 000, d = 2 and k = 16 no cell holds a k x N matrix or a
    whole (k+1) x N fitness row: a brapso and a kmeans cell peak within
    three times the points plus the kernel budget, on 1-3 threads. A stack
    of M brapso swarms, and a grid of M repetitions, which runs them as
    one, may add only their outcomes' M assignments of N indices."""

    N, D, K, M = 200_000, 2, 16, 16
    CONFIG = PsoConfig(inertia=exponential_normalized(0.9), boundary="restricted",
                       max_iter=2, swarm_size=4)

    @pytest.fixture(scope="class")
    def dataset(self):
        return Dataset(points=Rng(2000).uniform(0, 1, size=(self.N, self.D)))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("cell", ["brapso", "kmeans"])
    def test_peak_within_the_budget(self, monkeypatch, traced_peak, dataset, workers, cell):
        monkeypatch.setattr(core, "KERNEL_WORKERS", workers)
        config = PsoConfig(inertia=exponential_normalized(0.9), boundary="restricted",
                           max_iter=1, swarm_size=4)
        runs = {
            "brapso": lambda: run_brapso(dataset, self.K, config, Rng(3)),
            "kmeans": lambda: run_kmeans(dataset, self.K, None, Rng(3), 1),
        }
        runs[cell]()  # starts the helper threads before the trace
        limit = 3 * dataset.points.nbytes + 8 * core.KERNEL_BLOCK
        assert traced_peak(runs[cell]) <= limit

    def stacked_limit(self, dataset):
        run_brapso(dataset, self.K, self.CONFIG, Rng(3))  # starts the helper threads
        return 3 * dataset.points.nbytes + 8 * core.KERNEL_BLOCK + self.M * self.N * 8

    def test_stack_peak_within_the_budget_and_its_assignments(self, traced_peak, dataset):
        runs = [(Plan("brapso", self.K, self.CONFIG), Rng(seed)) for seed in range(self.M)]
        limit = self.stacked_limit(dataset)
        assert traced_peak(lambda: run_stack(dataset, runs)) <= limit

    def test_grid_peak_within_the_budget_and_its_assignments(self, traced_peak, dataset):
        # the grid makes its own points, as many as the fixture's
        config = bench.parse_config({
            "base_seed": 1, "repetitions": self.M, "emit": ["json"],
            "datasets": [{"name": "big", "normalize": False, "synthetic": {
                "kind": "art_like", "seed": 3,
                "params": {"n": self.N, "d": self.D, "k": self.K}}}],
            "algorithms": [{"id": "brapso", "params": {
                "k": self.K, "swarm_size": self.CONFIG.swarm_size,
                "max_iter": self.CONFIG.max_iter}}]})
        limit = self.stacked_limit(dataset)
        report = []
        assert traced_peak(lambda: report.append(bench.run_grid(config))) <= limit
        assert [r["status"] for r in report[0].records] == ["ok"] * self.M


def test_euclidean_is_sqrt_of_sqeuclidean():
    # The fitness takes square roots after the minimum over centers, which
    # equals cdist's euclidean only while scipy computes it as
    # sqrt(sqeuclidean). Pin that, so a scipy change fails here first.
    rng = Rng(2024)
    for _ in range(300):
        d = int(rng.integers(1, 40))
        a = rng.normal(size=(int(rng.integers(1, 30)), d)) * rng.uniform(1e-3, 1e3)
        b = rng.normal(size=(int(rng.integers(1, 30)), d)) * rng.uniform(1e-3, 1e3)
        assert np.array_equal(cdist(a, b), np.sqrt(cdist(a, b, "sqeuclidean")))


class TestAssignNearest:
    def test_single_cluster(self):
        ds = Dataset(points=np.arange(6, dtype=float).reshape(3, 2))
        a = assign_nearest(ds, np.array([[0.0, 0.0]]))
        assert np.array_equal(a.cluster_of, [0, 0, 0])

    def test_tie_goes_to_lowest_index(self):
        ds = Dataset(points=np.array([[0.0]]))
        centroids = np.array([[1.0], [5.0], [-1.0]])
        a = assign_nearest(ds, centroids)
        assert a.cluster_of[0] == 0

    @pytest.mark.parametrize("width", [1, 3])
    def test_centroid_width_must_match_dataset(self, width):
        ds = Dataset(points=np.arange(8, dtype=float).reshape(4, 2))
        with pytest.raises(ContractViolation) as info:
            assign_nearest(ds, np.zeros((3, width)))
        assert str(info.value) == (
            f"centroids of shape (3, {width}) do not fit points of shape (4, 2)")

    def test_matches_brute_force_table(self):
        rng = Rng(13)
        pts = rng.uniform(-3, 3, size=(6, 2))
        centroids = rng.uniform(-3, 3, size=(2, 2))
        ds = Dataset(points=pts)
        a = assign_nearest(ds, centroids)
        assert a.cluster_of.tolist() == assign_nearest_ref(pts.tolist(), centroids.tolist())

    def test_both_orientations_pick_alike_with_duplicate_centroids(self):
        # repeated centroids make exact ties, which must go to the lower
        # index as a row-wise argmin over N x k gives them
        rng = Rng(31)
        for _ in range(60):
            n, k, d = int(rng.integers(1, 300)), int(rng.integers(1, 25)), int(rng.integers(1, 6))
            pts = rng.integers(-3, 4, size=(n, d)).astype(np.float64)
            centroids = rng.integers(-3, 4, size=(k, d)).astype(np.float64)
            dup = rng.integers(0, k, size=k // 2 + 1)
            centroids[rng.integers(0, k, size=dup.size)] = centroids[dup]
            a = assign_nearest(Dataset(points=pts), centroids)
            rows = np.argmin(cdist(pts, centroids, "sqeuclidean"), axis=1)
            assert np.array_equal(a.cluster_of, rows)
            if n <= 60:
                assert a.cluster_of.tolist() == assign_nearest_ref(
                    pts.tolist(), centroids.tolist())

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 8, 13, 30])
    def test_both_orientations_hold_identical_float_distances(self, d):
        # the picks match only if cdist rounds each k x N entry exactly as
        # its N x k transpose, so check the float sums bit for bit; pairs of
        # centroids a few ulps apart make near-ties that rounding decides
        rng = Rng(100 + d)
        for n, k in ((1, 1), (50, 3), (517, 5), (4000, 5), (300, 24)):
            pts = rng.normal(size=(n, d)) * rng.uniform(0.01, 100.0, size=d)
            centroids = pts[rng.integers(0, n, size=k)] + rng.normal(scale=1e-3, size=(k, d))
            half = k // 2
            centroids[half:2 * half] = centroids[:half] * (1 + 1e-15 * rng.normal(size=(half, d)))
            cols = cdist(centroids, pts, "sqeuclidean")
            rows = cdist(pts, centroids, "sqeuclidean")
            assert np.array_equal(cols.T, rows)
            assert np.array_equal(
                assign_nearest(Dataset(points=pts), centroids).cluster_of,
                np.argmin(rows, axis=1))


def recompute_centroids_add_at(dataset, assignment):
    """Reference: cluster sums by np.add.at, one point at a time."""
    k, x = assignment.k, dataset.points
    cluster_of = assignment.cluster_of.copy()
    counts = np.bincount(cluster_of, minlength=k).astype(np.float64)
    centroids = np.zeros((k, dataset.d))
    np.add.at(centroids, cluster_of, x)
    nonempty = counts > 0
    centroids[nonempty] /= counts[nonempty, None]
    for i in np.flatnonzero(~nonempty):
        diffs = x - centroids[cluster_of]
        farthest = int(np.argmax(np.sqrt(np.einsum("ij,ij->i", diffs, diffs))))
        centroids[i] = x[farthest]
        cluster_of[farthest] = i
    return centroids


class TestRecomputeCentroids:
    @pytest.mark.parametrize("n, k, d, empty", [
        (4000, 5, 8, 0), (150, 3, 4, 0), (178, 3, 13, 0), (1, 1, 2, 0),
        (300, 6, 3, 2), (50, 4, 5, 3),
    ])
    def test_equals_add_at(self, n, k, d, empty):
        rng = Rng(n + k + d)
        ds = Dataset(points=rng.normal(0, 3, size=(n, d)))
        # the last ``empty`` clusters get no points and go through repair
        a = Assignment(rng.integers(0, k - empty, size=n), k=k)
        assert np.array_equal(recompute_centroids(ds, a), recompute_centroids_add_at(ds, a))

    @pytest.mark.parametrize("n, k, d, empty", [
        (1, 2, 1, 1), (2, 3, 2, 1), (3, 4, 1, 3), (7, 3, 2, 1), (10, 5, 3, 2),
        (25, 6, 2, 3), (40, 4, 4, 3), (60, 8, 3, 2),
    ])
    def test_repair_equals_loop_oracle(self, n, k, d, empty):
        # the repaired point's old centroid keeps its mean, point included
        rng = Rng(97 * n + k)
        ds = Dataset(points=rng.normal(0, 2, size=(n, d)))
        for _ in range(5):
            full = rng.choice_without_replacement(k, k - empty)
            slots = rng.integers(0, k - empty, size=n)
            slots[rng.choice_without_replacement(n, k - empty)] = np.arange(k - empty)
            a = Assignment(full[slots], k=k)
            assert np.bincount(a.cluster_of, minlength=k).tolist().count(0) == empty
            ref = recompute_centroids_ref(ds.points.tolist(), a.cluster_of.tolist(), k)
            assert np.array_equal(recompute_centroids(ds, a), ref)

    def test_singleton_clusters(self):
        ds = Dataset(points=np.array([[1.0, 2.0], [5.0, 6.0]]))
        a = Assignment(np.array([0, 1]), k=2)
        assert np.array_equal(recompute_centroids(ds, a), ds.points)

    def test_mean(self):
        ds = Dataset(points=np.array([[0.0, 0.0], [2.0, 2.0]]))
        a = Assignment(np.array([0, 0]), k=1)
        assert np.array_equal(recompute_centroids(ds, a), [[1.0, 1.0]])

    def test_empty_cluster_relocated_to_farthest_point(self):
        ds = Dataset(points=np.array([[0.0], [10.0]]))
        a = Assignment(np.array([0, 0]), k=2)
        centroids = recompute_centroids(ds, a)
        # cluster 0's mean is 5; the farther point (tie broken low) relocates
        # centroid 1; both points are 5 away so point 0 wins the tie
        assert centroids[0][0] == pytest.approx(5.0)
        assert centroids[1][0] == 0.0

    def test_empty_cluster_repair_three_points(self):
        ds = Dataset(points=np.array([[0.0], [1.0], [9.0]]))
        a = Assignment(np.array([0, 0, 0]), k=2)
        centroids = recompute_centroids(ds, a)
        assert centroids[0][0] == pytest.approx(10.0 / 3.0)
        assert centroids[1][0] == 9.0  # the point farthest from its centroid

    def test_length_mismatch_is_a_contract_violation(self):
        ds = Dataset(points=np.arange(6.0).reshape(3, 2))
        with pytest.raises(ContractViolation, match="assignment length differs"):
            recompute_centroids(ds, Assignment(np.array([0, 1]), k=2))

    def test_peak_without_empty_clusters(self, traced_peak):
        # the N*d bins and the N-entry step towards them, no copy of the
        # assignment: twice the points at d = 2
        n, d, k = 200_000, 2, 16
        rng = Rng(2001)
        ds = Dataset(points=rng.uniform(0, 1, size=(n, d)))
        a = Assignment(np.arange(n) % k, k=k)
        assert traced_peak(lambda: recompute_centroids(ds, a)) <= 2.25 * ds.points.nbytes


class TestRunKmeans:
    def test_k_equals_n_zero_cost(self):
        ds = Dataset(points=np.array([[0.0], [3.0], [9.0]]))
        out = run_kmeans(ds, 3, None, Rng(1))
        assert out.sicd == 0.0

    def test_two_pairs_given_centers(self):
        ds = Dataset(points=np.array([[0.0], [2.0], [10.0], [12.0]]))
        out = run_kmeans(ds, 2, np.array([[1.0], [11.0]]), Rng(0))
        assert out.sicd == pytest.approx(4.0)
        assert np.array_equal(out.assignment.cluster_of, [0, 0, 1, 1])
        assert np.all(np.diff(out.sicd_trace) <= 0)

    def test_returned_cost_bounded_by_global_optimum(self):
        rng = Rng(77)
        pts = rng.uniform(0, 1, size=(8, 2))
        ds = Dataset(points=pts)
        best = exhaustive_best_sicd(pts.tolist(), 2)
        for seed in range(10):
            out = run_kmeans(ds, 2, None, Rng(seed))
            assert out.sicd >= best - 1e-9

    def test_random_init_never_beats_worst_exhaustive_restart(self):
        # a random-rows run is one of the C(8,2) distinct-pair restarts
        import itertools

        rng = Rng(78)
        pts = rng.uniform(0, 1, size=(8, 2))
        ds = Dataset(points=pts)
        restarts = [
            run_kmeans(ds, 2, pts[list(pair)].copy(), Rng(0)).sicd
            for pair in itertools.combinations(range(8), 2)
        ]
        worst = max(restarts)
        for seed in range(10):
            out = run_kmeans(ds, 2, None, Rng(seed))
            assert out.sicd <= worst + 1e-12

    def test_k_above_n_rejected(self):
        ds = Dataset(points=np.zeros((2, 1)))
        with pytest.raises(DegenerateInput):
            run_kmeans(ds, 3, None, Rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_given_centers_rejected(self, bad):
        ds = Dataset(points=np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ContractViolation) as info:
            run_kmeans(ds, 2, np.array([[bad, 0.0], [1.0, 1.0]]))
        assert str(info.value) == "given centers must be finite"

    @pytest.mark.parametrize("centers, message", [
        ([[0.0, 0.0]], "given centers shape (1, 2) != (2, 2)"),
        ([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], "given centers shape (2, 3) != (2, 2)"),
        ([[np.inf, 0.0], [1.0, 1.0]], "given centers must be finite"),
    ])
    def test_given_centers_checked_as_swarm_seeds_are(self, centers, message):
        ds = Dataset(points=np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ContractViolation) as lloyd:
            run_kmeans(ds, 2, np.array(centers))
        with pytest.raises(ContractViolation) as swarm:
            init_swarm([(np.array(centers), PsoConfig(swarm_size=2), Rng(0))], 2, ds,
                       lambda positions: np.zeros(len(positions)))
        assert str(lloyd.value) == str(swarm.value) == message

    def test_random_rows_need_an_rng(self):
        with pytest.raises(ContractViolation) as info:
            run_kmeans(blob_fixture(), 2)
        assert str(info.value) == "run_kmeans needs init centers or an rng"

    @pytest.mark.parametrize("max_iter", [0, -1, *NOT_INTEGERS], ids=repr)
    def test_no_lloyd_iteration_rejected(self, max_iter):
        # max_iter=0 used to return the random initial centers as the result
        ds = blob_fixture()
        with pytest.raises(ContractViolation) as lloyd:
            run_kmeans(ds, 2, None, Rng(0), max_iter)
        with pytest.raises(ContractViolation) as hybrid:
            run_kmeans_pso(ds, 2, FAST_PLAIN, Rng(0), kmeans_max_iter=max_iter)
        assert str(lloyd.value) == str(hybrid.value) == (
            f"k-means needs an integer max_iter >= 1, got {max_iter!r}")

    def test_one_lloyd_iteration(self):
        ds = blob_fixture()
        assert run_kmeans(ds, 2, None, Rng(0), 1).iterations_used == 1

    @pytest.mark.parametrize("max_iter", [1, 2])
    def test_trace_ends_at_the_result_when_max_iter_stops_the_loop(self, monkeypatch,
                                                                   max_iter):
        # the centers still move after max_iter passes, so the last traced
        # SICD is of the centers before the last recompute, and the result's
        # is computed and appended after it
        calls = self.sicd_spy(monkeypatch)
        ds = Dataset(points=np.array([[0.0], [2.0], [10.0], [12.0]]))
        out = run_kmeans(ds, 2, np.array([[0.0], [2.0]]), max_iter=max_iter)
        assert out.iterations_used == max_iter
        assert len(calls) == len(out.sicd_trace) == max_iter + 1
        assert out.sicd_trace[-1] == out.sicd < out.sicd_trace[-2]

    def test_trace_non_increasing_on_fixture(self):
        ds = blob_fixture()
        for seed in range(20):
            out = run_kmeans(ds, 2, None, Rng(seed))
            assert np.all(np.diff(out.sicd_trace) <= 0)

    @staticmethod
    def sicd_spy(monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return sicd(*args)

        monkeypatch.setattr(pipelines, "sicd", spy)
        return calls

    @pytest.mark.parametrize("seed", range(5))
    def test_converged_run_takes_each_cost_once(self, monkeypatch, seed):
        calls = self.sicd_spy(monkeypatch)
        out = run_kmeans(blob_fixture(n=60, spread=2.0), 3, None, Rng(seed))
        assert out.iterations_used == len(out.sicd_trace) < 100
        assert len(calls) == len(out.sicd_trace)


class TestSwarmOverflow:
    @pytest.mark.parametrize("w_max, first", [(1.0e308, 2), (1.0e306, 180)])
    def test_linear_weight_overflow_names_its_first_iteration(self, w_max, first):
        config = replace(FAST_PLAIN, inertia=linear(w_max, 0.4), max_iter=200,
                         stall_iters=200)
        with pytest.raises(DegenerateInput, match=f"^swarm velocity or position not finite at "
                           f"iteration {first}: overflow encountered in scalar multiply$"):
            run_pso(blob_fixture(), 2, config, Rng(0))

    def test_overflow_in_a_stack_names_its_iteration(self, monkeypatch):
        # the pso swarm's weight overflows at iteration 180, in the stack it
        # shares with a default brapso swarm, which leaves the stack first
        sizes = []
        real = pipelines.init_swarm

        def spy(members, *args):
            sizes.append(len(members))
            return real(members, *args)

        monkeypatch.setattr(pipelines, "init_swarm", spy)
        config = replace(ALGORITHMS["pso"].pso, inertia=linear(1.0e306, 0.4), max_iter=200,
                         stall_iters=200)
        with pytest.raises(DegenerateInput, match="^swarm velocity or position not finite at "
                           "iteration 180: overflow encountered in scalar multiply$"):
            run_stack(blob_fixture(), [(Plan("pso", 2, config), Rng(0)),
                                       (Plan("brapso", 2), Rng(1))])
        assert sizes == [2]

    def test_run_stopped_before_the_weight_overflows_is_ok(self):
        config = replace(FAST_PLAIN, inertia=linear(1.0e306, 0.4), max_iter=200,
                         stall_iters=3)
        out = run_pso(blob_fixture(), 2, config, Rng(0))
        assert out.iterations_used < 180


ALL_RUNNERS = {
    "kmeans": lambda ds, k, sub, rng: run_kmeans(ds, k, None, rng),
    "pso": lambda ds, k, sub, rng: run_pso(ds, k, FAST_PLAIN, rng),
    "kmeans_pso": lambda ds, k, sub, rng: run_kmeans_pso(ds, k, FAST_PLAIN, rng),
    "sub_pso": lambda ds, k, sub, rng: run_subtractive_pso(ds, sub, FAST_PLAIN, rng),
    "brapso": lambda ds, k, sub, rng: run_brapso(ds, k, FAST_ADAPTIVE, rng),
    "sc_br_apso": lambda ds, k, sub, rng: run_sc_br_apso(ds, sub, FAST_ADAPTIVE, rng),
}


@pytest.mark.parametrize("algo", sorted(ALL_RUNNERS))
class TestOutcomeContracts:
    def test_cost_matches_recomputation(self, algo):
        ds = blob_fixture()
        sub = SubtractiveConfig(stop_rule=FixedK(2))
        out = ALL_RUNNERS[algo](ds, 2, sub, Rng(derive_seed(1, algo)))
        recomputed = sicd(out.centroids, out.assignment, ds)
        assert out.sicd == pytest.approx(recomputed, rel=1e-9)
        assert out.iterations_used <= 200

    def test_cost_is_the_last_trace_entry(self, algo):
        ds = blob_fixture(seed=5)
        sub = SubtractiveConfig(stop_rule=FixedK(2))
        out = ALL_RUNNERS[algo](ds, 2, sub, Rng(derive_seed(3, algo)))
        assert "sicd" not in {f.name for f in fields(out)}
        assert type(out.sicd) is float
        assert out.sicd == out.sicd_trace[-1]

    def test_trace_non_increasing(self, algo):
        ds = blob_fixture(seed=9)
        sub = SubtractiveConfig(stop_rule=FixedK(2))
        out = ALL_RUNNERS[algo](ds, 2, sub, Rng(derive_seed(2, algo)))
        assert np.all(np.diff(out.sicd_trace) <= 0)

    def test_bitwise_deterministic(self, algo):
        ds = blob_fixture(seed=4)
        sub = SubtractiveConfig(stop_rule=FixedK(2))
        a = ALL_RUNNERS[algo](ds, 2, sub, Rng(1234))
        b = ALL_RUNNERS[algo](ds, 2, sub, Rng(1234))
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignment.cluster_of, b.assignment.cluster_of)
        assert a.sicd == b.sicd
        assert np.array_equal(a.sicd_trace, b.sicd_trace)


class TestScBrApso:
    def test_single_point_dataset(self):
        ds = Dataset(points=np.array([[2.0, 5.0]]))
        out = run_sc_br_apso(ds, rng=Rng(3))
        assert out.centroids.shape == (1, 2)
        assert np.array_equal(out.centroids, [[2.0, 5.0]])
        assert out.sicd == 0.0

    def test_seeded_beats_unseeded_plain_pso(self):
        # Paired-seed comparison. The eight-dimensional variant keeps the
        # plain swarm's late fine-tuning (toward geometric-median centers,
        # slightly below any mean-centered fixpoint) from dominating the
        # comparison, so it isolates the seeding/restriction advantage.
        ds = blob_fixture(d=8)
        wins = 0
        for s in range(50):
            a = run_sc_br_apso(ds, rng=Rng(derive_seed(99, "sc", s)))
            b = run_pso(ds, 2, rng=Rng(derive_seed(99, "pso", s)))
            if a.sicd <= b.sicd:
                wins += 1
        assert wins >= 40

    def test_density_ratio_finds_two_blobs(self):
        ds = blob_fixture()
        out = run_sc_br_apso(
            ds, SubtractiveConfig(stop_rule=DensityRatio(0.15)), rng=Rng(8)
        )
        assert out.centroids.shape[0] == 2

    def test_iris_fixed_k3(self, require_dataset, data_dir):
        require_dataset("iris")
        from swarmclust.data import load_dataset, registry_spec

        ds, _ = load_dataset(registry_spec("iris", data_dir))
        out = run_sc_br_apso(ds, SubtractiveConfig(stop_rule=FixedK(3)), rng=Rng(11))
        assert out.centroids.shape == (3, 4)
        assert out.assignment.k == 3


class TestHybrids:
    def test_kmeans_pso_not_worse_than_its_kmeans_stage(self):
        ds = blob_fixture(seed=15)
        for s in range(10):
            km = run_kmeans(ds, 2, None, Rng(derive_seed(3, "km", s)))
            hybrid = run_kmeans_pso(ds, 2, FAST_PLAIN, Rng(derive_seed(3, "km", s)))
            assert hybrid.sicd <= km.sicd + 1e-12

    def test_sub_pso_gets_k_from_seeding(self):
        ds = blob_fixture(seed=2)
        out = run_subtractive_pso(
            ds, SubtractiveConfig(stop_rule=DensityRatio(0.15)), FAST_PLAIN, Rng(5)
        )
        assert out.centroids.shape[0] == 2


@pytest.mark.parametrize("entry", [
    run_pso, run_kmeans_pso, run_subtractive_pso, run_brapso, run_sc_br_apso,
], ids=lambda entry: entry.__name__)
def test_swarm_entry_point_without_rng_is_a_contract_violation(entry):
    ds = blob_fixture()
    args = (ds,) if entry in (run_subtractive_pso, run_sc_br_apso) else (ds, 2)
    with pytest.raises(ContractViolation, match=f"{entry.__name__} needs an rng"):
        entry(*args)


@pytest.mark.parametrize("k", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("entry", [run_kmeans, run_pso, run_brapso, run_kmeans_pso],
                         ids=lambda entry: entry.__name__)
def test_k_that_is_not_an_integer_is_a_contract_violation(entry, k):
    with pytest.raises(ContractViolation) as info:
        entry(blob_fixture(), k, rng=Rng(0))
    assert str(info.value) == f"k must be an integer, got {k!r}"


@pytest.mark.parametrize("entry", [run_kmeans, run_pso], ids=lambda entry: entry.__name__)
def test_numpy_integers_pass_as_k_and_lloyd_limit(entry):
    ds = blob_fixture()
    limit = {"max_iter": np.int64(3)} if entry is run_kmeans else {}
    got = entry(ds, np.int64(2), rng=Rng(4), **limit)
    want = entry(ds, 2, rng=Rng(4), **{key: 3 for key in limit})
    assert same_outcome(got, want)


# (id, PsoConfig overrides): each swarm runs under its row's config with them
STALL_RULES = [
    ("defaults", {}),
    ("stall3", {"stall_iters": 3, "rel_tol": 1e-3}),
    # the seeded swarms stall on their one step, which also ends the run
    ("last_iter_ends_window", {"max_iter": 1, "stall_iters": 1}),
    ("max_iter_stops", {"max_iter": 2}),
]


@pytest.mark.parametrize("overrides", [rule for _, rule in STALL_RULES],
                         ids=[name for name, _ in STALL_RULES])
@pytest.mark.parametrize("algo_id", ALGORITHMS)
def test_runner_reports_the_convergence_index_of_its_stop_rule(algo_id, overrides):
    """A swarm's index is that of its own config's stop rule, which stopped
    it; Lloyd's algorithm uses PsoConfig's defaults whatever ran it."""
    ds = blob_fixture()
    row = ALGORITHMS[algo_id]
    if row.pso is None:
        cfg = PsoConfig()
        outcome = run_kmeans(ds, 2, rng=Rng(5), max_iter=overrides.get("max_iter", 100))
    else:
        cfg = replace(row.pso, swarm_size=10, **overrides)
        k = {} if row.seeding == "subtractive" else {"k": 2}
        outcome = getattr(pipelines, row.entry)(ds, config=cfg, rng=Rng(5), **k)
    assert outcome.iterations_to_converge == convergence_stats(
        outcome.sicd_trace, cfg.rel_tol, cfg.stall_iters)


def same_outcome(a, b):
    return (np.array_equal(a.centroids, b.centroids)
            and np.array_equal(a.assignment.cluster_of, b.assignment.cluster_of)
            and a.sicd == b.sicd and a.iterations_used == b.iterations_used
            and np.array_equal(a.sicd_trace, b.sicd_trace)
            and a.iterations_to_converge == b.iterations_to_converge)


class TestPrecomputedSeeding:
    @pytest.mark.parametrize("entry, pso", [
        (run_subtractive_pso, FAST_PLAIN), (run_sc_br_apso, FAST_ADAPTIVE),
    ], ids=["sub_pso", "sc_br_apso"])
    @pytest.mark.parametrize("sub", [
        SubtractiveConfig(stop_rule=FixedK(2)), SubtractiveConfig(r_a=0.3),
    ], ids=["fixed_k", "density_ratio"])
    def test_equals_seeding_in_the_run(self, entry, pso, sub):
        ds = blob_fixture(seed=3)
        seeding = select_centers(ds, sub)
        for s in range(3):
            assert same_outcome(entry(ds, sub, pso, Rng(s)),
                                entry(ds, config=pso, rng=Rng(s), seeding=seeding))

    def test_default_config_when_neither_given(self):
        ds = blob_fixture(seed=3)
        seeding = select_centers(ds, SubtractiveConfig())
        assert same_outcome(run_sc_br_apso(ds, rng=Rng(1)),
                            run_sc_br_apso(ds, rng=Rng(1), seeding=seeding))

    @pytest.mark.parametrize("entry", [run_subtractive_pso, run_sc_br_apso],
                             ids=lambda entry: entry.__name__)
    def test_seeding_and_sub_config_together_rejected(self, entry):
        ds = blob_fixture()
        sub = SubtractiveConfig(stop_rule=FixedK(2))
        with pytest.raises(ContractViolation, match="a seeding or a sub_config, not both"):
            entry(ds, sub, rng=Rng(1), seeding=select_centers(ds, sub))


def refine_every_iteration(ds, k, sub, config, rng):
    """The swarm loop of the refining algorithms with a refine attempt after
    every step: the reference the skipping engine must equal. Returns the
    outcome's (centroids, sicd, trace) and the iterations whose refine was
    accepted."""
    seed_centers = None
    if sub is not None:
        seeding = select_centers(ds, sub)
        k, seed_centers = seeding.k, seeding.centers
    fit = _fitness_for(ds, k)
    swarm = init_swarm([(seed_centers, config, rng)], k, ds, fit)  # a stack of one
    trace, accepts, streak = [float(swarm.gbest_fitness[0])], [], 0
    for it in range(config.max_iter):
        step(swarm, fit, [rng])
        refined = encode(recompute_centroids(
            ds, assign_nearest(ds, decode(swarm.gbest_position[0], k, ds.d))))
        value = float(fit(refined[None])[0])
        if value < swarm.gbest_fitness[0]:
            owner = int(np.argmin(swarm.pbest_fitness))
            swarm.pbest_position[owner] = refined
            swarm.pbest_fitness[owner] = value
            swarm.gbest_position[0], swarm.gbest_fitness[0] = refined, value
            accepts.append(it)
        trace.append(float(swarm.gbest_fitness[0]))
        streak = streak + 1 if pipelines.stalled(trace[-2], trace[-1], config.rel_tol) else 0
        if streak >= config.stall_iters:
            break
    return (decode(swarm.gbest_position[0], k, ds.d), float(swarm.gbest_fitness[0]),
            np.asarray(trace), accepts)


# Overlapping clusters, so that Lloyd steps keep improving and refine is
# often accepted several iterations in a row
OVERLAPPING = dict(kind="art_like", params={"n": 120, "d": 3, "k": 4, "spread": 2.0})
REFINE_CASES = [
    ("brapso", dict(OVERLAPPING, seed=1), None),
    ("sc_br_apso", dict(OVERLAPPING, seed=2), SubtractiveConfig(r_a=0.2, stop_rule=FixedK(4))),
    ("sc_br_apso", dict(kind="two_blob", params={"n": 40, "sep": 1.0, "spread": 1.0}, seed=5),
     SubtractiveConfig(stop_rule=FixedK(3))),
]


class TestRefineSkip:
    """After a rejected gbest refine, the attempt is skipped while the gbest
    fitness is unchanged; results equal refining after every step."""

    @staticmethod
    def run_case(algo_id, blobs, sub, seed):
        ds, _ = normalize_minmax(make_blobs(**blobs))
        entry = {"brapso": run_brapso, "sc_br_apso": run_sc_br_apso}[algo_id]
        args = (ds, 4, FAST_ADAPTIVE) if sub is None else (ds, sub, FAST_ADAPTIVE)
        return ds, entry(*args, Rng(seed))

    @pytest.mark.parametrize("algo_id, blobs, sub", REFINE_CASES)
    def test_equals_refining_every_iteration(self, algo_id, blobs, sub):
        back_to_back = 0
        for seed in range(4):
            ds, out = self.run_case(algo_id, blobs, sub, seed)
            centroids, best, trace, accepts = refine_every_iteration(
                ds, 4, sub, FAST_ADAPTIVE, Rng(seed))
            assert np.array_equal(out.centroids, centroids)
            assert out.sicd == best
            assert np.array_equal(out.sicd_trace, trace)
            back_to_back += sum(1 for a, b in zip(accepts, accepts[1:]) if b == a + 1)
        # an accept right after an accept: skipping after an accept would show
        assert back_to_back > 0

    @pytest.mark.parametrize("algo_id, blobs, sub", REFINE_CASES)
    def test_no_refine_while_gbest_equals_last_rejection(self, algo_id, blobs, sub,
                                                         monkeypatch):
        # counting fitness: step calls evaluate the whole swarm, refine one row
        events = []
        real_fitness_for, real_step = pipelines._fitness_for, SwarmStack.step

        def fitness_for(dataset, k):
            fit = real_fitness_for(dataset, k)

            def counting(positions):
                values = fit(positions)
                if positions.shape[0] == 1:
                    events.append(("refine", float(values[0])))
                return values

            return counting

        def counted_step(stack, *args):
            # a lone run is a stack of one swarm
            out = real_step(stack, *args)
            events.append(("step", float(stack.gbest_fitness[0])))
            return out

        monkeypatch.setattr(pipelines, "_fitness_for", fitness_for)
        monkeypatch.setattr(SwarmStack, "step", counted_step)
        total_skips = 0
        for seed in range(4):
            events.clear()
            ds, _ = self.run_case(algo_id, blobs, sub, seed)
            rejected, accepts, skips = None, [], 0
            steps = [i for i, (kind, _) in enumerate(events) if kind == "step"]
            for it, i in enumerate(steps):
                gbest = events[i][1]
                refined = i + 1 < len(events) and events[i + 1][0] == "refine"
                assert refined == (gbest != rejected), (seed, it)
                if not refined:
                    skips += 1
                elif events[i + 1][1] < gbest:
                    accepts.append(it)
                else:
                    rejected = gbest
            # the reference binds its own fitness and step, not the counting ones
            assert accepts == refine_every_iteration(ds, 4, sub, FAST_ADAPTIVE, Rng(seed))[3]
            total_skips += skips
        assert total_skips > 0


SWARM_IDS = [algo_id for algo_id, row in ALGORITHMS.items() if row.pso is not None]
STACK_SUB = SubtractiveConfig(r_a=0.2, stop_rule=FixedK(4))
# Stack-mates, cycled: every swarm id, refining or not, under inertia
# schedules, boundary modes, stop rules and max_iters its row does not set,
# so that members stop at different iterations
STACK_MATES = [
    ("brapso", {"max_iter": 12}),
    ("pso", {"boundary": "restricted", "inertia": exponential_literal(0.9)}),
    ("sc_br_apso", {"inertia": linear(0.9, 0.4), "stall_iters": 3, "rel_tol": 1e-3}),
    ("kmeans_pso", {"max_iter": 7, "boundary": "restricted"}),
    ("sub_pso", {"inertia": exponential_normalized(0.9), "stall_iters": 4, "rel_tol": 1e-4}),
    ("brapso", {"boundary": "none", "inertia": linear(0.9, 0.4)}),
]


def swarm_runs(mates):
    """A (Plan, fresh Rng) pair per (algorithm id, config overrides), seeded
    by its place; subtractive ones seed from STACK_SUB, the others take
    k = 4."""
    runs = []
    for seed, (algo_id, overrides) in enumerate(mates):
        row = ALGORITHMS[algo_id]
        config = replace(row.pso, **{"swarm_size": 6, "max_iter": 40, **overrides})
        if row.seeding == "subtractive":
            plan = Plan(algo_id, config=config, sub_config=STACK_SUB)
        else:
            plan = Plan(algo_id, 4, config, kmeans_max_iter=5)
        runs.append((plan, Rng(seed)))
    return runs


def bits(value):
    value = np.asarray(value)
    return value.dtype, value.shape, value.tobytes()


def assert_same_run(a, b):
    """Two StackedRuns' outcomes equal bit for bit."""
    for f in fields(a.outcome):
        x, y = getattr(a.outcome, f.name), getattr(b.outcome, f.name)
        if f.name == "assignment":
            assert x.k == y.k
            x, y = x.cluster_of, y.cluster_of
        assert bits(x) == bits(y), f.name


class TestStackedRuns:
    """Each swarm of a stack ends as it does alone, bit for bit, whatever
    its stack-mates, their configs and when they stop."""

    @staticmethod
    def dataset():
        return normalize_minmax(make_blobs(**dict(OVERLAPPING, seed=3)))[0]

    @pytest.mark.parametrize("size", [1, 2, 7])
    @pytest.mark.parametrize("algo_id", SWARM_IDS)
    def test_each_swarm_equals_its_lone_run(self, algo_id, size):
        ds = self.dataset()
        mates = [(algo_id, {}), *itertools.islice(itertools.cycle(STACK_MATES), size - 1)]
        stacked = run_stack(ds, swarm_runs(mates))
        assert len(stacked) == size
        for run, got in zip(swarm_runs(mates), stacked):
            [alone] = run_stack(ds, [run])
            assert_same_run(got, alone)
        if size == 7:
            assert len({got.outcome.iterations_used for got in stacked}) >= 4
        # the first run's entry point runs it alone too
        plan, rng = swarm_runs(mates)[0]
        entry = getattr(pipelines, ALGORITHMS[algo_id].entry)
        kwargs = ({"sub_config": plan.sub_config} if plan.k is None
                  else {"k": plan.k, **({"kmeans_max_iter": 5} if algo_id == "kmeans_pso" else {})})
        outcome = entry(ds, config=plan.config, rng=rng, **kwargs)
        assert all(bits(getattr(outcome, f.name)) == bits(getattr(stacked[0].outcome, f.name))
                   for f in fields(outcome) if f.name != "assignment")

    def test_seconds_cover_every_swarm(self):
        stacked = run_stack(self.dataset(), swarm_runs(STACK_MATES))
        assert all(got.seconds > 0 for got in stacked)

    @pytest.mark.parametrize("case", ["k", "swarm_size", "c1", "c2", "v_max_fraction", "kmeans",
                                      "all"])
    def test_swarms_that_cannot_share_a_stack_get_stacks_of_their_own(self, monkeypatch, case):
        # the first pso swarm, a copy of it with the case's field of the stack
        # key changed ("all" changes each field in a copy of its own), a mate
        # of the first swarm, and for "kmeans" and "all" Lloyd's algorithm,
        # which runs alone
        sizes = []
        real = pipelines.init_swarm

        def spy(members, *args):
            sizes.append(len(members))
            return real(members, *args)

        def runs():
            first, mate = swarm_runs([("pso", {}), ("pso", {})])
            plan, config = first[0], first[0].config
            changes = {"k": {"k": 3}, "swarm_size": {"config": replace(config, swarm_size=5)},
                       "c1": {"config": replace(config, c1=1.0)},
                       "c2": {"config": replace(config, c2=1.0)},
                       "v_max_fraction": {"config": replace(config, v_max_fraction=0.5)}}
            changed = [(replace(plan, **change), Rng(seed))
                       for seed, (field, change) in enumerate(changes.items(), 2)
                       if case in (field, "all")]
            lloyd = [(Plan("kmeans", 4, kmeans_max_iter=5), Rng(9))] * (case in ("kmeans", "all"))
            return [first, *changed, mate, *lloyd]

        monkeypatch.setattr(pipelines, "init_swarm", spy)
        ds = self.dataset()
        stacked = run_stack(ds, runs())
        changed = {"all": 5, "kmeans": 0}.get(case, 1)
        assert sizes == [2] + [1] * changed
        assert len(stacked) == len(runs()) and all(got.seconds > 0 for got in stacked)
        for run, got in zip(runs(), stacked):
            [alone] = run_stack(ds, [run])
            assert_same_run(got, alone)
        if case in ("kmeans", "all"):
            lloyd = run_kmeans(ds, 4, rng=Rng(9), max_iter=5)
            assert all(bits(getattr(lloyd, f.name)) == bits(getattr(stacked[-1].outcome, f.name))
                       for f in fields(lloyd) if f.name != "assignment")


@st.composite
def stack_mixes(draw):
    """2-6 (Plan, seed) runs for one dataset: any algorithm, k, swarm size,
    inertia, boundary, max_iter (at most 5) and stall rule. Subtractive
    runs take a fixed k, so they share stacks with the others."""
    runs = []
    for _ in range(draw(st.integers(2, 6))):
        algo_id = draw(st.sampled_from(pipelines.ALGORITHM_IDS))
        row, k = ALGORITHMS[algo_id], draw(st.integers(2, 3))
        lloyd = draw(st.integers(1, 5))
        if row.pso is None:
            plan = Plan(algo_id, k, kmeans_max_iter=lloyd)
        else:
            config = replace(
                row.pso, swarm_size=draw(st.sampled_from([3, 4])), max_iter=draw(st.integers(1, 5)),
                inertia=draw(st.sampled_from([linear(0.9, 0.4), linear(1.2, 0.1),
                                              exponential_literal(0.9),
                                              exponential_normalized(0.9)])),
                boundary=draw(st.sampled_from(["restricted", "none"])),
                stall_iters=draw(st.integers(1, 3)),
                rel_tol=draw(st.sampled_from([0.0, 1e-8, 1e-3])))
            if row.seeding == "subtractive":
                plan = Plan(algo_id, config=config,
                            sub_config=SubtractiveConfig(r_a=0.2, stop_rule=FixedK(k)))
            else:
                plan = Plan(algo_id, k, config, kmeans_max_iter=lloyd)
        runs.append((plan, draw(st.integers(0, 2**32))))
    return runs


@settings(max_examples=60, deadline=None)
@given(stack_mixes())
def test_stacked_runs_equal_their_lone_runs(runs):
    # one process, no pool: each run of one run_stack call against
    # pipelines.run of its plan on a fresh stream of the same seed
    ds = TestStackedRuns.dataset()
    stacked = run_stack(ds, [(plan, Rng(seed)) for plan, seed in runs])
    for (plan, seed), got in zip(runs, stacked):
        alone = pipelines.run(ds, plan, Rng(seed))
        for f in fields(alone):
            x, y = getattr(got.outcome, f.name), getattr(alone, f.name)
            if f.name == "assignment":
                assert x.k == y.k
                x, y = x.cluster_of, y.cluster_of
            assert bits(x) == bits(y), f.name
