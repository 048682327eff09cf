import numpy as np
import pytest

from swarmclust.core import (
    Assignment,
    ContractViolation,
    Dataset,
    DegenerateInput,
    Rng,
    derive_seed,
)
from swarmclust.data import make_blobs, normalize_minmax
from swarmclust.metrics import sicd
from swarmclust.pipelines import (
    assign_nearest,
    recompute_centroids,
    run_brapso,
    run_kmeans,
    run_kmeans_pso,
    run_pso,
    run_sc_br_apso,
    run_subtractive_pso,
)
from swarmclust.subtractive import DensityRatio, FixedK, SubtractiveConfig
from swarmclust.swarm import PsoConfig, exponential_normalized, linear

from oracles import assign_nearest_ref, exhaustive_best_sicd

FAST_PLAIN = PsoConfig(inertia=linear(0.9, 0.4), boundary="none", max_iter=60,
                       swarm_size=10)
FAST_ADAPTIVE = PsoConfig(inertia=exponential_normalized(0.9), boundary="restricted",
                          max_iter=60, swarm_size=10)


def blob_fixture(seed=7, **overrides):
    params = {"n": 20, "sep": 10.0, "spread": 0.1}
    params.update(overrides)
    ds, _ = normalize_minmax(make_blobs("two_blob", params, seed=seed))
    return ds


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

    def test_matches_brute_force_table(self):
        rng = Rng(13)
        pts = rng.uniform(-3, 3, size=(6, 2))
        centroids = rng.uniform(-3, 3, size=(2, 2))
        ds = Dataset(points=pts)
        a = assign_nearest(ds, centroids)
        assert a.cluster_of.tolist() == assign_nearest_ref(pts.tolist(), centroids.tolist())


class TestRecomputeCentroids:
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


class TestRunKmeans:
    def test_k_equals_n_zero_cost(self):
        ds = Dataset(points=np.array([[0.0], [3.0], [9.0]]))
        out = run_kmeans(ds, 3, "random_points", Rng(1))
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
            out = run_kmeans(ds, 2, "random_points", Rng(seed))
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
            out = run_kmeans(ds, 2, "random_points", Rng(seed))
            assert out.sicd <= worst + 1e-12

    def test_k_above_n_rejected(self):
        ds = Dataset(points=np.zeros((2, 1)))
        with pytest.raises(DegenerateInput):
            run_kmeans(ds, 3, "random_points", Rng(0))

    def test_trace_non_increasing_on_fixture(self):
        ds = blob_fixture()
        for seed in range(20):
            out = run_kmeans(ds, 2, "random_points", Rng(seed))
            assert np.all(np.diff(out.sicd_trace) <= 0)


ALL_RUNNERS = {
    "kmeans": lambda ds, k, sub, rng: run_kmeans(ds, k, "random_points", rng),
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
            km = run_kmeans(ds, 2, "random_points", Rng(derive_seed(3, "km", s)))
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
