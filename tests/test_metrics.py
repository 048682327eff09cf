import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swarmclust import core
from swarmclust.core import Assignment, ContractViolation, Dataset, Rng, derive_seed
from swarmclust.metrics import (
    UnsupportedEvaluation,
    convergence_stats,
    error_rate,
    _max_weight_matching,
    sicd,
)

from oracles import (
    convergence_stats_ref,
    error_rate_majority_ref,
    error_rate_optimal_ref,
    sicd_ref,
)


def random_instance(seed, n=12, d=2, k=3):
    rng = Rng(seed)
    pts = rng.uniform(-5, 5, size=(n, d))
    centroids = rng.uniform(-5, 5, size=(k, d))
    cluster_of = rng.integers(0, k, size=n)
    return Dataset(points=pts), centroids, Assignment(cluster_of, k=k)


class TestSicd:
    def test_points_at_centroids(self):
        ds = Dataset(points=np.array([[1.0, 1.0], [3.0, 3.0]]))
        centroids = ds.points.copy()
        a = Assignment(np.array([0, 1]), k=2)
        assert sicd(centroids, a, ds) == 0.0

    def test_hand_sum_one_cluster(self):
        ds = Dataset(points=np.array([[0.0], [2.0]]))
        a = Assignment(np.array([0, 0]), k=1)
        assert sicd(np.array([[1.0]]), a, ds) == pytest.approx(2.0, rel=1e-15)

    def test_matches_double_loop_oracle(self):
        for seed in range(20):
            ds, centroids, a = random_instance(seed)
            ref = sicd_ref(centroids.tolist(), a.cluster_of.tolist(), ds.points.tolist())
            assert sicd(centroids, a, ds) == pytest.approx(ref, rel=1e-12)

    @given(st.floats(0.01, 100.0))
    def test_one_homogeneous_scaling(self, s):
        ds, centroids, a = random_instance(7)
        base = sicd(centroids, a, ds)
        scaled = sicd(centroids * s, a, Dataset(points=ds.points * s))
        assert scaled == pytest.approx(s * base, rel=1e-9)

    def test_permutation_invariance(self):
        ds, centroids, a = random_instance(3)
        perm = np.array([2, 0, 1])
        inv = np.argsort(perm)
        permuted = Assignment(inv[a.cluster_of], k=a.k)
        assert sicd(centroids[perm], permuted, ds) == pytest.approx(
            sicd(centroids, a, ds), rel=1e-12
        )

    def test_empty_cluster_contributes_zero(self):
        ds = Dataset(points=np.array([[0.0], [1.0]]))
        a = Assignment(np.array([0, 0]), k=2)
        assert sicd(np.array([[0.5], [99.0]]), a, ds) == pytest.approx(1.0)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 5, 301, 1000])
    def test_blocked_equals_one_go(self, monkeypatch, workers, n):
        # d + 1 scratch entries a point: about three blocks of points
        d, k = 3, 5
        rng = Rng(derive_seed(61, workers, n))
        ds = Dataset(points=rng.normal(size=(n, d)) * rng.uniform(0.01, 100.0, size=d))
        centroids = rng.normal(size=(k, d))
        a = Assignment(rng.integers(0, k, size=n), k=k)
        diffs = ds.points - centroids[a.cluster_of]
        one_go = float(np.sqrt(np.einsum("ij,ij->i", diffs, diffs)).sum())
        monkeypatch.setattr(core, "KERNEL_WORKERS", workers)
        monkeypatch.setattr(core, "PARALLEL_MIN", 1)
        monkeypatch.setattr(core, "KERNEL_BLOCK", (d + 1) * max(1, n // 3))
        blocks = []
        real = core.map_blocks
        monkeypatch.setattr(core, "map_blocks", lambda *args: blocks.append(args) or real(*args))
        assert sicd(centroids, a, ds) == one_go
        assert blocks or n == 1


class TestErrorRate:
    def test_perfect_match_after_mapping(self):
        a = Assignment(np.array([0, 0, 1, 1]), k=2)
        percent, mapping, conf = error_rate(a, np.array([0, 0, 1, 1]))
        assert percent == 0.0
        assert mapping == {0: 0, 1: 1}
        assert conf.sum() == 4

    def test_alternating_is_fifty_percent(self):
        a = Assignment(np.array([0, 1, 0, 1]), k=2)
        percent, _, _ = error_rate(a, np.array([0, 0, 1, 1]))
        # both one-to-one mappings leave two points misplaced
        assert percent == 50.0

    def test_single_cluster_balanced_majority(self):
        a = Assignment(np.zeros(8, dtype=int), k=1)
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        percent, mapping, _ = error_rate(a, labels, "majority")
        assert percent == 50.0
        assert mapping[0] == 0  # tie resolves to lower class id

    def test_missing_labels(self):
        a = Assignment(np.array([0, 1]), k=2)
        with pytest.raises(UnsupportedEvaluation):
            error_rate(a, None)

    def test_negative_labels_are_a_contract_violation(self):
        # numpy would count -1 as the last class instead
        a = Assignment(np.array([0, 1, 0, 1]), k=2)
        with pytest.raises(ContractViolation, match="nonnegative"):
            error_rate(a, np.array([-1, 0, 1, 1]))

    @pytest.mark.parametrize("labels", [[0.9, 1.2, 0.3], [True, False, True],
                                        np.array(["0", "1", "1"])])
    def test_labels_refused_unless_integers(self, labels):
        # cast, [0.9, 1.2, 0.3] would read as [0, 1, 0] and score 33.3
        a = Assignment([0, 1, 1], k=2)
        with pytest.raises(ContractViolation, match="^labels must be integers, got dtype"):
            error_rate(a, labels)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64])
    def test_integer_label_dtypes_accepted(self, dtype):
        a = Assignment([0, 1, 1], k=2)
        assert error_rate(a, np.array([1, 0, 0], dtype=dtype))[0] == 0.0

    def test_relabeling_recovers_zero(self):
        rng = Rng(5)
        labels = rng.integers(0, 3, size=30)
        labels[:3] = [0, 1, 2]
        perm = np.array([2, 0, 1])
        a = Assignment(perm[labels], k=3)
        percent, _, _ = error_rate(a, labels)
        assert percent == 0.0

    def test_bounds_and_mapping_dominance(self):
        # Majority mapping maximizes matched points per cluster with no
        # one-to-one constraint, so it never reports more error than the
        # constrained optimal matching; they coincide when cluster
        # majorities are distinct classes.
        for seed in range(30):
            rng = Rng(seed)
            n = int(rng.integers(4, 40))
            k = int(rng.integers(1, 5))
            n_classes = int(rng.integers(2, 5))
            labels = rng.integers(0, n_classes, size=n)
            labels[:n_classes] = np.arange(n_classes)
            a = Assignment(rng.integers(0, k, size=n), k=k)
            opt, _, _ = error_rate(a, labels, "optimal")
            maj, maj_map, _ = error_rate(a, labels, "majority")
            assert 0.0 <= opt <= 100.0
            assert 0.0 <= maj <= 100.0
            assert maj <= opt
            if len(set(maj_map.values())) == k:
                assert opt == pytest.approx(maj)

    def test_rectangular_matches_brute_force(self):
        for seed in range(30):
            rng = Rng(1000 + seed)
            n = int(rng.integers(5, 25))
            k = int(rng.integers(1, 5))
            n_classes = int(rng.integers(2, 4))
            labels = rng.integers(0, n_classes, size=n)
            labels[:n_classes] = np.arange(n_classes)
            a = Assignment(rng.integers(0, k, size=n), k=k)
            opt, _, _ = error_rate(a, labels, "optimal")
            ref = error_rate_optimal_ref(a.cluster_of.tolist(), labels.tolist(), k)
            assert opt == pytest.approx(ref, abs=1e-9)
            maj, _, _ = error_rate(a, labels, "majority")
            ref_maj = error_rate_majority_ref(a.cluster_of.tolist(), labels.tolist(), k)
            assert maj == pytest.approx(ref_maj, abs=1e-9)

    def test_larger_cases_match_brute_force(self):
        for seed in range(40):
            rng = Rng(2000 + seed)
            n = int(rng.integers(10, 200))
            k = int(rng.integers(1, 8))
            n_classes = int(rng.integers(2, 8))
            labels = rng.integers(0, n_classes, size=n)
            labels[:n_classes] = np.arange(n_classes)
            a = Assignment(rng.integers(0, k, size=n), k=k)
            opt, mapping, conf = error_rate(a, labels, "optimal")
            ref = error_rate_optimal_ref(a.cluster_of.tolist(), labels.tolist(), k)
            assert opt == pytest.approx(ref, abs=1e-9)
            matched = [c for c in mapping.values() if c is not None]
            assert len(matched) == len(set(matched)) == min(k, n_classes)

    def test_confusion_sums_to_n(self):
        a = Assignment(np.array([0, 1, 2, 0]), k=3)
        _, _, conf = error_rate(a, np.array([0, 1, 1, 0]))
        assert conf.sum() == 4
        assert conf.shape == (3, 2)


def check_matching(weights):
    """The matching against scipy's solver: same optimal total, one pair per
    row of the smaller side, ascending rows, and the same pairs again."""
    from scipy.optimize import linear_sum_assignment

    w = np.asarray(weights)
    pairs = _max_weight_matching(w)
    rows, cols = linear_sum_assignment(w, maximize=True)
    assert sum(int(w[r, c]) for r, c in pairs) == int(w[rows, cols].sum())
    assert len(pairs) == min(w.shape)
    assert len({r for r, _ in pairs}) == len({c for _, c in pairs}) == len(pairs)
    assert [r for r, _ in pairs] == sorted(r for r, _ in pairs)
    assert _max_weight_matching(w) == pairs


class TestMaxWeightMatching:
    def test_random_integer_matrices_match_scipy(self):
        rng = Rng(77)
        for _ in range(600):
            k, c = (int(v) for v in rng.integers(1, 13, size=2))
            high = (2, 4, 50, 10**6)[int(rng.integers(0, 4))]
            check_matching(rng.integers(0, high, size=(k, c)))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (3, 5), (5, 3), (12, 12)])
    def test_zero_and_constant_matrices(self, shape):
        for value in (0, 1, 9):
            check_matching(np.full(shape, value, dtype=np.int64))

    def test_single_row_and_column_pick_the_first_maximum(self):
        assert _max_weight_matching([[4]]) == [(0, 0)]
        assert _max_weight_matching([[1, 5, 2, 5]]) == [(0, 1)]
        assert _max_weight_matching([[1], [5], [2], [5]]) == [(1, 0)]

    def test_64_by_64(self):
        check_matching(Rng(64).integers(0, 1000, size=(64, 64)))

    def test_non_matrix_rejected(self):
        with pytest.raises(ContractViolation):
            _max_weight_matching(np.zeros(3, dtype=np.int64))


# Modules no grid run from a parsed mapping at one job may load: the
# distance kernel comes from its extension file, the error rate's matching
# and the config checker are in-house, PyYAML is imported by load_config
# alone and the process pool by jobs above 1 alone.
UNUSED_BY_A_RUN = ("scipy", "jsonschema", "referencing", "attr", "attrs", "rpds", "yaml",
                   "multiprocessing", "concurrent.futures.process", "numpy.ma")


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on this
    checkout's sources, where ``loaded_unused()`` lists the modules of
    ``UNUSED_BY_A_RUN`` loaded so far; fails the test on a non-zero exit."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    preamble = textwrap.dedent(f"""
        import sys
        def loaded_unused():
            return sorted(m for m in sys.modules if any(
                m == top or m.startswith(top + ".") for top in {UNUSED_BY_A_RUN!r}))
    """)
    result = subprocess.run([sys.executable, "-c", preamble + textwrap.dedent(code)], env=env,
                            capture_output=True, text=True, timeout=120, check=False)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_no_process_imports_scipy():
    # A fresh interpreter shows whether anything loads the modules a run
    # does not use. scipy imported afterwards must then work alongside the
    # early-loaded kernel.
    code = """
        import numpy as np
        import swarmclust, swarmclust.bench, swarmclust.cli
        from swarmclust import core
        from swarmclust.bench import parse_config, run_grid
        from swarmclust.core import Assignment
        from swarmclust.metrics import error_rate
        error_rate(Assignment(np.array([0, 1, 1]), k=2), np.array([1, 0, 0]))
        report = run_grid(parse_config({
            "base_seed": 1, "repetitions": 1, "output_dir": "unused",
            "datasets": [{"name": "two_blob", "synthetic": {
                "kind": "two_blob", "seed": 7, "params": {"n": 20}}}],
            "algorithms": [{"id": "sc_br_apso"}],
        }), jobs=1)
        assert report.records[0]["error_percent"] is not None, report.records
        print(loaded_unused())
        from scipy.spatial.distance import cdist
        a, b = np.random.default_rng(3).normal(size=(2, 40, 6))
        assert np.array_equal(cdist(a, b, "sqeuclidean"), core.sqeuclidean(a, b))
    """
    assert run_fresh(code).strip() == "[]"


def test_load_config_imports_yaml_when_called(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(textwrap.dedent("""
        base_seed: 1
        repetitions: 2
        datasets:
          - name: two_blob
            synthetic: {kind: two_blob, seed: 7, params: {n: 20}}
        algorithms:
          - id: kmeans
            params: {k: 2}
    """), encoding="utf-8")
    code = f"""
        from swarmclust.bench import load_config
        config = load_config({str(path)!r})
        assert config.repetitions == 2 and config.algorithms[0].params == {{"k": 2}}
        print(sorted({{m.split(".")[0] for m in loaded_unused()}}))
    """
    assert run_fresh(code).strip() == "['yaml']"


class TestConvergenceStats:
    def test_constant_trace(self):
        assert convergence_stats([5.0] * 10, stall_iters=2) == 0

    def test_strictly_improving_never_converges(self):
        trace = [10.0 - i for i in range(8)]
        assert convergence_stats(trace, rel_tol=1e-8, stall_iters=2) == 8

    def test_drop_then_flat(self):
        assert convergence_stats([10.0, 5.0, 5.0, 5.0], stall_iters=2) == 1

    def test_window_not_confirmable(self):
        # too short to show stall_iters flat steps after any index
        assert convergence_stats([10.0, 5.0], stall_iters=2) == 2

    def test_improvement_resets_window(self):
        trace = [10.0, 10.0, 10.0, 4.0, 4.0, 4.0, 4.0]
        assert convergence_stats(trace, stall_iters=3) == 3

    # Traces built from runs of steps that stay flat, drop by less than a
    # tolerance or rise by a hair (plateaus), each run ended by a step that
    # drops or rises, from any start, zero included.
    @given(
        st.floats(-1e3, 1e3),
        st.lists(st.tuples(st.integers(0, 12), st.sampled_from([0.0, 1e-12, 1e-9, -1e-9]),
                           st.floats(-5.0, 5.0)), max_size=8),
        st.sampled_from([0.0, 1e-8, 1e-3, 0.5]),
        st.integers(1, 110),
    )
    def test_one_pass_equals_window_scan(self, start, runs, rel_tol, stall_iters):
        drops = [x for length, small, end in runs for x in [small] * length + [end]]
        trace = np.concatenate([[start], start - np.cumsum(drops)])
        assert convergence_stats(trace, rel_tol, stall_iters) == convergence_stats_ref(
            trace, rel_tol, stall_iters)
