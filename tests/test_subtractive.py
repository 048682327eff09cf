import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from swarmclust import core, subtractive
from swarmclust.core import ContractViolation, Dataset, DegenerateInput, Rng
from swarmclust.data import make_blobs, normalize_minmax
from swarmclust.subtractive import (
    DensityRatio,
    FixedK,
    SubtractiveConfig,
    density_initial,
    density_revise,
    select_centers,
)

from oracles import density_initial_ref, density_revise_ref, select_centers_ref


def line_dataset():
    return Dataset(points=np.array([[0.0], [1.0], [2.0]]))


class TestDensityInitial:
    @pytest.mark.parametrize("r_a", [0.0, -1.0, math.nan])
    def test_radius_not_positive_refused(self, r_a):
        with pytest.raises(ContractViolation, match="r_a must be positive"):
            density_initial(line_dataset(), r_a)

    def test_single_point_self_term(self):
        ds = Dataset(points=np.array([[4.2, -1.0]]))
        assert density_initial(ds, r_a=0.7)[0] == 1.0

    def test_two_coincident_points(self):
        ds = Dataset(points=np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert np.array_equal(density_initial(ds, 1.3), [2.0, 2.0])

    def test_three_point_line(self):
        # r_a = 2 makes the kernel denominator 1
        d = density_initial(line_dataset(), r_a=2.0)
        end = 1.0 + math.exp(-1.0) + math.exp(-4.0)
        mid = 1.0 + 2.0 * math.exp(-1.0)
        assert d == pytest.approx([end, mid, end], rel=1e-12)

    def test_range_and_oracle(self):
        rng = Rng(11)
        pts = rng.normal(0, 1, size=(12, 3))
        ds = Dataset(points=pts)
        d = density_initial(ds, 0.8)
        assert np.all(d >= 1.0) and np.all(d <= 12.0)
        ref = density_initial_ref(pts.tolist(), 0.8)
        assert d == pytest.approx(ref, rel=1e-12)


class TestBlockedKernel:
    """density_initial goes over the rows in blocks of KERNEL_BLOCK // N on
    one thread; the result must not depend on where the block edges fall."""

    ROWS = 4

    @staticmethod
    def full_matrix(x, r_a):
        return np.exp(-cdist(x, x, "sqeuclidean") / (r_a / 2.0) ** 2).sum(axis=1)

    @pytest.mark.parametrize("n", [1, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 3])
    def test_equals_full_matrix(self, n, monkeypatch):
        monkeypatch.setattr(core, "KERNEL_BLOCK", self.ROWS * n)
        pts = Rng(n).uniform(0, 1, size=(n, 3))
        assert np.array_equal(density_initial(Dataset(points=pts), 0.6),
                              self.full_matrix(pts, 0.6))

    def test_block_smaller_than_a_row(self, monkeypatch):
        monkeypatch.setattr(core, "KERNEL_BLOCK", 1)
        pts = Rng(5).uniform(0, 1, size=(9, 2))
        assert np.array_equal(density_initial(Dataset(points=pts), 0.5),
                              self.full_matrix(pts, 0.5))

    def test_select_centers_over_many_blocks(self, monkeypatch):
        raw = make_blobs("art_like", {"n": 301, "k": 5, "d": 3}, seed=3)
        ds, _ = normalize_minmax(raw)
        cfg = SubtractiveConfig(stop_rule=DensityRatio(0.1))
        whole = select_centers(ds, cfg)
        monkeypatch.setattr(core, "KERNEL_BLOCK", 7 * ds.n)
        blocked = select_centers(ds, cfg)
        assert whole.k > 1
        assert np.array_equal(blocked.indices, whole.indices)
        assert np.array_equal(blocked.densities_at_selection, whole.densities_at_selection)


class TestSplitKernel:
    """density_initial splits its rows over KERNEL_WORKERS threads; with
    PARALLEL_MIN at one entry every call splits, into uneven ranges."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 5, 301, 1000])
    @pytest.mark.parametrize("d", [1, 7, 20])
    def test_equals_full_matrix(self, monkeypatch, workers, n, d):
        monkeypatch.setattr(core, "KERNEL_WORKERS", workers)
        monkeypatch.setattr(core, "PARALLEL_MIN", 1)
        pts = Rng(n * d).uniform(0, 1, size=(n, d))
        assert core.row_parts(n, n) == min(workers, n)
        densities = density_initial(Dataset(points=pts), 0.7)
        assert np.array_equal(densities, TestBlockedKernel.full_matrix(pts, 0.7))

    @pytest.mark.parametrize("workers", [2, 3])
    def test_many_blocks_per_thread(self, monkeypatch, workers):
        # 4 rows per block over 1000 / workers rows per thread
        monkeypatch.setattr(core, "KERNEL_WORKERS", workers)
        monkeypatch.setattr(core, "KERNEL_BLOCK", 4 * 1000 * workers)
        pts = Rng(11).uniform(0, 1, size=(1000, 3))
        assert core.row_parts(1000, 1000) == workers
        assert np.array_equal(density_initial(Dataset(points=pts), 0.4),
                              TestBlockedKernel.full_matrix(pts, 0.4))


class TestDensityMemory:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_peak_within_the_budget(self, monkeypatch, traced_peak, workers):
        # at most KERNEL_BLOCK kernel terms over all threads, plus the N
        # densities and 64 KiB for the call's Python objects
        monkeypatch.setattr(core, "KERNEL_WORKERS", workers)
        n = 4000
        ds = Dataset(points=Rng(n + workers).uniform(0, 1, size=(n, 8)))
        density_initial(ds, 0.5)  # starts the helper threads before the trace
        allowance = 8 * n + (64 << 10)
        assert traced_peak(lambda: density_initial(ds, 0.5)) <= 8 * core.KERNEL_BLOCK + allowance


class TestLargeN:
    # One N x N float64 array at N = 10 000 is 800 MB; the blocked kernel
    # peaks at about 41 MB, most of it the interpreter with numpy.
    CEILING_MB = 250

    def test_seeding_memory_stays_bounded(self):
        pytest.importorskip("resource")
        code = textwrap.dedent("""
            import resource, sys
            from swarmclust.data import make_blobs
            from swarmclust.subtractive import SubtractiveConfig, select_centers
            select_centers(make_blobs("art_like", {"n": 10000, "d": 8}), SubtractiveConfig())
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print(peak / (1024 * 1024 if sys.platform == "darwin" else 1024))
        """)
        src = str(Path(subtractive.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        assert float(result.stdout) < self.CEILING_MB


class TestDensityRevise:
    @pytest.mark.parametrize("r_b", [0.0, -1.0, math.nan])
    def test_radius_not_positive_refused(self, r_b):
        ds = line_dataset()
        d = density_initial(ds, 2.0)
        with pytest.raises(ContractViolation, match="r_b must be positive"):
            density_revise(d, 1, ds, r_b=r_b)

    def test_zero_at_center(self):
        ds = line_dataset()
        d = density_initial(ds, 2.0)
        revised = density_revise(d, 1, ds, r_b=3.0)
        assert revised[1] == 0.0

    def test_far_point_unchanged(self):
        pts = np.array([[0.0], [1e9]])
        ds = Dataset(points=pts)
        d = density_initial(ds, 2.0)
        revised = density_revise(d, 0, ds, r_b=3.0)
        assert revised[1] == pytest.approx(d[1], abs=1e-300)

    def test_three_point_line_value(self):
        ds = line_dataset()
        d = density_initial(ds, 2.0)
        assert int(np.argmax(d)) == 1
        revised = density_revise(d, 1, ds, r_b=3.0)
        expected = (1 + math.exp(-1) + math.exp(-4)) - (1 + 2 * math.exp(-1)) * math.exp(-1 / 2.25)
        assert revised[0] == pytest.approx(expected, rel=1e-12)
        assert revised[0] == pytest.approx(0.2733, abs=5e-5)

    def test_oracle_allows_negative(self):
        rng = Rng(3)
        pts = rng.normal(0, 0.05, size=(8, 2))
        ds = Dataset(points=pts)
        d = density_initial(ds, 1.0)
        c = int(np.argmax(d))
        revised = density_revise(d, c, ds, 1.5)
        ref = density_revise_ref(d.tolist(), c, float(d[c]), pts.tolist(), 1.5)
        assert revised == pytest.approx(ref, rel=1e-12)
        assert np.any(revised < 0)


class TestConfigRules:
    @pytest.mark.parametrize("build, message", [
        (lambda: SubtractiveConfig(r_a=math.nan), "r_a: nan is not of type 'number'"),
        (lambda: SubtractiveConfig(r_a=0.0),
         "r_a: 0.0 is less than or equal to the minimum of 0"),
        (lambda: SubtractiveConfig(r_b=math.inf), "r_b: inf is not of type 'number', 'null'"),
        (lambda: SubtractiveConfig(r_a=1.0e-300), "r_a: radius 1e-300 gives kernel scale "
         "(r/2)**2 = 0.0, not a positive finite float"),
        (lambda: SubtractiveConfig(r_a=1.0e300), "r_a: radius 1e+300 gives kernel scale "
         "(r/2)**2 = inf, not a positive finite float"),
        (lambda: SubtractiveConfig(r_a=np.float64(1.0e300)), "r_a: radius 1e+300 gives kernel "
         "scale (r/2)**2 = inf, not a positive finite float"),
        (lambda: SubtractiveConfig(r_b=1.0e300), "r_b: radius 1e+300 gives kernel scale "
         "(r/2)**2 = inf, not a positive finite float"),
        (lambda: SubtractiveConfig(r_a=2.0e154), "r_b (1.5 * r_a): radius 3e+154 gives kernel "
         "scale (r/2)**2 = inf, not a positive finite float"),
        (lambda: SubtractiveConfig(r_a=1.0, r_b=1.0e-300), "r_b: radius 1e-300 gives kernel "
         "scale (r/2)**2 = 0.0, not a positive finite float"),
        (lambda: SubtractiveConfig(max_centers=0),
         "max_centers: 0 is less than the minimum of 1"),
        (lambda: DensityRatio(1.0),
         "epsilon: 1.0 is greater than or equal to the maximum of 1"),
        (lambda: DensityRatio(math.nan), "epsilon: nan is not of type 'number'"),
        (lambda: FixedK(0), "k: 0 is less than the minimum of 1"),
        (lambda: FixedK(3.0), "k: 3.0 is not of type 'integer'"),
        (lambda: SubtractiveConfig(stop_rule=3), "stop_rule: 3 is not a FixedK or DensityRatio"),
        (lambda: SubtractiveConfig(stop_rule="fixed_k"),
         "stop_rule: 'fixed_k' is not a FixedK or DensityRatio"),
    ])
    def test_bad_field_raises_naming_it(self, build, message):
        with pytest.raises(ContractViolation) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize("k, max_centers", [(4, 3), (65, 64)])
    def test_fixed_k_above_max_centers_rejected(self, k, max_centers):
        with pytest.raises(ContractViolation) as info:
            SubtractiveConfig(stop_rule=FixedK(k), max_centers=max_centers)
        assert str(info.value) == f"stop_rule: k={k} exceeds max_centers={max_centers}"

    def test_fixed_k_at_max_centers_selects_k(self):
        ds = Dataset(points=Rng(2).uniform(0, 1, size=(20, 2)))
        config = SubtractiveConfig(stop_rule=FixedK(3), max_centers=3)
        assert select_centers(ds, config).k == 3

    @pytest.mark.parametrize("r_a, points, densities", [
        (1.0e-161, [[0.5, 0.5], [0.5, 0.5]], [2.0, 2.0]),
        # a subnormal scale: the other point's quotient overflows to -inf,
        # and its term exp(-inf) is 0, without a RuntimeWarning
        (1.0e-161, [[0.0, 0.0], [1.0, 1.0]], [1.0, 1.0]),
        (1.0, [[0.5, 0.5], [0.5, 0.5]], [2.0, 2.0]),
        (1.0e154, [[0.5, 0.5], [0.5, 0.5]], [2.0, 2.0]),
    ])
    def test_every_admitted_radius_keeps_the_self_term(self, r_a, points, densities):
        # why select_centers need not check that densities are positive:
        # every term is an exp, at least 0, and a radius the config admits
        # has a positive kernel scale, so the self term exp(-0/scale) is 1
        config = SubtractiveConfig(r_a=r_a, stop_rule=FixedK(1))
        ds = Dataset(points=np.array(points))
        assert np.array_equal(density_initial(ds, config.r_a), densities)
        # the one pick's revision divides by the r_b scale, subnormal too
        assert select_centers(ds, config).densities_at_selection.tolist() == densities[:1]

    def test_numpy_integers_and_default_r_b_accepted(self):
        assert FixedK(np.int64(3)).k == 3
        assert SubtractiveConfig(r_b=None, max_centers=np.int32(5)).effective_r_b == 0.75


class TestSelectCenters:
    def test_density_ratio_accepts_a_peak_at_exactly_epsilon(self):
        # four points at one spot and two at a far one: the densities are
        # exactly 4.0 and, once the first is suppressed, 2.0 = 0.5 * 4.0,
        # so the stop, which refuses a peak below the ratio, accepts it
        pts = np.array([[0.0, 0.0]] * 4 + [[100.0, 100.0]] * 2)
        res = select_centers(Dataset(points=pts),
                             SubtractiveConfig(r_a=0.5, stop_rule=DensityRatio(0.5)))
        assert res.densities_at_selection.tolist() == [4.0, 2.0]
        assert res.k == 2

    def test_one_point_fixed_k(self):
        ds = Dataset(points=np.array([[3.0, 4.0]]))
        res = select_centers(ds, SubtractiveConfig(stop_rule=FixedK(1)))
        assert res.k == 1
        assert np.array_equal(res.centers, [[3.0, 4.0]])

    def test_two_separated_blobs_density_ratio(self):
        raw = make_blobs("two_blob", {"n": 10, "sep": 10.0, "spread": 0.05}, seed=2)
        ds, _ = normalize_minmax(raw)
        cfg = SubtractiveConfig(r_a=0.5, stop_rule=DensityRatio(0.5))
        res = select_centers(ds, cfg)
        assert res.k == 2
        assert {int(ds.labels[i]) for i in res.indices} == {0, 1}
        ref_idx, ref_dens = select_centers_ref(
            ds.points.tolist(), 0.5, 0.75, ("density_ratio", 0.5)
        )
        assert res.indices.tolist() == ref_idx
        assert res.densities_at_selection == pytest.approx(ref_dens, rel=1e-9)

    def test_iris_fixed_k3(self, require_dataset, data_dir):
        require_dataset("iris")
        from swarmclust.data import load_dataset, registry_spec

        ds, _ = load_dataset(registry_spec("iris", data_dir))
        res = select_centers(ds, SubtractiveConfig(stop_rule=FixedK(3)))
        assert res.k == 3
        assert res.centers.shape == (3, 4)

    def test_fixed_k_larger_than_n(self):
        ds = Dataset(points=np.zeros((2, 1)))
        with pytest.raises(DegenerateInput):
            select_centers(ds, SubtractiveConfig(stop_rule=FixedK(3)))

    @staticmethod
    def grid_fixture():
        # the 24-point, four-cluster grid4 of the fixtures preset
        raw = make_blobs("grid", {"n": 24, "side": 2, "scale": 10.0, "spread": 0.1}, seed=11)
        return normalize_minmax(raw)[0]

    def test_grid_fixture_k8_picks_negative_densities(self):
        ds = self.grid_fixture()
        res = select_centers(ds, SubtractiveConfig(stop_rule=FixedK(8)))
        assert res.indices.tolist() == [11, 16, 3, 20, 19, 22, 1, 2]
        assert np.all(res.densities_at_selection[5:] < 0)
        ref_idx, ref_dens = select_centers_ref(ds.points.tolist(), 0.5, 0.75, ("fixed_k", 8))
        assert res.indices.tolist() == ref_idx
        assert res.densities_at_selection == pytest.approx(ref_dens, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("k", [9, 10, 24])
    def test_grid_fixture_beyond_k8_is_degenerate(self, k):
        # the ninth candidate outranks the eighth center once suppression
        # around the negative-density centers has raised its density
        with pytest.raises(DegenerateInput) as info:
            select_centers(self.grid_fixture(), SubtractiveConfig(stop_rule=FixedK(k)))
        assert str(info.value) == (
            f"cannot select {k} centers: after 8, suppression around "
            "negative-density centers raised the remaining densities")

    def test_selection_densities_non_increasing(self):
        for seed in range(5):
            pts = Rng(seed).uniform(0, 1, size=(20, 2))
            ds = Dataset(points=pts)
            res = select_centers(ds, SubtractiveConfig(r_a=0.4, stop_rule=FixedK(6)))
            assert np.all(np.diff(res.densities_at_selection) <= 0)
            assert res.densities_at_selection[0] == density_initial(ds, 0.4).max()

    def test_deterministic(self):
        pts = Rng(9).uniform(0, 1, size=(15, 3))
        ds = Dataset(points=pts)
        cfg = SubtractiveConfig(stop_rule=FixedK(4))
        a, b = select_centers(ds, cfg), select_centers(ds, cfg)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.indices, b.indices)

    def test_centers_are_dataset_rows(self):
        pts = Rng(4).uniform(0, 1, size=(12, 2))
        ds = Dataset(points=pts)
        res = select_centers(ds, SubtractiveConfig(stop_rule=FixedK(5)))
        for center in res.centers:
            assert any(np.array_equal(center, row) for row in pts)

    def test_oracle_equivalence_random_instances(self):
        for seed in range(10):
            rng = Rng(seed)
            n = int(rng.integers(2, 25))
            pts = rng.uniform(0, 1, size=(n, int(rng.integers(1, 4))))
            ds = Dataset(points=pts)
            k = int(rng.integers(1, min(n, 5) + 1))
            cfg = SubtractiveConfig(r_a=0.5, stop_rule=FixedK(k))
            res = select_centers(ds, cfg)
            ref_idx, ref_dens = select_centers_ref(
                pts.tolist(), 0.5, 0.75, ("fixed_k", k)
            )
            assert res.indices.tolist() == ref_idx
            assert res.densities_at_selection == pytest.approx(ref_dens, rel=1e-9)
