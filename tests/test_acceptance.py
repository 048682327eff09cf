"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria needing real
dataset files skip when the files are absent (conftest materializes iris and
wine from scikit-learn's bundled copies when it can).
"""

import json
import time

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from swarmclust.cli import main as cli_main
from swarmclust.core import Dataset, Rng, derive_seed
from swarmclust.data import load_dataset, make_blobs, normalize_minmax, registry_spec
from swarmclust.metrics import convergence_stats, error_rate, sicd
from swarmclust.pipelines import (
    _fitness_for,
    run_brapso,
    run_kmeans,
    run_kmeans_pso,
    run_pso,
    run_sc_br_apso,
    run_subtractive_pso,
)
from swarmclust.subtractive import (
    DensityRatio,
    FixedK,
    SubtractiveConfig,
    density_initial,
    density_revise,
    select_centers,
)
from swarmclust.swarm import (
    PsoConfig,
    exponential_literal,
    exponential_normalized,
    init_swarm,
    linear,
    step,
)
from swarmclust.core import Assignment

from oracles import (
    StubStream,
    density_initial_ref,
    density_revise_ref,
    error_rate_optimal_ref,
    exhaustive_best_sicd,
    pso_replay,
    select_centers_ref,
    sicd_ref,
)


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")


def blob_fixture(seed=7, **overrides):
    params = {"n": 20, "sep": 10.0, "spread": 0.1}
    params.update(overrides)
    ds, _ = normalize_minmax(make_blobs("two_blob", params, seed=seed))
    return ds


def art_fixture():
    ds, _ = normalize_minmax(
        make_blobs("art_like", {"n": 30, "k": 3, "spread": 0.15, "box": 10.0}, seed=13)
    )
    return ds


SIX = ("kmeans", "pso", "kmeans_pso", "sub_pso", "brapso", "sc_br_apso")


def run_algorithm(algo, dataset, k, rng):
    sub = SubtractiveConfig(stop_rule=FixedK(k))
    if algo == "kmeans":
        return run_kmeans(dataset, k, None, rng)
    if algo == "pso":
        return run_pso(dataset, k, rng=rng)
    if algo == "kmeans_pso":
        return run_kmeans_pso(dataset, k, rng=rng)
    if algo == "sub_pso":
        return run_subtractive_pso(dataset, sub, rng=rng)
    if algo == "brapso":
        return run_brapso(dataset, k, rng=rng)
    return run_sc_br_apso(dataset, sub, rng=rng)


def test_criterion_1_equation_oracles():
    """Vectorized operations match straight-line reference implementations
    to 1e-9 relative on 100+ randomized instances each, in under 10 s."""
    ok = False
    start = time.perf_counter()
    try:
        master = Rng(20250810)
        for i in range(100):
            rng = master.spawn("densities", i)
            n = int(rng.integers(2, 31))
            d = int(rng.integers(1, 5))
            pts = rng.uniform(-2, 2, size=(n, d))
            ds = Dataset(points=pts)
            r_a = float(rng.uniform(0.2, 3.0))
            dens = density_initial(ds, r_a)
            assert dens == pytest.approx(density_initial_ref(pts.tolist(), r_a), rel=1e-9)
            c = int(np.argmax(dens))
            r_b = 1.5 * r_a
            revised = density_revise(dens, c, ds, r_b)
            ref = density_revise_ref(dens.tolist(), c, float(dens[c]), pts.tolist(), r_b)
            assert revised == pytest.approx(ref, rel=1e-9, abs=1e-12)

        for i in range(100):
            rng = master.spawn("sicd", i)
            n = int(rng.integers(1, 31))
            d = int(rng.integers(1, 4))
            k = int(rng.integers(1, 5))
            pts = rng.uniform(-5, 5, size=(n, d))
            cents = rng.uniform(-5, 5, size=(k, d))
            ds = Dataset(points=pts)
            a = Assignment(rng.integers(0, k, size=n), k=k)
            assert sicd(cents, a, ds) == pytest.approx(
                sicd_ref(cents.tolist(), a.cluster_of.tolist(), pts.tolist()), rel=1e-9
            )

        for i in range(100):
            rng = master.spawn("error", i)
            n = int(rng.integers(4, 31))
            k = int(rng.integers(1, 5))
            n_classes = int(rng.integers(2, 5))
            labels = rng.integers(0, n_classes, size=n)
            labels[:n_classes] = np.arange(n_classes)
            a = Assignment(rng.integers(0, k, size=n), k=k)
            percent, _, _ = error_rate(a, labels, "optimal")
            ref = error_rate_optimal_ref(a.cluster_of.tolist(), labels.tolist(), k)
            assert percent == pytest.approx(ref, abs=1e-9)

        schedules = [
            (("linear", 0.9, 0.4), linear(0.9, 0.4)),
            (("exponential_literal", 0.9), exponential_literal(0.9)),
            (("exponential_normalized", 0.9), exponential_normalized(0.9)),
        ]
        for i in range(100):
            rng = master.spawn("pso", i)
            n = int(rng.integers(4, 31))
            d = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            pts = rng.uniform(-3, 3, size=(n, d))
            ds = Dataset(points=pts)
            sched_ref, sched = schedules[i % 3]
            boundary = "restricted" if i % 2 == 0 else "none"
            seeded = i % 4 < 2
            swarm_size = int(rng.integers(3, 9))
            cfg = PsoConfig(c1=1.5, c2=1.7, inertia=sched, max_iter=10,
                            swarm_size=swarm_size, boundary=boundary,
                            v_max_fraction=0.8)
            seeds = pts[:k].copy() if seeded else None
            fitness = _fitness_for(ds, k)
            stub = StubStream(1000 + i)
            swarm = init_swarm(seeds, k, ds, cfg, stub, fitness)
            trace = [swarm.gbest_fitness]
            for _ in range(10):
                step(swarm, fitness, cfg, stub)
                trace.append(swarm.gbest_fitness)
            ref_trace, _ = pso_replay(
                pts.tolist(), k, seeds.tolist() if seeded else None,
                StubStream(1000 + i), c1=1.5, c2=1.7, inertia=sched_ref,
                max_iter=10, swarm_size=swarm_size, boundary=boundary,
                v_max_fraction=0.8, iters=10,
            )
            # positions are compared on fixed cases in the swarm tests; on
            # randomized instances a near-tie pbest branch may resolve
            # differently between the two float summation orders
            assert trace == pytest.approx(ref_trace, rel=1e-9)

        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s, budget 10s"
        ok = True
    finally:
        _report("C1 equation oracles", ok, f"{time.perf_counter() - start:.1f}s")


def test_criterion_2_monotonicity_suite():
    """Best-cost traces never increase: six algorithms x 50 seeds x two
    fixtures, plus per-iteration K-Means cost. Zero violations allowed."""
    ok = False
    try:
        fixtures = [("two_blob", blob_fixture(), 2), ("art_like", art_fixture(), 3)]
        violations = 0
        for name, ds, k in fixtures:
            for algo in SIX:
                for s in range(50):
                    rng = Rng(derive_seed(2025, name, algo, s))
                    out = run_algorithm(algo, ds, k, rng)
                    if np.any(np.diff(out.sicd_trace) > 0):
                        violations += 1
        assert violations == 0
        ok = True
    finally:
        _report("C2 monotonicity suite", ok, f"{violations} violations")


def test_criterion_3_boundary_containment():
    """With restricted boundaries and in-bounds starts, no component ever
    leaves the box across 1e5 sampled particle-iterations."""
    ok = False
    sampled = 0
    out_of_bounds = 0
    try:
        ds = blob_fixture()
        cfg = PsoConfig(boundary="restricted", swarm_size=20, max_iter=100)
        fitness = _fitness_for(ds, 2)
        for s in range(50):
            rng = Rng(derive_seed(31337, s))
            swarm = init_swarm(None, 2, ds, cfg, rng, fitness)
            for _ in range(100):
                step(swarm, fitness, cfg, rng)
                for position in swarm.position:
                    sampled += 1
                    if np.any(position < swarm.lower) or np.any(position > swarm.upper):
                        out_of_bounds += 1
        assert sampled >= 100_000
        assert out_of_bounds == 0
        ok = True
    finally:
        _report("C3 boundary containment", ok,
                f"{out_of_bounds} escapes in {sampled} particle-iterations")


def test_criterion_4_small_instance_optimality():
    """Exhaustive-partition global optimum lower-bounds every algorithm on
    random instances with N <= 10, and the seeded pipeline lands within 5%
    of the optimum on the two-blob fixture for >= 45 of 50 seeds. < 2 min."""
    ok = False
    start = time.perf_counter()
    try:
        master = Rng(777)
        for i in range(20):
            rng = master.spawn("instance", i)
            k = 2 if i % 2 == 0 else 3
            n = int(rng.integers(max(4, k + 1), 11 if k == 2 else 9))
            d = int(rng.integers(1, 4))
            pts = rng.uniform(0, 1, size=(n, d))
            ds = Dataset(points=pts)
            best = exhaustive_best_sicd(pts.tolist(), k)
            for algo in SIX:
                out = run_algorithm(algo, ds, k, master.spawn("run", i, algo))
                assert out.sicd >= best - 1e-9 * (1 + best), (
                    f"{algo} on instance {i}: {out.sicd} < optimum {best}"
                )

        ds = blob_fixture(n=10)
        best = exhaustive_best_sicd(ds.points.tolist(), 2)
        close = 0
        for s in range(50):
            out = run_sc_br_apso(ds, rng=Rng(derive_seed(4444, s)))
            if out.sicd <= best * 1.05:
                close += 1
        assert close >= 45, f"only {close}/50 seeds within 5% of optimum"

        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"criterion 4 took {elapsed:.1f}s, budget 120s"
        ok = True
    finally:
        _report("C4 small-instance optimality", ok,
                f"{time.perf_counter() - start:.1f}s")


def test_criterion_5_seeding_quality():
    """Density-ratio seeding on the separated two-blob fixture finds exactly
    two centers, one inside each blob, for all 20 generator seeds, and the
    selection replays exactly on the brute-force density oracle."""
    ok = False
    failures = []
    try:
        cfg = SubtractiveConfig(r_a=0.5, stop_rule=DensityRatio(0.15))
        for gseed in range(20):
            raw = make_blobs("two_blob", {"n": 20, "sep": 10.0, "spread": 0.1}, seed=gseed)
            ds, _ = normalize_minmax(raw)
            res = select_centers(ds, cfg)
            blobs = {int(ds.labels[i]) for i in res.indices}
            if res.k != 2 or blobs != {0, 1}:
                failures.append(gseed)
                continue
            ref_idx, ref_dens = select_centers_ref(
                ds.points.tolist(), 0.5, 0.75, ("density_ratio", 0.15)
            )
            assert res.indices.tolist() == ref_idx
            assert res.densities_at_selection == pytest.approx(ref_dens, rel=1e-9)
        assert not failures
        ok = True
    finally:
        _report("C5 seeding quality", ok,
                "all 20 generator seeds" if not failures else f"failed: {failures}")


def test_criterion_6_iris_ablation_direction(require_dataset, data_dir):
    """On Iris with three fixed clusters, mean cost orders
    sc_br_apso <= brapso <= pso over 20 seeds, and the seeded pipeline
    converges in no more iterations than plain PSO. < 5 min."""
    require_dataset("iris")
    ok = False
    start = time.perf_counter()
    detail = ""
    try:
        ds, _ = load_dataset(registry_spec("iris", data_dir))
        sub = SubtractiveConfig(stop_rule=FixedK(3))
        runners = {
            "sc_br_apso": lambda r: run_sc_br_apso(ds, sub, rng=r),
            "brapso": lambda r: run_brapso(ds, 3, rng=r),
            "pso": lambda r: run_pso(ds, 3, rng=r),
        }
        mean_sicd, mean_conv = {}, {}
        for algo, fn in runners.items():
            sicds, convs = [], []
            for s in range(20):
                out = fn(Rng(derive_seed(42, algo, s)))
                sicds.append(out.sicd)
                convs.append(convergence_stats(out.sicd_trace))
            mean_sicd[algo] = float(np.mean(sicds))
            mean_conv[algo] = float(np.mean(convs))
        detail = (f"sicd {mean_sicd['sc_br_apso']:.3f} <= {mean_sicd['brapso']:.3f}"
                  f" <= {mean_sicd['pso']:.3f}; conv {mean_conv['sc_br_apso']:.1f}"
                  f" <= {mean_conv['pso']:.1f}")
        assert mean_sicd["sc_br_apso"] <= mean_sicd["brapso"] <= mean_sicd["pso"]
        assert mean_conv["sc_br_apso"] <= mean_conv["pso"]
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"criterion 6 took {elapsed:.1f}s, budget 300s"
        ok = True
    finally:
        _report("C6 iris ablation direction", ok, detail)


def test_criterion_7_report_determinism(tmp_path):
    """Identical config and base seed give byte-identical JSON reports
    (wall-clock fields excluded) across reruns and across --jobs 1 vs 8."""
    ok = False
    try:
        raw = {
            "base_seed": 2718,
            "repetitions": 2,
            "emit": ["json"],
            "datasets": [{
                "name": "two_blob",
                "synthetic": {"kind": "two_blob", "seed": 7,
                              "params": {"n": 20, "sep": 10.0, "spread": 0.1}},
            }],
            "algorithms": [{"id": a} for a in SIX],
        }
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(raw), encoding="utf-8")

        def run_once(out_name, jobs):
            out = tmp_path / out_name
            result = CliRunner().invoke(cli_main, [
                "run", "--config", str(config_path), "--out", str(out),
                "--jobs", str(jobs),
            ])
            assert result.exit_code == 0, result.output
            return (out / "report.json").read_bytes()

        def canonical(raw_bytes):
            def strip(obj):
                if isinstance(obj, dict):
                    return {k: strip(v) for k, v in obj.items() if k != "wall_ms"}
                if isinstance(obj, list):
                    return [strip(v) for v in obj]
                return obj

            return json.dumps(strip(json.loads(raw_bytes)), sort_keys=True).encode()

        first = canonical(run_once("run1", 1))
        second = canonical(run_once("run2", 1))
        parallel = canonical(run_once("run8", 8))
        assert first == second
        assert first == parallel
        ok = True
    finally:
        _report("C7 report determinism", ok)


def test_criterion_8_registry_conformance(data_dir):
    """Each locally present registry dataset loads and matches its
    advertised (N, d, k, class sizes) exactly; absent files skip."""
    from swarmclust.data import REGISTRY, registry_available

    ok = False
    checked, absent = [], []
    try:
        for name, exp in sorted(REGISTRY.items()):
            if not registry_available(name, data_dir):
                absent.append(name)
                continue
            ds, _ = load_dataset(registry_spec(name, data_dir))
            assert ds.n == exp.n
            assert ds.d == exp.d
            assert ds.n_classes == exp.k
            sizes = tuple(sorted(np.bincount(ds.labels).tolist()))
            assert sizes == tuple(sorted(exp.class_sizes))
            checked.append(name)
        assert checked, "no registry datasets present to check"
        ok = True
    finally:
        _report("C8 registry conformance", ok,
                f"checked {checked}, absent {absent}")
