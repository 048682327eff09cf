import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from swarmclust.bench import (
    ConfigError,
    aggregate_records,
    emit_report,
    parse_config,
    report_to_dict,
    run_grid,
)
from swarmclust.cli import main
from swarmclust.core import derive_seed
from swarmclust.pipelines import ALGORITHMS


def fixture_config(reps=2, algorithms=None, base_seed=4242):
    algorithms = algorithms or [{"id": "kmeans"}, {"id": "sc_br_apso"}]
    return {
        "base_seed": base_seed,
        "repetitions": reps,
        "output_dir": "results/test",
        "emit": ["json", "csv", "plot_data"],
        "datasets": [
            {
                "name": "two_blob",
                "synthetic": {"kind": "two_blob", "seed": 7,
                              "params": {"n": 20, "sep": 10.0, "spread": 0.1}},
            }
        ],
        "algorithms": algorithms,
    }


def strip_wall(obj):
    if isinstance(obj, dict):
        return {k: strip_wall(v) for k, v in obj.items() if k != "wall_ms"}
    if isinstance(obj, list):
        return [strip_wall(v) for v in obj]
    return obj


class TestConfigParsing:
    def test_valid_config(self):
        cfg = parse_config(fixture_config())
        assert cfg.repetitions == 2
        assert len(cfg.datasets) == 1
        assert [a.id for a in cfg.algorithms] == ["kmeans", "sc_br_apso"]

    def test_empty_algorithms_rejected_before_running(self):
        raw = fixture_config()
        raw["algorithms"] = []
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_missing_required_field(self):
        raw = fixture_config()
        del raw["base_seed"]
        with pytest.raises(ConfigError, match="base_seed"):
            parse_config(raw)

    def test_unknown_algorithm_id(self):
        raw = fixture_config(algorithms=[{"id": "dbscan"}])
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_accepted_param_names(self):
        pso = {"c1", "c2", "inertia", "max_iter", "swarm_size", "boundary",
               "v_max_fraction", "stall_iters", "rel_tol"}
        sub = {"stop", "epsilon", "r_a", "r_b", "max_centers"}
        expected = {
            "kmeans": {"k", "max_iter"},
            "pso": {"k"} | pso,
            "kmeans_pso": {"k", "kmeans_max_iter"} | pso,
            "sub_pso": {"k"} | pso | sub,
            "brapso": {"k"} | pso,
            "sc_br_apso": {"k"} | pso | sub,
        }
        assert {algo_id: row.param_names for algo_id, row in ALGORITHMS.items()} == expected
        parse_config(fixture_config(algorithms=[
            {"id": algo_id, "params": dict.fromkeys(names, 1)}
            for algo_id, names in expected.items()
        ]))

    @pytest.mark.parametrize("algo_id, params, unknown", [
        ("pso", {"swarmsize": 500, "max_itr": 1}, "['max_itr', 'swarmsize']"),
        ("kmeans", {"max_iter": 5, "c1": 1.0}, "['c1']"),
        ("brapso", {"stop": "fixed_k"}, "['stop']"),
        ("sub_pso", {"kmeans_max_iter": 5}, "['kmeans_max_iter']"),
        ("sc_br_apso", {"inertia": {"kind": "linear", "wmax": 0.5}}, "['inertia.wmax']"),
    ])
    def test_unknown_params_rejected(self, algo_id, params, unknown):
        raw = fixture_config(algorithms=[{"id": "kmeans"}, {"id": algo_id, "params": params}])
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert str(info.value) == (
            f"config invalid at algorithms/1/params: unknown keys {unknown}"
        )

    def test_duplicate_dataset_names(self):
        raw = fixture_config()
        raw["datasets"] = raw["datasets"] * 2
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(raw)


class TestSeedSplitting:
    def test_injective_over_a_million_cells(self):
        seeds = set()
        datasets = [f"ds{i}" for i in range(10)]
        algorithms = [f"algo{i}" for i in range(10)]
        for ds in datasets:
            for algo in algorithms:
                for rep in range(10_000):
                    seeds.add(derive_seed(42, ds, algo, rep))
        assert len(seeds) == 1_000_000

    def test_base_seed_changes_everything(self):
        a = derive_seed(1, "iris", "pso", 0)
        b = derive_seed(2, "iris", "pso", 0)
        assert a != b


class TestRunGrid:
    def test_single_cell(self):
        cfg = parse_config(fixture_config(reps=1, algorithms=[{"id": "kmeans"}]))
        report = run_grid(cfg)
        assert len(report.records) == 1
        rec = report.records[0]
        assert rec["status"] == "ok"
        assert rec["seed"] == derive_seed(4242, "two_blob", "kmeans", 0)
        assert report.failed_cells == 0

    def test_record_count_is_full_grid(self):
        cfg = parse_config(fixture_config(reps=3))
        report = run_grid(cfg)
        assert len(report.records) == 1 * 2 * 3

    def test_deterministic_across_runs_and_jobs(self):
        cfg = parse_config(fixture_config(reps=2))
        r1 = strip_wall(report_to_dict(run_grid(cfg, jobs=1)))
        r2 = strip_wall(report_to_dict(run_grid(cfg, jobs=1)))
        r3 = strip_wall(report_to_dict(run_grid(cfg, jobs=2)))
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        assert json.dumps(r1, sort_keys=True) == json.dumps(r3, sort_keys=True)

    def test_cell_failure_recorded_and_grid_continues(self):
        raw = fixture_config(reps=1, algorithms=[{"id": "kmeans"}, {"id": "pso"}])
        # unlabeled dataset and no explicit k: kmeans and pso both fail...
        raw["datasets"] = [{
            "name": "unlabeled",
            "synthetic": {"kind": "two_blob", "seed": 1, "params": {"n": 8}},
        }]
        # ...except make pso viable by giving it k
        raw["algorithms"][1]["params"] = {"k": 2, "max_iter": 10, "swarm_size": 4}
        cfg = parse_config(raw)

        # strip labels so k_true is unavailable for kmeans
        import swarmclust.bench as bench_mod
        from swarmclust.core import Dataset

        original = bench_mod.load_dataset

        def unlabeled_loader(spec):
            ds, rec = original(spec)
            return Dataset(ds.points, None, ds.name, None), rec

        bench_mod.load_dataset, saved = unlabeled_loader, original
        try:
            report = run_grid(cfg)
        finally:
            bench_mod.load_dataset = saved
        by_algo = {r["algorithm"]: r for r in report.records}
        assert by_algo["kmeans"]["status"] == "error"
        assert "k" in by_algo["kmeans"]["error"]
        assert by_algo["pso"]["status"] == "ok"
        assert by_algo["pso"]["error_percent"] is None
        assert report.failed_cells == 1

    def test_unknown_stop_and_inertia_kind_fail_the_cell(self):
        raw = fixture_config(reps=1, algorithms=[
            {"id": "sc_br_apso", "params": {"stop": "bogus"}},
            {"id": "brapso", "params": {"inertia": {"kind": "bogus"}}},
        ])
        report = run_grid(parse_config(raw))
        assert {r["algorithm"]: r["error"] for r in report.records} == {
            "sc_br_apso": "ConfigError: unknown stop rule 'bogus'",
            "brapso": "ConfigError: unknown inertia kind 'bogus'",
        }

    @pytest.mark.parametrize("row", ALGORITHMS.values(), ids=lambda row: row.id)
    def test_cells_call_entry_points_through_bench(self, row, monkeypatch):
        # perfbench/tracer.py times each cell by wrapping these names in bench
        import swarmclust.bench as bench_mod

        real = getattr(bench_mod, row.entry)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0].name)
            return real(*args, **kwargs)

        monkeypatch.setattr(bench_mod, row.entry, spy)
        raw = fixture_config(reps=2, algorithms=[{"id": row.id}])
        report = run_grid(parse_config(raw))
        assert report.failed_cells == 0
        assert calls == ["two_blob", "two_blob"]

    def test_aggregates_match_recomputation(self):
        cfg = parse_config(fixture_config(reps=4))
        report = run_grid(cfg)
        fresh = aggregate_records(report.records)
        for agg, again in zip(report.aggregates, fresh):
            assert agg == again
        for agg in report.aggregates:
            group = [r for r in report.records
                     if r["dataset"] == agg["dataset"]
                     and r["algorithm"] == agg["algorithm"]
                     and r["status"] == "ok"]
            sicds = np.array([r["sicd"] for r in group])
            assert agg["sicd_mean"] == pytest.approx(sicds.mean(), rel=1e-9)
            assert agg["sicd_std"] == pytest.approx(sicds.std(), rel=1e-9)
            assert agg["sicd_best"] == sicds.min()
            assert agg["sicd_worst"] == sicds.max()

    def test_every_algorithm_separates_the_blobs(self):
        raw = fixture_config(reps=10, algorithms=[
            {"id": "kmeans"}, {"id": "pso"}, {"id": "kmeans_pso"},
            {"id": "sub_pso"}, {"id": "brapso"}, {"id": "sc_br_apso"},
        ])
        report = run_grid(parse_config(raw))
        assert report.failed_cells == 0
        for agg in report.aggregates:
            assert agg["error_percent_mean"] <= 5.0, agg


class TestEmitReport:
    def test_unknown_format_rejected(self, tmp_path):
        cfg = parse_config(fixture_config(reps=1))
        report = run_grid(cfg)
        with pytest.raises(ConfigError):
            emit_report(report, ["json", "parquet"], tmp_path)

    def test_json_round_trips(self, tmp_path):
        cfg = parse_config(fixture_config(reps=1))
        report = run_grid(cfg)
        paths = emit_report(report, ["json"], tmp_path)
        loaded = json.loads(paths["json"].read_text())
        assert loaded == json.loads(json.dumps(report_to_dict(report)))
        assert loaded["schema_version"] == 1

    def test_csv_row_count(self, tmp_path):
        cfg = parse_config(fixture_config(reps=3))
        report = run_grid(cfg)
        paths = emit_report(report, ["csv"], tmp_path)
        lines = paths["csv"].read_text().strip().splitlines()
        assert len(lines) == len(report.records) + 1

    def test_plot_data_has_full_traces(self, tmp_path):
        cfg = parse_config(fixture_config(reps=2))
        report = run_grid(cfg)
        paths = emit_report(report, ["plot_data"], tmp_path)
        lines = paths["plot_data"].read_text().strip().splitlines()
        expected = sum(len(t) for t in report.traces.values())
        assert len(lines) == expected + 1


class TestCli:
    def write_config(self, tmp_path, raw):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        return str(path)

    def test_validate_ok(self, tmp_path):
        path = self.write_config(tmp_path, fixture_config(reps=1))
        result = CliRunner().invoke(main, ["validate", "--config", path])
        assert result.exit_code == 0
        assert "config ok" in result.output

    def test_validate_bad_config_exits_2(self, tmp_path):
        raw = fixture_config()
        raw["repetitions"] = 0
        path = self.write_config(tmp_path, raw)
        result = CliRunner().invoke(main, ["validate", "--config", path])
        assert result.exit_code == 2

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_unknown_param_exits_2(self, tmp_path, command):
        raw = fixture_config(reps=1, algorithms=[
            {"id": "pso", "params": {"swarmsize": 500, "max_itr": 1}},
        ])
        args = [command, "--config", self.write_config(tmp_path, raw)]
        if command == "run":
            args += ["--out", str(tmp_path / "out")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert "algorithms/0/params: unknown keys ['max_itr', 'swarmsize']" in result.output
        assert not (tmp_path / "out").exists()

    def test_missing_config_exits_2(self):
        result = CliRunner().invoke(main, ["run", "--config", "no-such-file.yaml"])
        assert result.exit_code == 2

    def test_run_writes_reports(self, tmp_path):
        path = self.write_config(tmp_path, fixture_config(reps=1))
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["run", "--config", path, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "report.json").exists()
        assert (out / "records.csv").exists()
        assert (out / "traces.csv").exists()

    def test_run_filter(self, tmp_path):
        path = self.write_config(tmp_path, fixture_config(reps=2))
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["run", "--config", path, "--out", str(out),
                   "--filter", "algo=kmeans"]
        )
        assert result.exit_code == 0, result.output
        loaded = json.loads((out / "report.json").read_text())
        assert {r["algorithm"] for r in loaded["records"]} == {"kmeans"}

    def test_preset_validates(self):
        result = CliRunner().invoke(main, ["validate", "--config", "fixtures"])
        assert result.exit_code == 0, result.output

    def test_paper_protocol_preset_parses(self):
        from swarmclust.bench import load_config
        from swarmclust.cli import _resolve_config

        cfg = load_config(_resolve_config("paper_protocol"))
        assert len(cfg.datasets) == 9
        assert len(cfg.algorithms) == 6
        assert cfg.repetitions == 20

    def test_env_var_overrides(self, tmp_path):
        path = self.write_config(tmp_path, fixture_config(reps=1))
        out = tmp_path / "env_out"
        result = CliRunner().invoke(
            main, ["run", "--config", path],
            env={"SWARMCLUST_OUT_DIR": str(out), "SWARMCLUST_JOBS": "2"},
        )
        assert result.exit_code == 0, result.output
        assert (out / "report.json").exists()

    def test_list_commands(self):
        runner = CliRunner()
        datasets = runner.invoke(main, ["list-datasets"])
        assert datasets.exit_code == 0
        assert "iris" in datasets.output
        algos = runner.invoke(main, ["list-algorithms"])
        assert algos.exit_code == 0
        for row in ALGORITHMS.values():
            assert f"{row.id:12s} {row.summary}\n" in algos.output
