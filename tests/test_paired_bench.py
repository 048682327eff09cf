"""scripts/paired_bench.py on canned run outputs: the pairing order, the
refusal of pairs that differ in results, the ratios and the interval."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "paired_bench.py"
spec = importlib.util.spec_from_file_location("paired_bench", SCRIPT)
paired = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired)


def output(cells_per_s, ok_frac=1.0, sicd=0.41, accuracy=82.2, correct=True):
    """A run's last line, as perfbench/run.py prints it."""
    metrics = {"cells_per_s": cells_per_s, "cell_ms_p50": 1000.0 / cells_per_s,
               "ok_frac": ok_frac, "sicd_per_point": sicd, "accuracy_pct_mean": accuracy}
    return json.dumps({"correct": correct, "attempted": 100, "failed": 0 if correct else 3,
                       "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}})


def test_pairs_alternate_their_order():
    assert [paired.pair_order(i) for i in range(4)] == [
        ("base", "tree"), ("tree", "base"), ("base", "tree"), ("tree", "base")]


def test_run_output_is_the_last_line():
    stdout = "# swarmclust benchmark\nmetric  value\n" + output(300.0) + "\n"
    assert paired.run_output(stdout)["metrics"]["cells_per_s"]["value"] == 300.0
    with pytest.raises(paired.Refused):
        paired.run_output("")


def test_pair_values_keep_both_sides_and_their_cpu_seconds():
    base, tree = paired.run_output(output(300.0)), paired.run_output(output(360.0))
    values = paired.pair_values(base, tree, 41.5, 40.25)
    assert values["base"]["cells_per_s"] == 300.0 and values["tree"]["cells_per_s"] == 360.0
    assert (values["base"]["cpu_s"], values["tree"]["cpu_s"]) == (41.5, 40.25)


@pytest.mark.parametrize("tree_kwargs, named", [
    ({"ok_frac": 0.99}, "ok_frac"),
    ({"sicd": 0.4100001}, "sicd_per_point"),
    ({"accuracy": 82.3}, "accuracy_pct_mean"),
])
def test_pairs_that_differ_in_results_are_refused(tree_kwargs, named):
    base = paired.run_output(output(300.0))
    tree = paired.run_output(output(360.0, **tree_kwargs))
    with pytest.raises(paired.Refused, match=f"differ in {named}: base"):
        paired.pair_values(base, tree, 1.0, 1.0)


def test_a_run_that_failed_its_checks_is_refused():
    base = paired.run_output(output(300.0))
    tree = paired.run_output(output(360.0, correct=False))
    with pytest.raises(paired.Refused, match="the tree run failed its checks"):
        paired.pair_values(base, tree, 1.0, 1.0)


@pytest.mark.parametrize("n, j, coverage", [
    # x_(j) and x_(n+1-j), with coverage 1 - 2 P(Binomial(n, 1/2) <= j - 1)
    (8, 2, 1 - 2 * 9 / 256), (10, 2, 1 - 2 * 11 / 1024), (16, 5, 1 - 2 * 2517 / 65536),
    (4, 1, 1 - 2 / 16), (1, 1, 0.0),
])
def test_median_interval_takes_the_widest_order_statistics_at_the_level(n, j, coverage):
    values = [float(v) for v in range(n, 0, -1)]  # given unsorted
    found = paired.median_interval(values, level=0.9)
    assert (found["lo"], found["hi"]) == (float(j), float(n + 1 - j))
    assert found["coverage"] == pytest.approx(coverage, rel=1e-12)
    assert found["median"] == (n + 1) / 2 and found["n"] == n
    if j > 1:  # one order statistic further in would fall below the level
        assert 1 - 2 * paired.binomial_cdf_half(n, j) < 0.9 <= found["coverage"]


def test_summary_gives_each_metric_its_ratios_and_quartiles():
    canned = [(300.0, 360.0), (250.0, 330.0), (320.0, 352.0), (310.0, 372.0),
              (280.0, 308.0), (330.0, 429.0), (290.0, 348.0), (305.0, 335.5)]
    pairs = [paired.pair_values(paired.run_output(output(b)), paired.run_output(output(t)),
                                40.0, 30.0) for b, t in canned]
    summary = paired.summarize(pairs, {"cells_per_s": "higher", "cell_ms_p50": "lower",
                                       "cpu_s": "lower", "absent": "lower"})
    assert set(summary) == {"cells_per_s", "cell_ms_p50", "cpu_s"}
    ratios = [t / b for b, t in canned]
    got = summary["cells_per_s"]
    assert got["ratios"] == ratios and got["better"] == "higher"
    ordered = sorted(ratios)
    assert got["median"] == pytest.approx((ordered[3] + ordered[4]) / 2, rel=1e-15)
    assert (got["lo"], got["hi"]) == (ordered[1], ordered[6])
    assert got["base"]["p50"] == pytest.approx(302.5) and got["tree"]["p50"] == pytest.approx(350.0)
    assert summary["cell_ms_p50"]["median"] == pytest.approx(
        statistics.median(b / t for b, t in canned), rel=1e-12)
    assert summary["cpu_s"]["median"] == 0.75


def test_end_to_end_metrics_come_from_the_benchmark_file():
    metrics = paired.end_to_end_metrics(SCRIPT.parents[1] / "BENCHMARK.json")
    assert metrics["cells_per_s"] == "higher" and metrics["peak_rss_mb"] == "lower"
    assert metrics["cpu_s"] == "lower"
