"""Degenerate inputs through all six algorithms.

Each algorithm must either return a usable outcome (finite SICD and
centroids, a valid ``Assignment`` of every point) or refuse the input with
``DegenerateInput`` or ``ContractViolation``; any other exception, a NaN or
an infinite cost is a failure.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import yaml
from click.testing import CliRunner

from swarmclust import pipelines
from swarmclust.cli import main
from swarmclust.core import Assignment, ContractViolation, Dataset, DegenerateInput, Rng
from swarmclust.data import CsvSource, DatasetSpec, load_dataset, make_blobs, normalize_minmax
from swarmclust.subtractive import DensityRatio, FixedK, SubtractiveConfig, select_centers

SUBTRACTIVE = ("sub_pso", "sc_br_apso")
# Short swarms keep each example to a few milliseconds.
SHORT = dict(swarm_size=4, max_iter=8, stall_iters=3)


def grid4() -> Dataset:
    """24 points in four tight blobs, min-max normalized as a benchmark run
    loads them: fixed_k at k >= 9 drives the revised densities negative."""
    blobs = make_blobs("grid", {"n": 24, "side": 2, "scale": 10.0, "spread": 0.1}, seed=11)
    return normalize_minmax(blobs)[0]


@st.composite
def degenerate_datasets(draw):
    kind = draw(st.sampled_from(["duplicates", "constant_columns", "one_point",
                                 "one_column", "grid4"]))
    if kind == "grid4":
        return grid4()
    coords = st.floats(-5.0, 5.0, allow_nan=False, allow_subnormal=False)
    n = 1 if kind == "one_point" else draw(st.integers(2, 12))
    d = 1 if kind == "one_column" else draw(st.integers(1, 3))
    if kind == "duplicates":
        distinct = draw(hnp.arrays(np.float64, (draw(st.integers(1, 3)), d), elements=coords))
        points = distinct[draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n,
                                        max_size=n))]
    else:
        points = draw(hnp.arrays(np.float64, (n, d), elements=coords))
    if kind == "constant_columns":
        for j in draw(st.sets(st.integers(0, d - 1), min_size=1)):
            points[:, j] = draw(coords)
    return Dataset(points=points)


@st.composite
def sub_configs(draw, n):
    """Stop rules that ask for 1 to n + 1 centers, or a density ratio capped
    at one center. A fixed k above max_centers is refused, so a fixed k's
    cap of one is raised to k."""
    r_a = draw(st.sampled_from([0.05, 0.5, 4.0]))
    rule = draw(st.one_of(
        st.builds(FixedK, st.integers(1, n + 1)),
        st.builds(DensityRatio, st.sampled_from([0.15, 0.5, 0.99])),
    ))
    cap = draw(st.sampled_from([1, 64]))
    if isinstance(rule, FixedK):
        cap = max(cap, rule.k)
    return SubtractiveConfig(r_a=r_a, stop_rule=rule, max_centers=cap)


def run(algo_id, dataset, k, sub_config, seed):
    algo = pipelines.ALGORITHMS[algo_id]
    entry = getattr(pipelines, algo.entry)
    rng = Rng(seed)
    if algo.pso is None:
        return entry(dataset, k, None, rng, max_iter=8)
    config = replace(algo.pso, **SHORT)
    if algo_id in SUBTRACTIVE:
        return entry(dataset, sub_config, config, rng)
    return entry(dataset, k, config, rng)


def check_outcome(outcome, dataset):
    centroids = outcome.centroids
    assert centroids.ndim == 2 and centroids.shape[1] == dataset.d
    assert np.all(np.isfinite(centroids))
    assert isinstance(outcome.assignment, Assignment)
    assert outcome.assignment.n == dataset.n
    assert outcome.assignment.k == centroids.shape[0]
    assert np.isfinite(outcome.sicd) and outcome.sicd >= 0.0
    assert np.all(np.isfinite(outcome.sicd_trace))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_degenerate_inputs_give_an_outcome_or_a_documented_error(data):
    dataset = data.draw(degenerate_datasets())
    k = data.draw(st.integers(1, dataset.n + 1))
    sub_config = data.draw(sub_configs(dataset.n))
    seed = data.draw(st.integers(0, 2**32))
    for algo_id in pipelines.ALGORITHM_IDS:
        try:
            outcome = run(algo_id, dataset, k, sub_config, seed)
        except (DegenerateInput, ContractViolation):
            continue
        check_outcome(outcome, dataset)


@pytest.mark.parametrize("algo_id", SUBTRACTIVE)
@pytest.mark.parametrize("k", [9, 12])
def test_negative_density_fixed_k_is_degenerate(algo_id, k):
    with pytest.raises(DegenerateInput, match="negative-density"):
        run(algo_id, grid4(), None, SubtractiveConfig(stop_rule=FixedK(k)), 0)


@pytest.mark.parametrize("algo_id", SUBTRACTIVE)
def test_failed_seeding_precedes_the_missing_rng(algo_id):
    # run_stack seeds before any run's checks, so the seeding's error comes
    # first
    entry = getattr(pipelines, pipelines.ALGORITHMS[algo_id].entry)
    with pytest.raises(DegenerateInput, match="negative-density"):
        entry(grid4(), SubtractiveConfig(stop_rule=FixedK(9)))


@pytest.mark.parametrize("algo_id", pipelines.ALGORITHM_IDS)
@pytest.mark.parametrize("points", [
    np.full((6, 2), 3.0),  # all points the same
    np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 4.0], [0.0, 8.0]]),  # constant column
    np.array([[2.5]]),  # one point
    np.array([[0.0], [1.0], [1.0], [5.0]]),  # one column, a duplicate
], ids=["duplicates", "constant_column", "one_point", "one_column"])
def test_every_point_a_center(algo_id, points):
    # k = n, or subtractive seeding asked for every point: each has an answer
    dataset = Dataset(points=points)
    sub_config = SubtractiveConfig(stop_rule=FixedK(dataset.n))
    outcome = run(algo_id, dataset, dataset.n, sub_config, 5)
    check_outcome(outcome, dataset)
    assert outcome.centroids.shape[0] == dataset.n


@pytest.mark.parametrize("algo_id", SUBTRACTIVE)
@pytest.mark.parametrize("sub_config", [
    SubtractiveConfig(stop_rule=DensityRatio(0.99)),
    SubtractiveConfig(max_centers=1),
], ids=["high_epsilon", "max_centers_1"])
def test_seeding_one_center(algo_id, sub_config):
    dataset = make_blobs("art_like", {"k": 1}, seed=3)
    outcome = run(algo_id, dataset, None, sub_config, 1)
    check_outcome(outcome, dataset)
    assert outcome.centroids.shape[0] == 1
    assert np.array_equal(outcome.assignment.cluster_of, np.zeros(dataset.n))


# A column whose range, max - min, overflows the float range. Each call
# site below subtracts points (the normalization's span, Lloyd's SICD, the
# subtractive densities and the swarm's search box) and used to overflow
# there; the dataset refuses such points when it is built.
OVERFLOWING_RANGE = [[-1.0e308], [1.0e308], [0.0]]
RANGE_REFUSED = (r"^dataset columns \[0\] span more than the float range "
                 r"\(max - min overflows\)$")


@pytest.mark.parametrize("call_site", [
    normalize_minmax,
    lambda ds: pipelines.run_kmeans(ds, 2, rng=Rng(0)),
    lambda ds: select_centers(ds, SubtractiveConfig(stop_rule=FixedK(2))),
    lambda ds: pipelines.run_pso(ds, 2, rng=Rng(0)),
], ids=["normalize_minmax", "run_kmeans", "select_centers", "run_pso"])
def test_column_range_past_the_float_range_is_refused_before_the_call_site(call_site):
    with pytest.raises(ContractViolation, match=RANGE_REFUSED):
        call_site(Dataset(points=np.array(OVERFLOWING_RANGE)))


@pytest.mark.parametrize("normalize", [True, False])
def test_column_range_past_the_float_range_is_refused_at_load(tmp_path, normalize):
    path = tmp_path / "wide.csv"
    path.write_text("x,class\n" + "".join(f"{row[0]!r},a\n" for row in OVERFLOWING_RANGE),
                    encoding="utf-8")
    spec = DatasetSpec("wide", CsvSource(str(path), label_column="class", header=True),
                       normalize=normalize)
    with pytest.raises(ContractViolation, match=RANGE_REFUSED):
        load_dataset(spec)


def test_column_range_at_the_float_range_is_normalized():
    # max - min = 1.6e308 is finite: the span is taken without a warning
    points = np.array([[-8.0e307, 1.0], [8.0e307, 3.0], [0.0, 2.0]])
    scaled, record = normalize_minmax(Dataset(points=points))
    assert np.array_equal(scaled.points, [[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
    assert record.constant_columns == ()


# A column whose squared span overflows, though its span does not: the
# squared distances the fitness and the assignment take overflow with it.
SQUARE_OVERFLOWS = [[0.0], [1.0e200], [5.0e199]]
SQUARES_REFUSED = ("^dataset's squared distances overflow: its columns' squared spans sum "
                   "past the float range$")


@pytest.mark.parametrize("call_site", [
    lambda ds: pipelines.run_kmeans(ds, 2, rng=Rng(0)),
    lambda ds: pipelines.run_pso(ds, 2, rng=Rng(0)),
    lambda ds: pipelines.run_sc_br_apso(ds, SubtractiveConfig(stop_rule=FixedK(2)), rng=Rng(0)),
], ids=["run_kmeans", "run_pso", "run_sc_br_apso"])
def test_squared_distances_past_the_float_range_are_refused(call_site):
    dataset = Dataset(points=np.array(SQUARE_OVERFLOWS))
    with pytest.raises(DegenerateInput, match=SQUARES_REFUSED):
        call_site(dataset)
    normalized = normalize_minmax(dataset)[0]
    check_outcome(call_site(normalized), normalized)


def test_squared_distances_past_the_float_range_fail_each_cell(tmp_path):
    # sep 1e300 puts the two blobs' squared distance past the float range
    raw = {"base_seed": 1, "repetitions": 2, "output_dir": str(tmp_path / "out"),
           "emit": ["json"],
           "datasets": [{"name": "far", "normalize": False, "synthetic": {
               "kind": "two_blob", "seed": 3, "params": {"sep": 1.0e300}}}],
           "algorithms": [{"id": "kmeans", "params": {"k": 2}},
                          {"id": "pso", "params": {"k": 2}}]}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    result = CliRunner().invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 1
    assert "0/4 cells ok" in result.output

    def refuse(constant):
        raise ValueError(f"report.json holds {constant}")

    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"),
                        parse_constant=refuse)
    assert len(report["records"]) == 4
    for record in report["records"]:
        assert record["error"] == ("DegenerateInput: dataset's squared distances overflow: "
                                   "its columns' squared spans sum past the float range")


# A column at the float maximum: its span and squared distances are
# finite, but a cluster's coordinate sum, and so its mean, overflows.
MEANS_OVERFLOW = [[1.7e308, 0.0], [1.7e308, 1.0], [1.7e308, 2.0], [1.7e308, 5.0]]


@pytest.mark.parametrize("call_site", [
    lambda ds: pipelines.run_kmeans(ds, 2, rng=Rng(0)),
    lambda ds: pipelines.run_kmeans_pso(ds, 2, rng=Rng(0)),
    lambda ds: pipelines.run_brapso(ds, 2, rng=Rng(0)),
], ids=["run_kmeans", "run_kmeans_pso", "run_brapso"])
def test_cluster_means_past_the_float_range_are_refused(call_site):
    with pytest.raises(DegenerateInput, match="^cluster means overflow: a cluster's "
                       "coordinate sum passes the float range$"):
        call_site(Dataset(points=np.array(MEANS_OVERFLOW)))
