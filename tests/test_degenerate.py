"""Degenerate inputs through all six algorithms.

Each algorithm must either return a usable outcome (finite SICD and
centroids, a valid ``Assignment`` of every point) or refuse the input with
``DegenerateInput`` or ``ContractViolation``; any other exception, a NaN or
an infinite cost is a failure.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from swarmclust import pipelines
from swarmclust.core import Assignment, ContractViolation, Dataset, DegenerateInput, Rng
from swarmclust.data import make_blobs, normalize_minmax
from swarmclust.subtractive import DensityRatio, FixedK, SubtractiveConfig

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
