import copy
import csv
import io
import json
import math
import os
import re
import string
import textwrap
from dataclasses import fields, replace
from importlib import resources

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmclust.bench import (
    CONFIG_CHECKER,
    CONFIG_SCHEMA,
    ConfigError,
    aggregate_records,
    emit_report,
    parse_config,
    report_to_dict,
    run_grid,
)
from swarmclust import bench, core, pipelines
from swarmclust.cli import main
from swarmclust.core import ContractViolation, Dataset, Rng, derive_seed
from swarmclust.data import SYNTHETIC_PARAMS, SyntheticSource, make_blobs
from swarmclust.metrics import convergence_stats
from swarmclust.pipelines import ALGORITHMS
from swarmclust.schema import SchemaChecker, field_rules
from swarmclust.swarm import Inertia, PsoConfig, linear
from swarmclust.subtractive import DensityRatio, FixedK, SubtractiveConfig, density_initial

from oracles import assign_nearest_ref, sicd_ref

# A value of the right type for every benchmark-config param name
VALID_PARAM_VALUES = {
    "k": 2, "max_iter": 5, "swarm_size": 4, "stall_iters": 3, "kmeans_max_iter": 5,
    "max_centers": 8, "c1": 1.5, "c2": 2, "rel_tol": 1e-6, "epsilon": 0.2, "r_a": 0.5,
    "r_b": 0.75, "v_max_fraction": None, "inertia": "linear", "boundary": "none",
    "stop": "density_ratio",
}


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
    """``obj`` (records, or a report as a dict) without its timing fields."""
    if isinstance(obj, dict):
        return {k: strip_wall(v) for k, v in obj.items() if k not in bench.TIMING_FIELDS}
    if isinstance(obj, list):
        return [strip_wall(v) for v in obj]
    return obj


def _kernel_state():
    # runs in a grid worker: its kernel thread count and whether it came
    # without its parent's kernel pool
    return core.KERNEL_WORKERS, core._pool is None


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

    @pytest.mark.parametrize("key", ["base_seed", "repetitions"])
    def test_integral_float_rejected(self, key):
        raw = fixture_config()
        raw[key] = 2.0
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert str(info.value) == f"config invalid at {key}: 2.0 is not of type 'integer'"

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
        # k and stop: density_ratio exclude each other, so the subtractive
        # names are spread over two entries per id
        entries = [(algo_id, part) for algo_id, names in expected.items()
                   for part in ((names - {"k"}, {"k"}) if "stop" in names else (names,))]
        parse_config(fixture_config(algorithms=[
            {"id": algo_id, "label": f"{algo_id}_{i}",
             "params": {name: VALID_PARAM_VALUES[name] for name in names}}
            for i, (algo_id, names) in enumerate(entries)
        ]))

    def test_schema_is_valid(self):
        jsonschema_validator().check_schema(CONFIG_SCHEMA)

    def test_every_accepted_param_has_a_type(self):
        names = set().union(*(row.param_names for row in ALGORITHMS.values()))
        assert names == set(VALID_PARAM_VALUES)
        params = CONFIG_SCHEMA["properties"]["algorithms"]["items"]["properties"]["params"]
        assert names == set(params["properties"])

    @pytest.mark.parametrize("params, key, message", [
        ({"inertia": 0.5}, "inertia", "0.5 is not of type 'string', 'object'"),
        ({"k": "2"}, "k", "'2' is not of type 'integer'"),
        ({"swarm_size": 2.5}, "swarm_size", "2.5 is not of type 'integer'"),
        ({"swarm_size": 4.0}, "swarm_size", "4.0 is not of type 'integer'"),
        ({"k": True}, "k", "True is not of type 'integer'"),
        ({"c1": False}, "c1", "False is not of type 'number'"),
        ({"rel_tol": "1e-6"}, "rel_tol", "'1e-6' is not of type 'number'"),
        ({"v_max_fraction": "off"}, "v_max_fraction", "'off' is not of type 'number', 'null'"),
        ({"boundary": 1}, "boundary", "1 is not of type 'string'"),
        ({"stop": None}, "stop", "None is not of type 'string'"),
        ({"epsilon": [0.1]}, "epsilon", "[0.1] is not of type 'number'"),
        ({"inertia": {"kind": "linear", "w_max": "0.9"}}, "inertia/w_max",
         "'0.9' is not of type 'number'"),
    ])
    def test_mistyped_params_rejected(self, params, key, message):
        raw = fixture_config(algorithms=[{"id": "kmeans"}, {"id": "sub_pso", "params": params}])
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert str(info.value) == f"config invalid at algorithms/1/params/{key}: {message}"

    @pytest.mark.parametrize("params, key, message", [
        ({"swarm_size": 1}, "swarm_size", "1 is less than the minimum of 2"),
        ({"max_iter": 0}, "max_iter", "0 is less than the minimum of 1"),
        ({"stall_iters": 0}, "stall_iters", "0 is less than the minimum of 1"),
        ({"k": 0}, "k", "0 is less than the minimum of 1"),
        ({"c1": -1.0}, "c1", "-1.0 is less than the minimum of 0"),
        ({"c2": -0.5}, "c2", "-0.5 is less than the minimum of 0"),
        ({"v_max_fraction": 0.0}, "v_max_fraction",
         "0.0 is less than or equal to the minimum of 0"),
        ({"v_max_fraction": 1.5}, "v_max_fraction", "1.5 is greater than the maximum of 1"),
        ({"r_a": 0.0}, "r_a", "0.0 is less than or equal to the minimum of 0"),
        ({"r_b": -1.0}, "r_b", "-1.0 is less than or equal to the minimum of 0"),
        ({"max_centers": 0}, "max_centers", "0 is less than the minimum of 1"),
        ({"epsilon": 0.0}, "epsilon", "0.0 is less than or equal to the minimum of 0"),
        ({"epsilon": 1.0}, "epsilon", "1.0 is greater than or equal to the maximum of 1"),
        ({"inertia": {"kind": "linear", "w_max": -0.1}}, "inertia/w_max",
         "-0.1 is less than the minimum of 0"),
        ({"inertia": {"kind": "linear", "w_min": -0.1}}, "inertia/w_min",
         "-0.1 is less than the minimum of 0"),
    ])
    def test_out_of_range_params_rejected(self, params, key, message):
        raw = fixture_config(algorithms=[{"id": "kmeans"}, {"id": "sc_br_apso", "params": params}])
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert str(info.value) == f"config invalid at algorithms/1/params/{key}: {message}"

    @pytest.mark.parametrize("params, key, message", [
        ({"stop": "density-ratio"}, "stop",
         "'density-ratio' is not one of ['fixed_k', 'density_ratio']"),
        ({"boundary": "restrict"}, "boundary", "'restrict' is not one of ['restricted', 'none']"),
        ({"inertia": "linaer"}, "inertia",
         "'linaer' is not one of ['linear', 'exponential_literal', 'exponential_normalized']"),
        ({"inertia": {"kind": "bogus"}}, "inertia/kind",
         "'bogus' is not one of ['linear', 'exponential_literal', 'exponential_normalized']"),
        ({"inertia": {"w_max": 0.5}}, "inertia", "'kind' is a required property"),
    ])
    def test_misspelled_values_rejected(self, params, key, message):
        raw = fixture_config(algorithms=[{"id": "kmeans"}, {"id": "sc_br_apso", "params": params}])
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert str(info.value) == f"config invalid at algorithms/1/params/{key}: {message}"

    def test_kmeans_iteration_limits_rejected(self):
        for algo_id, key in (("kmeans", "max_iter"), ("kmeans_pso", "kmeans_max_iter")):
            raw = fixture_config(algorithms=[{"id": algo_id, "params": {key: 0}}])
            with pytest.raises(ConfigError, match=f"params/{key}: 0 is less than the minimum"):
                parse_config(raw)

    def test_range_edges_run(self):
        # the edge values the schema lets through must not fail a cell either
        edges = {"swarm_size": 2, "max_iter": 1, "stall_iters": 1, "c1": 0, "c2": 0.0,
                 "v_max_fraction": 1, "r_a": 1e-3, "r_b": 1e-3, "max_centers": 1,
                 "stop": "density_ratio", "epsilon": 0.999,
                 "inertia": {"kind": "linear", "w_max": 0, "w_min": 0.0}}
        raw = fixture_config(reps=1, algorithms=[
            {"id": "kmeans", "params": {"k": 1, "max_iter": 1}},
            {"id": "kmeans_pso", "params": {"k": 1, "kmeans_max_iter": 1}},
            {"id": "sc_br_apso", "params": edges},
        ])
        report = run_grid(parse_config(raw))
        assert report.failed_cells == 0, [r.get("error") for r in report.records]

    def test_two_mistyped_params_name_one(self):
        params = {"max_centers": 3.0, "c2": "x"}
        raw = fixture_config(algorithms=[{"id": "kmeans"}, {"id": "sub_pso", "params": params}])
        with pytest.raises(ConfigError, match=r"^config invalid at algorithms/1/params/"
                                              r"(c2: 'x'|max_centers: 3\.0) is not of type"):
            parse_config(raw)

    @pytest.mark.parametrize("algo_id, params, message", [
        ("pso", {"swarmsize": 500, "max_itr": 1}, ": unknown keys ['max_itr', 'swarmsize']"),
        ("kmeans", {"max_iter": 5, "c1": 1.0}, ": unknown keys ['c1']"),
        ("brapso", {"stop": "fixed_k"}, ": unknown keys ['stop']"),
        ("sub_pso", {"kmeans_max_iter": 5}, ": unknown keys ['kmeans_max_iter']"),
        ("sc_br_apso", {"inertia": {"kind": "linear", "wmax": 0.5}},
         "/inertia: Additional properties are not allowed ('wmax' was unexpected)"),
    ])
    def test_unknown_params_rejected(self, algo_id, params, message):
        raw = fixture_config(algorithms=[{"id": "kmeans"}, {"id": algo_id, "params": params}])
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert str(info.value) == f"config invalid at algorithms/1/params{message}"

    @pytest.mark.parametrize("algo_id", ["sub_pso", "sc_br_apso"])
    @pytest.mark.parametrize("params", [
        {"stop": "fixed_k", "k": 3, "epsilon": 0.3},
        {"k": 3, "epsilon": 0.9},
        {"stop": "fixed_k", "epsilon": 0.3},
    ])
    def test_epsilon_under_fixed_k_rejected(self, algo_id, params):
        raw = fixture_config(algorithms=[{"id": "kmeans"}, {"id": algo_id, "params": params}])
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert str(info.value) == (
            "config invalid at algorithms/1/params: epsilon applies only to "
            "stop: density_ratio, but this entry seeds with stop: fixed_k"
        )

    @pytest.mark.parametrize("params", [
        {"epsilon": 0.3},
        {"stop": "density_ratio", "epsilon": 0.3},
        {"stop": "fixed_k", "k": 3},
        {"k": 3},
    ])
    def test_epsilon_with_density_ratio_or_fixed_k_alone_accepted(self, params):
        parse_config(fixture_config(algorithms=[{"id": "sc_br_apso", "params": params}]))

    @pytest.mark.parametrize("algo_id", ["sub_pso", "sc_br_apso"])
    @pytest.mark.parametrize("params", [
        {"stop": "density_ratio", "k": 7},
        {"stop": "density_ratio", "k": 2, "epsilon": 0.3},
    ])
    def test_k_under_density_ratio_rejected(self, algo_id, params):
        # density_ratio picks k itself, so a k there would be dropped
        raw = fixture_config(algorithms=[{"id": "kmeans"}, {"id": algo_id, "params": params}])
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert str(info.value) == (
            "config invalid at algorithms/1/params: k applies only to "
            "stop: fixed_k, but this entry seeds with stop: density_ratio"
        )

    def test_synthetic_params_typed_by_their_defaults(self):
        synthetic = CONFIG_SCHEMA["properties"]["datasets"]["items"]["properties"]["synthetic"]
        assert synthetic["properties"]["kind"]["enum"] == list(SYNTHETIC_PARAMS)
        params = synthetic["properties"]["params"]["properties"]
        assert params == {
            **{name: {"type": "integer", "minimum": 1} for name in ("n", "d", "side", "k")},
            **{name: {"type": "number"} for name in ("sep", "scale")},
            **{name: {"type": "number", "minimum": 0} for name in ("spread", "box")},
        }

    @pytest.mark.parametrize("kind, params, message", [
        ("two_blob", {"n": 20, "bogus": 3}, "params: unknown keys ['bogus']"),
        ("two_blob", {"side": 2}, "params: unknown keys ['side']"),
        ("art_like", {"sep": 1.0, "scale": 2.0}, "params: unknown keys ['scale', 'sep']"),
        ("two_blob", {"n": "abc"}, "params/n: 'abc' is not of type 'integer'"),
        ("two_blob", {"n": True}, "params/n: True is not of type 'integer'"),
        ("two_blob", {"n": 2.5}, "params/n: 2.5 is not of type 'integer'"),
        ("two_blob", {"d": 0}, "params/d: 0 is less than the minimum of 1"),
        ("grid", {"side": 0}, "params/side: 0 is less than the minimum of 1"),
        ("art_like", {"box": "10"}, "params/box: '10' is not of type 'number'"),
        ("art_like", {"box": -1.0}, "params/box: -1.0 is less than the minimum of 0"),
        ("grid", {"spread": -1e-300}, "params/spread: -1e-300 is less than the minimum of 0"),
    ])
    def test_bad_synthetic_params_rejected(self, kind, params, message):
        raw = fixture_config()
        raw["datasets"][0]["synthetic"] = {"kind": kind, "params": params}
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert str(info.value) == f"config invalid at datasets/0/synthetic/{message}"

    @pytest.mark.parametrize("synthetic", [
        {"kind": "nope"},
        {"kind": 3, "params": {"bogus": 1}},
        {"kind": "two_blob", "params": {"n": 20, "bogus": 3}},
        {"kind": "art_like", "params": {"sep": 1.0, "scale": 2.0}},
        {"kind": "two_blob", "params": {"n": "abc"}},
        {"kind": "grid", "params": {"side": 0, "box": 1.0}},
        {"kind": "two_blob", "params": [1]},
        {"kind": "two_blob", "seed": 7.0},
    ])
    def test_synthetic_source_refuses_what_the_config_does(self, synthetic):
        # one rule, one message: the library's without the config's path
        raw = fixture_config()
        raw["datasets"][0]["synthetic"] = synthetic
        with pytest.raises(ConfigError) as config_error:
            parse_config(raw)
        with pytest.raises(ContractViolation) as library_error:
            SyntheticSource(**synthetic)
        assert str(config_error.value) == (
            f"config invalid at datasets/0/synthetic/{library_error.value}")

    def test_duplicate_dataset_names(self):
        raw = fixture_config()
        raw["datasets"] = raw["datasets"] * 2
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(raw)


def jsonschema_validator(schema=CONFIG_SCHEMA):
    """The jsonschema validator the in-house checker answers for: draft
    2020-12, with integers that are ints, never bools or integral floats."""
    from jsonschema import Draft202012Validator, validators

    integer = Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool))
    return validators.extend(Draft202012Validator, type_checker=integer)(schema)


def rich_config():
    """A valid config that sets every key the schema describes."""
    raw = fixture_config(reps=1, algorithms=[
        {"id": "kmeans", "params": {"k": 2, "max_iter": 5}},
        {"id": "sc_br_apso", "label": "tuned", "params": {
            "c1": 1.5, "c2": 2, "swarm_size": 4, "max_iter": 5, "boundary": "restricted",
            "v_max_fraction": 0.5, "stall_iters": 3, "rel_tol": 1e-6,
            "inertia": {"kind": "linear", "w_max": 0.9, "w_min": 0.4},
            "stop": "density_ratio", "epsilon": 0.2, "r_a": 0.5, "r_b": 0.75,
            "max_centers": 8}},
    ])
    raw["data_dir"] = "data"
    raw["datasets"][0]["normalize"] = True
    raw["datasets"][0]["expected"] = {"n": 20, "d": 2, "k": 2, "class_sizes": [10, 10]}
    raw["datasets"].append({"name": "table", "csv": {
        "path": "table.csv", "label_column": "class", "delimiter": ";", "header": True,
        "drop_columns": [0], "na_values": ["?"], "na_policy": "drop"}})
    return raw


DELETE = object()


def mutated(raw, *changes):
    """A deep copy of ``raw`` with each (path, value) change made; the value
    DELETE removes the key or item, and the empty path replaces the whole
    config."""
    raw = copy.deepcopy(raw)
    for path, value in changes:
        if not path:
            raw = value
            continue
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return raw


ALGO = ("algorithms", 1, "params")
CSV = ("datasets", 1, "csv")
# One or two changes to rich_config per schema keyword, and some pairs whose
# errors jsonschema's best_match must choose between
SCHEMA_CORPUS = [
    # type: wrong type, a bool where an int or number goes, an integral float
    [((), [])],
    [(("base_seed",), "1")],
    [(("output_dir",), 3)],
    [(("emit",), "json")],
    [(("datasets",), {"name": "x"})],
    [(("datasets", 0, "normalize"), "yes")],
    [(("datasets", 0, "synthetic", "params"), [1])],
    [(CSV + ("label_column",), 1.5)],
    [(CSV + ("drop_columns", 0), "0")],
    [(CSV + ("header",), 1)],
    [(ALGO, [])],
    [(ALGO + ("inertia",), 0.5)],
    [(ALGO + ("v_max_fraction",), "off")],
    [(ALGO + ("v_max_fraction",), None)],
    [(("base_seed",), True)],
    [(("algorithms", 0, "params", "k"), True)],
    [(("datasets", 0, "expected", "n"), False)],
    [(ALGO + ("c1",), True)],
    [(("repetitions",), 2.0)],
    [(("algorithms", 0, "params", "k"), 2.0)],
    [(ALGO + ("swarm_size",), 4.0)],
    [(("datasets", 0, "synthetic", "seed"), 7.0)],
    [(("datasets", 0, "expected", "class_sizes"), [10.0, 10])],
    [(ALGO + ("c2",), 2.0)],
    # minimum, maximum and the exclusive bounds, at and beyond each
    [(("base_seed",), -1)],
    [(("base_seed",), 0)],
    [(("repetitions",), 0)],
    [(ALGO + ("swarm_size",), 1)],
    [(ALGO + ("c1",), -0.1)],
    [(ALGO + ("c1",), 0)],
    [(ALGO + ("inertia",), {"kind": "linear", "w_max": -1})],
    [(ALGO + ("max_centers",), 0)],
    [(ALGO + ("epsilon",), 0)],
    [(ALGO + ("epsilon",), 1)],
    [(ALGO + ("epsilon",), 1.0)],
    [(ALGO + ("epsilon",), 0.999)],
    [(ALGO + ("r_a",), 0)],
    [(ALGO + ("r_b",), 0.0)],
    [(ALGO + ("r_b",), 1e-9)],
    [(ALGO + ("v_max_fraction",), 0)],
    [(ALGO + ("v_max_fraction",), 1)],
    [(ALGO + ("v_max_fraction",), 1.5)],
    # enum, including a string inertia
    [(("emit",), ["json", "parquet"])],
    [(("datasets", 0, "synthetic", "kind"), "blob")],
    [(("algorithms", 0, "id"), "dbscan")],
    [(("algorithms", 0, "id"), 3)],
    [(ALGO + ("stop",), "density-ratio")],
    [(ALGO + ("boundary",), "restrict")],
    [(ALGO + ("inertia",), "linaer")],
    [(ALGO + ("inertia",), "exponential_normalized")],
    [(ALGO + ("inertia",), {"kind": "bogus"})],
    [(ALGO + ("inertia",), {"kind": 3})],
    [(ALGO + ("stop",), 3)],
    [(CSV + ("na_policy",), "skip")],
    # required
    [(("base_seed",), DELETE)],
    [(("algorithms", 0, "id"), DELETE)],
    [(CSV + ("path",), DELETE)],
    [(("datasets", 0, "synthetic", "kind"), DELETE)],
    [(("datasets", 0, "expected", "n"), DELETE)],
    [(ALGO + ("inertia",), {"w_max": 0.5})],
    # additionalProperties: false
    [(("seeds",), 1)],
    [(("seeds",), 1), (("reps",), 2)],
    [(("datasets", 0, "extra"), 1)],
    [(("algorithms", 0, "param"), {})],
    [(CSV + ("sep",), ";")],
    [(("datasets", 0, "synthetic", "size"), 3)],
    [(ALGO + ("inertia",), {"kind": "linear", "wmax": 0.5})],
    # minItems, and arrays without it
    [(("datasets",), [])],
    [(("algorithms",), [])],
    [(("emit",), [])],
    [(("datasets", 0, "expected", "class_sizes"), [])],
    [(CSV + ("drop_columns",), [])],
    # several errors: the shallowest path wins, then the greatest path, then
    # a value of the wrong type, then the first found
    [(("base_seed",), -1.0)],
    [(ALGO + ("max_centers",), 3.0), (ALGO + ("c2",), "x")],
    [(("base_seed",), DELETE), (ALGO + ("k",), "2")],
    [(("seeds",), 1), (("repetitions",), 0)],
    [(("datasets", 0, "name"), 3), (("algorithms", 0, "id"), "x")],
    [(("emit",), []), (("repetitions",), "2")],
    [(ALGO + ("inertia",), {"kind": "linear", "w_max": -1, "w_min": "x"})],
    [(ALGO + ("inertia",), {"kind": "linear", "w_max": -1, "wmax": 0.5})],
    [(("datasets", 1, "name"), 3), (("datasets", 0, "name"), 4)],
    [(("repetitions",), 0), (("base_seed",), DELETE), (("seeds",), 1)],
]


def best_match_text(raw):
    """``parse_config``'s text for jsonschema's best match on ``raw``, or
    None when jsonschema accepts it."""
    from jsonschema.exceptions import best_match

    error = best_match(jsonschema_validator().iter_errors(raw))
    if error is None:
        return None
    path = "/".join(str(p) for p in error.absolute_path) or "<root>"
    return f"config invalid at {path}: {error.message}"


PROBE_VALUES = [None, True, False, 0, -1, 1, 2, 2.0, 0.5, 1.5, "", "linear", "fixed_k",
                [], [1], ["json"], {}, {"kind": "linear"}]


def every_node(value, path=()):
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from every_node(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from every_node(item, path + (i,))


def schema_paths(schema, path=()):
    """(path, node) for every node of ``schema`` that types, enumerates or
    bounds a value, with None in the path for an array's items."""
    if {"type", "enum", "minimum", "maximum", "exclusiveMinimum",
            "exclusiveMaximum"} & set(schema):
        yield path, schema
    for name, node in schema.get("properties", {}).items():
        yield from schema_paths(node, path + (name,))
    if "items" in schema:
        yield from schema_paths(schema["items"], path + (None,))


def placed(raw, path):
    """A schema path as a path into ``raw``: each None becomes the first
    item under which the rest of the path's parent exists. None if there is
    no such place."""
    if not path:
        return ()
    key, rest = path[0], path[1:]
    for key in range(len(raw)) if key is None else (key,):
        if not rest:
            return (key,)
        if isinstance(raw, list) or key in raw:
            tail = placed(raw[key], rest)
            if tail is not None:
                return (key,) + tail
    return None


def bad_value(node):
    """A value ``node`` rejects, as jsonschema judges: just past a bound if it
    has one, else a name outside its enum or a value of another type."""
    steps = {"minimum": -1, "exclusiveMinimum": 0, "maximum": 1, "exclusiveMaximum": 0}
    candidates = [node[key] + step for key, step in steps.items() if key in node]
    validator = jsonschema_validator(node)
    return next(v for v in candidates + ["zz_bogus", 1.5] if not validator.is_valid(v))


# One bad value for every path of CONFIG_SCHEMA, placed in rich_config
BAD_VALUES = [
    pytest.param(placed(rich_config(), path), bad_value(node),
                 id="/".join("*" if key is None else key for key in path) or "<root>")
    for path, node in schema_paths(CONFIG_SCHEMA)
]


NON_FINITE = [math.nan, math.inf, -math.inf]

# NaN and both infinities at every path that takes a number, which the
# checker rejects where jsonschema would not (YAML's .nan, .inf and -.inf)
NON_FINITE_VALUES = [
    pytest.param(placed(rich_config(), path), value,
                 id="/".join("*" if key is None else key for key in path) + f"={value}")
    for path, node in schema_paths(CONFIG_SCHEMA)
    if node.get("type") in ("number", ["number", "null"]) for value in NON_FINITE
]


class TestSchemaChecker:
    """The in-house checker answers as jsonschema does on CONFIG_SCHEMA."""

    @pytest.mark.parametrize("changes", SCHEMA_CORPUS)
    def test_parse_config_agrees_with_jsonschema(self, changes):
        raw = mutated(rich_config(), *changes)
        expected = best_match_text(raw)
        if expected is None:
            parse_config(raw)
        else:
            with pytest.raises(ConfigError) as info:
                parse_config(raw)
            assert str(info.value) == expected

    def test_every_single_change_agrees_with_jsonschema(self):
        # each node replaced by each probe value, each key dropped and an
        # unknown key added to each mapping
        base = rich_config()
        assert best_match_text(base) is None
        configs = []
        for path, value in every_node(base):
            configs += [mutated(base, (path, probe)) for probe in PROBE_VALUES]
            if path:
                configs.append(mutated(base, (path, DELETE)))
            if isinstance(value, dict):
                configs.append(mutated(base, (path + ("zz_extra",), 1)))
        rejected = 0
        for raw in configs:
            expected = best_match_text(raw)
            error = CONFIG_CHECKER.best_error(raw)
            got = None if error is None else (
                f"config invalid at {'/'.join(map(str, error[0])) or '<root>'}: {error[1]}")
            assert got == expected, raw
            rejected += expected is not None
        assert len(configs) > 1000 and rejected > len(configs) // 2

    @pytest.mark.parametrize("schema, instances", [
        # a then-error on a value of the wrong type outranks an earlier one
        ({"type": "number", "minimum": 5, "if": {"type": "number"},
          "then": {"type": "integer"}}, [2.5, 2, 7.5, 7, "x"]),
        ({"type": "array", "minItems": 2, "items": {"enum": ["a", "b"]}},
         [[], ["a"], ["a", "c"], ["c"], ["a", "b"]]),
        ({"type": ["integer", "null"], "exclusiveMaximum": 3, "maximum": 2},
         [None, 1, 2, 2.5, 3, 3.0, True]),
    ])
    def test_other_schemas_agree_with_jsonschema(self, schema, instances):
        from jsonschema.exceptions import best_match

        for instance in instances:
            error = best_match(jsonschema_validator(schema).iter_errors(instance))
            expected = None if error is None else (tuple(error.absolute_path), error.message)
            assert SchemaChecker(schema).best_error(instance) == expected, instance

    @pytest.mark.parametrize("schema, value, expected", [
        ({"type": "number"}, math.nan, ((), "nan is not of type 'number'")),
        ({"type": "number", "minimum": 0}, math.inf, ((), "inf is not of type 'number'")),
        ({"type": ["number", "null"]}, -math.inf,
         ((), "-inf is not of type 'number', 'null'")),
        ({"type": "number", "minimum": 0}, 10 ** 400, None),
        ({"type": "number", "maximum": 1}, np.float64(0.5), None),
        ({"type": "integer", "minimum": 1}, np.int64(3), None),
        ({"type": "integer"}, np.True_, ((), f"{np.True_!r} is not of type 'integer'")),
        ({"type": "number"}, 1j, ((), "1j is not of type 'number'")),
        ({"type": "array", "minItems": 1, "items": {"type": "integer"}}, (1, 2), None),
        ({"type": "array", "minItems": 1}, (), ((), "() should be non-empty")),
        ({"type": "array", "items": {"type": "integer"}}, (1, "2"),
         ((1,), "'2' is not of type 'integer'")),
    ])
    def test_departures_from_json_schema(self, schema, value, expected):
        # numbers are finite reals, integers may be numpy ints and arrays
        # tuples: values no YAML file holds, so the parity tests miss them
        assert SchemaChecker(schema).best_error(value) == expected

    @pytest.mark.parametrize("schema, message", [
        ({"type": "string", "pattern": "^a"}, "unsupported schema keyword 'pattern' at <root>"),
        ({"properties": {"x": {"format": "email"}}},
         "unsupported schema keyword 'format' at properties/x"),
        ({"items": {"anyOf": [{"type": "string"}]}}, "unsupported schema keyword 'anyOf'"),
        ({"additionalProperties": True}, "only additionalProperties: false"),
        ({"additionalProperties": {"type": "string"}}, "only additionalProperties: false"),
        ({"type": "integr"}, "unknown type"),
        ({"enum": [1, 2]}, "only enums of strings"),
    ])
    def test_unsupported_schema_refused(self, schema, message):
        with pytest.raises(ValueError, match=message):
            SchemaChecker(schema)


# (dataclass, params key) for each algorithm params key that sets a
# dataclass field; an inertia mapping's keys set Inertia's
FIELD_KEYS = [(cls, name) for cls in (PsoConfig, SubtractiveConfig, DensityRatio, FixedK, Inertia)
              for name in field_rules(cls)]


class TestFieldRules:
    """A config takes a params value exactly when the dataclass it sets
    takes it, since both check the field's one rule."""

    def test_every_params_key_that_sets_a_field_is_covered(self):
        params = CONFIG_SCHEMA["properties"]["algorithms"]["items"]["properties"]["params"]
        keys = {name for cls, name in FIELD_KEYS if cls is not Inertia}
        assert keys == set(params["properties"]) - {"inertia", "kmeans_max_iter", "stop"}

    @pytest.mark.parametrize("cls, name", FIELD_KEYS,
                             ids=[f"{cls.__name__}.{name}" for cls, name in FIELD_KEYS])
    def test_config_and_library_accept_the_same_values(self, cls, name):
        algo = "sc_br_apso" if cls in (SubtractiveConfig, DensityRatio) else "pso"
        for value in PROBE_VALUES + NON_FINITE:
            kwargs = {"kind": "linear", name: value} if cls is Inertia else {name: value}
            params = {"inertia": kwargs} if cls is Inertia else kwargs
            try:
                parse_config(fixture_config(algorithms=[{"id": algo, "params": params}]))
                config_error = None
            except ConfigError as exc:
                config_error = str(exc)
            try:
                cls(**kwargs)
                library_error = None
            except ContractViolation as exc:
                library_error = str(exc)
            assert (config_error is None) == (library_error is None), (value, config_error)
            if library_error is not None:
                # config invalid at algorithms/0/params[/inertia]/<name>: <message>
                assert config_error.endswith(f"/{library_error}"), (config_error, library_error)

    def test_r_b_null_means_the_default(self):
        params = {"r_a": 0.4, "r_b": None}
        config = parse_config(fixture_config(algorithms=[{"id": "sc_br_apso", "params": params}]))
        dataset = make_blobs("two_blob", {"n": 20}, seed=7)
        plan = bench._resolve_call("blobs", dataset, config.algorithms[0])
        assert plan.sub_config.effective_r_b == 1.5 * 0.4


def two_datasets_config(reps, algorithms):
    raw = fixture_config(reps=reps, algorithms=algorithms)
    raw["datasets"].append({"name": "grid4", "synthetic": {
        "kind": "grid", "seed": 11, "params": {"n": 24, "side": 2, "scale": 10.0,
                                               "spread": 0.1}}})
    return raw


def strip_labels(monkeypatch, name):
    """Make bench load dataset ``name`` without labels or a class count."""
    real = bench.load_dataset

    def load(spec):
        dataset, record = real(spec)
        if spec.name == name:
            dataset = Dataset(dataset.points, None, dataset.name, None)
        return dataset, record

    monkeypatch.setattr(bench, "load_dataset", load)


def select_centers_spy(monkeypatch):
    calls = []
    real = pipelines.select_centers

    def spy(dataset, config):
        calls.append((dataset.name, config))
        return real(dataset, config)

    monkeypatch.setattr(pipelines, "select_centers", spy)
    return calls


class TestSeedingPass:
    """run_grid seeds each distinct (dataset, SubtractiveConfig) once, before
    any cell runs, and the cells run on that result."""

    def test_one_call_for_the_default_entries(self, monkeypatch):
        calls = select_centers_spy(monkeypatch)
        raw = fixture_config(reps=3, algorithms=[{"id": "sub_pso"}, {"id": "sc_br_apso"}])
        report = run_grid(parse_config(raw))
        assert report.failed_cells == 0
        assert calls == [("two_blob", SubtractiveConfig(stop_rule=FixedK(2)))]

    def test_one_call_per_distinct_dataset_and_config(self, monkeypatch):
        calls = select_centers_spy(monkeypatch)
        raw = two_datasets_config(reps=2, algorithms=[
            {"id": "sub_pso"},
            {"id": "sc_br_apso"},
            {"id": "sc_br_apso", "label": "a", "params": {"r_a": 0.4}},
            {"id": "sub_pso", "label": "b", "params": {"r_a": 0.4, "swarm_size": 5}},
            {"id": "sub_pso", "label": "c", "params": {"stop": "density_ratio"}},
            {"id": "brapso"},
        ])
        report = run_grid(parse_config(raw))
        assert report.failed_cells == 0
        expected = [(name, config) for name, k in (("two_blob", 2), ("grid4", 4)) for config in (
            SubtractiveConfig(stop_rule=FixedK(k)), SubtractiveConfig(r_a=0.4, stop_rule=FixedK(k)),
            SubtractiveConfig(stop_rule=DensityRatio()))]
        assert sorted(calls, key=repr) == sorted(expected, key=repr)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_records_equal_cells_seeding_themselves(self, jobs, monkeypatch):
        strip_labels(monkeypatch, "grid4")
        raw = two_datasets_config(reps=2, algorithms=[
            {"id": "sub_pso"},
            {"id": "sc_br_apso"},
            {"id": "sc_br_apso", "label": "dr", "params": {"stop": "density_ratio",
                                                           "epsilon": 0.3}},
            {"id": "sc_br_apso", "label": "big_k", "params": {"k": 9}},
        ])
        cfg = parse_config(raw)
        report = run_grid(cfg, jobs=jobs)
        records = []
        for spec in cfg.datasets:
            dataset = bench.load_dataset(spec)[0]
            for algo in cfg.algorithms:
                for rep in range(2):
                    # each cell resolved on its own: its run seeds from
                    # the SubtractiveConfig in the plan
                    plan = bench._resolve_call(spec.name, dataset, algo)
                    seed = derive_seed(cfg.base_seed, spec.name, algo.key, rep)
                    cell = (spec.name, dataset, algo.key, rep, seed, plan)
                    records.append(bench._execute_cell(cell)[0])
        records.sort(key=lambda r: (r["dataset"], r["algorithm"], r["rep"]))
        assert strip_wall(report.records) == strip_wall(records)
        by_cell = {(r["dataset"], r["algorithm"]): r.get("error") for r in records}
        assert by_cell["grid4", "big_k"] == (
            "DegenerateInput: cannot select 9 centers: after 8, suppression around "
            "negative-density centers raised the remaining densities")
        assert by_cell["grid4", "sub_pso"] is None

    def test_failed_seeding_fails_every_cell_as_before(self, monkeypatch):
        calls = select_centers_spy(monkeypatch)
        raw = two_datasets_config(reps=2, algorithms=[
            {"id": "sub_pso", "params": {"k": 9}}, {"id": "sc_br_apso", "params": {"k": 9}},
        ])
        report = run_grid(parse_config(raw), dataset_filter={"grid4"})
        assert [r["error"] for r in report.records] == [
            "DegenerateInput: cannot select 9 centers: after 8, suppression around "
            "negative-density centers raised the remaining densities"] * 4
        # one attempt for the (dataset, config) pair both entries share
        assert len(calls) == 1

    def test_k_above_n_rejected_before_any_cell(self, monkeypatch):
        calls = select_centers_spy(monkeypatch)
        raw = two_datasets_config(reps=1, algorithms=[
            {"id": "sub_pso"}, {"id": "kmeans", "label": "k_is_n", "params": {"k": 24}},
        ])
        with pytest.raises(ConfigError) as info:
            run_grid(parse_config(raw))
        assert str(info.value) == (
            "config invalid for algorithm k_is_n on dataset two_blob: "
            "k=24 exceeds the dataset's 20 points"
        )
        assert calls == []
        # checked per loaded dataset: grid4 holds 24 points, and k = N runs
        report = run_grid(parse_config(raw), dataset_filter={"grid4"})
        assert report.failed_cells == 0
        assert {r["algorithm"]: r["k"] for r in report.records} == {"sub_pso": 4, "k_is_n": 24}

    def test_fixed_k_at_max_centers_runs(self):
        raw = two_datasets_config(reps=1, algorithms=[
            {"id": "sc_br_apso", "params": {"max_centers": 4}},
            {"id": "sub_pso", "params": {"k": 3, "max_centers": 3}},
        ])
        report = run_grid(parse_config(raw), dataset_filter={"grid4"})
        assert report.failed_cells == 0
        assert {r["algorithm"]: r["k"] for r in report.records} == {"sc_br_apso": 4,
                                                                     "sub_pso": 3}

    def test_ignored_epsilon_rejected_before_any_cell(self, monkeypatch):
        calls = select_centers_spy(monkeypatch)
        raw = fixture_config(reps=1, algorithms=[
            {"id": "kmeans"}, {"id": "sc_br_apso", "params": {"epsilon": 0.3}},
        ])
        with pytest.raises(ConfigError) as info:
            run_grid(parse_config(raw))
        assert str(info.value) == (
            "config invalid for algorithm sc_br_apso on dataset two_blob: epsilon applies "
            "only to stop: density_ratio, but this entry seeds with stop: fixed_k from "
            "the dataset's 2 classes"
        )
        assert calls == []

    def test_epsilon_without_stop_seeds_density_ratio_on_unlabelled_data(self, monkeypatch):
        calls = select_centers_spy(monkeypatch)
        unlabelled = Dataset(points=np.arange(8.0).reshape(4, 2), name="u")
        monkeypatch.setattr(bench, "load_dataset", lambda spec: (unlabelled, None))
        raw = fixture_config(reps=1, algorithms=[
            {"id": "sc_br_apso", "params": {"epsilon": 0.3}}])
        raw["datasets"][0]["name"] = "u"
        cfg = parse_config(raw)
        [(_, _, plan)] = bench.load_grid(cfg, cfg.algorithms)[2]
        sub = plan.sub_config
        assert sub == SubtractiveConfig(stop_rule=DensityRatio(0.3))
        run_grid(cfg)
        assert calls == [("u", sub)]

    @pytest.mark.parametrize("algo_id, params, expected", [
        ("kmeans", {}, {}),
        # Lloyd's max_iter and kmeans_pso's kmeans_max_iter set one limit
        ("kmeans", {"max_iter": 5}, {"kmeans_max_iter": 5}),
        ("kmeans_pso", {}, {}),
        ("kmeans_pso", {"kmeans_max_iter": 7, "max_iter": 5}, {"kmeans_max_iter": 7}),
        ("pso", {"max_iter": 5}, {}),  # a swarm's max_iter is in its PsoConfig
        # subtractive seeding picks k itself, from its sub_config
        ("sub_pso", {"max_iter": 5},
         {"k": None, "sub_config": SubtractiveConfig(stop_rule=FixedK(2))}),
        ("sc_br_apso", {"r_a": 0.4},
         {"k": None, "sub_config": SubtractiveConfig(r_a=0.4, stop_rule=FixedK(2))}),
    ])
    def test_plan_fields_only_where_params_set_them(self, algo_id, params, expected):
        dataset = make_blobs("two_blob", {"n": 20}, seed=7)
        plan = bench._resolve_call("b", dataset, bench.AlgorithmSpec(algo_id, params))
        assert isinstance(plan.config, PsoConfig) == (algo_id != "kmeans")
        assert replace(plan, config=None) == pipelines.Plan(algo_id, **{"k": 2, **expected})

    def test_cells_are_evaluated_under_the_config_they_ran_with(self, monkeypatch):
        # a stop rule set in the base config, not in the params, reaches the
        # cell's record only through its plan's config
        row = ALGORITHMS["pso"]
        monkeypatch.setitem(ALGORITHMS, "pso", replace(row, pso=replace(row.pso, stall_iters=3)))
        report = run_grid(parse_config(fixture_config(algorithms=[{"id": "pso"}])))
        assert report.failed_cells == 0
        for rec in report.records:
            trace = report.traces[rec["dataset"], rec["algorithm"], rec["rep"]]
            assert rec["iterations"] < row.pso.max_iter  # the stall stopped the run
            assert rec["iterations_to_converge"] == convergence_stats(trace, 1e-8, 3)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# Per id: params, and the pipelines entry point called directly with the
# configs those params stand for on two_blob (two classes).
DIRECT_CALLS = {
    "kmeans": ({"max_iter": 2}, lambda ds, rng: pipelines.run_kmeans(
        ds, 2, None, rng, max_iter=2)),
    "pso": ({"swarm_size": 5, "max_iter": 8}, lambda ds, rng: pipelines.run_pso(
        ds, 2, replace(pipelines.PLAIN_PSO, swarm_size=5, max_iter=8), rng)),
    "kmeans_pso": ({"kmeans_max_iter": 3, "max_iter": 8},
                   lambda ds, rng: pipelines.run_kmeans_pso(
                       ds, 2, replace(pipelines.PLAIN_PSO, max_iter=8), rng, kmeans_max_iter=3)),
    "sub_pso": ({"r_a": 0.4, "max_iter": 8}, lambda ds, rng: pipelines.run_subtractive_pso(
        ds, SubtractiveConfig(r_a=0.4, stop_rule=FixedK(2)),
        replace(pipelines.PLAIN_PSO, max_iter=8), rng)),
    "brapso": ({"inertia": "linear", "max_iter": 8}, lambda ds, rng: pipelines.run_brapso(
        ds, 2, replace(pipelines.ADAPTIVE_PSO, inertia=linear(), max_iter=8), rng)),
    "sc_br_apso": ({"stop": "density_ratio", "epsilon": 0.3, "max_iter": 8},
                   lambda ds, rng: pipelines.run_sc_br_apso(
                       ds, SubtractiveConfig(stop_rule=DensityRatio(0.3)),
                       replace(pipelines.ADAPTIVE_PSO, max_iter=8), rng)),
}


@pytest.mark.parametrize("algo_id", ALGORITHMS)
def test_resolved_plan_equals_the_entry_point_called_directly(algo_id):
    params, direct = DIRECT_CALLS[algo_id]
    dataset = make_blobs("two_blob", {"n": 20, "spread": 1.0}, seed=7)
    plan = bench._resolve_call("b", dataset, bench.AlgorithmSpec(algo_id, params))
    for s in (0, 1):
        got, want = pipelines.run(dataset, plan, Rng(s)), direct(dataset, Rng(s))
        for f in fields(pipelines.ClusteringOutcome):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if f.name == "assignment":
                assert same_bits(a.k, b.k)
                a, b = a.cluster_of, b.cluster_of
            assert same_bits(a, b), f.name


FIXTURES = yaml.safe_load(
    resources.files("swarmclust").joinpath("presets", "fixtures.yaml").read_text("utf-8"))
# The entries sub-grids draw from: the fixtures preset's six, one more that
# shares sub_pso's seeding, and one whose seeding fails on grid4 (see
# TestSeedingPass). Each keeps its label, and so its cells' seeds.
ENTRY_POOL = [*FIXTURES["algorithms"],
              {"id": "sub_pso", "label": "sub_pso_5", "params": {"swarm_size": 5}},
              {"id": "sc_br_apso", "label": "big_k", "params": {"k": 9}}]


@st.composite
def grid_pairs(draw):
    """Two sub-grids of the fixtures preset that share at least one cell,
    each as (raw config, dataset filter, algorithm filter).

    Each grid takes a shared part of the preset's datasets and of
    ENTRY_POOL plus extras of its own, all in an order of its own, and 1-3
    repetitions. Its filters are each None or a set of its names that keeps
    the first shared dataset and entry. Both grids take one base seed, and
    every entry one max_iter of at most 5."""
    max_iter, base_seed = draw(st.integers(1, 5)), draw(st.integers(0, 2**32))
    pool = [{**e, "params": {**e.get("params", {}), "max_iter": max_iter}} for e in ENTRY_POOL]

    def subset(items, min_size=0):
        return draw(st.lists(st.sampled_from(items), min_size=min_size, unique_by=repr)
                    if items else st.just([]))

    def parts(items, name):
        """Draws (items, filter) for one grid from ``items``' shared part."""
        shared = subset(items, 1)
        extras = [item for item in items if item not in shared]

        def grid_part():
            chosen = draw(st.permutations(shared + subset(extras)))
            names = st.sets(st.sampled_from([name(item) for item in chosen]))
            return chosen, draw(st.none() | names.map(lambda s: s | {name(shared[0])}))
        return grid_part

    dataset_part = parts(FIXTURES["datasets"], lambda d: d["name"])
    entry_part = parts(pool, lambda e: e.get("label", e["id"]))
    grids = []
    for _ in range(2):
        (datasets, dataset_filter), (entries, algo_filter) = dataset_part(), entry_part()
        raw = {"base_seed": base_seed, "repetitions": draw(st.integers(1, 3)),
               "datasets": datasets, "algorithms": entries}
        grids.append((raw, dataset_filter, algo_filter))
    return grids


def grid_cells(raw, dataset_filter, algo_filter):
    """(dataset, algorithm key, rep) -> the cell's record without wall_ms and
    its trace, as JSON text, from a run of ``raw`` under the filters."""
    report = run_grid(parse_config(raw), dataset_filter=dataset_filter, algo_filter=algo_filter)
    cells = {}
    for rec in report.records:
        key = (rec["dataset"], rec["algorithm"], rec["rep"])
        cells[key] = json.dumps([strip_wall(rec), report.traces.get(key, [])], sort_keys=True)
    return cells


class TestCellIndependence:
    """A cell depends only on its own coordinates (base seed, dataset,
    algorithm entry and rep): reordering, adding or dropping datasets and
    entries, more repetitions, filters, a seeding another entry shares and
    another pair's failed seeding leave its record and trace byte-identical."""

    @settings(max_examples=30, deadline=None)
    @given(grid_pairs())
    def test_shared_cells_equal_across_sub_grids(self, grids):
        first, second = (grid_cells(*grid) for grid in grids)
        shared = first.keys() & second.keys()
        assert shared
        for key in shared:
            assert first[key] == second[key], key


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

    def test_unmatched_algorithm_filter_loads_no_dataset(self, monkeypatch):
        loads = []
        monkeypatch.setattr(bench, "load_dataset", lambda spec: loads.append(spec.name))
        with pytest.raises(ConfigError,
                           match="^filter values match nothing in the config: algo=nope$"):
            run_grid(parse_config(fixture_config(reps=1)), algo_filter={"nope"})
        assert loads == []

    @pytest.mark.parametrize("dataset_filter, algo_filter, unmatched", [
        ({"nope"}, None, "dataset=nope"),
        ({"two_blob", "nope"}, {"kmeans"}, "dataset=nope"),
        ({"two_blob"}, {"sc_br_apso", "psoo", "kmeansx"}, "algo=kmeansx, algo=psoo"),
        ({"two_blob", "zz", "a"}, {"kmeans", "psoo"}, "dataset=a, dataset=zz, algo=psoo"),
    ])
    def test_every_unmatched_filter_value_named_before_any_load(
            self, monkeypatch, dataset_filter, algo_filter, unmatched):
        # a value that matches nothing is a typo, even beside one that matches
        loads = []
        monkeypatch.setattr(bench, "load_dataset", lambda spec: loads.append(spec.name))
        with pytest.raises(ConfigError) as info:
            run_grid(parse_config(fixture_config(reps=1)), dataset_filter=dataset_filter,
                     algo_filter=algo_filter)
        assert str(info.value) == f"filter values match nothing in the config: {unmatched}"
        assert loads == []

    def test_filters_matching_config_names_run_their_cells(self):
        cfg = parse_config(fixture_config(reps=1, algorithms=[
            {"id": "kmeans"}, {"id": "kmeans", "label": "km2"}, {"id": "pso"}]))
        report = run_grid(cfg, dataset_filter={"two_blob"}, algo_filter={"km2", "pso"})
        assert [r["algorithm"] for r in report.records] == ["km2", "pso"]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs, monkeypatch):
        calls = select_centers_spy(monkeypatch)
        cfg = parse_config(fixture_config(reps=1, algorithms=[{"id": "sc_br_apso"}]))
        with pytest.raises(ConfigError, match=f"^jobs must be at least 1, got {jobs}$"):
            run_grid(cfg, jobs=jobs)
        assert calls == []

    def test_jobs_after_a_warm_kernel_pool(self, monkeypatch):
        # The parent's kernel threads exist before the grid workers fork;
        # the workers must start their own (one thread each here) and give
        # the same report as the parent's split kernels at jobs=1.
        monkeypatch.setattr(core, "KERNEL_WORKERS", 2)
        params = {"n": 1000, "k": 7, "d": 4}
        density_initial(make_blobs("art_like", params, seed=5), 0.5)
        assert core._pool is not None
        swarm = {"swarm_size": 20, "max_iter": 4}
        raw = fixture_config(reps=2, algorithms=[
            {"id": "sc_br_apso", "params": swarm}, {"id": "brapso", "params": swarm},
        ])
        raw["datasets"] = [{"name": "blobs", "synthetic": {
            "kind": "art_like", "seed": 5, "params": params}}]
        cfg = parse_config(raw)
        # k * N * swarm_size distances: the fitness splits in the parent too
        assert core.row_parts(20, 7 * 1000) == 2
        one = report_to_dict(run_grid(cfg, jobs=1))
        two = report_to_dict(run_grid(cfg, jobs=2))
        assert one["failed_cells"] == 0
        assert json.dumps(strip_wall(one), sort_keys=True) == json.dumps(
            strip_wall(two), sort_keys=True)

    @pytest.mark.parametrize("workers, jobs, threads", [(4, 2, 2), (2, 2, 1), (2, 3, 1)])
    def test_grid_workers_share_the_cpus(self, monkeypatch, workers, jobs, threads):
        monkeypatch.setattr(core, "KERNEL_WORKERS", workers)
        monkeypatch.setattr(core, "PARALLEL_MIN", 1)
        core.map_blocks(lambda lo, hi: None, workers, 1)  # starts the parent's pool
        assert core._pool is not None
        with bench._process_pool(jobs) as pool:
            assert pool.submit(_kernel_state).result(timeout=60) == (threads, True)

    def test_cell_failure_recorded_and_grid_continues(self, monkeypatch):
        # seeding 9 centers on grid4 fails each of sc_br_apso's cells...
        raw = two_datasets_config(reps=1, algorithms=[
            {"id": "sc_br_apso", "params": {"k": 9}},
            {"id": "pso", "params": {"k": 2, "max_iter": 10, "swarm_size": 4}},
        ])
        raw["datasets"] = raw["datasets"][1:]
        cfg = parse_config(raw)

        # ...and unlabelled data leaves pso, which runs, without an error rate
        strip_labels(monkeypatch, "grid4")
        report = run_grid(cfg)
        by_algo = {r["algorithm"]: r for r in report.records}
        assert by_algo["sc_br_apso"]["status"] == "error"
        assert by_algo["sc_br_apso"]["error"].startswith(
            "DegenerateInput: cannot select 9 centers")
        assert by_algo["pso"]["status"] == "ok"
        assert by_algo["pso"]["error_percent"] is None
        assert report.failed_cells == 1

    @pytest.mark.parametrize("algo", [
        # the linear weight overflows to -inf from iteration 2 on: 0 * -inf
        # is NaN on grid4, and on two_blob the v_max clamp hides the
        # infinite velocities
        {"id": "pso", "params": {"inertia": {"kind": "linear", "w_max": 1.0e308}}},
        {"id": "pso", "params": {"c1": 1.0e200, "v_max_fraction": None}},
        {"id": "brapso", "params": {"v_max_fraction": None, "inertia": {
            "kind": "exponential_normalized", "w_max": 1.0e308}}},
    ], ids=["pso-linear-w_max", "pso-c1", "brapso-w_max"])
    def test_overflowing_velocity_is_degenerate_input(self, algo):
        # a warning raised in a cell would be recorded as its error, since
        # Tier-1 turns RuntimeWarning into an error
        report = run_grid(parse_config(two_datasets_config(reps=2, algorithms=[algo])))
        assert len(report.records) == report.failed_cells == 4
        for rec in report.records:
            assert re.fullmatch(r"DegenerateInput: swarm velocity (or position )?not finite "
                                r"at iteration \d+: .+", rec["error"]), rec["error"]

    def test_each_dataset_is_one_run_stack_call(self, monkeypatch):
        # at --jobs 1 every cell of a dataset, Lloyd's included, runs in one
        # run_stack call, and none runs alone
        lone, stacks = [], []
        real_run, real_stack = pipelines.run, pipelines.run_stack

        def run_spy(dataset, plan, rng):
            lone.append((dataset.name, plan.algo_id))
            return real_run(dataset, plan, rng)

        def stack_spy(dataset, runs):
            stacks.append((dataset.name, [plan.algo_id for plan, _ in runs]))
            return real_stack(dataset, runs)

        monkeypatch.setattr(pipelines, "run", run_spy)
        monkeypatch.setattr(pipelines, "run_stack", stack_spy)
        report = run_grid(parse_config(two_datasets_config(2, FIXTURES["algorithms"])))
        assert report.failed_cells == 0
        assert lone == []
        ids = [entry["id"] for entry in FIXTURES["algorithms"]]
        assert stacks == [(name, [i for i in ids for _ in range(2)])
                          for name in ("two_blob", "grid4")]

    @pytest.mark.parametrize("jobs", [1, 2, 3, 11, 17])
    def test_jobs_cut_each_dataset_into_one_part_per_job(self, monkeypatch, jobs):
        # --jobs J cuts each dataset's 16 cells into min(J, 16) units of
        # neighbouring cells, whatever their kinds and stack keys
        calls = []
        real = bench._work_units

        def spy(cells, jobs):
            calls.append((cells, jobs))
            return real(cells, jobs)

        monkeypatch.setattr(bench, "_work_units", spy)
        raw = two_datasets_config(2, [*FIXTURES["algorithms"],
                                      {"id": "pso", "label": "pso_5", "params": {"swarm_size": 5}},
                                      {"id": "brapso", "label": "brapso_k3", "params": {"k": 3}}])
        run_grid(parse_config(raw), jobs=2, algo_filter={"kmeans", "pso_5"})
        assert calls[-1][1] == 2  # run_grid cuts by its jobs
        run_grid(parse_config(raw))
        cells = calls[-1][0]
        units = real(cells, jobs)
        for name in ("two_blob", "grid4"):
            own = [unit for unit in units if unit[0][0] == name]
            sizes = [len(unit) for unit in own]
            assert len(own) == min(jobs, 16) and max(sizes) - min(sizes) <= 1
            assert [args for unit in own for args in unit] == [
                args for args in cells if args[0] == name]
        assert [args for unit in units for args in unit] == cells

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

    def test_aggregates_from_hand_built_records(self):
        def ok(algorithm, sicd, error_percent, iterations, to_converge):
            return {"dataset": "d", "algorithm": algorithm, "status": "ok", "sicd": sicd,
                    "error_percent": error_percent, "iterations": iterations,
                    "iterations_to_converge": to_converge}

        failed = {"dataset": "d", "status": "error", "error": "DegenerateInput: x"}
        records = [
            ok("b", 6.0, None, 7, 6), {**failed, "algorithm": "c"}, ok("b", 1.0, 10.0, 3, 2),
            {**failed, "algorithm": "b"}, ok("b", 2.0, 20.0, 5, 4), {**failed, "algorithm": "c"},
            ok("a", 5.0, None, 4, 1),
        ]
        assert aggregate_records(records) == [
            {"dataset": "d", "algorithm": "a", "cells": 1, "failures": 0, "sicd_mean": 5.0,
             "sicd_std": 0.0, "sicd_best": 5.0, "sicd_worst": 5.0, "error_percent_mean": None,
             "iterations_mean": 4.0, "iterations_to_converge_mean": 1.0},
            {"dataset": "d", "algorithm": "b", "cells": 4, "failures": 1, "sicd_mean": 3.0,
             # the population deviation of 1, 2 and 6 (ddof=0)
             "sicd_std": pytest.approx(math.sqrt(14 / 3), rel=1e-15),
             "sicd_best": 1.0, "sicd_worst": 6.0, "error_percent_mean": 15.0,
             "iterations_mean": 5.0, "iterations_to_converge_mean": 4.0},
            {"dataset": "d", "algorithm": "c", "cells": 2, "failures": 2},
        ]

    def test_every_cell_of_three_repetitions_gets_its_own_seed(self):
        raw = fixture_config(reps=3, algorithms=[{"id": "kmeans"}, {"id": "kmeans", "label": "km"}])
        records = run_grid(parse_config(raw)).records
        assert [r["seed"] for r in records] == [
            derive_seed(4242, r["dataset"], r["algorithm"], r["rep"]) for r in records]
        assert sorted(r["rep"] for r in records) == [0, 0, 1, 1, 2, 2]
        assert len({r["seed"] for r in records}) == 6

    def test_every_algorithm_separates_the_blobs(self):
        raw = fixture_config(reps=10, algorithms=[
            {"id": "kmeans"}, {"id": "pso"}, {"id": "kmeans_pso"},
            {"id": "sub_pso"}, {"id": "brapso"}, {"id": "sc_br_apso"},
        ])
        report = run_grid(parse_config(raw))
        assert report.failed_cells == 0
        for agg in report.aggregates:
            assert agg["error_percent_mean"] <= 5.0, agg


def emitted(report, out):
    """``report`` emitted in every format to ``out``: format -> path."""
    return emit_report(report, bench.EMIT_FORMATS, out)


def comma_report():
    """A grid whose dataset name, one label and failed cells' errors hold commas."""
    raw = two_datasets_config(1, [
        {"id": "kmeans", "label": "k-means, k=2", "params": {"k": 2}},
        {"id": "sc_br_apso", "params": {"k": 9}},
    ])
    raw["datasets"][0]["name"] = "two, blob"
    return run_grid(parse_config(raw))


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

    def test_csv_cells_with_commas_keep_their_columns(self, tmp_path):
        report = comma_report()
        failed = [r for r in report.records if r["status"] == "error"]
        assert failed and all("," in r["error"] for r in failed)
        paths = emit_report(report, ["csv", "plot_data"], tmp_path)
        with open(paths["csv"], newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert len(header) == 12 and len(rows) == len(report.records)
        for rec, row in zip(report.records, rows):
            assert len(row) == 12
            cells = dict(zip(header, row))
            assert (cells["dataset"], cells["algorithm"]) == (rec["dataset"], rec["algorithm"])
            assert cells["error"] == rec.get("error", "")
            assert cells["sicd"] == (repr(rec["sicd"]) if "sicd" in rec else "")
        with open(paths["plot_data"], newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        want = [[dataset, algorithm, str(rep), str(i), repr(value)]
                for (dataset, algorithm, rep), trace in sorted(report.traces.items())
                for i, value in enumerate(trace)]
        assert header == ["dataset", "algorithm", "rep", "iteration", "sicd"] and rows == want
        assert {row[0] for row in rows} == {"two, blob", "grid4"}

    def test_plot_data_has_full_traces(self, tmp_path):
        cfg = parse_config(fixture_config(reps=2))
        report = run_grid(cfg)
        paths = emit_report(report, ["plot_data"], tmp_path)
        lines = paths["plot_data"].read_text().strip().splitlines()
        expected = sum(len(t) for t in report.traces.values())
        assert len(lines) == expected + 1


class TestStripTimings:
    def test_reports_differing_only_in_timings_strip_equal(self, tmp_path):
        report = run_grid(parse_config(fixture_config(reps=2)))
        slower = replace(report, records=[{**rec, "wall_ms": rec["wall_ms"] * 3 + 1.0}
                                          for rec in report.records])
        one, two = emitted(report, tmp_path / "one"), emitted(slower, tmp_path / "two")
        assert one["json"].read_bytes() != two["json"].read_bytes()
        assert one["csv"].read_bytes() != two["csv"].read_bytes()
        assert bench.strip_timings(one) == bench.strip_timings(two)

    def test_one_sicd_bit_strips_different(self, tmp_path):
        report = run_grid(parse_config(fixture_config(reps=2)))
        records = copy.deepcopy(report.records)
        records[1]["sicd"] = float(np.nextafter(records[1]["sicd"], np.inf))
        one = bench.strip_timings(emitted(report, tmp_path / "one"))
        two = bench.strip_timings(emitted(replace(report, records=records), tmp_path / "two"))
        assert one["json"] != two["json"] and one["csv"] != two["csv"]
        assert one["plot_data"] == two["plot_data"]

    def test_csv_cells_with_commas_keep_their_columns(self, tmp_path):
        paths = emitted(comma_report(), tmp_path)
        with open(paths["csv"], newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        stripped = bench.strip_timings(paths)["csv"].decode("utf-8")
        got_header, *got = csv.reader(io.StringIO(stripped, newline=""))
        assert got_header == [name for name in header if name != "wall_ms"]
        assert "iterations_to_converge" in got_header
        assert [dict(zip(got_header, row)) for row in got] == [
            {name: cell for name, cell in zip(header, row) if name != "wall_ms"} for row in rows]

    def test_traces_come_back_as_written(self, tmp_path):
        paths = emitted(comma_report(), tmp_path)
        assert bench.strip_timings(paths)["plot_data"] == paths["plot_data"].read_bytes()

    def test_every_timing_field_leaves_report_and_records(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench, "TIMING_FIELDS", ("wall_ms", "iterations"))
        stripped = bench.strip_timings(emitted(comma_report(), tmp_path))
        lines = [line.strip() for line in stripped["json"].decode("utf-8").splitlines()]
        assert not [line for line in lines if line.startswith(('"wall_ms":', '"iterations":'))]
        assert any(line.startswith('"iterations_to_converge":') for line in lines)
        header = next(csv.reader(io.StringIO(stripped["csv"].decode("utf-8"))))
        assert "wall_ms" not in header and "iterations" not in header
        assert "iterations_to_converge" in header


class TestWriteAtomic:
    def test_non_ascii_text_written_as_its_utf8_bytes(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_bytes(b"x" * 4096)  # a longer file to replace
        text = "\u00e4\u2192\U0001d11e sicd\n" * 50  # 2-, 3- and 4-byte characters
        bench._write_atomic(path, text)
        assert path.read_bytes() == text.encode("utf-8")  # no preallocated NULs

    def test_empty_text(self, tmp_path):
        path = tmp_path / "report.json"
        bench._write_atomic(path, "")
        assert path.read_bytes() == b""
        assert list(tmp_path.iterdir()) == [path]

    def test_replace_leaves_a_new_inode_and_no_temp_file(self, tmp_path):
        path = tmp_path / "report.json"
        bench._write_atomic(path, "old\n")
        old_inode = path.stat().st_ino
        with open(path, encoding="utf-8") as reader:
            bench._write_atomic(path, "new\n")
            assert reader.read() == "old\n"  # an open reader keeps the old file
        assert path.stat().st_ino != old_inode
        assert path.read_text(encoding="utf-8") == "new\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_interleaved_writers_both_succeed(self, tmp_path, monkeypatch):
        # a second process replaces the path while the first holds its temp
        # file; with one shared temp name the first replace would not find it
        path = tmp_path / "report.json"
        real_replace, pid = os.replace, os.getpid()

        def replace(src, dst):
            with monkeypatch.context() as m:
                m.setattr(bench.os, "replace", real_replace)
                m.setattr(bench.os, "getpid", lambda: pid + 1)
                bench._write_atomic(path, "second\n")
            real_replace(src, dst)

        monkeypatch.setattr(bench.os, "replace", replace)
        bench._write_atomic(path, "first\n")
        assert path.read_text(encoding="utf-8") == "first\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("failing", ["posix_fallocate", "replace"])
    def test_failed_write_removes_its_temp_file(self, tmp_path, monkeypatch, failing):
        path = tmp_path / "report.json"
        bench._write_atomic(path, "old\n")

        def fail(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(bench.os, failing, fail, raising=False)
        with pytest.raises(OSError, match="No space"):
            bench._write_atomic(path, "new\n")
        assert path.read_text(encoding="utf-8") == "old\n"
        assert list(tmp_path.iterdir()) == [path]


# A config that gives one of $repetitions, $n and $c1 twice in one mapping
# when that placeholder is filled in and the others are blank; PyYAML alone
# would keep the key's last value.
REPEATED_KEY_CONFIG = string.Template("""\
base_seed: 1
repetitions: 1$repetitions
datasets:
  - name: two_blob
    synthetic: {kind: two_blob, seed: 7, params: {n: 20$n}}
algorithms:
  - id: pso
    params: {c1: 1.0$c1}
""")


# The CSV files test_bad_config_exits_2_without_traceback loads: no labels,
# zero bytes, a header alone, and two labelled classes of two points
CSV_FILES = {
    "nolab.csv": "0,0\n0,1\n5,5\n5,6\n",
    "empty.csv": "",
    "header.csv": "x,y,class\n",
    "labelled.csv": "x,y,class\n0,0,a\n0,1,a\n5,5,b\n5,6,b\n",
}


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

    def test_merge_keys_merge(self, tmp_path):
        # a mapping's own key overrides a merged one: neither is a repeat
        path = tmp_path / "config.yaml"
        path.write_text(textwrap.dedent("""\
            base_seed: 1
            repetitions: 1
            datasets:
              - name: two_blob
                synthetic: {kind: two_blob, seed: 7, params: &blob {n: 20, sep: 4.0}}
              - name: more
                synthetic: {kind: two_blob, seed: 7, params: {<<: *blob, n: 30}}
            algorithms:
              - id: pso
        """), encoding="utf-8")
        config = bench.load_config(path)
        assert [spec.source.params for spec in config.datasets] == [
            {"n": 20, "sep": 4.0}, {"n": 30, "sep": 4.0}]

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

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_mistyped_param_exits_2(self, tmp_path, command):
        raw = fixture_config(reps=1, algorithms=[{"id": "pso", "params": {"k": "2"}}])
        args = [command, "--config", self.write_config(tmp_path, raw)]
        if command == "run":
            args += ["--out", str(tmp_path / "out")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert "algorithms/0/params/k: '2' is not of type 'integer'" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_out_of_range_param_exits_2(self, tmp_path, command):
        raw = fixture_config(reps=1, algorithms=[{"id": "pso", "params": {"swarm_size": 1}}])
        args = [command, "--config", self.write_config(tmp_path, raw)]
        if command == "run":
            args += ["--out", str(tmp_path / "out")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert "algorithms/0/params/swarm_size: 1 is less than the minimum of 2" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("params, message", [
        ({"stop": "density-ratio"}, "algorithms/0/params/stop: 'density-ratio' is not one of"),
        ({"boundary": "restrict"}, "algorithms/0/params/boundary: 'restrict' is not one of"),
        ({"inertia": "linaer"}, "algorithms/0/params/inertia: 'linaer' is not one of"),
        ({"inertia": {"w_max": 0.5}},
         "algorithms/0/params/inertia: 'kind' is a required property"),
    ])
    def test_misspelled_value_exits_2(self, tmp_path, command, params, message):
        raw = fixture_config(reps=1, algorithms=[{"id": "sc_br_apso", "params": params}])
        args = [command, "--config", self.write_config(tmp_path, raw)]
        if command == "run":
            args += ["--out", str(tmp_path / "out")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert message in result.output
        assert "config ok" not in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_epsilon_under_fixed_k_exits_2(self, tmp_path, command):
        params = {"stop": "fixed_k", "k": 2, "epsilon": 0.3}
        raw = fixture_config(reps=1, algorithms=[{"id": "sc_br_apso", "params": params}])
        args = [command, "--config", self.write_config(tmp_path, raw)]
        if command == "run":
            args += ["--out", str(tmp_path / "out")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert "algorithms/0/params: epsilon applies only to stop: density_ratio" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("params, message", [
        ({"stop": "density_ratio", "k": 2},
         "algorithms/0/params: k applies only to stop: fixed_k"),
        ({"epsilon": 0.3},
         "algorithm sc_br_apso on dataset two_blob: epsilon applies only to "
         "stop: density_ratio"),
    ])
    def test_seeding_param_it_would_ignore_exits_2(self, tmp_path, command, params, message):
        raw = fixture_config(reps=1, algorithms=[{"id": "sc_br_apso", "params": params}])
        args = [command, "--config", self.write_config(tmp_path, raw)]
        if command == "run":
            args += ["--out", str(tmp_path / "out")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert message in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("algo, message", [
        ({"id": "sc_br_apso", "params": {"max_centers": 2}},
         "algorithm sc_br_apso on dataset grid4: stop_rule: k=4 exceeds max_centers=2"),
        ({"id": "sub_pso", "params": {"k": 4, "max_centers": 3}},
         "algorithm sub_pso on dataset two_blob: stop_rule: k=4 exceeds max_centers=3"),
    ], ids=["sc_br_apso", "sub_pso"])
    def test_fixed_k_above_max_centers_exits_2(self, tmp_path, command, algo, message):
        raw = two_datasets_config(reps=1, algorithms=[algo])
        args = [command, "--config", self.write_config(tmp_path, raw)]
        if command == "run":
            args += ["--out", str(tmp_path / "out")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert f"config invalid for {message}" in result.output
        assert "config ok" not in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("algo", ["kmeans", "pso", "sc_br_apso"])
    def test_k_above_n_exits_2(self, tmp_path, command, algo):
        raw = fixture_config(reps=1, algorithms=[{"id": algo, "params": {"k": 50}}])
        args = [command, "--config", self.write_config(tmp_path, raw)]
        if command == "run":
            args += ["--out", str(tmp_path / "out")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert (f"algorithm {algo} on dataset two_blob: k=50 exceeds the dataset's "
                "20 points") in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("algo", [
        {"id": "kmeans"},
        {"id": "sub_pso", "label": "no_k", "params": {"stop": "fixed_k"}},
        {"id": "sc_br_apso", "params": {"stop": "fixed_k"}},
    ])
    def test_unlabelled_data_without_k_exits_2(self, tmp_path, command, algo):
        (tmp_path / "nolab.csv").write_text("0,0\n0,1\n5,5\n5,6\n", encoding="utf-8")
        raw = fixture_config(reps=1, algorithms=[{"id": "sub_pso"}, algo])
        raw["datasets"] = [{"name": "nolab", "csv": {"path": str(tmp_path / "nolab.csv")}}]
        args = [command, "--config", self.write_config(tmp_path, raw)]
        if command == "run":
            args += ["--out", str(tmp_path / "out")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        key = algo.get("label", algo["id"])
        assert (f"config invalid for algorithm {key} on dataset nolab: needs k: set it in "
                "params, since the dataset has no class count") in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("changes, message", [
        pytest.param([(("algorithms", 0, "params"), {"swarm_size": 1})],
                     "algorithms/0/params/swarm_size: 1 is less than the minimum of 2",
                     id="algorithm-param"),
        pytest.param([(("datasets", 0, "synthetic", "params", "n"), "abc")],
                     "datasets/0/synthetic/params/n: 'abc' is not of type 'integer'",
                     id="synthetic-param"),
        pytest.param([(("datasets", 0, "synthetic", "params", "n"), 1)],
                     "config invalid for dataset two_blob: need at least 2 points for 2 blobs",
                     id="synthetic-too-few-points"),
        pytest.param([(("datasets", 0, "synthetic"),
                       {"kind": "art_like", "params": {"box": -1.0}})],
                     "datasets/0/synthetic/params/box: -1.0 is less than the minimum of 0",
                     id="synthetic-negative-box"),
        pytest.param([(("datasets", 0, "synthetic", "params", "spread"), -0.5)],
                     "datasets/0/synthetic/params/spread: -0.5 is less than the minimum of 0",
                     id="synthetic-negative-spread"),
        *(pytest.param([(("algorithms", 0), {"id": "sc_br_apso", "params": {name: radius}})],
                       f"config invalid for algorithm sc_br_apso on dataset two_blob: {name}: "
                       f"radius {radius!r} gives kernel scale (r/2)**2 = {scale}, not a "
                       "positive finite float", id=f"subtractive-{name}={radius!r}")
          for name, radius, scale in [("r_a", 1.0e-300, "0.0"), ("r_a", 1.0e300, "inf"),
                                      ("r_b", 1.0e300, "inf")]),
        pytest.param([(("datasets", 0), {"registry": "irs"})],
                     "datasets/0/registry: 'irs' is not one of", id="registry-name"),
        pytest.param([(("datasets", 0), {"registry": "iris", "expected": {
                         "n": 999, "d": 1, "k": 7, "class_sizes": [1]}})],
                     "error: registry entries take their registry characteristics",
                     id="registry-expected"),
        pytest.param("base_seed: [1\n", "config.yaml: not valid YAML", id="invalid-yaml"),
        *(pytest.param(REPEATED_KEY_CONFIG.substitute(
                           dict.fromkeys(("repetitions", "n", "c1"), ""), **{key: again}),
                       f"config.yaml: line {line}: key {key!r} given twice in one mapping",
                       id=f"repeated-key-{key}")
          for key, again, line in [("repetitions", "\nrepetitions: 3", 3),
                                   ("n", ", n: 40", 5), ("c1", ", c1: 2.5", 8)]),
        pytest.param([(("datasets", 0), {"name": "nolab", "csv": {"path": "nolab.csv"}})],
                     "on dataset nolab: needs k", id="unlabelled-without-k"),
        pytest.param([(("datasets", 0), {"name": "nolab",
                                         "csv": {"path": "nolab.csv", "delimiter": ";;"}})],
                     "error: nolab: delimiter ';;' is not one character", id="csv-delimiter"),
        pytest.param([(("datasets", 0), {"name": "nolab",
                                         "csv": {"path": "nolab.csv", "drop_columns": [99]}})],
                     "error: nolab: drop column 99 out of range", id="csv-drop-column"),
        # the path names the working directory, which open() refuses
        pytest.param([(("datasets", 0), {"name": "nolab", "csv": {"path": "."}})],
                     "error: nolab: cannot read .: Is a directory", id="csv-path-directory"),
        pytest.param([(("datasets", 0), {"name": "nolab", "csv": {"path": "nolab.csv"},
                                         "expected": {"n": 4, "d": 2, "k": 0,
                                                      "class_sizes": []}})],
                     "datasets/0/expected/k: 0 is less than the minimum of 1",
                     id="expected-k-zero"),
        pytest.param([(("datasets", 0, "registry"), "iris")],
                     "error: dataset entry needs exactly one of registry/csv/synthetic: ",
                     id="two-sources"),
        pytest.param([(("datasets", 0), {"registry": "iris", "name": "flowers"})],
                     "error: registry entries take their registry name", id="registry-renamed"),
        pytest.param([(("datasets", 0), {"csv": {"path": "nolab.csv"}})],
                     "error: dataset entry needs a name: {'csv': ", id="csv-without-name"),
        pytest.param([(("datasets", 0, "name"), DELETE)],
                     "error: dataset entry needs a name: {'synthetic': ",
                     id="synthetic-without-name"),
        pytest.param([(("algorithms",), [{"id": "pso"}, {"id": "pso"}])],
                     "error: duplicate algorithm labels: ['pso', 'pso']", id="duplicate-label"),
        pytest.param([(("datasets", 0), {"name": "nolab", "csv": {"path": "empty.csv"}})],
                     "error: nolab: empty.csv is empty", id="csv-empty"),
        pytest.param([(("datasets", 0), {"name": "nolab",
                                         "csv": {"path": "header.csv", "header": True}})],
                     "error: nolab: header.csv has a header but no data rows",
                     id="csv-header-only"),
        pytest.param([(("datasets", 0), {"name": "lab", "csv": {
                         "path": "labelled.csv", "label_column": "class"}})],
                     "error: lab: label column 'class' needs a header row",
                     id="csv-label-name-without-header"),
        pytest.param([(("datasets", 0), {"name": "lab", "csv": {
                         "path": "labelled.csv", "label_column": "klass", "header": True}})],
                     "error: lab: no column named 'klass' in header", id="csv-unknown-column"),
        pytest.param([(("datasets", 0), {"name": "nolab", "csv": {
                         "path": "nolab.csv", "label_column": 2}})],
                     "error: nolab: label column 2 out of range", id="csv-label-index"),
        pytest.param([(("datasets", 0), {"name": "nolab", "csv": {
                         "path": "nolab.csv", "na_values": ["0", "5"], "na_policy": "drop"}})],
                     "error: nolab: no usable rows in nolab.csv", id="csv-every-row-dropped"),
        *(pytest.param([(("datasets", 0), {"name": "lab", "csv": {
                          "path": "labelled.csv", "label_column": "class", "header": True},
                          "expected": {"n": 4, "d": d, "k": k, "class_sizes": [2, 2]}})],
                       f"error: lab: characteristics mismatch: {problem}",
                       id=f"csv-expected-{what}")
          for what, d, k, problem in [("d", 3, 2, "d=2, expected 3"),
                                      ("classes", 2, 3, "2 classes, expected 3")]),
    ])
    def test_bad_config_exits_2_without_traceback(self, tmp_path, monkeypatch, command,
                                                  changes, message):
        monkeypatch.chdir(tmp_path)
        for name, text in CSV_FILES.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        if isinstance(changes, str):
            (tmp_path / "config.yaml").write_text(changes, encoding="utf-8")
        else:
            raw = fixture_config(reps=1, algorithms=[{"id": "pso"}])
            self.write_config(tmp_path, mutated(raw, *changes))
        args = [command, "--config", "config.yaml"]
        if command == "run":
            args += ["--out", "out"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert message in result.output
        assert "Traceback" not in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["config.yaml", *CSV_FILES])

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_csv_not_utf8_exits_2_without_traceback(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "latin1.csv").write_bytes(b"a,b\n1,\xff\n")
        raw = fixture_config(reps=1, algorithms=[{"id": "kmeans", "params": {"k": 1}}])
        raw["datasets"] = [{"name": "latin1", "csv": {"path": "latin1.csv", "header": True}}]
        args = [command, "--config", self.write_config(tmp_path, raw)]
        if command == "run":
            args += ["--out", "out"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "error: latin1: latin1.csv is not UTF-8 text: invalid start byte" in result.output
        assert "Traceback" not in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml", "latin1.csv"]

    @pytest.mark.parametrize("command, path, value", [
        pytest.param("validate", *case.values, id=f"validate-{case.id}") for case in BAD_VALUES
    ] + [
        # a handful through run too, which parses the config the same way
        pytest.param("run", *case.values, id=f"run-{case.id}") for case in BAD_VALUES[::12]
    ] + [
        pytest.param(command, *case.values, id=f"{command}-{case.id}")
        for case in NON_FINITE_VALUES for command in ("validate", "run")
    ])
    def test_one_bad_value_per_schema_path_exits_2(self, tmp_path, monkeypatch, command,
                                                   path, value):
        monkeypatch.chdir(tmp_path)
        self.write_config(tmp_path, mutated(rich_config(), (path, value)))
        args = [command, "--config", "config.yaml"]
        if command == "run":
            args += ["--out", "out"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        where = "/".join(map(str, path))
        assert (f"config invalid at {where}: " if where
                else "config must be a mapping") in result.output
        assert "Traceback" not in result.output
        assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]

    @pytest.mark.parametrize("args, env", [
        (["--jobs", "0"], {}),
        (["--jobs", "-3"], {}),
        ([], {"SWARMCLUST_JOBS": "0"}),
    ])
    def test_jobs_below_one_exits_2(self, tmp_path, args, env):
        path = self.write_config(tmp_path, fixture_config(reps=1))
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["run", "--config", path, "--out", str(out), *args],
                                    env=env)
        assert result.exit_code == 2
        assert "Invalid value for '--jobs'" in result.output
        assert not out.exists()

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

    def test_rerun_into_existing_out_gives_the_same_report(self, tmp_path):
        path = self.write_config(tmp_path, fixture_config(reps=1))
        for out in ("fresh", "rerun", "rerun"):
            result = CliRunner().invoke(main, ["run", "--config", path,
                                               "--out", str(tmp_path / out)])
            assert result.exit_code == 0, result.output
        fresh, rerun = ({fmt: tmp_path / out / name for fmt, name in bench.ARTIFACT_FILES.items()}
                        for out in ("fresh", "rerun"))
        assert bench.strip_timings(rerun) == bench.strip_timings(fresh)
        assert not list(tmp_path.rglob("*.tmp"))

    def test_out_dir_created_under_its_nearest_ancestor(self, tmp_path):
        path = self.write_config(tmp_path, fixture_config(reps=1))
        out = tmp_path / "a" / "b" / "c"
        result = CliRunner().invoke(main, ["run", "--config", path, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "report.json").exists()

    @pytest.mark.parametrize("out", ["afile", "afile/out", "afile/out/deeper"])
    def test_unusable_out_exits_2_before_any_cell(self, tmp_path, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        self.write_config(tmp_path, fixture_config(reps=1))
        (tmp_path / "afile").write_text("", encoding="utf-8")

        def no_cell(args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(bench, "_execute_unit", no_cell)
        result = CliRunner().invoke(main, ["run", "--config", "config.yaml", "--out", out])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert (f"error: cannot use output directory {out}: {tmp_path / 'afile'} is not a "
                "directory") in result.output
        assert "Traceback" not in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "config.yaml"]

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

    def test_run_filter_value_matching_nothing_exits_2(self, tmp_path):
        path = self.write_config(tmp_path, fixture_config(reps=1))
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["run", "--config", path, "--out", str(out),
                   "--filter", "dataset=two_blob|nope,algo=kmeans|psoo"]
        )
        assert result.exit_code == 2, result.output
        assert ("error: filter values match nothing in the config: dataset=nope, algo=psoo\n"
                in result.output)
        assert not out.exists()

    @pytest.mark.parametrize("clause, part", [
        ("dataset=", "dataset="), ("algo=", "algo="), ("dataset=|", "dataset=|"),
        ("dataset=two_blob|", "dataset=two_blob|"), ("dataset=two_blob,algo=", "algo="),
    ])
    def test_run_filter_with_an_empty_value_exits_2(self, tmp_path, monkeypatch, clause, part):
        # what --filter "dataset=$DS" gives with DS unset: it used to drop the
        # value and run every cell the other clauses let through
        def no_cell(args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(bench, "_execute_unit", no_cell)
        path = self.write_config(tmp_path, fixture_config(reps=1))
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["run", "--config", path, "--out", str(out), "--filter", clause])
        assert result.exit_code == 2, result.output
        assert f"error: empty value in filter {part!r}\n" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("clause, message", [
        ("dataset", "error: bad filter 'dataset', expected key=value\n"),
        ("bogus=1", "error: unknown filter key 'bogus'\n"),
    ])
    def test_run_bad_filter_exits_2(self, tmp_path, monkeypatch, clause, message):
        def no_cell(args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(bench, "_execute_unit", no_cell)
        path = self.write_config(tmp_path, fixture_config(reps=1))
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["run", "--config", path, "--out", str(out), "--filter", clause])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert message in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_failed_cell_exits_1_and_still_writes_reports(self, tmp_path):
        # seeding 9 centers on grid4's 24 points fails, pso runs
        raw = two_datasets_config(reps=1, algorithms=[
            {"id": "sc_br_apso", "params": {"k": 9}}, {"id": "pso"}])
        raw["datasets"] = raw["datasets"][1:]
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["run", "--config", self.write_config(tmp_path, raw), "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert "1/2 cells ok" in result.stdout
        assert "failed: grid4/sc_br_apso/rep0: DegenerateInput: " in result.stderr
        assert sorted(p.name for p in out.iterdir()) == sorted(bench.ARTIFACT_FILES.values())
        assert json.loads((out / "report.json").read_text())["failed_cells"] == 1

    def test_run_filter_skips_an_empty_clause(self, tmp_path):
        path = self.write_config(tmp_path, fixture_config(reps=1))
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["run", "--config", path, "--out", str(out), "--filter", "algo=kmeans,,"])
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


def test_cells_of_the_fixtures_grid_equal_the_oracles(monkeypatch):
    # each cell's cost and assignment, stacked or alone, against the loop
    # oracles: every cell's outcome passes _cell_result
    outcomes = []
    real = bench._cell_result

    def spy(args, outcome, *rest):
        outcomes.append((args[1], outcome))
        return real(args, outcome, *rest)

    monkeypatch.setattr(bench, "_cell_result", spy)
    report = run_grid(parse_config(FIXTURES))
    assert report.failed_cells == 0
    assert len(outcomes) == len(report.records)
    for dataset, outcome in outcomes:
        points, centroids = dataset.points.tolist(), outcome.centroids.tolist()
        cluster_of = outcome.assignment.cluster_of.tolist()
        assert cluster_of == assign_nearest_ref(points, centroids)
        assert outcome.sicd == pytest.approx(sicd_ref(centroids, cluster_of, points), rel=1e-9)
    assert sorted(outcome.sicd for _, outcome in outcomes) == sorted(
        r["sicd"] for r in report.records)


class TestFailingSwarmInAStack:
    """A swarm that fails inside a stack fails the whole stack, whose cells
    then run alone: the failing cell records the error it records alone,
    and its stack-mates' records and traces are those of a grid without it."""

    # boundary-restricted, so that their particles never leave the box
    MATES = [{"id": "brapso"}, {"id": "sc_br_apso"},
             {"id": "pso", "label": "pso_restricted", "params": {"boundary": "restricted"}}]

    @staticmethod
    def cells(entries, reps=2):
        report = run_grid(parse_config(two_datasets_config(reps, entries)))
        return {(r["dataset"], r["algorithm"], r["rep"]): json.dumps(
            [strip_wall(r), report.traces.get((r["dataset"], r["algorithm"], r["rep"]), [])],
            sort_keys=True) for r in report.records}

    def check(self, monkeypatch, bad):
        raised = []
        real = pipelines.run_stack

        def spy(dataset, runs):
            try:
                return real(dataset, runs)
            except Exception as exc:
                raised.append((len(runs), type(exc).__name__))
                raise

        monkeypatch.setattr(pipelines, "run_stack", spy)
        together = self.cells([*self.MATES, bad])
        # one stack of eight a dataset raised; its cells then ran alone, and
        # the failing cell's two repetitions raised again
        assert sorted(size for size, _ in raised) == [1] * 4 + [8, 8]
        without, alone = self.cells(self.MATES), self.cells([bad])
        label = bad.get("label", bad["id"])
        for key, cell in together.items():
            if key[1] == label:
                assert cell == alone[key]
                assert json.loads(cell)[0]["status"] == "error"
            else:
                assert cell == without[key]

    def test_overflowing_swarm(self, monkeypatch):
        # the linear weight is -inf from iteration 2 on: an invalid product
        # on grid4, and the last weight's check on two_blob
        self.check(monkeypatch, {"id": "pso", "label": "overflows", "params": {
            "inertia": {"kind": "linear", "w_max": 1.0e308}}})

    def test_swarm_whose_fitness_gives_nan(self, monkeypatch):
        real = pipelines._fitness_for

        def fitness_for(dataset, k):
            fitness = real(dataset, k)
            upper = np.tile(dataset.points.max(axis=0), k)

            def outside_is_nan(positions):
                values = fitness(positions)
                values[(positions > upper).any(axis=1)] = np.nan
                return values

            return outside_is_nan

        monkeypatch.setattr(pipelines, "_fitness_for", fitness_for)
        self.check(monkeypatch, {"id": "pso", "label": "leaves_the_box"})
