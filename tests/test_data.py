import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from swarmclust.core import ContractViolation, Dataset
from swarmclust.data import (
    REGISTRY,
    SYNTHETIC_PARAMS,
    CsvSource,
    DatasetSpec,
    Expected,
    LoadError,
    SyntheticSource,
    denormalize,
    load_csv,
    load_dataset,
    make_blobs,
    normalize_minmax,
    registry_spec,
)

from oracles import exhaustive_best_sicd


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_literal_two_row_fixture(self, tmp_path):
        path = write(tmp_path, "1.5,2.5\n-3.0,4.0\n")
        ds = load_csv(DatasetSpec("fixture", CsvSource(path)))
        assert np.array_equal(ds.points, [[1.5, 2.5], [-3.0, 4.0]])
        assert ds.labels is None

    def test_header_and_label_by_name(self, tmp_path):
        path = write(tmp_path, "a,b,class\n1,2,x\n3,4,y\n5,6,x\n")
        ds = load_csv(DatasetSpec("named", CsvSource(path, label_column="class", header=True)))
        assert ds.n == 3 and ds.d == 2
        # first-appearance factorization: x -> 0, y -> 1
        assert ds.labels.tolist() == [0, 1, 0]

    def test_label_by_negative_index(self, tmp_path):
        path = write(tmp_path, "1,2,red\n3,4,blue\n")
        ds = load_csv(DatasetSpec("indexed", CsvSource(path, label_column=-1)))
        assert ds.labels.tolist() == [0, 1]

    def test_drop_columns(self, tmp_path):
        path = write(tmp_path, "id1,7,8,a\nid2,9,10,b\n")
        ds = load_csv(DatasetSpec(
            "dropped", CsvSource(path, label_column=-1, drop_columns=(0,))
        ))
        assert np.array_equal(ds.points, [[7.0, 8.0], [9.0, 10.0]])

    @pytest.mark.parametrize("columns, kept", [
        ((-3,), [[2.0], [5.0]]), ((2, -2), [[1.0], [4.0]]),
    ])
    def test_drop_columns_at_the_row_ends(self, tmp_path, columns, kept):
        path = write(tmp_path, "1,2,3\n4,5,6\n")
        source = CsvSource(path, label_column=-1, drop_columns=columns)
        ds = load_csv(DatasetSpec("ends", source))
        assert np.array_equal(ds.points, kept)

    @pytest.mark.parametrize("column", [3, 99, -4])
    def test_drop_column_outside_the_row_fails(self, tmp_path, column):
        # [99] on three columns used to drop column 0
        path = write(tmp_path, "1,2,3\n4,5,6\n")
        with pytest.raises(LoadError, match=f"^wide: drop column {column} out of range$"):
            load_csv(DatasetSpec("wide", CsvSource(path, drop_columns=(0, column))))

    @pytest.mark.parametrize("delimiter", ["", ";;", "\t\t"])
    def test_delimiter_not_one_character_fails(self, tmp_path, delimiter):
        path = write(tmp_path, "1,2\n3,4\n")
        with pytest.raises(LoadError, match="^delim: delimiter .* is not one character$"):
            load_csv(DatasetSpec("delim", CsvSource(path, delimiter=delimiter)))

    @pytest.mark.parametrize("kwargs, message", [
        ({"path": 3}, "path: 3 is not of type 'string'"),
        ({"path": "x.csv", "drop_columns": (0, "1")},
         "drop_columns/1: '1' is not of type 'integer'"),
        ({"path": "x.csv", "na_policy": "skip"},
         "na_policy: 'skip' is not one of ['error', 'drop']"),
    ])
    def test_source_fields_checked_by_their_rules(self, kwargs, message):
        with pytest.raises(ContractViolation) as info:
            CsvSource(**kwargs)
        assert str(info.value) == message

    def test_ragged_row_reports_line(self, tmp_path):
        path = write(tmp_path, "1,2\n3\n")
        with pytest.raises(LoadError, match="row 2"):
            load_csv(DatasetSpec("ragged", CsvSource(path)))

    def test_non_numeric_reports_line(self, tmp_path):
        path = write(tmp_path, "1,2\n3,oops\n")
        with pytest.raises(LoadError, match="row 2"):
            load_csv(DatasetSpec("bad", CsvSource(path)))

    def test_missing_value_policies(self, tmp_path):
        path = write(tmp_path, "1,2,a\n?,4,b\n5,6,a\n")
        spec_drop = DatasetSpec("drop", CsvSource(
            path, label_column=-1, na_values=("?",), na_policy="drop"))
        ds = load_csv(spec_drop)
        assert ds.n == 2
        spec_err = DatasetSpec("err", CsvSource(path, label_column=-1, na_values=("?",)))
        with pytest.raises(LoadError, match="row 2"):
            load_csv(spec_err)

    def test_expected_mismatch_fails_loudly(self, tmp_path):
        path = write(tmp_path, "1,2,a\n3,4,b\n")
        spec = DatasetSpec("strict", CsvSource(path, label_column=-1),
                           expected=Expected(3, 2, 2, (1, 2)))
        with pytest.raises(LoadError, match="mismatch"):
            load_csv(spec)

    @pytest.mark.parametrize("args, message", [
        ((0, 2, 2, (1, 2)), "n: 0 is less than the minimum of 1"),
        ((3, 2, 2, (1, 2.0)), "class_sizes/1: 2.0 is not of type 'integer'"),
        ((3, 2, True, (1, 2)), "k: True is not of type 'integer'"),
    ])
    def test_expected_fields_checked_by_their_rules(self, args, message):
        with pytest.raises(ContractViolation) as info:
            Expected(*args)
        assert str(info.value) == message

    def test_missing_file(self, tmp_path):
        spec = DatasetSpec("ghost", CsvSource(str(tmp_path / "nope.csv")))
        with pytest.raises(LoadError, match="not found"):
            load_csv(spec)

    def test_file_not_utf8_fails(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b\n1,\xff\n")
        spec = DatasetSpec("latin1", CsvSource(str(path), header=True))
        with pytest.raises(LoadError) as info:
            load_csv(spec)
        assert str(info.value) == f"latin1: {path} is not UTF-8 text: invalid start byte"
        assert info.value.__cause__ is None and info.value.__suppress_context__


class TestNormalizeMinmax:
    def test_affine_map(self):
        ds = Dataset(points=np.array([[2.0], [4.0], [6.0]]))
        norm, record = normalize_minmax(ds)
        assert norm.points[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert record.constant_columns == ()

    def test_already_unit_interval_unchanged(self):
        ds = Dataset(points=np.array([[0.0], [0.25], [1.0]]))
        norm, _ = normalize_minmax(ds)
        assert np.array_equal(norm.points, ds.points)

    def test_constant_column_maps_to_zero(self):
        ds = Dataset(points=np.array([[5.0, 1.0], [5.0, 3.0]]))
        norm, record = normalize_minmax(ds)
        assert np.all(norm.points[:, 0] == 0.0)
        assert record.constant_columns == (0,)

    def test_constant_column_of_signed_zeros_maps_to_positive_zero(self):
        # the column's minimum is +0.0, so without the explicit zeroing its
        # -0.0 entry would scale to -0.0
        ds = Dataset(points=np.array([[0.0, 1.0], [-0.0, 2.0], [0.0, 3.0]]))
        norm, record = normalize_minmax(ds)
        assert record.constant_columns == (0,)
        assert norm.points[:, 0].tolist() == [0.0, 0.0, 0.0]
        assert not np.any(np.signbit(norm.points[:, 0]))

    @given(hnp.arrays(np.float64, st.tuples(st.integers(2, 12), st.integers(1, 4)),
                      elements=st.floats(-1e6, 1e6, allow_nan=False)))
    def test_round_trip(self, points):
        ds = Dataset(points=points)
        norm, record = normalize_minmax(ds)
        restored = denormalize(record, norm.points)
        assert np.allclose(restored, ds.points, rtol=0, atol=1e-12 * (1 + np.abs(ds.points).max()))


class TestMakeBlobs:
    def test_zero_spread_repeats_centers(self):
        ds = make_blobs("two_blob", {"n": 4, "sep": 6.0, "spread": 0.0}, seed=5)
        assert np.array_equal(ds.points[0], ds.points[1])
        assert np.array_equal(ds.points[2], ds.points[3])
        assert not np.array_equal(ds.points[0], ds.points[2])

    def test_same_seed_identical(self):
        a = make_blobs("art_like", {"n": 30, "k": 3}, seed=9)
        b = make_blobs("art_like", {"n": 30, "k": 3}, seed=9)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_label_block_sizes(self):
        ds = make_blobs("grid", {"n": 25, "side": 2, "scale": 4.0}, seed=0)
        assert ds.k_true == 4
        sizes = np.bincount(ds.labels)
        assert sizes.tolist() == [7, 6, 6, 6]

    @pytest.mark.parametrize("kind", sorted(SYNTHETIC_PARAMS))
    def test_defaults_come_from_the_params_table(self, kind):
        a = make_blobs(kind, {}, seed=4)
        b = make_blobs(kind, SYNTHETIC_PARAMS[kind], seed=4)
        assert a.n == SYNTHETIC_PARAMS[kind]["n"] and a.d == SYNTHETIC_PARAMS[kind]["d"]
        assert np.array_equal(a.points, b.points) and np.array_equal(a.labels, b.labels)

    def test_too_few_points_refused_before_the_grid_is_built(self):
        # 2**40 corners: building them first would exhaust memory
        with pytest.raises(ContractViolation, match="need at least 1099511627776 points"):
            make_blobs("grid", {"n": 24, "d": 40}, seed=0)

    def test_unknown_kind_or_param(self):
        with pytest.raises(ContractViolation):
            make_blobs("mystery", {}, seed=0)
        with pytest.raises(ContractViolation):
            make_blobs("two_blob", {"wat": 1}, seed=0)

    @pytest.mark.parametrize("params, message", [
        ({"n": 20.7, "d": 2.9}, "params/n: 20.7 is not of type 'integer'"),
        ({"d": 2.0}, "params/d: 2.0 is not of type 'integer'"),
        ({"n": True}, "params/n: True is not of type 'integer'"),
        ({"n": 0}, "params/n: 0 is less than the minimum of 1"),
        ({"sep": "10"}, "params/sep: '10' is not of type 'number'"),
        ({"spread": float("nan")}, "params/spread: nan is not of type 'number'"),
    ])
    def test_param_breaking_its_rule_refused(self, params, message):
        # the rule a config's params meet: never truncated to fit
        with pytest.raises(ContractViolation) as info:
            make_blobs("two_blob", params, seed=0)
        assert str(info.value) == message

    @pytest.mark.parametrize("kind, params, seed, message", [
        ("nope", {}, 0, "kind: 'nope' is not one of ['two_blob', 'grid', 'art_like']"),
        ("two_blob", {"n": 20, "side": 2}, 0, "params: unknown keys ['side']"),
        ("art_like", {"sep": 1.0, "scale": 2.0}, 0, "params: unknown keys ['scale', 'sep']"),
        ("two_blob", {"n": "20"}, 0, "params/n: '20' is not of type 'integer'"),
        ("grid", {"scale": True}, 0, "params/scale: True is not of type 'number'"),
        ("two_blob", None, 0, "params: None is not of type 'object'"),
        ("two_blob", {}, 1.0, "seed: 1.0 is not of type 'integer'"),
    ])
    def test_synthetic_source_checks_itself(self, kind, params, seed, message):
        with pytest.raises(ContractViolation) as info:
            SyntheticSource(kind, params, seed)
        assert str(info.value) == message
        with pytest.raises(ContractViolation):  # so no spec holds it
            DatasetSpec("blobs", SyntheticSource(kind, params, seed))

    def test_synthetic_source_defaults(self):
        source = SyntheticSource("grid")
        assert (source.params, source.seed) == ({}, 0)
        assert SyntheticSource("art_like", {"k": np.int64(4), "box": 3}, np.int32(2)).seed == 2

    def test_numpy_and_int_values_accepted(self):
        a = make_blobs("grid", {"n": np.int64(24), "side": np.int32(2), "scale": 10}, seed=1)
        b = make_blobs("grid", {"n": 24, "side": 2, "scale": 10.0}, seed=1)
        assert np.array_equal(a.points, b.points) and np.array_equal(a.labels, b.labels)

    def test_separated_blobs_optimally_clustered_without_error(self):
        # exhaustive over every 2-partition: the labeled split is optimal
        ds = make_blobs("two_blob", {"n": 12, "sep": 10.0, "spread": 0.1}, seed=3)
        best = exhaustive_best_sicd(ds.points.tolist(), 2)
        by_label = [
            ds.points[ds.labels == 0].tolist(),
            ds.points[ds.labels == 1].tolist(),
        ]
        from oracles import median_cost

        labeled_cost = sum(median_cost(block) for block in by_label)
        assert labeled_cost == pytest.approx(best, rel=1e-9)


class TestRegistry:
    def test_advertised_characteristics(self):
        expected = {
            "cancer": (683, 9, 2, (444, 239)),
            "cmc": (1473, 9, 3, (629, 334, 510)),
            "crude_oil": (56, 5, 3, (7, 11, 38)),
            "glass": (214, 9, 6, (70, 17, 76, 13, 9, 29)),
            "iris": (150, 4, 3, (50, 50, 50)),
            "pima": (768, 8, 2, (500, 268)),
            "vowel": (871, 3, 6, (72, 89, 172, 151, 207, 180)),
            "wine": (178, 13, 3, (59, 71, 48)),
            "zoo": (101, 17, 7, (41, 20, 5, 13, 4, 8, 10)),
        }
        assert set(REGISTRY) == set(expected)
        for name, (n, d, k, sizes) in expected.items():
            entry = REGISTRY[name]
            assert (entry.n, entry.d, entry.k, entry.class_sizes) == (n, d, k, sizes)

    def test_unknown_name(self):
        with pytest.raises(ContractViolation):
            registry_spec("not_a_dataset")

    @pytest.mark.parametrize("name", ["iris", "wine"])
    def test_local_files_validate(self, name, require_dataset, data_dir):
        require_dataset(name)
        ds, record = load_dataset(registry_spec(name, data_dir))
        assert ds.n == REGISTRY[name].n
        assert ds.d == REGISTRY[name].d
        assert record is not None
        restored = denormalize(record, ds.points)
        raw = load_csv(registry_spec(name, data_dir, normalize=False))
        assert np.allclose(restored, raw.points, atol=1e-12 * (1 + np.abs(raw.points).max()))
