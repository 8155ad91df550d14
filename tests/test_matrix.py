import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wtx.errors import ValidationError
from wtx.matrix import (load_matrix_json, matrix_hash, row_l2_norms, save_matrix_json,
                        save_matrix_npy)


def test_transpose_involution():
    a = np.random.default_rng(1).standard_normal((3, 5))
    assert np.array_equal(a.T.T, a)


def test_row_l2_norms_345_triangle():
    assert row_l2_norms(np.array([[3.0, 4.0]]))[0, 0] == 5.0


def test_row_l2_norms_zero_matrix():
    assert np.all(row_l2_norms(np.zeros((3, 4))) == 0.0)


def test_row_l2_norms_matches_scalar_oracle():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 6))
    got = row_l2_norms(m)
    for i in range(4):
        acc = 0.0
        for j in range(6):
            acc += m[i, j] ** 2
        want = acc ** 0.5
        assert abs(got[i, 0] - want) / want < 1e-12


def test_json_round_trip_bit_exact(tmp_path):
    m = np.random.default_rng(9).standard_normal((6, 5)) * 1e3
    path = str(tmp_path / "m.json")
    save_matrix_json(m, path)
    back = load_matrix_json(path)
    assert np.array_equal(back, m)
    with open(path) as f:
        obj = json.load(f)
    assert obj["rows"] == 6 and obj["cols"] == 5 and len(obj["data"]) == 30


def test_matrix_hash_detects_any_change():
    m = np.random.default_rng(2).standard_normal((3, 3))
    h = matrix_hash(m)
    m2 = m.copy()
    m2[1, 1] = np.nextafter(m2[1, 1], np.inf)
    assert matrix_hash(m2) != h
    assert matrix_hash(m.copy()) == h


def test_load_matrix_json_names_a_truncated_file(tmp_path):
    path = tmp_path / "m.json"
    save_matrix_json(np.ones((2, 3)), str(path))
    path.write_text(path.read_text()[:-5])
    with pytest.raises(ValidationError, match="m.json: not valid JSON"):
        load_matrix_json(str(path))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=5)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def is_number(v):
    return type(v) in (int, float)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_load_matrix_json_rejects_values_of_another_type(tmp_path_factory, data):
    doc = {"rows": 2, "cols": 3, "data": [0.5, -1.0, 2, 3.25, 0.0, 1e300]}
    slot = data.draw(st.sampled_from(["rows", "cols", "data", "element"]))
    if slot in ("rows", "cols"):
        doc[slot] = data.draw(JSON_VALUES.filter(lambda v: type(v) is not int) | NON_FINITE)
    elif slot == "data":
        doc[slot] = data.draw(JSON_VALUES.filter(lambda v: type(v) is not list))
    else:
        value = data.draw(JSON_VALUES.filter(lambda v: not is_number(v)) | NON_FINITE)
        doc["data"][data.draw(st.integers(0, 5))] = value
    path = tmp_path_factory.getbasetemp() / "matrix.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="matrix.json"):
        load_matrix_json(str(path))


# --- serializer bytes -------------------------------------------------------------
# The JSON writer must give exactly the text of repr(float(x)) per element; the
# .npy writer must give back exactly the bits it was given.

EDGE_VALUES = [-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, 1 / 3]


def json_oracle(m):
    data = ", ".join(repr(float(x)) for x in m.ravel())
    return f'{{"rows": {m.shape[0]}, "cols": {m.shape[1]}, "data": [{data}]}}'


def serializer_cases(default_bench):
    edges = np.array(EDGE_VALUES)
    train = default_bench.split("train")
    return {
        "edges": np.stack([edges, -edges[::-1]]),
        "edges_column": edges[:, None],
        "edges_transposed": np.stack([edges, -edges[::-1]]).T,    # Fortran order
        "zero_rows": np.zeros((0, 4)),
        "zero_cols": np.zeros((3, 0)),
        "default_labels": train.class_labels[train.class_index],
    }


@pytest.mark.parametrize("case", ["edges", "edges_column", "zero_rows", "zero_cols",
                                  "default_labels"])
def test_serializers_write_the_repr_of_every_value(tmp_path, default_bench, case):
    m = serializer_cases(default_bench)[case]
    save_matrix_json(m, str(tmp_path / "m.json"))
    assert (tmp_path / "m.json").read_text() == json_oracle(m)


@pytest.mark.parametrize("case", ["edges", "edges_column", "edges_transposed", "zero_rows",
                                  "zero_cols", "default_labels"])
def test_save_matrix_npy_keeps_every_bit(tmp_path, default_bench, case):
    m = serializer_cases(default_bench)[case]
    path = tmp_path / "m.npy"
    save_matrix_npy(m, str(path))
    back = np.load(path, allow_pickle=False)
    assert back.dtype == np.float64 and back.shape == m.shape
    assert back.flags.c_contiguous
    assert back.tobytes() == np.ascontiguousarray(m, dtype=np.float64).tobytes()
    assert os.listdir(tmp_path) == ["m.npy"]        # no temp file left behind
