import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wtx.errors import ValidationError
from wtx.matrix import (_BLOCK_ELEMS, load_matrix_json, load_matrix_npy, matrix_hash,
                        nearest_rows, row_l2_norms, save_matrix_json, save_matrix_npy)

from conftest import NPY_FAULTS, flipped, npy_bytes, spoil_npy


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


EXACT_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308,
                1.7976931348623157e308, 1 / 3, -2.5]


def test_npy_round_trip_bit_exact(tmp_path):
    # Signed zeros, subnormals and values near the float64 limit come back
    # bit for bit, in a file np.load reads without pickle.
    m = np.vstack([np.array(EXACT_VALUES).reshape(2, 5),
                   np.random.default_rng(9).standard_normal((4, 5)) * 1e3])
    path = str(tmp_path / "m.npy")
    save_matrix_npy(m, path)
    for back in (load_matrix_npy(path), load_matrix_npy(path, (6, 5)),
                 np.load(path, allow_pickle=False)):
        assert (back.dtype, back.shape, back.flags.c_contiguous) == (np.float64, (6, 5), True)
        assert back.tobytes() == m.tobytes()
    assert (tmp_path / "m.npy").read_bytes() == npy_bytes(m)


def test_npy_load_of_a_fortran_order_file_is_the_c_order_matrix(tmp_path):
    m = np.arange(12.0).reshape(3, 4)
    (tmp_path / "m.npy").write_bytes(npy_bytes(np.asfortranarray(m)))
    back = load_matrix_npy(str(tmp_path / "m.npy"), (3, 4))
    assert back.flags.c_contiguous and back.tobytes() == m.tobytes()


@pytest.mark.parametrize("fault", NPY_FAULTS)
def test_load_matrix_npy_rejects_a_bad_file_naming_it(tmp_path, fault):
    m = np.random.default_rng(4).standard_normal((3, 2))
    path = tmp_path / "m.npy"
    save_matrix_npy(m, str(path))
    spoil_npy(path, fault)
    # Only the shape check, given a shape, tells a wrong shape.
    for shape in (m.shape, None) if fault != "wrong_shape" else (m.shape,):
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}[: ]"):
            load_matrix_npy(str(path), shape)


def test_load_matrix_npy_refuses_every_single_bit_flip_of_the_header(tmp_path):
    # numpy's header parser raises ValueError, SyntaxError or
    # tokenize.TokenError for a damaged header, and may accept one that
    # np.save would not write; each flip is one ValidationError naming the file.
    m = np.random.default_rng(4).standard_normal((24, 16))
    good = npy_bytes(m)
    path = tmp_path / "m.npy"
    header = len(good) - m.nbytes
    for offset in range(header):
        for bit in range(8):
            path.write_bytes(flipped(good, offset, bit))
            with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}[: ]"):
                load_matrix_npy(str(path), m.shape)


def test_matrix_hash_detects_any_change():
    m = np.random.default_rng(2).standard_normal((3, 3))
    h = matrix_hash(m)
    m2 = m.copy()
    m2[1, 1] = np.nextafter(m2[1, 1], np.inf)
    assert matrix_hash(m2) != h
    assert matrix_hash(m.copy()) == h


@pytest.mark.parametrize("view", ["c_order", "fortran_order", "sliced", "zero_rows"])
def test_matrix_hash_equals_the_hash_of_the_copied_bytes(view):
    # The array is hashed through its buffer; the digest is that of the
    # bytes of its C-ordered copy.
    m = np.random.default_rng(3).standard_normal((6, 5))
    m = {"c_order": m, "fortran_order": np.asfortranarray(m), "sliced": m[1::2, ::-2],
         "zero_rows": m[:0]}[view]
    h = hashlib.sha256(repr(m.shape).encode())
    h.update(np.ascontiguousarray(m).tobytes())
    assert matrix_hash(m) == h.hexdigest()


# --- nearest rows -----------------------------------------------------------------

def nearest_oracle(queries, refs, k, own=None):
    """Sort every reference row of each query by (squared distance, index),
    the own row counted infinitely far."""
    idx, dist = [], []
    for i, q in enumerate(queries):
        d2 = ((refs - q) ** 2).sum(axis=1)
        if own is not None:
            d2[own[i]] = np.inf
        order = sorted(range(len(refs)), key=lambda j: (d2[j], j))[:k]
        idx.append(order)
        dist.append(d2[order])
    return np.array(idx, dtype=np.int64).reshape(len(queries), k), \
        np.array(dist).reshape(len(queries), k)


def tied_rows(seed, n, d=3):
    """Small-integer rows, so every squared distance is exact and many tie,
    with some rows repeated."""
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 3, size=(n, d)).astype(float)
    m[rng.choice(n, size=n // 4, replace=False)] = m[0]
    return m


@pytest.mark.parametrize("k", [1, 2, 5])
def test_nearest_rows_matches_the_oracle_with_ties_and_own_rows(k):
    m = tied_rows(1, 40)
    own = np.arange(len(m))
    for queries, refs, skip in ((m, m, own), (m[::3], m, own[::3]), (tied_rows(2, 15), m, None)):
        got_idx, got_d2 = nearest_rows(queries, refs, k, own=skip)
        want_idx, want_d2 = nearest_oracle(queries, refs, k, skip)
        assert got_idx.shape == got_d2.shape == (len(queries), k)
        assert np.array_equal(got_idx, want_idx) and np.array_equal(got_d2, want_d2)
        if skip is not None:
            assert not np.any(got_idx == skip[:, None])


def test_nearest_rows_spans_blocks():
    rng = np.random.default_rng(3)
    refs = np.vstack([rng.standard_normal((250, 8)), tied_rows(4, 50, d=8)])
    queries = refs[::-1]
    own = np.arange(len(refs))[::-1]
    assert len(queries) > 2 * (_BLOCK_ELEMS // refs.size)       # three or more blocks
    for k in (1, 4):
        got = nearest_rows(queries, refs, k, own=own)
        want = nearest_oracle(queries, refs, k, own)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_nearest_rows_k1_is_the_first_column_of_the_sort():
    m = tied_rows(5, 60)
    for own in (None, np.arange(len(m))):
        idx1, d1 = nearest_rows(m, m, 1, own=own)
        idx2, d2 = nearest_rows(m, m, 2, own=own)
        assert np.array_equal(idx1, idx2[:, :1]) and np.array_equal(d1, d2[:, :1])


def test_nearest_rows_one_row_with_own_is_index_0_at_inf():
    idx, d2 = nearest_rows(np.ones((1, 4)), np.ones((1, 4)), 1, own=np.array([0]))
    assert idx.tolist() == [[0]] and d2.tolist() == [[np.inf]]

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
# The JSON writer must give exactly the text of repr(float(x)) per element.

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

