import json

import numpy as np

from wtx.matrix import (load_matrix_json, matrix_hash, row_l2_norms, save_matrix_csv,
                        save_matrix_json)


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


def test_csv_round_trip_bit_exact(tmp_path):
    m = np.random.default_rng(10).standard_normal((4, 7))
    path = str(tmp_path / "m.csv")
    save_matrix_csv(m, path)
    text = (tmp_path / "m.csv").read_text()
    back = np.asarray([[float(x) for x in line.split(",")] for line in text.splitlines()])
    assert np.array_equal(back, m)
    assert "," in text and ";" not in text.splitlines()[0]


def test_matrix_hash_detects_any_change():
    m = np.random.default_rng(2).standard_normal((3, 3))
    h = matrix_hash(m)
    m2 = m.copy()
    m2[1, 1] = np.nextafter(m2[1, 1], np.inf)
    assert matrix_hash(m2) != h
    assert matrix_hash(m.copy()) == h
