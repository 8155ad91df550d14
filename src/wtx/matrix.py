"""Dense float64 matrices: hashing, norms and serialization.

A "matrix" throughout this package is a 2-D, C-contiguous ``numpy.ndarray``
of float64. numpy supplies the storage and arithmetic; the naive scalar
oracles that define correctness live in the test suite.

Serialization uses ``repr``-based float formatting, which round-trips
float64 values exactly, so saved matrices reload bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .errors import ShapeError


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting anything else."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def row_l2_norms(m) -> np.ndarray:
    """Euclidean norm of every row, returned as a column vector."""
    m = as_matrix(m)
    return np.sqrt(np.sum(m * m, axis=1, keepdims=True))


def matrix_hash(m: np.ndarray) -> str:
    """SHA-256 over shape and raw bytes; detects any byte-level change."""
    m = np.ascontiguousarray(m)
    h = hashlib.sha256()
    h.update(repr(m.shape).encode())
    h.update(m.tobytes())
    return h.hexdigest()


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file and rename, so failures leave no partial file.
    The file gets the mode ``open()`` would give it: 0o666 less the umask."""
    d, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(d, f".tmp-{os.urandom(8).hex()}-{name}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def matrix_to_json_obj(m: np.ndarray) -> dict:
    m = as_matrix(m)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "data": [float(x) for x in m.ravel(order="C")]}


def matrix_from_json_obj(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = np.asarray(obj["data"], dtype=np.float64)
    if data.size != rows * cols:
        raise ShapeError(f"JSON matrix claims {rows}x{cols} but carries {data.size} values")
    return data.reshape(rows, cols)


def save_matrix_json(m: np.ndarray, path: str) -> None:
    atomic_write_text(path, json.dumps(matrix_to_json_obj(m)))


def load_matrix_json(path: str) -> np.ndarray:
    with open(path) as f:
        return matrix_from_json_obj(json.load(f))


def save_matrix_csv(m: np.ndarray, path: str) -> None:
    """One matrix row per line, '.' decimal separator, no header."""
    m = as_matrix(m)
    lines = [",".join(repr(float(x)) for x in row) for row in m]
    atomic_write_text(path, "\n".join(lines) + "\n")

