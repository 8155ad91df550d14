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

from .errors import ShapeError, ValidationError


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


def save_matrix_json(m: np.ndarray, path: str) -> None:
    m = as_matrix(m)
    atomic_write_text(path, json.dumps({"rows": int(m.shape[0]), "cols": int(m.shape[1]),
                                        "data": m.ravel().tolist()}))


def load_matrix_json(path: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Read a matrix written by save_matrix_json. Anything but UTF-8 JSON of
    an object with non-negative integer ``rows`` and ``cols`` and a ``data``
    list of exactly rows*cols finite numbers, or a matrix not of ``shape``
    when one is given, raises ValidationError naming the file."""
    with open(path, encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ValidationError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: a JSON matrix must be an object, got "
                              f"{type(obj).__name__}")
    rows, cols, data = obj.get("rows"), obj.get("cols"), obj.get("data")
    if not all(type(n) is int and n >= 0 for n in (rows, cols)):
        raise ValidationError(f"{path}: rows and cols must be non-negative integers, "
                              f"got {rows!r} and {cols!r}")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ValidationError(f"{path}: the matrix claims {rows}x{cols} but data is not "
                              f"a list of {rows * cols} numbers")
    try:
        m = np.array(data, dtype=np.float64) if {type(x) for x in data} <= {int, float} else None
    except OverflowError:               # an integer beyond the float64 range
        m = None
    if m is None or not np.isfinite(m).all():
        raise ValidationError(f"{path}: data must hold finite numbers only (no bool, null, "
                              f"string, NaN or Infinity)")
    if shape is not None and (rows, cols) != tuple(shape):
        raise ValidationError(f"{path} holds a {rows}x{cols} matrix where "
                              f"{shape[0]}x{shape[1]} is needed")
    return m.reshape(rows, cols)


def save_matrix_csv(m: np.ndarray, path: str) -> None:
    """One matrix row per line, '.' decimal separator, no header."""
    m = as_matrix(m)
    # Row by row: a whole-matrix tolist() would hold every value as a Python
    # float at once.
    lines = [",".join(map(repr, row.tolist())) for row in m]
    atomic_write_text(path, "\n".join(lines) + "\n")

