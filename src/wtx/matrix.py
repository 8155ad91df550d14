"""Dense float64 matrices: hashing, norms, distances and serialization.

A "matrix" throughout this package is a 2-D, C-contiguous ``numpy.ndarray``
of float64. numpy supplies the storage and arithmetic; the naive scalar
oracles that define correctness live in the test suite.

Every squared Euclidean distance comes from ``blocked_sq_dists``, a block
of rows at a time. ``nearest_rows`` is the one nearest-neighbour search:
the k nearest reference rows of each query, ties to the lowest index,
optionally skipping each query's own row.

Two on-disk formats, both exact to the bit, each with a loader that
validates the file and its shape:

- numpy's ``.npy`` (``save_matrix_npy``, ``load_matrix_npy``) for the
  matrices of a run directory, W_D and the head: a header with the dtype
  and shape, then the raw float64 values in C order. Nothing is unpickled.
- JSON (``save_matrix_json``, ``load_matrix_json``), ``{"rows": R, "cols":
  C, "data": [...]}`` with each value written as its ``repr``, which
  round-trips float64 exactly, only for ``generate``'s
  ``source_weights.json``. The benchmark harness reads that file; it goes
  when the harness stops reading it (ROADMAP item 4), and ``.npy`` is then
  the one matrix format.

The package has one ``.npy`` reader, in two steps: ``read_npy_header``
parses a header, checks that it is byte for byte the one ``np.save``
writes and that its values fit in the bytes left, and ``read_npy_values``
reads the values after it straight from the file into a new array, with
one copy. ``load_matrix_npy`` reads a run directory's matrices with it,
and checks that the file ends right after the values; ``wtx.bench`` reads
each record of a benchmark entry with it, where records sit back to back.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import tokenize

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


# The most (row, column, dim) differences blocked_sq_dists holds at once:
# 1 MB, which stays in cache. Blocks of 4 MB were slower than one row at a
# time.
_BLOCK_ELEMS = 1 << 17


def blocked_sq_dists(a: np.ndarray, b: np.ndarray):
    """Yield ``(start, d2)`` over blocks of rows of ``a``, where ``d2[i, j]``
    is the squared Euclidean distance from ``a[start + i]`` to ``b[j]``.
    Each sum runs over the last, contiguous axis, so it has the bits of
    ``((b - a[start + i]) ** 2).sum(axis=1)``; blocks bound the memory that
    the full (len(a), len(b), d) array would take."""
    step = max(1, _BLOCK_ELEMS // max(b.size, 1))
    for start in range(0, len(a), step):
        yield start, ((b - a[start:start + step, None]) ** 2).sum(axis=2)


def nearest_rows(queries: np.ndarray, refs: np.ndarray, k: int,
                 own: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """For each query row, the indices of its ``k`` nearest rows of ``refs``
    by squared Euclidean distance, nearest first with ties to the lowest
    index, and those squared distances: two ``(len(queries), k)`` arrays.
    ``own[i]``, if given, is query i's own row of ``refs``, which then counts
    as infinitely far; a query with no other row gets index 0 at distance
    inf. For k = 1, ``argmin`` gives the first column of the stable sort."""
    nearest, d2_k = np.empty((len(queries), k), dtype=np.int64), np.empty((len(queries), k))
    for start, d2 in blocked_sq_dists(queries, refs):
        stop = start + len(d2)
        if own is not None:
            d2[np.arange(len(d2)), own[start:stop]] = np.inf
        nn = (np.argmin(d2, axis=1)[:, None] if k == 1
              else np.argsort(d2, axis=1, kind="stable")[:, :k])
        nearest[start:stop], d2_k[start:stop] = nn, np.take_along_axis(d2, nn, axis=1)
    return nearest, d2_k


def matrix_hash(m: np.ndarray) -> str:
    """SHA-256 over shape and raw bytes; detects any byte-level change. The
    C-contiguous array is hashed through its buffer, without a copy."""
    m = np.ascontiguousarray(m)
    h = hashlib.sha256()
    h.update(repr(m.shape).encode())
    h.update(m)
    return h.hexdigest()


def atomic_write_text(path: str, text: str | bytes) -> None:
    """Write ``text`` (a str, or bytes written as they are) via a temp file
    and rename, so failures leave no partial file. The file gets the mode
    ``open()`` would give it: 0o666 less the umask."""
    d, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(d, f".tmp-{os.urandom(8).hex()}-{name}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb" if isinstance(text, bytes) else "w") as f:
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


def read_json(path: str):
    """The JSON document in ``path``. A file that cannot be opened (missing,
    say, or a directory), is not UTF-8 or does not parse raises
    ValidationError naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise ValidationError(f"{path}: cannot be read ({e.strerror})") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ValidationError(f"{path}: not valid JSON ({e})") from None


def load_matrix_json(path: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Read a matrix written by save_matrix_json. Anything but readable UTF-8
    JSON of an object with non-negative integer ``rows`` and ``cols`` and a
    ``data`` list of exactly rows*cols finite numbers, or a matrix not of
    ``shape`` when one is given, raises ValidationError naming the file."""
    obj = read_json(path)
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


def save_matrix_npy(m: np.ndarray, path: str) -> None:
    """The matrix as a float64, C-order ``.npy`` file; no pickled objects."""
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(as_matrix(m)), allow_pickle=False)
    atomic_write_text(path, buf.getvalue())


def read_npy_header(f, size: int, what: str) -> tuple[tuple[int, ...], bool, np.dtype]:
    """The shape, Fortran-order flag and dtype in the ``.npy`` header at the
    position of the binary file ``f``, where ``size`` bytes are left for the
    header and its values; ``f`` is left at the first value. The header must
    be byte for byte the one ``np.save`` writes for an array of that shape,
    order and dtype. Anything else, an object dtype, or values that would not
    fit in the rest of the ``size`` bytes raises ValidationError naming
    ``what``. Nothing is unpickled and no claimed size is allocated."""
    start = f.tell()
    try:
        version = np.lib.format.read_magic(f)
        shape, fortran, dtype = (np.lib.format.read_array_header_1_0(f) if version == (1, 0)
                                 else np.lib.format.read_array_header_2_0(f))
    except (ValueError, SyntaxError, tokenize.TokenError) as e:
        # numpy's header parser raises all three, for a damaged header
        raise ValidationError(f"{what}: not a .npy file ({e})") from None
    if dtype.hasobject:
        raise ValidationError(f"{what}: a .npy array of Python objects ({dtype.str}); "
                              f"nothing is unpickled")
    if min(shape, default=0) < 0:
        raise ValidationError(f"{what}: not a .npy file (shape {shape})")
    saved = io.BytesIO()
    np.lib.format.write_array_header_1_0(saved, {  # np.save writes no bool in a shape
        "descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": fortran,
        "shape": tuple(map(int, shape))})
    f.seek(start)        # a header of another length differs in its length field
    if f.read(saved.tell()) != saved.getvalue():
        raise ValidationError(f"{what}: not the .npy header np.save writes for a {shape} "
                              f"array of {dtype.str}")
    need = dtype.itemsize * math.prod(shape)
    if need > size - saved.tell():
        raise ValidationError(f"{what}: a {shape} array of {dtype.str} needs {need} bytes "
                              f"of values, only {size - saved.tell()} follow its header")
    return shape, fortran, dtype


def read_npy_values(f, shape: tuple[int, ...], fortran: bool, dtype: np.dtype,
                    what: str) -> np.ndarray:
    """The values that follow a header that ``read_npy_header`` read from
    ``f``, read straight into a new array with one copy; ``f`` is left after
    them. A file that ends before them raises ValidationError naming
    ``what``."""
    a = np.empty(math.prod(shape), dtype)
    if f.readinto(a) != a.nbytes:
        raise ValidationError(f"{what}: the file ends inside the array's values")
    return a.reshape(shape, order="F" if fortran else "C")


def load_matrix_npy(path: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Read a matrix written by save_matrix_npy. Anything but a readable
    ``.npy`` file of a 2-D, native-order float64 array (``shape`` when one is
    given) whose values fill the file exactly and are all finite raises
    ValidationError naming the file. The header is checked before a value
    is read, so no object is unpickled and no claimed size is allocated."""
    try:
        with open(path, "rb") as f:
            dims, fortran, dtype = read_npy_header(f, os.fstat(f.fileno()).st_size, path)
            if dtype != np.dtype(np.float64) or len(dims) != 2:
                raise ValidationError(f"{path}: a matrix is a 2-D array of native float64, "
                                      f"got shape {dims}, dtype {dtype.str}")
            if shape is not None and dims != tuple(shape):
                raise ValidationError(f"{path} holds a {dims[0]}x{dims[1]} matrix where "
                                      f"{shape[0]}x{shape[1]} is needed")
            m = read_npy_values(f, dims, fortran, dtype, path)
            if f.read(1):
                raise ValidationError(f"{path}: the file does not end at the matrix's values")
    except OSError as e:
        raise ValidationError(f"{path}: cannot be read ({e.strerror})") from None
    if not np.isfinite(m).all():
        raise ValidationError(f"{path}: data must hold finite numbers only (no NaN or Infinity)")
    return np.ascontiguousarray(m)
