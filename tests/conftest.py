import dataclasses
import glob
import io
import json
import multiprocessing

import numpy as np
import pytest

from wtx.bench import BenchConfig, generate_benchmark
from wtx.models import ModelConfig, SourceWeights, TransferModel


def tiny_config(**overrides):
    base = dict(num_classes=24, num_shared=10, num_other=3, dim=16,
                clusters=6, manifold_dim=12, source_samples_per_class=40,
                train_samples_per_class=12, eval_samples_per_class=12,
                min_eval_examples=5)
    base.update(overrides)
    return BenchConfig(**base)


def make_model(variant, source=None, *, dim=8, groups=2, seed=0, **overrides):
    """A TransferModel of hidden width ``dim`` over ``source``, by default a
    random 12-class source of width ``dim``."""
    if source is None:
        w_c = np.random.default_rng(0).standard_normal((12, dim))
        source = SourceWeights.create(w_c, range(5))
    kwargs = dict(hidden_dim=dim, groups=groups)
    kwargs.update(overrides)
    return TransferModel(ModelConfig(variant, **kwargs), source, seed)


def top1_over(head, w_d, bench, split, ids):
    """The top-1 of ``split`` with its examples ranked over the global class
    ids ``ids``: i < |C| is row i of ``w_d``, and |C| + j the head's "other"
    row j."""
    sp = bench.split(split)
    ids = np.asarray(ids)
    logits = sp.features @ np.vstack([w_d, head.other_weights.data])[ids].T
    return float((sp.class_labels[sp.class_index, ids[np.argmax(logits, axis=1)]] > 0.5).mean())


def _child_pids() -> list[str]:
    """The pids of this process's children, listed per thread (Linux only).
    A thread that exits between the listing and the read hands its children
    to another thread, so the whole listing is taken again; skipping the
    thread could miss a child."""
    while True:
        pids = []
        try:
            for path in glob.glob("/proc/self/task/*/children"):
                with open(path) as f:
                    pids += f.read().split()
        except FileNotFoundError:       # a thread exited since the listing
            continue
        return pids


def assert_no_worker_left():
    """No pool worker of this process outlives the command that started it.
    The one child that may stay is multiprocessing's resource tracker, which
    the pool's locks start and which exits with the interpreter."""
    assert multiprocessing.active_children() == []
    for pid in _child_pids():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmdline = f.read()
        except FileNotFoundError:      # it exited since the listing
            continue
        assert b"multiprocessing.resource_tracker" in cmdline, (pid, cmdline)


def instance_parts(bench):
    """Every array of a benchmark instance by name, and its other fields."""
    arrays, other = {}, {"splits": list(bench.splits)}
    for f in dataclasses.fields(bench):
        value = getattr(bench, f.name)
        if f.name == "source":
            arrays.update({f"source.{g.name}": getattr(value, g.name)
                           for g in dataclasses.fields(value)})
        elif f.name == "splits":
            arrays.update({f"{name}.{g.name}": getattr(sp, g.name)
                           for name, sp in value.items() for g in dataclasses.fields(sp)})
        elif isinstance(value, np.ndarray):
            arrays[f.name] = value
        else:
            other[f.name] = value
    return arrays, other


def assert_same_instance(got, want):
    """The same arrays (dtype, shape, layout, write flag and bits), the same
    other fields and the same fingerprint."""
    got_arrays, got_other = instance_parts(got)
    want_arrays, want_other = instance_parts(want)
    assert got_other == want_other
    assert list(got_arrays) == list(want_arrays)
    for name, a in got_arrays.items():
        b = want_arrays[name]
        assert (a.dtype, a.shape, a.flags.c_contiguous, a.flags.writeable) == \
            (b.dtype, b.shape, b.flags.c_contiguous, b.flags.writeable), name
        assert a.tobytes() == b.tobytes(), name
    assert got.fingerprint == want.fingerprint


def npy_bytes(a, allow_pickle=False):
    """The bytes ``np.save`` writes for ``a``."""
    buf = io.BytesIO()
    np.save(buf, a, allow_pickle=allow_pickle)
    return buf.getvalue()


def entry_records(data: bytes) -> dict[str, np.ndarray]:
    """The records of the benchmark entry ``data`` by name, read in turn by
    plain ``np.load`` on an open file: ``meta``, ``digest``, then every
    array, named as in the meta document's ``array_hashes``. The reference
    reader of the tests, independent of ``wtx.bench``."""
    f = io.BytesIO(data)
    records = []
    while f.tell() < len(data):
        records.append(np.load(f, allow_pickle=False))
    names = ["meta", "digest", *json.loads(str(records[0]))["array_hashes"]]
    assert len(names) == len(records)
    return dict(zip(names, records))


def entry_bytes(records: dict) -> bytes:
    """The records joined back to back, in their order: each array as
    ``np.save`` writes it, and each ``bytes`` value as it is."""
    return b"".join(r if isinstance(r, bytes) else npy_bytes(r) for r in records.values())


def npz_bytes(m):
    buf = io.BytesIO()
    np.savez(buf, m)
    return buf.getvalue()


def with_first(m, value):
    m = m.copy()
    m.flat[0] = value
    return m


def flipped(data: bytes, offset: int, bit: int) -> bytes:
    """``data`` with bit ``bit`` of byte ``offset`` flipped."""
    data = bytearray(data)
    data[offset] ^= 1 << bit
    return bytes(data)


def huge_header(m):
    """A float64 header that claims a 10^9 x 10^9 matrix, over m's values."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<f8", "fortran_order": False, "shape": (10**9, 10**9)})
    return buf.getvalue() + m.tobytes()


# What each fault writes in place of the .npy file of a matrix m (of two or
# more rows), all of which load_matrix_npy refuses.
BAD_NPY = {
    "empty": lambda m: b"",
    "truncated": lambda m: npy_bytes(m)[:-1],
    "padded": lambda m: npy_bytes(m) + bytes(8),
    "json_text": lambda m: json.dumps({"rows": m.shape[0], "cols": m.shape[1],
                                       "data": m.ravel().tolist()}).encode(),
    "pickled_objects": lambda m: npy_bytes(m.astype(object), allow_pickle=True),
    "float32": lambda m: npy_bytes(m.astype(np.float32)),
    "int64": lambda m: npy_bytes(m.astype(np.int64)),
    "big_endian": lambda m: npy_bytes(m.astype(">f8")),
    "one_dim": lambda m: npy_bytes(m.ravel()),
    "three_dim": lambda m: npy_bytes(m[None]),
    "nan": lambda m: npy_bytes(with_first(m, np.nan)),
    "inf": lambda m: npy_bytes(with_first(m, np.inf)),
    "neg_inf": lambda m: npy_bytes(with_first(m, -np.inf)),
    "wrong_shape": lambda m: npy_bytes(m[:-1]),
    "claims_huge_shape": huge_header,
    # Bit 6 of the header length: numpy's parser raises tokenize.TokenError.
    "flipped_header_length": lambda m: flipped(npy_bytes(m), 8, 6),
    "npz": npz_bytes,
}
NPY_FAULTS = ["missing", "directory", *BAD_NPY]


def spoil_npy(path, fault):
    """Put the fault named ``fault``, one of NPY_FAULTS, in place of the
    valid matrix file at ``path`` (a pathlib.Path)."""
    m = np.load(path, allow_pickle=False)
    path.unlink()
    if fault == "directory":
        path.mkdir()
    elif fault != "missing":
        path.write_bytes(BAD_NPY[fault](m))


@pytest.fixture(scope="session", autouse=True)
def session_cache_home(tmp_path_factory):
    """Point the benchmark cache of every command the suite runs, those of
    session and module fixtures included, at a directory of the session
    instead of the user's cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("session_cache")))
        yield


@pytest.fixture(autouse=True)
def cache_home(tmp_path_factory, monkeypatch):
    """A fresh, empty benchmark cache for each test, outside its tmp_path,
    so that a test which counts builds counts only its own; returns the
    cache's base directory."""
    home = tmp_path_factory.mktemp("cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home


@pytest.fixture(scope="session")
def tiny_bench():
    """Small benchmark instance shared by model and evaluation tests."""
    return generate_benchmark(tiny_config(), seed=7)


@pytest.fixture(scope="session")
def default_bench():
    """One full-size default benchmark for invariants stated at that scale."""
    return generate_benchmark(BenchConfig(), seed=0)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
