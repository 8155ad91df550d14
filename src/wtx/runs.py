"""Runs: the run-directory format, the benchmark cache, the BLAS-thread rule
and the ``compare`` sweep. ``wtx.cli`` is the command line over it.

The public API is small. ``benchmark`` gets the benchmark of a config and
seed (``write_benchmark``, with a checked copy of its cache entry);
``train_run`` trains one run and writes its run directory; ``load_runs``
reloads run directories; ``table_row`` scores a run into a comparison row;
``sweep`` trains and scores every (method, seed) of a config;
``blas_threads`` sets the BLAS threads. A run is one record, whether
trained or reloaded: a dict of its ``tag``, its ``config``, its benchmark
``bench``, its ``head`` and ``w_d``. A transfer run that ``train_run``
trained also holds its ``report`` and trained ``model``.

A run directory holds one (method, seed) run, named by the tag
``METHOD__seedSEED``, and states each fact in one file. ``train_run`` of a
transfer variant writes six (a ``compare`` sweep writes the same six under
``runs/TAG/``):

    config.json              the config the run was trained with
    report.json              final losses; W_C, decoder and model hashes
    losses__TAG.csv          the losses of every training iteration
    weights__TAG.npy         W_D, the transferred weights of every source class
    head__TAG.npy            the head's "other"-class weights
    norm_stats__TAG.json     post-ReLU activation-norm statistics of the model

``train_run`` of a baseline writes three, ``config.json``,
``weights__TAG.npy`` (W_D, its trained seen rows and filled novel rows) and
``head__TAG.npy``: it has no transfer network to report on. A reload reads
only those three, so it scores either kind alike. The two matrices are
numpy ``.npy`` files (``wtx.matrix.save_matrix_npy``), exact to the bit; a
run dir whose matrices are JSON (``weights__TAG.json``, written by an older
``wtx``) must be retrained.

The run's ``config.json`` is its experiment config with ``model.variant``
set to the method and ``seeds`` to ``[SEED]``, plus a ``resolved`` block
that holds ``benchmark_sha256`` alone. Without that block the file trains
the run again, byte for byte. A reload raises ConfigError (``wtx`` exits
2), naming the file, before it opens a file named from the tag, if the
config is invalid, if ``seeds`` is not one seed or if ``resolved`` holds
anything else: a run dir written by an older ``wtx`` (one with
``model.input_norm``, say, or ``resolved.method``) must be retrained.

A method, the METHOD of a run's tag, is a label of ``wtx.models.METHODS``,
the one method table: a transfer variant or a baseline. ``train_run`` is
the one place that tells the two kinds apart.

Every benchmark a command needs (``generate``, ``train``, each ``compare``
sweep worker and each reload) comes from one benchmark cache. An entry is
``$XDG_CACHE_HOME/wtx/benchmarks/KEY.npy``, under ``~/.cache`` when
XDG_CACHE_HOME is unset, in a directory of mode 0700. KEY is the sha256 of
canonical JSON of the benchmark config, the seed and a stamp of what else
the benchmark's bits may depend on: the sha256 of this package's ``.py``
sources, the Python and numpy versions, numpy's BLAS name and version, and
the host name and architecture. An entry (the format of
``wtx.bench.instance_entry``) is used only if what the caller reads of it
passes the checks of ``wtx.bench.load_instance_entry``; otherwise the
benchmark is built by ``generate_benchmark`` and its entry written.
``generate``, ``train`` and a sweep read every split and the reloads fewer
(below). Every load checks every header of an entry and its meta document,
so damage there fails every load; a damaged value fails only the loads
that read it, and is repaired by the first command that does.
``generate`` (``write_benchmark``) copies the entry to its output and loads
the copy whole, so every byte it writes passed those checks; a miss writes
the entry it built there too.
An error reading the cache counts as a miss and an error writing it is
ignored, so the cache changes no exit code and no output byte. After each
write the least recently used files, a killed writer's temp file included,
are deleted until the directory holds at most ``CACHE_BYTES`` (512 MiB); a
hit counts as a use.

``load_runs`` is the one reload: ``eval`` and ``analyze`` call it with one
run directory, ``compare RUN_DIRS`` with many. It reads and shape-checks
every run's config and matrix files first. It then takes one run per
(method, seed), the key of a table row, and only runs trained on one
benchmark config and scored with one ``evaluation.recall_k``. Last, it gets
each distinct (benchmark config, seed) once and checks every run's
recorded ``benchmark_sha256`` against its fingerprint. Of a cache entry, it
reads W_C, the small arrays and the splits it is asked for: ``eval`` and
``compare RUN_DIRS`` ask for ``eval_seen`` and ``eval_novel``, ``analyze``
for none. Every array read is checked against its stored hash. A cached
benchmark that does not match is built by the generator again before the
mismatch is reported, so the message is about a regenerated benchmark.

A ``compare`` sweep runs one job per seed in a pool of worker processes,
never more than there are seeds. A job generates its seed's benchmark once
and trains and scores every method of the sweep on it. The table sorts its
rows, so the output does not depend on the worker count; a config whose
seeds are not in ascending order gets its rows in ascending seed order.
Workers are spawned, not forked. A sweep checks the model section for each
of its methods before it starts a worker.

One rule sets the BLAS threads. What writes a stored bit runs with
OpenBLAS at 1 thread, set at run time by ``blas_threads``: every benchmark
build, all of ``train_run`` (training, the W_D export and the norm stats)
and all of a sweep job, its scoring included. How a product is split over
threads can change its last bits; at the presets' sizes it changes the
benchmark's fingerprint. At 1 thread the cache entry, the fingerprint and
the run files are the same whichever command made them, and no environment
variable changes an output bit. A sweep worker would gain nothing from a
second thread: the matrices are small, and the other workers want the
cores. Scoring by ``eval``, ``analyze`` and ``compare RUN_DIRS`` keeps the
default count, which is faster; its top-1 and recall were the same at 1
and 2 threads at the default size and at both presets. Its logits are not:
for a ``wtn`` run of 50 iterations (seed 0), 52 of the 1,537,500
``eval_novel`` logits differed in their last bits between 1 and 2 threads
at the default size, and 30 of 1,601,700 at ``oi_shape``. Pinning this
scoring to 1 thread would cost time: on a 2-core host, three ``eval`` runs
and a ``compare`` of the three runs took 139 ms at 1 thread against 124
ms at 2 (medians of 16 alternating repetitions, default size), and
scoring one W_D on both eval splits 11.6-12.3 ms against 8.7-9.0 ms
(medians of 40).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import os
import platform
import sys
from contextlib import contextmanager, suppress
from dataclasses import asdict, replace
from shutil import copyfile

import numpy as np

from .bench import (BenchConfig, BenchmarkInstance, generate_benchmark, instance_entry,
                    load_instance_entry)
from .config import ExperimentConfig, config_from_dict, config_to_dict
from .errors import ConfigError, ValidationError, WorkerDied
from .evaluation import evaluate, norm_stats
from .matrix import atomic_write_text, load_matrix_npy, read_json, save_matrix_npy
from .models import METHODS, Baseline, DetectionProxyHead, TransferModel, train_joint

# The splits that scoring reads.
EVAL_SPLITS = ("eval_seen", "eval_novel")


@functools.cache
def _openblas() -> tuple:
    """The ``(set_num_threads, get_num_threads)`` C entry points of each
    OpenBLAS loaded in this process, found through ctypes among the shared
    libraries that /proc/self/maps lists: ``openblas_set_num_threads`` in a
    system OpenBLAS, ``scipy_openblas_set_num_threads64_`` in numpy's wheel.
    Empty where there is no OpenBLAS, or no /proc/self/maps to list it."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({fields[5] for fields in map(str.split, f) if len(fields) == 6
                            and "openblas" in os.path.basename(fields[5]).lower()})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("", ""), ("", "64_"), ("scipy_", ""), ("scipy_", "64_")):
            try:
                set_n = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
                get_n = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
            except AttributeError:
                continue
            set_n.argtypes, set_n.restype = [ctypes.c_int], None
            get_n.argtypes, get_n.restype = [], ctypes.c_int
            found.append((set_n, get_n))
            break
    return tuple(found)


@contextmanager
def blas_threads(count: int):
    """Run the block with every loaded OpenBLAS at ``count`` threads, then
    restore each one's previous count, on an exception too. Blocks nest.
    Where no OpenBLAS is loaded (numpy on another BLAS, say) it does
    nothing, and that BLAS keeps its own count."""
    libs = _openblas()
    saved = [get_n() for _, get_n in libs]
    for set_n, _ in libs:
        set_n(count)
    try:
        yield
    finally:
        for (set_n, _), n in zip(libs, saved):
            set_n(n)


# The benchmark cache keeps at most this many bytes of entries.
CACHE_BYTES = 512 << 20


@functools.cache
def _cache_stamp() -> dict:
    """What a benchmark's bits may depend on besides its config and seed:
    this package's sources, Python, numpy and its BLAS, and the host. The
    BLAS thread count is not part of it: every build runs at 1 thread."""
    package = os.path.dirname(os.path.abspath(__file__))
    sources = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as f:
                sources.update(name.encode() + b"\0" + hashlib.sha256(f.read()).digest())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):       # a numpy without the dict form
        blas = {}
    return {"sources": sources.hexdigest(), "python": sys.version, "numpy": np.__version__,
            "blas": [blas.get("name"), blas.get("version")],
            "host": platform.node(), "arch": platform.machine()}


def _store_entry(path: str, data: bytes) -> None:
    """Write the cache entry, the bytes ``data``, then delete the least
    recently used files until the directory holds at most CACHE_BYTES. Every
    regular file counts, so the temp file of a writer killed before its
    rename goes too; a writer still at work holds the newest file. An
    OSError ends this quietly: the cache only saves time."""
    cache_dir = os.path.dirname(path)
    with suppress(OSError):
        os.makedirs(cache_dir, mode=0o700, exist_ok=True)
        atomic_write_text(path, data)
        entries = []
        for entry in os.scandir(cache_dir):
            if entry.is_file(follow_symlinks=False):
                st = entry.stat(follow_symlinks=False)
                entries.append((st.st_mtime_ns, entry.name, st.st_size))
        held = sum(size for *_, size in entries)
        for _, name, size in sorted(entries):
            if held <= CACHE_BYTES:
                break
            os.unlink(os.path.join(cache_dir, name))
            held -= size


def _benchmark(config: BenchConfig, seed: int, *, look_up: bool = True, splits=None,
               copy_to: str | None = None) -> tuple[BenchmarkInstance, bool]:
    """The benchmark of (config, seed), and whether it came from the cache.
    A hit holds the splits named in ``splits`` (every split if None) and is
    used only if it passes the checks of ``load_instance_entry``. Given the
    path ``copy_to``, with ``splits`` None, a hit copies the entry file there
    and loads that copy whole, so every byte of the copy is checked.
    Anything else builds the whole benchmark with ``generate_benchmark``,
    serializes it once and writes the entry, to ``copy_to`` too if given.
    ``look_up=False`` builds without reading the cache."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):         # unset, empty or relative: the default
        base = os.path.join(os.path.expanduser("~"), ".cache")
    key = {"benchmark": asdict(config), "seed": seed, "stamp": _cache_stamp()}
    digest = hashlib.sha256(json.dumps(key, sort_keys=True, separators=(",", ":")).encode())
    path = os.path.join(base, "wtx", "benchmarks", digest.hexdigest() + ".npy")
    if look_up:
        with suppress(Exception):       # any read error or failed check is a miss
            if copy_to is not None:
                copyfile(path, copy_to)
            bench = load_instance_entry(copy_to or path, config, seed, splits)
            with suppress(OSError):
                os.utime(path)          # most recently used
            return bench, True
    with blas_threads(1):
        bench = generate_benchmark(config, seed)
    data = instance_entry(bench)
    _store_entry(path, data)
    if copy_to is not None:
        atomic_write_text(copy_to, data)
    return bench, False


def benchmark(config: BenchConfig, seed: int, splits=None) -> BenchmarkInstance:
    """The benchmark of (config, seed), from the cache or built; a hit holds
    the splits named in ``splits`` (every split if None)."""
    return _benchmark(config, seed, splits=splits)[0]


def write_benchmark(config: BenchConfig, seed: int, path: str) -> BenchmarkInstance:
    """The whole benchmark of (config, seed), with its cache entry written to
    ``path``: a hit's entry file copied there and the copy loaded and
    checked whole, or the entry just built."""
    return _benchmark(config, seed, copy_to=path)[0]


@blas_threads(1)
def train_run(cfg: ExperimentConfig, method: str, seed: int, outdir: str, *,
              bench: BenchmarkInstance | None = None) -> dict:
    """Train one (method, seed) run, ``method`` a label of ``METHODS``, and
    write its run directory into outdir: six files for a transfer variant,
    three for a baseline. Returns the run: its tag, its config (``cfg``
    with that method and seed), the benchmark, the head and ``w_d``, W_D,
    the matrix written to ``weights__TAG.npy``; a transfer run's also holds
    its report and trained model. W_D and the head's weights are written by
    ``save_matrix_npy``.

    ``bench`` is the seed's benchmark if the caller has it already; if not,
    it comes from the benchmark cache or the generator. A model section
    that is invalid for the method raises ConfigError before either."""
    run_cfg = replace(cfg, model=cfg.model_config(method), seeds=(seed,))
    if bench is None:
        bench = benchmark(cfg.benchmark, seed)
    tag = f"{method}__seed{seed}"
    res = {"tag": tag, "config": run_cfg, "bench": bench}
    spec = METHODS[method]
    if isinstance(spec, Baseline):
        w_d, head = spec.fit(bench.source, bench, run_cfg.train_config(seed))
    else:
        model = TransferModel(run_cfg.model, bench.source, seed)
        head = DetectionProxyHead(bench.num_other, bench.d_feat)
        report = train_joint(model, head, bench.source, bench, run_cfg.train_config(seed))
        w_d = model.encode(bench.source)
        losses = ["iteration,l_cls,l_rec,total"] + [",".join(map(repr, (it, *row)))
                                                    for it, row in enumerate(report.losses)]
        atomic_write_text(os.path.join(outdir, f"losses__{tag}.csv"), "\n".join(losses) + "\n")
        atomic_write_text(os.path.join(outdir, f"norm_stats__{tag}.json"),
                          norm_stats(model, bench.source).to_json())
        atomic_write_text(os.path.join(outdir, "report.json"), report.to_json())
        res.update(report=report, model=model)

    save_matrix_npy(w_d, os.path.join(outdir, f"weights__{tag}.npy"))
    save_matrix_npy(head.other_weights.data, os.path.join(outdir, f"head__{tag}.npy"))
    payload = {**config_to_dict(run_cfg), "resolved": {"benchmark_sha256": bench.fingerprint}}
    atomic_write_text(os.path.join(outdir, "config.json"),
                      json.dumps(payload, sort_keys=True, indent=1))
    return {**res, "head": head, "w_d": w_d}


def _read_run(run_dir: str) -> tuple[dict, str]:
    """A finished run, less its benchmark, and the fingerprint its
    ``resolved`` block records, which must be all that block holds. The
    run's config is the config it was trained with: its variant is the
    run's method and its one seed the run's seed. The weights and head
    ``.npy`` files are read by ``load_matrix_npy`` and shape-checked against
    the sizes in the config, so a broken run dir fails before its benchmark
    is built; a missing one (in a run dir of JSON matrices, say) raises
    ValidationError that names it and asks for a retrain."""
    cfg_path = os.path.join(run_dir, "config.json")
    if not os.path.exists(cfg_path):
        raise ConfigError(f"{run_dir} has no config.json (not a run directory?)")
    doc = read_json(cfg_path)
    resolved = doc.pop("resolved", None) if isinstance(doc, dict) else None
    try:
        cfg = config_from_dict(doc)
    except ConfigError as e:
        raise ConfigError(f"{cfg_path}: {e}") from None
    if len(cfg.seeds) != 1:
        raise ConfigError(f"{cfg_path}: a run has one seed, but seeds is {list(cfg.seeds)}")
    if not isinstance(resolved, dict) or set(resolved) != {"benchmark_sha256"}:
        got = sorted(resolved) if isinstance(resolved, dict) else resolved
        raise ConfigError(f"{cfg_path}: the 'resolved' block must hold benchmark_sha256 "
                          f"alone, got {got!r} (retrain the run)")
    # The config's checks made the variant a label of METHODS and the
    # seed a non-negative integer, so the tag is safe to build paths from.
    tag = f"{cfg.model.variant}__seed{cfg.seeds[0]}"
    bc = cfg.benchmark
    w_d = _load_run_matrix(os.path.join(run_dir, f"weights__{tag}.npy"),
                           (bc.num_classes, bc.dim))
    head = DetectionProxyHead(bc.num_other, bc.dim)
    head.other_weights.data[...] = _load_run_matrix(os.path.join(run_dir, f"head__{tag}.npy"),
                                                    head.other_weights.data.shape)
    return {"tag": tag, "config": cfg, "head": head, "w_d": w_d}, resolved["benchmark_sha256"]


def _load_run_matrix(path: str, shape: tuple[int, int]):
    """The matrix of a run dir at ``path``, by ``load_matrix_npy``. A missing
    file asks for a retrain: a run dir of an older ``wtx`` holds JSON
    matrices in its place."""
    if not os.path.lexists(path):
        raise ValidationError(f"{path}: no such file; a run dir holds W_D and the head as "
                              f".npy files (retrain the run)")
    return load_matrix_npy(path, shape)


def load_runs(run_dirs, splits) -> list[dict]:
    """The runs of ``run_dirs``, in their order, each with the benchmark it
    was trained on; a cache hit holds at least the splits named in
    ``splits``. Every run dir is read before any benchmark is got. Two runs
    of one (method, seed), runs of two benchmark configs and runs of two
    ``recall_k`` raise ConfigError naming both dirs, and a fingerprint that
    is not the one a run recorded raises ValidationError naming its dir."""
    read = [(rd, *_read_run(rd)) for rd in run_dirs]
    first = read[0][1]["config"]
    given = {}
    for rd, run, _ in read:
        cfg, tag = run["config"], run["tag"]
        if tag in given:
            raise ConfigError(f"{given[tag]} and {rd} both hold run {tag}; its "
                              f"scores would count twice")
        given[tag] = rd
        if cfg.benchmark != first.benchmark:
            raise ConfigError(f"{run_dirs[0]} and {rd} were trained on "
                              f"different benchmark configs; one table needs one")
        if cfg.evaluation.recall_k != first.evaluation.recall_k:
            raise ConfigError(f"{run_dirs[0]} scores novel_recall at "
                              f"recall_k={first.evaluation.recall_k} and {rd} at recall_k="
                              f"{cfg.evaluation.recall_k}; one table needs one recall_k")
    benches = {}        # (BenchConfig, seed) -> (benchmark, whether it came from the cache)
    for rd, run, stamped in read:
        key = run["config"].benchmark, run["config"].seeds[0]
        if key not in benches:
            bench, cached = _benchmark(*key, splits=splits)
            benches[key] = bench, cached
        bench, cached = benches[key]
        if bench.fingerprint != stamped and cached:
            bench = _benchmark(*key, look_up=False)[0]
            benches[key] = bench, False
        if bench.fingerprint != stamped:
            raise ValidationError(f"{rd}: the regenerated benchmark has fingerprint "
                                  f"{bench.fingerprint}; config.json records {stamped}")
        run["bench"] = bench
    return [run for _, run, _ in read]


def table_row(run: dict) -> dict:
    """The comparison row of a run, scored on its benchmark's eval splits."""
    cfg = run["config"]
    layers = METHODS[cfg.model.variant]
    seen, novel = (evaluate(run["head"], run["w_d"], run["bench"], split,
                            k=cfg.evaluation.recall_k) for split in EVAL_SPLITS)
    return {"method": cfg.model.variant, "seed": cfg.seeds[0],
            "input_norm": layers.input_norm, "group_norm": layers.feature_norm,
            "seen_top1": seen.top1, "novel_top1": novel.top1,
            "novel_recall": novel.recall_k, "benchmark_echo": asdict(cfg.benchmark)}


@blas_threads(1)
def _sweep_seed(cfg: ExperimentConfig, methods, seed: int, runs_dir: str) -> list[dict]:
    """One seed of a sweep, run in a worker process: get the seed's
    benchmark once, then train and score every method on it. Returns one row
    per method, in ``methods`` order."""
    bench = benchmark(cfg.benchmark, seed)
    rows = []
    for method in methods:
        outdir = os.path.join(runs_dir, f"{method}__seed{seed}")
        os.makedirs(outdir)
        rows.append(table_row(train_run(cfg, method, seed, outdir, bench=bench)))
    return rows


def sweep(cfg: ExperimentConfig, methods, jobs: int, runs_dir: str) -> list[dict]:
    """Train every method of ``methods`` on every seed of ``cfg`` into
    ``runs_dir/TAG``, ``runs_dir`` a directory this makes, in a pool of at
    most ``jobs`` worker processes, one seed per job. Returns the table
    rows, seed by seed in ``cfg.seeds`` order. A model section invalid for
    one of the methods raises ConfigError before anything is made; a worker
    that dies raises WorkerDied."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    for method in methods:
        cfg.model_config(method)
    os.makedirs(runs_dir)
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(cfg.seeds)),
                               mp_context=multiprocessing.get_context("spawn"))
    try:
        # The pool starts its workers as jobs are submitted.
        futures = [pool.submit(_sweep_seed, cfg, methods, seed, runs_dir) for seed in cfg.seeds]
        for future in as_completed(futures):
            future.result()     # the first failed seed raises here
    except BrokenProcessPool:
        # A worker was killed, or could not start; the pool has ended the
        # others and fails every job that was not done.
        raise WorkerDied("a sweep worker process died before it finished its "
                         "seed; no output was written") from None
    finally:
        # Drop the seeds not yet started; wait for the running ones so
        # that none writes into runs_dir after the caller removes it.
        pool.shutdown(cancel_futures=True)
    return [row for future in futures for row in future.result()]
