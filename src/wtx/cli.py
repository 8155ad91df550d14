"""Command-line entry point.

Subcommands: generate, train, eval, analyze, compare, gradcheck. Exit
codes: 0 success, 1 a ``gradcheck`` check failed, 2 missing/invalid
configuration or an input file that cannot be read, 3 training aborted on a
non-finite loss, 4 a ``compare`` sweep worker process died (killed, say, or
unable to start). Outputs are staged in a temporary directory and renamed
into place, so a failed command leaves no partial output behind. An
existing ``--out`` is replaced only with ``--overwrite`` and only if it is a
directory; both are checked before any work starts.

The config is the one source of a run's settings. ``--seed`` replaces the
config's seeds; ``train`` and ``generate`` use the first of the seeds, and
a ``compare`` sweep runs every one. ``train --variant`` picks the method,
so one config and ``--seed`` name any run of a sweep.

A run directory holds one (method, seed) run, named by the tag
``METHOD__seedSEED``, and states each fact in one file. Only this module
writes them. ``train`` of a transfer variant writes six (a ``compare``
sweep writes the same six under ``runs/TAG/``):

    config.json              the config the run was trained with
    report.json              final losses; W_C, decoder and model hashes
    losses__TAG.csv          the losses of every training iteration
    weights__TAG.json        W_D, the transferred weights of every source class
    head__TAG.json           the head's "other"-class weights
    norm_stats__TAG.json     post-ReLU activation-norm statistics of the model

``train`` of a baseline writes three, ``config.json``, ``weights__TAG.json``
(W_D, its trained seen rows and filled novel rows) and ``head__TAG.json``:
it has no transfer network to report on. Every command that reloads a run
reads only those three, so it scores either kind alike.

The run's ``config.json`` is its experiment config with ``model.variant``
set to the method and ``seeds`` to ``[SEED]``, plus a ``resolved`` block
that holds ``benchmark_sha256`` alone. Without that block the file trains
the run again, byte for byte. A reload exits 2, naming the file, before it
opens a file named from the tag, if the config is invalid, if ``seeds`` is
not one seed or if ``resolved`` holds anything else: a run dir written by
an older ``wtx`` (one with ``model.input_norm``, say, or
``resolved.method``) must be retrained.

``eval`` adds ``metrics__TAG__eval_seen.json`` and
``metrics__TAG__eval_novel.json``; ``analyze`` adds only
``overlap__TAG.json`` (neighbor overlap of W_D with W_C), from W_C and W_D.
A run dir trained before ``train`` wrote the norm stats has none; retrain
it to get them. A metrics file's ``config_echo`` restates the resolved
block; it stays until the benchmark harness stops reading it (ROADMAP item
4). ``compare`` writes ``comparison.json`` and ``comparison.csv`` into its
output directory; their rows are sorted by method, in the order of
``wtx.models.METHODS`` (the transfer variants, then the baselines), then by
seed. A baseline's row has ``input_norm`` and ``group_norm`` both false: it
has neither layer.

``generate`` writes three files: ``benchmark.npz``, the benchmark in the
format of ``wtx.bench.instance_entry`` and byte for byte the cache entry of
its config and seed (below), which ``wtx.bench.load_instance_entry`` reads
back; ``manifest.json``, the archive's ``meta`` document (the config, seed
and fingerprint among others); and ``source_weights.json``, W_C as a JSON
matrix.

Every command that needs a benchmark (``generate``, ``train``, each
``compare`` sweep worker and each reload) gets it from one benchmark cache.
An entry is ``$XDG_CACHE_HOME/wtx/benchmarks/KEY.npz``, under ``~/.cache``
when XDG_CACHE_HOME is unset, in a directory of mode 0700. KEY is the
sha256 of canonical JSON of the benchmark config, the seed and a stamp of
what else the benchmark's bits may depend on: the sha256 of this package's
``.py`` sources, the Python and numpy versions, numpy's BLAS name and
version, and the host name and architecture. An entry (the format of
``wtx.bench.instance_entry``) is used only if what the command reads of it
passes the checks of ``wtx.bench.load_instance_entry``; otherwise the
benchmark is built by ``generate_benchmark`` and its entry written.
``generate``, ``train`` and a sweep read every split and the reloads fewer
(below), so a damaged array is repaired by the first command that reads it.
An error reading the cache counts as a miss and an error writing it is
ignored, so the cache changes no exit code and no output byte. After each
write the least recently used files, a killed writer's temp file included,
are deleted until the directory holds at most ``CACHE_BYTES`` (512 MiB); a
hit counts as a use.

``eval``, ``analyze`` and ``compare RUN_DIRS`` reload a run directory. A
reload reads and shape-checks the run's matrix files first, then gets the
benchmark of the config and seed and checks its fingerprint against the
recorded ``benchmark_sha256``. Of a cache entry, each reads W_C and the
small arrays, and ``eval`` and ``compare RUN_DIRS`` the ``eval_seen`` and
``eval_novel`` splits too; every array read is checked against its stored
hash. A cached benchmark that does not match is built by the generator
again before the mismatch is reported, so the message is about a
regenerated benchmark. ``compare RUN_DIRS`` gets each distinct (benchmark
config, seed) once and checks every run directory's fingerprint against it.
It reads every run directory before it gets any benchmark, and takes one
run per (method, seed), the key of a table row, and only runs trained on
one benchmark config and scored with one ``evaluation.recall_k``. It
scores the runs as they were trained, so the sweep flags ``--config``,
``--seed`` and ``--grid`` exit 2 with RUN_DIRS, before any run directory
is read; ``--jobs`` has a default and is ignored.

A method, the METHOD of a run's tag, is a label of ``wtx.models.METHODS``,
the one method table: a transfer variant or a baseline. ``train --variant``
takes any of them, and ``run_training`` is the one place that tells the
two kinds apart. The default sweep trains the paper's networks,
``wtx.models.VARIANTS``, and ``--grid`` the labels of ``GRID_METHODS`` (the
input-norm x group-norm ablation). A sweep checks the model section for
each of its methods before it starts a worker.

A ``compare`` sweep runs one job per seed in a pool of ``--jobs`` worker
processes (default: the CPUs this process may use, never more than there
are seeds). A job generates its seed's benchmark once and trains and scores
every method of the sweep on it. The table sorts its rows, so the output
does not depend on the worker count; a config whose seeds are not in
ascending order gets its rows in ascending seed order. Workers are
spawned, not forked.

One rule sets the BLAS threads. What writes a stored bit runs with
OpenBLAS at 1 thread, set at run time by ``blas_threads``: every benchmark
build, all of ``run_training`` (training, the W_D export and the norm
stats) and all of a sweep job, its scoring included. How a product is
split over threads can change its last bits; at the presets' sizes it
changes the benchmark's fingerprint. At 1 thread the cache entry, the
fingerprint and the run files are the same whichever command made them,
and no environment variable changes an output bit. A sweep worker would
gain nothing from a second thread: the matrices are small, and the other
workers want the cores. Scoring by ``eval``, ``analyze`` and ``compare
RUN_DIRS`` keeps the default count, which is faster; its top-1 and recall
were the same at 1 and 2 threads at the default size and at both presets.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import os
import platform
import shutil
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace

import numpy as np

from .bench import (BenchConfig, BenchmarkInstance, generate_benchmark, instance_entry,
                    load_instance_entry, save_instance)
from .config import ExperimentConfig, config_from_dict, config_to_dict, default_config
from .errors import ConfigError, StateError, TrainingDiverged, ValidationError, WorkerDied
from .evaluation import (comparison_csv, comparison_table, evaluate, nn_overlap,
                         norm_stats)
from .gradcheck import run_gradient_suite
from .matrix import atomic_write_text, load_matrix_json, read_json, save_matrix_json
from .models import METHODS, VARIANTS, Baseline, DetectionProxyHead, TransferModel, train_joint


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


def _load_config(path: str | None, seed: int | None) -> ExperimentConfig:
    """The config at ``path`` (the default config if None), with its seeds
    replaced by ``seed`` if one is given."""
    cfg = default_config() if path is None else config_from_dict(read_json(path))
    return cfg if seed is None else replace(cfg, seeds=(seed,))


@contextmanager
def staged_output(final_path: str, overwrite: bool):
    """Create the output directory atomically: build in a temp dir, rename. The
    output is checked before the body runs: an existing one must be a
    directory, and is replaced only with ``overwrite``, and a temp dir that
    cannot be made raises ConfigError. The temp dir is removed if the body or
    the final swap fails."""
    final_path = os.path.abspath(final_path)
    if os.path.lexists(final_path):
        if not overwrite:
            raise ConfigError(f"output {final_path} already exists (use --overwrite)")
        if os.path.islink(final_path) or not os.path.isdir(final_path):
            raise ConfigError(f"output {final_path} is not a directory; --overwrite "
                              f"replaces only a directory")
    tmp = final_path + f".staging{os.getpid()}"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    try:
        os.makedirs(tmp)
    except OSError as e:        # say, a parent that is a file
        raise ConfigError(f"output {final_path} cannot be created ({e.strerror})") from None
    try:
        yield tmp
        if os.path.exists(final_path):
            shutil.rmtree(final_path)
        os.replace(tmp, final_path)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _write_json(path: str, payload) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1))


def _run_config_payload(cfg: ExperimentConfig, fingerprint: str) -> dict:
    return {**config_to_dict(cfg), "resolved": {"benchmark_sha256": fingerprint}}


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


def _cache_key(config: BenchConfig, seed: int) -> str:
    doc = {"benchmark": asdict(config), "seed": seed, "stamp": _cache_stamp()}
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":"))
                          .encode()).hexdigest()


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):         # unset, empty or relative: the default
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "wtx", "benchmarks")


def _store_entry(path: str, bench: BenchmarkInstance) -> None:
    """Write the cache entry, then delete the least recently used files
    until the directory holds at most CACHE_BYTES. Every regular file
    counts, so the temp file of a writer killed before its rename goes too;
    a writer still at work holds the newest file. An OSError ends this
    quietly: the cache only saves time."""
    cache_dir = os.path.dirname(path)
    try:
        os.makedirs(cache_dir, mode=0o700, exist_ok=True)
        atomic_write_text(path, instance_entry(bench))
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
    except OSError:
        pass


def _benchmark(config: BenchConfig, seed: int, *, look_up: bool = True,
               splits=None) -> tuple[BenchmarkInstance, bool]:
    """The benchmark of (config, seed) and whether it came from the cache. A
    hit holds the splits named in ``splits`` (every split if None) and is used
    only if it passes the checks of ``load_instance_entry``; anything else
    builds the whole benchmark with ``generate_benchmark`` and writes its
    entry. ``look_up=False`` builds without reading the cache."""
    path = os.path.join(_cache_dir(), _cache_key(config, seed) + ".npz")
    if look_up:
        try:
            bench = load_instance_entry(path, config, seed, splits)
        except Exception:       # any read error or failed check is a miss
            pass
        else:
            try:
                os.utime(path)          # most recently used
            except OSError:
                pass
            return bench, True
    with blas_threads(1):
        bench = generate_benchmark(config, seed)
    _store_entry(path, bench)
    return bench, False


GRID_METHODS = ("wtn", "wtn_plus_in_only", "wtn_plus_gn_only", "wtn_plus")
# The splits that scoring reads.
EVAL_SPLITS = ("eval_seen", "eval_novel")


@blas_threads(1)
def run_training(cfg: ExperimentConfig, method: str, seed: int, outdir: str, *,
                 bench: BenchmarkInstance | None = None) -> dict:
    """Train one (method, seed) run, ``method`` a label of ``METHODS``, and
    write its run directory into outdir: six files for a transfer variant,
    three for a baseline. The result holds the run's tag, its config
    (``cfg`` with that method and seed), the benchmark, the head and
    ``w_d``: W_D, the matrix written to ``weights__TAG.json``; a transfer
    run's also holds its report and trained model.

    ``bench`` is the seed's benchmark if the caller has it already; if not,
    it comes from the benchmark cache or the generator. A model section
    that is invalid for the method raises ConfigError before either."""
    run_cfg = replace(cfg, model=cfg.model_config(method), seeds=(seed,))
    if bench is None:
        bench, _ = _benchmark(cfg.benchmark, seed)
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

    save_matrix_json(w_d, os.path.join(outdir, f"weights__{tag}.json"))
    save_matrix_json(head.other_weights.data, os.path.join(outdir, f"head__{tag}.json"))
    _write_json(os.path.join(outdir, "config.json"),
                _run_config_payload(run_cfg, bench.fingerprint))
    return {**res, "head": head, "w_d": w_d}


def _read_run_dir(run_dir: str):
    """Reload the config, exported weights and head of a finished run, as
    ``(cfg, resolved, tag, w_d, head)``. ``cfg`` is the config the run was
    trained with: its variant is the run's method and its one seed the
    run's seed. The resolved block must hold the benchmark fingerprint
    alone; the weights and head files are shape-checked against the sizes
    in the config, so a broken run dir fails before ``_run_benchmark``
    builds its benchmark."""
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
    w_d = load_matrix_json(os.path.join(run_dir, f"weights__{tag}.json"),
                           (bc.num_classes, bc.dim))
    head = DetectionProxyHead(bc.num_other, bc.dim)
    head.other_weights.data[...] = load_matrix_json(os.path.join(run_dir, f"head__{tag}.json"),
                                                    head.other_weights.data.shape)
    return cfg, resolved, tag, w_d, head


def _run_benchmark(run_dir: str, cfg: ExperimentConfig, resolved: dict,
                   benches: dict, splits) -> BenchmarkInstance:
    """The benchmark a run was trained on, from its config and seed, with
    at least the splits named in ``splits``; its fingerprint must be the
    one the run recorded. A cached benchmark that does not match is built
    again before the mismatch is reported. ``benches`` maps (BenchConfig,
    seed) to a (benchmark, cached) pair; a command that reloads several run
    dirs passes one dict so that each distinct benchmark is loaded once."""
    key = cfg.benchmark, cfg.seeds[0]
    if key not in benches:
        benches[key] = _benchmark(*key, splits=splits)
    stamped = resolved["benchmark_sha256"]
    bench, cached = benches[key]
    if bench.fingerprint != stamped and cached:
        benches[key] = _benchmark(*key, look_up=False)
        bench = benches[key][0]
    actual = bench.fingerprint
    if stamped != actual:
        raise ValidationError(f"{run_dir}: the regenerated benchmark has fingerprint "
                              f"{actual}; config.json records {stamped}")
    return bench


def cmd_generate(args) -> int:
    cfg = _load_config(args.config, args.seed)
    with staged_output(args.out, args.overwrite) as tmp:
        save_instance(_benchmark(cfg.benchmark, cfg.seeds[0])[0], tmp)
    print(f"benchmark written to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args.config, args.seed)
    variant = args.variant or cfg.model.variant
    with staged_output(args.out, args.overwrite) as tmp:
        res = run_training(cfg, variant, cfg.seeds[0], tmp)
    print(f"run {res['tag']} written to {args.out}")
    return 0


def _add_to_run_dir(path: str, text: str) -> None:
    """Write one file of ``eval`` or ``analyze`` into an existing run dir,
    which is not staged: an OSError (a directory in the way, say) raises
    ConfigError naming the path, and ``atomic_write_text`` leaves no temp
    file."""
    try:
        atomic_write_text(path, text)
    except OSError as e:
        raise ConfigError(f"{path} cannot be written ({e.strerror})") from None


def cmd_eval(args) -> int:
    run_dir = args.run_dir
    cfg, resolved, tag, w_d, head = _read_run_dir(run_dir)
    bench = _run_benchmark(run_dir, cfg, resolved, {}, EVAL_SPLITS)
    k = cfg.evaluation.recall_k
    for split in EVAL_SPLITS:
        rep = evaluate(head, w_d, bench, split, k=k)
        rep.config_echo = {"resolved": resolved}
        _add_to_run_dir(os.path.join(run_dir, f"metrics__{tag}__{split}.json"),
                        rep.to_json())
    print(f"metrics written to {run_dir}")
    return 0


def cmd_analyze(args) -> int:
    run_dir = args.run_dir
    cfg, resolved, tag, w_d, head = _read_run_dir(run_dir)
    bench = _run_benchmark(run_dir, cfg, resolved, {}, ())
    rng = np.random.default_rng(cfg.evaluation.analysis_seed)
    curve = nn_overlap(bench.source.weights, w_d, cfg.evaluation.overlap_ks,
                       cfg.evaluation.sample_classes, rng)
    _add_to_run_dir(os.path.join(run_dir, f"overlap__{tag}.json"), curve.to_json())
    print(f"analysis written to {run_dir}")
    return 0


def _row_from_run(cfg: ExperimentConfig, head, w_d, bench) -> dict:
    """The comparison row of the run that ``cfg``, a run's config, trained."""
    method, layers = cfg.model.variant, METHODS[cfg.model.variant]
    k = cfg.evaluation.recall_k
    seen, novel = (evaluate(head, w_d, bench, split, k=k) for split in EVAL_SPLITS)
    return {"method": method, "seed": cfg.seeds[0],
            "input_norm": layers.input_norm,
            "group_norm": layers.feature_norm,
            "seen_top1": seen.top1, "novel_top1": novel.top1,
            "novel_recall": novel.recall_k,
            "benchmark_echo": asdict(cfg.benchmark)}


@blas_threads(1)
def _sweep_seed(cfg: ExperimentConfig, methods, seed: int, runs_dir: str) -> list[dict]:
    """One seed of a compare sweep, run in a worker process: get the seed's
    benchmark once, then train and score every method on it. Returns one row
    per method, in ``methods`` order."""
    bench, _ = _benchmark(cfg.benchmark, seed)
    rows = []
    for method in methods:
        outdir = os.path.join(runs_dir, f"{method}__seed{seed}")
        os.makedirs(outdir)
        res = run_training(cfg, method, seed, outdir, bench=bench)
        rows.append(_row_from_run(res["config"], res["head"], res["w_d"], bench))
    return rows


def _write_comparison(outdir: str, rows: list[dict]) -> None:
    table = comparison_table(rows)
    _write_json(os.path.join(outdir, "comparison.json"), table)
    atomic_write_text(os.path.join(outdir, "comparison.csv"), comparison_csv(table))


def cmd_compare(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    if args.run_dirs:
        for flag, value in (("--config", args.config), ("--seed", args.seed),
                            ("--grid", args.grid or None)):
            if value is not None:
                raise ConfigError(f"{flag} configures a sweep; compare RUN_DIRS "
                                  f"scores the given runs as they were trained")
        with staged_output(args.out, args.overwrite) as tmp:
            runs = [(rd, *_read_run_dir(rd)) for rd in args.run_dirs]
            given, k0, bench0 = {}, runs[0][1].evaluation.recall_k, runs[0][1].benchmark
            for rd, cfg, resolved, tag, *_ in runs:
                if tag in given:
                    raise ConfigError(f"{given[tag]} and {rd} both hold run {tag}; its "
                                      f"scores would count twice")
                given[tag] = rd
                if cfg.benchmark != bench0:
                    raise ConfigError(f"{args.run_dirs[0]} and {rd} were trained on "
                                      f"different benchmark configs; one table needs one")
                if cfg.evaluation.recall_k != k0:
                    raise ConfigError(f"{args.run_dirs[0]} scores novel_recall at "
                                      f"recall_k={k0} and {rd} at recall_k="
                                      f"{cfg.evaluation.recall_k}; one table needs one recall_k")
            rows, benches = [], {}
            for rd, cfg, resolved, tag, w_d, head in runs:
                bench = _run_benchmark(rd, cfg, resolved, benches, EVAL_SPLITS)
                rows.append(_row_from_run(cfg, head, w_d, bench))
            _write_comparison(tmp, rows)
        print(f"comparison written to {args.out}")
        return 0

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    cfg = _load_config(args.config, args.seed)
    methods = GRID_METHODS if args.grid else VARIANTS
    for method in methods:      # a model section invalid for one fails here
        cfg.model_config(method)
    with staged_output(args.out, args.overwrite) as sweep_tmp:
        runs_dir = os.path.join(sweep_tmp, "runs")
        os.makedirs(runs_dir)
        pool = ProcessPoolExecutor(max_workers=min(args.jobs, len(cfg.seeds)),
                                   mp_context=multiprocessing.get_context("spawn"))
        try:
            # The pool starts its workers as jobs are submitted.
            futures = [pool.submit(_sweep_seed, cfg, methods, seed, runs_dir)
                       for seed in cfg.seeds]
            for future in as_completed(futures):
                future.result()     # the first failed seed raises here
        except BrokenProcessPool:
            # A worker was killed, or could not start; the pool has ended the
            # others and fails every job that was not done.
            raise WorkerDied("a sweep worker process died before it finished its "
                             "seed; no output was written") from None
        finally:
            # Drop the seeds not yet started; wait for the running ones so
            # that none writes into the staging directory after its removal.
            pool.shutdown(cancel_futures=True)
        _write_comparison(sweep_tmp, [row for future in futures for row in future.result()])
    print(f"comparison written to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    results = run_gradient_suite(seeds=range(args.seeds))
    by_name: dict[str, list] = {}
    for r in results:
        by_name.setdefault(r.name, []).append(r)
    ok = True
    for name, rs in by_name.items():
        worst = max(rs, key=lambda r: r.error)
        status = "PASS" if all(r.passed for r in rs) else "FAIL"
        ok &= status == "PASS"
        print(f"{status} {name:<17} max_rel_err={worst.error:.3e} tol={worst.tol:.0e} "
              f"(over {len(rs)} seeds)")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="wtx",
                                description="Weight transfer network training and analysis")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out=True):
        sp.add_argument("--config", help="experiment config JSON (defaults used if omitted)")
        sp.add_argument("--seed", type=int,
                        help="the one seed to use, in place of the config's seeds "
                             "(train and generate use the first of those)")
        if out:
            sp.add_argument("--out", required=True, help="output directory")
            sp.add_argument("--overwrite", action="store_true",
                            help="replace the output directory if it exists")

    sp = sub.add_parser("generate", help="generate a benchmark directory")
    common(sp)
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("train", help="train one (method, seed) run")
    common(sp)
    sp.add_argument("--variant", choices=list(METHODS))
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="compute metrics for a finished run")
    sp.add_argument("run_dir")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("analyze", help="neighbor overlap and activation-norm stats")
    sp.add_argument("run_dir")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("compare", help="aggregate runs (or run a full sweep) into a table")
    common(sp)
    sp.add_argument("run_dirs", nargs="*", help="evaluated run directories to aggregate")
    sp.add_argument("--grid", action="store_true",
                    help="sweep the input-norm x group-norm ablation grid")
    usable_cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    sp.add_argument("--jobs", type=int, default=usable_cpus,
                    help="worker processes for a sweep, one seed each "
                         "(default: the CPUs this process may use, %(default)s)")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    sp.add_argument("--seeds", type=int, default=10, help="number of seeds to check")
    sp.set_defaults(func=cmd_gradcheck)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValidationError, FileNotFoundError, StateError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TrainingDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except WorkerDied as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
