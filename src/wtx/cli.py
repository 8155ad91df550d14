"""Command-line entry point.

Subcommands: generate, train, eval, analyze, compare, gradcheck. Exit
codes: 0 success, 1 a ``gradcheck`` check failed, 2 missing/invalid
configuration or an input file that cannot be read, 3 training aborted on a
non-finite loss, 4 a ``compare`` sweep worker process died (killed, say, or
unable to start). Outputs are staged in a temporary directory and renamed
into place, so a failed command leaves no partial output behind. An
existing ``--out`` is replaced only with ``--overwrite`` and only if it is a
directory; both are checked before any work starts. The WTX_SEED
environment variable overrides the configured seed(s).

A run directory holds one (method, seed) run, named by the tag
``METHOD__seedSEED``, and states each fact in one file. Only this module
writes them. ``train`` writes six (a ``compare`` sweep writes the same six
under ``runs/TAG/``):

    config.json              the experiment config and the resolved run block
    report.json              final losses; W_C, decoder and model hashes
    losses__TAG.csv          the losses of every training iteration
    weights__TAG.json        W_D, the transferred weights of every source class
    model_params__TAG.json   the transfer model's parameter store
    head__TAG.json           the head's "other"-class weights

``eval`` adds ``metrics__TAG__eval_seen.json`` and
``metrics__TAG__eval_novel.json``; ``analyze`` adds ``overlap__TAG.json``
(neighbor overlap of W_D with W_C) and ``norm_stats__TAG.json``
(post-ReLU activation-norm statistics). ``compare`` writes
``comparison.json`` and ``comparison.csv`` into its output directory.
``generate`` writes ``config.json`` (with method ``benchmark``) and the
benchmark export listed in the ``wtx.bench`` docstring.

``eval``, ``analyze`` and ``compare RUN_DIRS`` reload a run directory. A
reload reads and shape-checks the run's matrix files first, then
regenerates the benchmark from the config and seed and checks it against
the recorded ``benchmark_sha256``. ``compare RUN_DIRS`` builds each
distinct (benchmark config, seed) once and checks every run directory's
fingerprint against it. It takes each run directory once, and only runs
scored with one ``evaluation.recall_k``.

A ``compare`` sweep runs one job per seed in a pool of ``--jobs`` worker
processes (default: the CPUs this process may use, never more than there
are seeds). A job generates its seed's benchmark once and trains and scores
every method of the sweep on it. The rows are put back in method-major
order, so the output does not depend on the worker count. Workers are
spawned, not forked, with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS set to 1: the matrices here are small, so a second BLAS
thread per process only competes with the other workers for the cores.
The variables are set around pool start-up in this process because a
spawned worker imports numpy, which reads them once, before any pool
initializer could run; this process's own values are restored afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields

import numpy as np

from .bench import BenchmarkInstance, generate_benchmark, save_instance
from .config import (ExperimentConfig, check_alpha, check_section, config_from_dict,
                     config_to_dict, default_config, is_seed)
from .errors import ConfigError, StateError, TrainingDiverged, ValidationError, WorkerDied
from .evaluation import (comparison_csv, comparison_table, evaluate, nn_overlap,
                         norm_stats)
from .gradcheck import run_gradient_suite
from .matrix import atomic_write_text, load_matrix_json, read_json, save_matrix_json
from .models import (VARIANTS, DetectionProxyHead, ModelConfig, TransferModel,
                     load_model_params, save_model_params, train_joint)


def _load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return default_config()
    return config_from_dict(read_json(path))


def _env_seed() -> int | None:
    raw = os.environ.get("WTX_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"WTX_SEED must be an integer, got {raw!r}")


def _resolve_seeds(cfg: ExperimentConfig, cli_seed: int | None) -> list[int]:
    seed = cli_seed if cli_seed is not None else _env_seed()
    if seed is None:
        return list(cfg.seeds)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return [seed]


def _check_alpha(alpha: float | None) -> None:
    """An ``--alpha`` must be a finite weight >= 0; checked before any work."""
    if alpha is not None:
        check_alpha(alpha, "--alpha")


@contextmanager
def staged_output(final_path: str, overwrite: bool):
    """Create the output directory atomically: build in a temp dir, rename.
    The output is checked before the body runs: an existing one must be a
    directory, and is replaced only with ``overwrite``. The temp dir is
    removed if the body or the final swap fails."""
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
    os.makedirs(tmp)
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


def _run_config_payload(cfg: ExperimentConfig, variant: str, seed: int,
                        alpha: float | None, method: str, fingerprint: str) -> dict:
    doc = config_to_dict(cfg)
    doc["resolved"] = {"variant": variant, "seed": seed,
                       "alpha": cfg.train.alpha if alpha is None else alpha,
                       "method": method, "benchmark_sha256": fingerprint}
    return doc


def run_training(cfg: ExperimentConfig, variant: str, seed: int, outdir: str,
                 alpha: float | None = None, model_overrides: dict | None = None,
                 method: str | None = None, *, bench: BenchmarkInstance | None = None,
                 fingerprint: str | None = None) -> dict:
    """Train one (variant, seed) run and write the six files of a trained run
    directory into outdir. The result holds the run's tag, its report, the
    benchmark, the trained model and head, and ``w_d``: W_D, the matrix
    written to ``weights__TAG.json``.

    ``bench`` is the seed's benchmark if the caller has generated it already,
    and ``fingerprint`` its ``fingerprint()`` if the caller has computed it;
    what is not given is computed here."""
    method = method or variant
    if bench is None:
        bench = generate_benchmark(cfg.benchmark, seed)
    if fingerprint is None:
        fingerprint = bench.fingerprint()
    mc = cfg.model_config(variant, **(model_overrides or {}))
    model = TransferModel(mc, bench.source, seed)
    head = DetectionProxyHead(bench.num_other, bench.d_feat)
    tc = cfg.train_config(seed, alpha)

    tag = f"{method}__seed{seed}"
    report = train_joint(model, head, bench.source, bench, tc)
    w_d = model.encode(bench.source.weights)
    config = _run_config_payload(cfg, variant, seed, alpha, method, fingerprint)
    if model_overrides:
        config["resolved"]["model_overrides"] = dict(model_overrides)

    columns = ("iteration", "l_cls", "l_rec", "total")
    losses = [",".join(columns)] + [",".join(map(repr, row))
                                    for row in zip(*(report.curve[c] for c in columns))]
    atomic_write_text(os.path.join(outdir, f"losses__{tag}.csv"), "\n".join(losses) + "\n")
    save_matrix_json(w_d, os.path.join(outdir, f"weights__{tag}.json"))
    save_model_params(model, os.path.join(outdir, f"model_params__{tag}.json"))
    save_matrix_json(head.other_weights.data, os.path.join(outdir, f"head__{tag}.json"))
    atomic_write_text(os.path.join(outdir, "report.json"), report.to_json())
    _write_json(os.path.join(outdir, "config.json"), config)
    return {"tag": tag, "report": report, "bench": bench, "model": model, "head": head,
            "w_d": w_d}


_OVERRIDE_KEYS = tuple(f.name for f in fields(ModelConfig) if f.name != "variant")


def _run_dir_context(run_dir: str, benches: dict | None = None):
    """Reload config, benchmark, exported weights and head of a finished run.
    The weights and head files are read and shape-checked first, against
    the sizes in the config, so a broken run dir fails before any benchmark
    is built. The regenerated benchmark must have the fingerprint the run
    recorded. ``benches`` maps (BenchConfig, seed) to a benchmark and its
    fingerprint; a command that reloads several run dirs passes one dict so
    that each distinct benchmark is built once."""
    cfg_path = os.path.join(run_dir, "config.json")
    if not os.path.exists(cfg_path):
        raise ConfigError(f"{run_dir} has no config.json (not a run directory?)")
    doc = read_json(cfg_path)
    resolved = doc.pop("resolved", None)
    if not isinstance(resolved, dict):
        raise ConfigError(f"{run_dir}/config.json lacks the 'resolved' block")
    missing = [key for key in ("seed", "variant", "method") if key not in resolved]
    if missing:
        raise ConfigError(f"{run_dir}/config.json: the 'resolved' block lacks "
                          f"{', '.join(missing)}")
    seed = resolved["seed"]
    if not is_seed(seed):
        raise ConfigError(f"{run_dir}/config.json: resolved seed {seed!r} is not a "
                          f"non-negative integer")
    if not isinstance(resolved["method"], str):
        raise ConfigError(f"{run_dir}/config.json: resolved method {resolved['method']!r} "
                          f"is not a string")
    if resolved["variant"] not in VARIANTS:
        raise ConfigError(f"{run_dir}/config.json: resolved variant {resolved['variant']!r} "
                          f"is not one of {VARIANTS}")
    # The variant is resolved on its own; an override may not replace it.
    overrides = check_section(ModelConfig, resolved.get("model_overrides", {}),
                              "resolved.model_overrides", _OVERRIDE_KEYS)
    cfg = config_from_dict(doc)
    tag = f"{resolved['method']}__seed{seed}"
    bc = cfg.benchmark
    w_d = load_matrix_json(os.path.join(run_dir, f"weights__{tag}.json"),
                           (bc.num_classes, bc.dim))
    head = DetectionProxyHead(bc.num_other, bc.dim)
    head.other_weights.data[...] = load_matrix_json(os.path.join(run_dir, f"head__{tag}.json"),
                                                    head.other_weights.data.shape)
    if benches is None:
        benches = {}
    if (bc, seed) not in benches:
        bench = generate_benchmark(bc, seed)
        benches[bc, seed] = bench, bench.fingerprint()
    bench, actual = benches[bc, seed]
    stamped = resolved.get("benchmark_sha256")
    if stamped != actual:
        raise ValidationError(f"{run_dir}: the regenerated benchmark has fingerprint "
                              f"{actual}; config.json records "
                              f"{stamped or 'none (retrain the run)'}")
    return cfg, resolved, tag, bench, w_d, head, overrides


def cmd_generate(args) -> int:
    cfg = _load_config(args.config)
    seed = _resolve_seeds(cfg, args.seed)[0]
    with staged_output(args.out, args.overwrite) as tmp:
        bench = generate_benchmark(cfg.benchmark, seed)
        save_instance(bench, tmp)
        _write_json(os.path.join(tmp, "config.json"),
                    _run_config_payload(cfg, cfg.model.variant, seed, None, "benchmark",
                                        bench.fingerprint()))
    print(f"benchmark written to {args.out}")
    return 0


def cmd_train(args) -> int:
    _check_alpha(args.alpha)
    cfg = _load_config(args.config)
    variant = args.variant or cfg.model.variant
    seed = _resolve_seeds(cfg, args.seed)[0]
    with staged_output(args.out, args.overwrite) as tmp:
        res = run_training(cfg, variant, seed, tmp, alpha=args.alpha)
    print(f"run {res['tag']} written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    run_dir = args.run_dir
    cfg, resolved, tag, bench, w_d, head, _ = _run_dir_context(run_dir)
    k = cfg.evaluation.recall_k
    for split in ("eval_seen", "eval_novel"):
        rep = evaluate(head, w_d, bench, split, k=k)
        rep.config_echo = {"resolved": resolved}
        atomic_write_text(os.path.join(run_dir, f"metrics__{tag}__{split}.json"),
                          rep.to_json())
    print(f"metrics written to {run_dir}")
    return 0


def cmd_analyze(args) -> int:
    run_dir = args.run_dir
    cfg, resolved, tag, bench, w_d, head, overrides = _run_dir_context(run_dir)
    rng = np.random.default_rng(cfg.evaluation.analysis_seed)
    curve = nn_overlap(bench.source.weights, w_d, cfg.evaluation.overlap_ks,
                       cfg.evaluation.sample_classes, rng)
    atomic_write_text(os.path.join(run_dir, f"overlap__{tag}.json"), curve.to_json())

    mc = cfg.model_config(resolved["variant"], **overrides)
    model = TransferModel(mc, bench.source, resolved["seed"])
    load_model_params(model, os.path.join(run_dir, f"model_params__{tag}.json"))
    stats = norm_stats(model, bench.source)
    atomic_write_text(os.path.join(run_dir, f"norm_stats__{tag}.json"), stats.to_json())
    print(f"analysis written to {run_dir}")
    return 0


GRID_METHODS = (
    # method label, variant, model overrides
    ("wtn", "wtn", {}),
    ("wtn_plus_in_only", "wtn_plus", {"feature_norm": False}),
    ("wtn_plus_gn_only", "wtn_plus", {"input_norm": False}),
    ("wtn_plus", "wtn_plus", {}),
)


def _sweep_methods(grid: bool):
    if grid:
        return GRID_METHODS
    return (("wtn", "wtn", {}), ("wtn_plus", "wtn_plus", {}), ("ae_wtn", "ae_wtn", {}))


def _row_from_run(cfg: ExperimentConfig, method: str, variant: str, overrides: dict,
                  seed: int, head, w_d, bench) -> dict:
    mc = cfg.model_config(variant, **overrides)
    k = cfg.evaluation.recall_k
    seen = evaluate(head, w_d, bench, "eval_seen", k=k)
    novel = evaluate(head, w_d, bench, "eval_novel", k=k)
    return {"method": method, "seed": seed,
            "input_norm": mc.resolved_input_norm(),
            "group_norm": mc.resolved_feature_norm(),
            "seen_top1": seen.top1, "novel_top1": novel.top1,
            "novel_recall": novel.recall_k,
            "benchmark_echo": asdict(cfg.benchmark)}


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _one_blas_thread_env():
    """Set the BLAS thread variables to 1 in os.environ, then restore them."""
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _sweep_seed(cfg: ExperimentConfig, methods, seed: int, alpha: float | None,
                runs_dir: str) -> list[dict]:
    """One seed of a compare sweep, run in a worker process: generate the
    seed's benchmark and its fingerprint once, then train and score every
    method on it. Returns one row per method, in ``methods`` order."""
    bench = generate_benchmark(cfg.benchmark, seed)
    fingerprint = bench.fingerprint()
    rows = []
    for method, variant, overrides in methods:
        outdir = os.path.join(runs_dir, f"{method}__seed{seed}")
        os.makedirs(outdir)
        res = run_training(cfg, variant, seed, outdir, alpha=alpha,
                           model_overrides=overrides, method=method, bench=bench,
                           fingerprint=fingerprint)
        rows.append(_row_from_run(cfg, method, variant, overrides, seed, res["head"],
                                  res["w_d"], bench))
    return rows


def cmd_compare(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    _check_alpha(args.alpha)
    if args.run_dirs:
        given = {}
        for rd in args.run_dirs:
            real = os.path.realpath(rd)
            if real in given:
                raise ConfigError(f"run directory {rd} is given twice (also as "
                                  f"{given[real]}); its scores would count twice")
            given[real] = rd
        with staged_output(args.out, args.overwrite) as tmp:
            rows, benches, first = [], {}, None
            for rd in args.run_dirs:
                cfg, resolved, tag, bench, w_d, head, overrides = _run_dir_context(rd, benches)
                k = cfg.evaluation.recall_k
                first = first or (rd, k)
                if k != first[1]:
                    raise ConfigError(f"{first[0]} scores novel_recall at recall_k={first[1]} "
                                      f"and {rd} at recall_k={k}; one table needs one recall_k")
                rows.append(_row_from_run(cfg, resolved["method"], resolved["variant"],
                                          overrides, resolved["seed"], head, w_d, bench))
            table = comparison_table(rows)
            _write_json(os.path.join(tmp, "comparison.json"), table)
            atomic_write_text(os.path.join(tmp, "comparison.csv"), comparison_csv(table))
        print(f"comparison written to {args.out}")
        return 0

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    cfg = _load_config(args.config)
    seeds = _resolve_seeds(cfg, args.seed)
    methods = _sweep_methods(args.grid)
    with staged_output(args.out, args.overwrite) as sweep_tmp:
        runs_dir = os.path.join(sweep_tmp, "runs")
        os.makedirs(runs_dir)
        pool = ProcessPoolExecutor(max_workers=min(args.jobs, len(seeds)),
                                   mp_context=multiprocessing.get_context("spawn"))
        try:
            # The pool starts its workers as jobs are submitted.
            with _one_blas_thread_env():
                futures = [pool.submit(_sweep_seed, cfg, methods, seed, args.alpha, runs_dir)
                           for seed in seeds]
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
        per_seed = [future.result() for future in futures]
        rows = [seed_rows[m] for m in range(len(methods)) for seed_rows in per_seed]
        table = comparison_table(rows)
        _write_json(os.path.join(sweep_tmp, "comparison.json"), table)
        atomic_write_text(os.path.join(sweep_tmp, "comparison.csv"), comparison_csv(table))
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
        print(f"{status} {name:<16} max_rel_err={worst.error:.3e} tol={worst.tol:.0e} "
              f"(over {len(rs)} seeds)")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="wtx",
                                description="Weight transfer network training and analysis")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out=True):
        sp.add_argument("--config", help="experiment config JSON (defaults used if omitted)")
        sp.add_argument("--seed", type=int, help="override the config seed")
        if out:
            sp.add_argument("--out", required=True, help="output directory")
            sp.add_argument("--overwrite", action="store_true",
                            help="replace the output directory if it exists")

    sp = sub.add_parser("generate", help="generate a benchmark directory")
    common(sp)
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("train", help="train one (variant, seed) run")
    common(sp)
    sp.add_argument("--variant", choices=VARIANTS)
    sp.add_argument("--alpha", type=float, help="reconstruction loss weight override")
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
    sp.add_argument("--alpha", type=float)
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
