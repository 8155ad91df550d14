"""Command-line entry point.

Subcommands: generate, train, eval, analyze, compare, gradcheck. Exit
codes: 0 success, 1 a ``gradcheck`` check failed, 2 missing/invalid
configuration or an input file that cannot be read, 3 training aborted on a
non-finite loss, 4 a ``compare`` sweep worker process died (killed, say, or
unable to start). Outputs are staged in a temporary directory and renamed
into place, so a failed command leaves no partial output behind, not even
a parent directory of ``--out`` that it made. An existing ``--out`` is
replaced only with ``--overwrite`` and only if it is a directory; both are
checked before any work starts.

Every command but ``gradcheck`` is a short call into ``wtx.runs``, which
holds the run-directory format, the benchmark cache, the BLAS-thread rule
and the sweep, and documents them.

The config is the one source of a run's settings. ``--seed`` replaces the
config's seeds; ``train`` and ``generate`` use the first of the seeds, and
a ``compare`` sweep runs every one. ``train --variant`` picks the method,
any label of ``wtx.models.METHODS``, so one config and ``--seed`` name any
run of a sweep. The default sweep trains the paper's networks,
``wtx.models.VARIANTS``, and ``--grid`` the labels of ``GRID_METHODS`` (the
input-norm x group-norm ablation). ``--jobs`` is the sweep's worker count
(default: the CPUs this process may use).

``eval`` adds ``metrics__TAG__eval_seen.json`` and
``metrics__TAG__eval_novel.json`` to a run directory; ``analyze`` adds only
``overlap__TAG.json`` (neighbor overlap of W_D with W_C), from W_C and W_D.
A run dir trained before ``train`` wrote the norm stats has none; retrain
it to get them. A metrics file's ``config_echo`` restates the resolved
block; it stays until the benchmark harness stops reading it (ROADMAP item
4). ``compare`` writes ``comparison.json`` and ``comparison.csv`` into its
output directory; their rows are sorted by method, in the order of
``wtx.models.METHODS`` (the transfer variants, then the baselines), then by
seed. A baseline's row has ``input_norm`` and ``group_norm`` both false: it
has neither layer. ``compare RUN_DIRS`` scores the runs as they were
trained, so the sweep flags ``--config``, ``--seed`` and ``--grid`` exit 2
with RUN_DIRS, before any run directory is read; ``--jobs`` has a default
and is ignored.

``generate`` writes three files: ``benchmark.npy``, the benchmark in the
format of ``wtx.bench.instance_entry`` (``.npy`` records back to back, so
``np.load`` of it returns the meta document and ``np.load`` on the open
file returns each record in turn), which ``wtx.bench.load_instance_entry``
reads back; ``manifest.json``, the entry's ``meta`` document (the config,
seed and fingerprint among others); and ``source_weights.json``, W_C as a
JSON matrix. ``benchmark.npy`` is byte for byte the cache entry of its
config and seed (``wtx.runs.write_benchmark``): on a hit, a copy of the
entry file that is then loaded whole, so every byte of it is checked; on a
miss, the entry just built and written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from contextlib import contextmanager, suppress
from dataclasses import replace
from pathlib import PurePath

import numpy as np

from .bench import generate_benchmark, save_instance  # noqa: F401 (an alias, below)
from .config import ExperimentConfig, config_from_dict, default_config
from .errors import ConfigError, StateError, TrainingDiverged, ValidationError, WorkerDied
from .evaluation import comparison_csv, comparison_table, evaluate, nn_overlap
from .gradcheck import run_gradient_suite
from .matrix import atomic_write_text, read_json
from .models import METHODS, VARIANTS
from .runs import EVAL_SPLITS, load_runs, sweep, table_row, train_run, write_benchmark

# Aliases that the benchmark harness reads from this module until ROADMAP
# item 4 moves it to wtx.runs: generate_benchmark, imported above, and this.
run_training = train_run

GRID_METHODS = ("wtn", "wtn_plus_in_only", "wtn_plus_gn_only", "wtn_plus")


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
    cannot be made raises ConfigError. If the body or the final swap fails,
    the temp dir is removed, and so are the missing parents of the output
    that this made, deepest first."""
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
    # A missing directory has only missing children, so these are the
    # missing parents, deepest first.
    made = [path for path in PurePath(tmp).parents if not os.path.lexists(path)]
    try:
        try:
            os.makedirs(tmp)
        except OSError as e:        # say, a parent that is a file
            raise ConfigError(f"output {final_path} cannot be created ({e.strerror})") from None
        yield tmp
        if os.path.exists(final_path):
            shutil.rmtree(final_path)
        os.replace(tmp, final_path)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        with suppress(OSError):     # one no longer empty stops the removal
            for path in made:
                os.rmdir(path)
        raise


def _add_to_run_dir(path: str, text: str) -> None:
    """Write one file of ``eval`` or ``analyze`` into an existing run dir,
    which is not staged: an OSError (a directory in the way, say) raises
    ConfigError naming the path, and ``atomic_write_text`` leaves no temp
    file."""
    try:
        atomic_write_text(path, text)
    except OSError as e:
        raise ConfigError(f"{path} cannot be written ({e.strerror})") from None


def cmd_generate(args) -> int:
    cfg = _load_config(args.config, args.seed)
    with staged_output(args.out, args.overwrite) as tmp:
        bench = write_benchmark(cfg.benchmark, cfg.seeds[0], os.path.join(tmp, "benchmark.npy"))
        save_instance(bench, tmp)
    print(f"benchmark written to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args.config, args.seed)
    variant = args.variant or cfg.model.variant
    with staged_output(args.out, args.overwrite) as tmp:
        run = train_run(cfg, variant, cfg.seeds[0], tmp)
    print(f"run {run['tag']} written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    [run] = load_runs([args.run_dir], EVAL_SPLITS)
    for split in EVAL_SPLITS:
        rep = evaluate(run["head"], run["w_d"], run["bench"], split,
                       k=run["config"].evaluation.recall_k)
        rep.config_echo = {"resolved": {"benchmark_sha256": run["bench"].fingerprint}}
        _add_to_run_dir(os.path.join(args.run_dir, f"metrics__{run['tag']}__{split}.json"),
                        rep.to_json())
    print(f"metrics written to {args.run_dir}")
    return 0


def cmd_analyze(args) -> int:
    [run] = load_runs([args.run_dir], ())
    ev = run["config"].evaluation
    curve = nn_overlap(run["bench"].source.weights, run["w_d"], ev.overlap_ks,
                       ev.sample_classes, np.random.default_rng(ev.analysis_seed))
    _add_to_run_dir(os.path.join(args.run_dir, f"overlap__{run['tag']}.json"), curve.to_json())
    print(f"analysis written to {args.run_dir}")
    return 0


def cmd_compare(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    if args.run_dirs:
        for flag, value in (("--config", args.config), ("--seed", args.seed),
                            ("--grid", args.grid or None)):
            if value is not None:
                raise ConfigError(f"{flag} configures a sweep; compare RUN_DIRS "
                                  f"scores the given runs as they were trained")
    else:
        cfg = _load_config(args.config, args.seed)
    with staged_output(args.out, args.overwrite) as tmp:
        if args.run_dirs:
            rows = [table_row(run) for run in load_runs(args.run_dirs, EVAL_SPLITS)]
        else:
            rows = sweep(cfg, GRID_METHODS if args.grid else VARIANTS, args.jobs,
                         os.path.join(tmp, "runs"))
        table = comparison_table(rows)
        atomic_write_text(os.path.join(tmp, "comparison.json"),
                          json.dumps(table, sort_keys=True, indent=1))
        atomic_write_text(os.path.join(tmp, "comparison.csv"), comparison_csv(table))
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

    sp = sub.add_parser("analyze", help="neighbor overlap of a finished run's W_D with W_C")
    sp.add_argument("run_dir")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("compare", help="aggregate runs (or run a full sweep) into a table")
    common(sp)
    sp.add_argument("run_dirs", nargs="*",
                    help="trained run directories to score into one table")
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
