"""One workload run in a fresh process: set up, measure, check.

Started by run.py, once per set-up sample and once for the measured run:

    python3 perfbench/child.py --workload W --seed N --seconds S --trace T
                               --phase setup|run --work DIR --out FILE [--tiny]

The set-up phase imports wtx from the checkout's ``src`` and builds the
workload's inputs, then (``--phase setup``) stops. The run phase then repeats
the workload's unit of work while another unit fits in ``--seconds`` (at
least twice, so repeated outputs can be compared byte for byte). With ``--trace 1`` every
second unit runs traced. Outputs are checked after each unit, outside its
timing, and a failed check counts against the unit's operations without
stopping the run. The speed probe is timed right after set-up and after
every step of a unit, outside any timing. Everything, timings, probe samples
and checks, goes to ``--out`` as JSON.

Each workload passes wtx a config that names only what it pins: the whole
``benchmark`` section, the seeds and the iteration count. BLAS thread
variables are left as the environment has them and recorded in the stamp.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
VARIANTS = ("wtn", "wtn_plus", "ae_wtn")
SPLITS = ("eval_seen", "eval_novel")
SWEEP_SEEDS = 5

# The default benchmark, written out in full so that a change to the
# package defaults cannot change a workload.
BENCHMARK = dict(num_classes=200, num_shared=50, num_other=5, dim=64, clusters=20,
                 norm_imbalance=28.0, source_samples_per_class=100,
                 train_samples_per_class=50, eval_samples_per_class=50, noise_std=0.3,
                 multilabel_fraction=0.10, feature_scale=8.0, prototype_spread=0.5,
                 manifold_dim=40, domain_rotation=0.5, domain_warp=0.5,
                 channel_anisotropy=1.0, source_epochs=6, source_lr=20.0,
                 source_batch=256, count_skew=1.35, min_eval_examples=10)
# The test suite's tiny benchmark (tests/conftest.py::tiny_config), for the
# harness self-test.
TINY = dict(BENCHMARK, num_classes=24, num_shared=10, num_other=3, dim=16, clusters=6,
            manifold_dim=12, source_samples_per_class=40, train_samples_per_class=12,
            eval_samples_per_class=12, min_eval_examples=5)
# Training iterations per run. The sweep trains 200 of the default 600 so
# that two sweeps fit in one benchmark run; reload only needs trained run
# directories to reload.
ITERATIONS = {"sweep": 200, "train_long": 300, "reload": 50}

# The speed probe: fixed work in the workloads' own mix, timed after set-up
# and after every step of a unit (see Steps). One sample runs an interpreted
# Python loop, small matrix products and a few steps of a small numpy MLP
# with an Adam update. The shared host's speed drifts by 30-50% over minutes
# and the probe slows with it, so a step's time over the time of the probe
# samples just before and after it holds steady where the raw time does not.
# PROBE_REF_S is one probe sample on a quiet 2-core host (the one in the
# stamp at the time of writing); times scaled by PROBE_REF_S / probe are
# seconds at that speed.
PROBE_SAMPLES = 3
PROBE_REF_S = 0.06


def _probe_arrays():
    import numpy as np
    rng = np.random.default_rng(0)
    return {"a": rng.standard_normal((256, 64)), "b": rng.standard_normal((64, 128)),
            "c": rng.standard_normal((128, 200)), "x": rng.standard_normal((128, 64)),
            "y": (rng.random((128, 40)) < 0.1).astype(float),
            "w": [0.1 * rng.standard_normal((64, 128)), 0.1 * rng.standard_normal((128, 40))]}


def _probe_mlp(p):
    """A few steps of a 2-layer MLP: group-normalised hidden layer, ReLU,
    sigmoid cross-entropy, Adam-style update."""
    import numpy as np
    x, y, (w1, w2) = p["x"], p["y"], p["w"]
    m = [np.zeros_like(w1), np.zeros_like(w2)]
    v = [np.zeros_like(w1), np.zeros_like(w2)]
    for _ in range(20):
        g = (x @ w1).reshape(128, 8, 16)
        hn = ((g - g.mean(axis=2, keepdims=True))
              / np.sqrt(g.var(axis=2, keepdims=True) + 1e-5)).reshape(128, 128)
        a = np.maximum(hn, 0.0)
        prob = 1.0 / (1.0 + np.exp(-(a @ w2)))
        dz = (prob - y) / y.size
        grads = (x.T @ ((dz @ w2.T) * (hn > 0)), a.T @ dz)
        for w, gr, mw, vw in zip((w1, w2), grads, m, v):
            mw *= 0.9
            mw += 0.1 * gr
            vw *= 0.999
            vw += 0.001 * gr * gr
            w -= 1e-4 * mw / (np.sqrt(vw) + 1e-8)


def probe(arrays) -> list[float]:
    """PROBE_SAMPLES timings of the probe, in seconds."""
    import numpy as np
    a, b, c = arrays["a"], arrays["b"], arrays["c"]
    samples = []
    for _ in range(PROBE_SAMPLES):
        start, acc = time.perf_counter(), 0
        for i in range(150_000):
            acc += i * i % 7
        for _ in range(40):
            h = np.maximum(a @ b, 0.0)
            o = h @ c
            o.T @ h
            o.sum(axis=0)
        _probe_mlp(arrays)
        samples.append(time.perf_counter() - start)
    return samples


def workload_config(workload: str, seed: int, tiny: bool) -> dict:
    seeds = ([SWEEP_SEEDS * seed + i for i in range(SWEEP_SEEDS)]
             if workload == "sweep" else [seed])
    if not tiny:
        return {"benchmark": BENCHMARK, "seeds": seeds,
                "train": {"iterations": ITERATIONS[workload]}}
    # The default overlap k values reach past the tiny benchmark's classes.
    return {"benchmark": TINY, "seeds": seeds, "train": {"iterations": 20},
            "evaluation": {"overlap_ks": [1, 2, 5], "sample_classes": 8}}


def import_wtx():
    """Import wtx from this checkout's src, never from an installed copy."""
    if not (SRC / "wtx" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no wtx sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wtx
    import wtx.cli
    if not Path(wtx.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: wtx imported from {wtx.__file__}, not {SRC}")
    return wtx


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_cli(wtx, argv: list[str]) -> int:
    """wtx.cli.main(argv) as an exit code; an escaped exception counts as 1."""
    try:
        return wtx.cli.main(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def table_ok(path, methods, seeds) -> bool:
    """comparison.json has one row per (method, seed) plus one median row
    per method, and every score is finite and in [0, 1]."""
    try:
        table = json.loads(Path(path).read_text())
        rows = table["rows"]
        keys = sorted((r["method"], str(r["seed"])) for r in rows)
        want = sorted([(m, str(s)) for m in methods for s in seeds]
                      + [(m, "median") for m in methods])
        scores = [r[c] for r in rows for c in ("seen_top1", "novel_top1", "novel_recall")]
    except (OSError, ValueError, KeyError, TypeError):
        return False
    return keys == want and all(isinstance(v, float) and math.isfinite(v) and 0.0 <= v <= 1.0
                                for v in scores)


def report_ok(path) -> bool:
    """report.json: W_C unchanged by training and a finite final loss."""
    try:
        rep = json.loads(Path(path).read_text())
        return rep["w_c_hash_before"] == rep["w_c_hash_after"] and math.isfinite(rep["final_total"])
    except (OSError, ValueError, KeyError, TypeError):
        return False


def quality(path) -> dict:
    rows = json.loads(Path(path).read_text())["rows"]
    return {f"{col}.{r['method']}": r[col] for r in rows if r["seed"] == "median"
            for col in ("novel_top1", "seen_top1")}


class Sweep:
    """The default `wtx compare`: 3 variants x 5 seeds through wtx.cli.main,
    no --jobs flag. Its operations are the (variant, seed) runs."""

    def __init__(self, wtx, cfg_path: Path, cfg: dict, work: Path):
        self.wtx, self.cfg_path, self.work = wtx, cfg_path, work
        self.seeds = cfg["seeds"]
        self.first_sha = None
        self.details = {}

    def unit(self, k: int, steps: "Steps") -> dict:
        out = self.work / f"sweep{k}"
        rc = steps.run(run_cli, self.wtx,
                       ["compare", "--config", str(self.cfg_path), "--out", str(out)])
        return {"rc": rc, "out": out}

    def check(self, k: int, res: dict) -> tuple[int, int]:
        out, attempted = res["out"], len(VARIANTS) * len(self.seeds)
        try:
            return attempted, self._failed_runs(res["rc"], out, attempted)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _failed_runs(self, rc: int, out: Path, attempted: int) -> int:
        table = out / "comparison.json"
        if rc != 0 or not table_ok(table, VARIANTS, self.seeds):
            return attempted
        sha = sha256_file(table)
        if self.first_sha is None:
            self.first_sha = sha
            self.details = {"comparison_sha256": sha, "quality": quality(table)}
        if sha != self.first_sha:
            return attempted
        return sum(not report_ok(out / "runs" / f"{m}__seed{s}" / "report.json")
                   for m in VARIANTS for s in self.seeds)

    def finish(self):
        pass


class TimedData:
    """Passes sample() through to the benchmark and timestamps each call;
    the gap between two calls is one training iteration."""

    def __init__(self, bench):
        self.bench = bench
        self.stamps: list[float] = []

    def sample(self, split, batch_size, rng):
        self.stamps.append(time.perf_counter())
        return self.bench.sample(split, batch_size, rng)


class TrainLong:
    """wtx.train_joint for each variant on one benchmark generated in set-up:
    no generation and no artifact I/O in the timed part. Its operations are
    the train_joint calls."""

    def __init__(self, wtx, cfg_path: Path, cfg: dict, work: Path):
        self.wtx = wtx
        self.cfg = wtx.config_from_dict(cfg)
        self.seed = cfg["seeds"][0]
        self.bench = wtx.generate_benchmark(self.cfg.benchmark, self.seed)
        self.first_hash: dict[str, str] = {}
        self.iter_ms = {v: [] for v in VARIANTS}
        self.details = {}

    def unit(self, k: int, steps: "Steps") -> dict:
        calls = []
        for v in VARIANTS:
            data = TimedData(self.bench)
            calls.append((v, steps.run(self._train, v, data), data.stamps))
        return {"calls": calls}

    def _train(self, variant: str, data: TimedData):
        wtx, bench = self.wtx, self.bench
        try:
            model = wtx.TransferModel(self.cfg.model_config(variant), bench.source, self.seed)
            head = wtx.DetectionProxyHead(bench.num_other, bench.d_feat)
            return wtx.train_joint(model, head, bench.source, data,
                                   self.cfg.train_config(self.seed))
        except Exception:
            traceback.print_exc()
            return None

    def check(self, k: int, res: dict) -> tuple[int, int]:
        failed = 0
        for v, rep, stamps in res["calls"]:
            if not res["traced"]:
                self.iter_ms[v] += [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])]
            ok = (rep is not None and rep.w_c_hash_before == rep.w_c_hash_after
                  and math.isfinite(rep.final_total)
                  and self.first_hash.setdefault(v, rep.model_hash_final) == rep.model_hash_final)
            failed += not ok
        return len(res["calls"]), failed

    def finish(self):
        ae = self.iter_ms["ae_wtn"]
        self.details = {"iter_ms_p50": {v: statistics.median(x) for v, x in self.iter_ms.items()},
                        "iter_ms_p99_ae_wtn": statistics.quantiles(ae, n=100)[98],
                        "iterations_timed": {v: len(x) for v, x in self.iter_ms.items()}}


class Reload:
    """Runs trained in set-up, reloaded by the CLI: `wtx generate`, then
    `wtx eval` and `wtx analyze` on each run directory, then `wtx compare`
    over them. Its operations are the commands."""

    def __init__(self, wtx, cfg_path: Path, cfg: dict, work: Path):
        self.wtx, self.cfg_path, self.work = wtx, cfg_path, work
        self.seed = cfg["seeds"][0]
        config = wtx.config_from_dict(cfg)
        k = config.evaluation.recall_k
        self.runs = []
        for v in VARIANTS:
            rd = work / "runs" / v
            rd.mkdir(parents=True)
            res = wtx.cli.run_training(config, v, self.seed, str(rd))
            # The in-process scores of the trained model, which `wtx eval` on
            # the reloaded weights must reproduce exactly.
            ref = {s: json.loads(wtx.evaluate(res["head"], res["model"], res["bench"], s, k=k)
                                 .to_json()) for s in SPLITS}
            self.runs.append((rd, res["tag"], ref))
        self.source_hash = wtx.matrix_hash(res["bench"].source.weights)
        self.first_sha = None
        self.cmd_s: list[float] = []
        self.details = {}

    def unit(self, k: int, steps: "Steps") -> dict:
        gen, cmp = self.work / f"gen{k}", self.work / f"cmp{k}"
        cmds = [("generate", ["generate", "--config", str(self.cfg_path),
                              "--seed", str(self.seed), "--out", str(gen)], None)]
        for rd, tag, ref in self.runs:
            cmds += [("eval", ["eval", str(rd)], (rd, tag, ref)),
                     ("analyze", ["analyze", str(rd)], (rd, tag, ref))]
        cmds.append(("compare", ["compare", *(str(rd) for rd, _, _ in self.runs),
                                 "--out", str(cmp)], None))
        done = []
        for kind, argv, run in cmds:
            rc = steps.run(run_cli, self.wtx, argv)
            done.append((kind, rc, run, steps.last))
        return {"done": done, "gen": gen, "cmp": cmp}

    def _output_ok(self, kind: str, run, gen: Path, cmp: Path) -> bool:
        wtx = self.wtx
        try:
            if kind == "generate":
                manifest = json.loads((gen / "manifest.json").read_text())
                w_c = wtx.matrix.load_matrix_json(str(gen / "source_weights.json"))
                return manifest["seed"] == self.seed and wtx.matrix_hash(w_c) == self.source_hash
            if kind == "compare":
                if not table_ok(cmp / "comparison.json", VARIANTS, [self.seed]):
                    return False
                sha = sha256_file(cmp / "comparison.json")
                if self.first_sha is None:
                    self.first_sha = sha
                    self.details.update(comparison_sha256=sha,
                                        quality=quality(cmp / "comparison.json"))
                return sha == self.first_sha
            rd, tag, ref = run
            if kind == "eval":
                for split in SPLITS:
                    got = json.loads((rd / f"metrics__{tag}__{split}.json").read_text())
                    got.pop("config_echo")
                    want = dict(ref[split])
                    want.pop("config_echo")
                    if got != want:
                        return False
                return report_ok(rd / "report.json")
            overlap = json.loads((rd / f"overlap__{tag}.json").read_text())["mean_overlap"]
            stats = json.loads((rd / f"norm_stats__{tag}.json").read_text())
            return all(math.isfinite(x) for x in [*overlap, *stats.values()])
        except (OSError, ValueError, KeyError, TypeError):
            return False

    def check(self, k: int, res: dict) -> tuple[int, int]:
        if not res["traced"]:
            self.cmd_s += [d[3] for d in res["done"]]
        failed = sum(rc != 0 or not self._output_ok(kind, run, res["gen"], res["cmp"])
                     for kind, rc, run, _ in res["done"])
        shutil.rmtree(res["gen"], ignore_errors=True)
        shutil.rmtree(res["cmp"], ignore_errors=True)
        return len(res["done"]), failed

    def finish(self):
        self.details.update(cmd_s_p50=statistics.median(self.cmd_s), commands_timed=len(self.cmd_s))


WORKLOADS = {"sweep": Sweep, "train_long": TrainLong, "reload": Reload}


def git_revision() -> str | None:
    """HEAD of the enclosing git checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_stamp(wtx) -> dict:
    import numpy as np
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    src = hashlib.sha256()
    for path in sorted((SRC / "wtx").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_revision": git_revision(),
        "wtx_source_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--phase", choices=("setup", "run"), required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    work = Path(args.work)
    work.mkdir(parents=True)
    wtx = import_wtx()
    cfg = workload_config(args.workload, args.seed, args.tiny)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))
    workload = WORKLOADS[args.workload](wtx, cfg_path, cfg, work)
    ready_at = time.time()
    # A probe block right after set-up scales this child's set-up time to the
    # reference speed, and is the block before the measured run's first unit.
    arrays = _probe_arrays()
    first = probe(arrays)
    result = {"ready_at": ready_at, "speed_scale": PROBE_REF_S / statistics.median(first)}
    if args.phase == "run":
        result.update(measure(wtx, workload, args, arrays, first))
    Path(args.out).write_text(json.dumps(result))
    return 0


class Steps:
    """Times the steps of a unit (a train_joint call, a CLI command) and runs
    a probe block after each, outside the timing. A step's time at the
    reference speed is its wall time x PROBE_REF_S / the median of the probe
    samples just before and after it; a unit's times are the sums over its
    steps."""

    def __init__(self, arrays, first_probe: list[float]):
        self.arrays = arrays
        self.probes = [first_probe]
        self.last = 0.0
        self.new_unit()

    def new_unit(self):
        self.wall = self.norm_wall = 0.0

    def run(self, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.last = time.perf_counter() - start
            self.probes.append(probe(self.arrays))
            self.wall += self.last
            self.norm_wall += (self.last * PROBE_REF_S
                               / statistics.median(self.probes[-2] + self.probes[-1]))


def measure(wtx, workload, args, arrays, first_probe: list[float]) -> dict:
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    walls = {False: [], True: []}
    norm_walls = {False: [], True: []}
    steps = Steps(arrays, first_probe)
    attempted, failed = 0, 0
    # Start another unit only if a unit of the mean length still fits.
    start_all = time.perf_counter()
    deadline = start_all + args.seconds
    k = 0
    while k < 2 or time.perf_counter() + (time.perf_counter() - start_all) / k <= deadline:
        traced = tracer is not None and k % 2 == 1
        steps.new_unit()
        if traced:
            tracer.install()
        try:
            res = workload.unit(k, steps)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(steps.wall)
        norm_walls[traced].append(steps.norm_wall)
        res["traced"] = traced
        a, f = workload.check(k, res)
        attempted, failed = attempted + a, failed + f
        k += 1
    workload.finish()

    out = {"unit_s": walls[False], "traced_unit_s": walls[True],
           "norm_unit_s": norm_walls[False], "probe_s": steps.probes,
           "attempted": attempted, "failed": failed,
           "details": workload.details, "stamp": machine_stamp(wtx)}
    if tracer is not None:
        overhead = statistics.median(norm_walls[True]) / statistics.median(norm_walls[False]) - 1.0
        out["layer_metrics"] = tracer.metrics(len(walls[True]), sum(walls[True]), overhead)
        tracer.write(str(Path(args.out).with_suffix(".spans.csv")))
    return out


if __name__ == "__main__":
    sys.exit(main())
