"""Span tracing of wtx's public functions, installed from outside the package.

``Tracer.install()`` wraps every public function and every public method of
every public class defined in the traced modules. ``cli``, ``models`` and
``bench`` import functions by name (``from .losses import sigmoid_bce``), so a
wrapped function is rebound under every name that refers to it in any loaded
``wtx`` module, not only in the module that defines it. Classes are patched
in place, so every importer sees the wrapped methods.

A span records its function, start, end, parent span and an amount (bytes
for file I/O, computed FLOPs for ``train_joint``). Spans stay in memory until
``write()``. Self time is a span's duration minus the time its child spans
cover. Attribution follows the parent: every span under
``bench.generate_benchmark`` (the source-classifier training it runs calls
``sigmoid_bce`` and ``SGDMomentum.step``) counts as benchmark generation, not
under its own module. Calls are assumed to come from one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time

MODULES = ("bench", "layers", "losses", "optim", "models", "evaluation", "matrix", "cli")
VARIANTS = ("wtn", "wtn_plus", "ae_wtn")
GENERATE = "bench.generate_benchmark"
SAMPLE = "bench.BenchmarkInstance.sample"
TRAIN = "models.train_joint"
# Functions whose spans carry a byte count; a span's bytes include those of
# its descendants, so bench.save_instance reports what its writes put on disk.
BYTE_FUNCTIONS = ("matrix.atomic_write_text", "matrix.load_matrix_json",
                  "matrix.load_matrix_csv")

LAYER_METHODS = [f"layers.{cls}.{m}" for cls in ("Linear", "GroupNorm", "ReLU", "InputStandardizer")
                 for m in ("forward", "backward")]

# (metric name, unit, traced function, statistic)
METRICS = (
    [(f"{GENERATE}.calls", "count", GENERATE, "calls"),
     (f"{GENERATE}.self_s", "s", GENERATE, "self_s"),
     (f"{SAMPLE}.self_us.p50", "us", SAMPLE, "self_us_p50"),
     ("bench.save_instance.self_s", "s", "bench.save_instance", "self_s"),
     ("bench.save_instance.bytes", "bytes", "bench.save_instance", "bytes")]
    + [(f"{fn}.self_us.p50", "us", fn, "self_us_p50") for fn in LAYER_METHODS]
    + [(f"{fn}.calls", "count", fn, "calls") for fn in LAYER_METHODS]
    + [(f"{fn}.self_us.p50", "us", fn, "self_us_p50")
       for fn in ("losses.sigmoid_bce", "losses.smooth_l1", "optim.AdamW.step",
                  "optim.SGDMomentum.step", "models.joint_losses")]
    + [(f"{TRAIN}.self_s", "s", TRAIN, "self_s"),
       (f"{TRAIN}.gflops", "GFLOP/s", TRAIN, "gflops")]
    + [(f"{TRAIN}.iter_ms.p50.{v}", "ms", TRAIN, f"iter_p50:{v}") for v in VARIANTS]
    + [(f"{TRAIN}.iter_ms.p99.ae_wtn", "ms", TRAIN, "iter_p99:ae_wtn")]
    + [(f"{fn}.self_s", "s", fn, "self_s")
       for fn in ("models.export_transferred", "models.save_model_params",
                  "models.load_model_params", "models.TransferModel.params_hash",
                  "evaluation.evaluate", "evaluation.nn_overlap", "evaluation.norm_stats",
                  "evaluation.comparison_table")]
    + [(f"{fn}.{stat}", unit, fn, stat) for fn in BYTE_FUNCTIONS
       for stat, unit in (("calls", "count"), ("bytes", "bytes"), ("self_s", "s"))]
    + [("matrix.matrix_hash.self_s", "s", "matrix.matrix_hash", "self_s")]
    + [(f"share.{m}", "frac", m, "share") for m in MODULES]
    + [("trace_overhead_frac", "frac", None, "overhead")]
)


def train_joint_flops(model, head, source, config) -> int:
    """Matrix-multiply FLOPs of ``config.iterations`` joint training steps,
    computed from shapes: every Linear does forward, weight-gradient and
    input-gradient products over all class rows; the head scores a batch
    against the shared and "other" rows and back-propagates once."""
    rows = source.weights.shape[0]
    layers = list(model.encoder)
    if model.decoder is not None and config.alpha != 0.0:
        layers += model.decoder
    per_iter = sum(3 * 2 * rows * l.in_dim * l.out_dim for l in layers if hasattr(l, "in_dim"))
    n_cols = len(source.shared_index) + head.other_weights.data.shape[0]
    per_iter += 2 * 2 * config.batch_size * head.d_feat * n_cols
    return per_iter * config.iterations


class Tracer:
    def __init__(self):
        self.spans: list = []          # [fid, start, end, parent, amount, label]
        self.names: list[str] = []     # fid -> "module.qualname"
        self._stack: list[int] = []
        self._patches: list = []       # (owner, attribute, original, replacement)
        self._build()

    # --- wrapping ---------------------------------------------------------

    def _wrapper(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sig = inspect.signature(fn)
        amount_of = None
        if name in BYTE_FUNCTIONS:
            arg = "text" if name.endswith("atomic_write_text") else "path"

            def amount_of(args, kwargs):
                value = sig.bind(*args, **kwargs).arguments[arg]
                return (len(value) if arg == "text" else os.path.getsize(value)), None
        elif name == TRAIN:
            def amount_of(args, kwargs):
                a = sig.bind(*args, **kwargs).arguments
                return (train_joint_flops(a["model"], a["head"], a["source"], a["config"]),
                        a["model"].variant)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            amount, label = amount_of(args, kwargs) if amount_of else (0, None)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent, amount, label)

        return traced

    def _build(self):
        traced = {short: importlib.import_module(f"wtx.{short}") for short in MODULES}
        wtx_modules = [m for n, m in sorted(sys.modules.items())
                       if m is not None and (n == "wtx" or n.startswith("wtx."))]
        for short, mod in traced.items():
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrapper(obj, f"{short}.{attr}")
                    for m in wtx_modules:     # every name bound to this function
                        for name, value in list(vars(m).items()):
                            if value is obj:
                                self._patches.append((m, name, obj, wrapped))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{short}.{attr}")

    def _wrap_class(self, cls, prefix: str):
        for attr, raw in sorted(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(raw):
                new = self._wrapper(raw, name)
            elif isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrapper(raw.__func__, name))
            else:
                continue                      # properties, dataclass fields
            self._patches.append((cls, attr, raw, new))

    def install(self):
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old, _ in self._patches:
            setattr(owner, attr, old)

    # --- results ----------------------------------------------------------

    def write(self, path: str):
        """One line per span: function, start, end, parent, amount, label."""
        with open(path, "w") as f:
            for fid, start, end, parent, amount, label in self.spans:
                f.write(f"{self.names[fid]},{start!r},{end!r},{parent},{amount},{label or ''}\n")

    def metrics(self, units: int, traced_wall: float, overhead: float) -> dict:
        """Per-layer metrics over ``units`` traced workload units whose wall
        times sum to ``traced_wall``. Counts, self seconds and bytes are per
        unit; per-call latencies are medians over every owned call."""
        spans, names = self.spans, self.names
        n = len(spans)
        child_time = [0.0] * n
        inclusive_bytes = [0] * n
        owner = list(range(n))
        for i, (fid, start, end, parent, amount, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                if names[spans[owner[parent]][0]] == GENERATE:
                    owner[i] = owner[parent]
        for i in range(n - 1, -1, -1):
            fid, _, _, parent, amount, _ = spans[i]
            if names[fid] in BYTE_FUNCTIONS:
                inclusive_bytes[i] += amount
            if parent >= 0:
                inclusive_bytes[parent] += inclusive_bytes[i]

        owned_self = [0.0] * n
        for i, (_, start, end, _, _, _) in enumerate(spans):
            owned_self[owner[i]] += end - start - child_time[i]

        by_name: dict[str, list[int]] = {}
        share = dict.fromkeys(MODULES, 0.0)
        for i in range(n):
            if owner[i] == i:
                name = names[spans[i][0]]
                by_name.setdefault(name, []).append(i)
                share[name.split(".", 1)[0]] += owned_self[i]

        iters: dict[str, list[float]] = {v: [] for v in VARIANTS}
        last_sample: dict[int, float] = {}
        for fid, start, _, parent, _, _ in spans:
            if names[fid] == SAMPLE and parent >= 0 and names[spans[parent][0]] == TRAIN:
                if parent in last_sample:
                    iters[spans[parent][5]].append(1e3 * (start - last_sample[parent]))
                last_sample[parent] = start

        def stat(fn: str, kind: str) -> float:
            idx = by_name.get(fn, [])
            if kind == "calls":
                return len(idx) / units
            if kind == "self_s":
                return sum(owned_self[i] for i in idx) / units
            if kind == "self_us_p50":
                return 1e6 * statistics.median(owned_self[i] for i in idx) if idx else 0.0
            if kind == "bytes":
                return sum(inclusive_bytes[i] for i in idx) / units
            if kind == "gflops":
                secs = sum(spans[i][2] - spans[i][1] for i in idx)
                return sum(spans[i][4] for i in idx) / secs / 1e9 if secs else 0.0
            if kind == "share":
                return share[fn] / traced_wall
            if kind == "overhead":
                return overhead
            q, variant = kind.split(":")
            xs = iters[variant]
            if len(xs) < 2:
                return statistics.median(xs) if xs else 0.0
            return statistics.median(xs) if q == "iter_p50" else \
                statistics.quantiles(xs, n=100)[98]

        return {name: {"value": stat(fn, kind), "unit": unit}
                for name, unit, fn, kind in METRICS}
