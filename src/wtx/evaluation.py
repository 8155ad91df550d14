"""Evaluation harness: accuracy metrics, neighbor-overlap curves, and
post-ReLU activation-norm statistics.

Metrics here are classification proxies (top-1, recall@k) rather than
detection AP/AR; there are no boxes in the synthetic benchmark. The novel
split is ranked over the full class universe so novel classes have to
compete with seen and "other" classes for the argmax. Evaluation scores
through ``DetectionProxyHead.score``, the scorer that training uses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .bench import BenchmarkInstance
from .errors import ShapeError, StateError, ValidationError
from .matrix import nearest_rows, row_l2_norms
from .models import VARIANT_LAYERS, DetectionProxyHead, SourceWeights, TransferModel


@dataclass
class MetricReport:
    split: str
    top1: float
    recall_k: float
    k: int
    per_class: dict = field(default_factory=dict)
    seed: int | None = None
    config_echo: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {"split": self.split, "top1": self.top1,
                   f"recall@{self.k}": self.recall_k,
                   "per_class": {str(k): v for k, v in sorted(self.per_class.items())},
                   "seed": self.seed, "config_echo": self.config_echo}
        return json.dumps(payload, sort_keys=True, indent=1)


def _resolve_transferred(transferred, source: SourceWeights) -> np.ndarray:
    if isinstance(transferred, TransferModel):
        return transferred.encode(source)
    w = np.asarray(transferred, dtype=np.float64)
    if w.shape[0] != source.num_classes:
        raise ShapeError(f"transferred weights have {w.shape[0]} rows, "
                         f"expected {source.num_classes}")
    return w


def _topk_hits(logits: np.ndarray, truth: np.ndarray, row_class: np.ndarray,
               k: int) -> np.ndarray:
    """Per row i, whether any of the k highest logits marks a true class of
    the row's class, ``truth[row_class[i]]``, with ties broken toward the
    lowest class index: the first k columns of a stable argsort of -logits,
    found by counting ranks instead of sorting. A true column t of row i is
    among them exactly when

        #(j with logits[i, j] > logits[i, t])
          + #(j < t with logits[i, j] == logits[i, t])  <  k.

    Each class's true columns fill slots in ascending order; per slot, one
    compare-and-count pass over the rows whose class has that many true
    columns gives the first term, and the tie term is counted only on the
    rows where the first is below k. Ties are common: the untrained "other"
    columns all score 0. The rule holds for every logit but NaN, which ``>``
    and ``==`` do not order as the sort does; the logits are finite on every
    path: the generator's features times weights that were trained to a
    finite loss or reloaded from files that must hold finite numbers."""
    n_true = truth.sum(axis=1)
    slots = np.argsort(~truth, axis=1, kind="stable")     # true columns first, ascending
    row_true = n_true[row_class]
    cols = np.arange(logits.shape[1])
    hits = np.zeros(len(row_class), dtype=bool)
    for s in range(n_true.max(initial=0)):
        rows = np.flatnonzero(row_true > s)
        sub = logits if len(rows) == len(logits) else logits[rows]
        t = slots[row_class[rows], s]
        lt = sub[np.arange(len(rows)), t][:, None]
        above = np.count_nonzero(sub > lt, axis=1)
        near = np.flatnonzero(above < k)
        tied_before = np.count_nonzero((sub[near] == lt[near]) & (cols < t[near, None]), axis=1)
        hits[rows[near[above[near] + tied_before < k]]] = True
    return hits


def evaluate(head: DetectionProxyHead, transferred, instance: BenchmarkInstance,
             split: str, k: int = 5) -> MetricReport:
    """Top-1 and recall@k on one split.

    ``transferred`` is either a TransferModel or a precomputed (|C|, d)
    weight matrix (e.g. a reloaded export). The seen split ranks over the
    detector's own classes (shared + other); the novel split ranks over
    everything. Both are scored by ``head.score``. Ties break toward the
    lowest class index.
    """
    sp = instance.split(split)
    w_all = _resolve_transferred(transferred, instance.source)
    n_src = instance.source.num_classes
    ids = np.arange(n_src) if split == "eval_novel" else instance.source.shared_index
    logits = head.score(sp.features, w_all[ids])
    universe = np.concatenate([ids, n_src + np.arange(len(head.other_weights.data))])
    truth = sp.class_labels[:, universe] > 0.5     # one row per class of the split

    if k < 1:
        raise ValueError(f"recall k must be >= 1, got {k}")
    k_eff = min(k, len(universe))
    top1_hit = truth[sp.class_index, np.argmax(logits, axis=1)]
    recall_hit = _topk_hits(logits, truth, sp.class_index, k_eff)

    n_classes = len(sp.class_ids)
    counts = np.bincount(sp.class_index, minlength=n_classes).tolist()
    hits = np.bincount(sp.class_index[top1_hit], minlength=n_classes).tolist()
    per_class = {c: {"count": n, "top1": h / n}
                 for c, n, h in zip(sp.class_ids.tolist(), counts, hits) if n}

    return MetricReport(split=split, top1=float(top1_hit.mean()),
                        recall_k=float(recall_hit.mean()), k=k, per_class=per_class,
                        seed=instance.seed)


@dataclass
class OverlapCurve:
    ks: list[int]
    mean_counts: list[float]
    sampled_class_ids: list[int]

    def to_json(self) -> str:
        return json.dumps({"k": self.ks, "mean_overlap": self.mean_counts,
                           "sampled_class_ids": self.sampled_class_ids},
                          sort_keys=True, indent=1)


def nn_overlap(w_ref: np.ndarray, w_test: np.ndarray, k_list,
               n_sample_classes: int, rng: np.random.Generator) -> OverlapCurve:
    """Mean size of the intersection between each sampled class's top-k
    Euclidean neighbors in the two weight spaces (self excluded, ties by
    class index), found by ``matrix.nearest_rows``. The own row is excluded
    by counting it infinitely far, so where another row's squared distance
    overflows to inf too (entries of about 1e153 or more) the own row ties
    with it and may be ranked among the neighbors."""
    if w_ref.shape[0] != w_test.shape[0]:
        raise ShapeError(f"row counts differ: {w_ref.shape} vs {w_test.shape}")
    n = w_ref.shape[0]
    ks = sorted(int(k) for k in k_list)
    if ks[0] < 1 or ks[-1] >= n:
        raise ValueError(f"k values must lie in [1, {n - 1}], got {ks}")

    n_sample = min(n_sample_classes, n)
    sampled = np.sort(rng.choice(n, size=n_sample, replace=False))

    ref_nb, _ = nearest_rows(w_ref[sampled], w_ref, ks[-1], own=sampled)
    test_nb, _ = nearest_rows(w_test[sampled], w_test, ks[-1], own=sampled)
    means = [np.mean([len(set(r[:k]) & set(t[:k])) for r, t in zip(ref_nb, test_nb)]) for k in ks]
    return OverlapCurve(ks=ks, mean_counts=[float(x) for x in means],
                        sampled_class_ids=[int(c) for c in sampled])


@dataclass
class NormStats:
    mean_shared: float
    mean_novel: float
    var_shared: float
    var_novel: float

    def ratio(self) -> float:
        """Novel/shared variance ratio; the group-norm variant should keep
        this near 1 while batch-over-classes normalization lets it grow."""
        return self.var_novel / max(self.var_shared, 1e-300)

    def to_json(self) -> str:
        return json.dumps({"mean_shared": self.mean_shared, "mean_novel": self.mean_novel,
                           "var_shared": self.var_shared, "var_novel": self.var_novel,
                           "novel_over_shared_var_ratio": self.ratio()},
                          sort_keys=True, indent=1)


def norm_stats(model: TransferModel, source: SourceWeights) -> NormStats:
    """Mean/variance of post-ReLU hidden activation L2 norms, reported
    separately for shared and novel classes."""
    hidden = model.hidden_activations(source)
    norms = row_l2_norms(hidden).ravel()
    s, n = norms[source.shared_mask], norms[source.novel_mask]
    if len(s) == 0 or len(n) == 0:
        raise StateError("both shared and novel classes are required for norm stats")
    return NormStats(mean_shared=float(s.mean()), mean_novel=float(n.mean()),
                     var_shared=float(s.var()), var_novel=float(n.var()))


# --- comparison tables ------------------------------------------------------

METRIC_COLUMNS = ("seen_top1", "novel_top1", "novel_recall")
TABLE_COLUMNS = ("method", "seed", "input_norm", "group_norm") + METRIC_COLUMNS


def comparison_table(rows: list[dict]) -> dict:
    """Aggregate per-run metric rows into a table with per-method medians.

    Every row needs the TABLE_COLUMNS keys plus a ``benchmark_echo`` dict,
    and its method is a label of ``VARIANT_LAYERS``; rows from differently
    configured benchmarks refuse to aggregate. The rows are sorted by
    method, in the order of ``VARIANT_LAYERS``, then by seed, so the table
    does not depend on the order of ``rows``.
    """
    if not rows:
        raise ValidationError("comparison_table needs at least one report")
    echo0 = rows[0].get("benchmark_echo")
    for r in rows[1:]:
        if r.get("benchmark_echo") != echo0:
            raise ValidationError("reports come from different benchmark configs")

    rank = list(VARIANT_LAYERS).index
    out_rows = [{c: r[c] for c in TABLE_COLUMNS}
                for r in sorted(rows, key=lambda r: (rank(r["method"]), r["seed"]))]
    methods = []
    for r in out_rows:
        if r["method"] not in methods:
            methods.append(r["method"])
    for m in methods:
        group = [r for r in out_rows if r["method"] == m]
        med = {"method": m, "seed": "median",
               "input_norm": group[0]["input_norm"], "group_norm": group[0]["group_norm"]}
        for c in METRIC_COLUMNS:
            med[c] = float(np.median([r[c] for r in group]))
        out_rows.append(med)
    return {"columns": list(TABLE_COLUMNS), "rows": out_rows,
            "benchmark_echo": echo0}


def comparison_csv(table: dict) -> str:
    lines = [",".join(table["columns"])]
    for r in table["rows"]:
        cells = []
        for c in table["columns"]:
            v = r[c]
            cells.append(repr(float(v)) if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
