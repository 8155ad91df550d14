"""Evaluation harness: accuracy metrics, neighbor-overlap curves, and
post-ReLU activation-norm statistics.

Metrics here are classification proxies (top-1, recall@k) rather than
detection AP/AR; there are no boxes in the synthetic benchmark. The novel
split is ranked over the full class universe so novel classes have to
compete with seen and "other" classes for the argmax.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .bench import BenchmarkInstance
from .errors import ShapeError, StateError, ValidationError
from .matrix import row_l2_norms
from .models import DetectionProxyHead, SourceWeights, TransferModel


@dataclass
class MetricReport:
    split: str
    universe: list[int]
    top1: float
    recall_k: float
    k: int
    per_class: dict = field(default_factory=dict)
    seed: int | None = None
    config_echo: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {"split": self.split, "universe": self.universe, "top1": self.top1,
                   f"recall@{self.k}": self.recall_k,
                   "per_class": {str(k): v for k, v in sorted(self.per_class.items())},
                   "seed": self.seed, "config_echo": self.config_echo}
        return json.dumps(payload, sort_keys=True, indent=1)


def _resolve_transferred(transferred, source: SourceWeights) -> np.ndarray:
    if isinstance(transferred, TransferModel):
        return transferred.encode(source.weights)
    w = np.asarray(transferred, dtype=np.float64)
    if w.shape[0] != source.num_classes:
        raise ShapeError(f"transferred weights have {w.shape[0]} rows, "
                         f"expected {source.num_classes}")
    return w


def _topk_hits(logits: np.ndarray, truth: np.ndarray, k: int) -> np.ndarray:
    """Per row, whether any of the k highest logits marks a true class, with
    ties broken toward the lowest class index: the first k columns of a
    stable argsort of -logits, found without sorting. Every value above the
    row's k-th largest is taken; the remaining slots go to the values equal
    to it, in column order. Ties are common: the untrained "other" columns
    all score 0."""
    n_cols = logits.shape[1]
    if k >= n_cols:
        return truth.any(axis=1)
    # Index with a list to copy the column out and free the partitioned copy.
    kth = np.partition(logits, n_cols - k, axis=1)[:, [n_cols - k]]
    above = logits > kth
    tied = logits == kth
    free = k - above.sum(axis=1, keepdims=True)
    taken = above | (tied & (np.cumsum(tied, axis=1, dtype=np.int32) <= free))
    return (truth & taken).any(axis=1)


def evaluate(head: DetectionProxyHead, transferred, instance: BenchmarkInstance,
             split: str, k: int = 5) -> MetricReport:
    """Top-1 and recall@k on one split.

    ``transferred`` is either a TransferModel or a precomputed (|C|, d)
    weight matrix (e.g. a reloaded export). The seen split ranks over the
    detector's own classes (shared + other); the novel split ranks over
    everything. Ties break toward the lowest class index.
    """
    sp = instance.split(split)
    w_all = _resolve_transferred(transferred, instance.source)
    stack = np.vstack([w_all, head.other_weights.data])   # rows aligned with global ids

    if split == "eval_novel":
        universe = np.arange(stack.shape[0])
    else:
        universe = np.asarray(sorted(set(sp.universe.tolist())), dtype=np.int64)

    logits = sp.features @ stack[universe].T
    truth = sp.labels_full[:, universe] > 0.5

    if k < 1:
        raise ValueError(f"recall k must be >= 1, got {k}")
    k_eff = min(k, len(universe))
    top1_idx = np.argmax(logits, axis=1)
    top1_hit = truth[np.arange(len(top1_idx)), top1_idx]
    recall_hit = _topk_hits(logits, truth, k_eff)

    per_class = {}
    for c in np.unique(sp.primary):
        m = sp.primary == c
        per_class[int(c)] = {"count": int(m.sum()), "top1": float(top1_hit[m].mean())}

    return MetricReport(split=split, universe=[int(u) for u in universe],
                        top1=float(top1_hit.mean()), recall_k=float(recall_hit.mean()),
                        k=k, per_class=per_class, seed=instance.seed)


@dataclass
class OverlapCurve:
    ks: list[int]
    mean_counts: list[float]
    sampled_class_ids: list[int]

    def to_json(self) -> str:
        return json.dumps({"k": self.ks, "mean_overlap": self.mean_counts,
                           "sampled_class_ids": self.sampled_class_ids},
                          sort_keys=True, indent=1)

    def to_csv(self) -> str:
        lines = ["k,mean_overlap"]
        lines += [f"{k},{v!r}" for k, v in zip(self.ks, self.mean_counts)]
        return "\n".join(lines) + "\n"


def _topk_neighbors(w: np.ndarray, anchor: int, k: int) -> np.ndarray:
    d2 = ((w - w[anchor]) ** 2).sum(axis=1)
    order = np.argsort(d2, kind="stable")
    order = order[order != anchor]
    return order[:k]


def nn_overlap(w_ref: np.ndarray, w_test: np.ndarray, k_list,
               n_sample_classes: int, rng: np.random.Generator) -> OverlapCurve:
    """Mean size of the intersection between each sampled class's top-k
    Euclidean neighbors in the two weight spaces (self excluded, ties by
    class index)."""
    if w_ref.shape[0] != w_test.shape[0]:
        raise ShapeError(f"row counts differ: {w_ref.shape} vs {w_test.shape}")
    n = w_ref.shape[0]
    ks = sorted(int(k) for k in k_list)
    if ks[0] < 1 or ks[-1] >= n:
        raise ValueError(f"k values must lie in [1, {n - 1}], got {ks}")

    n_sample = min(n_sample_classes, n)
    sampled = np.sort(rng.choice(n, size=n_sample, replace=False))

    counts = np.zeros((n_sample, len(ks)))
    for i, c in enumerate(sampled):
        ref_nb = _topk_neighbors(w_ref, int(c), ks[-1])
        test_nb = _topk_neighbors(w_test, int(c), ks[-1])
        for j, k in enumerate(ks):
            counts[i, j] = len(set(ref_nb[:k]) & set(test_nb[:k]))
    return OverlapCurve(ks=ks, mean_counts=[float(x) for x in counts.mean(axis=0)],
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
    hidden = model.hidden_activations(source.weights)
    norms = row_l2_norms(hidden).ravel()
    s, n = norms[source.shared_mask], norms[source.novel_mask]
    if len(s) == 0 or len(n) == 0:
        raise StateError("both shared and novel classes are required for norm stats")
    return NormStats(mean_shared=float(s.mean()), mean_novel=float(n.mean()),
                     var_shared=float(s.var()), var_novel=float(n.var()))


# --- comparison tables ------------------------------------------------------

TABLE_COLUMNS = ("method", "seed", "input_norm", "group_norm",
                 "seen_top1", "novel_top1", "novel_recall")


def comparison_table(rows: list[dict]) -> dict:
    """Aggregate per-run metric rows into a table with per-method medians.

    Every row needs the TABLE_COLUMNS keys plus a ``benchmark_echo`` dict;
    rows from differently configured benchmarks refuse to aggregate.
    """
    if not rows:
        raise ValidationError("comparison_table needs at least one report")
    echo0 = rows[0].get("benchmark_echo")
    for r in rows[1:]:
        if r.get("benchmark_echo") != echo0:
            raise ValidationError("reports come from different benchmark configs")

    out_rows = [{c: r[c] for c in TABLE_COLUMNS} for r in rows]
    methods = []
    for r in out_rows:
        if r["method"] not in methods:
            methods.append(r["method"])
    for m in methods:
        group = [r for r in out_rows if r["method"] == m]
        med = {"method": m, "seed": "median",
               "input_norm": group[0]["input_norm"], "group_norm": group[0]["group_norm"],
               "seen_top1": float(np.median([r["seen_top1"] for r in group])),
               "novel_top1": float(np.median([r["novel_top1"] for r in group])),
               "novel_recall": float(np.median([r["novel_recall"] for r in group]))}
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
