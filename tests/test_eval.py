import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from wtx.errors import ShapeError, ValidationError
from wtx.evaluation import (MetricReport, _topk_hits, comparison_csv, comparison_table,
                            evaluate, nn_overlap, norm_stats)
from wtx.layers import ClassBatchNorm, GroupNorm
from wtx.models import DetectionProxyHead

from conftest import make_model, tiny_config, top1_over
from test_bench import GENERATION_CONFIGS, oracle_benchmark
from wtx.bench import generate_benchmark


def oracle_head_and_weights(bench):
    protos = bench.prototypes
    beta = 4.0 / np.mean(np.sum(protos ** 2, axis=1))
    head = DetectionProxyHead(bench.num_other, bench.d_feat)
    head.other_weights.data[...] = beta * bench.other_prototypes
    return head, beta * protos


# --- evaluate -------------------------------------------------------------------

def test_oracle_weights_perfect_on_clean_instance():
    bench = generate_benchmark(tiny_config(noise_std=0.0, prototype_spread=1.0), seed=1)
    head, w = oracle_head_and_weights(bench)
    rep = evaluate(head, w, bench, "eval_seen")
    assert rep.top1 == 1.0


def test_random_weights_score_at_chance():
    bench = generate_benchmark(tiny_config(), seed=2)
    rng = np.random.default_rng(0)
    head = DetectionProxyHead(bench.num_other, bench.d_feat)
    head.other_weights.data[...] = rng.standard_normal((bench.num_other, bench.d_feat))
    w = rng.standard_normal((bench.source.num_classes, bench.d_feat))
    rep = evaluate(head, w, bench, "eval_novel")
    sp = bench.split("eval_novel")
    n = len(sp.primary)
    # expected hit rate = mean number of true labels / universe size
    p = sp.class_labels[sp.class_index].sum() / (n * (bench.source.num_classes + bench.num_other))
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(rep.top1 - p) <= 3 * sigma + 0.01


def test_recall_at_universe_size_is_one(tiny_bench):
    head, w = oracle_head_and_weights(tiny_bench)
    rep = evaluate(head, w, tiny_bench, "eval_novel",
                   k=tiny_bench.source.num_classes + tiny_bench.num_other)
    assert rep.recall_k == 1.0


def test_topk_hits_match_stable_argsort_on_ties():
    # Small-integer logits tie often; the hits must equal those of the first
    # k columns of a stable argsort of -logits, for every k. The truth is
    # given once per row, and once per class of 7 classes.
    rng = np.random.default_rng(0)
    logits = rng.integers(-2, 3, size=(300, 9)).astype(float)
    logits[:, 6:] = 0.0        # all-zero columns, like the untrained "other" rows
    row_truth = rng.random((300, 9)) < 0.2
    class_truth = rng.random((7, 9)) < 0.2
    row_class = rng.integers(0, 7, size=300)
    for truth, index in ((row_truth, np.arange(300)), (class_truth, row_class)):
        for k in range(1, 11):
            order = np.argsort(-logits, axis=1, kind="stable")[:, :k]
            want = np.take_along_axis(truth[index], order, axis=1).any(axis=1)
            np.testing.assert_array_equal(_topk_hits(logits, truth, index, k), want)


TIE_HEAVY = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
SPREAD = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def topk_cases(draw):
    """(logits, truth, row_class): any shape, tie-heavy or spread-out finite
    logits, and classes with any number of true columns. In half the cases
    row i's first true column takes the row's k-th largest value for a
    drawn k, so a positive ties at the cut."""
    n_rows, n_cols, n_classes = (draw(st.integers(lo, hi))
                                 for lo, hi in ((0, 30), (1, 12), (1, 6)))
    logits = draw(hnp.arrays(np.float64, (n_rows, n_cols),
                             elements=draw(st.sampled_from([TIE_HEAVY, SPREAD]))))
    truth = draw(hnp.arrays(bool, (n_classes, n_cols)))
    row_class = draw(hnp.arrays(np.int64, n_rows, elements=st.integers(0, n_classes - 1)))
    if draw(st.booleans()):
        k = draw(st.integers(1, n_cols))
        for i, c in enumerate(row_class):
            if truth[c].any():
                logits[i, np.argmax(truth[c])] = np.sort(logits[i])[::-1][k - 1]
    return logits, truth, row_class


@settings(max_examples=300, deadline=None)
@given(topk_cases())
def test_topk_hits_match_stable_argsort_property(case):
    logits, truth, row_class = case
    for k in range(1, logits.shape[1] + 2):
        order = np.argsort(-logits, axis=1, kind="stable")[:, :k]
        want = np.take_along_axis(truth[row_class], order, axis=1).any(axis=1)
        np.testing.assert_array_equal(_topk_hits(logits, truth, row_class, k), want)


def oracle_evaluate(head, w, bench, dense, split, k):
    """evaluate's report JSON from dense per-example truth, a full stable
    argsort for recall@k, and one boolean mask per class."""
    features, labels, primary = dense[split]
    stack = np.vstack([w, head.other_weights.data])
    universe = (np.arange(stack.shape[0]) if split == "eval_novel"
                else np.unique(bench.split(split).class_ids))
    logits = features @ stack[universe].T
    truth = labels[:, universe] > 0.5
    top1_hit = truth[np.arange(len(logits)), np.argmax(logits, axis=1)]
    order = np.argsort(-logits, axis=1, kind="stable")[:, :min(k, len(universe))]
    recall_hit = np.take_along_axis(truth, order, axis=1).any(axis=1)
    per_class = {int(c): {"count": int((primary == c).sum()),
                          "top1": float(top1_hit[primary == c].mean())}
                 for c in np.unique(primary)}
    return MetricReport(split=split, top1=float(top1_hit.mean()),
                        recall_k=float(recall_hit.mean()), k=k, per_class=per_class,
                        seed=bench.seed).to_json()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("config", ["tiny", "default"])
def test_evaluate_matches_the_dense_truth_oracle(config, seed):
    bench = generate_benchmark(GENERATION_CONFIGS[config], seed)
    _, dense = oracle_benchmark(GENERATION_CONFIGS[config], seed)
    rng = np.random.default_rng(seed)
    oracle_head, oracle_w = oracle_head_and_weights(bench)
    zero_head = DetectionProxyHead(bench.num_other, bench.d_feat)   # tied "other" columns
    random_w = rng.standard_normal(oracle_w.shape)
    for head, w in ((oracle_head, oracle_w), (zero_head, random_w), (oracle_head, random_w)):
        for split in ("eval_seen", "eval_novel"):
            for k in (1, 5, 10_000):
                assert (evaluate(head, w, bench, split, k=k).to_json()
                        == oracle_evaluate(head, w, bench, dense, split, k)), (split, k)


def test_metric_bounds_and_ordering(tiny_bench):
    head, w = oracle_head_and_weights(tiny_bench)
    for split in ("eval_seen", "eval_novel"):
        rep = evaluate(head, w, tiny_bench, split, k=5)
        assert 0.0 <= rep.top1 <= rep.recall_k <= 1.0


def test_evaluate_deterministic(tiny_bench):
    head, w = oracle_head_and_weights(tiny_bench)
    a = evaluate(head, w, tiny_bench, "eval_novel")
    b = evaluate(head, w, tiny_bench, "eval_novel")
    assert a.to_json() == b.to_json()


def test_per_class_counts_sum_to_split_size(tiny_bench):
    head, w = oracle_head_and_weights(tiny_bench)
    rep = evaluate(head, w, tiny_bench, "eval_seen")
    total = sum(v["count"] for v in rep.per_class.values())
    assert total == tiny_bench.split("eval_seen").features.shape[0]


def test_novel_split_ranks_over_full_universe(tiny_bench):
    # Here the top-1 over every class (0.833) differs from that over the
    # novel and "other" classes (0.863) and from that without "other" (0.839).
    head, w = oracle_head_and_weights(tiny_bench)
    rep = evaluate(head, w, tiny_bench, "eval_novel")
    everything = range(tiny_bench.source.num_classes + tiny_bench.num_other)
    assert rep.top1 == top1_over(head, w, tiny_bench, "eval_novel", everything)


def test_evaluate_accepts_model(tiny_bench):
    model = make_model("wtn", tiny_bench.source, dim=16, groups=4)
    head = DetectionProxyHead(tiny_bench.num_other, tiny_bench.d_feat)
    rep = evaluate(head, model, tiny_bench, "eval_seen")
    assert 0.0 <= rep.top1 <= 1.0


def test_evaluate_rejects_wrong_row_count(tiny_bench):
    head = DetectionProxyHead(tiny_bench.num_other, tiny_bench.d_feat)
    with pytest.raises(ShapeError):
        evaluate(head, np.zeros((5, 16)), tiny_bench, "eval_seen")


# --- neighbor overlap -----------------------------------------------------------

def test_overlap_identity_case(rng):
    w = rng.standard_normal((30, 8))
    curve = nn_overlap(w, w.copy(), [1, 3, 5, 10], 12, np.random.default_rng(1))
    assert curve.mean_counts == [1.0, 3.0, 5.0, 10.0]


def test_overlap_isometry_case(rng):
    w = rng.standard_normal((25, 8))
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    curve = nn_overlap(w, w @ q, [2, 6], 10, np.random.default_rng(2))
    assert curve.mean_counts == [2.0, 6.0]


def test_overlap_matches_brute_force_oracle(rng):
    # The second case, 300 rows of 8, takes several 1 MB distance blocks; its
    # duplicated rows tie exactly, and the tie goes to the lower row index.
    cases = [(rng.standard_normal((30, 8)), rng.standard_normal((30, 8)), [1, 4, 9]),
             (rng.standard_normal((300, 8)), rng.standard_normal((300, 8)), [1, 3, 12])]
    for w in cases[1][:2]:
        w[150:200] = w[:50]
        w[250:260] = w[7]
    for w_ref, w_test, ks in cases:
        n = len(w_ref)
        curve = nn_overlap(w_ref, w_test, ks, n, np.random.default_rng(3))

        def topk(w, anchor, k):
            d = [(np.sum((w[j] - w[anchor]) ** 2), j) for j in range(len(w)) if j != anchor]
            d.sort()
            return set(j for _, j in d[:k])

        for j, k in enumerate(ks):
            want = np.mean([len(topk(w_ref, c, k) & topk(w_test, c, k)) for c in range(n)])
            assert curve.mean_counts[j] == pytest.approx(want)


def test_overlap_monotone_in_k(rng):
    w_ref = rng.standard_normal((40, 6))
    w_test = rng.standard_normal((40, 6))
    curve = nn_overlap(w_ref, w_test, [1, 2, 5, 10, 20], 15, np.random.default_rng(4))
    assert all(a <= b for a, b in zip(curve.mean_counts, curve.mean_counts[1:]))


def test_overlap_swap_invariance_for_identity(rng):
    w = rng.standard_normal((20, 5))
    a = nn_overlap(w, w.copy(), [3], 8, np.random.default_rng(5))
    b = nn_overlap(w.copy(), w, [3], 8, np.random.default_rng(5))
    assert a.mean_counts == b.mean_counts


def test_overlap_input_validation(rng):
    w = rng.standard_normal((10, 4))
    with pytest.raises(ShapeError):
        nn_overlap(w, rng.standard_normal((11, 4)), [2], 5, np.random.default_rng(0))
    with pytest.raises(ValueError):
        nn_overlap(w, w, [10], 5, np.random.default_rng(0))   # k >= rows


# --- norm stats -----------------------------------------------------------------

def test_norm_stats_zero_activations(tiny_bench):
    model = make_model("wtn_plus", tiny_bench.source, dim=16, groups=4, seed=1)
    # force the hidden layer to output a negative constant: post-ReLU all zero
    gn = next(layer for layer in model.encoder if isinstance(layer, GroupNorm))
    gn.gamma.data[...] = 0.0
    gn.beta.data[...] = -1.0
    stats = norm_stats(model, tiny_bench.source)
    assert stats.mean_shared == stats.mean_novel == 0.0
    assert stats.var_shared == stats.var_novel == 0.0


def test_norm_stats_shapes_and_nonnegative(tiny_bench):
    model = make_model("wtn_plus", tiny_bench.source, dim=16, groups=4, seed=2)
    stats = norm_stats(model, tiny_bench.source)
    assert stats.var_shared >= 0.0 and stats.var_novel >= 0.0
    assert stats.mean_shared > 0.0 and stats.mean_novel > 0.0
    assert stats.ratio() > 0.0


def test_norm_stats_under_class_batch_norm_match_a_hand_written_pass(tiny_bench):
    # Class-batch norm takes its statistics over every class row it is shown,
    # so the hidden activations are those of all the standardized rows at once.
    source = tiny_bench.source
    model = make_model("wtn_plus", source, dim=16, groups=4, seed=3, norm_kind="class_batch")
    model.data += 0.1 * np.random.default_rng(4).standard_normal(model.data.size)
    linear, cbn = model.encoder[:2]
    assert isinstance(cbn, ClassBatchNorm)
    h = source.standardized @ linear.weight.data.T + linear.bias.data
    xhat = (h - h.mean(axis=0)) * (1.0 / np.sqrt(h.var(axis=0) + cbn.eps))
    y = cbn.gamma.data * xhat + cbn.beta.data
    hidden = np.where(y > 0, y, 0.0)
    norms = np.sqrt(np.sum(hidden * hidden, axis=1))
    s, n = norms[source.shared_mask], norms[source.novel_mask]
    stats = norm_stats(model, source)
    assert (stats.mean_shared, stats.mean_novel, stats.var_shared, stats.var_novel) == \
        (s.mean(), n.mean(), s.var(), n.var())


# --- comparison table -----------------------------------------------------------

def make_row(method, seed, echo, **kw):
    row = {"method": method, "seed": seed, "input_norm": True, "group_norm": True,
           "seen_top1": 0.9, "novel_top1": 0.3, "novel_recall": 0.5,
           "benchmark_echo": echo}
    row.update(kw)
    return row


def test_single_report_single_row_plus_median():
    table = comparison_table([make_row("ae_wtn", 0, {"dim": 64})])
    assert len(table["rows"]) == 2
    assert table["rows"][1]["seed"] == "median"


def test_grid_rows_carry_boolean_flags():
    echo = {"dim": 64}
    rows = [make_row("wtn", 0, echo, input_norm=False, group_norm=False),
            make_row("wtn_plus_in_only", 0, echo, group_norm=False),
            make_row("wtn_plus_gn_only", 0, echo, input_norm=False),
            make_row("wtn_plus", 0, echo)]
    table = comparison_table(rows)
    flags = {(r["input_norm"], r["group_norm"]) for r in table["rows"] if r["seed"] == 0}
    assert flags == {(False, False), (True, False), (False, True), (True, True)}
    csv = comparison_csv(table)
    assert csv.splitlines()[0] == "method,seed,input_norm,group_norm,seen_top1,novel_top1,novel_recall"


def test_inconsistent_benchmarks_rejected():
    rows = [make_row("wtn", 0, {"dim": 64}), make_row("wtn", 1, {"dim": 32})]
    with pytest.raises(ValidationError):
        comparison_table(rows)


def test_median_is_componentwise():
    echo = {"dim": 64}
    rows = [make_row("wtn", s, echo, novel_top1=v)
            for s, v in enumerate((0.1, 0.5, 0.3))]
    table = comparison_table(rows)
    med = [r for r in table["rows"] if r["seed"] == "median"][0]
    assert med["novel_top1"] == 0.3
