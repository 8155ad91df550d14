import functools
import pickle

import numpy as np
import pytest

from wtx.config import EvalSettings, ExperimentConfig
from wtx.errors import ConfigError, ShapeError, StateError, TrainingDiverged
from wtx.evaluation import evaluate
from wtx.gradcheck import max_relative_error, miniature_setup, numeric_gradient
from wtx.layers import GroupNorm, Linear, ReLU
from wtx.losses import sigmoid_bce, smooth_l1
from wtx.matrix import load_matrix_npy, matrix_hash, nearest_rows
from wtx.models import (METHODS, DetectionProxyHead, ModelConfig, SourceWeights,
                        TrainConfig, TransferModel, baseline_lsda_bias,
                        baseline_nn_transfer, joint_losses, train_conventional_head,
                        train_joint)
from wtx.optim import AdamW, SGDMomentum
from wtx.runs import train_run

from conftest import make_model, top1_over


def tiny_experiment(bench, iterations):
    """An experiment config over ``bench`` with 16-wide models and batch 32."""
    return ExperimentConfig(benchmark=bench.config, model=ModelConfig(hidden_dim=16, groups=4),
                            train=TrainConfig(iterations=iterations, batch_size=32),
                            evaluation=EvalSettings(overlap_ks=(1, 2, 5)))


def small_source(seed=0, n=12, shared=5, d=8):
    rng = np.random.default_rng(seed)
    return SourceWeights.create(rng.standard_normal((n, d)), list(range(shared)))


def through(layers, x):
    """``x`` through ``layers``, one forward pass each."""
    for layer in layers:
        x = layer.forward(x)
    return x


# --- source weights -----------------------------------------------------------

def test_source_masks_partition():
    src = small_source()
    assert not np.any(src.shared_mask & src.novel_mask)
    assert np.all(src.shared_mask | src.novel_mask)


def test_source_weights_are_read_only():
    src = small_source()
    with pytest.raises(ValueError):
        src.weights[0, 0] = 1.0


def test_source_weights_are_a_copy_the_caller_cannot_reach():
    # W_C and its standardized rows are the instance's own: the caller's
    # array stays writable, and writing it, or a writable base of a view
    # given as W_C, changes neither.
    rng = np.random.default_rng(3)
    base = rng.standard_normal((12, 8))
    given = [base.copy(), base.copy()[2:10], base.copy()[:, :6]]
    for w in given:
        for src in (SourceWeights.create(w, [0, 1]),
                    SourceWeights(w, np.arange(len(w)) < 2)):
            assert w.flags.writeable
            assert src.weights.flags.c_contiguous and not src.weights.flags.writeable
            weights, rows = src.weights.copy(), src.standardized.copy()
            owner = w if w.base is None else w.base
            owner *= 2.0
            assert np.array_equal(src.weights, weights)
            assert np.array_equal(src.standardized, rows)
            owner /= 2.0


# --- building -----------------------------------------------------------------

def test_wtn_params_are_exactly_two_linear_layers():
    model = make_model("wtn", seed=0)
    names = [p.name for p in model.parameters()]
    assert names == ["enc1.weight", "enc1.bias", "enc2.weight", "enc2.bias"]
    assert [type(layer) for layer in model.encoder] == [Linear, ReLU, Linear]
    assert model.decoder is None


def test_wtn_plus_has_standardizer_and_groupnorm_no_decoder():
    src = small_source()
    model = make_model("wtn_plus", src, seed=0)
    assert [type(layer) for layer in model.encoder] == [Linear, GroupNorm, ReLU, Linear]
    w = src.weights
    assert model.inputs(src) is src.standardized
    assert np.array_equal(src.standardized, (w - w.mean(axis=0)) / (w.std(axis=0) + 1e-5))
    assert make_model("wtn_plus_gn_only", src, seed=0).inputs(src) is src.weights
    assert any("enc_norm" in p.name for p in model.parameters())
    assert model.decoder is None


@pytest.mark.parametrize("variant", ["wtn", "wtn_plus", "ae_wtn"])
def test_model_width_is_the_source_width(variant):
    src = small_source(d=6)
    model = make_model(variant, src, dim=16, groups=4)
    assert model.encoder[-1].weight.data.shape == (6, 16)
    assert model.encode(src).shape == (12, 6)
    if model.has_decoder:
        assert model.decode(model.encode(src)).shape == (12, 6)


def test_ae_wtn_encoder_decoder_param_counts_match():
    src = small_source()
    model = make_model("ae_wtn", src, seed=0)
    enc = model.encoder_size
    dec = model.data.size - model.encoder_size
    assert enc == dec > 0


def test_same_seed_identical_init():
    src = small_source()
    a = make_model("ae_wtn", src, seed=3)
    b = make_model("ae_wtn", src, seed=3)
    assert matrix_hash(a.data) == matrix_hash(b.data)


@pytest.mark.parametrize("variant", ["wtn", "wtn_plus", "ae_wtn"])
def test_params_are_views_tiling_the_store_in_order(variant):
    model = make_model(variant, small_source(), seed=0)
    assert model.data.dtype == model.grad.dtype == np.float64
    assert model.data.shape == model.grad.shape == (model.data.size,)
    start = 0
    for p in model.parameters():
        stop = start + p.data.size
        assert p.grad.shape == p.data.shape
        assert np.shares_memory(p.data, model.data) and np.shares_memory(p.grad, model.grad)
        # A write through the view lands in the Param's own slice of the store.
        p.data[...] = start + np.arange(p.data.size).reshape(p.data.shape)
        p.grad[...] = -p.data
        start = stop
    assert start == model.data.size
    assert np.array_equal(model.data, np.arange(model.data.size))
    assert np.array_equal(model.grad, -model.data)
    encoder = [p for layer in model.encoder for p in layer.params()]
    assert model.encoder_size == sum(p.data.size for p in encoder)
    assert model.parameters()[:len(encoder)] == encoder
    model.zero_grad()
    assert not model.grad.any()


def test_group_divisibility_checked():
    with pytest.raises(ConfigError):
        make_model("wtn_plus", small_source(), hidden_dim=9)


def test_unknown_variant_rejected():
    with pytest.raises(ConfigError):
        make_model("wtn_minus", seed=0)


# --- transfer -----------------------------------------------------------------

@pytest.mark.parametrize("variant", ["wtn", "wtn_plus", "ae_wtn"])
def test_transfer_row_permutation_equivariance(variant):
    src = small_source(1)
    model = make_model(variant, src, seed=1)
    w = np.random.default_rng(2).standard_normal((10, 8))
    perm = np.random.default_rng(3).permutation(10)
    a = model.encode(SourceWeights.create(w, []))[perm]
    b = model.encode(SourceWeights.create(w[perm], []))
    assert np.allclose(a, b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", ["wtn", "wtn_plus", "ae_wtn"])
def test_transfer_row_independence(variant):
    src = small_source(4)
    model = make_model(variant, src, seed=4)
    x = model.inputs(SourceWeights.create(np.random.default_rng(5).standard_normal((6, 8)), []))
    full = through(model.encoder, x)
    for i in range(6):
        single = through(model.encoder, x[i:i + 1])
        assert np.max(np.abs(single[0] - full[i])) < 1e-12


def test_transfer_shape_error():
    for variant in ("wtn", "wtn_plus", "ae_wtn"):
        model = make_model(variant, seed=0)
        with pytest.raises(ShapeError):
            model.encode(SourceWeights.create(np.zeros((3, 9)), []))
    with pytest.raises(ShapeError):
        SourceWeights.create(np.zeros(8), [])


def test_reconstruct_shape_and_state_error():
    src = small_source(6)
    ae = make_model("ae_wtn", src, seed=6)
    out = ae.decode(ae.encode(src))
    assert out.shape == src.weights.shape
    plain = make_model("wtn", seed=6)
    with pytest.raises(StateError):
        plain.decode(plain.encode(src))


def test_reconstruction_loss_decreases_with_training():
    # 100 AdamW steps on the reconstruction objective alone must reduce it.
    src = small_source(7, n=20, shared=8, d=8)
    model = make_model("ae_wtn", src, seed=7)
    opt = AdamW(model.data, model.grad, lr=1e-3, weight_decay=0.0)
    first = None
    for _ in range(100):
        recon = model.decode(model.encode(src))
        lv = smooth_l1(recon, src.weights)
        if first is None:
            first = lv.value
        model.encode_backward(model.decode_backward(lv.grad))
        opt.step()
        opt.zero_grad()
    last = smooth_l1(model.decode(model.encode(src)), src.weights).value
    assert first > 0.0
    assert last < first


def test_reconstruction_gradient_reaches_encoder():
    src = small_source(8)
    model = make_model("ae_wtn", src, seed=8)
    recon = model.decode(model.encode(src))
    lv = smooth_l1(recon, src.weights)
    model.encode_backward(model.decode_backward(lv.grad))
    assert np.abs(model.grad[:model.encoder_size]).max() > 0.0


def test_overfit_capacity_oracle_rank_limited_reconstruction():
    # A rank-limited weight matrix fits through the bottleneck; driving the
    # reconstruction objective alone reaches a tiny loss.
    rng = np.random.default_rng(9)
    w = (rng.standard_normal((24, 4)) @ rng.standard_normal((4, 8))) * 0.3
    src = SourceWeights.create(w, list(range(10)))
    model = make_model("ae_wtn", src, seed=9)
    opt = AdamW(model.data, model.grad, lr=3e-3, weight_decay=0.0)
    for _ in range(3000):
        recon = model.decode(model.encode(src))
        lv = smooth_l1(recon, src.weights)
        model.encode_backward(model.decode_backward(lv.grad))
        opt.step()
        opt.zero_grad()
    final = smooth_l1(model.decode(model.encode(src)), src.weights).value
    assert final < 1e-3


# --- scoring -------------------------------------------------------------------

def test_score_one_hot_feature_reads_weight_column():
    head = DetectionProxyHead(n_other=2, d_feat=5)
    head.other_weights.data[...] = np.arange(10).reshape(2, 5)
    w = np.arange(15, dtype=float).reshape(3, 5)
    feats = np.zeros((1, 5))
    feats[0, 2] = 1.0
    logits = head.score(feats, w)
    stack = np.vstack([w, head.other_weights.data])
    assert np.array_equal(logits[0], stack[:, 2])


def test_score_zero_features_zero_logits():
    head = DetectionProxyHead(n_other=2, d_feat=4)
    head.other_weights.data[...] = 1.0
    logits = head.score(np.zeros((3, 4)), np.ones((5, 4)))
    assert np.all(logits == 0.0)


def test_score_matches_double_loop_oracle():
    rng = np.random.default_rng(10)
    head = DetectionProxyHead(n_other=3, d_feat=6)
    head.other_weights.data[...] = rng.standard_normal((3, 6))
    w = rng.standard_normal((4, 6))
    feats = rng.standard_normal((5, 6))
    logits = head.score(feats, w)
    stack = np.vstack([w, head.other_weights.data])
    for i in range(5):
        for c in range(7):
            want = sum(feats[i, j] * stack[c, j] for j in range(6))
            assert abs(logits[i, c]) - abs(want) < 1e-12
            assert abs(logits[i, c] - want) < 1e-12 * max(1.0, abs(want))


def test_score_dim_mismatch():
    head = DetectionProxyHead(n_other=1, d_feat=4)
    with pytest.raises(ShapeError):
        head.score(np.zeros((2, 5)), np.zeros((3, 4)))
    with pytest.raises(ShapeError):
        head.score(np.zeros((2, 4)), np.zeros((3, 5)))


# --- joint training -----------------------------------------------------------

def test_train_freezes_source_and_isolates_decoder_at_alpha_zero(tiny_bench):
    bench = tiny_bench
    mc = ModelConfig(variant="ae_wtn", hidden_dim=16, groups=4)
    model = TransferModel(mc, bench.source, seed=1)
    head = DetectionProxyHead(bench.num_other, bench.d_feat)
    before = matrix_hash(bench.source.weights)
    decoder_before = model.data[model.encoder_size:].copy()
    report = train_joint(model, head, bench.source, bench,
                         TrainConfig(iterations=500, batch_size=32, alpha=0.0, seed=1))
    assert report.w_c_hash_before == report.w_c_hash_after == before
    assert np.array_equal(model.data[model.encoder_size:], decoder_before)
    assert report.decoder_hash_init == report.decoder_hash_final


def test_train_report_curves_and_csv(tiny_bench, tmp_path):
    bench = tiny_bench
    cfg = tiny_experiment(bench, iterations=40)
    model = TransferModel(cfg.model_config("wtn_plus"), bench.source, seed=2)
    head = DetectionProxyHead(bench.num_other, bench.d_feat)
    report = train_joint(model, head, bench.source, bench, cfg.train_config(2))
    assert len(report.losses) == 40
    assert all(l_rec == 0.0 and total == l_cls for l_cls, l_rec, total in report.losses)
    assert (report.final_l_cls, report.final_l_rec, report.final_total) == report.losses[-1]

    # train_run trains the same run and writes its losses, one line per iteration.
    res = train_run(cfg, "wtn_plus", 2, str(tmp_path), bench=bench)
    assert res["report"].losses == report.losses
    lines = (tmp_path / "losses__wtn_plus__seed2.csv").read_text().splitlines()
    assert lines[0] == "iteration,l_cls,l_rec,total"
    assert lines[1:] == [f"{it},{l_cls!r},{l_rec!r},{total!r}"
                         for it, (l_cls, l_rec, total) in enumerate(report.losses)]


def test_train_diverged_names_iteration(tiny_bench):
    bench = tiny_bench
    mc = ModelConfig(variant="wtn", hidden_dim=16, groups=4)
    model = TransferModel(mc, bench.source, seed=3)
    head = DetectionProxyHead(bench.num_other, bench.d_feat)
    with pytest.raises(TrainingDiverged) as exc:
        train_joint(model, head, bench.source, bench,
                    TrainConfig(iterations=50, batch_size=32, adamw_lr=1e308, seed=3))
    assert exc.value.iteration >= 0
    assert str(exc.value.iteration) in str(exc.value)


def test_train_diverged_survives_pickling():
    # Sweep workers send this exception back to the parent process.
    err = pickle.loads(pickle.dumps(TrainingDiverged(17)))
    assert err.iteration == 17
    assert str(err) == "non-finite loss at iteration 17"
    err = pickle.loads(pickle.dumps(TrainingDiverged(4, "custom message")))
    assert (err.iteration, str(err)) == (4, "custom message")


def test_train_deterministic_reports(tiny_bench):
    bench = tiny_bench

    def one():
        mc = ModelConfig(variant="ae_wtn", hidden_dim=16, groups=4)
        model = TransferModel(mc, bench.source, seed=5)
        head = DetectionProxyHead(bench.num_other, bench.d_feat)
        rep = train_joint(model, head, bench.source, bench,
                          TrainConfig(iterations=60, batch_size=32, seed=5))
        return rep.to_json(), matrix_hash(model.data)

    (r1, h1), (r2, h2) = one(), one()
    assert r1 == r2
    assert h1 == h2


def test_end_to_end_gradients_match_finite_differences():
    # miniature instance: |C|=6, |S|=3, d=8, hidden=8, G=2, batch=4
    model, head, source, feats, labels = miniature_setup(seed=123)
    f = lambda: joint_losses(model, head, source, feats, labels, 20.0)[2]
    joint_losses(model, head, source, feats, labels, 20.0, backprop=True)
    for p in model.parameters() + [head.other_weights]:
        assert max_relative_error(p.grad, numeric_gradient(f, p.data)) < 1e-4, p.name


@pytest.mark.parametrize("variant", ["wtn", "wtn_plus"])
def test_shared_rows_only_gradients_match_finite_differences(variant):
    # These variants encode only the shared rows; the check covers that path.
    model, head, source, feats, labels = miniature_setup(seed=123, variant=variant)
    f = lambda: joint_losses(model, head, source, feats, labels, 20.0)[2]
    joint_losses(model, head, source, feats, labels, 20.0, backprop=True)
    for p in model.parameters() + [head.other_weights]:
        assert max_relative_error(p.grad, numeric_gradient(f, p.data)) < 1e-4, p.name


def all_rows_joint_losses(model, head, source, features, labels, alpha):
    """The oracle: the joint pass with every class row through the encoder and
    the shared rows' gradients scattered into zeros."""
    shared_idx = source.shared_index
    out_all = model.encode(source)
    l_cls = sigmoid_bce(head.score(features, out_all[shared_idx]), labels)
    l_rec = None
    if model.has_decoder and alpha != 0.0:
        l_rec = smooth_l1(model.decode(out_all), source.weights)
    dstack = l_cls.grad.T @ features
    n_s = len(shared_idx)
    head.other_weights.grad += dstack[n_s:]
    dout_all = np.zeros_like(out_all)
    dout_all[shared_idx] += dstack[:n_s]
    if l_rec is None:
        total = l_cls.value
    else:
        total = l_cls.value + alpha * l_rec.value
        dout_all += model.decode_backward(alpha * l_rec.grad)
    model.encode_backward(dout_all)
    return l_cls, l_rec, total


def joint_pass(joint, bench, variant, alpha, overrides, monkeypatch):
    """One backprop pass of ``joint`` at the default sizes on a model moved off
    its init; returns the losses, the model, the head and the row count of
    every Linear.forward input."""
    rng = np.random.default_rng(11)
    model = TransferModel(ModelConfig(variant, **overrides), bench.source, seed=4)
    model.data += 0.1 * rng.standard_normal(model.data.size)
    head = DetectionProxyHead(bench.num_other, bench.d_feat)
    head.other_weights.data[...] = 0.1 * rng.standard_normal(head.other_weights.data.shape)
    feats, labels = bench.sample("train", 128, rng)
    rows = []
    forward = Linear.forward

    def recording(self, x):
        rows.append(x.shape[0])
        return forward(self, x)

    with monkeypatch.context() as m:
        m.setattr(Linear, "forward", recording)
        l_cls, _, total = joint(model, head, bench.source, feats, labels, alpha)
    return l_cls, total, model, head, rows


CB = {"norm_kind": "class_batch"}


# Every variant x alpha {0, 20} x norm kind (group is the default), and
# whether the encoder sees every class row: reconstruction reads every row,
# and class-batch statistics mix them.
@pytest.mark.parametrize("variant, alpha, overrides, all_rows", [
    ("wtn", 20.0, {}, False),
    ("wtn_plus", 20.0, {}, False),
    ("ae_wtn", 0.0, {}, False),
    ("wtn_plus_in_only", 20.0, CB, False),
    ("wtn_plus", 20.0, CB, True),
    ("ae_wtn", 20.0, {}, True),
    ("wtn", 0.0, {}, False),
    ("wtn_plus_in_only", 0.0, {}, False),
    ("wtn_plus_in_only", 20.0, {}, False),
    ("wtn_plus_gn_only", 0.0, {}, False),
    ("wtn_plus_gn_only", 20.0, {}, False),
    ("wtn_plus", 0.0, {}, False),
    ("wtn", 0.0, CB, False),
    ("wtn", 20.0, CB, False),
    ("wtn_plus_in_only", 0.0, CB, False),
    ("wtn_plus_gn_only", 0.0, CB, True),
    ("wtn_plus_gn_only", 20.0, CB, True),
    ("wtn_plus", 0.0, CB, True),
    ("ae_wtn", 0.0, CB, True),
    ("ae_wtn", 20.0, CB, True),
])
def test_joint_losses_matches_the_all_rows_oracle_bitwise(default_bench, monkeypatch,
                                                          variant, alpha, overrides, all_rows):
    def joint(*args):
        return joint_losses(*args, backprop=True)

    got = joint_pass(joint, default_bench, variant, alpha, overrides, monkeypatch)
    want = joint_pass(all_rows_joint_losses, default_bench, variant, alpha, overrides,
                      monkeypatch)
    (l_cls, total, model, head, rows), (l_cls0, total0, model0, head0, _) = got, want
    assert l_cls.value == l_cls0.value and total == total0
    assert np.array_equal(l_cls.grad, l_cls0.grad)
    assert np.array_equal(model.grad, model0.grad)
    assert np.array_equal(head.other_weights.grad, head0.other_weights.grad)
    source = default_bench.source
    encoded = source.num_classes if all_rows else len(source.shared_index)
    assert set(rows) == {encoded}


@pytest.mark.parametrize("variant, alpha", [("wtn", 20.0), ("wtn_plus", 20.0),
                                            ("ae_wtn", 0.0), ("ae_wtn", 20.0)])
def test_train_joint_does_no_work_for_the_frozen_input(tiny_bench, monkeypatch, variant, alpha):
    # The standardized W_C is computed once, and nothing backpropagates into
    # W_C: the first Linear computes no input gradient, and only accumulates
    # its parameter gradients.
    source = SourceWeights(tiny_bench.source.weights, tiny_bench.source.shared_mask)
    model = make_model(variant, source, dim=16, groups=4, seed=8)
    head = DetectionProxyHead(tiny_bench.num_other, tiny_bench.d_feat)
    calls = []

    def spy(cls, name):
        method = getattr(cls, name)

        def recording(self, *args):
            calls.append((name, self))
            return method(self, *args)
        monkeypatch.setattr(cls, name, recording)

    standardize = SourceWeights.__dict__["standardized"].func

    def counting(self):
        calls.append(("standardized", self))
        return standardize(self)
    standardized = functools.cached_property(counting)
    standardized.__set_name__(SourceWeights, "standardized")
    monkeypatch.setattr(SourceWeights, "standardized", standardized)
    spy(Linear, "backward")
    spy(Linear, "backward_params")
    train_joint(model, head, source, tiny_bench,
                TrainConfig(iterations=5, batch_size=32, alpha=alpha, seed=8))
    assert [call for call in calls if call[0] == "standardized"] == \
        [("standardized", source)] * METHODS[variant].input_norm
    first = model.encoder[0]
    assert isinstance(first, Linear)
    assert calls.count(("backward_params", first)) == 5
    assert ("backward", first) not in calls


def test_model_input_follows_the_source_it_is_given(tiny_bench):
    # A model built for one source and run on it gives, for another source,
    # the losses and gradients of the whole encoder on that source, which it
    # standardizes by that source's own statistics.
    rng = np.random.default_rng(12)
    feats, labels = tiny_bench.sample("train", 32, rng)
    first = tiny_bench.source
    w = rng.standard_normal(first.weights.shape)

    def pass_on(joint, source, filled_from=None):
        model = make_model("wtn_plus", first, dim=16, groups=4, seed=9)
        head = DetectionProxyHead(tiny_bench.num_other, tiny_bench.d_feat)
        if filled_from is not None:
            joint_losses(model, head, filled_from, feats, labels_of(filled_from), 20.0)
        l_cls, _, total = joint(model, head, source, feats, labels_of(source), 20.0)
        return l_cls.value, total, model.grad.copy()

    def labels_of(source):
        # A source with a class fewer in its shared list drops its label column.
        return labels[:, len(first.shared_index) - len(source.shared_index):]

    def joint(*args):
        return joint_losses(*args, backprop=True)

    for source in (SourceWeights.create(w, first.shared_index),
                   SourceWeights.create(first.weights, first.shared_index[1:])):
        got = pass_on(joint, source, first)
        want = pass_on(all_rows_joint_losses, source)
        assert got[:2] == want[:2] and np.array_equal(got[2], want[2])


# --- export --------------------------------------------------------------------

def test_exported_weights_shape_and_bitwise_scoring(tiny_bench, tmp_path):
    bench = tiny_bench
    res = train_run(tiny_experiment(bench, iterations=50), "ae_wtn", 6, str(tmp_path),
                    bench=bench)
    model, head = res["model"], res["head"]
    exported = load_matrix_npy(str(tmp_path / "weights__ae_wtn__seed6.npy"))
    assert exported.shape == (bench.source.num_classes, 16)
    assert np.array_equal(exported, res["w_d"])

    feats = bench.split("eval_seen").features[:10]
    in_process = head.score(feats, model.encode(bench.source))
    from_file = head.score(feats, exported)
    assert np.array_equal(in_process, from_file)

    novel_rows = exported[bench.source.novel_index]
    recomputed = through(model.encoder, model.inputs(bench.source)[bench.source.novel_index])
    assert np.max(np.abs(novel_rows - recomputed)) < 1e-12


# --- baselines -----------------------------------------------------------------

def test_nn_baseline_inherits_exact_match_row():
    rng = np.random.default_rng(11)
    w = rng.standard_normal((8, 6))
    w[5] = w[2]                      # novel class 5 duplicates seen class 2
    src = SourceWeights.create(w, [0, 1, 2, 3])
    w_seen = rng.standard_normal((4 + 2, 6))[:4]
    w_d = baseline_nn_transfer(w_seen, src, k=1)
    assert np.array_equal(w_d[5], w_seen[2])
    assert np.array_equal(w_d[:4], w_seen)


def test_nn_baseline_matches_brute_force_oracle():
    # The second case, 150 novel rows against 150 seen rows of 16, takes
    # several 1 MB distance blocks; novel rows that repeat seen rows, and seen
    # rows that repeat each other, tie exactly, and the tie goes to the lower
    # index.
    rng = np.random.default_rng(12)
    cases = [(rng.standard_normal((30, 8)), 12, rng.standard_normal((15, 8))),
             (rng.standard_normal((300, 16)), 150, rng.standard_normal((153, 16)))]
    big = cases[1][0]
    big[1:40:2] = big[0:40:2]
    big[150:190] = big[0:40]
    for w, n_shared, head_rows in cases:
        src = SourceWeights.create(w, list(range(n_shared)))
        w_seen = head_rows[:n_shared]
        shared, novel = src.shared_index, src.novel_index
        for k in (1, 3):
            got = baseline_nn_transfer(w_seen, src, k=k)
            assert np.array_equal(got[shared], w_seen)
            for n in novel:
                dists = sorted((np.sum((src.weights[n] - src.weights[s]) ** 2), j)
                               for j, s in enumerate(shared))
                nearest = [j for _, j in dists[:k]]
                assert np.array_equal(got[n], w_seen[nearest].mean(axis=0))


def test_nn_copy_novel_logits_tie_their_copy_at_k1_and_trail_their_sources_at_k3(tiny_bench):
    # Why the NN copy's novel top-1 depends on k. With k = 1 a novel class's
    # logit equals that of the seen class it copies on every example, and
    # the argmax gives that tie to the lower id. With k = 3 a novel row's
    # logit never exceeds the largest logit of its three source rows, which
    # the novel split ranks too.
    src = tiny_bench.source
    w_seen, head = train_conventional_head(src, tiny_bench, "plain",
                                           TrainConfig(iterations=60, batch_size=32, seed=1))
    shared, novel = src.shared_index, src.novel_index
    feats = tiny_bench.split("eval_novel").features
    for k in (1, 3):
        sources = shared[nearest_rows(src.weights[novel], src.weights[shared], k)[0]]
        logits = head.score(feats, baseline_nn_transfer(w_seen, src, k=k))
        if k == 1:
            assert np.array_equal(logits[:, novel], logits[:, sources[:, 0]])
        else:
            assert np.all(logits[:, novel] <= logits[:, sources].max(axis=2))


def test_lsda_baseline_matches_brute_force_oracle():
    rng = np.random.default_rng(16)
    src = SourceWeights.create(rng.standard_normal((30, 8)), list(range(12)))
    w_seen = rng.standard_normal((12, 8))
    shared, novel = src.shared_index, src.novel_index
    for k in (1, 3):
        got = baseline_lsda_bias(w_seen, src, k=k)
        assert np.array_equal(got[shared], w_seen)
        for n in novel:
            dists = sorted((np.sum((src.weights[n] - src.weights[s]) ** 2), j)
                           for j, s in enumerate(shared))
            nearest = [j for _, j in dists[:k]]
            offset = np.mean([w_seen[j] - src.weights[shared[j]] for j in nearest], axis=0)
            assert np.allclose(got[n], src.weights[n] + offset, rtol=0, atol=1e-15)


def test_nn_baseline_k_out_of_range():
    src = small_source(13, n=10, shared=4)
    w_seen = np.zeros((4, 8))
    with pytest.raises(ValueError):
        baseline_nn_transfer(w_seen, src, k=5)
    with pytest.raises(ValueError):
        baseline_nn_transfer(w_seen, src, k=0)


def test_lsda_zero_biases_returns_source_rows():
    # Seen rows equal to their W_C rows have a zero offset, so every row of
    # W_D is its W_C row.
    src = small_source(14, n=10, shared=4, d=8)
    out = baseline_lsda_bias(src.weights[src.shared_index], src, k=2)
    assert np.array_equal(out, src.weights)


def test_baselines_require_one_row_per_seen_class():
    src = small_source(15, n=10, shared=4)
    for baseline in (baseline_nn_transfer, baseline_lsda_bias):
        for shape in ((5, 8), (3, 8), (1, 8), (4, 7)):
            with pytest.raises(ShapeError, match="do not match the 4 seen classes of width 8"):
                baseline(np.zeros(shape), src, k=1)


def test_conventional_head_trains_and_reports_modes(tiny_bench):
    bench = tiny_bench
    for mode in ("plain", "lsda"):
        w_seen, head = train_conventional_head(bench.source, bench, mode,
                                               TrainConfig(iterations=60, batch_size=32, seed=1))
        assert w_seen.shape == (10, 16)
        assert isinstance(head, DetectionProxyHead)
        assert head.other_weights.data.shape == (3, 16)
        assert np.all(head.other_weights.grad == 0.0)
        base = bench.source.weights[bench.source.shared_index] if mode == "lsda" else 0.0
        assert np.any(w_seen != base) and np.any(head.other_weights.data != 0.0)


def stacked_conventional_head(source, data, mode, iterations, batch_size, seed,
                              lr=0.02, momentum=0.9, weight_decay=1e-4):
    """The reference loop: one SGDMomentum over the stacked [seen; other]
    rows, learned on top of a fixed base (the W_C seen rows in lsda mode,
    zeros otherwise) and scored as ``feats @ (base + learned).T``. Returns the
    seen rows and the "other" rows."""
    shared_idx = source.shared_index
    n_s = len(shared_idx)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    base = np.zeros((n_s + data.num_other, source.dim))
    if mode == "lsda":
        base[:n_s] = source.weights[shared_idx]
    learned, grad = np.zeros_like(base), np.zeros_like(base)
    opt = SGDMomentum(learned, grad, lr=lr, momentum=momentum, weight_decay=weight_decay)
    for _ in range(iterations):
        feats, labels = data.sample("train", batch_size, rng)
        lv = sigmoid_bce(feats @ (base + learned).T, labels)
        grad += lv.grad.T @ feats
        opt.step()
        opt.zero_grad()
    weights = base + learned
    return weights[:n_s], weights[n_s:]


@pytest.mark.parametrize("mode", ["plain", "lsda"])
def test_conventional_head_matches_the_stacked_reference_bitwise(tiny_bench, mode):
    w_seen, head = train_conventional_head(tiny_bench.source, tiny_bench, mode,
                                           TrainConfig(iterations=60, batch_size=32, seed=3))
    want_seen, want_other = stacked_conventional_head(tiny_bench.source, tiny_bench, mode,
                                                      iterations=60, batch_size=32, seed=3)
    assert np.array_equal(w_seen, want_seen)
    assert np.array_equal(head.other_weights.data, want_other)


@pytest.mark.parametrize("mode, baseline", [("plain", baseline_nn_transfer),
                                            ("lsda", baseline_lsda_bias)])
def test_baseline_w_d_and_head_are_scored_by_evaluate(tiny_bench, mode, baseline):
    bench = tiny_bench
    w_seen, head = train_conventional_head(bench.source, bench, mode,
                                           TrainConfig(iterations=200, batch_size=32, seed=1))
    w_d = baseline(w_seen, bench.source, k=2)
    assert w_d.shape == bench.source.weights.shape
    assert np.array_equal(w_d[bench.source.shared_index], w_seen)
    seen = evaluate(head, w_d, bench, "eval_seen", k=3)
    novel = evaluate(head, w_d, bench, "eval_novel", k=3)
    # The seen split ranks over the detector's classes, the novel one over all.
    assert seen.top1 == top1_over(head, w_d, bench, "eval_seen",
                                  [*bench.source.shared_index, 24, 25, 26])
    assert novel.top1 == top1_over(head, w_d, bench, "eval_novel", range(24 + 3))
    # 13 detector classes: chance top-1 is about 0.08.
    assert seen.top1 > 0.5
    assert 0.0 <= novel.top1 <= novel.recall_k <= 1.0
