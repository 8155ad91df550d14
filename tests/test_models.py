import json
import pickle

import numpy as np
import pytest

from wtx.errors import ConfigError, ShapeError, StateError, TrainingDiverged
from wtx.gradcheck import max_relative_error, miniature_setup, numeric_gradient
from wtx.losses import smooth_l1
from wtx.matrix import load_matrix_json, matrix_hash
from wtx.models import (DetectionProxyHead, ModelConfig, SourceWeights,
                        TrainConfig, TransferModel, baseline_lsda_bias,
                        baseline_nn_transfer, export_transferred,
                        joint_losses, load_model_params, save_model_params,
                        train_conventional_head, train_joint)
from wtx.optim import AdamW

from conftest import make_model


def small_source(seed=0, n=12, shared=5, d=8):
    rng = np.random.default_rng(seed)
    return SourceWeights.create(rng.standard_normal((n, d)), list(range(shared)))


# --- source weights -----------------------------------------------------------

def test_source_masks_partition():
    src = small_source()
    assert not np.any(src.shared_mask & src.novel_mask)
    assert np.all(src.shared_mask | src.novel_mask)


def test_source_weights_are_read_only():
    src = small_source()
    with pytest.raises(ValueError):
        src.weights[0, 0] = 1.0


# --- building -----------------------------------------------------------------

def test_wtn_params_are_exactly_two_linear_layers():
    model = make_model("wtn", seed=0)
    names = [p.name for p in model.parameters()]
    assert names == ["enc1.weight", "enc1.bias", "enc2.weight", "enc2.bias"]
    assert model.standardizer is None and model.decoder is None


def test_wtn_plus_has_standardizer_and_groupnorm_no_decoder():
    src = small_source()
    model = make_model("wtn_plus", src, seed=0)
    assert model.standardizer is not None
    assert any("enc_norm" in p.name for p in model.parameters())
    assert model.decoder is None


def test_ae_wtn_encoder_decoder_param_counts_match():
    src = small_source()
    model = make_model("ae_wtn", src, seed=0)
    enc = sum(p.data.size for p in model.encoder_parameters())
    dec = sum(p.data.size for p in model.decoder_parameters())
    assert enc == dec > 0


def test_same_seed_identical_init():
    src = small_source()
    a = make_model("ae_wtn", src, seed=3)
    b = make_model("ae_wtn", src, seed=3)
    assert a.params_hash() == b.params_hash()


def test_group_divisibility_checked():
    with pytest.raises(ConfigError):
        make_model("wtn_plus", small_source(), hidden_dim=9)


def test_unknown_variant_rejected():
    with pytest.raises(ConfigError):
        make_model("wtn_minus", seed=0)


def test_input_norm_requires_source():
    with pytest.raises(ConfigError):
        make_model("wtn_plus", None, seed=0)


# --- transfer -----------------------------------------------------------------

@pytest.mark.parametrize("variant", ["wtn", "wtn_plus", "ae_wtn"])
def test_transfer_row_permutation_equivariance(variant):
    src = small_source(1)
    model = make_model(variant, src, seed=1)
    w = np.random.default_rng(2).standard_normal((10, 8))
    perm = np.random.default_rng(3).permutation(10)
    a = model.encode(w)[perm]
    b = model.encode(w[perm])
    assert np.allclose(a, b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", ["wtn", "wtn_plus", "ae_wtn"])
def test_transfer_row_independence(variant):
    src = small_source(4)
    model = make_model(variant, src, seed=4)
    w = np.random.default_rng(5).standard_normal((6, 8))
    full = model.encode(w)
    for i in range(6):
        single = model.encode(w[i:i + 1])
        assert np.max(np.abs(single[0] - full[i])) < 1e-12


def test_transfer_shape_error():
    model = make_model("wtn", seed=0)
    with pytest.raises(ShapeError):
        model.encode(np.zeros((3, 9)))


def test_reconstruct_shape_and_state_error():
    src = small_source(6)
    ae = make_model("ae_wtn", src, seed=6)
    out = ae.decode(ae.encode(src.weights))
    assert out.shape == src.weights.shape
    plain = make_model("wtn", seed=6)
    with pytest.raises(StateError):
        plain.decode(plain.encode(src.weights))


def test_reconstruction_loss_decreases_with_training():
    # 100 AdamW steps on the reconstruction objective alone must reduce it.
    src = small_source(7, n=20, shared=8, d=8)
    model = make_model("ae_wtn", src, seed=7)
    opt = AdamW(model.parameters(), lr=1e-3, weight_decay=0.0)
    first = None
    for _ in range(100):
        recon = model.decode(model.encode(src.weights))
        lv = smooth_l1(recon, src.weights)
        if first is None:
            first = lv.value
        model.encode_backward(model.decode_backward(lv.grad))
        opt.step()
        opt.zero_grad()
    last = smooth_l1(model.decode(model.encode(src.weights)), src.weights).value
    assert first > 0.0
    assert last < first


def test_reconstruction_gradient_reaches_encoder():
    src = small_source(8)
    model = make_model("ae_wtn", src, seed=8)
    recon = model.decode(model.encode(src.weights))
    lv = smooth_l1(recon, src.weights)
    model.encode_backward(model.decode_backward(lv.grad))
    grads = [np.abs(p.grad).max() for p in model.encoder_parameters()]
    assert max(grads) > 0.0


def test_overfit_capacity_oracle_rank_limited_reconstruction():
    # A rank-limited weight matrix fits through the bottleneck; driving the
    # reconstruction objective alone reaches a tiny loss.
    rng = np.random.default_rng(9)
    w = (rng.standard_normal((24, 4)) @ rng.standard_normal((4, 8))) * 0.3
    src = SourceWeights.create(w, list(range(10)))
    model = make_model("ae_wtn", src, seed=9)
    opt = AdamW(model.parameters(), lr=3e-3, weight_decay=0.0)
    for _ in range(3000):
        recon = model.decode(model.encode(src.weights))
        lv = smooth_l1(recon, src.weights)
        model.encode_backward(model.decode_backward(lv.grad))
        opt.step()
        opt.zero_grad()
    final = smooth_l1(model.decode(model.encode(src.weights)), src.weights).value
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
    mc = ModelConfig(variant="ae_wtn", in_dim=16, hidden_dim=16, out_dim=16, groups=4)
    model = TransferModel(mc, bench.source, seed=1)
    head = DetectionProxyHead(bench.num_other, bench.d_feat)
    before = matrix_hash(bench.source.weights)
    decoder_before = model.params_hash(model.decoder_parameters())
    report = train_joint(model, head, bench.source, bench,
                         TrainConfig(iterations=500, batch_size=32, alpha=0.0, seed=1))
    assert report.w_c_hash_before == report.w_c_hash_after == before
    assert model.params_hash(model.decoder_parameters()) == decoder_before
    assert report.decoder_hash_init == report.decoder_hash_final


def test_train_report_curves_and_csv(tiny_bench, tmp_path):
    bench = tiny_bench
    mc = ModelConfig(variant="wtn_plus", in_dim=16, hidden_dim=16, out_dim=16, groups=4)
    model = TransferModel(mc, bench.source, seed=2)
    head = DetectionProxyHead(bench.num_other, bench.d_feat)
    csv_path = str(tmp_path / "losses.csv")
    report = train_joint(model, head, bench.source, bench,
                         TrainConfig(iterations=40, batch_size=32, seed=2),
                         csv_path=csv_path)
    assert len(report.curve["l_cls"]) == 40
    lines = (tmp_path / "losses.csv").read_text().strip().splitlines()
    assert lines[0] == "iteration,l_cls,l_rec,total"
    assert len(lines) == 41
    assert report.final_l_cls == report.curve["l_cls"][-1]


def test_train_diverged_names_iteration(tiny_bench):
    bench = tiny_bench
    mc = ModelConfig(variant="wtn", in_dim=16, hidden_dim=16, out_dim=16, groups=4)
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
        mc = ModelConfig(variant="ae_wtn", in_dim=16, hidden_dim=16, out_dim=16, groups=4)
        model = TransferModel(mc, bench.source, seed=5)
        head = DetectionProxyHead(bench.num_other, bench.d_feat)
        rep = train_joint(model, head, bench.source, bench,
                          TrainConfig(iterations=60, batch_size=32, seed=5))
        return rep.to_json(), model.params_hash()

    (r1, h1), (r2, h2) = one(), one()
    assert r1 == r2
    assert h1 == h2


def test_end_to_end_gradients_match_finite_differences():
    # miniature instance: |C|=6, |S|=3, d=8, hidden=8, G=2, batch=4
    model, head, source, feats, labels = miniature_setup(seed=123)
    f = lambda: joint_losses(model, head, source, feats, labels, 20.0)[2]
    model.zero_grad()
    head.other_weights.zero_grad()
    joint_losses(model, head, source, feats, labels, 20.0, backprop=True)
    for p in model.parameters() + [head.other_weights]:
        assert max_relative_error(p.grad, numeric_gradient(f, p.data)) < 1e-4, p.name


# --- export --------------------------------------------------------------------

def test_export_shape_manifest_and_bitwise_scoring(tiny_bench, tmp_path):
    bench = tiny_bench
    mc = ModelConfig(variant="ae_wtn", in_dim=16, hidden_dim=16, out_dim=16, groups=4)
    model = TransferModel(mc, bench.source, seed=6)
    head = DetectionProxyHead(bench.num_other, bench.d_feat)
    train_joint(model, head, bench.source, bench,
                TrainConfig(iterations=50, batch_size=32, seed=6))

    path = str(tmp_path / "weights.json")
    export_transferred(model, bench.source, path)
    exported = load_matrix_json(path)
    assert exported.shape == (bench.source.num_classes, 16)

    feats = bench.split("eval_seen").features[:10]
    in_process = head.score(feats, model.encode(bench.source.weights))
    from_file = head.score(feats, exported)
    assert np.array_equal(in_process, from_file)

    novel_rows = exported[bench.source.novel_index]
    recomputed = model.encode(bench.source.weights[bench.source.novel_index])
    assert np.max(np.abs(novel_rows - recomputed)) < 1e-12

    with open(str(tmp_path / "weights.manifest.json")) as f:
        manifest = json.load(f)
    assert manifest["variant"] == "ae_wtn"
    assert len(manifest["shared_mask"]) == bench.source.num_classes


def test_model_params_round_trip(tiny_bench, tmp_path):
    bench = tiny_bench
    mc = ModelConfig(variant="wtn_plus", in_dim=16, hidden_dim=16, out_dim=16, groups=4)
    model = TransferModel(mc, bench.source, seed=8)
    head = DetectionProxyHead(bench.num_other, bench.d_feat)
    train_joint(model, head, bench.source, bench,
                TrainConfig(iterations=30, batch_size=32, seed=8))
    path = str(tmp_path / "params.json")
    save_model_params(model, path)
    clone = TransferModel(mc, bench.source, seed=8)
    load_model_params(clone, path)
    assert clone.params_hash() == model.params_hash()


# --- baselines -----------------------------------------------------------------

def test_nn_baseline_inherits_exact_match_row():
    rng = np.random.default_rng(11)
    w = rng.standard_normal((8, 6))
    w[5] = w[2]                      # novel class 5 duplicates seen class 2
    src = SourceWeights.create(w, [0, 1, 2, 3])
    head_rows = rng.standard_normal((4 + 2, 6))
    from wtx.models import ConventionalHead
    head = ConventionalHead(weights=head_rows, n_shared=4)
    novel_w = baseline_nn_transfer(head, src, k=1)
    # novel classes are [4, 5, 6, 7]; class 5 is row index 1 of the novel list
    assert np.array_equal(novel_w[1], head_rows[2])


def test_nn_baseline_matches_brute_force_oracle():
    rng = np.random.default_rng(12)
    src = SourceWeights.create(rng.standard_normal((30, 8)), list(range(12)))
    from wtx.models import ConventionalHead
    head = ConventionalHead(weights=rng.standard_normal((15, 8)), n_shared=12)
    got = baseline_nn_transfer(head, src, k=1)
    shared, novel = src.shared_index, src.novel_index
    for i, n in enumerate(novel):
        dists = [np.sum((src.weights[n] - src.weights[s]) ** 2) for s in shared]
        assert np.array_equal(got[i], head.weights[int(np.argmin(dists))])


def test_nn_baseline_k_out_of_range():
    src = small_source(13, n=10, shared=4)
    from wtx.models import ConventionalHead
    head = ConventionalHead(weights=np.zeros((6, 8)), n_shared=4)
    with pytest.raises(ValueError):
        baseline_nn_transfer(head, src, k=5)
    with pytest.raises(ValueError):
        baseline_nn_transfer(head, src, k=0)


def test_lsda_zero_biases_returns_source_rows():
    src = small_source(14, n=10, shared=4, d=8)
    from wtx.models import ConventionalHead
    head = ConventionalHead(weights=np.vstack([src.weights[src.shared_index],
                                               np.zeros((2, 8))]),
                            n_shared=4, lsda_biases=np.zeros((4, 8)))
    out = baseline_lsda_bias(head, src, k=2)
    assert np.array_equal(out, src.weights[src.novel_index])


def test_lsda_requires_biases():
    src = small_source(15, n=10, shared=4)
    from wtx.models import ConventionalHead
    head = ConventionalHead(weights=np.zeros((6, 8)), n_shared=4)
    with pytest.raises(StateError):
        baseline_lsda_bias(head, src, k=1)


def test_conventional_head_trains_and_reports_modes(tiny_bench):
    bench = tiny_bench
    plain = train_conventional_head(bench.source, bench, bench.d_feat,
                                    mode="plain", iterations=60, batch_size=32, seed=1)
    assert plain.lsda_biases is None
    assert plain.weights.shape == (10 + 3, 16)
    lsda = train_conventional_head(bench.source, bench, bench.d_feat,
                                   mode="lsda", iterations=60, batch_size=32, seed=1)
    assert lsda.lsda_biases is not None and lsda.lsda_biases.shape == (10, 16)
