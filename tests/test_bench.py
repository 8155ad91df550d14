import numpy as np
import pytest

import json
import os

import wtx.bench
from wtx.bench import (BenchConfig, Split, _train_source_classifier, generate_benchmark,
                       save_instance)
from wtx.errors import ConfigError, StateError
from wtx.evaluation import evaluate
from wtx.matrix import load_matrix_json, row_l2_norms
from wtx.models import DetectionProxyHead, ModelConfig, TrainConfig, TransferModel, train_joint

from conftest import tiny_config


def test_config_validation():
    with pytest.raises(ConfigError):
        BenchConfig(num_shared=200, num_classes=200).validate()
    with pytest.raises(ConfigError):
        BenchConfig(clusters=300).validate()
    with pytest.raises(ConfigError):
        BenchConfig(norm_imbalance=0.5).validate()
    with pytest.raises(ConfigError):
        BenchConfig(eval_samples_per_class=3, min_eval_examples=10).validate()
    with pytest.raises(ConfigError):
        BenchConfig(manifold_dim=100, dim=64).validate()
    for key in ("source_batch", "source_epochs", "min_eval_examples"):
        with pytest.raises(ConfigError, match=key):
            BenchConfig(**{key: 0}).validate()


def test_zero_noise_features_equal_prototypes_and_separable():
    cfg = tiny_config(noise_std=0.0, norm_imbalance=1.0, domain_rotation=0.0,
                      domain_warp=0.0, source_epochs=20, source_lr=40.0)
    bench = generate_benchmark(cfg, seed=0)
    protos = bench.prototypes.prototypes
    sp = bench.split("eval_novel")
    for i in range(0, len(sp.primary), 7):
        assert np.array_equal(sp.features[i], protos[sp.primary[i]])
    # a well-trained source classifier on clean separable data nails its classes
    logits = protos @ bench.source.weights.T
    top1 = np.mean(np.argmax(logits, axis=1) == np.arange(len(protos)))
    assert top1 >= 0.98


def test_norm_imbalance_levels(default_bench):
    flat = generate_benchmark(tiny_config(norm_imbalance=1.0), seed=0)
    assert flat.measured["norm_ratio"] < 2.0
    # the full-size default configuration achieves the target ratio
    assert default_bench.measured["norm_ratio"] >= 20.0


def test_same_seed_byte_identical_serialization(tmp_path):
    cfg = tiny_config()
    a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
    save_instance(generate_benchmark(cfg, seed=5), a_dir)
    save_instance(generate_benchmark(cfg, seed=5), b_dir)
    names = sorted(os.listdir(a_dir))
    assert names == sorted(os.listdir(b_dir))
    for name in names:
        with open(os.path.join(a_dir, name), "rb") as fa, \
             open(os.path.join(b_dir, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_fingerprint_tracks_the_benchmark(tiny_bench):
    assert generate_benchmark(tiny_config(), seed=7).fingerprint() == tiny_bench.fingerprint()
    other = generate_benchmark(tiny_config(noise_std=0.31), seed=7)
    assert other.fingerprint() != tiny_bench.fingerprint()


def read_csv_matrix(path):
    with open(path) as f:
        return np.asarray([[float(x) for x in line.split(",")] for line in f])


def test_instance_round_trip(tmp_path):
    # The export is one-way, so the test parses it back itself, and rebuilds
    # the dense per-example labels from the class-label and primary files.
    bench = generate_benchmark(tiny_config(), seed=3)
    total_cols = bench.source.num_classes + bench.num_other
    d = tmp_path / "inst"
    save_instance(bench, str(d))
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["shared_ids"] == bench.source.shared_index.tolist()
    assert np.array_equal(load_matrix_json(str(d / "source_weights.json")),
                          bench.source.weights)
    assert np.array_equal(load_matrix_json(str(d / "rotation.json")), bench.rotation)
    assert not list(d.glob("*_features.csv"))
    for name, sp in bench.splits.items():
        features = np.load(d / f"{name}_features.npy", allow_pickle=False)
        assert same_bits(features, sp.features)      # float64, the split's shape, every bit
        primary = read_csv_matrix(d / f"{name}_primary.csv").ravel()
        assert np.array_equal(primary, sp.primary)
        class_labels = json.loads((d / f"{name}_class_labels.json").read_text())
        assert list(class_labels) == [str(c) for c in sp.class_ids]
        dense = np.zeros((len(primary), total_cols))
        for i, c in enumerate(primary):
            dense[i, class_labels[str(int(c))]] = 1.0
        assert same_bits(dense, sp.class_labels[sp.class_index])


def test_no_novel_leakage_into_training(tiny_bench):
    bench = tiny_bench
    novel = set(int(i) for i in bench.source.novel_index)
    train = bench.split("train")
    labeled = set(int(c) for c in np.flatnonzero(train.class_labels.any(axis=0)))
    assert labeled & novel == set()
    assert set(int(u) for u in train.universe) & novel == set()


def test_every_class_has_min_eval_examples(tiny_bench):
    bench = tiny_bench
    cfg = bench.config
    for name in ("eval_seen", "eval_novel"):
        sp = bench.split(name)
        counts = np.bincount(sp.primary, minlength=cfg.num_classes + cfg.num_other)
        present = np.unique(sp.primary)
        assert np.all(counts[present] >= cfg.min_eval_examples)


def test_neighborhood_structure_same_cluster(default_bench):
    # stated for the default configuration; small instances are too crowded
    assert default_bench.measured["nn_same_cluster_fraction"] >= 0.8


def test_same_cluster_cosine_exceeds_cross(tiny_bench):
    p = tiny_bench.prototypes.prototypes
    cid = tiny_bench.prototypes.cluster_ids
    pn = p / np.linalg.norm(p, axis=1, keepdims=True)
    cos = pn @ pn.T
    same, cross = [], []
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            (same if cid[i] == cid[j] else cross).append(cos[i, j])
    assert np.mean(same) > np.mean(cross)


def test_multilabel_fraction_near_target():
    bench = generate_benchmark(BenchConfig(), seed=1)
    frac = bench.measured["train_multilabel_fraction"]
    assert 0.02 <= frac <= 0.25


def test_sample_batch_contracts(tiny_bench, rng):
    feats, labels = tiny_bench.sample("train", 17, rng)
    assert feats.shape[0] == 17 and labels.shape[0] == 17
    assert labels.shape[1] == len(tiny_bench.split("train").universe)
    assert np.all(labels.sum(axis=1) >= 1.0)


@pytest.mark.parametrize("split", ["train", "eval_seen", "eval_novel"])
def test_sample_equals_the_ix_gather(split):
    bench = generate_benchmark(tiny_config(), seed=3)
    sp = bench.split(split)
    feats, labels = bench.sample(split, 64, np.random.default_rng(9))
    idx = np.random.default_rng(9).integers(0, sp.features.shape[0], size=64)
    assert np.array_equal(feats, sp.features[idx])
    dense = sp.class_labels[sp.class_index]
    assert np.array_equal(labels, dense[np.ix_(idx, sp.universe)])


def test_only_the_sampled_split_caches_its_labels():
    # Each split's label slice is a copy, so the eval splits, which training
    # never samples, must not build theirs.
    bench = generate_benchmark(tiny_config(), seed=3)
    model = TransferModel(ModelConfig("wtn_plus", hidden_dim=16, groups=4), bench.source,
                          seed=0)
    head = DetectionProxyHead(bench.num_other, bench.d_feat)
    train_joint(model, head, bench.source, bench, TrainConfig(iterations=5, batch_size=8))
    w_d = model.encode(bench.source.weights)
    for split in ("eval_seen", "eval_novel"):
        evaluate(head, w_d, bench, split, k=5)
    assert "labels" in vars(bench.split("train"))
    assert "labels" not in vars(bench.split("eval_seen"))
    assert "labels" not in vars(bench.split("eval_novel"))


def test_sample_batch_unknown_split(tiny_bench, rng):
    with pytest.raises(StateError):
        tiny_bench.sample("nope", 4, rng)


def test_sample_batch_class_frequency_uniform(tiny_bench):
    # each class appears equally often in the split, so primary-class draws
    # concentrate around uniform; pinned seed keeps the 3-sigma check stable
    rng = np.random.default_rng(1234)
    sp = tiny_bench.split("train")
    n_draw = 100_000
    idx = rng.integers(0, sp.features.shape[0], size=n_draw)
    prim = sp.primary[idx]
    classes = np.unique(sp.primary)
    m = len(classes)
    p = 1.0 / m
    sigma = np.sqrt(n_draw * p * (1 - p))
    counts = np.asarray([(prim == c).sum() for c in classes])
    assert np.all(np.abs(counts - n_draw * p) <= 3.0 * sigma)


def test_generation_is_pure_function_of_config_and_seed():
    cfg = tiny_config()
    a = generate_benchmark(cfg, seed=11)
    b = generate_benchmark(cfg, seed=11)
    assert np.array_equal(a.source.weights, b.source.weights)
    assert a.measured == b.measured
    c = generate_benchmark(cfg, seed=12)
    assert not np.array_equal(a.source.weights, c.source.weights)


def test_norms_reflect_sample_counts():
    bench = generate_benchmark(BenchConfig(), seed=2)
    norms = row_l2_norms(bench.source.weights).ravel()
    assert bench.measured["norm_ratio"] == pytest.approx(norms.max() / norms.min())


# --- generation oracles ---------------------------------------------------------
# The straightforward forms of the generator's loops: one noise draw and one
# tiled label block per class, giving dense per-example labels; the W_C
# nearest neighbours from the full (|C|, |C|, d) difference array; and the
# mean sigmoid BCE gradient, written out with a masked sigmoid, against dense
# one-hot targets on every source batch. The generator must match them
# bitwise.

def oracle_make_split(name, class_ids, prototypes_by_id, universe, total_cols,
                      samples_per_class, noise_std, radius, rng):
    """(features, dense labels, primary) of a split, one row per example."""
    univ_protos = np.stack([prototypes_by_id[c] for c in universe])
    feats, labels, primary = [], [], []
    for c in class_ids:
        p = prototypes_by_id[c]
        d2 = ((univ_protos - p) ** 2).sum(axis=1)
        co = universe[np.sqrt(d2) <= radius]
        row = np.zeros(total_cols)
        row[co] = 1.0
        row[c] = 1.0
        x = p + noise_std * rng.standard_normal((samples_per_class, p.shape[0]))
        feats.append(x)
        labels.append(np.tile(row, (samples_per_class, 1)))
        primary.extend([c] * samples_per_class)
    return np.vstack(feats), np.vstack(labels), np.asarray(primary, dtype=np.int64)


def masked_sigmoid(z):
    """The logistic function, exponentiated once per sign on the side that
    cannot overflow."""
    pos = z >= 0
    sig = np.empty_like(z)
    sig[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    sig[~pos] = ez / (1.0 + ez)
    return sig


def oracle_train_source_classifier(x, y, config, rng):
    w = np.zeros((y.shape[1], x.shape[1]))
    prior = np.clip(y.mean(axis=0), 1e-6, 1.0 - 1e-6)
    b = np.log(prior / (1.0 - prior))
    lr, n = config.source_lr, x.shape[0]
    for _ in range(config.source_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.source_batch):
            idx = order[start:start + config.source_batch]
            g = (masked_sigmoid(x[idx] @ w.T + b) - y[idx]) / (len(idx) * y.shape[1])
            w -= lr * (g.T @ x[idx])
            b -= lr * g.sum(axis=0)
    return w


def oracle_nn_same_cluster(bench):
    """The W_C nearest-neighbour statistic from the full (|C|, |C|, d) array."""
    w_c, cluster_ids = bench.source.weights, bench.prototypes.cluster_ids
    wd2 = ((w_c[:, None, :] - w_c[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(wd2, np.inf)
    return float(np.mean(cluster_ids[np.argmin(wd2, axis=1)] == cluster_ids))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


GENERATION_CONFIGS = {"tiny": tiny_config(), "default": BenchConfig(),
                      "anisotropic": BenchConfig(channel_anisotropy=30.0)}


def oracle_benchmark(cfg, seed):
    """The benchmark built with the oracle loops, and each split's dense
    (features, labels, primary). Its splits hold one class row per example
    (``class_index`` is the identity), so every statistic the generator
    takes from the class rows is taken from the dense rows."""
    dense = {}

    def make_split(name, class_ids, prototypes_by_id, universe, *args):
        feats, labels, primary = dense[name] = oracle_make_split(
            name, class_ids, prototypes_by_id, universe, *args)
        return Split(name=name, features=feats, class_ids=primary, class_labels=labels,
                     class_index=np.arange(len(primary)),
                     universe=np.asarray(universe, dtype=np.int64))

    def train_source_classifier(x, class_ids, config, rng):
        y = np.zeros((len(class_ids), config.num_classes))
        y[np.arange(len(class_ids)), class_ids] = 1.0
        return oracle_train_source_classifier(x, y, config, rng)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wtx.bench, "_make_split", make_split)
        mp.setattr(wtx.bench, "_train_source_classifier", train_source_classifier)
        return generate_benchmark(cfg, seed), dense


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("config", sorted(GENERATION_CONFIGS))
def test_generation_matches_the_oracle_loops_bitwise(config, seed):
    cfg = GENERATION_CONFIGS[config]
    bench = generate_benchmark(cfg, seed)
    want, dense = oracle_benchmark(cfg, seed)

    assert same_bits(bench.source.weights, want.source.weights)
    assert sorted(bench.splits) == sorted(dense)
    for name, (features, labels, primary) in dense.items():
        got = bench.split(name)
        assert same_bits(got.features, features), name
        assert same_bits(got.class_labels[got.class_index], labels), name
        assert same_bits(got.primary, primary), name
        assert same_bits(got.universe, want.split(name).universe), name
        assert len(got.class_ids) == len(np.unique(primary)), name   # one row per class
    assert bench.cooccur_radius.hex() == want.cooccur_radius.hex()
    assert bench.measured == want.measured
    assert bench.measured["nn_same_cluster_fraction"] == oracle_nn_same_cluster(bench)
    assert bench.fingerprint() == want.fingerprint()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("config", ["tiny", "default"])
def test_sample_matches_the_dense_oracle_gather(config, seed):
    bench = generate_benchmark(GENERATION_CONFIGS[config], seed)
    _, dense = oracle_benchmark(GENERATION_CONFIGS[config], seed)
    for name, (features, labels, _) in dense.items():
        universe = bench.split(name).universe
        for draw in range(3):
            rng = np.random.default_rng(100 * seed + draw)
            ref = np.random.default_rng(100 * seed + draw)
            feats, got = bench.sample(name, 128, rng)
            idx = ref.integers(0, len(features), size=128)
            assert same_bits(feats, features[idx]), name
            assert same_bits(got, labels[np.ix_(idx, universe)]), name
            assert rng.random() == ref.random()     # sample made that one draw


def test_source_classifier_matches_the_one_hot_oracle():
    # Class 5 has no example, so its prior is clipped; 70 rows make a short
    # last batch.
    cfg = tiny_config(source_batch=32, source_epochs=3)
    rng = np.random.default_rng(4)
    ids = rng.choice(np.delete(np.arange(cfg.num_classes), 5), size=70)
    x = rng.standard_normal((70, cfg.dim))
    y = np.zeros((70, cfg.num_classes))
    y[np.arange(70), ids] = 1.0
    got = _train_source_classifier(x, ids, cfg, np.random.default_rng(9))
    assert same_bits(got, oracle_train_source_classifier(x, y, cfg, np.random.default_rng(9)))


@pytest.mark.parametrize("ids", [np.array([0, 1, 2.0]), np.array([0, -1, 2]),
                                 np.array([0, 1, 24]), np.array([True, False, True])],
                         ids=["float", "negative", "too_large", "bool"])
def test_source_classifier_rejects_bad_class_ids(ids):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4))
    with pytest.raises(ValueError, match="class ids"):
        _train_source_classifier(x, ids, tiny_config(), rng)
