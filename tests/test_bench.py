import numpy as np
import pytest

import json
import os

from wtx.bench import BenchConfig, generate_benchmark, save_instance
from wtx.errors import ConfigError, StateError
from wtx.matrix import load_matrix_json, row_l2_norms

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
    # The export is one-way, so the test parses it back itself.
    bench = generate_benchmark(tiny_config(), seed=3)
    d = tmp_path / "inst"
    save_instance(bench, str(d))
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["shared_ids"] == bench.source.shared_index.tolist()
    assert np.array_equal(load_matrix_json(str(d / "source_weights.json")),
                          bench.source.weights)
    assert np.array_equal(load_matrix_json(str(d / "rotation.json")), bench.rotation)
    for name, sp in bench.splits.items():
        assert np.array_equal(read_csv_matrix(d / f"{name}_features.csv"), sp.features)
        assert np.array_equal(read_csv_matrix(d / f"{name}_labels.csv"), sp.labels_full)
        assert np.array_equal(read_csv_matrix(d / f"{name}_primary.csv").ravel(), sp.primary)


def test_no_novel_leakage_into_training(tiny_bench):
    bench = tiny_bench
    novel = set(int(i) for i in bench.source.novel_index)
    train = bench.split("train")
    labeled = set(int(c) for c in np.flatnonzero(train.labels_full.any(axis=0)))
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
