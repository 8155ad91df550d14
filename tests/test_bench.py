import numpy as np
import pytest

import io
import itertools
import json
import os
import pickle
import struct
import zipfile
from dataclasses import asdict, replace

import wtx.bench
from wtx.bench import (BenchConfig, Split, _train_source_classifier, generate_benchmark,
                       instance_entry, load_instance_entry, save_instance)
from wtx.cli import main
from wtx.errors import ConfigError, StateError, ValidationError
from wtx.evaluation import evaluate
from wtx.matrix import load_matrix_json, row_l2_norms
from wtx.models import DetectionProxyHead, ModelConfig, TrainConfig, TransferModel, train_joint

from conftest import assert_same_instance, npy_bytes, tiny_config
from test_cli import cache_entries, counting_generate, read_tree, tiny_doc, write_config


def test_config_validation():
    # A BenchConfig checks itself when it is built.
    for kwargs in (dict(num_shared=200, num_classes=200), dict(clusters=300),
                   dict(norm_imbalance=0.5), dict(eval_samples_per_class=3,
                                                  min_eval_examples=10),
                   dict(manifold_dim=100, dim=64)):
        with pytest.raises(ConfigError):
            BenchConfig(**kwargs)
    for key in ("source_batch", "source_epochs", "min_eval_examples"):
        with pytest.raises(ConfigError, match=key):
            BenchConfig(**{key: 0})
    for key, value in (("multilabel_fraction", -0.1), ("multilabel_fraction", 1.5),
                       ("num_other", -1), ("source_lr", 0.0), ("source_lr", -1.0),
                       ("feature_scale", 0.0), ("feature_scale", -8.0), ("domain_warp", -0.5)):
        with pytest.raises(ConfigError, match=f"^{key} "):
            BenchConfig(**{key: value})
        with pytest.raises(ConfigError, match=f"^{key} "):
            replace(BenchConfig(), **{key: value})
    for key, value in (("multilabel_fraction", 0.0), ("multilabel_fraction", 1.0),
                       ("num_other", 0), ("domain_warp", 0.0)):
        BenchConfig(**{key: value})     # the edges stay valid


def test_zero_noise_features_equal_prototypes_and_separable():
    cfg = tiny_config(noise_std=0.0, norm_imbalance=1.0, domain_rotation=0.0,
                      domain_warp=0.0, source_epochs=20, source_lr=40.0)
    bench = generate_benchmark(cfg, seed=0)
    protos = bench.prototypes
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
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        bench = generate_benchmark(cfg, seed=5)
        save_instance(bench, str(tmp_path / name), instance_entry(bench))
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_fingerprint_tracks_the_benchmark(tiny_bench):
    assert generate_benchmark(tiny_config(), seed=7).fingerprint == tiny_bench.fingerprint
    other = generate_benchmark(tiny_config(noise_std=0.31), seed=7)
    assert other.fingerprint != tiny_bench.fingerprint


def test_split_features_are_read_only(tiny_bench):
    # The fingerprint is computed once per instance, so the features it
    # hashes must not change under it.
    for name, sp in tiny_bench.splits.items():
        assert not sp.features.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            sp.features[0, 0] = 1.0
    assert not tiny_bench.source.weights.flags.writeable


def test_instance_round_trip(tmp_path):
    # The archive is the instance's one on-disk form: it reads back bitwise,
    # fingerprint included, and next to it sit only its meta document and W_C.
    cfg = tiny_config()
    want = generate_benchmark(cfg, seed=3)
    save_instance(want, str(tmp_path), instance_entry(want))
    assert sorted(os.listdir(tmp_path)) == ["benchmark.npz", "manifest.json",
                                            "source_weights.json"]
    assert (tmp_path / "benchmark.npz").read_bytes() == instance_entry(want)
    assert_same_instance(load_instance_entry(str(tmp_path / "benchmark.npz"), cfg, 3),
                         generate_benchmark(cfg, seed=3))
    with np.load(tmp_path / "benchmark.npz") as archive:
        assert (tmp_path / "manifest.json").read_text() == str(archive["meta"])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert (manifest["config"], manifest["seed"], manifest["fingerprint"]) == \
        (asdict(cfg), 3, want.fingerprint)
    assert same_bits(load_matrix_json(str(tmp_path / "source_weights.json")),
                     want.source.weights)


SPLIT_NAMES = ("train", "eval_seen", "eval_novel")


@pytest.mark.parametrize("splits", [names for r in range(len(SPLIT_NAMES) + 1)
                                    for names in itertools.combinations(SPLIT_NAMES, r)],
                         ids=lambda names: "+".join(names) or "none")
def test_a_partial_load_holds_the_named_splits_of_the_whole_instance(tmp_path, splits):
    cfg = tiny_config()
    whole = generate_benchmark(cfg, seed=3)
    path = tmp_path / "benchmark.npz"
    path.write_bytes(instance_entry(whole))
    part = load_instance_entry(str(path), cfg, 3, splits=splits)
    want = replace(whole, splits={name: sp for name, sp in whole.splits.items()
                                  if name in splits})
    vars(want)["array_hashes"] = whole.array_hashes     # a load keeps the whole's hashes
    assert_same_instance(part, want)
    assert part.fingerprint == whole.fingerprint
    for name in set(SPLIT_NAMES) - set(splits):
        with pytest.raises(StateError, match=f"no split named '{name}'"):
            part.split(name)


def rewritten_entry(tmp_path, bench, edit):
    """The entry of ``bench`` with ``edit`` applied to its arrays by name,
    written to a file; returns the path."""
    with np.load(io.BytesIO(instance_entry(bench))) as archive:
        arrays = {name: archive[name] for name in archive.files}
    edit(arrays)
    path = tmp_path / "entry.npz"
    np.savez(path, **arrays)
    return str(path)


def test_a_load_checks_the_arrays_it_reads_and_the_hashes_of_the_rest(tmp_path):
    cfg = tiny_config()
    bench = generate_benchmark(cfg, seed=3)
    evals = ("eval_seen", "eval_novel")

    def alter_train(arrays):
        arrays["train.features"] = arrays["train.features"] + 1.0

    path = rewritten_entry(tmp_path, bench, alter_train)
    assert load_instance_entry(path, cfg, 3, splits=evals).fingerprint == bench.fingerprint
    with pytest.raises(ValidationError, match="train.features does not hash to its stored hash"):
        load_instance_entry(path, cfg, 3)

    def alter_train_hash(arrays):
        meta = json.loads(str(arrays["meta"]))
        meta["array_hashes"]["train.features"] = "0" * 64
        arrays["meta"] = np.array(json.dumps(meta))

    path = rewritten_entry(tmp_path, bench, alter_train_hash)
    with pytest.raises(ValidationError, match="do not hash to the stored fingerprint"):
        load_instance_entry(path, cfg, 3, splits=evals)


def test_a_load_checks_every_array_of_the_entry(tmp_path):
    # Every member is hashed, not only W_C and the features: altered labels
    # or class ids would score a run wrong with nothing to show for it.
    cfg = tiny_config()
    bench = generate_benchmark(cfg, seed=3)
    members = list(wtx.bench._entry_arrays(bench))
    assert list(bench.array_hashes) == members and len(members) == 18
    for member in members:
        def alter(arrays):
            a = arrays[member]
            arrays[member] = ~a if a.dtype == bool else a + 1
        path = rewritten_entry(tmp_path, bench, alter)
        with pytest.raises(ValidationError, match=f": {member} does not hash to its stored hash"):
            load_instance_entry(path, cfg, 3)


def header_offset(entry: bytes, name: str) -> int:
    """The offset in ``entry`` of the local header of member ``name``."""
    with zipfile.ZipFile(io.BytesIO(entry)) as archive:
        return archive.getinfo(name).header_offset


def flipped_dtype_byte(entry):
    # '<i8' -> '<u8' in one header: the same bytes and shape, so the same
    # matrix_hash; only the member's CRC-32 sees the change.
    at = entry.index(b"'descr': '<i8'", header_offset(entry, "eval_novel.class_index.npy"))
    at += len(b"'descr': '<")
    return entry[:at] + b"u" + entry[at + 1:]


def rezipped(entry, replace=None, deflate=()):
    """The entry written again by zipfile as np.savez writes it, so every
    CRC-32 and every zip header holds: the ``.npy`` bytes of the members
    named in ``replace`` swapped for its values (a name the entry lacks is
    added), and the members named in ``deflate`` compressed."""
    replace = replace or {}
    out = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(entry)) as archive, zipfile.ZipFile(out, "w") as rewritten:
        names = archive.namelist()
        for name in names + [f"{m}.npy" for m in replace if f"{m}.npy" not in names]:
            member = name.removesuffix(".npy")
            info = zipfile.ZipInfo(name)
            if member in deflate:
                info.compress_type = zipfile.ZIP_DEFLATED
            with rewritten.open(info, "w", force_zip64=True) as f:
                f.write(replace.get(member) or archive.read(name))
    return out.getvalue()


def test_an_entry_rezipped_unchanged_is_the_entry():
    # The control of the faults below: rezipped alone changes no byte, so
    # each fault made with it is the one fault it names.
    entry = instance_entry(generate_benchmark(tiny_config(), 0))
    assert rezipped(entry) == entry


def member_array(entry, member):
    with np.load(io.BytesIO(entry)) as archive:
        return archive[member]


def object_member(entry):
    class_ids = member_array(entry, "eval_novel.class_ids").astype(object)
    return rezipped(entry, {"eval_novel.class_ids": npy_bytes(class_ids, allow_pickle=True)})


def claims_more_values(entry):
    # A header for one more row, over the member's own values.
    features = member_array(entry, "eval_novel.features")
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {
        "descr": "<f8", "fortran_order": False,
        "shape": (features.shape[0] + 1, features.shape[1])})
    return rezipped(entry, {"eval_novel.features": header.getvalue() + features.tobytes()})


def at_offset(entry, offset, value: bytes):
    return entry[:offset] + value + entry[offset + len(value):]


def directory_start(entry) -> int:
    with zipfile.ZipFile(io.BytesIO(entry)) as archive:
        return archive.start_dir


# Each fault that a load must reject, and what it is rejected for. A
# deflated member is rejected although np.load would read it: no wtx
# writer makes one.
ENTRY_FAULTS = {
    "flipped_dtype_byte": (flipped_dtype_byte,
                           "eval_novel.class_index.npy fails its CRC-32 check"),
    "object_dtype": (object_member, "eval_novel.class_ids.npy: a .npy array of Python objects"),
    "claims_more_values": (claims_more_values, "eval_novel.features.npy: a .* needs"),
    "deflated_member": (lambda entry: rezipped(entry, deflate=("eval_novel.features",)),
                        "eval_novel.features.npy is not a stored member"),
    "extra_member": (lambda entry: rezipped(entry, {"unhashed": npy_bytes(np.zeros(1))}),
                     "the members are not those of the stored hashes"),
    "truncated": (lambda entry: entry[:len(entry) // 2], "not a zip archive"),
    # Bytes outside the members, which generate writes out with the rest.
    "local_header_time": (lambda entry: at_offset(
        entry, header_offset(entry, "eval_novel.features.npy") + 10, struct.pack("<H", 1)),
        "eval_novel.features.npy: its local header is not the one an entry has"),
    "directory_mode": (lambda entry: at_offset(
        entry, directory_start(entry) + 38, struct.pack("<L", 0o644 << 16)),
        "its zip directory is not the one an entry has"),
    "archive_comment": (lambda entry: entry[:-2] + struct.pack("<H", 4) + b"note",
                        "its zip directory is not the one an entry has"),
    "trailing_byte": (lambda entry: entry + b"\0",
                      "its zip directory is not the one an entry has"),
    "not_a_zip": (lambda entry: npy_bytes(member_array(entry, "source_weights")),
                  "not a zip archive"),
}


@pytest.mark.parametrize("fault", ENTRY_FAULTS)
def test_a_faulty_entry_fails_its_load_and_eval_rebuilds_it(tmp_path, monkeypatch, cache_home,
                                                            fault):
    spoil, message = ENTRY_FAULTS[fault]
    unpickled = []
    for name in ("load", "loads"):
        monkeypatch.setattr(pickle, name, lambda *args, **kwargs: unpickled.append(args))
    cfg = tiny_config()
    path = tmp_path / "entry.npz"
    path.write_bytes(spoil(instance_entry(generate_benchmark(cfg, 0))))
    with pytest.raises(ValidationError, match=message):
        load_instance_entry(str(path), cfg, 0)

    # Through the cache: eval builds the entry again and scores as before.
    run_dir = tmp_path / "run"
    assert main(["train", "--config", write_config(tmp_path, tiny_doc(iterations=5)),
                 "--seed", "0", "--out", str(run_dir)]) == 0
    assert main(["eval", str(run_dir)]) == 0
    evaluated = read_tree(run_dir)
    [name] = cache_entries(cache_home)
    entry = cache_home / "wtx" / "benchmarks" / name
    entry.write_bytes(spoil(entry.read_bytes()))
    calls = counting_generate(monkeypatch)
    assert main(["eval", str(run_dir)]) == 0
    assert read_tree(run_dir) == evaluated
    assert calls == [0] and unpickled == []
    assert_same_instance(load_instance_entry(str(entry), cfg, 0), generate_benchmark(cfg, 0))


@pytest.mark.parametrize("fault", ENTRY_FAULTS)
def test_generate_writes_a_faulty_entry_built_again(tmp_path, monkeypatch, cache_home, fault):
    # generate writes the bytes of the entry it read: a fault anywhere in
    # them, the zip framing included, makes it build and write them again.
    config = write_config(tmp_path, tiny_doc())
    assert main(["generate", "--config", config, "--out", str(tmp_path / "built")]) == 0
    [name] = cache_entries(cache_home)
    entry = cache_home / "wtx" / "benchmarks" / name
    good = entry.read_bytes()
    assert (tmp_path / "built" / "benchmark.npz").read_bytes() == good
    entry.write_bytes(ENTRY_FAULTS[fault][0](good))
    calls = counting_generate(monkeypatch)
    assert main(["generate", "--config", config, "--out", str(tmp_path / "again")]) == 0
    assert calls == [0]
    assert read_tree(tmp_path / "again") == read_tree(tmp_path / "built")
    assert entry.read_bytes() == good


def test_no_novel_leakage_into_training(tiny_bench):
    bench = tiny_bench
    novel = set(int(i) for i in bench.source.novel_index)
    train = bench.split("train")
    labeled = set(int(c) for c in np.flatnonzero(train.class_labels.any(axis=0)))
    assert labeled & novel == set()
    assert set(int(u) for u in train.class_ids) & novel == set()


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
    p = tiny_bench.prototypes
    cid = tiny_bench.cluster_ids
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
    assert labels.shape[1] == len(tiny_bench.split("train").class_ids)
    assert np.all(labels.sum(axis=1) >= 1.0)


@pytest.mark.parametrize("split", ["train", "eval_seen", "eval_novel"])
def test_sample_equals_the_ix_gather(split):
    bench = generate_benchmark(tiny_config(), seed=3)
    sp = bench.split(split)
    feats, labels = bench.sample(split, 64, np.random.default_rng(9))
    idx = np.random.default_rng(9).integers(0, sp.features.shape[0], size=64)
    assert np.array_equal(feats, sp.features[idx])
    dense = sp.class_labels[sp.class_index]
    assert np.array_equal(labels, dense[np.ix_(idx, sp.class_ids)])


def test_only_the_sampled_split_caches_its_labels():
    # Each split's label slice is a copy, so the eval splits, which training
    # never samples, must not build theirs.
    bench = generate_benchmark(tiny_config(), seed=3)
    model = TransferModel(ModelConfig("wtn_plus", hidden_dim=16, groups=4), bench.source,
                          seed=0)
    head = DetectionProxyHead(bench.num_other, bench.d_feat)
    train_joint(model, head, bench.source, bench, TrainConfig(iterations=5, batch_size=8))
    w_d = model.encode(bench.source)
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
# nearest neighbours and the co-occurrence radius from full (n, n, d)
# difference arrays; and the
# mean sigmoid BCE gradient, written out with a masked sigmoid, against dense
# one-hot targets on every source batch. The generator must match them
# bitwise.

def oracle_make_split(class_ids, prototypes_by_id, universe, total_cols,
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
    w_c, cluster_ids = bench.source.weights, bench.cluster_ids
    wd2 = ((w_c[:, None, :] - w_c[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(wd2, np.inf)
    return float(np.mean(cluster_ids[np.argmin(wd2, axis=1)] == cluster_ids))


def oracle_cooccur_radius(bench):
    """The multilabel_fraction quantile of the train classes' nearest-neighbour
    prototype distances, from the full (n, n, d) difference array."""
    protos = np.vstack([bench.prototypes, bench.other_prototypes])[bench.split("train").class_ids]
    d2 = ((protos[:, None, :] - protos[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    return float(np.quantile(np.sqrt(d2.min(axis=1)), bench.config.multilabel_fraction))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


GENERATION_CONFIGS = {"tiny": tiny_config(), "default": BenchConfig(),
                      "anisotropic": BenchConfig(channel_anisotropy=30.0)}


def oracle_benchmark(cfg, seed):
    """The benchmark built with the oracle loops, and each split's dense
    (features, labels, primary). Its splits hold one class row per example
    (``class_index`` is the identity and ``class_ids`` the primary ids), so
    every statistic the generator takes from the class rows is taken from
    the dense rows. A split's universe is its own class list."""

    def make_split(class_ids, prototypes, *args):
        feats, labels, primary = oracle_make_split(
            class_ids, dict(enumerate(prototypes)), np.asarray(class_ids), len(prototypes),
            *args)
        return Split(features=feats, class_ids=primary, class_labels=labels,
                     class_index=np.arange(len(primary)))

    def train_source_classifier(x, class_ids, config, rng):
        y = np.zeros((len(class_ids), config.num_classes))
        y[np.arange(len(class_ids)), class_ids] = 1.0
        return oracle_train_source_classifier(x, y, config, rng)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wtx.bench, "_make_split", make_split)
        mp.setattr(wtx.bench, "_train_source_classifier", train_source_classifier)
        bench = generate_benchmark(cfg, seed)
    return bench, {name: (sp.features, sp.class_labels, sp.class_ids)
                   for name, sp in bench.splits.items()}


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
        assert same_bits(got.class_ids, np.unique(primary)), name   # one row per class
    assert bench.cooccur_radius.hex() == want.cooccur_radius.hex()
    assert bench.cooccur_radius.hex() == oracle_cooccur_radius(bench).hex()
    assert bench.measured == want.measured
    assert bench.measured["nn_same_cluster_fraction"] == oracle_nn_same_cluster(bench)
    assert bench.fingerprint == want.fingerprint


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("config", ["tiny", "default"])
def test_sample_matches_the_dense_oracle_gather(config, seed):
    bench = generate_benchmark(GENERATION_CONFIGS[config], seed)
    _, dense = oracle_benchmark(GENERATION_CONFIGS[config], seed)
    for name, (features, labels, _) in dense.items():
        universe = bench.split(name).class_ids
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
