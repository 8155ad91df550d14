"""Synthetic source/target benchmark generation.

The generator builds a clustered prototype geometry, trains a real linear
multi-label source classifier on class-frequency-skewed samples (so the
source weights carry learned-classifier artifacts, in particular a large
spread of per-class weight norms), then emits target-task feature splits
with a seen/novel class split and a handful of target-only "other"
classes. Everything is a pure function of (config, seed).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, StateError
from .losses import _bce_grad
from .matrix import (atomic_write_text, matrix_hash, row_l2_norms, save_matrix_csv,
                     save_matrix_json)
from .models import SourceWeights


@dataclass(frozen=True)
class BenchConfig:
    num_classes: int = 200
    num_shared: int = 50
    num_other: int = 5
    dim: int = 64
    clusters: int = 20
    # Target max/min row-norm ratio of the learned source weights; 1 means
    # uniform per-class sample counts.
    norm_imbalance: float = 28.0
    source_samples_per_class: int = 100
    train_samples_per_class: int = 50
    eval_samples_per_class: int = 50
    noise_std: float = 0.3
    # Fraction of examples that should carry 2+ labels; sets the prototype
    # co-occurrence radius.
    multilabel_fraction: float = 0.10
    # Typical prototype norm; noise_std is absolute, so this sets the
    # signal-to-noise of the feature space and (through the saturation
    # level of source training) the magnitude of the learned weights.
    feature_scale: float = 8.0
    # Within-cluster spread relative to the center distribution.
    prototype_spread: float = 0.5
    # Intrinsic dimension of the class-prototype manifold; prototypes live
    # in a manifold_dim subspace of the dim-dimensional feature space.
    # Keeping this below num_shared lets the shared classes span the
    # manifold the way a large seen-class set covers a semantic space.
    manifold_dim: int = 40
    # Domain gap between the source and target tasks: the source classifier
    # sees features rotated away from the target feature basis, so the
    # transfer network has to learn the basis change. 0 disables, larger
    # values rotate further from the identity.
    domain_rotation: float = 0.5
    # Smooth nonlinear component of the domain gap (two different networks
    # never embed images into affinely related spaces); displacement size
    # relative to the feature scale. 0 disables.
    domain_warp: float = 0.5
    # Max/min per-channel scale of the source feature basis (log-uniform).
    # The learned source weights inherit the anisotropy, which is what the
    # transfer network's input standardization has to undo; 1 disables.
    channel_anisotropy: float = 1.0
    source_epochs: int = 6
    source_lr: float = 20.0
    source_batch: int = 256
    # Count-skew exponent, calibrated so the measured max/min weight-norm
    # ratio lands at or above norm_imbalance after source training.
    count_skew: float = 1.35
    min_eval_examples: int = 10

    def validate(self):
        if not 0 < self.num_shared < self.num_classes:
            raise ConfigError(f"num_shared must be in (0, {self.num_classes}), "
                              f"got {self.num_shared}")
        if self.clusters > self.num_classes or self.clusters < 1:
            raise ConfigError(f"clusters must be in [1, {self.num_classes}], "
                              f"got {self.clusters}")
        if self.norm_imbalance < 1.0:
            raise ConfigError(f"norm_imbalance must be >= 1, got {self.norm_imbalance}")
        if self.channel_anisotropy < 1.0:
            raise ConfigError(f"channel_anisotropy must be >= 1, got {self.channel_anisotropy}")
        if self.source_samples_per_class < 2:
            raise ConfigError("source_samples_per_class too small to train a classifier")
        if self.eval_samples_per_class < self.min_eval_examples:
            raise ConfigError(f"eval_samples_per_class ({self.eval_samples_per_class}) "
                              f"below min_eval_examples ({self.min_eval_examples})")
        if self.train_samples_per_class < 1 or self.noise_std < 0:
            raise ConfigError("invalid sample counts or noise level")
        if not 1 <= self.manifold_dim <= self.dim:
            raise ConfigError(f"manifold_dim must be in [1, {self.dim}], "
                              f"got {self.manifold_dim}")


@dataclass
class ClassPrototypes:
    prototypes: np.ndarray         # (|C|, d)
    cluster_ids: np.ndarray        # (|C|,) int


@dataclass
class Split:
    name: str
    features: np.ndarray           # (n, d)
    labels_full: np.ndarray        # (n, |C| + n_other) multi-hot over the global universe
    primary: np.ndarray            # (n,) generating class id per example
    universe: np.ndarray           # global ids this split's labels live in

    @cached_property
    def labels(self) -> np.ndarray:
        """(n, |universe|) labels over the split universe, built on first use
        so that only the splits that are sampled hold a copy."""
        return self.labels_full[:, self.universe]


@dataclass
class BenchmarkInstance:
    config: BenchConfig
    seed: int
    source: SourceWeights
    prototypes: ClassPrototypes
    other_prototypes: np.ndarray
    cooccur_radius: float
    rotation: np.ndarray = None        # source-basis rotation (d x d orthogonal)
    splits: dict[str, Split] = field(default_factory=dict)
    measured: dict = field(default_factory=dict)

    @property
    def num_other(self) -> int:
        return self.other_prototypes.shape[0]

    @property
    def d_feat(self) -> int:
        return self.prototypes.prototypes.shape[1]

    def split(self, name: str) -> Split:
        if name not in self.splits:
            raise StateError(f"no split named {name!r}; have {sorted(self.splits)}")
        return self.splits[name]

    def sample(self, split_name: str, batch_size: int, rng: np.random.Generator):
        """Uniform sample with replacement; labels over the split universe."""
        sp = self.split(split_name)
        if sp.features.shape[0] == 0:
            raise StateError(f"split {split_name!r} is empty")
        idx = rng.integers(0, sp.features.shape[0], size=batch_size)
        return sp.features[idx], sp.labels[idx]

    def fingerprint(self) -> str:
        """SHA-256 over the matrix hashes of the source weights and of every
        split's features; a run records the fingerprint it was trained on."""
        h = hashlib.sha256(matrix_hash(self.source.weights).encode())
        for name in sorted(self.splits):
            h.update(matrix_hash(self.splits[name].features).encode())
        return h.hexdigest()


def _train_source_classifier(x, y, config: BenchConfig, rng) -> np.ndarray:
    """Plain SGD on mean-reduced sigmoid BCE; returns the (|C|, d) weights.

    The per-class bias starts at the class-prior logit (the standard
    long-tail initialization), so negatives are suppressed from the first
    step and each weight row grows with its class's positive-sample
    exposure. That is what turns the skewed per-class sample counts into
    the wide spread of learned weight norms. Biases are internal to the
    source task; only the weight rows are kept. Only the gradient of the
    loss is computed: the loop never reads its value.
    """
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("sigmoid_bce targets must be binary (0/1)")
    w = np.zeros((y.shape[1], x.shape[1]))
    prior = np.clip(y.mean(axis=0), 1e-6, 1.0 - 1e-6)
    b = np.log(prior / (1.0 - prior))
    lr, n = config.source_lr, x.shape[0]
    for _ in range(config.source_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.source_batch):
            idx = order[start:start + config.source_batch]
            xb = x[idx]
            z = xb @ w.T + b
            g = _bce_grad(z, np.exp(-np.abs(z)), y[idx])
            w -= lr * (g.T @ xb)
            b -= lr * g.sum(axis=0)
    return w


def _make_split(name, class_ids, prototypes_by_id, universe, total_cols,
                samples_per_class, noise_std, radius, rng) -> Split:
    """Draw prototype+noise features, samples_per_class examples per class
    in class_ids order; co-label classes whose prototypes sit within the
    co-occurrence radius, restricted to the split universe. The noise is one
    draw, which takes the same values from rng as one draw per class."""
    protos = np.stack([prototypes_by_id[c] for c in class_ids])
    univ_protos = np.stack([prototypes_by_id[c] for c in universe])
    rows = np.zeros((len(class_ids), total_cols))
    for i, (c, p) in enumerate(zip(class_ids, protos)):
        d2 = ((univ_protos - p) ** 2).sum(axis=1)
        rows[i, universe[np.sqrt(d2) <= radius]] = 1.0     # includes c itself
        rows[i, c] = 1.0
    noise = rng.standard_normal((len(class_ids) * samples_per_class, protos.shape[1]))
    return Split(name=name,
                 features=np.repeat(protos, samples_per_class, axis=0) + noise_std * noise,
                 labels_full=np.repeat(rows, samples_per_class, axis=0),
                 primary=np.repeat(np.asarray(class_ids, dtype=np.int64), samples_per_class),
                 universe=np.asarray(universe, dtype=np.int64))


def _domain_rotation(d: int, strength: float, rng) -> np.ndarray:
    """Orthogonal matrix interpolating between identity (strength 0) and a
    fully random rotation (large strength), via QR of I + strength * G."""
    if strength == 0.0:
        return np.eye(d)
    g = rng.standard_normal((d, d))
    q, r = np.linalg.qr(np.eye(d) + strength * g)
    return q * np.sign(np.diag(r))


def generate_benchmark(config: BenchConfig, seed: int) -> BenchmarkInstance:
    config.validate()
    ss = np.random.SeedSequence(seed)
    proto_rng, count_rng, source_rng, split_rng, target_rng, rot_rng = \
        (np.random.default_rng(s) for s in ss.spawn(6))

    c_total, d = config.num_classes, config.dim

    # Clustered prototype geometry on a low-dimensional manifold embedded in
    # the feature space: classes near their cluster center are mutual
    # nearest neighbors and share co-occurrence labels.
    r = config.manifold_dim
    unit = config.feature_scale / np.sqrt(r)
    embed, _ = np.linalg.qr(proto_rng.standard_normal((d, r)))
    centers = unit * proto_rng.standard_normal((config.clusters, r)) @ embed.T
    cluster_ids = np.arange(c_total) % config.clusters
    spread = config.prototype_spread * unit
    prototypes = centers[cluster_ids] + \
        spread * proto_rng.standard_normal((c_total, r)) @ embed.T
    other_cluster = proto_rng.integers(0, config.clusters, size=config.num_other)
    other_prototypes = centers[other_cluster] + \
        spread * proto_rng.standard_normal((config.num_other, r)) @ embed.T

    # Geometrically skewed per-class sample counts induce the weight-norm
    # imbalance once the classifier is trained; count_skew widens the count
    # spread to compensate for saturation compressing the learned norms.
    u = count_rng.permutation(c_total) / max(c_total - 1, 1)
    counts = np.maximum(1, np.round(
        config.source_samples_per_class
        * config.norm_imbalance ** (-config.count_skew * u))).astype(int)

    # The source classifier sees a smoothly warped, rescaled, and rotated
    # copy of the feature space; its learned weights inherit the whole
    # source-basis geometry.
    rotation = _domain_rotation(d, config.domain_rotation, rot_rng)
    half_log = 0.5 * np.log(config.channel_anisotropy)
    channel_scales = np.exp(rot_rng.uniform(-half_log, half_log, size=d))
    source_basis = (rotation * channel_scales).T      # rows map: x @ (R diag(s))^T
    warp_in = rot_rng.standard_normal((d, d)) / np.sqrt(d)
    warp_out = rot_rng.standard_normal((d, d)) / np.sqrt(d)
    warp_gain = config.domain_warp * config.feature_scale

    def to_source(x):
        if config.domain_warp > 0.0:
            x = x + warp_gain * np.tanh(x @ warp_in / config.feature_scale) @ warp_out
        return x @ source_basis

    xs, ys = [], []
    for c in range(c_total):
        x = prototypes[c] + config.noise_std * source_rng.standard_normal((counts[c], d))
        y = np.zeros((counts[c], c_total))
        y[:, c] = 1.0
        xs.append(to_source(x))
        ys.append(y)
    x_src, y_src = np.vstack(xs), np.vstack(ys)
    w_c = _train_source_classifier(x_src, y_src, config, source_rng)

    shared_ids = np.sort(split_rng.permutation(c_total)[:config.num_shared])
    source = SourceWeights.create(w_c, shared_ids)

    total_cols = c_total + config.num_other
    protos_by_id = {c: prototypes[c] for c in range(c_total)}
    protos_by_id.update({c_total + i: other_prototypes[i] for i in range(config.num_other)})

    other_ids = list(range(c_total, total_cols))
    train_universe = list(shared_ids) + other_ids
    novel_ids = [c for c in range(c_total) if c not in set(shared_ids.tolist())]

    # Co-occurrence radius: the multilabel_fraction quantile of
    # nearest-neighbor distances among the training universe's prototypes,
    # so the target fraction of training examples carries 2+ labels.
    train_protos = np.stack([protos_by_id[c] for c in train_universe])
    d2 = ((train_protos[:, None, :] - train_protos[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    nn_dist = np.sqrt(d2.min(axis=1))
    radius = float(np.quantile(nn_dist, config.multilabel_fraction))

    splits = {
        "train": _make_split("train", train_universe, protos_by_id, np.asarray(train_universe),
                             total_cols, config.train_samples_per_class,
                             config.noise_std, radius, target_rng),
        "eval_seen": _make_split("eval_seen", train_universe, protos_by_id,
                                 np.asarray(train_universe), total_cols,
                                 config.eval_samples_per_class, config.noise_std,
                                 radius, target_rng),
        "eval_novel": _make_split("eval_novel", novel_ids, protos_by_id,
                                  np.asarray(novel_ids), total_cols,
                                  config.eval_samples_per_class, config.noise_std,
                                  radius, target_rng),
    }

    norms = row_l2_norms(w_c).ravel()
    nearest = np.empty(c_total, dtype=np.int64)
    for i, w in enumerate(w_c):                 # row by row: no (|C|, |C|, d) array
        wd2 = ((w_c - w) ** 2).sum(axis=1)
        wd2[i] = np.inf
        nearest[i] = np.argmin(wd2)
    same_cluster = float(np.mean(cluster_ids[nearest] == cluster_ids))
    multi = float(np.mean(splits["train"].labels_full.sum(axis=1) >= 2))
    measured = {
        "norm_ratio": float(norms.max() / max(norms.min(), 1e-300)),
        "nn_same_cluster_fraction": same_cluster,
        "train_multilabel_fraction": multi,
    }

    return BenchmarkInstance(config=config, seed=seed, source=source,
                             prototypes=ClassPrototypes(prototypes, cluster_ids),
                             other_prototypes=other_prototypes,
                             cooccur_radius=radius, rotation=rotation,
                             splits=splits, measured=measured)


# --- directory serialization ------------------------------------------------

def save_instance(instance: BenchmarkInstance, dirpath: str) -> None:
    """Export the instance as JSON and CSV files. Nothing in the package
    reads them back: every command that needs a benchmark regenerates it
    from the config and seed."""
    os.makedirs(dirpath, exist_ok=True)
    manifest = {
        "config": asdict(instance.config),
        "seed": instance.seed,
        "class_ids": list(range(instance.source.num_classes)),
        "shared_ids": [int(i) for i in instance.source.shared_index],
        "cluster_ids": [int(i) for i in instance.prototypes.cluster_ids],
        "cooccur_radius": instance.cooccur_radius,
        "measured": instance.measured,
        "splits": sorted(instance.splits),
    }
    atomic_write_text(os.path.join(dirpath, "manifest.json"),
                      json.dumps(manifest, sort_keys=True, indent=1))
    save_matrix_json(instance.source.weights, os.path.join(dirpath, "source_weights.json"))
    save_matrix_json(instance.prototypes.prototypes, os.path.join(dirpath, "prototypes.json"))
    save_matrix_json(instance.other_prototypes, os.path.join(dirpath, "other_prototypes.json"))
    save_matrix_json(instance.rotation, os.path.join(dirpath, "rotation.json"))
    for name, sp in instance.splits.items():
        save_matrix_csv(sp.features, os.path.join(dirpath, f"{name}_features.csv"))
        save_matrix_csv(sp.labels_full, os.path.join(dirpath, f"{name}_labels.csv"))
        atomic_write_text(os.path.join(dirpath, f"{name}_primary.csv"),
                          "\n".join(str(int(c)) for c in sp.primary) + "\n")

