"""Synthetic source/target benchmark generation.

The generator builds a clustered prototype geometry, trains a real linear
multi-label source classifier on class-frequency-skewed samples (so the
source weights carry learned-classifier artifacts, in particular a large
spread of per-class weight norms), then emits target-task feature splits
with a seen/novel class split and a handful of target-only "other"
classes. Everything is a pure function of (config, seed).

Global class ids are the source classes, ``0 .. |C| - 1``, then the
"other" classes. A split lists its classes once, in ``class_ids`` (shared
and "other" for train and eval_seen, novel for eval_novel), and its labels
live in those classes' columns only.

An example's labels depend only on its class, so a split keeps them once
per class: one multi-hot row per class, and for each example the index of
its class's row. No split holds a matrix of one label row per example.

An instance has one on-disk form, its entry: ``.npy`` records back to
back, each written by ``np.save`` (``instance_entry``, read back by
``load_instance_entry``). The first is a ``meta`` JSON document with the
config, the seed, the fingerprint and the other facts of the instance, the
second the sha256 of its text, and the rest every array, in a fixed order.
``np.load`` of an entry returns the meta document, and ``np.load`` on an
open entry file returns the records in order. The benchmark cache of
``wtx.runs`` stores entries, and ``wtx generate`` writes a copy of the
cache entry, which it then loads whole, so every byte of its output is
checked; ``save_instance`` writes the two files beside it.

``meta`` also holds ``array_hashes``, the ``matrix_hash`` of every array,
and the fingerprint is computed from those of W_C and each split's
features. A load may read only some splits. It checks each array it reads
against its hash and the hashes against the fingerprint, so a damaged
array fails only the loads that read it.

An entry has one reader, ``load_instance_entry``, and no ``np.load``. It
walks the records in order. Every header is checked by
``wtx.matrix.read_npy_header``, so it must be byte for byte the one
``np.save`` writes, and must claim the dtype that ``generate_benchmark``
gives its array: the hashes cover an array's shape and bytes but not its
dtype. The meta record must be exactly that of ``np.array`` of its text
and hash to the digest record. An array a load wants is read straight
from the file into an aligned array, with one copy, and checked against
its hash; the others are skipped. The file must end right after its last
record, and the meta text must be the one ``instance_entry`` writes for
the facts it holds. So a whole load accepts only the bytes that
``instance_entry`` writes, and damage to a header, to the meta document or
to its digest fails every load.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, StateError, ValidationError
from .losses import _logistic
from .matrix import (atomic_write_text, blocked_sq_dists, matrix_hash, nearest_rows,
                     read_npy_header, read_npy_values, row_l2_norms, save_matrix_json)
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

    def __post_init__(self):
        if not 0 < self.num_shared < self.num_classes:
            raise ConfigError(f"num_shared must be in (0, {self.num_classes}), "
                              f"got {self.num_shared}")
        if self.clusters > self.num_classes or self.clusters < 1:
            raise ConfigError(f"clusters must be in [1, {self.num_classes}], "
                              f"got {self.clusters}")
        for name, low in (("norm_imbalance", 1), ("channel_anisotropy", 1), ("num_other", 0),
                          ("domain_warp", 0), ("noise_std", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("source_lr", "feature_scale"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.source_samples_per_class < 2:
            raise ConfigError("source_samples_per_class too small to train a classifier")
        for name in ("source_batch", "source_epochs", "min_eval_examples",
                     "train_samples_per_class"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.eval_samples_per_class < self.min_eval_examples:
            raise ConfigError(f"eval_samples_per_class ({self.eval_samples_per_class}) "
                              f"below min_eval_examples ({self.min_eval_examples})")
        if not 1 <= self.manifold_dim <= self.dim:
            raise ConfigError(f"manifold_dim must be in [1, {self.dim}], "
                              f"got {self.manifold_dim}")
        if not 0.0 <= self.multilabel_fraction <= 1.0:
            raise ConfigError(f"multilabel_fraction must be in [0, 1], "
                              f"got {self.multilabel_fraction}")


@dataclass
class Split:
    """Examples of some classes. Example i belongs to the class of row
    ``class_index[i]``: its generating class is ``class_ids[class_index[i]]``
    and its labels are ``class_labels[class_index[i]]``."""
    features: np.ndarray           # (n, d), read-only
    class_ids: np.ndarray          # (k,) global id of each class of the split
    class_labels: np.ndarray       # (k, |C| + n_other) multi-hot per class over all global ids
    class_index: np.ndarray        # (n,) row of each example's class

    @property
    def primary(self) -> np.ndarray:
        """(n,) generating class id per example."""
        return self.class_ids[self.class_index]

    @cached_property
    def labels(self) -> np.ndarray:
        """(k, k) class rows over the split's own classes, built on first use
        so that only the splits that are sampled hold a copy."""
        return self.class_labels[:, self.class_ids]


@dataclass
class BenchmarkInstance:
    config: BenchConfig
    seed: int
    source: SourceWeights
    prototypes: np.ndarray             # (|C|, d)
    cluster_ids: np.ndarray            # (|C|,) int
    other_prototypes: np.ndarray       # (num_other, d)
    cooccur_radius: float
    rotation: np.ndarray = None        # source-basis rotation (d x d orthogonal)
    splits: dict[str, Split] = field(default_factory=dict)
    measured: dict = field(default_factory=dict)

    @property
    def num_other(self) -> int:
        return self.other_prototypes.shape[0]

    @property
    def d_feat(self) -> int:
        return self.prototypes.shape[1]

    def split(self, name: str) -> Split:
        if name not in self.splits:
            raise StateError(f"no split named {name!r}; have {sorted(self.splits)}")
        return self.splits[name]

    def sample(self, split_name: str, batch_size: int, rng: np.random.Generator):
        """Uniform sample with replacement; labels over the split's classes."""
        sp = self.split(split_name)
        if sp.features.shape[0] == 0:
            raise StateError(f"split {split_name!r} is empty")
        idx = rng.integers(0, sp.features.shape[0], size=batch_size)
        return sp.features[idx], sp.labels[sp.class_index[idx]]

    @cached_property
    def array_hashes(self) -> dict[str, str]:
        """The ``matrix_hash`` of every array of the entry, by name, computed
        once. ``load_instance_entry`` sets the entry's hashes."""
        return {member: matrix_hash(a) for member, a in _entry_arrays(self).items()}

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 over the hashes of W_C and then of each split's features,
        in name order; a run records the fingerprint it was trained on.
        W_C and the features are read-only, so it is computed once."""
        hashes = self.array_hashes
        h = hashlib.sha256(hashes["source_weights"].encode())
        for name in sorted(n for n in hashes if n.endswith(".features")):
            h.update(hashes[name].encode())
        return h.hexdigest()


def _train_source_classifier(x, class_ids, config: BenchConfig, rng) -> np.ndarray:
    """Plain SGD on mean-reduced sigmoid BCE against one-hot targets, where
    ``class_ids`` holds each example's class in [0, num_classes); returns
    the (|C|, d) weights.

    The per-class bias starts at the class-prior logit (the standard
    long-tail initialization), so negatives are suppressed from the first
    step and each weight row grows with its class's positive-sample
    exposure. That is what turns the skewed per-class sample counts into
    the wide spread of learned weight norms. Biases are internal to the
    source task; only the weight rows are kept. Only the gradient of the
    loss is computed: the loop never reads its value. The one-hot targets
    are never built: the gradient is the logistic of each logit, minus 1 at
    the row's class, over the number of logits.

    Every step writes into the same (batch, |C|) logit, exp(-|z|) and
    gradient buffers and the same weight-gradient buffers. Besides two
    matmuls, a step is a dozen elementwise passes over a (batch, |C|)
    array, and giving each pass a fresh temporary to allocate and touch
    took 5-8% of the loop's time at the default size. The operations and
    their order are those of ``z = x[idx] @ w.T + b``, ``w -= lr * (g.T @
    x[idx])`` and ``b -= lr * g.sum(axis=0)``, so the weights keep their
    bits.
    """
    c_total = config.num_classes
    class_ids = np.asarray(class_ids)
    if class_ids.dtype.kind not in "iu" or np.any((class_ids < 0) | (class_ids >= c_total)):
        raise ValueError(f"source class ids must be integers in [0, {c_total})")
    w = np.zeros((c_total, x.shape[1]))
    lr, n = config.source_lr, x.shape[0]
    prior = np.clip(np.bincount(class_ids, minlength=c_total) / n, 1e-6, 1.0 - 1e-6)
    b = np.log(prior / (1.0 - prior))
    rows = np.arange(min(config.source_batch, n))
    z_buf, e_buf, g_buf = (np.empty((len(rows), c_total)) for _ in range(3))
    gw, gb = np.empty_like(w), np.empty_like(b)
    for _ in range(config.source_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.source_batch):
            idx = order[start:start + config.source_batch]
            xb = x[idx]
            z, e, g = z_buf[:len(idx)], e_buf[:len(idx)], g_buf[:len(idx)]
            np.matmul(xb, w.T, out=z)
            z += b
            np.exp(np.negative(np.abs(z, out=e), out=e), out=e)
            _logistic(z, e, out=g)
            g[rows[:len(idx)], class_ids[idx]] -= 1.0
            g /= z.size
            w -= np.multiply(np.matmul(g.T, xb, out=gw), lr, out=gw)
            b -= np.multiply(np.sum(g, axis=0, out=gb), lr, out=gb)
    return w


def _make_split(class_ids, prototypes, samples_per_class, noise_std, radius, rng) -> Split:
    """Draw prototype+noise features, samples_per_class examples per class
    in class_ids order, where ``prototypes[c]`` is the prototype of global
    id c; a class's label row marks it and the split's classes whose
    prototypes sit within the co-occurrence radius. The noise is one draw,
    which takes the same values from rng as one draw per class."""
    protos = prototypes[class_ids]
    rows = np.zeros((len(class_ids), len(prototypes)))
    for start, d2 in blocked_sq_dists(protos, protos):
        rows[start:start + len(d2), class_ids] = np.sqrt(d2) <= radius     # includes c itself
    rows[np.arange(len(class_ids)), class_ids] = 1.0
    noise = rng.standard_normal((len(class_ids) * samples_per_class, protos.shape[1]))
    features = np.repeat(protos, samples_per_class, axis=0) + noise_std * noise
    features.setflags(write=False)
    return Split(features=features, class_ids=class_ids, class_labels=rows,
                 class_index=np.repeat(np.arange(len(class_ids)), samples_per_class))


def _domain_rotation(d: int, strength: float, rng) -> np.ndarray:
    """Orthogonal matrix interpolating between identity (strength 0) and a
    fully random rotation (large strength), via QR of I + strength * G."""
    if strength == 0.0:
        return np.eye(d)
    g = rng.standard_normal((d, d))
    q, r = np.linalg.qr(np.eye(d) + strength * g)
    return q * np.sign(np.diag(r))


def generate_benchmark(config: BenchConfig, seed: int) -> BenchmarkInstance:
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

    x_src = np.vstack([
        to_source(prototypes[c] + config.noise_std * source_rng.standard_normal((counts[c], d)))
        for c in range(c_total)])
    w_c = _train_source_classifier(x_src, np.repeat(np.arange(c_total), counts), config,
                                   source_rng)

    shared_ids = np.sort(split_rng.permutation(c_total)[:config.num_shared])
    source = SourceWeights.create(w_c, shared_ids)

    all_protos = np.vstack([prototypes, other_prototypes])      # row c: global id c
    train_ids = np.concatenate([shared_ids, np.arange(c_total, c_total + config.num_other)])

    # Co-occurrence radius: the multilabel_fraction quantile of
    # nearest-neighbor distances among the training classes' prototypes, so
    # the target fraction of training examples carries 2+ labels.
    train_protos = all_protos[train_ids]
    _, nn_d2 = nearest_rows(train_protos, train_protos, 1, own=np.arange(len(train_ids)))
    radius = float(np.quantile(np.sqrt(nn_d2), config.multilabel_fraction))

    splits = {name: _make_split(ids, all_protos, n, config.noise_std, radius, target_rng)
              for name, ids, n in (("train", train_ids, config.train_samples_per_class),
                                   ("eval_seen", train_ids, config.eval_samples_per_class),
                                   ("eval_novel", source.novel_index,
                                    config.eval_samples_per_class))}

    norms = row_l2_norms(w_c).ravel()
    nearest, _ = nearest_rows(w_c, w_c, 1, own=np.arange(c_total))
    same_cluster = float(np.mean(cluster_ids[nearest[:, 0]] == cluster_ids))
    train = splits["train"]
    multi = float(np.mean((train.class_labels.sum(axis=1) >= 2)[train.class_index]))
    measured = {
        "norm_ratio": float(norms.max() / max(norms.min(), 1e-300)),
        "nn_same_cluster_fraction": same_cluster,
        "train_multilabel_fraction": multi,
    }

    return BenchmarkInstance(config=config, seed=seed, source=source,
                             prototypes=prototypes, cluster_ids=cluster_ids,
                             other_prototypes=other_prototypes,
                             cooccur_radius=radius, rotation=rotation,
                             splits=splits, measured=measured)


# --- the entry --------------------------------------------------------------

# The dtype of every array of an instance as ``generate_benchmark`` makes
# it, by name, in the order of its record in an entry; a split's arrays by
# field, in the order of ``Split``'s fields, named ``SPLIT.FIELD``.
_DTYPES = {"source_weights": np.float64, "shared_mask": np.bool_, "prototypes": np.float64,
           "cluster_ids": np.int64, "other_prototypes": np.float64, "rotation": np.float64}
_SPLIT_DTYPES = {"features": np.float64, "class_ids": np.int64, "class_labels": np.float64,
                 "class_index": np.int64}
# The keys of the meta document that a load reads.
_META_KEYS = {"config", "seed", "cooccur_radius", "measured", "splits", "array_hashes",
              "fingerprint"}


def _entry_meta(instance: BenchmarkInstance, splits=None) -> str:
    """The text of the meta document of the instance's entry, whose splits
    are named ``splits``: the instance's own if None (a partial load holds
    fewer)."""
    return json.dumps({"config": asdict(instance.config), "seed": instance.seed,
                       "cooccur_radius": instance.cooccur_radius, "measured": instance.measured,
                       "splits": list(instance.splits) if splits is None else splits,
                       "array_hashes": instance.array_hashes,
                       "fingerprint": instance.fingerprint})


def _entry_arrays(instance: BenchmarkInstance) -> dict[str, np.ndarray]:
    """Every array of the instance by name, in the order of the entry's
    records; split arrays are named ``SPLIT.FIELD``."""
    arrays = {"source_weights": instance.source.weights,
              "shared_mask": instance.source.shared_mask,
              "prototypes": instance.prototypes, "cluster_ids": instance.cluster_ids,
              "other_prototypes": instance.other_prototypes, "rotation": instance.rotation}
    for name, sp in instance.splits.items():
        arrays.update({f"{name}.{f}": getattr(sp, f) for f in _SPLIT_DTYPES})
    return arrays


def _text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def instance_entry(instance: BenchmarkInstance) -> bytes:
    """The instance as ``.npy`` records back to back, each written by
    ``np.save``: the meta document, a string of JSON with the config, seed,
    co-occurrence radius, measured statistics, split names, array hashes
    and fingerprint; the sha256 of its text, in hex; then every array, in
    the order of ``_entry_arrays``. ``load_instance_entry`` reads it back."""
    text = _entry_meta(instance)
    buf = io.BytesIO()
    for a in (np.array(text), np.array(_text_digest(text)), *_entry_arrays(instance).values()):
        np.save(buf, a, allow_pickle=False)
    return buf.getvalue()


def save_instance(instance: BenchmarkInstance, dirpath: str) -> None:
    """Write the two files that sit beside the instance's entry in the
    directory ``dirpath``: ``manifest.json``, the entry's meta document, and
    ``source_weights.json``, W_C as a JSON matrix."""
    atomic_write_text(os.path.join(dirpath, "manifest.json"), _entry_meta(instance))
    save_matrix_json(instance.source.weights, os.path.join(dirpath, "source_weights.json"))


def _read_string(f, end: int, what: str) -> str:
    """The string in the next record of the entry file ``f``, of ``end``
    bytes, whose bytes must be those ``np.save`` writes for ``np.array`` of
    an ASCII string: every string of an entry is one. ``what`` names the
    record in messages."""
    shape, fortran, dtype = read_npy_header(f, end - f.tell(), what)
    a = read_npy_values(f, shape, fortran, dtype, what)
    text = str(a)
    if fortran or a.shape != () or a.dtype != np.array(text).dtype or not text.isascii():
        raise ValidationError(f"{what}: not the record np.save writes for an ASCII string")
    return text


def load_instance_entry(path: str, config: BenchConfig, seed: int,
                        splits=None) -> BenchmarkInstance:
    """The instance in an entry that ``instance_entry`` wrote for (config,
    seed): W_C, the small arrays and the splits named in ``splits`` (every
    split if None; ``split`` of another raises StateError). The records are
    walked in order, each header checked before its values: the meta
    document and its digest are read first, then each array they name is
    read straight from the file into an aligned array with one copy, and
    every other is skipped. W_C and the split features come back read-only,
    as ``generate_benchmark`` makes them.

    Nothing is unpickled. Raises ValidationError, naming the file:
    - for a first record that is not the ``np.save`` record of an ASCII
      string, or a second that is not that of the string's sha256; for a
      meta document that is not a JSON object with every key a load reads,
      its splits a list of names and its hashes an object of strings;
    - for an entry of another (config, seed), or one whose hashes are not
      those of the arrays of an instance with the splits it lists;
    - for an array record whose header is not the one ``np.save`` writes
      for a C-order array of the dtype ``generate_benchmark`` gives it (so
      one whose header does not parse, or claims an object dtype or more
      values than the file holds), checked before a value is read;
    - for an array read that does not hash to its stored hash, or hashes
      that do not hash to the stored fingerprint;
    - for a file that goes on after its last record;
    - for a meta document whose text is not the one ``instance_entry``
      writes for the facts it holds.
    So a whole load accepts only the bytes that ``instance_entry`` writes.
    A file that cannot be opened raises OSError."""
    with open(path, "rb") as f:
        end = os.fstat(f.fileno()).st_size
        text = _read_string(f, end, f"{path}: meta")
        if _read_string(f, end, f"{path}: digest") != _text_digest(text):
            raise ValidationError(f"{path}: its meta document does not hash to its digest")
        try:
            meta = json.loads(text)
        except json.JSONDecodeError:
            meta = None
        if not (isinstance(meta, dict) and _META_KEYS <= meta.keys()
                and isinstance(meta["splits"], list)
                and all(isinstance(s, str) for s in meta["splits"])
                and isinstance(meta["array_hashes"], dict)
                and all(isinstance(h, str) for h in meta["array_hashes"].values())):
            raise ValidationError(f"{path}: its meta document is not the JSON object of an "
                                  f"entry's facts")
        if meta["config"] != asdict(config) or meta["seed"] != seed:
            raise ValidationError(f"{path}: an entry of another benchmark")
        names = [s for s in meta["splits"] if splits is None or s in splits]
        # Each array record in file order: its name, its dtype and whether it is read.
        records = [(name, dtype, True) for name, dtype in _DTYPES.items()]
        records += [(f"{s}.{f}", dtype, s in names) for s in meta["splits"]
                    for f, dtype in _SPLIT_DTYPES.items()]
        hashes = meta["array_hashes"]
        if set(hashes) != {name for name, *_ in records}:
            raise ValidationError(f"{path}: the stored hashes are not those of the arrays of "
                                  f"an instance with the splits {meta['splits']}")
        a = {}
        for name, want, read in records:
            what = f"{path}: {name}"
            shape, fortran, dtype = read_npy_header(f, end - f.tell(), what)
            if fortran or dtype != want:
                raise ValidationError(f"{what} is not a C-order array of {np.dtype(want).str} "
                                      f"(its header: {dtype.str}, Fortran order {fortran})")
            if not read:
                f.seek(dtype.itemsize * math.prod(shape), os.SEEK_CUR)
                continue
            a[name] = read_npy_values(f, shape, False, dtype, what)
            if matrix_hash(a[name]) != hashes[name]:
                raise ValidationError(f"{what} does not hash to its stored hash")
        if f.tell() != end:
            raise ValidationError(f"{path}: the file does not end at its last record")
    loaded = {s: Split(**{f: a[f"{s}.{f}"] for f in _SPLIT_DTYPES}) for s in names}
    for sp in loaded.values():
        sp.features.setflags(write=False)
    instance = BenchmarkInstance(
        config=config, seed=seed,
        source=SourceWeights(a["source_weights"], a["shared_mask"]),
        prototypes=a["prototypes"], cluster_ids=a["cluster_ids"],
        other_prototypes=a["other_prototypes"], cooccur_radius=meta["cooccur_radius"],
        rotation=a["rotation"], splits=loaded, measured=meta["measured"])
    vars(instance)["array_hashes"] = hashes     # the cached_property's value
    if instance.fingerprint != meta["fingerprint"]:
        raise ValidationError(f"{path}: the array hashes do not hash to the stored fingerprint")
    if text != _entry_meta(instance, meta["splits"]):
        raise ValidationError(f"{path}: its meta document is not the text an entry of its "
                              f"facts has")
    return instance
