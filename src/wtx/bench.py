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

An instance has one on-disk form: one uncompressed ``.npz`` archive
(``instance_entry``, read back by ``load_instance_entry``) that holds every
array and a ``meta`` JSON document with the config, the seed, the
fingerprint and the other facts of the instance. The benchmark cache of
``wtx.runs`` stores it, and ``wtx generate`` writes it with
``save_instance``: byte for byte the cache entry it checked
(``read_instance_entry``) or the one it built, serialized once per build.

``meta`` also holds ``array_hashes``, the ``matrix_hash`` of every array,
and the fingerprint is computed from those of W_C and each split's
features. A load may read only some splits. It checks each array it reads
against its hash and the hashes against the fingerprint, so a damaged
array fails only the loads that read it.

The archive has one reader, ``_read_member``, and no ``np.load``. It finds
a member through the zip directory, checks its ``.npy`` header with
``wtx.matrix.read_npy_header`` and reads its values straight into the
array, with one copy, then checks the member's CRC-32. The hashes cover an
array's shape and bytes but not its dtype, so the CRC is what sees a
changed dtype in a header. Every byte outside the members (the zip
headers, directory and end record) must be what ``instance_entry`` writes,
so damage anywhere in an entry fails a load that reads the whole of it:
outside the members by that check, inside them by the CRC-32.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
import zipfile
import zlib
from dataclasses import asdict, dataclass, field, fields
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
        """The ``matrix_hash`` of every array of the archive, by member name,
        computed once. ``load_instance_entry`` sets the archive's hashes."""
        return {member: matrix_hash(a) for member, a in _entry_arrays(self).items()}

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 over the hashes of W_C and then of each split's features,
        in member name order; a run records the fingerprint it was trained on.
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


# --- the archive ------------------------------------------------------------

_SPLIT_ARRAYS = tuple(f.name for f in fields(Split))


def _entry_meta(instance: BenchmarkInstance) -> str:
    return json.dumps({"config": asdict(instance.config), "seed": instance.seed,
                       "cooccur_radius": instance.cooccur_radius,
                       "measured": instance.measured, "splits": list(instance.splits),
                       "array_hashes": instance.array_hashes,
                       "fingerprint": instance.fingerprint})


def _entry_arrays(instance: BenchmarkInstance) -> dict[str, np.ndarray]:
    """Every array of the instance by archive member name; split arrays are
    named ``SPLIT.FIELD``."""
    arrays = {"source_weights": instance.source.weights,
              "shared_mask": instance.source.shared_mask,
              "prototypes": instance.prototypes, "cluster_ids": instance.cluster_ids,
              "other_prototypes": instance.other_prototypes, "rotation": instance.rotation}
    for name, sp in instance.splits.items():
        arrays.update({f"{name}.{f}": getattr(sp, f) for f in _SPLIT_ARRAYS})
    return arrays


def instance_entry(instance: BenchmarkInstance) -> bytes:
    """The instance as one uncompressed ``.npz`` archive: every array, and a
    ``meta`` string of JSON with the config, seed, co-occurrence radius,
    measured statistics, split names, array hashes and fingerprint.
    ``load_instance_entry`` reads it back."""
    buf = io.BytesIO()
    np.savez(buf, meta=np.array(_entry_meta(instance)), **_entry_arrays(instance))
    return buf.getvalue()


def save_instance(instance: BenchmarkInstance, dirpath: str, entry: bytes) -> None:
    """Write the instance into the directory ``dirpath``: ``benchmark.npz``,
    the bytes ``entry``, which must be its ``instance_entry`` (the caller
    has them: it built or checked them); ``manifest.json``, the entry's
    ``meta`` document; and ``source_weights.json``, W_C as a JSON matrix."""
    atomic_write_text(os.path.join(dirpath, "benchmark.npz"), entry)
    atomic_write_text(os.path.join(dirpath, "manifest.json"), _entry_meta(instance))
    save_matrix_json(instance.source.weights, os.path.join(dirpath, "source_weights.json"))


# The zip framing of an ``instance_entry`` archive as ``np.savez`` writes it
# through ``zipfile``: every member stored, with zip64 sizes, dated
# 1980-01-01 00:00 (zipfile's default) and of mode 0600, the members back
# to back from the start, then the central directory, then its end record
# with no comment. ``zipfile`` has no public writer of headers alone, so
# the records are spelled out here after the zip format (PKWARE APPNOTE,
# 4.3); a load checks every byte of an entry outside its members against
# them.
_LOCAL = struct.Struct("<4s5H3L2H")         # local header; then the name and _ZIP64
_ZIP64 = struct.Struct("<2H2Q")             # zip64 extra field: id 1, 16 bytes, both sizes
_CENTRAL = struct.Struct("<4s4B4H3L5H2L")   # central directory record; then the name
_END = struct.Struct("<4s4H2LH")            # end of central directory record
_VERSION = 45                               # 4.5, the version of zip64
_DATE = 1 << 5 | 1                          # 1980-01-01 in MS-DOS date form
_MODE = 0o600 << 16
_IN_ZIP64 = 0xFFFFFFFF                      # a size held in the zip64 field


def _local_header(info: zipfile.ZipInfo) -> bytes:
    """The local header, name and zip64 field that precede the values of the
    member ``info`` in an ``instance_entry`` archive."""
    name = info.filename.encode()
    return (_LOCAL.pack(b"PK\x03\x04", _VERSION, 0, zipfile.ZIP_STORED, 0, _DATE, info.CRC,
                        _IN_ZIP64, _IN_ZIP64, len(name), _ZIP64.size)
            + name + _ZIP64.pack(1, 16, info.file_size, info.file_size))


def _directory(infos: list[zipfile.ZipInfo]) -> tuple[int, bytes]:
    """Where the central directory of an ``instance_entry`` archive of the
    members ``infos``, in that order, starts, and its bytes from there to
    the end of the archive."""
    at, records = 0, []
    for info in infos:
        name = info.filename.encode()
        records.append(_CENTRAL.pack(b"PK\x01\x02", _VERSION, zipfile.ZipInfo().create_system,
                                     _VERSION, 0, 0, zipfile.ZIP_STORED, 0, _DATE, info.CRC,
                                     info.file_size, info.file_size, len(name), 0, 0, 0, 0,
                                     _MODE, at) + name)
        at += len(_local_header(info)) + info.file_size
    directory = b"".join(records)
    return at, directory + _END.pack(b"PK\x05\x06", 0, 0, len(infos), len(infos),
                                     len(directory), at, 0)


def _read_member(f, info: zipfile.ZipInfo, path: str, data: bytes | None = None) -> np.ndarray:
    """The array in the ``.npy`` member ``info`` of the archive that the
    binary file ``f`` holds, read by ``read_npy_values`` (a view of ``data``,
    the archive's bytes, if given). The local header must be the one
    ``instance_entry`` writes, and the ``.npy`` header is checked by
    ``read_npy_header`` before any value is read; then the CRC-32 of the
    member's bytes is checked against the archive's. A member that fails a
    check raises ValidationError."""
    what = f"{path}: {info.filename}"
    local = _local_header(info)
    f.seek(info.header_offset)
    if f.read(len(local)) != local:
        raise ValidationError(f"{what}: its local header is not the one an entry has")
    start = f.tell()
    header = read_npy_header(f, info.file_size, what)
    size = f.tell() - start
    f.seek(start)
    crc = zlib.crc32(f.read(size))
    a = read_npy_values(f, *header, what, data)
    if zlib.crc32(a.ravel(order="K"), crc) != info.CRC:
        raise ValidationError(f"{what} fails its CRC-32 check")
    return a


def _read_entry(f, path: str, config: BenchConfig, seed: int, splits,
                data: bytes | None = None) -> BenchmarkInstance:
    """The instance in the entry archive that the binary file ``f`` holds;
    see ``load_instance_entry``."""
    try:
        with zipfile.ZipFile(f) as archive:
            infos = archive.infolist()
    except zipfile.BadZipFile as e:
        raise ValidationError(f"{path}: not a zip archive ({e})") from None
    for info in infos:
        if info.compress_type != zipfile.ZIP_STORED:
            raise ValidationError(f"{path}: {info.filename} is not a stored member")
    end, directory = _directory(infos)
    f.seek(end)
    if f.read(len(directory) + 1) != directory:
        raise ValidationError(f"{path}: its members are not back to back or its zip "
                              f"directory is not the one an entry has")
    members = {info.filename.removesuffix(".npy"): info for info in infos}
    if "meta" not in members:
        raise ValidationError(f"{path}: no meta member")
    meta = json.loads(str(_read_member(f, members.pop("meta"), path, data)))
    if meta["config"] != asdict(config) or meta["seed"] != seed:
        raise ValidationError(f"{path}: an entry of another benchmark")
    hashes = meta["array_hashes"]
    if set(members) != set(hashes):
        raise ValidationError(f"{path}: the members are not those of the stored hashes")
    names = [s for s in meta["splits"] if splits is None or s in splits]
    a = {}
    for member in hashes:
        if "." not in member or member.split(".")[0] in names:
            a[member] = _read_member(f, members[member], path, data)
            if matrix_hash(a[member]) != hashes[member]:
                raise ValidationError(f"{path}: {member} does not hash to its stored hash")
    loaded = {s: Split(**{f: a[f"{s}.{f}"] for f in _SPLIT_ARRAYS}) for s in names}
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
    return instance


def load_instance_entry(path: str, config: BenchConfig, seed: int,
                        splits=None) -> BenchmarkInstance:
    """The instance in an entry that ``instance_entry`` wrote for (config,
    seed): W_C, the small arrays and the splits named in ``splits`` (every
    split if None; ``split`` of another raises StateError). The meta
    document is read first; then each array it names, and no other, is
    read straight from its member of the file with one copy, found through
    the zip directory. W_C and the split features come back read-only, as
    ``generate_benchmark`` makes them.

    Nothing is unpickled. Raises ValidationError, naming the file:
    - for a file that is not a zip archive (a truncated one, say), one with
      a member that is not stored uncompressed, one whose bytes outside the
      members are not those ``instance_entry`` writes (the local headers,
      the central directory and its end record, with the members back to
      back and nothing after), and one with no ``meta`` member;
    - for an entry of another (config, seed), or one whose members are not
      the arrays its meta document hashes;
    - for a member read whose ``.npy`` header does not parse, has an object
      dtype or claims other than the bytes the member holds (checked before
      a value is read), or whose bytes fail the member's CRC-32, which is
      what sees a changed dtype;
    - for an array read that does not hash to its stored hash, or hashes
      that do not hash to the stored fingerprint.
    A file that cannot be opened raises OSError."""
    with open(path, "rb") as f:
        return _read_entry(f, path, config, seed, splits)


def read_instance_entry(path: str, config: BenchConfig,
                        seed: int) -> tuple[BenchmarkInstance, bytes]:
    """The whole instance in the entry at ``path`` and the entry's bytes,
    read from the file once and checked as ``load_instance_entry`` checks
    them, so every byte is checked: the framing against what
    ``instance_entry`` writes, each member by its CRC-32 and its hash. The
    arrays are read-only views of those bytes, which are so held once; this
    is for ``generate``, which writes them out. The views are not aligned
    (a member's values start wherever its headers end), and numpy computes
    on an unaligned array through buffered blocks, so a sum or a product of
    one can differ in its last bits from that of the aligned arrays
    ``load_instance_entry`` reads: compute on those."""
    with open(path, "rb") as f:
        data = f.read()
    return _read_entry(io.BytesIO(data), path, config, seed, None, data), data
