"""Transfer networks, the detection-proxy head, joint training, and baselines.

The transfer network maps each source class's weight vector to a target
classification weight vector. Three variants share one implementation:

* ``wtn``       plain two-layer MLP,
* ``wtn_plus``  adds frozen per-channel input standardization and group
                normalization of the hidden features,
* ``ae_wtn``    adds a mirrored decoder trained with a smooth-L1
                reconstruction loss over every source class.

Scoring is a bias-free matrix multiplication of features against the
stacked transferred and conventionally-learned "other" weights.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError, StateError, TrainingDiverged
from .layers import ClassBatchNorm, GroupNorm, InputStandardizer, Linear, Param, ReLU
from .losses import sigmoid_bce, smooth_l1, total_loss
from .matrix import atomic_write_text, matrix_hash, matrix_to_json_obj, save_matrix_json
from .optim import AdamW, SGDMomentum

VARIANTS = ("wtn", "wtn_plus", "ae_wtn")


@dataclass
class SourceWeights:
    """Frozen source-classifier weights with the shared/novel class split."""

    weights: np.ndarray            # (|C|, d_src), read-only
    shared_mask: np.ndarray        # bool, True where the class is shared
    novel_mask: np.ndarray
    class_ids: list[int]

    @classmethod
    def create(cls, weights: np.ndarray, shared_ids) -> "SourceWeights":
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        n = weights.shape[0]
        shared = np.zeros(n, dtype=bool)
        shared[list(shared_ids)] = True
        weights.setflags(write=False)
        return cls(weights, shared, ~shared, list(range(n)))

    def __post_init__(self):
        if self.shared_mask.shape != self.novel_mask.shape:
            raise ShapeError("shared and novel masks differ in length")
        if np.any(self.shared_mask & self.novel_mask) or not np.all(self.shared_mask | self.novel_mask):
            raise ValueError("shared and novel masks must partition the classes")

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    @property
    def shared_index(self) -> np.ndarray:
        return np.flatnonzero(self.shared_mask)

    @property
    def novel_index(self) -> np.ndarray:
        return np.flatnonzero(self.novel_mask)


@dataclass(frozen=True)
class ModelConfig:
    variant: str
    in_dim: int = 64
    hidden_dim: int = 64
    out_dim: int = 64
    groups: int = 8
    eps: float = 1e-5
    # None means "use the variant's default"; explicit booleans drive the
    # normalization ablation grid.
    input_norm: bool | None = None
    feature_norm: bool | None = None
    norm_kind: str = "group"       # "group" or "class_batch"

    def resolved_input_norm(self) -> bool:
        if self.input_norm is not None:
            return self.input_norm
        return self.variant in ("wtn_plus", "ae_wtn")

    def resolved_feature_norm(self) -> bool:
        if self.feature_norm is not None:
            return self.feature_norm
        return self.variant in ("wtn_plus", "ae_wtn")

    def validate(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.hidden_dim < 1 or self.groups < 1:
            raise ConfigError(f"hidden_dim and groups must be at least 1, got "
                              f"{self.hidden_dim} and {self.groups}")
        if self.norm_kind not in ("group", "class_batch"):
            raise ConfigError(f"unknown norm_kind {self.norm_kind!r}")
        if self.resolved_feature_norm() and self.norm_kind == "group" \
                and self.hidden_dim % self.groups != 0:
            raise ConfigError(f"hidden_dim ({self.hidden_dim}) not divisible by "
                              f"groups ({self.groups})")


class TransferModel:
    """Encoder (and, for ae_wtn, mirrored decoder) over class weight rows."""

    def __init__(self, config: ModelConfig, source: SourceWeights | None, seed: int):
        config.validate()
        self.config = config
        self.variant = config.variant
        self.seed = seed

        init_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])

        self.standardizer = None
        if config.resolved_input_norm():
            if source is None:
                raise ConfigError("input standardization needs source weights to fit")
            self.standardizer = InputStandardizer.fit(source.weights, config.eps)

        def norm_layer(name):
            if config.norm_kind == "class_batch":
                return ClassBatchNorm(config.hidden_dim, config.eps, name=name)
            return GroupNorm(config.hidden_dim, config.groups, config.eps, name=name)

        enc = [Linear(config.in_dim, config.hidden_dim, init_rng, name="enc1")]
        if config.resolved_feature_norm():
            enc.append(norm_layer("enc_norm"))
        enc.append(ReLU())
        enc.append(Linear(config.hidden_dim, config.out_dim, init_rng, name="enc2"))
        self.encoder = enc

        self.decoder = None
        if config.variant == "ae_wtn":
            dec = [Linear(config.out_dim, config.hidden_dim, init_rng, name="dec1")]
            if config.resolved_feature_norm():
                dec.append(norm_layer("dec_norm"))
            dec.append(ReLU())
            dec.append(Linear(config.hidden_dim, config.in_dim, init_rng, name="dec2"))
            self.decoder = dec

    @property
    def has_decoder(self) -> bool:
        return self.decoder is not None

    def encoder_parameters(self) -> list[Param]:
        return [p for layer in self.encoder for p in layer.params()]

    def decoder_parameters(self) -> list[Param]:
        if self.decoder is None:
            return []
        return [p for layer in self.decoder for p in layer.params()]

    def parameters(self) -> list[Param]:
        return self.encoder_parameters() + self.decoder_parameters()

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def _forward_encoder(self, w: np.ndarray, layers) -> np.ndarray:
        if w.ndim != 2 or w.shape[1] != self.config.in_dim:
            raise ShapeError(f"transfer expects (k, {self.config.in_dim}), got {w.shape}")
        x = self.standardizer.forward(w) if self.standardizer is not None else w
        for layer in layers:
            x = layer.forward(x)
        return x

    def encode(self, w: np.ndarray) -> np.ndarray:
        """Map class weight rows to target weight rows."""
        return self._forward_encoder(w, self.encoder)

    def encode_backward(self, dout: np.ndarray) -> np.ndarray:
        g = dout
        for layer in reversed(self.encoder):
            g = layer.backward(g)
        if self.standardizer is not None:
            g = self.standardizer.backward(g)
        return g

    def decode(self, h: np.ndarray) -> np.ndarray:
        if self.decoder is None:
            raise StateError(f"variant {self.variant!r} has no decoder")
        x = h
        for layer in self.decoder:
            x = layer.forward(x)
        return x

    def decode_backward(self, dout: np.ndarray) -> np.ndarray:
        if self.decoder is None:
            raise StateError(f"variant {self.variant!r} has no decoder")
        g = dout
        for layer in reversed(self.decoder):
            g = layer.backward(g)
        return g

    def hidden_activations(self, w: np.ndarray) -> np.ndarray:
        """Post-ReLU hidden activations for each input row (all but the last layer)."""
        return self._forward_encoder(w, self.encoder[:-1])

    def params_hash(self, params: list[Param] | None = None) -> str:
        params = self.parameters() if params is None else params
        import hashlib
        h = hashlib.sha256()
        for p in params:
            h.update(p.name.encode())
            h.update(np.ascontiguousarray(p.data).tobytes())
        return h.hexdigest()


class DetectionProxyHead:
    """Bias-free linear scorer over transferred plus "other" class weights."""

    def __init__(self, n_other: int, d_feat: int):
        self.other_weights = Param("head.other_weights", np.zeros((n_other, d_feat)))

    @property
    def d_feat(self) -> int:
        return self.other_weights.data.shape[1]

    def score(self, features: np.ndarray, w_transferred: np.ndarray) -> np.ndarray:
        """logits = features @ [w_transferred; other]^T, no per-class bias.

        Column order: the rows of ``w_transferred`` in the order given,
        followed by the "other" classes.
        """
        if features.ndim != 2 or features.shape[1] != self.d_feat:
            raise ShapeError(f"features {features.shape} do not match weight dim {self.d_feat}")
        if w_transferred.shape[1] != self.d_feat:
            raise ShapeError(f"transferred weights {w_transferred.shape} do not match "
                             f"feature dim {self.d_feat}")
        stack = np.vstack([w_transferred, self.other_weights.data])
        return features @ stack.T


@dataclass
class TrainConfig:
    iterations: int = 600
    batch_size: int = 128
    alpha: float = 20.0
    adamw_lr: float = 1e-3
    adamw_weight_decay: float = 1e-4
    head_lr: float = 0.02
    head_momentum: float = 0.9
    head_weight_decay: float = 1e-4
    seed: int = 0


@dataclass
class TrainingReport:
    variant: str
    seed: int
    curve: dict = field(default_factory=dict)   # iteration -> lists; not in to_json
    final_l_cls: float = 0.0
    final_l_rec: float = 0.0
    final_total: float = 0.0
    w_c_hash_before: str = ""
    w_c_hash_after: str = ""
    decoder_hash_init: str | None = None
    decoder_hash_final: str | None = None
    model_hash_final: str = ""
    config_echo: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "variant": self.variant, "seed": self.seed,
            "final_l_cls": self.final_l_cls, "final_l_rec": self.final_l_rec,
            "final_total": self.final_total,
            "w_c_hash_before": self.w_c_hash_before, "w_c_hash_after": self.w_c_hash_after,
            "decoder_hash_init": self.decoder_hash_init,
            "decoder_hash_final": self.decoder_hash_final,
            "model_hash_final": self.model_hash_final,
            "config_echo": self.config_echo,
        }
        return json.dumps(payload, sort_keys=True, indent=1)


def joint_losses(model: TransferModel, head: DetectionProxyHead, source: SourceWeights,
                 features: np.ndarray, labels: np.ndarray, alpha: float,
                 backprop: bool = False):
    """One forward (and, with ``backprop``, backward) pass of the joint objective.

    The encoder always sees the full class batch W_C; the shared rows feed
    the detection loss, all rows feed the reconstruction loss when a
    decoder exists. Returns (l_cls, l_rec_or_None, total_scalar).
    """
    shared_idx = source.shared_index
    out_all = model.encode(source.weights)

    w_shared = out_all[shared_idx]
    logits = head.score(features, w_shared)
    l_cls = sigmoid_bce(logits, labels)

    l_rec = None
    if model.has_decoder and alpha != 0.0:
        recon = model.decode(out_all)
        l_rec = smooth_l1(recon, source.weights)

    comb = total_loss(l_cls, l_rec, alpha)

    if backprop:
        dlogits = comb.grad_cls
        dstack = dlogits.T @ features                    # (|S| + n_other, d_feat)
        n_s = len(shared_idx)
        head.other_weights.grad += dstack[n_s:]
        dout_all = np.zeros_like(out_all)
        dout_all[shared_idx] += dstack[:n_s]
        if l_rec is not None:
            dout_all += model.decode_backward(comb.grad_rec)
        model.encode_backward(dout_all)

    return l_cls, l_rec, comb.value


def train_joint(model: TransferModel, head: DetectionProxyHead, source: SourceWeights,
                data, config: TrainConfig, csv_path: str | None = None) -> TrainingReport:
    """Joint training loop: AdamW on the transfer model, SGD+momentum on the
    "other" class weights, with W_C frozen throughout.

    ``data`` must provide ``sample("train", batch_size, rng)`` returning a
    (features, labels) pair aligned with the head's column order. A
    non-finite loss aborts with the failing iteration number.
    """
    batch_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    # With alpha == 0 the decoder receives no gradient at all; keeping it
    # out of the optimizer leaves it untouched by weight decay as well.
    trainable = (model.parameters() if model.has_decoder and config.alpha != 0.0
                 else model.encoder_parameters())
    opt_model = AdamW(trainable, lr=config.adamw_lr,
                      weight_decay=config.adamw_weight_decay)
    opt_head = SGDMomentum([head.other_weights], lr=config.head_lr,
                           momentum=config.head_momentum,
                           weight_decay=config.head_weight_decay)

    report = TrainingReport(variant=model.variant, seed=config.seed)
    report.w_c_hash_before = matrix_hash(source.weights)
    if model.has_decoder:
        report.decoder_hash_init = model.params_hash(model.decoder_parameters())

    iters, cls_curve, rec_curve, total_curve = [], [], [], []
    csv_lines = ["iteration,l_cls,l_rec,total"]

    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(config.iterations):
            feats, labels = data.sample("train", config.batch_size, batch_rng)
            l_cls, l_rec, total = joint_losses(model, head, source, feats, labels,
                                               config.alpha, backprop=True)
            if not np.isfinite(total):
                raise TrainingDiverged(it)
            opt_model.step()
            opt_head.step()
            opt_model.zero_grad()
            opt_head.zero_grad()

            rec_val = l_rec.value if l_rec is not None else 0.0
            iters.append(it)
            cls_curve.append(l_cls.value)
            rec_curve.append(rec_val)
            total_curve.append(total)
            csv_lines.append(f"{it},{l_cls.value!r},{rec_val!r},{total!r}")

    report.curve = {"iteration": iters, "l_cls": cls_curve,
                    "l_rec": rec_curve, "total": total_curve}
    report.final_l_cls = cls_curve[-1] if cls_curve else 0.0
    report.final_l_rec = rec_curve[-1] if rec_curve else 0.0
    report.final_total = total_curve[-1] if total_curve else 0.0
    report.w_c_hash_after = matrix_hash(source.weights)
    if model.has_decoder:
        report.decoder_hash_final = model.params_hash(model.decoder_parameters())
    report.model_hash_final = model.params_hash()

    if csv_path is not None:
        atomic_write_text(csv_path, "\n".join(csv_lines) + "\n")
    return report


def export_transferred(model: TransferModel, source: SourceWeights, path: str) -> None:
    """Write W_D for every source class (shared and novel) plus a manifest.

    The JSON float encoding round-trips exactly, so scoring against the
    reloaded matrix is bit-identical to in-process transfer.
    """
    w_d = model.encode(source.weights)
    save_matrix_json(w_d, path)
    manifest = {
        "variant": model.variant,
        "in_dim": model.config.in_dim,
        "hidden_dim": model.config.hidden_dim,
        "out_dim": model.config.out_dim,
        "groups": model.config.groups,
        "norm_kind": model.config.norm_kind,
        "seed": model.seed,
        "class_ids": source.class_ids,
        "shared_mask": [bool(b) for b in source.shared_mask],
        "novel_mask": [bool(b) for b in source.novel_mask],
    }
    stem = path[:-5] if path.endswith(".json") else path
    atomic_write_text(stem + ".manifest.json", json.dumps(manifest, sort_keys=True, indent=1))


def save_model_params(model: TransferModel, path: str) -> None:
    """Serialize every layer parameter as a JSON matrix keyed by its name."""
    obj = {}
    for p in model.parameters():
        data = p.data if p.data.ndim == 2 else p.data.reshape(1, -1)
        obj[p.name] = matrix_to_json_obj(data)
    atomic_write_text(path, json.dumps(obj, sort_keys=True))


def load_model_params(model: TransferModel, path: str) -> None:
    """Restore parameters saved by save_model_params into a model built with
    the same configuration and seed."""
    from .matrix import matrix_from_json_obj
    with open(path) as f:
        obj = json.load(f)
    for p in model.parameters():
        if p.name not in obj:
            raise StateError(f"saved parameters are missing {p.name!r}")
        p.data[...] = matrix_from_json_obj(obj[p.name]).reshape(p.data.shape)


# --- Non-WTN baselines -----------------------------------------------------

@dataclass
class ConventionalHead:
    """Per-class weights learned without any transfer network.

    Row order: shared classes (in source order) then "other" classes.
    ``lsda_biases`` is present when the seen rows were parameterized as
    frozen W_C rows plus learned additive biases.
    """
    weights: np.ndarray
    n_shared: int
    lsda_biases: np.ndarray | None = None


def train_conventional_head(source: SourceWeights, data, d_feat: int, *,
                            mode: str = "plain", iterations: int = 600,
                            batch_size: int = 128, lr: float = 0.02,
                            momentum: float = 0.9, weight_decay: float = 1e-4,
                            seed: int = 0) -> ConventionalHead:
    """Train a plain linear head (or LSDA-style biases) on the target task."""
    if mode not in ("plain", "lsda"):
        raise ConfigError(f"unknown head mode {mode!r}")
    shared_idx = source.shared_index
    n_s = len(shared_idx)
    n_other = data.num_other
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])

    if mode == "lsda":
        if source.dim != d_feat:
            raise ShapeError(f"lsda needs d_src == d_feat, got {source.dim} vs {d_feat}")
        base_seen = source.weights[shared_idx]
    else:
        base_seen = np.zeros((n_s, d_feat))
    seen_param = Param("head.seen", np.zeros((n_s, d_feat)))
    other_param = Param("head.other", np.zeros((n_other, d_feat)))
    opt = SGDMomentum([seen_param, other_param], lr=lr, momentum=momentum,
                      weight_decay=weight_decay)

    for _ in range(iterations):
        feats, labels = data.sample("train", batch_size, rng)
        stack = np.vstack([base_seen + seen_param.data, other_param.data])
        logits = feats @ stack.T
        lv = sigmoid_bce(logits, labels)
        dstack = lv.grad.T @ feats
        seen_param.grad += dstack[:n_s]
        other_param.grad += dstack[n_s:]
        opt.step()
        opt.zero_grad()

    weights = np.vstack([base_seen + seen_param.data, other_param.data])
    biases = seen_param.data if mode == "lsda" else None
    return ConventionalHead(weights=weights, n_shared=n_s, lsda_biases=biases)


def _nearest_seen(source: SourceWeights, k: int) -> np.ndarray:
    """Indices (into the shared list) of each novel class's k nearest seen
    classes by Euclidean distance in W_C space, ties broken by class index."""
    shared_idx = source.shared_index
    if k < 1 or k > len(shared_idx):
        raise ValueError(f"k must be in [1, {len(shared_idx)}], got {k}")
    novel = source.weights[source.novel_index]
    seen = source.weights[shared_idx]
    d2 = ((novel[:, None, :] - seen[None, :, :]) ** 2).sum(axis=2)
    order = np.argsort(d2, axis=1, kind="stable")
    return order[:, :k]


def baseline_nn_transfer(head: ConventionalHead, source: SourceWeights, k: int = 1) -> np.ndarray:
    """Novel weights copied (k=1) or averaged from the nearest seen classes'
    conventionally learned rows."""
    nearest = _nearest_seen(source, k)
    return head.weights[:head.n_shared][nearest].mean(axis=1)


def baseline_lsda_bias(head: ConventionalHead, source: SourceWeights, k: int = 1) -> np.ndarray:
    """Novel weight = own W_C row + mean learned bias of k nearest seen classes."""
    if head.lsda_biases is None:
        raise StateError("head was not trained in lsda mode (no learned biases)")
    nearest = _nearest_seen(source, k)
    mean_bias = head.lsda_biases[nearest].mean(axis=1)
    return source.weights[source.novel_index] + mean_bias
