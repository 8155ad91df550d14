"""Transfer networks, the detection-proxy head, joint training, and baselines.

The transfer network maps each source class's weight vector to a target
classification weight vector. Three variants share one implementation:

* ``wtn``       plain two-layer MLP,
* ``wtn_plus``  adds frozen per-channel input standardization and group
                normalization of the hidden features,
* ``ae_wtn``    adds a mirrored decoder trained with a smooth-L1
                reconstruction loss over every source class.

``ModelConfig`` is the experiment config's ``model`` section. A model's rows
are as wide as the source weights W_C. Its encoder and decoder are plain
layer lists that one forward and one backward loop run; with input
standardization on, the encoder's first layer is the frozen standardizer,
fitted on W_C.

Each model keeps its trainable state in one parameter store: two float64
vectors, ``model.data`` and ``model.grad``, built by ``layers.flatten``.
The encoder's parameters come first, in layer order, and the decoder's
follow from ``model.encoder_size`` on; every layer's ``Param.data`` and
``Param.grad`` are reshaped views of their slice. So an optimizer step,
``zero_grad``, a model hash and the saved parameters each act on one array.

Scoring is a bias-free matrix multiplication of features against the
stacked transferred and conventionally-learned "other" weights.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError, StateError, TrainingDiverged
from .layers import ClassBatchNorm, GroupNorm, InputStandardizer, Linear, Param, ReLU, flatten
from .losses import sigmoid_bce, smooth_l1, total_loss
from .matrix import load_matrix_json, matrix_hash, save_matrix_json
from .optim import AdamW, SGDMomentum

VARIANTS = ("wtn", "wtn_plus", "ae_wtn")


@dataclass
class SourceWeights:
    """Frozen source-classifier weights with the shared/novel class split."""

    weights: np.ndarray            # (|C|, d_src), read-only
    shared_mask: np.ndarray        # bool, True where the class is shared

    @classmethod
    def create(cls, weights: np.ndarray, shared_ids) -> "SourceWeights":
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        shared = np.zeros(weights.shape[0], dtype=bool)
        shared[list(shared_ids)] = True
        weights.setflags(write=False)
        return cls(weights, shared)

    @property
    def novel_mask(self) -> np.ndarray:
        return ~self.shared_mask

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
    variant: str = "ae_wtn"
    hidden_dim: int = 64
    groups: int = 8
    norm_kind: str = "group"       # "group" or "class_batch"
    # None means "use the variant's default"; explicit booleans drive the
    # normalization ablation grid.
    input_norm: bool | None = None
    feature_norm: bool | None = None

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


def _forward(layers, x: np.ndarray) -> np.ndarray:
    for layer in layers:
        x = layer.forward(x)
    return x


def _backward(layers, g: np.ndarray) -> np.ndarray:
    for layer in reversed(layers):
        g = layer.backward(g)
    return g


class TransferModel:
    """Encoder: [standardizer,] Linear, [norm,] ReLU, Linear. For ae_wtn, a
    decoder: Linear, [norm,] ReLU, Linear. Rows in and out are ``source.dim``
    wide."""

    def __init__(self, config: ModelConfig, source: SourceWeights, seed: int):
        config.validate()
        self.variant = config.variant
        dim, hidden = source.dim, config.hidden_dim
        init_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])

        def block(name):
            layers = [Linear(dim, hidden, init_rng, name=f"{name}1")]
            if config.resolved_feature_norm():
                layers.append(ClassBatchNorm(hidden, name=f"{name}_norm")
                              if config.norm_kind == "class_batch"
                              else GroupNorm(hidden, config.groups, name=f"{name}_norm"))
            return layers + [ReLU(), Linear(hidden, dim, init_rng, name=f"{name}2")]

        self.encoder = ([InputStandardizer.fit(source.weights)]
                        if config.resolved_input_norm() else []) + block("enc")
        self.decoder = block("dec") if config.variant == "ae_wtn" else None
        self.encoder_size = sum(p.data.size for layer in self.encoder for p in layer.params())
        self.data, self.grad = flatten(self.parameters())

    @property
    def has_decoder(self) -> bool:
        return self.decoder is not None

    def parameters(self) -> list[Param]:
        """Every layer's parameters in store order: encoder, then decoder."""
        return [p for layer in self.encoder + (self.decoder or []) for p in layer.params()]

    def zero_grad(self):
        self.grad[...] = 0.0

    def encode(self, w: np.ndarray) -> np.ndarray:
        """Map class weight rows to target weight rows."""
        return _forward(self.encoder, w)

    def encode_backward(self, dout: np.ndarray) -> np.ndarray:
        return _backward(self.encoder, dout)

    def _decoder(self) -> list:
        if self.decoder is None:
            raise StateError(f"variant {self.variant!r} has no decoder")
        return self.decoder

    def decode(self, h: np.ndarray) -> np.ndarray:
        return _forward(self._decoder(), h)

    def decode_backward(self, dout: np.ndarray) -> np.ndarray:
        return _backward(self._decoder(), dout)

    def hidden_activations(self, w: np.ndarray) -> np.ndarray:
        """Post-ReLU hidden activations for each input row (all but the last layer)."""
        return _forward(self.encoder[:-1], w)


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

    def to_json(self) -> str:
        payload = asdict(self)
        del payload["curve"]
        return json.dumps(payload, sort_keys=True, indent=1)


def joint_losses(model: TransferModel, head: DetectionProxyHead, source: SourceWeights,
                 features: np.ndarray, labels: np.ndarray, alpha: float,
                 backprop: bool = False):
    """One forward (and, with ``backprop``, backward) pass of the joint objective.

    The shared rows of the transferred W_C feed the detection loss. The
    encoder sees every class row only when a loss reads them: AE-WTN's
    reconstruction loss (a decoder and alpha != 0) covers every class, and
    class-batch normalization takes its statistics over all the rows it is
    shown. Otherwise each row is transferred on its own (the frozen input
    standardizer and group norm work row by row), so the encoder sees only
    the shared rows and gives them the same values and gradients.
    Returns (l_cls, l_rec_or_None, total_scalar).
    """
    shared_idx = source.shared_index
    reconstruct = model.has_decoder and alpha != 0.0
    all_rows = reconstruct or any(isinstance(layer, ClassBatchNorm) for layer in model.encoder)
    if all_rows:
        out_all = model.encode(source.weights)
        w_shared = out_all[shared_idx]
    else:
        w_shared = model.encode(source.weights[shared_idx])

    logits = head.score(features, w_shared)
    l_cls = sigmoid_bce(logits, labels)

    l_rec = None
    if reconstruct:
        recon = model.decode(out_all)
        l_rec = smooth_l1(recon, source.weights)

    comb = total_loss(l_cls, l_rec, alpha)

    if backprop:
        dlogits = comb.grad_cls
        dstack = dlogits.T @ features                    # (|S| + n_other, d_feat)
        n_s = len(shared_idx)
        head.other_weights.grad += dstack[n_s:]
        if all_rows:
            dout = np.zeros_like(out_all)
            dout[shared_idx] += dstack[:n_s]
            if l_rec is not None:
                dout += model.decode_backward(comb.grad_rec)
        else:
            dout = dstack[:n_s]
        model.encode_backward(dout)

    return l_cls, l_rec, comb.value


def train_joint(model: TransferModel, head: DetectionProxyHead, source: SourceWeights,
                data, config: TrainConfig) -> TrainingReport:
    """Joint training loop: AdamW on the transfer model, SGD+momentum on the
    "other" class weights, with W_C frozen throughout.

    ``data`` must provide ``sample("train", batch_size, rng)`` returning a
    (features, labels) pair aligned with the head's column order. A
    non-finite loss aborts with the failing iteration number.
    """
    batch_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    # With alpha == 0 the decoder receives no gradient at all; keeping it
    # out of the optimizer leaves it untouched by weight decay as well.
    n = model.data.size if config.alpha != 0.0 else model.encoder_size
    opt_model = AdamW(model.data[:n], model.grad[:n], lr=config.adamw_lr,
                      weight_decay=config.adamw_weight_decay)
    opt_head = SGDMomentum(head.other_weights.data, head.other_weights.grad,
                           lr=config.head_lr, momentum=config.head_momentum,
                           weight_decay=config.head_weight_decay)

    report = TrainingReport(variant=model.variant, seed=config.seed)
    report.w_c_hash_before = matrix_hash(source.weights)
    if model.has_decoder:
        report.decoder_hash_init = matrix_hash(model.data[model.encoder_size:])

    iters, cls_curve, rec_curve, total_curve = [], [], [], []

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

    report.curve = {"iteration": iters, "l_cls": cls_curve,
                    "l_rec": rec_curve, "total": total_curve}
    report.final_l_cls = cls_curve[-1] if cls_curve else 0.0
    report.final_l_rec = rec_curve[-1] if rec_curve else 0.0
    report.final_total = total_curve[-1] if total_curve else 0.0
    report.w_c_hash_after = matrix_hash(source.weights)
    if model.has_decoder:
        report.decoder_hash_final = matrix_hash(model.data[model.encoder_size:])
    report.model_hash_final = matrix_hash(model.data)
    return report


def save_model_params(model: TransferModel, path: str) -> None:
    """Serialize the parameter store as a one-row JSON matrix."""
    save_matrix_json(model.data.reshape(1, -1), path)


def load_model_params(model: TransferModel, path: str) -> None:
    """Restore a store saved by save_model_params into a model built with the
    same configuration; a store of another size raises ValidationError."""
    model.data[...] = load_matrix_json(path, (1, model.data.size))[0]


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

    # The learned rows are one (n_s + n_other, d_feat) array added to a fixed
    # base: the W_C seen rows in lsda mode, zeros otherwise.
    base = np.zeros((n_s + n_other, d_feat))
    if mode == "lsda":
        if source.dim != d_feat:
            raise ShapeError(f"lsda needs d_src == d_feat, got {source.dim} vs {d_feat}")
        base[:n_s] = source.weights[shared_idx]
    learned, grad = np.zeros_like(base), np.zeros_like(base)
    opt = SGDMomentum(learned, grad, lr=lr, momentum=momentum, weight_decay=weight_decay)

    for _ in range(iterations):
        feats, labels = data.sample("train", batch_size, rng)
        logits = feats @ (base + learned).T
        lv = sigmoid_bce(logits, labels)
        grad += lv.grad.T @ feats
        opt.step()
        opt.zero_grad()

    biases = learned[:n_s] if mode == "lsda" else None
    return ConventionalHead(weights=base + learned, n_shared=n_s, lsda_biases=biases)


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
