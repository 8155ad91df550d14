"""Transfer networks, the detection-proxy head, joint training, and baselines.

``METHODS`` is the one method table: it maps every method label, the
``model.variant`` of a config and the METHOD of a run, to the method. The
five transfer variants come first, each mapped to the ``Layers`` it builds:

* ``wtn``               plain two-layer MLP,
* ``wtn_plus``          adds frozen per-channel input standardization and
                        group normalization of the hidden features,
* ``ae_wtn``            WTN+ plus a mirrored decoder trained with a
                        smooth-L1 reconstruction loss over every source class,
* ``wtn_plus_in_only``  WTN+ with input standardization only,
* ``wtn_plus_gn_only``  WTN+ with group normalization only.

The first three are the paper's networks, ``VARIANTS``; the last two
complete its input-norm x group-norm ablation. Two baselines with no
transfer network follow, each a ``Baseline``:

* ``nn_copy``  seen rows learned from zero, each novel row copied from the
               nearest seen class in W_C space,
* ``lsda``     seen rows learned as offsets to their W_C rows, each novel
               row its W_C row plus the offset of the nearest seen class.

Both take k = 1 nearest seen class, fixed before any novel score was
looked at. The table lists the transfer labels from the plainest network
to the fullest, then the baselines, and a comparison table puts its rows in
that order.

``ModelConfig`` is the experiment config's ``model`` section; its
``variant`` is any label of the table. A model's rows are as wide as the
source weights W_C. Its encoder and decoder are plain layer lists that one
forward and one backward loop run, and a model holds only layers it trains.

W_C is frozen, and so is its per-channel standardization, a fixed function
of W_C: ``SourceWeights`` keeps its own read-only copy of W_C and computes
the standardized rows, ``standardized``, once. ``TransferModel.inputs``
picks those rows or W_C itself by the variant's input norm, and every pass,
training, ``encode`` and ``hidden_activations``, starts at the first Linear
from them. A training pass's backward pass stops at that Linear's parameter
gradients: nothing reads a gradient for W_C.

The objective, detection loss plus alpha times AE-WTN's reconstruction
loss, is summed in ``joint_losses`` alone. A training run keeps one loss
record, ``TrainingReport.losses``: an ``(l_cls, l_rec, total)`` tuple per
iteration, whose last entry gives the report's ``final_*`` values.

Each model keeps its trainable state in one parameter store: two float64
vectors, ``model.data`` and ``model.grad``, built by ``layers.flatten``.
The encoder's parameters come first, in layer order, and the decoder's
follow from ``model.encoder_size`` on; every layer's ``Param.data`` and
``Param.grad`` are reshaped views of their slice. So an optimizer step,
``zero_grad`` and a model hash each act on one array.

Scoring is a bias-free matrix multiplication of features against the
stacked transferred and conventionally-learned "other" weights, written
once, in ``DetectionProxyHead.score``: training and evaluation both call it.
The detection loss on those scores, the mean sigmoid BCE, and its gradient
are written once too, in ``DetectionProxyHead.loss``, which joint training
and the baselines' head training both call.

Every method ends in the same pair: W_D, a (|C|, d) row for every source
class, and a ``DetectionProxyHead``. A transfer model's W_D is its encoding
of W_C. A baseline's ``fit`` trains the seen rows and the head
directly (``train_conventional_head``, with the head settings,
iterations, batch size and seed of the run's ``TrainConfig``) and fills the
novel rows from the nearest seen classes (``baseline_nn_transfer``,
``baseline_lsda_bias``, found by ``matrix.nearest_rows``), so
``evaluation.evaluate`` scores every method alike.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ShapeError, StateError, TrainingDiverged
from .layers import ClassBatchNorm, GroupNorm, Linear, Param, ReLU, flatten
from .losses import LossValue, sigmoid_bce, smooth_l1
from .matrix import matrix_hash, nearest_rows
from .optim import AdamW, SGDMomentum


class Layers(NamedTuple):
    """The optional layers of a transfer variant."""
    input_norm: bool        # the frozen input standardization
    feature_norm: bool      # normalization of the hidden features
    decoder: bool           # the reconstruction decoder


@dataclass
class SourceWeights:
    """Frozen source-classifier weights with the shared/novel class split.

    ``weights`` is the instance's own read-only, C-contiguous float64 copy
    of the array it is given, so the caller's array stays as it was and no
    write to it reaches W_C."""

    weights: np.ndarray            # (|C|, d_src), read-only
    shared_mask: np.ndarray        # bool, True where the class is shared

    def __post_init__(self):
        self.weights = np.array(self.weights, dtype=np.float64, order="C")
        if self.weights.ndim != 2:
            raise ShapeError(f"source weights must be (classes, dim), got {self.weights.shape}")
        self.weights.setflags(write=False)

    @classmethod
    def create(cls, weights: np.ndarray, shared_ids) -> "SourceWeights":
        shared = np.zeros(len(weights), dtype=bool)
        shared[list(shared_ids)] = True
        return cls(weights, shared)

    @cached_property
    def standardized(self) -> np.ndarray:
        """W_C with each channel standardized by its own population moments,
        (w - mean) / (std + 1e-5), computed on first use; read-only."""
        w = self.weights
        if w.shape[0] < 2:
            raise ValueError(f"standardization needs at least 2 rows, got shape {w.shape}")
        rows = (w - w.mean(axis=0)) / (w.std(axis=0) + 1e-5)
        rows.setflags(write=False)
        return rows

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

    def __post_init__(self):
        if self.variant not in METHODS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of "
                              f"{tuple(METHODS)}")
        if self.hidden_dim < 1 or self.groups < 1:
            raise ConfigError(f"hidden_dim and groups must be at least 1, got "
                              f"{self.hidden_dim} and {self.groups}")
        if self.norm_kind not in ("group", "class_batch"):
            raise ConfigError(f"unknown norm_kind {self.norm_kind!r}")
        if METHODS[self.variant].feature_norm and self.norm_kind == "group" \
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
    """Encoder: Linear, [norm,] ReLU, Linear. With a decoder (ae_wtn):
    Linear, [norm,] ReLU, Linear. The variant's ``Layers`` entry in
    ``METHODS`` says which optional layers there are; a method with no
    transfer network raises ConfigError. Rows in and out are as wide as the
    ``source`` the model is built for, which is read only for its width; a
    pass reads the source it is given."""

    def __init__(self, config: ModelConfig, source: SourceWeights, seed: int):
        self.variant = config.variant
        spec = METHODS[config.variant]
        if not isinstance(spec, Layers):
            raise ConfigError(f"method {config.variant!r} has no transfer network")
        dim, hidden = source.dim, config.hidden_dim
        init_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])

        def block(name):
            layers = [Linear(dim, hidden, init_rng, name=f"{name}1")]
            if spec.feature_norm:
                layers.append(ClassBatchNorm(hidden, name=f"{name}_norm")
                              if config.norm_kind == "class_batch"
                              else GroupNorm(hidden, config.groups, name=f"{name}_norm"))
            return layers + [ReLU(), Linear(hidden, dim, init_rng, name=f"{name}2")]

        self.input_norm = spec.input_norm
        self.encoder = block("enc")
        self.decoder = block("dec") if spec.decoder else None
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

    def inputs(self, source: SourceWeights) -> np.ndarray:
        """The rows the encoder reads for ``source``: its standardized rows
        with input standardization on, else its W_C."""
        return source.standardized if self.input_norm else source.weights

    def encode(self, source: SourceWeights) -> np.ndarray:
        """Map each class weight row of ``source`` to a target weight row."""
        return _forward(self.encoder, self.inputs(source))

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

    def hidden_activations(self, source: SourceWeights) -> np.ndarray:
        """Post-ReLU hidden activations for each class row of ``source``
        (all but the last layer)."""
        return _forward(self.encoder[:-1], self.inputs(source))


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

    def loss(self, features: np.ndarray, labels: np.ndarray, rows: np.ndarray,
             backprop: bool = False) -> tuple[LossValue, np.ndarray | None]:
        """Mean sigmoid BCE of ``score(features, rows)`` against ``labels``,
        and with ``backprop`` the gradient w.r.t. ``rows``; the "other" rows'
        gradient is then added to ``other_weights.grad``."""
        l_cls = sigmoid_bce(self.score(features, rows), labels)
        if not backprop:
            return l_cls, None
        dstack = l_cls.grad.T @ features                 # (len(rows) + n_other, d_feat)
        self.other_weights.grad += dstack[len(rows):]
        return l_cls, dstack[:len(rows)]


@dataclass(frozen=True)
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

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        for name in ("adamw_lr", "head_lr"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("adamw_weight_decay", "head_weight_decay"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0 <= self.head_momentum < 1:
            raise ConfigError(f"head_momentum must be in [0, 1), got {self.head_momentum}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be at least 1, got {self.iterations}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigError(f"train.alpha must be finite and >= 0, got {self.alpha}")


@dataclass
class TrainingReport:
    losses: list[tuple[float, float, float]]    # (l_cls, l_rec, total) per iteration
    w_c_hash_before: str
    w_c_hash_after: str
    decoder_hash_init: str | None
    decoder_hash_final: str | None
    model_hash_final: str

    @property
    def final_l_cls(self) -> float:
        return self.losses[-1][0]

    @property
    def final_l_rec(self) -> float:
        return self.losses[-1][1]

    @property
    def final_total(self) -> float:
        return self.losses[-1][2]

    def to_json(self) -> str:
        """Every field but ``losses``, whose last entry gives the ``final_*``
        keys; the losses CSV holds the whole record."""
        payload = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "losses"}
        payload.update(final_l_cls=self.final_l_cls, final_l_rec=self.final_l_rec,
                       final_total=self.final_total)
        return json.dumps(payload, sort_keys=True, indent=1)


def joint_losses(model: TransferModel, head: DetectionProxyHead, source: SourceWeights,
                 features: np.ndarray, labels: np.ndarray, alpha: float,
                 backprop: bool = False):
    """One forward (and, with ``backprop``, backward) pass of the joint objective.

    The shared rows of the transferred W_C feed the detection loss. The
    encoder sees every class row only when a loss reads them: AE-WTN's
    reconstruction loss (a decoder and alpha != 0) covers every class, and
    class-batch normalization takes its statistics over all the rows it is
    shown. Otherwise each row is transferred on its own (group norm works
    row by row, and the standardized rows are fixed), so the encoder sees
    only the shared rows and gives them the same values and gradients.

    The pass starts from ``model.inputs(source)`` at the first Linear, and
    its backward pass ends in that Linear's parameter gradients.
    Returns (l_cls, l_rec_or_None, total), where ``total``, the objective,
    is ``l_cls.value + alpha * l_rec.value``, or ``l_cls.value`` when there
    is no reconstruction loss.
    """
    shared_idx = source.shared_index
    reconstruct = model.has_decoder and alpha != 0.0
    all_rows = reconstruct or any(isinstance(layer, ClassBatchNorm) for layer in model.encoder)
    layers, x = model.encoder, model.inputs(source)
    if all_rows:
        out_all = _forward(layers, x)
        w_shared = out_all[shared_idx]
    else:
        w_shared = _forward(layers, x[shared_idx])

    l_cls, d_shared = head.loss(features, labels, w_shared, backprop)

    l_rec, total = None, l_cls.value
    if reconstruct:
        l_rec = smooth_l1(model.decode(out_all), source.weights)
        total = l_cls.value + alpha * l_rec.value

    if backprop:
        if all_rows:
            dout = np.zeros_like(out_all)
            dout[shared_idx] += d_shared
            if l_rec is not None:
                dout += model.decode_backward(alpha * l_rec.grad)
        else:
            dout = d_shared
        layers[0].backward_params(_backward(layers[1:], dout))

    return l_cls, l_rec, total


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

    w_c_hash_before = matrix_hash(source.weights)

    def decoder_hash():
        return matrix_hash(model.data[model.encoder_size:]) if model.has_decoder else None

    decoder_hash_init = decoder_hash()
    losses = []

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
            losses.append((l_cls.value, l_rec.value if l_rec is not None else 0.0, total))

    return TrainingReport(losses, w_c_hash_before, matrix_hash(source.weights),
                          decoder_hash_init, decoder_hash(), matrix_hash(model.data))


# --- Non-WTN baselines -----------------------------------------------------

def train_conventional_head(source: SourceWeights, data, mode: str,
                            config: TrainConfig) -> tuple[np.ndarray, DetectionProxyHead]:
    """Train (|S|, d) seen rows and a head's "other" rows, with no transfer
    network, and return ``(w_seen, head)``. The seen rows are learned from
    zero (``plain``) or as offsets added to the frozen W_C rows (``lsda``).
    ``config`` gives the head's SGD settings (``head_lr``, ``head_momentum``,
    ``head_weight_decay``), ``iterations``, ``batch_size`` and ``seed``."""
    if mode not in ("plain", "lsda"):
        raise ConfigError(f"unknown head mode {mode!r}")
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    shape = len(source.shared_index), source.dim
    base = source.weights[source.shared_index] if mode == "lsda" else np.zeros(shape)
    learned, grad = np.zeros(shape), np.zeros(shape)
    head = DetectionProxyHead(data.num_other, source.dim)
    # Elementwise steps: the same bits as one optimizer over [seen; other].
    sgd = dict(lr=config.head_lr, momentum=config.head_momentum,
               weight_decay=config.head_weight_decay)
    other = head.other_weights
    opts = [SGDMomentum(learned, grad, **sgd), SGDMomentum(other.data, other.grad, **sgd)]

    for _ in range(config.iterations):
        feats, labels = data.sample("train", config.batch_size, rng)
        grad += head.loss(feats, labels, base + learned, backprop=True)[1]
        for opt in opts:
            opt.step()
            opt.zero_grad()
    return base + learned, head


def _nearest_seen(source: SourceWeights, k: int, w_seen: np.ndarray) -> np.ndarray:
    """Indices (into the shared list) of each novel class's k nearest seen
    classes by Euclidean distance in W_C space, ties broken by class index."""
    shared_idx = source.shared_index
    if w_seen.shape != (len(shared_idx), source.dim):
        raise ShapeError(f"seen rows {w_seen.shape} do not match the {len(shared_idx)} "
                         f"seen classes of width {source.dim}")
    if k < 1 or k > len(shared_idx):
        raise ValueError(f"k must be in [1, {len(shared_idx)}], got {k}")
    return nearest_rows(source.weights[source.novel_index], source.weights[shared_idx], k)[0]


def _with_novel_rows(w_seen: np.ndarray, source: SourceWeights,
                     novel_rows: np.ndarray) -> np.ndarray:
    """W_D: ``w_seen`` in the shared rows and ``novel_rows`` in the novel ones."""
    w_d = np.empty((source.num_classes, source.dim))
    w_d[source.shared_index] = w_seen
    w_d[source.novel_index] = novel_rows
    return w_d


def baseline_nn_transfer(w_seen: np.ndarray, source: SourceWeights, k: int = 1) -> np.ndarray:
    """W_D with each novel row copied (k=1) or averaged from the rows of
    ``w_seen`` of the k nearest seen classes in W_C space.

    Its novel top-1 depends on k through ties. With k = 1 a novel row
    equals the seen row it copies, so on every example the two classes
    score the same logit, and the argmax breaks that tie toward the lower
    class id: a novel class wins it only where its id is below the copied
    class's. With k >= 2 a logit of the mean of rows is the mean of their
    logits, never above the largest of them, and all of those rows are in
    the novel split's ranking, so a novel row wins the argmax only where
    its k sources score alike."""
    nearest = _nearest_seen(source, k, w_seen)
    return _with_novel_rows(w_seen, source, w_seen[nearest].mean(axis=1))


def baseline_lsda_bias(w_seen: np.ndarray, source: SourceWeights, k: int = 1) -> np.ndarray:
    """W_D with each novel row its own W_C row plus the mean offset,
    ``w_seen - W_C[S]``, of the k nearest seen classes."""
    nearest = _nearest_seen(source, k, w_seen)
    offset = w_seen - source.weights[source.shared_index]
    return _with_novel_rows(w_seen, source,
                            source.weights[source.novel_index] + offset[nearest].mean(axis=1))


class Baseline(NamedTuple):
    """A method with no transfer network: ``train_conventional_head`` in
    ``mode`` trains the seen rows and the head, and ``novel_rows``, at
    k = 1, fills the novel rows of W_D."""
    mode: str                       # "plain" or "lsda"
    novel_rows: Callable            # baseline_nn_transfer or baseline_lsda_bias
    input_norm = False              # it has neither layer of a transfer network
    feature_norm = False

    def fit(self, source: SourceWeights, data,
            config: TrainConfig) -> tuple[np.ndarray, DetectionProxyHead]:
        """W_D and the head, trained with ``config``."""
        w_seen, head = train_conventional_head(source, data, self.mode, config)
        return self.novel_rows(w_seen, source, k=1), head


# Every label a config, a run or a table row may name, in the order a
# comparison table sorts its rows.
METHODS = {
    "wtn": Layers(input_norm=False, feature_norm=False, decoder=False),
    "wtn_plus_in_only": Layers(input_norm=True, feature_norm=False, decoder=False),
    "wtn_plus_gn_only": Layers(input_norm=False, feature_norm=True, decoder=False),
    "wtn_plus": Layers(input_norm=True, feature_norm=True, decoder=False),
    "ae_wtn": Layers(input_norm=True, feature_norm=True, decoder=True),
    "nn_copy": Baseline("plain", baseline_nn_transfer),
    "lsda": Baseline("lsda", baseline_lsda_bias),
}
VARIANTS = ("wtn", "wtn_plus", "ae_wtn")
