"""Central finite-difference gradient checking for every layer, both losses,
the head's detection loss, and the end-to-end miniature training objective
on both of its paths: every class row through the encoder (AE-WTN) and the
shared rows only (WTN+).

The checks perturb the arrays in place that the closure reads, so the
closure must reference the original array object. Errors are measured as
|analytic - numeric| / max(|analytic|, |numeric|, floor); the floor keeps
finite-difference noise on near-zero entries from dominating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import ClassBatchNorm, GroupNorm, Linear, ReLU
from .losses import sigmoid_bce, smooth_l1
from .models import (DetectionProxyHead, ModelConfig, SourceWeights,
                     TransferModel, joint_losses)


def numeric_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences of scalar-valued f w.r.t. x, elementwise in place."""
    grad = np.zeros_like(x)
    flat, gflat = x.ravel(), grad.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = f()
        flat[i] = old - h
        fm = f()
        flat[i] = old
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray,
                       floor: float = 1e-3) -> float:
    a, n = np.asarray(analytic), np.asarray(numeric)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float((np.abs(a - n) / denom).max())


@dataclass
class CheckResult:
    name: str
    seed: int
    error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.error < self.tol


def _layer_error(layer, x: np.ndarray, r: np.ndarray) -> float:
    """Worst error of the layer's input gradient and of every parameter
    gradient, for the loss sum(layer.forward(x) * r)."""
    f = lambda: float(np.sum(layer.forward(x) * r))
    layer.forward(x)
    dx = layer.backward(r)
    return max(max_relative_error(grad, numeric_gradient(f, value))
               for grad, value in [(dx, x)] + [(p.grad, p.data) for p in layer.params()])


def _check_linear(rng) -> float:
    layer = Linear(8, 5, rng)
    x = rng.standard_normal((4, 8))
    return _layer_error(layer, x, rng.standard_normal((4, 5)))


def _check_relu(rng) -> float:
    x = rng.standard_normal((4, 6))
    x += np.sign(x) * 0.05          # keep entries away from the kink at 0
    return _layer_error(ReLU(), x, rng.standard_normal(x.shape))


def _check_norm(layer, rows: int, rng) -> float:
    width = layer.gamma.data.size
    layer.gamma.data[...] = rng.uniform(0.5, 1.5, size=width)
    layer.beta.data[...] = rng.standard_normal(width)
    x = rng.standard_normal((rows, width))
    return _layer_error(layer, x, rng.standard_normal(x.shape))


def _check_groupnorm(rng) -> float:
    return _check_norm(GroupNorm(4, 2), 3, rng)


def _check_classbatchnorm(rng) -> float:
    return _check_norm(ClassBatchNorm(4), 5, rng)


def _check_smooth_l1(rng) -> float:
    pred = rng.standard_normal((6, 4)) * 1.5
    target = rng.standard_normal((6, 4))
    f = lambda: smooth_l1(pred, target).value
    return max_relative_error(smooth_l1(pred, target).grad, numeric_gradient(f, pred))


def _check_sigmoid_bce(rng) -> float:
    logits = rng.standard_normal((5, 7)) * 2.0
    targets = (rng.random((5, 7)) < 0.5).astype(np.float64)
    f = lambda: sigmoid_bce(logits, targets).value
    return max_relative_error(sigmoid_bce(logits, targets).grad,
                              numeric_gradient(f, logits))


def _check_detection_loss(rng) -> float:
    """``DetectionProxyHead.loss``: its returned row gradient and the
    gradient it adds to the "other" rows."""
    head = DetectionProxyHead(n_other=2, d_feat=8)
    head.other_weights.data[...] = 0.1 * rng.standard_normal((2, 8))
    rows = rng.standard_normal((3, 8))
    feats = rng.standard_normal((4, 8))
    labels = (rng.random((4, 5)) < 0.4).astype(np.float64)
    f = lambda: head.loss(feats, labels, rows)[0].value
    d_rows = head.loss(feats, labels, rows, backprop=True)[1]
    other = head.other_weights
    return max(max_relative_error(d_rows, numeric_gradient(f, rows)),
               max_relative_error(other.grad, numeric_gradient(f, other.data)))


def miniature_setup(seed: int, variant: str = "ae_wtn"):
    """|C|=6, |S|=3, d=8, hidden=8, G=2, batch=4 joint objective fixture."""
    rng = np.random.default_rng(seed)
    w_c = rng.standard_normal((6, 8))
    source = SourceWeights.create(w_c, [0, 1, 2])
    cfg = ModelConfig(variant=variant, hidden_dim=8, groups=2)
    model = TransferModel(cfg, source, seed)
    head = DetectionProxyHead(n_other=2, d_feat=8)
    head.other_weights.data[...] = 0.1 * rng.standard_normal((2, 8))
    feats = rng.standard_normal((4, 8))
    labels = (rng.random((4, 5)) < 0.4).astype(np.float64)
    return model, head, source, feats, labels


def _check_end_to_end(rng, variant: str = "ae_wtn") -> float:
    seed = int(rng.integers(0, 2**31))
    model, head, source, feats, labels = miniature_setup(seed, variant)
    alpha = 20.0

    def f():
        return joint_losses(model, head, source, feats, labels, alpha)[2]

    joint_losses(model, head, source, feats, labels, alpha, backprop=True)
    head_w = head.other_weights
    return max(max_relative_error(model.grad, numeric_gradient(f, model.data)),
               max_relative_error(head_w.grad, numeric_gradient(f, head_w.data)))


_CHECKS = [
    ("linear", _check_linear, 1e-5),
    ("relu", _check_relu, 1e-5),
    ("groupnorm", _check_groupnorm, 1e-5),
    ("classbatchnorm", _check_classbatchnorm, 1e-5),
    ("smooth_l1", _check_smooth_l1, 1e-5),
    ("sigmoid_bce", _check_sigmoid_bce, 1e-5),
    ("detection_loss", _check_detection_loss, 1e-5),
    ("end_to_end", _check_end_to_end, 1e-4),
    ("end_to_end_shared", lambda rng: _check_end_to_end(rng, "wtn_plus"), 1e-4),
]


def run_gradient_suite(seeds=range(10)) -> list[CheckResult]:
    results = []
    for seed in seeds:
        for name, fn, tol in _CHECKS:
            rng = np.random.default_rng(seed)
            results.append(CheckResult(name=name, seed=seed, error=fn(rng), tol=tol))
    return results
