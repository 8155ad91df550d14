"""Training losses. Each returns the scalar and the gradient w.r.t. its input.

Both losses reduce by MEAN over all elements, so their gradients carry a
1/numel factor and loss magnitudes are comparable across matrix sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError


@dataclass
class LossValue:
    value: float
    grad: np.ndarray


@dataclass
class CombinedLoss:
    """Weighted sum of a classification and a reconstruction loss.

    ``grad_cls`` / ``grad_rec`` are the upstream gradients to feed into the
    two branches; the reconstruction side already carries the alpha weight.
    """
    value: float
    grad_cls: np.ndarray
    grad_rec: np.ndarray | None


def smooth_l1(pred: np.ndarray, target: np.ndarray) -> LossValue:
    """Huber-style loss: 0.5 r^2 for |r| < 1, |r| - 0.5 otherwise."""
    if pred.shape != target.shape:
        raise ShapeError(f"smooth_l1 shape mismatch: {pred.shape} vs {target.shape}")
    r = pred - target
    a = np.abs(r)
    elem = np.where(a < 1.0, 0.5 * r * r, a - 0.5)
    grad = np.clip(r, -1.0, 1.0) / r.size
    return LossValue(float(elem.mean()), grad)


def sigmoid_bce(logits: np.ndarray, targets: np.ndarray) -> LossValue:
    """Mean binary cross-entropy on logits, in the stable log-sum-exp form.

    Per element: max(z, 0) - z t + log(1 + exp(-|z|)), which never
    exponentiates a positive number, so it is finite for any float logit.
    """
    if logits.shape != targets.shape:
        raise ShapeError(f"sigmoid_bce shape mismatch: {logits.shape} vs {targets.shape}")
    if not np.all((targets == 0.0) | (targets == 1.0)):
        raise ValueError("sigmoid_bce targets must be binary (0/1)")
    z = logits
    e = np.exp(-np.abs(z))
    elem = np.maximum(z, 0.0) - z * targets + np.log1p(e)
    return LossValue(float(elem.mean()), _bce_grad(z, e, targets))


def _bce_grad(z: np.ndarray, e: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Gradient of the mean BCE w.r.t. the logits z, given e = exp(-|z|).

    The logistic function comes from the same exponential: 1 / (1 + e) for
    z >= 0 and e / (1 + e) below, so it never overflows either.
    """
    return (np.where(z >= 0, 1.0, e) / (1.0 + e) - targets) / z.size


def total_loss(l_cls: LossValue, l_rec: LossValue | None, alpha: float) -> CombinedLoss:
    """cls + alpha * rec; gradients flow to both branches with those weights."""
    if alpha < 0:
        raise ConfigError(f"alpha must be >= 0, got {alpha}")
    if l_rec is None:
        return CombinedLoss(l_cls.value, l_cls.grad, None)
    return CombinedLoss(l_cls.value + alpha * l_rec.value, l_cls.grad, alpha * l_rec.grad)
