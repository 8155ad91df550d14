"""Training losses: the detection loss ``sigmoid_bce`` and the
reconstruction loss ``smooth_l1``. Each returns the scalar and the gradient
w.r.t. its input.

Both losses reduce by MEAN over all elements, so their gradients carry a
1/numel factor and loss magnitudes are comparable across matrix sizes.
AE-WTN's objective, detection loss plus alpha times reconstruction loss, is
summed in ``models.joint_losses``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass
class LossValue:
    value: float
    grad: np.ndarray


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
    return LossValue(float(elem.mean()), (_logistic(z, e) - targets) / z.size)


def _logistic(z: np.ndarray, e: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The logistic function of z, given e = exp(-|z|): 1 / (1 + e) for
    z >= 0 and e / (1 + e) below, so it never overflows either. The mean
    BCE's gradient w.r.t. z is (logistic - targets) / z.size.

    The numerator is max(z >= 0, e): 1 where z >= 0 (as e <= 1) and e
    elsewhere, NaN included, so it has the bits of a select between 1 and e
    without numpy's slow select with a scalar. ``out``, if given, receives
    the result."""
    num = np.greater_equal(z, 0.0, out=np.empty_like(z) if out is None else out)
    np.maximum(num, e, out=num)
    return np.divide(num, 1.0 + e, out=num)
