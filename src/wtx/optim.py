"""Optimizers updating one (data, grad) array pair in place.

The pair is usually a parameter store from ``layers.flatten``, or a slice of
one, and the optimizer state is arrays of its shape, so a step is a few
whole-array operations however many layers the store holds. AdamW applies
weight decay decoupled from the adaptive update; SGDMomentum uses the
classic coupled L2 form (decay added to the gradient). Both are fully
deterministic: identical state and gradients give identical updates.
An AdamW step makes no temporaries: it computes the textbook expression,
operation for operation, in two scratch arrays of the store's shape.
"""

from __future__ import annotations

import numpy as np


class AdamW:
    def __init__(self, data: np.ndarray, grad: np.ndarray, lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 1e-4):
        self.data, self.grad = data, grad
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = np.zeros_like(data)
        self.v = np.zeros_like(data)
        self._a = np.empty_like(data)
        self._b = np.empty_like(data)

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        a, b = self._a, self._b
        if self.weight_decay:
            self.data *= 1.0 - self.lr * self.weight_decay
        self.m *= self.beta1
        np.multiply(self.grad, 1.0 - self.beta1, out=a)
        self.m += a
        self.v *= self.beta2
        np.multiply(self.grad, 1.0 - self.beta2, out=a)
        a *= self.grad
        self.v += a
        # data -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(self.m, bc1, out=a)
        a *= self.lr
        np.divide(self.v, bc2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        self.data -= a

    def zero_grad(self):
        self.grad[...] = 0.0


class SGDMomentum:
    def __init__(self, data: np.ndarray, grad: np.ndarray, lr: float, momentum: float = 0.9,
                 weight_decay: float = 0.0):
        self.data, self.grad = data, grad
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = np.zeros_like(data)

    def step(self):
        g = self.grad
        if self.weight_decay:
            g = g + self.weight_decay * self.data
        self.velocity *= self.momentum
        self.velocity += g
        self.data -= self.lr * self.velocity

    def zero_grad(self):
        self.grad[...] = 0.0
