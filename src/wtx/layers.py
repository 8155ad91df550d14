"""Differentiable layers with hand-written forward and backward passes.

Every layer caches what its backward pass needs during ``forward`` and
releases the cache when ``backward`` runs, so calling backward first (or
twice) is a state error. Parameter gradients accumulate across backward
calls until they are zeroed; gradients w.r.t. the input are returned.
Updates are in place, so once ``flatten`` has made a Param's arrays views
of a parameter store, the layer reads and writes the store directly.
``Linear.backward_params`` is the backward pass of a Linear whose input is
frozen: it accumulates the parameter gradients and computes no input
gradient. The input standardization of WTN+ is no layer here: it is a fixed
function of the frozen W_C, ``models.SourceWeights.standardized``.

All normalization statistics are population (1/N) moments. GroupNorm sums
each group in numpy's own pairwise order (``group_sum``), so its bits are
those of ``sum(axis=2)`` without numpy's slow reduction over short rows.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError, StateError


class Param:
    """A trainable array plus its gradient accumulator."""

    __slots__ = ("name", "data", "grad")

    def __init__(self, name: str, data: np.ndarray):
        self.name = name
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Param({self.name}, shape={self.data.shape})"


def flatten(params: list[Param]) -> tuple[np.ndarray, np.ndarray]:
    """Gather ``params`` into one parameter store: a data vector holding
    their values concatenated in list order, and a zeroed gradient vector of
    the same length. Each Param's ``data`` and ``grad`` become reshaped views
    of its slice of the two vectors; the vectors are returned."""
    data = np.concatenate([p.data.ravel() for p in params])
    grad = np.zeros_like(data)
    start = 0
    for p in params:
        shape, stop = p.data.shape, start + p.data.size
        p.data, p.grad = data[start:stop].reshape(shape), grad[start:stop].reshape(shape)
        start = stop
    return data, grad


class Linear:
    """y = x W^T + b with He-uniform weight init and zero bias."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 name: str = "linear"):
        limit = np.sqrt(6.0 / in_dim)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = Param(f"{name}.weight", rng.uniform(-limit, limit, (out_dim, in_dim)))
        self.bias = Param(f"{name}.bias", np.zeros(out_dim))
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"linear expects (batch, {self.in_dim}), got {x.shape}")
        self._x = x
        return x @ self.weight.data.T + self.bias.data

    def backward(self, dout: np.ndarray) -> np.ndarray:
        self.backward_params(dout)
        return dout @ self.weight.data

    def backward_params(self, dout: np.ndarray) -> None:
        """Accumulate the weight and bias gradients for ``dout``, with no
        input gradient."""
        if self._x is None:
            raise StateError("linear backward called before forward")
        if dout.shape != (self._x.shape[0], self.out_dim):
            raise ShapeError(f"upstream grad {dout.shape} does not match output "
                             f"({self._x.shape[0]}, {self.out_dim})")
        self.weight.grad += dout.T @ self._x
        self.bias.grad += dout.sum(axis=0)
        self._x = None

    def params(self):
        return [self.weight, self.bias]


class ReLU:
    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        # The bits of where(x > 0, x, 0.0) without numpy's slow scalar
        # select: fmax gives -0.0 for -0.0, which adding 0.0 turns into 0.0,
        # and 0.0 for NaN, except for a signaling NaN in its scalar tail loop.
        out = np.fmax(x, 0.0)
        out += 0.0
        if np.isnan(out).any():
            out[np.isnan(out)] = 0.0
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise StateError("relu backward called before forward")
        if dout.shape != self._mask.shape:
            raise ShapeError(f"upstream grad {dout.shape} does not match input {self._mask.shape}")
        dx = dout * self._mask
        self._mask = None
        return dx

    def params(self):
        return []


def group_sum(g: np.ndarray) -> np.ndarray:
    """``g.sum(axis=2, keepdims=True)`` bit for bit, NaN signs aside.

    For a C-contiguous ``g`` whose last axis is 8 to 128 wide, numpy sums
    each row in eight running accumulators, adds them as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), adds the rest in
    sequence, and adds the result to its identity, 0.0. This does the same
    adds on whole strided views, which is faster than numpy's reduction
    over many short rows. Other arrays go to ``sum``. IEEE 754 leaves the
    sign of a NaN from two NaN operands open, and so the two may differ in it.
    """
    c = g.shape[2]
    if not (8 <= c <= 128 and g.flags.c_contiguous):
        return g.sum(axis=2, keepdims=True)
    r = g[:, :, :8] if c == 8 else g[:, :, :8].copy()
    tail = c - c % 8
    for i in range(8, tail, 8):
        r += g[:, :, i:i + 8]
    r = r[:, :, 0::2] + r[:, :, 1::2]
    r = r[:, :, 0::2] + r[:, :, 1::2]
    s = r[:, :, :1] + r[:, :, 1:]
    for i in range(tail, c):
        s += g[:, :, i:i + 1]
    s += 0.0
    return s


class GroupNorm:
    """Per-(sample, group) normalization followed by a per-channel affine."""

    def __init__(self, channels: int, groups: int, eps: float = 1e-5,
                 name: str = "groupnorm"):
        if channels % groups != 0:
            raise ConfigError(f"channels ({channels}) not divisible by groups ({groups})")
        self.channels = channels
        self.groups = groups
        self.eps = float(eps)
        self.gamma = Param(f"{name}.gamma", np.ones(channels))
        self.beta = Param(f"{name}.beta", np.zeros(channels))
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.channels:
            raise ShapeError(f"groupnorm expects (batch, {self.channels}), got {x.shape}")
        b = x.shape[0]
        g = x.reshape(b, self.groups, -1)                     # (B, G, c)
        c = g.shape[2]
        # The mean and variance as np.mean and np.var compute them, with the
        # centered values kept for xhat rather than subtracted again.
        d = g - group_sum(g) / c
        var = group_sum(d * d) / c
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (d * inv_std).reshape(b, self.channels)
        self._cache = (xhat, inv_std)
        return self.gamma.data * xhat + self.beta.data

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise StateError("groupnorm backward called before forward")
        xhat, inv_std = self._cache
        if dout.shape != xhat.shape:
            raise ShapeError(f"upstream grad {dout.shape} does not match input {xhat.shape}")
        self.gamma.grad += (dout * xhat).sum(axis=0)
        self.beta.grad += dout.sum(axis=0)

        b = dout.shape[0]
        dxhat = (dout * self.gamma.data).reshape(b, self.groups, -1)
        xh = xhat.reshape(b, self.groups, -1)
        c = xh.shape[2]
        m1 = group_sum(dxhat) / c
        m2 = group_sum(dxhat * xh) / c
        dx = inv_std * (dxhat - m1 - xh * m2)
        self._cache = None
        return dx.reshape(b, self.channels)

    def params(self):
        return [self.gamma, self.beta]


class ClassBatchNorm:
    """Normalizes each channel over the whole row batch (the classes shown).

    Batch-norm style statistics taken over whatever class rows are presented;
    there is no running-statistics mode, so the output of any row depends on
    every row in the batch.
    """

    def __init__(self, channels: int, eps: float = 1e-5, name: str = "classbatchnorm"):
        self.channels = channels
        self.eps = float(eps)
        self.gamma = Param(f"{name}.gamma", np.ones(channels))
        self.beta = Param(f"{name}.beta", np.zeros(channels))
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.channels:
            raise ShapeError(f"classbatchnorm expects (batch, {self.channels}), got {x.shape}")
        if x.shape[0] < 2:
            raise ValueError("classbatchnorm needs at least 2 rows")
        mu = x.mean(axis=0)
        var = x.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mu) * inv_std
        self._cache = (xhat, inv_std, x.shape[0])
        return self.gamma.data * xhat + self.beta.data

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise StateError("classbatchnorm backward called before forward")
        xhat, inv_std, n = self._cache
        if dout.shape != xhat.shape:
            raise ShapeError(f"upstream grad {dout.shape} does not match input {xhat.shape}")
        self.gamma.grad += (dout * xhat).sum(axis=0)
        self.beta.grad += dout.sum(axis=0)
        dxhat = dout * self.gamma.data
        dx = inv_std * (dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0))
        self._cache = None
        return dx

    def params(self):
        return [self.gamma, self.beta]

