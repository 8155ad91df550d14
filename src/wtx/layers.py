"""Differentiable layers with hand-written forward and backward passes.

Every layer caches what its backward pass needs during ``forward`` and
releases the cache when ``backward`` runs, so calling backward first (or
twice) is a state error. Parameter gradients accumulate across backward
calls until they are zeroed; gradients w.r.t. the input are returned.
Updates are in place, so once ``flatten`` has made a Param's arrays views
of a parameter store, the layer reads and writes the store directly.

All normalization statistics are population (1/N) moments.
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
        if self._x is None:
            raise StateError("linear backward called before forward")
        if dout.shape != (self._x.shape[0], self.out_dim):
            raise ShapeError(f"upstream grad {dout.shape} does not match output "
                             f"({self._x.shape[0]}, {self.out_dim})")
        self.weight.grad += dout.T @ self._x
        self.bias.grad += dout.sum(axis=0)
        dx = dout @ self.weight.data
        self._x = None
        return dx

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


class InputStandardizer:
    """Frozen per-channel standardization: (x - mu) / (sigma + eps).

    mu and sigma are fitted once (population std over the fitting rows) and
    never updated afterwards; the layer owns no trainable parameters and
    its backward pass only rescales the upstream gradient.
    """

    def __init__(self, mu: np.ndarray, sigma: np.ndarray, epsilon: float = 1e-5):
        if np.any(sigma < 0):
            raise ValueError("sigma entries must be >= 0")
        self.mu = np.asarray(mu, dtype=np.float64)
        self.sigma = np.asarray(sigma, dtype=np.float64)
        self.epsilon = float(epsilon)
        self._scale = self.sigma + self.epsilon
        self._seen_forward = False

    @classmethod
    def fit(cls, weights: np.ndarray, epsilon: float = 1e-5) -> "InputStandardizer":
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[0] < 2:
            raise ValueError(f"standardizer needs at least 2 rows to fit, got shape {weights.shape}")
        return cls(weights.mean(axis=0), weights.std(axis=0), epsilon)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.mu.shape[0]:
            raise ShapeError(f"standardizer expects (batch, {self.mu.shape[0]}), got {x.shape}")
        self._seen_forward = True
        return (x - self.mu) / self._scale

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if not self._seen_forward:
            raise StateError("standardizer backward called before forward")
        self._seen_forward = False
        return dout / self._scale

    def params(self):
        return []


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
        d = g - g.sum(axis=2, keepdims=True) / c
        var = (d * d).sum(axis=2, keepdims=True) / c
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
        m1 = dxhat.sum(axis=2, keepdims=True) / c
        m2 = (dxhat * xh).sum(axis=2, keepdims=True) / c
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

