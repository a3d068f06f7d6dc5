"""Differentiable layers and the residual function built from them.

Every layer owns its parameters (value + gradient accumulator), caches
whatever its backward pass needs when run in train mode, and exposes the
arrays in that cache so the memory ledger can audit it. Backward consumes
the cache, accumulates parameter gradients and returns the input gradient.
A cache holds arrays the network holds anyway, not copies made from them;
backward rebuilds a copy it needs (an upsampled input, a concatenation).

Image tensors are batched and channels-first: B x C x H x W.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor
from .errors import ConfigError, DataError, ShapeError, StateError


@dataclass
class Param:
    name: str
    value: np.ndarray
    grad: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0.0


def he_uniform(rng, shape, fan_in, dtype):
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def xavier_uniform(rng, shape, fan_in, fan_out, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def distinct_scalars(arrays) -> int:
    """Scalars in the distinct buffers behind `arrays`: a view counts as
    the whole array that owns its memory, and a shared buffer counts once."""
    owners = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        owners[id(a)] = a.size
    return sum(owners.values())


class Layer:
    """Base layer: forward/backward pair with explicit caching.

    A train-mode forward keeps what backward needs in `_cache`: one array,
    or a tuple whose array entries are the layer's `cached_arrays`.
    Backward consumes the cache, so each cached array is freed as soon as
    backward has read it and nothing else holds it; a second backward
    raises instead of adding the gradients again.
    """

    _cache = None

    def params(self) -> list[Param]:
        return []

    def forward(self, x, train=True):
        raise NotImplementedError

    def backward(self, gy):
        raise NotImplementedError

    def clear_cache(self):
        self._cache = None

    def cached_arrays(self) -> list[np.ndarray]:
        """Arrays retained past forward for use in backward."""
        held = self._cache if isinstance(self._cache, tuple) else (self._cache,)
        return [a for a in held if isinstance(a, np.ndarray)]

    def cache_size(self) -> int:
        """Scalars in the distinct buffers of `cached_arrays`."""
        return distinct_scalars(self.cached_arrays())

    def _take_cache(self):
        cache, self._cache = self._cache, None
        if cache is None:
            raise StateError(f"{type(self).__name__}: backward without forward")
        return cache


class Linear(Layer):
    def __init__(self, d_in, d_out, rng, dtype=np.float64, name="linear"):
        self.w = Param(f"{name}.w", xavier_uniform(rng, (d_out, d_in), d_in, d_out, dtype))
        self.b = Param(f"{name}.b", np.zeros(d_out, dtype=dtype))

    def params(self):
        return [self.w, self.b]

    def forward(self, x, train=True):
        if x.ndim != 2 or x.shape[1] != self.w.value.shape[1]:
            raise ShapeError(f"linear expects B x {self.w.value.shape[1]}, got {x.shape}")
        if train:
            self._cache = x
        return x @ self.w.value.T + self.b.value

    def backward(self, gy):
        x = self._take_cache()
        self.w.grad += gy.T @ x
        self.b.grad += gy.sum(axis=0)
        return gy @ self.w.value


class Conv2d(Layer):
    """Same-padded, stride-1 k x k convolution (k odd): B x C_in x H x W ->
    B x C_out x H x W. It holds the parameters and the cache; the forward,
    the input gradient and the weight gradient all run in `tensor`, on one
    flat padded grid (`tensor.conv2d_batched`, `tensor.conv2d_backward`)."""

    def __init__(self, c_in, c_out, k, *, rng, init="xavier", dtype=np.float64,
                 name="conv"):
        fan_in = c_in * k * k
        fan_out = c_out * k * k
        shape = (c_out, c_in, k, k)
        if init == "he":
            w = he_uniform(rng, shape, fan_in, dtype)
        else:
            w = xavier_uniform(rng, shape, fan_in, fan_out, dtype)
        self.w = Param(f"{name}.w", w)
        self.b = Param(f"{name}.b", np.zeros(c_out, dtype=dtype))

    def params(self):
        return [self.w, self.b]

    def forward(self, x, train=True):
        y = tensor.conv2d_batched(x, self.w.value)
        y += self.b.value[None, :, None, None]
        if train:
            self._cache = x
        return y

    def backward(self, gy):
        gx, gw = tensor.conv2d_backward(self._take_cache(), gy, self.w.value)
        self.w.grad += gw
        self.b.grad += gy.sum(axis=(0, 2, 3))
        return gx


class ReLU(Layer):
    """Caches its output: y > 0 exactly where x > 0 (NaN included), and y
    is often an array held anyway, by the next conv's cache or as a stored
    chain's first state."""

    def forward(self, x, train=True):
        y = np.maximum(x, 0)
        if train:
            self._cache = y
        return y

    def backward(self, gy):
        y = self._take_cache()
        # subgradient at 0 is 0
        return gy * (y > 0)


class Tanh(Layer):
    def forward(self, x, train=True):
        y = np.tanh(x)
        if train:
            self._cache = y
        return y

    def backward(self, gy):
        y = self._take_cache()
        return gy * (1.0 - y * y)


def _taps(a):
    """Views of pixel (i, j) of every 2x2 window, in the order 00, 01, 10, 11."""
    return [a[..., i::2, j::2] for i in (0, 1) for j in (0, 1)]


class MaxPool2(Layer):
    """2x2 max pooling, stride 2. Caches its input, which the network holds
    anyway (a skip, or a ReLU output). Backward pools it again and routes each
    gradient to the first pixel of its window that is NaN or else equals the
    max: argmax's rule, ties included."""

    @staticmethod
    def _pool(x):
        t00, t01, t10, t11 = _taps(x)
        return np.maximum(np.maximum(t00, t01), np.maximum(t10, t11))

    def forward(self, x, train=True):
        h, w = x.shape[-2:]
        if h % 2 or w % 2:
            raise ShapeError(f"maxpool2 needs even spatial dims, got {h}x{w}")
        if train:
            self._cache = x
        return self._pool(x)

    def backward(self, gy):
        x = self._take_cache()
        y = self._pool(x)
        gx = np.zeros(x.shape, dtype=gy.dtype)
        free = np.ones(y.shape, dtype=bool)  # windows whose pixel is not yet chosen
        for t, gt in zip(_taps(x), _taps(gx)):
            hit = (t == y) | np.isnan(t)
            hit &= free
            free &= ~hit
            np.copyto(gt, gy, where=hit)
        return gx


class Upsample2(Layer):
    """Nearest-neighbor 2x upsampling; needs no cache."""

    def forward(self, x, train=True):
        y = np.empty((*x.shape[:-2], 2 * x.shape[-2], 2 * x.shape[-1]), dtype=x.dtype)
        for t in _taps(y):
            t[...] = x
        return y

    def backward(self, gy):
        # (0 + (a + b)) + (c + d) is numpy 2.4's order for a sum over two
        # size-2 axes; from +0, a window of -0 sums to +0 as it does there
        t00, t01, t10, t11 = _taps(gy)
        g = np.zeros(t00.shape, dtype=gy.dtype)
        g += t00 + t01
        g += t10 + t11
        return g


class UpConv2d(Conv2d):
    """Nearest-neighbor 2x upsampling, then the convolution. Caches the
    small input, not the 4x upsampled copy, and rebuilds that copy in
    backward."""

    upsample = Upsample2()

    def forward(self, x, train=True):
        y = super().forward(self.upsample.forward(x), train=False)
        if train:
            self._cache = x
        return y

    def backward(self, gy):
        self._cache = self.upsample.forward(self._take_cache())
        return self.upsample.backward(super().backward(gy))


class FuseConv2d(Conv2d):
    """Convolution over the channel concatenation of a tuple of arrays.
    Caches the parts, which the network holds anyway, not their
    concatenation, rebuilds that in backward and returns one gradient per
    part."""

    def forward(self, parts, train=True):
        y = super().forward(np.concatenate(parts, axis=1), train=False)
        if train:
            self._cache = tuple(parts)
        return y

    def backward(self, gy):
        parts = self._take_cache()
        self._cache = np.concatenate(parts, axis=1)
        gx = super().backward(gy)
        return tuple(np.split(gx, np.cumsum([p.shape[1] for p in parts[:-1]]), axis=1))


class GlobalAvgPool(Layer):
    """B x C x H x W -> B x C mean over space."""

    def forward(self, x, train=True):
        if train:
            self._cache = x.shape
        return x.mean(axis=(-2, -1))

    def backward(self, gy):
        shape = self._take_cache()
        h, w = shape[-2], shape[-1]
        gx = np.broadcast_to(gy[..., None, None] / (h * w), shape)
        return np.ascontiguousarray(gx)


class Sequential(Layer):
    def __init__(self, layers):
        self.layers = list(layers)

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, x, train=True):
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, gy):
        for layer in reversed(self.layers):
            gy = layer.backward(gy)
        return gy

    def clear_cache(self):
        super().clear_cache()
        for layer in self.layers:
            layer.clear_cache()

    def cached_arrays(self):
        return super().cached_arrays() + [a for layer in self.layers
                                          for a in layer.cached_arrays()]


class Recompute(Sequential):
    """A `Sequential` that checkpoints itself: a train-mode forward caches
    only its input (an array or a tuple) and runs the layers in eval mode;
    backward runs them again in train mode on that input, then backward
    through them. It pays where the input is held anyway."""

    def forward(self, x, train=True):
        if train:
            self._cache = x
        return super().forward(x, train=False)

    def backward(self, gy):
        super().forward(self._take_cache(), train=True)
        for layer in reversed(self.layers):  # super().backward(gy) would keep gy alive here
            gy = layer.backward(gy)
        return gy


class OnFirst(Sequential):
    """Runs its layers on the first array of a pair and passes the second
    through, in forward and in backward."""

    def forward(self, pair, train=True):
        x, other = pair
        return super().forward(x, train=train), other

    def backward(self, g_pair):
        g, g_other = g_pair
        return super().backward(g), g_other


def sigmoid(z):
    out = np.empty_like(z, dtype=np.result_type(z, np.float32))
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def build_residual_function(channels: int, rng, dtype=np.float64, name="f") -> Sequential:
    """Shape-preserving residual body on C = `channels`:
    conv3x3 -> relu -> conv3x3."""
    return Sequential(
        [
            Conv2d(channels, channels, 3, rng=rng, init="he", dtype=dtype,
                   name=f"{name}.conv1"),
            ReLU(),
            Conv2d(channels, channels, 3, rng=rng, init="xavier", dtype=dtype,
                   name=f"{name}.conv2"),
        ],
    )


def save_checkpoint(path, params: list[Param]) -> None:
    """Concatenated MRT1 records, which carry shape and dtype, plus a JSON
    manifest mapping each parameter name to its record's offset."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = bytearray()
    manifest = {}
    for p in params:
        if p.name in manifest:
            raise ConfigError(f"duplicate parameter name {p.name!r}")
        manifest[p.name] = {"offset": len(blob)}
        blob += tensor.serialize_mrt1(p.value)
    _replace_file(path.with_suffix(".bin"), bytes(blob))
    _replace_file(path.with_suffix(".json"),
                  json.dumps(manifest, indent=2, sort_keys=True).encode())


def _replace_file(path: Path, data: bytes) -> None:
    """Write beside the target, then rename over it: a crash mid-write
    leaves the previous file whole."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def load_checkpoint(path, params: list[Param]) -> None:
    """Give each parameter the record its name maps to in the manifest.
    An unreadable or malformed manifest or record is a DataError; a
    parameter the checkpoint lacks, or a record of another shape or dtype,
    a ConfigError. Manifest keys other than `offset` are ignored."""
    path = Path(path)
    manifest_path, blob_path = path.with_suffix(".json"), path.with_suffix(".bin")
    try:
        manifest = json.loads(manifest_path.read_text())
        blob = blob_path.read_bytes()
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"checkpoint {manifest_path}: manifest is not an object")
    for p in params:
        if p.name not in manifest:
            raise ConfigError(f"checkpoint missing parameter {p.name!r}")
        entry = manifest[p.name]
        offset = entry.get("offset") if isinstance(entry, dict) else None
        if not isinstance(offset, int) or isinstance(offset, bool) or offset < 0:
            raise DataError(f"checkpoint {manifest_path}, parameter {p.name!r}: "
                            f"entry needs an int offset >= 0, got {entry!r}")
        try:
            v, _ = tensor.deserialize_mrt1(blob, offset)
        except DataError as exc:
            raise DataError(f"checkpoint {blob_path}, parameter {p.name!r}: {exc}") from exc
        if v.shape != p.value.shape:
            raise ConfigError(
                f"checkpoint shape mismatch for {p.name!r}: {v.shape} vs {p.value.shape}"
            )
        if v.dtype != p.value.dtype:
            raise ConfigError(
                f"checkpoint dtype mismatch for {p.name!r}: {v.dtype} vs {p.value.dtype}"
            )
        p.value[...] = v
