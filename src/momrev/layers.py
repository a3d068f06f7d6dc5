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
    B x C_out x H x W. See `tensor.conv2d_batched`. Backward's input gradient
    is that same kernel run on the output gradient with the weights flipped
    in space and their channel axes swapped."""

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
        x = self._take_cache()
        co, ci, kh, kw = self.w.value.shape
        b, _, h, w = gy.shape
        p = kh // 2
        xp = np.zeros((b, h + 2 * p, w + 2 * p, ci), dtype=x.dtype)  # channels-last, padded
        xp[:, p : p + h, p : p + w] = x.transpose(0, 2, 3, 1)
        gy_by_channel = gy.transpose(1, 0, 2, 3).reshape(co, -1)
        for i in range(kh):
            for j in range(kw):
                # an unnamed patch dies here; a named one would outlive the loop
                self.w.grad[:, :, i, j] += np.dot(
                    gy_by_channel, xp[:, i : i + h, j : j + w].reshape(-1, ci)
                )
        del xp, gy_by_channel
        self.b.grad += gy.sum(axis=(0, 2, 3))
        # the input gradient is the same conv on gy with the kernel flipped in
        # space and its channel axes swapped. Half the batch at a time halves
        # the padded grid and its products, which set a train step's peak memory
        w_t = self.w.value[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return np.concatenate(
            [tensor.conv2d_batched(half, w_t) for half in (gy[: b // 2], gy[b // 2 :])]
        )


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


class MaxPool2(Layer):
    """2x2 max pooling, stride 2. Caches its input, which the network holds
    anyway (a skip, or a ReLU output), and finds the argmax again in
    backward."""

    @staticmethod
    def _windows(x):
        b, c, h, w = x.shape
        windows = x.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
        return windows.reshape(b, c, h // 2, w // 2, 4)

    def forward(self, x, train=True):
        b, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ShapeError(f"maxpool2 needs even spatial dims, got {h}x{w}")
        y = x.reshape(b, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))
        if train:
            self._cache = x
        return y

    def backward(self, gy):
        x = self._take_cache()
        b, c, h, w = x.shape
        windows = self._windows(x)
        idx = windows.argmax(axis=-1)
        del windows  # a copy of x: free it before gwin is allocated
        gwin = np.zeros((b, c, h // 2, w // 2, 4), dtype=gy.dtype)
        np.put_along_axis(gwin, idx[..., None], gy[..., None], axis=-1)
        gx = gwin.reshape(b, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        return gx.reshape(b, c, h, w)


class Upsample2(Layer):
    """Nearest-neighbor 2x upsampling; needs no cache."""

    def forward(self, x, train=True):
        return x.repeat(2, axis=-2).repeat(2, axis=-1)

    def backward(self, gy):
        h2, w2 = gy.shape[-2], gy.shape[-1]
        shape = gy.shape[:-2] + (h2 // 2, 2, w2 // 2, 2)
        return gy.reshape(shape).sum(axis=(-3, -1))


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
        for layer in self.layers:
            layer.clear_cache()

    def cached_arrays(self):
        return [a for layer in self.layers for a in layer.cached_arrays()]


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
    """Named tensors as concatenated MRT1 blobs plus a JSON manifest."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = bytearray()
    manifest = {}
    for p in params:
        if p.name in manifest:
            raise ConfigError(f"duplicate parameter name {p.name!r}")
        entry = tensor.serialize_mrt1(p.value)
        manifest[p.name] = {
            "offset": len(blob),
            "shape": list(p.value.shape),
            "dtype": str(np.dtype(p.value.dtype)),
        }
        blob += entry
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
    parameter the checkpoint lacks, or one of another shape, a ConfigError."""
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
        p.value[...] = v
