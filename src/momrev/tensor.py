"""Batched convolution and the MRT1 on-disk format.

Tensors are plain numpy arrays (row-major, channels-first for images).
float64 is the verification default; float32 is used for training speed.
This module holds the convolution kernel and tensor serialization. The one
kernel serves layers.Conv2d's forward and its input gradient, which is the
same convolution on the output gradient with a flipped, transposed kernel.
Every convolution the networks build is stride 1 and same-padded (an odd
k x k kernel padded by k // 2), so the output keeps the input's H x W; only
MaxPool2 and Upsample2 change sizes. The kernel works on one flat padded
buffer (`_flat_padded`) in which each kernel offset is a contiguous row
slice, so it copies no patches.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import DataError, ShapeError

Tensor = np.ndarray

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_MAGIC = b"MRT1"


def conv2d_batched(inp: Tensor, kernels: Tensor) -> Tensor:
    """Same-padded, stride-1 cross-correlation, B x C_in x H x W -> B x C_out x H x W.

    The kernel is k x k with k odd, padded by k // 2 on every side. It is
    `Conv2d`'s forward, and with the kernel flipped in space and its channel
    axes swapped, `Conv2d`'s input gradient. One matrix product per kernel
    offset over the whole padded grid (see `_flat_padded`): output row r of
    the grid sums, over offsets (i, j), row r + i*W' + j of the input times
    that offset's kernel. Rows anchored in the padding are then dropped.
    """
    if inp.ndim != 4:
        raise ShapeError(f"conv2d expects B x C x H x W input, got shape {inp.shape}")
    b, c_in, h, w = inp.shape
    c_out, kc, kh, kw = kernels.shape
    if kc != c_in:
        raise ShapeError(f"conv2d channel mismatch: input {c_in}, kernels {kc}")
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"conv2d needs an odd square kernel, got {kh}x{kw}")
    xf, hp, wp = _flat_padded(inp, kh)
    n = b * hp * wp
    out = np.zeros((n, c_out), dtype=inp.dtype)
    for i in range(kh):
        for j in range(kw):
            off = i * wp + j
            # (n, c_in) x (c_in, c_out), one contiguous slice per offset
            out += np.dot(xf[off : off + n], kernels[:, :, i, j].T)
    del xf  # free the padded copy before the layout copy, so peak memory stays put
    out = out.reshape(b, hp, wp, c_out)[:, :h, :w]
    return out.transpose(0, 3, 1, 2).copy()


def _flat_padded(inp: Tensor, k: int):
    """B x C x H x W -> ((B*H'*W' + tail) x C rows, H', W'): the input padded
    by p = k // 2 on every side, channels-last, flattened over (B, H', W').

    Kernel offset (i, j) of a k x k kernel reads the contiguous rows starting
    at i*W' + j; the `tail = 2p*W' + 2p` zero rows keep every such slice in
    bounds. The first B*H'*W' rows reshape to the padded B x H' x W' x C image.
    """
    b, c, h, w = inp.shape
    p = k // 2
    hp, wp = h + 2 * p, w + 2 * p
    n = b * hp * wp
    xf = np.zeros((n + 2 * p * wp + 2 * p, c), dtype=inp.dtype)
    xf[:n].reshape(b, hp, wp, c)[:, p : p + h, p : p + w, :] = inp.transpose(0, 2, 3, 1)
    return xf, hp, wp


def save_mrt1(path, a: Tensor) -> None:
    """Write one tensor in the MRT1 binary format."""
    dt = np.dtype(a.dtype)
    if dt not in _DTYPE_CODES:
        raise ShapeError(f"MRT1 supports float32/float64, got {dt}")
    with open(path, "wb") as fh:
        fh.write(serialize_mrt1(a))


def serialize_mrt1(a: Tensor) -> bytes:
    dt = np.dtype(a.dtype)
    code = _DTYPE_CODES[dt]
    header = _MAGIC + struct.pack("<BB", code, a.ndim)
    header += struct.pack(f"<{a.ndim}I", *a.shape)
    return header + np.ascontiguousarray(a).astype(dt.newbyteorder("<")).tobytes()


def deserialize_mrt1(buf: bytes, offset: int = 0):
    """Parse one MRT1 tensor; returns (array, bytes consumed)."""
    if buf[offset : offset + 4] != _MAGIC:
        raise DataError("bad MRT1 magic")
    if len(buf) < offset + 6:
        raise DataError("truncated MRT1 header")
    code, rank = struct.unpack_from("<BB", buf, offset + 4)
    if code not in _CODE_DTYPES:
        raise DataError(f"unknown MRT1 dtype code {code}")
    start = offset + 6 + 4 * rank
    if len(buf) < start:
        raise DataError("truncated MRT1 header")
    shape = struct.unpack_from(f"<{rank}I", buf, offset + 6)
    dt = _CODE_DTYPES[code]
    count = int(np.prod(shape, dtype=np.int64)) if rank else 1
    nbytes = count * dt.itemsize
    data = np.frombuffer(buf[start : start + nbytes], dtype=dt)
    if data.size != count:
        raise DataError("truncated MRT1 payload")
    return data.reshape(shape).astype(dt.newbyteorder("=")), start + nbytes - offset


def load_mrt1(path) -> Tensor:
    buf = Path(path).read_bytes()
    arr, consumed = deserialize_mrt1(buf)
    if consumed != len(buf):
        raise DataError(f"trailing bytes in {path}")
    return arr
