"""Batched convolution and the MRT1 on-disk format.

Tensors are plain numpy arrays (row-major, channels-first for images).
float64 is the verification default; float32 is used for training speed.
This module holds all of layers.Conv2d's arithmetic. Every convolution the
networks build is stride 1 and same-padded (an odd k x k kernel padded by
k // 2). The forward, the input gradient (the same kernel on the output
gradient, flipped and transposed) and the weight gradient all run on one
flat padded grid (`flat_padded`), in which each kernel offset is a
contiguous row slice, so none copies a patch; the forward kernel builds it
for one group of whole images at a time (`GROUP_BYTES`).
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


# Bytes one group of images may take in conv2d_batched's padded input,
# accumulator and one offset's product: a fraction of a 2 MB per-core L2,
# where a 16-image 8-channel 32x32 float32 batch takes 1.8 MB. Of 256 KiB,
# 512 KiB and 1 MiB, 512 KiB ran the segmentation forward fastest; 1 MiB
# holds the classifier's largest input gradient whole and raised its step's
# peak memory by 12.5%.
GROUP_BYTES = 512 * 1024


def conv2d_batched(inp: Tensor, kernels: Tensor) -> Tensor:
    """Same-padded, stride-1 cross-correlation, B x C_in x H x W -> B x C_out x H x W.

    The kernel is k x k with k odd, padded by k // 2 on every side: one
    matrix product per kernel offset over the padded grid (see
    `flat_padded`). Output row r of the grid sums, over offsets (i, j), row
    r + i*W' + j of the input times that offset's kernel, where that row
    exists; rows anchored in the padding are then dropped.

    The grid is built for as many whole images as fit `GROUP_BYTES` at a
    time, each group written into the result. A row's products and their
    order of summation do not depend on its group, nor does the result.
    """
    if inp.ndim != 4:
        raise ShapeError(f"conv2d expects B x C x H x W input, got shape {inp.shape}")
    b, c_in, h, w = inp.shape
    c_out, kc, kh, kw = kernels.shape
    if kc != c_in:
        raise ShapeError(f"conv2d channel mismatch: input {c_in}, kernels {kc}")
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"conv2d needs an odd square kernel, got {kh}x{kw}")
    image_bytes = (h + kh - 1) * (w + kw - 1) * (c_in + 2 * c_out) * inp.itemsize
    group = max(1, GROUP_BYTES // image_bytes)
    result = np.empty((b, c_out, h, w), dtype=inp.dtype)
    for start in range(0, b, group):
        images = inp[start : start + group]
        xf, hp, wp = flat_padded(images, kh)
        n = len(xf)
        out = np.zeros((n, c_out), dtype=inp.dtype)
        for i in range(kh):
            for j in range(kw):
                off = i * wp + j
                # (n - off, c_in) x (c_in, c_out), one contiguous slice per offset
                out[: n - off] += np.dot(xf[off:], kernels[:, :, i, j].T)
        grid = out.reshape(len(images), hp, wp, c_out)
        result[start : start + group] = grid[:, :h, :w].transpose(0, 3, 1, 2)
        del xf, out, grid  # free this group's buffers before the next group's
    return result


def conv2d_backward(inp: Tensor, gy: Tensor, kernels: Tensor):
    """The gradients (gx, gw) of `conv2d_batched(inp, kernels)` for output
    gradient gy. inp and gy are padded once each; row r + s of gy's grid,
    s = p*(W' + 1), is output row r's gradient, zero where row r is anchored
    in the padding, so gw's offset (i, j) is gy's rows from s on times inp's
    rows from i*W' + j on. Once both grids are freed, gx is the forward
    kernel run on gy with the kernel flipped in space and its channels swapped.
    """
    k = kernels.shape[-1]
    xf, _, wp = flat_padded(inp, k)
    gf, _, _ = flat_padded(gy, k)
    n, s = len(xf), (k // 2) * (wp + 1)
    gw = np.empty_like(kernels)
    for i, j in np.ndindex(k, k):
        off = i * wp + j
        m = n - max(off, s)
        gw[:, :, i, j] = np.dot(gf[s : s + m].T, xf[off : off + m])
    del xf, gf
    return conv2d_batched(gy, kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)), gw


def flat_padded(inp: Tensor, k: int):
    """B x C x H x W -> (B*H'*W' x C rows, H', W'): the input padded by
    p = k // 2 on every side, channels-last, flattened over (B, H', W'); it
    reshapes to the padded B x H' x W' x C image.

    Kernel offset (i, j) of a k x k kernel reads the contiguous rows from
    i*W' + j on. Every row it would read past the end belongs to an output
    row anchored in the last image's bottom padding, which is dropped.
    """
    b, c, h, w = inp.shape
    p = k // 2
    hp, wp = h + 2 * p, w + 2 * p
    xf = np.zeros((b * hp * wp, c), dtype=inp.dtype)
    xf.reshape(b, hp, wp, c)[:, p : p + h, p : p + w, :] = inp.transpose(0, 2, 3, 1)
    return xf, hp, wp


def save_mrt1(path, a: Tensor) -> None:
    """Write one tensor in the MRT1 binary format."""
    blob = serialize_mrt1(a)  # a refused dtype leaves no file
    with open(path, "wb") as fh:
        fh.write(blob)


def serialize_mrt1(a: Tensor) -> bytes:
    dt = np.dtype(a.dtype)
    if dt not in _DTYPE_CODES:
        raise ShapeError(f"MRT1 supports float32/float64, got {dt}")
    header = _MAGIC + struct.pack("<BB", _DTYPE_CODES[dt], a.ndim)
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
