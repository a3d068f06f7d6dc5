import tracemalloc

import numpy as np
import pytest

from momrev import layers, tensor
from momrev.errors import DataError, ShapeError
from util import rng


def test_row_major_flat_index():
    a = np.arange(24.0).reshape(2, 3, 4)
    strides = (12, 4, 1)
    for idx in np.ndindex(a.shape):
        flat = sum(i * s for i, s in zip(idx, strides))
        assert a[idx] == a.ravel()[flat]


# conv2d


def conv2d_bruteforce(inp, kernels, stride, padding):
    """Independent sliding-window oracle with explicit loops, one C x H x W image."""
    c_in, h, w = inp.shape
    c_out, _, kh, kw = kernels.shape
    xp = np.pad(inp, ((0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((c_out, oh, ow))
    for co in range(c_out):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for ci in range(c_in):
                    for a in range(kh):
                        for b in range(kw):
                            acc += xp[ci, i * stride + a, j * stride + b] * kernels[co, ci, a, b]
                out[co, i, j] = acc
    return out


def test_conv2d_pointwise_scaling():
    inp = np.ones((2, 1, 3, 3))
    k = np.full((1, 1, 1, 1), 2.0)
    assert np.array_equal(tensor.conv2d_batched(inp, k), np.full((2, 1, 3, 3), 2.0))


def test_conv2d_impulse_response():
    inp = np.zeros((1, 1, 5, 5))
    inp[0, 0, 2, 2] = 1.0
    k = rng(3).normal(size=(1, 1, 3, 3))
    out = tensor.conv2d_batched(inp, k)
    # cross-correlation of a delta imprints the kernel flipped around the center
    assert np.allclose(out[0, 0, 1:4, 1:4], k[0, 0, ::-1, ::-1])


def draw_geometry(r):
    """Batch, channels, an odd k and H x W for a same-padded conv; H or W
    may be smaller than k."""
    batch = int(r.integers(1, 4))  # rows of the padded grid wrap between images
    c_in = int(r.integers(1, 4))
    c_out = int(r.integers(1, 4))
    k = int(r.choice([1, 3, 5]))
    h = int(r.integers(1, 7))
    w = int(r.choice([v for v in range(1, 7) if v != h]))  # H != W: no transposed index passes
    return batch, c_in, c_out, k, h, w


def test_conv2d_matches_bruteforce():
    for seed in range(25):
        r = rng(seed)
        batch, c_in, c_out, k, h, w = draw_geometry(r)
        inp = r.normal(size=(batch, c_in, h, w))
        kern = r.normal(size=(c_out, c_in, k, k))
        got = tensor.conv2d_batched(inp, kern)
        want = np.stack([conv2d_bruteforce(x, kern, 1, k // 2) for x in inp])
        assert got.shape == want.shape == (batch, c_out, h, w)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_conv2d_batch_of_several_groups_matches_bruteforce():
    """13 images, two to a GROUP_BYTES group at this size: six groups and a
    remainder of one."""
    r = rng(30)
    inp = r.normal(size=(13, 8, 32, 32))
    kern = r.normal(size=(8, 8, 3, 3))
    assert tensor.GROUP_BYTES // (34 * 34 * 24 * 8) == 2
    got = tensor.conv2d_batched(inp, kern)
    want = np.stack([conv2d_bruteforce(x, kern, 1, 1) for x in inp])
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_conv2d_peak_memory_is_bounded_by_the_group_not_the_batch():
    """Beyond its result the kernel holds at most a group's GROUP_BYTES of
    transients, whatever the batch: a 64-image float32 conv peaks below
    twice its 2 MiB output."""
    r = rng(31)
    inp = r.normal(size=(64, 8, 32, 32)).astype(np.float32)
    kern = r.normal(size=(8, 8, 3, 3)).astype(np.float32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = tensor.conv2d_batched(inp, kern)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.nbytes


def conv2d_backward_bruteforce(inp, kernels, gy, stride, padding):
    """Explicit-loop input and weight gradients of `conv2d_bruteforce`
    for upstream gradient gy, one C x H x W image."""
    c_in, h, w = inp.shape
    c_out, _, kh, kw = kernels.shape
    xp = np.pad(inp, ((0, 0), (padding, padding), (padding, padding)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(kernels)
    _, oh, ow = gy.shape
    for co in range(c_out):
        for i in range(oh):
            for j in range(ow):
                for ci in range(c_in):
                    for a in range(kh):
                        for b in range(kw):
                            y, x = i * stride + a, j * stride + b
                            gxp[ci, y, x] += gy[co, i, j] * kernels[co, ci, a, b]
                            gw[co, ci, a, b] += gy[co, i, j] * xp[ci, y, x]
    return gxp[:, padding : padding + h, padding : padding + w], gw


def test_conv2d_backward_matches_bruteforce():
    """float64 to 1e-12; float32, the dtype training runs in, to 1e-5 of
    the float64 oracle on the same values. With k in {1, 3, 5}, H != W and
    up to 3 images, the weight gradient's products cover grid rows anchored
    in the right and bottom padding, which wrap into the next row or image
    and must read as zero."""
    for seed in range(25):
        for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            r = rng(seed)
            batch, c_in, c_out, k, h, w = draw_geometry(r)
            conv = layers.Conv2d(c_in, c_out, k, rng=r, dtype=dtype)
            inp = r.normal(size=(batch, c_in, h, w)).astype(dtype)
            gy = r.normal(size=conv.forward(inp).shape).astype(dtype)
            gx = conv.backward(gy)
            want = [conv2d_backward_bruteforce(x, conv.w.value.astype(np.float64), g, 1, k // 2)
                    for x, g in zip(inp.astype(np.float64), gy.astype(np.float64))]
            assert gx.shape == inp.shape and gx.dtype == dtype
            assert np.allclose(gx, np.stack([g for g, _ in want]), rtol=tol, atol=tol)
            assert np.allclose(conv.w.grad, sum(g for _, g in want), rtol=tol, atol=tol)
            assert np.allclose(conv.b.grad, gy.astype(np.float64).sum(axis=(0, 2, 3)),
                               rtol=tol, atol=tol)


@pytest.mark.parametrize("kh, kw", [(2, 2), (3, 1)])
def test_conv2d_rejects_even_or_non_square_kernel(kh, kw):
    with pytest.raises(ShapeError):
        tensor.conv2d_batched(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, kh, kw)))


def test_conv2d_bad_geometry():
    with pytest.raises(ShapeError):  # no same padding for an even kernel
        tensor.conv2d_batched(np.zeros((1, 1, 5, 5)), np.zeros((1, 1, 2, 2)))
    with pytest.raises(ShapeError):  # no batch axis
        tensor.conv2d_batched(np.zeros((1, 4, 4)), np.zeros((1, 1, 3, 3)))


def test_conv2d_channel_mismatch():
    with pytest.raises(ShapeError):
        tensor.conv2d_batched(np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 3, 3)))


# MRT1 format


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mrt1_roundtrip(tmp_path, dtype):
    a = rng(9).normal(size=(2, 3, 4)).astype(dtype)
    path = tmp_path / "t.mrt1"
    tensor.save_mrt1(path, a)
    back = tensor.load_mrt1(path)
    assert back.dtype == a.dtype
    assert np.array_equal(back, a)


def test_mrt1_header_layout(tmp_path):
    a = np.arange(6, dtype=np.float64).reshape(2, 3)
    blob = tensor.serialize_mrt1(a)
    assert blob[:4] == b"MRT1"
    assert blob[4] == 1  # f64
    assert blob[5] == 2  # rank
    assert blob[6:14] == (2).to_bytes(4, "little") + (3).to_bytes(4, "little")


@pytest.mark.parametrize("dtype", [np.float16, np.int32])
def test_mrt1_refuses_other_dtypes(tmp_path, dtype):
    # serialize_mrt1 holds the one check, so save_mrt1 and save_checkpoint share it
    with pytest.raises(ShapeError, match="MRT1 supports float32/float64"):
        tensor.serialize_mrt1(np.zeros((2, 3), dtype=dtype))
    with pytest.raises(ShapeError):
        tensor.save_mrt1(tmp_path / "t.mrt1", np.zeros(3, dtype=dtype))
    assert not (tmp_path / "t.mrt1").exists()


def test_mrt1_bad_magic():
    with pytest.raises(DataError):
        tensor.deserialize_mrt1(b"NOPE" + bytes(16))


@pytest.mark.parametrize("cut", [5, 8], ids=["dtype-rank-bytes", "shape"])
def test_mrt1_truncated_header(cut):
    blob = tensor.serialize_mrt1(np.zeros((2, 3)))
    with pytest.raises(DataError, match="truncated MRT1 header"):
        tensor.deserialize_mrt1(blob[:cut])


def _conv_16x8x32x32(seed, dtype):
    """A conv run forward at 16x8x32x32 and an output gradient for it, in
    dtype, on float32 values: each seed gives the same values in either dtype."""
    r = rng(seed)
    x, gy, w = (r.normal(size=shape).astype(np.float32).astype(dtype)
                for shape in ((16, 8, 32, 32), (16, 8, 32, 32), (8, 8, 3, 3)))
    conv = layers.Conv2d(8, 8, 3, rng=r, dtype=dtype)
    conv.w.value[...] = w
    conv.forward(x)
    return conv, x, gy


def test_conv2d_backward_peak_is_two_padded_grids():
    """One float32 backward at 16x8x32x32 holds the padded grids of the
    input and of the output gradient, and no patch copy: below 2.5x the
    input's bytes (the two grids are 2.26x)."""
    conv, x, gy = _conv_16x8x32x32(32, np.float32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        conv.backward(gy)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * x.nbytes


def test_conv2d_float32_weight_gradient_error():
    """The float32 weight gradient at 16x8x32x32 is within 1e-6 relative
    of the float64 gradient on the same values (3.5e-7 here)."""
    grads = []
    for dtype in (np.float32, np.float64):
        conv, _, gy = _conv_16x8x32x32(33, dtype)
        conv.backward(gy)
        grads.append(conv.w.grad.astype(np.float64))
    assert np.linalg.norm(grads[0] - grads[1]) / np.linalg.norm(grads[1]) < 1e-6
