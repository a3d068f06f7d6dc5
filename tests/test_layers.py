from pathlib import Path

import numpy as np
import pytest

from momrev import layers
from momrev.errors import ConfigError, ShapeError, StateError
from momrev.verify import fd_grad, rel_err
from util import rng


def test_relu_forward():
    out = layers.ReLU().forward(np.array([-1.0, 0.0, 2.0]))
    assert np.array_equal(out, np.array([0.0, 0.0, 2.0]))


def test_relu_backward_tie_at_zero():
    layer = layers.ReLU()
    layer.forward(np.array([-1.0, 0.0, 2.0]))
    gx = layer.backward(np.ones(3))
    assert np.array_equal(gx, np.array([0.0, 0.0, 1.0]))


def test_relu_caches_its_output_and_masks_nan():
    layer = layers.ReLU()
    y = layer.forward(np.array([np.nan, -1.0, 0.0, 2.0]))
    assert layer._cache is y
    gx = layer.backward(np.ones(4))
    assert np.array_equal(gx, np.array([0.0, 0.0, 0.0, 1.0]))


def test_conv_input_gradient_owns_its_data():
    r = rng(2)
    conv = layers.Conv2d(2, 3, 3, rng=r)
    x = r.normal(size=(2, 2, 5, 5))
    conv.forward(x)
    gx = conv.backward(r.normal(size=(2, 3, 5, 5)))
    assert gx.base is None and gx.shape == x.shape


def test_backward_consumes_every_cache():
    r = rng(3)
    cases = _layer_cases(r) + [
        (layers.build_residual_function(2, r), r.normal(size=(2, 2, 4, 4))),
    ]
    for layer, x in cases:
        layer.backward(np.ones_like(layer.forward(x, train=True)))
        assert layer.cache_size() == 0 and layer.cached_arrays() == [], type(layer)


def test_second_backward_raises_and_moves_no_gradient():
    r = rng(4)
    f = layers.build_residual_function(2, r)
    gy = r.normal(size=(2, 2, 4, 4))
    f.forward(r.normal(size=(2, 2, 4, 4)), train=True)
    f.backward(gy)
    before = [p.grad.copy() for p in f.params()]
    with pytest.raises(StateError):
        f.backward(gy)
    assert all(np.array_equal(a, p.grad) for a, p in zip(before, f.params()))


def test_cache_size_counts_a_shared_buffer_once():
    f = layers.build_residual_function(2, rng(5))
    x = rng(6).normal(size=(2, 2, 4, 4))
    f.forward(x, train=True)
    # conv1's input, and the ReLU output that both the ReLU and conv2 hold
    assert f.cache_size() == 2 * x.size
    assert len(f.cached_arrays()) == 3


def test_up_conv_is_upsample_then_conv_caching_the_small_input():
    x = rng(20).normal(size=(2, 3, 3, 4))
    gy = rng(21).normal(size=(2, 2, 6, 8))
    up = layers.UpConv2d(3, 2, 3, rng=rng(22))
    ref = layers.Sequential([layers.Upsample2(), layers.Conv2d(3, 2, 3, rng=rng(22))])
    assert np.array_equal(up.forward(x), ref.forward(x))
    (cached,) = up.cached_arrays()
    assert cached is x
    assert np.array_equal(up.backward(gy), ref.backward(gy))
    for p, q in zip(up.params(), ref.params()):
        assert np.array_equal(p.grad, q.grad)


def test_fuse_conv_is_concatenate_then_conv_caching_the_parts():
    r = rng(23)
    parts = (r.normal(size=(2, 2, 4, 4)), r.normal(size=(2, 3, 4, 4)))
    gy = r.normal(size=(2, 2, 4, 4))
    fuse = layers.FuseConv2d(5, 2, 3, rng=rng(24))
    ref = layers.Conv2d(5, 2, 3, rng=rng(24))
    assert np.array_equal(fuse.forward(parts), ref.forward(np.concatenate(parts, axis=1)))
    cached = fuse.cached_arrays()
    assert len(cached) == 2 and all(a is b for a, b in zip(cached, parts))
    grads = fuse.backward(gy)
    assert [g.shape for g in grads] == [p.shape for p in parts]
    assert np.array_equal(np.concatenate(grads, axis=1), ref.backward(gy))
    for p, q in zip(fuse.params(), ref.params()):
        assert np.array_equal(p.grad, q.grad)


def test_fuse_conv_gradients_match_finite_differences():
    r = rng(25)
    fuse = layers.FuseConv2d(3, 2, 3, rng=r)
    parts = (r.normal(size=(2, 1, 4, 4)), r.normal(size=(2, 2, 4, 4)))
    w = r.normal(size=(2, 2, 4, 4))

    def loss():
        return float((fuse.forward(parts, train=False) * w).sum())

    fuse.forward(parts, train=True)
    for g, part in zip(fuse.backward(w), parts):
        assert rel_err(g, fd_grad(loss, part)) <= 1e-6
    for p in fuse.params():
        assert rel_err(p.grad, fd_grad(loss, p.value)) <= 1e-6


def test_maxpool_caches_its_input():
    pool = layers.MaxPool2()
    x = rng(26).normal(size=(2, 2, 4, 4))
    pool.forward(x)
    (cached,) = pool.cached_arrays()
    assert cached is x


def test_linear_identity():
    layer = layers.Linear(2, 2, rng=rng(0))
    layer.w.value[...] = np.eye(2)
    out = layer.forward(np.array([[3.0, 5.0]]))
    assert np.array_equal(out, np.array([[3.0, 5.0]]))


def test_linear_backward_scalar_chain_rule():
    layer = layers.Linear(1, 1, rng=rng(0))
    layer.w.value[...] = [[2.0]]
    layer.forward(np.array([[1.5]]))
    gx = layer.backward(np.array([[3.0]]))
    assert np.array_equal(gx, np.array([[6.0]]))


def test_sigmoid_at_zero():
    assert layers.sigmoid(np.array([0.0]))[0] == 0.5


def test_backward_without_forward_raises():
    with pytest.raises(StateError):
        layers.ReLU().backward(np.ones(3))


def test_inference_mode_keeps_caches_empty():
    r = rng(1)
    for layer, x in _layer_cases(r)[:6]:
        layer.forward(x, train=False)
        assert layer.cache_size() == 0
        with pytest.raises(StateError):
            layer.backward(np.zeros(1))


def _layer_cases(r):
    """(layer, random input) pairs covering the whole zoo."""
    cases = []
    cases.append((layers.Linear(5, 3, rng=r), r.normal(size=(2, 5))))
    cases.append((layers.Conv2d(2, 3, 3, rng=r), r.normal(size=(2, 2, 6, 6))))
    cases.append((layers.Conv2d(2, 2, 1, rng=r), r.normal(size=(2, 2, 4, 4))))
    cases.append((layers.ReLU(), r.normal(size=(2, 3, 4, 4)) + 0.05))
    cases.append((layers.Tanh(), r.normal(size=(2, 7))))
    cases.append((layers.MaxPool2(), r.normal(size=(2, 2, 4, 4))))
    cases.append((layers.Upsample2(), r.normal(size=(2, 2, 3, 3))))
    cases.append((layers.GlobalAvgPool(), r.normal(size=(2, 3, 4, 4))))
    cases.append((layers.UpConv2d(2, 3, 3, rng=r), r.normal(size=(2, 2, 3, 3))))
    return cases


@pytest.mark.parametrize("case", range(13))
def test_layer_gradients_match_finite_differences(case):
    # 13 parametrized rounds x 9 layers > 100 random gradient checks
    r = rng(100 + case)
    for layer, x in _layer_cases(r):
        w = r.normal(size=layer.forward(x, train=False).shape)

        def loss():
            return float((layer.forward(x, train=False) * w).sum())

        layer.clear_cache()
        layer.forward(x.copy(), train=True)
        for p in layer.params():
            p.zero_grad()
        gx = layer.backward(w)
        assert rel_err(gx, fd_grad(loss, x)) <= 1e-6
        for p in layer.params():
            assert rel_err(p.grad, fd_grad(loss, p.value)) <= 1e-6


def test_residual_function_zero_weights_is_zero():
    f = layers.build_residual_function(2, rng=rng(0))
    for p in f.params():
        p.value[...] = 0.0
    x = rng(5).normal(size=(1, 2, 4, 4))
    assert np.array_equal(f.forward(x, train=False), np.zeros_like(x))


def test_residual_function_preserves_shape():
    for seed in range(20):
        shape = [(1, 4, 8, 8), (1, 2, 4, 4), (2, 1, 6, 6), (3, 3, 4, 8)][seed % 4]
        r = rng(seed)
        f = layers.build_residual_function(shape[1], r)
        x = r.normal(size=shape)
        assert f.forward(x, train=False).shape == shape


def test_linear_shape_error():
    with pytest.raises(ShapeError):
        layers.Linear(4, 2, rng=rng(0)).forward(np.zeros((2, 5)))
    with pytest.raises(ShapeError):  # one sample is a 1 x D batch
        layers.Linear(4, 2, rng=rng(0)).forward(np.zeros(4))


def test_checkpoint_roundtrip(tmp_path):
    r = rng(6)
    conv = layers.Conv2d(2, 3, 3, rng=r, name="c")
    lin = layers.Linear(4, 2, rng=r, name="l")
    params = conv.params() + lin.params()
    layers.save_checkpoint(tmp_path / "ckpt", params)
    conv2 = layers.Conv2d(2, 3, 3, rng=rng(7), name="c")
    lin2 = layers.Linear(4, 2, rng=rng(7), name="l")
    loaded = conv2.params() + lin2.params()
    layers.load_checkpoint(tmp_path / "ckpt", loaded)
    for p, q in zip(params, loaded, strict=True):
        assert p.name == q.name and np.array_equal(p.value, q.value)


def test_checkpoint_shape_mismatch(tmp_path):
    lin = layers.Linear(3, 2, rng=rng(0), name="l")
    layers.save_checkpoint(tmp_path / "ckpt", lin.params())
    other = layers.Linear(4, 2, rng=rng(1), name="l")
    with pytest.raises(ConfigError):
        layers.load_checkpoint(tmp_path / "ckpt", other.params())


def test_checkpoint_refuses_duplicate_parameter_names(tmp_path):
    a = layers.Linear(3, 2, rng=rng(0), name="l")
    b = layers.Linear(3, 2, rng=rng(1), name="l")
    with pytest.raises(ConfigError, match="duplicate parameter name 'l.w'"):
        layers.save_checkpoint(tmp_path / "ckpt", a.params() + b.params())
    assert not list(tmp_path.iterdir())


def test_checkpoint_survives_crash_during_write(tmp_path, monkeypatch):
    lin = layers.Linear(3, 2, rng=rng(0), name="l")
    layers.save_checkpoint(tmp_path / "ckpt", lin.params())
    before = (tmp_path / "ckpt.bin").read_bytes()
    saved_w = lin.w.value.copy()
    real_write_bytes = Path.write_bytes

    def crash_halfway(self, data):
        if self.name.startswith("ckpt.bin"):
            real_write_bytes(self, data[: len(data) // 2])
            raise OSError("simulated crash during the .bin write")
        return real_write_bytes(self, data)

    monkeypatch.setattr(Path, "write_bytes", crash_halfway)
    lin.w.value[...] += 1.0
    with pytest.raises(OSError):
        layers.save_checkpoint(tmp_path / "ckpt", lin.params())
    monkeypatch.undo()
    assert (tmp_path / "ckpt.bin").read_bytes() == before
    restored = layers.Linear(3, 2, rng=rng(1), name="l")
    layers.load_checkpoint(tmp_path / "ckpt", restored.params())
    assert np.array_equal(restored.w.value, saved_w)
