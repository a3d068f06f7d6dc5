import weakref

import numpy as np
import pytest

from momrev.errors import ConfigError, NumericError, StateError
from momrev.layers import Conv2d, Linear, Sequential, build_residual_function
from momrev.momentum import (
    REVERSIBLE,
    STORED,
    MomentumBlock,
    MomentumChain,
)
from util import rng


def zero_f(dim=1, dtype=np.float64):
    lin = Linear(dim, dim, rng(0), dtype=dtype, name="z")
    lin.w.value[...] = 0.0
    return Sequential([lin])


def scaled_identity_f(dim=1, w=1.0):
    lin = Linear(dim, dim, rng(0), name="s")
    lin.w.value[...] = np.eye(dim) * w
    return Sequential([lin])


def conv_f(seed, channels=2, dtype=np.float64):
    return build_residual_function(channels, rng(seed), dtype=dtype)


def test_forward_with_zero_f():
    block = MomentumBlock(0.9, zero_f())
    x, v = block.forward(np.array([[1.0]]), np.array([[2.0]]))
    assert v.item() == pytest.approx(1.8)
    assert x.item() == pytest.approx(2.8)


def test_forward_identity_f():
    block = MomentumBlock(0.5, scaled_identity_f())
    x, v = block.forward(np.array([[2.0]]), np.array([[0.0]]))
    assert v.item() == pytest.approx(1.0)
    assert x.item() == pytest.approx(3.0)


def test_inverse_identity_f():
    block = MomentumBlock(0.5, scaled_identity_f())
    x, v = block.inverse(np.array([[3.0]]), np.array([[1.0]]))
    assert x.item() == pytest.approx(2.0)
    assert v.item() == pytest.approx(0.0)


def test_inverse_gamma_one_keeps_velocity():
    block = MomentumBlock(1.0, conv_f(1))
    r = rng(2)
    x_next, v_next = r.normal(size=(1, 2, 4, 4)), r.normal(size=(1, 2, 4, 4))
    x, v = block.inverse(x_next, v_next)
    assert np.array_equal(v, v_next)
    assert np.array_equal(x, x_next - v_next)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_forward_refuses_a_non_finite_f_or_input(bad):
    one, zero = np.array([[1.0]]), np.array([[0.0]])
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError, match="forward"):
            MomentumBlock(0.9, scaled_identity_f(w=bad)).forward(one, zero)
        with pytest.raises(NumericError, match="forward"):
            MomentumBlock(0.9, zero_f()).forward(np.array([[bad]]), zero)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_inverse_refuses_a_non_finite_state(bad):
    block = MomentumBlock(0.5, zero_f())
    for x, v in ((bad, 1.0), (1.0, bad)):
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="inverse"):
            block.inverse(np.array([[x]]), np.array([[v]]))


def test_inverse_refuses_a_velocity_that_overflows_from_finite_x():
    # x = x' - v' = 0 is finite, but v = v' / gamma overflows
    big = np.array([[1e308]])
    block = MomentumBlock(0.5, zero_f())
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="inverse"):
        block.inverse(big, big)
    x, v = block.inverse(big, big, velocity=False)
    assert x.item() == 0.0 and v is None


def test_reversible_requires_positive_gamma():
    with pytest.raises(ConfigError, match="mode"):
        MomentumChain([MomentumBlock(0.0, zero_f())], REVERSIBLE)
    # called directly, the division by gamma = 0 leaves v non-finite
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="inverse"):
        MomentumBlock(0.0, zero_f()).inverse(np.zeros((1, 1)), np.zeros((1, 1)))


def test_reversible_chain_rejects_any_gamma_zero_block_at_construction():
    blocks = [MomentumBlock(0.9, zero_f()), MomentumBlock(0.0, zero_f())]
    with pytest.raises(ConfigError, match="mode"):
        MomentumChain(blocks, mode=REVERSIBLE)
    assert MomentumChain(blocks, mode=STORED).mode == STORED
    with pytest.raises(ConfigError, match="mode"):
        MomentumChain(blocks, mode="checkpointed")
    for gamma in (-0.5, 1.5, np.nan):
        with pytest.raises(ConfigError, match="gamma"):
            MomentumChain([MomentumBlock(0.9, zero_f()), MomentumBlock(gamma, zero_f())])
    with pytest.raises(ConfigError, match="blocks"):
        MomentumChain([], mode=STORED)


# chains


def run_blocks(blocks, x0):
    """The final state (x, v) of `blocks` from x0 at zero velocity."""
    x, v = x0, np.zeros_like(x0)
    for block in blocks:
        x, v = block.forward(x, v)
    return x, v


def test_chain_zero_dynamics_stationary():
    chain = MomentumChain([MomentumBlock(0.5, zero_f()) for _ in range(3)])
    out = chain.forward(np.array([[1.0]]), train=False)
    assert out.item() == pytest.approx(1.0)
    assert run_blocks(chain.blocks, np.array([[1.0]]))[1].item() == pytest.approx(0.0)


def test_chain_gamma_zero_doubles():
    chain = MomentumChain([MomentumBlock(0.0, scaled_identity_f()) for _ in range(2)])
    out = chain.forward(np.array([[1.0]]), train=False)
    assert out.item() == pytest.approx(4.0)


def test_chain_modes_agree_bitwise():
    x0 = rng(31).normal(size=(1, 2, 4, 4))
    stored, rev = (MomentumChain([MomentumBlock(0.9, conv_f(40 + j)) for j in range(10)], mode)
                   for mode in (STORED, REVERSIBLE))
    x_stored = stored.forward(x0.copy(), train=True)
    x_rev = rev.forward(x0.copy(), train=True)
    assert np.array_equal(x_stored, x_rev)
    x_final, v_final = run_blocks(stored.blocks, x0)
    assert np.array_equal(x_final, x_stored)
    x_n, v_n = rev.cached_arrays()
    assert x_n is x_rev and np.array_equal(v_n, v_final)


def test_chain_backward_frozen_zero_f():
    block = MomentumBlock(0.7, zero_f())
    chain = MomentumChain([block])
    chain.forward(np.array([[1.0]]), train=True)
    assert chain.backward(np.array([[1.0]])).item() == pytest.approx(1.0)
    block.f.forward(np.array([[1.0]]), train=True)
    gx, gv = block.backward_step(np.array([[1.0]]), np.array([[0.0]]))
    assert gx.item() == pytest.approx(1.0)
    assert gv.item() == pytest.approx(0.7)


def test_backward_step_needs_a_train_mode_f():
    block = MomentumBlock(0.7, conv_f(3))
    block.inverse(rng(4).normal(size=(1, 2, 4, 4)), rng(5).normal(size=(1, 2, 4, 4)))
    with pytest.raises(StateError):
        block.backward_step(np.ones((1, 2, 4, 4)), np.zeros((1, 2, 4, 4)))


def same_bits(a, b):
    """Equal dtype, shape and bits: -0.0 differs from 0.0 here."""
    uint = f"u{a.dtype.itemsize}"
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(uint), b.view(uint))


def signed_zero_normal(seed, dtype, shape=(2, 2, 4, 4)):
    """A normal draw whose first two entries are -0.0 and 0.0."""
    a = rng(seed).normal(size=shape).astype(dtype)
    a.flat[:2] = -0.0, 0.0
    return a


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.9])
def test_block_arithmetic_matches_the_out_of_place_formulas(gamma, dtype):
    # a block computes in buffers it owns, with the formulas' operations;
    # f = 0 leaves the zeros' signs to the formulas alone
    for make_f, shape in ((lambda: conv_f(50, dtype=dtype), (2, 2, 4, 4)),
                          (lambda: zero_f(dtype=dtype), (4, 1))):
        block, f = MomentumBlock(gamma, make_f()), make_f()
        x, v, gx, gv = (signed_zero_normal(seed, dtype, shape) for seed in (51, 52, 53, 54))
        before = [a.copy() for a in (x, v, gx)]
        x_next, v_next = block.forward(x, v)
        v_ref = gamma * v + (1.0 - gamma) * f.forward(x, train=False)
        assert same_bits(v_next, v_ref) and same_bits(x_next, x + v_ref)
        if gamma > 0.0:  # a block inverts and runs backward only where gamma > 0
            x_prev, v_prev = block.inverse(x, v, train=True)
            x_ref = x - v
            v_ref = (v - (1.0 - gamma) * f.forward(x_ref, train=True)) / gamma
            assert same_bits(x_prev, x_ref) and same_bits(v_prev, v_ref)
            g_x, g_v = block.backward_step(gx, gv.copy())
            u = gx + gv
            assert same_bits(g_x, gx + f.backward((1.0 - gamma) * u))
            assert same_bits(g_v, gamma * u)
            for p, q in zip(block.f.params(), f.params()):
                assert same_bits(p.grad, q.grad), p.name
        # it takes gv' over, but writes into neither its input state nor gx'
        assert all(same_bits(a, b) for a, b in zip((x, v, gx), before))


@pytest.mark.parametrize("mode", [STORED, REVERSIBLE])
def test_chain_backward_leaves_its_input_output_and_gradient_as_they_were(mode):
    chain = _conv_chain(3, 0.9, mode)
    x0, gy = rng(65).normal(size=(2, 2, 4, 4)), rng(66).normal(size=(2, 2, 4, 4))
    x_n = chain.forward(x0, train=True)
    before = [a.copy() for a in (x0, x_n, gy)]
    chain.backward(gy)
    assert all(same_bits(a, b) for a, b in zip((x0, x_n, gy), before))


@pytest.mark.parametrize("train", [False, True])
def test_residual_function_returns_buffers_of_its_own(train):
    # a block writes into f's results, so they must alias nothing else
    f = conv_f(70)
    x = rng(71).normal(size=(2, 2, 4, 4))
    y = f.forward(x, train=train)
    held = f.cached_arrays()
    assert len(held) == (3 if train else 0)
    assert not any(np.shares_memory(y, a) for a in [x, *held])
    if train:
        gy = rng(72).normal(size=y.shape)
        gx = f.backward(gy)
        assert not any(np.shares_memory(gx, a) for a in [x, y, gy, *held])


def test_chain_backward_resnet_endpoint_grads():
    # gamma=0, f(x) = w*x with w=2: x1 = x0 + w*x0; d/dw = x0, d/dx0 = 1 + w
    block = MomentumBlock(0.0, scaled_identity_f(w=2.0))
    chain = MomentumChain([block])
    chain.forward(np.array([[3.0]]), train=True)
    gx = chain.backward(np.array([[1.0]]))
    assert gx.item() == pytest.approx(3.0)
    w_param = block.f.layers[0].w
    assert w_param.grad[0, 0] == pytest.approx(3.0)


def _conv_chain(depth, gamma, mode, dtype=np.float64):
    return MomentumChain(
        [MomentumBlock(gamma, conv_f(900 + j, dtype=dtype)) for j in range(depth)],
        mode)


def test_stored_chain_retains_only_block_inputs():
    chain = MomentumChain([MomentumBlock(0.9, conv_f(seed)) for seed in range(3)], STORED)
    x0 = rng(7).normal(size=(2, 2, 4, 4))
    x, v, inputs = x0, np.zeros_like(x0), []
    for block in chain.blocks:
        inputs.append(x)
        x, v = block.forward(x, v)
    chain.forward(x0, train=True)
    held = chain.cached_arrays()
    assert len(held) == 3 and held[0] is x0
    assert all(np.array_equal(a, x) for a, x in zip(held, inputs))


@pytest.mark.parametrize("mode", [STORED, REVERSIBLE])
def test_chain_backward_evaluates_each_f_once(mode, monkeypatch):
    depth = 3
    chain = _conv_chain(depth, 0.9, mode)
    x0 = rng(8).normal(size=(2, 2, 4, 4))
    calls, inversions = [], []
    conv_forward, inverse = Conv2d.forward, MomentumBlock.inverse

    def counted(self, x, train=True):
        calls.append(train)
        return conv_forward(self, x, train=train)

    def counted_inverse(self, x_next, v_next, train=False, **kwargs):
        x, v = inverse(self, x_next, v_next, train=train, **kwargs)
        inversions.append((train, v is not None))
        return x, v

    monkeypatch.setattr(Conv2d, "forward", counted)
    monkeypatch.setattr(MomentumBlock, "inverse", counted_inverse)
    # the forward runs f in eval mode; only backward builds f's caches
    chain.forward(x0, train=True)
    chain.backward(np.ones_like(x0))
    assert calls == [False] * (2 * depth) + [True] * (2 * depth)
    # a block inverts only where the chain holds no input, and rebuilds its
    # velocity only where the block below inverts from it: never v_0
    if mode == REVERSIBLE:
        assert inversions == [(True, True)] * (depth - 1) + [(True, False)]
    else:
        assert inversions == []


@pytest.mark.parametrize("mode", [STORED, REVERSIBLE])
def test_chain_backward_frees_each_held_state_after_its_block(mode):
    chain = _conv_chain(3, 0.9, mode)
    x0 = rng(9).normal(size=(2, 2, 4, 4))
    out = chain.forward(x0, train=True)
    # x_1, x_2 (stored) or x_3, v_3 (reversible); the caller keeps x_0
    refs = [weakref.ref(a) for a in chain.cached_arrays() if a is not x0]
    assert len(refs) == 2
    del out
    f, alive = chain.blocks[0].f, []
    f_forward = f.forward

    def recording(x, train=True):
        alive.append([r() is not None for r in refs])
        return f_forward(x, train=train)

    f.forward = recording
    chain.backward(np.ones_like(x0))
    assert alive == [[False, False]]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("gamma", [0.5, 0.9])
def test_reversible_backward_matches_invert_then_recompute_bitwise(gamma, dtype):
    depth = 4
    x0 = rng(11).normal(size=(2, 2, 4, 4)).astype(dtype)
    gy = rng(12).normal(size=(2, 2, 4, 4)).astype(dtype)
    chain = _conv_chain(depth, gamma, REVERSIBLE, dtype)
    chain.forward(x0, train=True)
    gx = chain.backward(gy)

    ref = _conv_chain(depth, gamma, REVERSIBLE, dtype)
    x, v = run_blocks(ref.blocks, x0)
    gx_ref, gv_ref = gy, np.zeros_like(gy)
    for block in reversed(ref.blocks):
        x, v = block.inverse(x, v)
        block.f.forward(x, train=True)
        gx_ref, gv_ref = block.backward_step(gx_ref, gv_ref)
    assert gx.dtype == dtype and np.array_equal(gx, gx_ref)
    for p, q in zip(chain.params(), ref.params()):
        assert np.array_equal(p.grad, q.grad), p.name


@pytest.mark.parametrize("mode", [STORED, REVERSIBLE])
def test_chain_in_a_sequential_matches_hand_chained_calls(mode):
    def parts():
        r = rng(20)
        return [Conv2d(1, 2, 3, rng=r, name="in"), _conv_chain(2, 0.9, mode),
                Conv2d(2, 1, 3, rng=r, name="out")]

    x = rng(21).normal(size=(2, 1, 4, 4))
    gy = rng(22).normal(size=(2, 1, 4, 4))
    a, chain, b = parts()
    y_ref = b.forward(chain.forward(a.forward(x)))
    gx_ref = a.backward(chain.backward(b.backward(gy)))
    seq = Sequential(parts())
    y = seq.forward(x)
    # the chain's two block inputs (stored) or x_n and v_n (reversible),
    # after the input conv's input and before the output conv's
    states, held = seq.layers[1].cached_arrays(), seq.cached_arrays()
    assert len(states) == 2 and len(held) == 4
    assert all(any(h is s for h in held) for s in states)
    gx = seq.backward(gy)
    assert np.array_equal(y, y_ref) and np.array_equal(gx, gx_ref)
    for p, q in zip(seq.params(), a.params() + chain.params() + b.params()):
        assert np.array_equal(p.grad, q.grad), p.name
    seq.forward(x)
    f = seq.layers[1].blocks[0].f
    f.forward(x.repeat(2, axis=1), train=True)
    seq.clear_cache()
    assert seq.cached_arrays() == [] and f.cache_size() == 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_train_mode_inverse_returns_the_same_bits(dtype):
    block = MomentumBlock(0.5, conv_f(13, dtype=dtype))
    r = rng(14)
    s = (r.normal(size=(2, 2, 4, 4)).astype(dtype), r.normal(size=(2, 2, 4, 4)).astype(dtype))
    eval_x, eval_v = block.inverse(*s)
    assert block.f.cache_size() == 0
    train_x, train_v = block.inverse(*s, train=True)
    assert block.f.cache_size() > 0
    assert np.array_equal(train_x, eval_x)
    assert np.array_equal(train_v, eval_v)
    x_only, no_v = block.inverse(*s, velocity=False)
    assert no_v is None and np.array_equal(x_only, eval_x)


def test_backward_without_forward_raises():
    chain = _conv_chain(2, 0.9, STORED)
    with pytest.raises(StateError):
        chain.backward(np.zeros((1, 2, 4, 4)))


def test_float32_roundtrip_error_documented():
    # informational bound: depth-10 gamma=0.9 float32 round-trip <= 1e-3
    r = rng(77)
    blocks = []
    for j in range(10):
        f = build_residual_function(2, rng(700 + j), dtype=np.float32)
        blocks.append(MomentumBlock(0.9, f))
    x0 = r.normal(size=(1, 2, 4, 4)).astype(np.float32)
    v0 = r.normal(size=(1, 2, 4, 4)).astype(np.float32)
    x, v = x0, v0
    for b in blocks:
        x, v = b.forward(x, v)
    for b in reversed(blocks):
        x, v = b.inverse(x, v)
    err = max(np.abs(x - x0).max(), np.abs(v - v0).max())
    assert err <= 1e-3
