import numpy as np
import pytest

from momrev import network
from momrev.errors import ConfigError, ShapeError, StateError
from momrev.layers import load_checkpoint, save_checkpoint
from momrev.momentum import MomentumChain
from momrev.verify import fd_grad, rel_err
from util import rng


def chains(net):
    return [part for part in net.parts() if isinstance(part, MomentumChain)]


def cls_descriptor(**kw):
    base = dict(
        task="classification",
        input_shape=(1, 16, 16),
        stages=[dict(width=8, blocks=2, gamma=0.9, mode="reversible")],
        num_classes=3,
    )
    base.update(kw)
    return network.NetworkDescriptor(**base)


def seg_descriptor(**kw):
    base = dict(
        task="segmentation",
        input_shape=(1, 32, 32),
        stages=[dict(width=4, blocks=1, gamma=0.9, mode="reversible"),
                dict(width=8, blocks=1, gamma=0.9, mode="reversible")],
    )
    base.update(kw)
    return network.NetworkDescriptor(**base)


def test_classifier_output_shape():
    net = network.build(cls_descriptor(), seed=1)
    logits = net.predict(rng(0).normal(size=(2, 1, 16, 16)))
    assert logits.shape == (2, 3)


def test_segmenter_output_shape():
    net = network.build(seg_descriptor(), seed=1)
    logits = net.predict(rng(0).normal(size=(2, 1, 32, 32)))
    assert logits.shape == (2, 1, 32, 32)


def test_same_seed_identical_checkpoints(tmp_path):
    for run in range(2):
        net = network.build(seg_descriptor(), seed=11)
        net.save(tmp_path / f"ckpt{run}")
    assert (tmp_path / "ckpt0.bin").read_bytes() == (tmp_path / "ckpt1.bin").read_bytes()
    a, b = (network.build(seg_descriptor(), seed=seed) for seed in (1, 2))
    load_checkpoint(tmp_path / "ckpt0", a.params())
    load_checkpoint(tmp_path / "ckpt1", b.params())
    assert all(np.array_equal(p.value, q.value) for p, q in zip(a.params(), b.params()))


def test_zero_weights_give_zero_logits():
    net = network.build(cls_descriptor(), seed=1)
    for p in net.params():
        p.value[...] = 0.0
    logits = net.predict(rng(2).normal(size=(2, 1, 16, 16)))
    assert np.array_equal(logits, np.zeros((2, 3)))


def test_batch_independence():
    net = network.build(cls_descriptor(), seed=3)
    batch = rng(4).normal(size=(2, 1, 16, 16))
    joint = net.predict(batch)
    singles = np.concatenate([net.predict(batch[:1]), net.predict(batch[1:])])
    assert np.allclose(joint, singles, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("make", [cls_descriptor, seg_descriptor])
def test_reversible_and_stored_logits_identical(make):
    shape = make().input_shape
    batch = rng(5).normal(size=(2,) + shape)
    outs = []
    for mode in ("stored", "reversible"):
        desc = make()
        for s in desc.stages:
            s.mode = mode
        net = network.build(desc, seed=7)
        outs.append(net.predict(batch))
    assert np.array_equal(outs[0], outs[1])


def micro_seg_descriptor():
    return network.NetworkDescriptor(
        task="segmentation",
        input_shape=(1, 4, 4),
        stages=[dict(width=2, blocks=1, gamma=0.9, mode="reversible"),
                dict(width=2, blocks=1, gamma=0.9, mode="reversible")],
    )


def micro_seg3_descriptor():
    # three stages: level 0 nests level 1, whose inner part is enc2
    return network.NetworkDescriptor(
        task="segmentation",
        input_shape=(1, 4, 4),
        stages=[dict(width=2, blocks=1, gamma=0.9, mode="reversible")] * 3,
    )


def micro_cls_descriptor():
    return network.NetworkDescriptor(
        task="classification",
        input_shape=(1, 4, 4),
        stages=[dict(width=2, blocks=1, gamma=0.9, mode="reversible")],
        num_classes=2,
    )


def _input_grad(net, batch, w):
    net.zero_grad()
    net.predict(batch, train=True)
    return net.train_backward(w)


@pytest.mark.parametrize("seed", range(10))
def test_end_to_end_input_gradients_match_fd(seed):
    # 10 seeds x 3 descriptors = 30 random networks
    for make in (micro_seg_descriptor, micro_seg3_descriptor, micro_cls_descriptor):
        desc = make()
        net = network.build(desc, seed=100 + seed)
        r = rng(200 + seed)
        batch = r.normal(size=(1,) + desc.input_shape)
        out_shape = net.predict(batch).shape
        w = r.normal(size=out_shape)

        def loss():
            return float((net.predict(batch) * w).sum())

        gx = _input_grad(net, batch, w)
        assert rel_err(gx, fd_grad(loss, batch)) <= 1e-6


@pytest.mark.parametrize("seed", range(3))
def test_end_to_end_parameter_gradients_match_fd(seed):
    desc = micro_seg_descriptor()
    net = network.build(desc, seed=300 + seed)
    r = rng(400 + seed)
    batch = r.normal(size=(1,) + desc.input_shape)
    w = r.normal(size=(1, 1, 4, 4))
    # jitter biases off zero so no pre-activation sits exactly on the
    # relu kink, where central differences and the subgradient disagree
    for p in net.params():
        p.value += 0.05 * r.normal(size=p.value.shape)

    def loss():
        return float((net.predict(batch) * w).sum())

    _input_grad(net, batch, w)
    for p in net.params():
        assert rel_err(p.grad, fd_grad(loss, p.value)) <= 1e-6, p.name


def test_stored_vs_reversible_full_net_gradients():
    batch = rng(6).normal(size=(2, 1, 32, 32))
    w = rng(7).normal(size=(2, 1, 32, 32))
    grads = {}
    for mode in ("stored", "reversible"):
        desc = seg_descriptor()
        for s in desc.stages:
            s.mode = mode
        net = network.build(desc, seed=13)
        _input_grad(net, batch, w)
        grads[mode] = np.concatenate([p.grad.ravel() for p in net.params()])
    assert rel_err(grads["stored"], grads["reversible"]) <= 1e-8


def test_skip_fanout_gradient_sums_both_paths():
    # micro-net: y = x + g(x) where g is pool -> upsample; the gradient at
    # the fan-out point must be the sum of the skip and processed paths.
    from momrev.layers import MaxPool2, Sequential, Upsample2

    g = Sequential([MaxPool2(), Upsample2()])
    x = rng(8).normal(size=(1, 1, 4, 4))
    w = rng(9).normal(size=(1, 1, 4, 4))

    def loss():
        return float(((x + g.forward(x, train=False)) * w).sum())

    g.clear_cache()
    g.forward(x, train=True)
    grad = w + g.backward(w)
    assert rel_err(grad, fd_grad(loss, x)) <= 1e-6


def test_parameter_names_unique_and_count():
    # convs: stem, 2 per block x 3 chains, down0, up0, fuse0, head; with
    # three stages, stem, 2 per block x 5 chains, down0-1, up0-1, fuse0-1, head
    for make, convs in ((seg_descriptor, 11), (micro_seg3_descriptor, 18)):
        net = network.build(make(), seed=1)
        names = [p.name for p in net.params()]
        assert len(names) == len(set(names))
        assert len(names) == 2 * convs, make.__name__  # w and b of each conv


def test_checkpoint_loads_whatever_its_blob_order(tmp_path):
    # loading goes by name through the manifest, so a checkpoint written in
    # another parameter order (as by a build that registers up/fuse
    # differently) restores every parameter exactly
    desc = micro_seg3_descriptor()
    saved = network.build(desc, seed=1)
    save_checkpoint(tmp_path / "ckpt", saved.params()[::-1])
    fresh = network.build(desc, seed=2)
    fresh.load(tmp_path / "ckpt")
    for a, b in zip(saved.params(), fresh.params(), strict=True):
        assert a.name == b.name and np.array_equal(a.value, b.value)


def test_backward_without_forward():
    net = network.build(cls_descriptor(), seed=1)
    with pytest.raises(StateError):
        net.train_backward(np.zeros((1, 3)))
    net.predict(rng(0).normal(size=(1, 1, 16, 16)), train=False)
    with pytest.raises(StateError):
        net.train_backward(np.zeros((1, 3)))


def test_eval_predict_refuses_pending_backward_before_any_gradient():
    net = network.build(micro_seg_descriptor(), seed=2)
    batch = rng(3).normal(size=(2, 1, 4, 4))
    net.zero_grad()
    net.predict(batch, train=True)
    net.predict(batch, train=False)
    with pytest.raises(StateError):
        net.train_backward(rng(4).normal(size=(2, 1, 4, 4)))
    assert all(not p.grad.any() for p in net.params())


@pytest.mark.parametrize("make", [micro_cls_descriptor, micro_seg_descriptor,
                                  micro_seg3_descriptor])
def test_backward_frees_every_cache(make):
    desc = make()
    net = network.build(desc, seed=5)
    batch = rng(6).normal(size=(2,) + desc.input_shape)
    logits = net.predict(batch, train=True)
    assert net.memory_ledger().total > 0
    net.train_backward(np.ones_like(logits))
    assert net.memory_ledger().total == 0
    fs = [b.f for c in chains(net) for b in c.blocks]
    assert all(part.cache_size() == 0 for part in net.parts() + fs)


def test_reversible_head_input_is_counted_once():
    # every reversible chain's output x_n is also a layer's cached input: the
    # head's (dec0), the up conv's (enc1) and the pool's and fuse's (enc0,
    # the skip), so the total subtracts each of those buffers once
    net = network.build(micro_seg_descriptor(), seed=9)
    net.predict(rng(10).normal(size=(2, 1, 4, 4)), train=True)
    caches = [a for part in net.parts() if not isinstance(part, MomentumChain)
              for a in part.cached_arrays()]
    outputs = [c.cached_arrays()[0] for c in chains(net)]
    (head_input,) = net.parts()[-1].cached_arrays()
    assert any(x is head_input for x in outputs)
    for x in outputs:
        assert any(a is x for a in caches)
    ledger = net.memory_ledger()
    assert ledger.total == (ledger.chain_states + ledger.transitions
                            - sum(x.size for x in outputs))


def test_stored_chain_input_is_the_relu_output_counted_once():
    desc = micro_cls_descriptor()
    desc.stages[0].mode = "stored"
    net = network.build(desc, seed=11)
    net.predict(rng(12).normal(size=(2, 1, 4, 4)), train=True)
    stem, chain = net.parts()[:2]
    relu_out = stem.layers[1].cached_arrays()[0]
    assert chain.cached_arrays()[0] is relu_out
    ledger = net.memory_ledger()
    assert ledger.total == ledger.chain_states + ledger.transitions - relu_out.size


def unet_levels(layers):
    found = [layer for layer in layers if isinstance(layer, network.UNetLevel)]
    return found + [inner for level in found for inner in unet_levels(level.layers)]


def test_train_forward_holds_activations_only_in_layer_caches_and_chain_states():
    # neither the network nor a level may keep an activation (the skip, say)
    # as an attribute: it would sit outside the caches the ledger audits
    for make in (micro_seg_descriptor, micro_seg3_descriptor):
        desc = make()
        for s in desc.stages:
            s.mode = "stored"
        net = network.build(desc, seed=7)
        net.predict(rng(8).normal(size=(2, 1, 4, 4)), train=True)
        levels = unet_levels(net.body.layers)
        assert len(levels) == len(desc.stages) - 1
        for owner in [net] + levels:
            for name, value in vars(owner).items():
                held = value if isinstance(value, list) else [value]
                assert not any(isinstance(v, np.ndarray) for v in held), name


def test_bad_batch_shape():
    net = network.build(cls_descriptor(), seed=1)
    with pytest.raises(ShapeError):
        net.predict(np.zeros((2, 1, 8, 8)))


def test_descriptor_validation():
    with pytest.raises(ConfigError):
        network.NetworkDescriptor(task="regression", input_shape=(1, 8, 8),
                                  stages=[dict(width=2, blocks=1)])
    with pytest.raises(ConfigError):
        network.NetworkDescriptor(task="segmentation", input_shape=(1, 15, 15),
                                  stages=[dict(width=2, blocks=1),
                                          dict(width=4, blocks=1)])
    with pytest.raises(ConfigError):
        network.NetworkDescriptor(task="classification", input_shape=(1, 8, 8),
                                  stages=[])
    with pytest.raises(ConfigError):
        network.NetworkDescriptor(task="classification", input_shape=(1, True, 8),
                                  stages=[dict(width=2, blocks=1)])
