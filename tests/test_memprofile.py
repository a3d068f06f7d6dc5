import csv
import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

from momrev import memprofile, metrics, network, train
from momrev.momentum import MomentumChain
from util import rng


def chain_descriptor(mode, blocks):
    return network.NetworkDescriptor(
        task="classification",
        input_shape=(1, 8, 8),
        stages=[dict(width=4, blocks=blocks, gamma=0.9, mode=mode)],
        num_classes=2,
    )


def ledger_for(mode, blocks):
    net = network.build(chain_descriptor(mode, blocks), seed=0)
    return memprofile.profile_forward(net, rng(1).normal(size=(2, 1, 8, 8)))


def preset_ledger(cfg, mode, blocks):
    """The ledger of a preset's network as it trains (its batch size and
    dtype), every stage rebuilt at `blocks` blocks in `mode`."""
    desc = cfg.descriptor()
    desc.stages = [dataclasses.replace(s, blocks=blocks, mode=mode) for s in desc.stages]
    net = network.build(desc, seed=0, dtype=cfg.np_dtype())
    batch = np.zeros((cfg.batch_size, *desc.input_shape), dtype=cfg.np_dtype())
    return memprofile.profile_forward(net, batch)


# the classification preset's stage states: 32*8*16*16 + 32*16*8*8 scalars;
# test_acceptance::test_memory_ledger_scaling pins the segmentation preset's
CLS_STATES = 32 * 8 * 16 * 16 + 32 * 16 * 8 * 8


@pytest.mark.parametrize("blocks", [1, 2, 4, 8, 16])
def test_stored_chain_memory_is_one_state_size_per_block(blocks):
    ledger = preset_ledger(train.classification_defaults(), "stored", blocks)
    assert ledger.chain_states == CLS_STATES * blocks


@pytest.mark.parametrize("blocks", [1, 2, 4, 8, 16])
def test_reversible_chain_memory_is_constant(blocks):
    ledger = preset_ledger(train.classification_defaults(), "reversible", blocks)
    assert ledger.chain_states == 2 * CLS_STATES
    # beside the states only the batch (32*1*16*16) and the head's pooled
    # input (32*16) stay held: the transitions recompute in backward
    assert ledger.total == 2 * CLS_STATES + 32 * 16 * 16 + 32 * 16 == 205_312


def test_transient_peak_matches_and_transitions_pinned_across_modes():
    state = 2 * 4 * 8 * 8
    batch, head = 2 * 1 * 8 * 8, 2 * 4  # the stem's input; the linear head's
    for blocks in (1, 4):
        a = ledger_for("stored", blocks)
        b = ledger_for("reversible", blocks)
        # conv1's input and the ReLU output conv2 reads
        assert a.f_transient_peak == b.f_transient_peak == 2 * state
        # stored: the stem conv's input and its ReLU output (the chain's x_0);
        # reversible: the stem recomputes from the batch, so only that stays
        assert a.transitions == batch + state + head == 648
        assert b.transitions == batch + head == 136
    # backward measures the peak, so an eval forward leaves it as it is
    net = network.build(chain_descriptor("reversible", 2), seed=0)
    memprofile.profile_forward(net, rng(1).normal(size=(2, 1, 8, 8)))
    net.predict(rng(2).normal(size=(2, 1, 8, 8)))
    assert [p.f_transient_peak for p in net.parts()
            if isinstance(p, MomentumChain)] == [2 * state]


def two_stage_descriptor(task, mode, blocks=2):
    return network.NetworkDescriptor(
        task=task,
        input_shape=(1, 16, 16),
        stages=[dict(width=4, blocks=blocks, gamma=0.9, mode=mode),
                dict(width=8, blocks=blocks, gamma=0.9, mode=mode)],
        num_classes=3,
    )


def _held_by_train_predict(net, draw):
    """Array bytes a train predict leaves held, batch included: `draw` makes
    the batch inside the trace, since the stem caches it. Only numpy's data
    buffers count; Python objects that come and go with them (an instance
    dict growing, numpy's own scratch) are not the ledger's to count."""
    tracemalloc.start()
    try:
        net.predict(draw(), train=True)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    arrays = snapshot.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    return sum(trace.size for trace in arrays.traces)


def test_segmenter_skips_counted():
    # the ledger's total is the array bytes a train predict leaves held, to
    # the byte, in both tasks and modes: every buffer counts once, whatever
    # holds it
    for task in ("segmentation", "classification"):
        for mode in ("stored", "reversible"):
            net = network.build(two_stage_descriptor(task, mode), seed=0)
            held = _held_by_train_predict(net, lambda: rng(2).normal(size=(4, 1, 16, 16)))
            ledger = net.memory_ledger()
            assert ledger.total <= ledger.chain_states + ledger.transitions
            assert ledger.total * 8 == held, (task, mode)
    # and in float32 on both presets, where a cache of another dtype (an
    # int64 index) would count at the wrong itemsize
    for cfg in (train.segmentation_defaults(), train.classification_defaults()):
        desc = cfg.descriptor()
        for mode in ("stored", "reversible"):
            desc.stages = [dataclasses.replace(s, mode=mode) for s in desc.stages]
            net = network.build(desc, seed=0, dtype=np.float32)
            held = _held_by_train_predict(net, lambda: rng(2).normal(
                size=(cfg.batch_size, *desc.input_shape)).astype(np.float32))
            assert net.memory_ledger().total * 4 == held, (desc.task, mode)


STATE_BYTES = 4 * 4 * 16 * 16 * 8  # one first-stage state array of the net below


def _reversible_backward_peak():
    """tracemalloc peak of one backward of a 4-block two-stage reversible
    classifier, its held states and batch included."""
    net = network.build(two_stage_descriptor("classification", "reversible", blocks=4),
                        seed=0)
    tracemalloc.start()
    try:
        batch = rng(3).normal(size=(4, 1, 16, 16))
        logits = net.predict(batch, train=True)
        g = rng(4).normal(size=logits.shape)
        tracemalloc.reset_peak()
        net.train_backward(g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_backward_frees_activations_at_last_read():
    # the whole backward, the held states and the batch included, stays
    # below 14 state arrays; a forward that kept the transitions' caches
    # would not
    assert _reversible_backward_peak() < 14 * STATE_BYTES


def test_backward_step_sums_into_the_velocity_gradient():
    # a block forms u = gx' + gv' in gv''s buffer, so one state array fewer
    # is live while f.backward runs: 12.3 states, against 13.3 with u fresh
    assert _reversible_backward_peak() < 13 * STATE_BYTES


def test_profile_clears_caches():
    desc = chain_descriptor("stored", 4)
    net = network.build(desc, seed=0)
    memprofile.profile_forward(net, rng(1).normal(size=(2, 1, 8, 8)))
    ledger = net.memory_ledger()
    assert ledger.total == 0 and ledger.chain_states == 0


def test_gradients_unchanged_by_profiling():
    batch = rng(3).normal(size=(2, 1, 8, 8))
    w = rng(4).normal(size=(2, 2))
    grads = []
    for profile_first in (False, True):
        net = network.build(chain_descriptor("reversible", 2), seed=5)
        if profile_first:
            memprofile.profile_forward(net, batch)
        net.zero_grad()
        net.predict(batch, train=True)
        net.train_backward(w)
        grads.append(np.concatenate([p.grad.ravel() for p in net.params()]))
    assert np.array_equal(grads[0], grads[1])


def test_compare_modes_rows_and_scaling():
    # chain_states on this preset are pinned by test_memory_ledger_scaling
    cfg = train.segmentation_defaults()
    desc = cfg.descriptor()
    batch = np.zeros((cfg.batch_size, *desc.input_shape), dtype=cfg.np_dtype())
    depths = [1, 2]
    rows = memprofile.compare_modes(desc, batch, depths)
    assert len(rows) == 2 * len(depths)
    by = {(r[0], r[1]): dict(zip(memprofile.LEDGER_COLUMNS, r)) for r in rows}
    s0, s1, images = 16 * 8 * 32 * 32, 16 * 16 * 16 * 16, 16 * 1 * 32 * 32
    for d in depths:
        assert (by[(d, "stored")]["f_transient_peak"]
                == by[(d, "reversible")]["f_transient_peak"])
        assert by[(d, "stored")]["transitions"] == 835_584
        # the batch, and the chain outputs that the recomputing transitions
        # and the head hold: enc0's and dec0's (S0 each) and enc1's (S1)
        assert by[(d, "reversible")]["transitions"] == images + 2 * s0 + s1 == 344_064
    for row in by.values():
        assert row["peak_bytes"] >= row["total"] * batch.itemsize
        assert row["peak_at"].endswith("/backward")


def test_ledger_csv_roundtrip():
    rows = memprofile.compare_modes(chain_descriptor("reversible", 1),
                                    rng(7).normal(size=(1, 1, 8, 8)), [1, 2])
    text = metrics.render_csv(memprofile.LEDGER_COLUMNS, rows)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == len(rows)
    for got, want in zip(parsed, rows):
        for col, value in zip(memprofile.LEDGER_COLUMNS, want):
            if col in ("mode", "peak_at"):
                assert got[col] == value
            else:
                assert int(got[col]) == value


def test_ledger_markdown_has_header_and_rows():
    rows = memprofile.compare_modes(chain_descriptor("reversible", 1),
                                    rng(8).normal(size=(1, 1, 8, 8)), [1])
    md = metrics.render_markdown(memprofile.LEDGER_COLUMNS, rows)
    lines = md.strip().splitlines()
    assert lines[0].startswith("| depth | mode |")
    assert len(lines) == 2 + len(rows)
