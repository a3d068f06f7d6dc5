"""Activation-memory ledger: exact float tallies, not OS bytes.

A ledger counts scalars retained past the operation that produced them
during one train-mode forward pass. A network is one list of parts, and
the ledger splits their caches by part type: a momentum chain's cache is
the states its mode keeps, every other part's is a transition's or the
head's. These caches are the only places a forward keeps activations.
Each category counts distinct buffers, and the total counts a buffer held
in both (a reversible chain's output that the next layer caches, a ReLU
output that a stored chain keeps as its first state) once, so the total
times the itemsize is what the arrays occupy. The per-block
working set of a residual function is transient in both backward modes:
the forward runs f in eval mode, and backward evaluates each f once, in
train mode, on the retained block input in stored mode and inside
`inverse` in reversible mode, and frees its caches when the block is
done. So it is measured in backward, as a peak, separately from the
retained total.

`compare_modes` tabulates the ledger of a run's network, every stage
rebuilt at each chain depth in both modes (stored only when a stage has
gamma = 0, which cannot invert), on a batch of the run's size and dtype,
next to `peak_bytes`: the `tracemalloc` peak over that forward and
backward, in real bytes, transients and gradients included (the batch and
the parameters are allocated before it starts, and an untraced warm-up
pass keeps the process's one-time allocations out of the first row).
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np

from . import network as network_mod

LEDGER_COLUMNS = ["depth", "mode", "chain_states", "f_transient_peak",
                  "transitions", "total", "peak_bytes"]


def profile_forward(net, batch: np.ndarray) -> network_mod.MemoryLedger:
    """Run one train-mode forward and tally what stayed cached, then a
    backward on a zero loss gradient, which frees it and measures
    `f_transient_peak`; the parameter gradients gain only zeros."""
    logits = net.predict(batch, train=True)
    held = net.memory_ledger()
    net.train_backward(np.zeros_like(logits))
    return dataclasses.replace(held, f_transient_peak=net.memory_ledger().f_transient_peak)


def compare_modes(descriptor: network_mod.NetworkDescriptor, batch: np.ndarray,
                  depths: list[int]):
    """Ledger rows over chain depths for both backward modes.

    Every stage of the descriptor is rebuilt with `blocks=depth` and the
    requested mode, from seed 0 in the batch's dtype; returns one row per
    (depth, mode) with its values in LEDGER_COLUMNS order, ready for
    `metrics.render_csv`. Reversible rows need every stage's gamma > 0, so
    a descriptor with a gamma = 0 stage gets stored rows only.
    """
    invertible = all(s.gamma > 0 for s in descriptor.stages)
    modes = ("stored", "reversible") if invertible else ("stored",)

    def net_for(depth, mode):
        stages = [network_mod.StageSpec(s.width, depth, s.gamma, mode)
                  for s in descriptor.stages]
        desc = dataclasses.replace(descriptor, stages=stages)
        return network_mod.build(desc, seed=0, dtype=batch.dtype)

    # warm-up: the process's one-time allocations stay out of the first row
    profile_forward(net_for(depths[0], modes[0]), batch)
    rows = []
    for depth in depths:
        for mode in modes:
            net = net_for(depth, mode)
            tracemalloc.start()
            try:
                ledger = profile_forward(net, batch)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            rows.append([depth, mode, ledger.chain_states, ledger.f_transient_peak,
                         ledger.transitions, ledger.total, peak])
    return rows
