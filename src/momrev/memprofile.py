"""Activation-memory ledger: exact float tallies, not OS bytes.

A ledger counts scalars retained past the operation that produced them
during one train-mode forward pass, split by category. The per-block
working set of a residual function is transient in both backward modes
(stored mode recomputes f from the cached block input, reversible mode
from the reconstructed one), so it is reported as a peak, separately from
the retained totals.
"""

from __future__ import annotations

import io

import numpy as np

from . import network as network_mod

LEDGER_COLUMNS = ["depth", "mode", "chain_states", "f_transient_peak",
                  "skips", "transitions", "total"]


def profile_forward(net, batch: np.ndarray) -> network_mod.MemoryLedger:
    """Run one train-mode forward and tally what stayed cached."""
    net.predict(batch, train=True)
    ledger = net.memory_ledger()
    net.clear_caches()
    return ledger


def compare_modes(descriptor: network_mod.NetworkDescriptor, batch: np.ndarray,
                  depths: list[int], seed: int = 0, dtype=np.float64):
    """Ledger rows over chain depths for both backward modes.

    Every stage of the descriptor is rebuilt with `blocks=depth` and the
    requested mode; returns a list of dicts in LEDGER_COLUMNS order.
    """
    rows = []
    for depth in depths:
        for mode in ("stored", "reversible"):
            stages = [
                network_mod.StageSpec(s.width, depth, s.gamma if s.gamma > 0 else 0.9, mode)
                for s in descriptor.stages
            ]
            desc = network_mod.NetworkDescriptor(
                task=descriptor.task,
                input_shape=descriptor.input_shape,
                stages=stages,
                num_classes=descriptor.num_classes,
            )
            net = network_mod.build(desc, seed=seed, dtype=dtype)
            ledger = profile_forward(net, batch.astype(dtype))
            rows.append({
                "depth": depth,
                "mode": mode,
                "chain_states": ledger.chain_states,
                "f_transient_peak": ledger.f_transient_peak,
                "skips": ledger.skips,
                "transitions": ledger.transitions + ledger.head,
                "total": ledger.total,
            })
    return rows


def render_ledger_csv(rows) -> str:
    buf = io.StringIO()
    buf.write(",".join(LEDGER_COLUMNS) + "\n")
    for row in rows:
        buf.write(",".join(str(row[c]) for c in LEDGER_COLUMNS) + "\n")
    return buf.getvalue()


def render_ledger_markdown(rows) -> str:
    lines = ["| " + " | ".join(LEDGER_COLUMNS) + " |",
             "|" + "---|" * len(LEDGER_COLUMNS)]
    for row in rows:
        lines.append("| " + " | ".join(str(row[c]) for c in LEDGER_COLUMNS) + " |")
    return "\n".join(lines) + "\n"
