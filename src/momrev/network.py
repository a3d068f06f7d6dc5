"""Task networks assembled from momentum chains.

Two toy architectures share the same building blocks, each one
`Sequential` body:

* classifier: stem conv -> momentum stages separated by conv+pool
  transitions -> global average pool -> linear logits.
* segmenter: U-Net, stem -> level 0 -> 1x1 conv head emitting per-pixel
  logits. Level i is a `UNetLevel`: encoder chain -> pool+conv down ->
  level i+1 (at the bottom, the last encoder chain) -> up conv, fused
  channel-wise with the skip (the encoder chain's output) by the fuse
  conv -> decoder chain. The skip and its gradient fan-out live in
  `UNetLevel` alone. Pools/upsamples are not invertible, so only the
  chains run reversibly.

A momentum chain is a layer, so a network's parts are one list: the
body's layers with each level expanded, that is the chains and the
layers between them (the segmenter's up and fuse convs are one part). A
train-mode forward holds activations only in their caches (a chain's
cache is each block input or the final state its mode holds), which are
also the only record of a pending backward. Layer caches hold no copies.
A transition between reversible chains, and the stem before one, is a
`Recompute`: it caches only its input, the batch or chain outputs that
the chains hold anyway, and runs its layers again in backward (Chen et
al. 2016's checkpointing at stage granularity). So a reversible network
holds its chain states, the batch and the head's input: on the float32
presets 671,744 floats (segmentation) and 205,312 (classification) at
any depth, against 1,163,264 and 401,920 in stored mode at depth 2.
Next to a stored chain a transition keeps its own caches: each conv and
pool its input (the up conv's before upsampling), the fuse conv its parts
(the up ReLU's output and the skip) and each ReLU its output, so every
chain output is also a layer's cache. `train_backward` consumes the
caches as it goes, so each activation is freed once backward has read it
for the last time, and it hands each gradient on by `layers.Layer`'s
rule, so no caller keeps a gradient its part has read. Without a pending
train-mode predict the head finds no cache and raises StateError before
any gradient moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral, Real
from typing import get_type_hints

import numpy as np

from .errors import ConfigError, ShapeError
from .layers import (
    Conv2d,
    FuseConv2d,
    GlobalAvgPool,
    Layer,
    Linear,
    MaxPool2,
    OnFirst,
    Recompute,
    ReLU,
    Sequential,
    UpConv2d,
    distinct_scalars,
    load_checkpoint,
    save_checkpoint,
)
from .momentum import REVERSIBLE, MomentumChain, build_chain, check_stage


def check_field_types(cfg, prefix=""):
    """Raise ConfigError for a field of the dataclass `cfg` whose value does
    not fit its annotation. A bool is not an int, an int is a float, and a
    float must be finite."""
    hints = get_type_hints(type(cfg))
    for f in fields(cfg):
        hint, value = hints[f.name], getattr(cfg, f.name)
        fits = isinstance(value, {int: Integral, float: Real}.get(hint, hint))
        if isinstance(value, bool) or not fits or (
                isinstance(value, float) and not math.isfinite(value)):
            want = "a finite float" if hint is float else f.type
            raise ConfigError(f"{prefix}{f.name}: must be {want}, got {value!r}")


@dataclass
class StageSpec:
    width: int
    blocks: int
    gamma: float = 0.9
    mode: str = "reversible"


@dataclass
class NetworkDescriptor:
    task: str  # "classification" | "segmentation"
    input_shape: tuple  # (C, H, W)
    stages: list
    num_classes: int = 2

    def __post_init__(self):
        self.input_shape = tuple(self.input_shape)
        self.stages = [s if isinstance(s, StageSpec) else StageSpec(**s) for s in self.stages]
        check_field_types(self)
        if self.task not in ("classification", "segmentation"):
            raise ConfigError(f"task: unknown value {self.task!r}")
        if len(self.input_shape) != 3 or not all(
                isinstance(v, Integral) and not isinstance(v, bool) and v >= 1
                for v in self.input_shape):
            raise ConfigError(f"input_shape: must be (C, H, W), integers >= 1, "
                              f"got {list(self.input_shape)!r}")
        if not self.stages:
            raise ConfigError("stages: at least one stage is required")
        for i, s in enumerate(self.stages):
            check_field_types(s, f"stages[{i}].")
            if s.width < 1:
                raise ConfigError(f"stages[{i}].width: must be >= 1, got {s.width!r}")
            check_stage(s.blocks, [s.gamma], s.mode, f"stages[{i}].")
        _, h, w = self.input_shape
        factor = 2 ** (len(self.stages) - 1)
        if h % factor or w % factor:
            raise ConfigError(
                f"spatial dims {h}x{w} not divisible by the {factor}x pooling factor"
            )
        if self.task == "classification" and self.num_classes < 2:
            raise ConfigError("num_classes: classification needs num_classes >= 2")


@dataclass
class MemoryLedger:
    """Activation-memory tally by part type, in scalars of distinct buffers.

    `chain_states` counts the chains' caches, their residual functions'
    included, `transitions` every other part's. A buffer that is both a
    chain state and a layer's cached input counts in both categories but
    once in `total`, so total <= chain_states + transitions. The
    transient peak is tracked apart from the total.
    """

    chain_states: int
    f_transient_peak: int
    transitions: int  # head included
    total: int


class UNetLevel(Sequential):
    """One U-Net level, `layers = [enc, down, inner, up, dec]`: enc -> down
    -> inner -> up, which takes the pair (inner output, skip), upsamples the
    first and fuses it with the skip (enc's output), then dec.
    `inner` is the next level or, at the bottom, the last encoder chain.
    The skip and its gradient fan-out live here and nowhere else, and the
    level stores no array: the parts that read the skip cache it."""

    def forward(self, x, train=True):
        enc, down, inner, up, dec = self.layers
        skip = enc.forward(x, train=train)
        y = inner.forward(down.forward(skip, train=train), train=train)
        return dec.forward(up.forward((y, skip), train=train), train=train)

    def backward(self, gy):
        """Hands each gradient on (see `layers.Layer`). The skip's gradient
        is summed into `down`'s result, a fresh array that no one else
        reads, so no part's incoming gradient is written (`momentum.py`'s
        rule: an incoming `gx` is only read)."""
        enc, down, inner, up, dec = self.layers
        box = [gy]
        del gy
        for part in (dec, up):
            box.append(part.backward(box.pop()))
        box[0], g_skip = box[0]  # up's pair: the inner path's and the skip's gradient
        for part in (inner, down):
            box.append(part.backward(box.pop()))
        box[0] += g_skip  # fan-out: down path + skip path
        del g_skip
        return enc.backward(box.pop())


def transition(layers, *stages):
    """The part made of `layers` between chains of `stages`: a `Recompute`
    when every one of those stages is reversible, since its input is then
    the batch or arrays the chains hold anyway; next to a stored chain a
    `Sequential` that keeps its own caches."""
    return (Recompute if all(s.mode == REVERSIBLE for s in stages) else Sequential)(layers)


def stem(descriptor, rng, dtype) -> Layer:
    """Either network's first part and first draw from `rng`: conv3x3 +
    ReLU from the input channels to the first stage's width."""
    s = descriptor.stages[0]
    return transition([Conv2d(descriptor.input_shape[0], s.width, 3, rng=rng, init="he",
                              dtype=dtype, name="stem.conv"), ReLU()], s)


def _expand(layers) -> list[Layer]:
    return [part for layer in layers
            for part in (_expand(layer.layers) if isinstance(layer, UNetLevel) else [layer])]


class Network:
    """Shared plumbing over `body`, the `Sequential` a subclass builds:
    forward and backward, parameters in the order the body registers them,
    checkpoints, cache audit."""

    def __init__(self, descriptor: NetworkDescriptor):
        self.descriptor = descriptor

    def parts(self) -> list[Layer]:
        """Every chain and every layer outside the chains, the head last:
        the body's layers, each `UNetLevel` expanded in place."""
        return _expand(self.body.layers)

    def params(self):
        return self.body.params()

    def zero_grad(self):
        for p in self.params():
            p.zero_grad()

    def save(self, path):
        save_checkpoint(path, self.params())

    def load(self, path):
        load_checkpoint(path, self.params())

    def memory_ledger(self) -> MemoryLedger:
        """Scalars held right now for a pending train-mode backward."""
        parts = self.parts()
        chains = [p for p in parts if isinstance(p, MomentumChain)]
        states = [a for c in chains for a in c.cached_arrays()]
        caches = [a for p in parts if not isinstance(p, MomentumChain)
                  for a in p.cached_arrays()]
        return MemoryLedger(
            chain_states=distinct_scalars(states),
            f_transient_peak=max((c.f_transient_peak for c in chains), default=0),
            transitions=distinct_scalars(caches),
            total=distinct_scalars(states + caches),
        )

    def predict(self, batch, train=False):
        if batch.ndim != 4 or batch.shape[1:] != self.descriptor.input_shape:
            raise ShapeError(
                f"batch shape {batch.shape} does not match B x {self.descriptor.input_shape}"
            )
        self.body.clear_cache()
        return self.body.forward(batch, train=train)

    def train_backward(self, loss_grad):
        return self.body.backward(loss_grad)


class ClassifierNet(Network):
    """stem -> enc0 -> down0 -> ... -> enc_{m-1} -> head, one `Sequential`."""

    # bench/spans.py patches these per class through vars(cls), which does
    # not see inherited methods, so each net binds them in its own namespace
    predict, train_backward = Network.predict, Network.train_backward

    def __init__(self, descriptor, rng, dtype=np.float64):
        super().__init__(descriptor)
        stages = descriptor.stages
        parts = [stem(descriptor, rng, dtype)]
        for i, s in enumerate(stages):
            parts.append(
                build_chain(s.width, s.blocks, s.gamma, s.mode, rng, dtype, f"enc{i}"))
            if i + 1 < len(stages):
                parts.append(transition(
                    [Conv2d(s.width, stages[i + 1].width, 3, rng=rng,
                            init="he", dtype=dtype, name=f"down{i}.conv"),
                     ReLU(), MaxPool2()], s, stages[i + 1]))
        parts.append(Sequential(
            [GlobalAvgPool(),
             Linear(stages[-1].width, descriptor.num_classes, rng=rng, dtype=dtype,
                    name="head.fc")]))
        self.body = Sequential(parts)


class SegmenterNet(Network):
    """stem -> level 0 -> head, one `Sequential`; level i nests level i+1."""

    predict, train_backward = Network.predict, Network.train_backward  # see ClassifierNet

    def __init__(self, descriptor, rng, dtype=np.float64):
        super().__init__(descriptor)
        stages = descriptor.stages

        def level(i):
            s = stages[i]
            enc = build_chain(s.width, s.blocks, s.gamma, s.mode, rng, dtype, f"enc{i}")
            if i + 1 == len(stages):
                return enc
            w_inner = stages[i + 1].width
            down = transition([MaxPool2(),
                               Conv2d(s.width, w_inner, 3, rng=rng, init="he",
                                      dtype=dtype, name=f"down{i}.conv"),
                               ReLU()], s, stages[i + 1])
            inner = level(i + 1)
            up = transition([OnFirst([UpConv2d(w_inner, s.width, 3, rng=rng, init="he",
                                               dtype=dtype, name=f"up{i}.conv"), ReLU()]),
                             FuseConv2d(2 * s.width, s.width, 3, rng=rng, init="he",
                                        dtype=dtype, name=f"fuse{i}.conv"),
                             ReLU()], s, stages[i + 1])
            dec = build_chain(s.width, s.blocks, s.gamma, s.mode, rng, dtype, f"dec{i}")
            return UNetLevel([enc, down, inner, up, dec])

        self.body = Sequential(
            [stem(descriptor, rng, dtype),
             level(0),
             Conv2d(stages[0].width, 1, 1, rng=rng, init="xavier", dtype=dtype,
                    name="head.conv")])


def build(descriptor: NetworkDescriptor, seed: int, dtype=np.float64) -> Network:
    rng = np.random.Generator(np.random.Philox(seed))
    if descriptor.task == "classification":
        return ClassifierNet(descriptor, rng, dtype=dtype)
    return SegmenterNet(descriptor, rng, dtype=dtype)
