"""Momentum residual blocks: forward recurrence, exact inverse, and the
stored vs reversible backward sweeps.

One block updates an (activation, velocity) pair:

    v' = gamma * v + (1 - gamma) * f(x)
    x' = x + v'

At gamma = 0 this is a plain residual block (x' = x + f(x), bit-exactly,
since 0 * v == 0 and 1 * f == f for finite values). For gamma > 0 the map
is invertible:

    x = x' - v'
    v = (v' - (1 - gamma) * f(x)) / gamma

which is what lets a chain run backward without caching per-block states.
A block takes and returns its state as a plain (x, v) pair of arrays. A
chain is a `Layer` from x_0 to x_n, and the states it holds for backward
are its layer cache. The mode belongs to the chain, not to its blocks, and
decides only what the forward holds: a stored chain holds the input
activation of every block, a reversible chain only its final state
(x_n, v_n). `check_stage` is the one statement of the stage rules; a
chain, a network descriptor and `verify` call it before they build
anything. The forward runs every f in eval mode. Backward is one loop
from the top block down, with one rule: a block runs f on its held input,
or inverts the state above (RevNet's backward, Gomez et al. 2017). Either
way it evaluates f once, in train mode, and that f(x) fills the caches
f.backward reads, so the two modes differ only in what they hold.

A block writes only into buffers that are dead at that point: the result
f.forward or f.backward has just returned (f keeps no reference to it),
and in `backward_step` the velocity gradient `gv_next`, which the chain
made and hands over. It never writes into its input state, an incoming
`gx_next` or a state the chain holds: a chain's x_0 and x_n belong to its
caller too. So every value is the same IEEE operation as the out-of-place
formula, with its operands in the same or the commuted order, and the
results are bit-identical to it.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError
from .layers import Layer, Sequential, build_residual_function

STORED = "stored"
REVERSIBLE = "reversible"


def check_stage(blocks: int, gammas, mode: str, prefix: str = ""):
    """Raise ConfigError unless a stage of `blocks` blocks at `gammas` can
    run in `mode`: at least one block, every gamma in [0, 1] (NaN and inf
    fail), mode stored or reversible, and gamma > 0 for every block of a
    reversible stage, since a block inverts only there. The message names
    the field after `prefix`."""
    if blocks < 1:
        raise ConfigError(f"{prefix}blocks: must be >= 1, got {blocks!r}")
    for gamma in gammas:
        if not 0.0 <= gamma <= 1.0:
            raise ConfigError(f"{prefix}gamma: must be in [0, 1], got {gamma!r}")
    if mode not in (STORED, REVERSIBLE):
        raise ConfigError(f"{prefix}mode: must be {STORED!r} or {REVERSIBLE!r}, got {mode!r}")
    if mode == REVERSIBLE and 0.0 in gammas:
        raise ConfigError(f"{prefix}mode: {REVERSIBLE!r} needs gamma > 0, got gamma 0")


class MomentumBlock:
    def __init__(self, gamma: float, f: Sequential):
        self.gamma = gamma
        self.f = f

    def forward(self, x: np.ndarray, v: np.ndarray):
        """The block output (x', v')."""
        v_next = self.f.forward(x, train=False)
        v_next *= 1.0 - self.gamma
        v_next += self.gamma * v
        x_next = x + v_next
        if not np.all(np.isfinite(x_next)):  # x + v' is non-finite wherever v' is
            raise NumericError("momentum forward produced non-finite state")
        return x_next, v_next

    def inverse(self, x_next: np.ndarray, v_next: np.ndarray, train=False, velocity=True):
        """The block input (x, v); in train mode f keeps the caches of f(x)
        for `backward_step`, and the result is the same either way. With
        `velocity=False` v is not rebuilt and comes back as None."""
        x = x_next - v_next
        fx = self.f.forward(x, train=train)
        v = None
        if velocity:
            fx *= 1.0 - self.gamma
            v = np.subtract(v_next, fx, out=fx)
            v /= self.gamma
        if not (np.all(np.isfinite(x)) and (v is None or np.all(np.isfinite(v)))):
            raise NumericError("momentum inverse produced non-finite state")
        return x, v

    def backward_step(self, gx_next: np.ndarray, gv_next: np.ndarray):
        """Grads through one block whose f has just run in train mode on the
        block input (`f.forward(x, train=True)` or `inverse(s, train=True)`).

        Returns (gx, gv). Runs no f of its own, only routes: u = gx' + gv'
        flows into v'; the f path carries (1-gamma)*u through f.backward and
        the velocity path carries gamma*u. It takes over `gv_next`: u is
        formed in its buffer and scaled into gv there, and gx is summed in
        f.backward's result, so one state array fewer is live while
        f.backward runs. `gx_next` is only read.
        """
        u = gv_next
        u += gx_next
        gx = self.f.backward((1.0 - self.gamma) * u)
        gx += gx_next
        u *= self.gamma
        return gx, u

    def params(self):
        return self.f.params()


class MomentumChain(Layer):
    """A stack of momentum blocks over one shared state shape, started
    from zero velocity; as a layer it maps x_0 to x_n.

    State i is the input of block i and state n the chain output. The
    forward runs every f in eval mode; in train mode it caches one slot
    per block input, the array if the chain holds it or None, then the
    top state: stored mode holds x_0..x_{n-1} and (None, None), S*n
    scalars for state size S; reversible mode holds no input and
    (x_n, v_n), 2*S scalars. Backward takes the cache over and walks the
    blocks down: a block runs f on its held input, or inverts the state
    above, in train mode either way; an inverse rebuilds v only where the
    block below inverts too, so block 0 never rebuilds v_0. Every held
    state is freed once the block that reads it is done.
    `f_transient_peak` is the largest cache one f held during the last
    backward.
    """

    def __init__(self, blocks: list[MomentumBlock], mode: str = STORED):
        check_stage(len(blocks), [b.gamma for b in blocks], mode)
        self.blocks = list(blocks)
        self.mode = mode
        self.f_transient_peak = 0

    def params(self):
        return [p for b in self.blocks for p in b.params()]

    def forward(self, x0: np.ndarray, train: bool = True) -> np.ndarray:
        hold = train and self.mode == STORED
        x, v = x0, np.zeros_like(x0)
        inputs = []
        for block in self.blocks:
            inputs.append(x if hold else None)
            x, v = block.forward(x, v)
        if train:
            top = (None, None) if hold else (x, v)
            self._cache = (*inputs, *top)
        return x

    def backward(self, gx: np.ndarray) -> np.ndarray:
        """Returns the gradient w.r.t. x0; accumulates parameter grads."""
        *inputs, x, v = self._take_cache()
        gv = np.zeros_like(gx)
        peak = 0
        for block in reversed(self.blocks):
            held = inputs.pop()
            if held is not None:
                block.f.forward(held, train=True)
            else:  # v_i is rebuilt only where the block below inverts from it
                below_inverts = bool(inputs) and inputs[-1] is None
                x, v = block.inverse(x, v, train=True, velocity=below_inverts)
            peak = max(peak, block.f.cache_size())
            gx, gv = block.backward_step(gx, gv)
        self.f_transient_peak = peak
        return gx

    def clear_cache(self):
        super().clear_cache()
        for block in self.blocks:
            block.f.clear_cache()


def build_chain(channels: int, depth: int, gamma: float, mode: str, rng,
                dtype=np.float64, name="chain") -> MomentumChain:
    """`depth` blocks at one gamma, each with a fresh residual function
    `build_residual_function(channels)` drawn from `rng` in block order and
    named `{name}.b{j}`."""
    blocks = [
        MomentumBlock(gamma, build_residual_function(channels, rng, dtype, f"{name}.b{j}"))
        for j in range(depth)
    ]
    return MomentumChain(blocks, mode)
