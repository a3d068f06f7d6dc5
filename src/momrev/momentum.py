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
A chain is a `Layer` from x_0 to x_n, and the states it holds for
backward are its layer cache. The mode belongs to the chain, not to its
blocks, and decides only what the forward holds: a stored chain holds the
input activation of every block, a reversible chain only its final state
(x_n, v_n), so it refuses any gamma = 0 block when it is built. The
forward runs every f in eval mode. Backward is one loop from the top
block down, with one rule: a block runs f on its held input, or inverts
the state above (RevNet's backward, Gomez et al. 2017). Either way it
evaluates f once, in train mode, and that f(x) fills the caches f.backward
reads, so the two modes differ only in what they hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NotInvertibleError, NumericError
from .layers import Layer, Sequential, build_residual_function


@dataclass
class MomentumState:
    x: np.ndarray
    v: np.ndarray | None  # None where an inverse rebuilt x alone

    def __post_init__(self):
        if self.v is not None and self.x.shape != self.v.shape:
            raise ConfigError(f"state shapes differ: {self.x.shape} vs {self.v.shape}")


STORED = "stored"
REVERSIBLE = "reversible"


class MomentumBlock:
    def __init__(self, gamma: float, f: Sequential):
        if not 0.0 <= gamma <= 1.0:
            raise ConfigError(f"gamma must lie in [0,1], got {gamma}")
        self.gamma = gamma
        self.f = f

    def forward(self, state: MomentumState) -> MomentumState:
        fx = self.f.forward(state.x, train=False)
        v_next = self.gamma * state.v + (1.0 - self.gamma) * fx
        x_next = state.x + v_next
        if not np.all(np.isfinite(x_next)):  # x + v' is non-finite wherever v' is
            raise NumericError("momentum forward produced non-finite state")
        return MomentumState(x_next, v_next)

    def inverse(self, state_next: MomentumState, train=False, velocity=True) -> MomentumState:
        """The block input; in train mode f keeps the caches of f(x) for
        `backward_step`, and the result is the same either way. With
        `velocity=False` v is not rebuilt and comes back as None."""
        if self.gamma == 0.0:
            raise NotInvertibleError("gamma == 0 block has no inverse")
        x = state_next.x - state_next.v
        fx = self.f.forward(x, train=train)
        v = (state_next.v - (1.0 - self.gamma) * fx) / self.gamma if velocity else None
        if not (np.all(np.isfinite(x)) and (v is None or np.all(np.isfinite(v)))):
            raise NumericError("momentum inverse produced non-finite state")
        return MomentumState(x, v)

    def backward_step(self, gx_next: np.ndarray, gv_next: np.ndarray):
        """Grads through one block whose f has just run in train mode on the
        block input (`f.forward(x, train=True)` or `inverse(s, train=True)`).

        Returns (gx, gv). Runs no f of its own, only routes: u = gx' + gv'
        flows into v'; the f path carries (1-gamma)*u through f.backward and
        the velocity path carries gamma*u.
        """
        u = gx_next + gv_next
        gx_f = self.f.backward((1.0 - self.gamma) * u)
        gx = gx_next + gx_f
        gv = self.gamma * u
        return gx, gv

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
        if mode not in (STORED, REVERSIBLE):
            raise ConfigError(f"unknown mode {mode!r}")
        if mode == REVERSIBLE and any(b.gamma == 0.0 for b in blocks):
            raise NotInvertibleError("reversible mode requires gamma > 0")
        self.blocks = list(blocks)
        self.mode = mode
        self.f_transient_peak = 0

    def params(self):
        return [p for b in self.blocks for p in b.params()]

    def forward(self, x0: np.ndarray, train: bool = True) -> np.ndarray:
        hold = train and self.mode == STORED
        state = MomentumState(x0, np.zeros_like(x0))
        inputs = []
        for block in self.blocks:
            inputs.append(state.x if hold else None)
            state = block.forward(state)
        if train:
            top = (None, None) if hold else (state.x, state.v)
            self._cache = (*inputs, *top)
        return state.x

    def backward(self, gx: np.ndarray) -> np.ndarray:
        """Returns the gradient w.r.t. x0; accumulates parameter grads."""
        *inputs, x, v = self._take_cache()
        state = None if x is None else MomentumState(x, v)
        del x, v  # held in `state` alone, so the top block's inverse frees it
        gv = np.zeros_like(gx)
        peak = 0
        for block in reversed(self.blocks):
            held = inputs.pop()
            if held is not None:
                block.f.forward(held, train=True)
            else:  # v_i is rebuilt only where the block below inverts from it
                below_inverts = bool(inputs) and inputs[-1] is None
                state = block.inverse(state, train=True, velocity=below_inverts)
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
