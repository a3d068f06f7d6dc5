"""Shared test helper: seeded RNGs."""

import numpy as np


def rng(seed):
    return np.random.Generator(np.random.Philox(seed))
