"""Adam with decoupled weight decay, plus the early-stopping controller."""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError
from .layers import Param


class Adam:
    """Adam update with weight decay applied directly to the parameters:

        theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + wd * theta)
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: list[Param], lr=1e-3, weight_decay=0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self):
        for p in self.params:
            if not np.all(np.isfinite(p.grad)):
                raise NumericError(f"non-finite gradient for {p.name!r}; step refused")
        self.t += 1
        bc1 = 1.0 - self.BETA1**self.t
        bc2 = 1.0 - self.BETA2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            update = m_hat / (np.sqrt(v_hat) + self.EPS)
            if self.weight_decay:
                update = update + self.weight_decay * p.value
            p.value -= self.lr * update

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


class EarlyStopper:
    """Stops after `patience` consecutive epochs without a strict decrease
    of the metric."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = math.inf
        self.since_best = 0

    def update(self, metric: float) -> bool:
        """Returns True when training should stop."""
        if not math.isfinite(metric):
            raise NumericError("early-stop metric is non-finite")
        if metric < self.best:
            self.best = metric
            self.since_best = 0
            return False
        self.since_best += 1
        return self.since_best >= max(self.patience, 1)

    @property
    def is_best(self) -> bool:
        return self.since_best == 0
