"""Training objectives with analytic gradients w.r.t. logits.

Segmentation uses the hybrid objective (binary cross-entropy plus soft
Dice, weighted 1:1 by default); classification uses softmax cross-entropy.
All reductions are means over the batch so gradients are batch-size
independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError
from .layers import sigmoid


@dataclass
class LossValue:
    total: float
    grad: np.ndarray


def _check_binary_targets(logits, targets):
    if logits.shape != targets.shape:
        raise ShapeError(f"logits {logits.shape} vs targets {targets.shape}")
    if not np.all((targets == 0) | (targets == 1)):
        raise DataError("targets must be 0/1")


def bce_with_logits(logits: np.ndarray, targets: np.ndarray) -> LossValue:
    """Mean binary cross-entropy, computed in the overflow-safe form."""
    _check_binary_targets(logits, targets)
    z, t = logits, targets
    per_elt = np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z)))
    n = z.size
    total = float(per_elt.sum() / n)
    grad = (sigmoid(z) - t) / n
    return LossValue(total, grad.astype(z.dtype))


def soft_dice_loss(logits: np.ndarray, targets: np.ndarray, smooth: float = 1.0) -> LossValue:
    """1 - soft Dice on sigmoid probabilities, per sample, batch-averaged.

    The leading axis is the batch; each sample's remaining axes are pooled.
    """
    _check_binary_targets(logits, targets)
    z, t = logits, targets
    b = z.shape[0]
    p = sigmoid(z)
    axes = tuple(range(1, z.ndim))
    inter = (p * t).sum(axis=axes)
    denom = p.sum(axis=axes) + t.sum(axis=axes)
    dice = (2.0 * inter + smooth) / (denom + smooth)
    total = float(np.mean(1.0 - dice))
    # d(1-dice)/dp = -(2 t (denom+s) - (2 inter + s)) / (denom+s)^2, then chain
    # through sigmoid and the batch mean.
    shape = (b,) + (1,) * (z.ndim - 1)
    num = 2.0 * inter + smooth
    den = denom + smooth
    ddice_dp = (2.0 * t * den.reshape(shape) - num.reshape(shape)) / (den ** 2).reshape(shape)
    grad = (-ddice_dp) * p * (1.0 - p) / b
    return LossValue(total, grad.astype(z.dtype))


def hybrid_loss(logits: np.ndarray, targets: np.ndarray, bce_weight: float = 1.0,
                dice_weight: float = 1.0, smooth: float = 1.0) -> LossValue:
    bce = bce_with_logits(logits, targets)
    dice = soft_dice_loss(logits, targets, smooth=smooth)
    total = bce_weight * bce.total + dice_weight * dice.total
    grad = bce_weight * bce.grad + dice_weight * dice.grad
    return LossValue(total, grad)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> LossValue:
    """Mean softmax cross-entropy over a B x K logit matrix."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects B x K logits, got {logits.shape}")
    b, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (b,):
        raise ShapeError(f"labels shape {labels.shape}, expected ({b},)")
    if np.any(labels < 0) or np.any(labels >= k):
        raise DataError(f"labels must lie in [0,{k})")
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    total = float(np.mean(lse - z[np.arange(b), labels]))
    softmax = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    grad = softmax.copy()
    grad[np.arange(b), labels] -= 1.0
    grad /= b
    return LossValue(total, grad.astype(logits.dtype))
