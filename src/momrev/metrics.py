"""Evaluation metrics: Dice/IoU/recall/precision/F2 and Hausdorff distance
for binary masks, accuracy and Matthews correlation for classification.

Degenerate-mask conventions (both masks empty -> perfect; exactly one
empty -> zero for the ratio metrics, undefined for Hausdorff) are applied
per image so that means over an image set are always defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError
from .layers import sigmoid

SEG_COLUMNS = ["mDSC", "mIoU", "Rec.", "Prec.", "F2", "HD"]
CLS_COLUMNS = ["Accuracy", "MCC"]
HD_VARIANTS = ("max", "hd95")


def binarize(logits: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Threshold sigmoid probabilities; ties go to foreground."""
    return (sigmoid(logits) >= threshold).astype(np.uint8)


def confusion_binary(pred: np.ndarray, gt: np.ndarray):
    if pred.shape != gt.shape:
        raise ShapeError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    p = pred.astype(bool)
    g = gt.astype(bool)
    tp = int(np.count_nonzero(p & g))
    fp = int(np.count_nonzero(p & ~g))
    fn = int(np.count_nonzero(~p & g))
    tn = int(np.count_nonzero(~p & ~g))
    return tp, fp, tn, fn


def dice_iou_prf(pred: np.ndarray, gt: np.ndarray):
    """Returns (dsc, iou, recall, precision, f2) with empty-mask conventions."""
    tp, fp, tn, fn = confusion_binary(pred, gt)
    if tp + fp + fn == 0:  # both empty
        return 1.0, 1.0, 1.0, 1.0, 1.0
    dsc = 2 * tp / (2 * tp + fp + fn)
    iou = tp / (tp + fp + fn)
    recall = tp / (tp + fn) if tp + fn else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    f2 = 5 * precision * recall / (4 * precision + recall) if 4 * precision + recall else 0.0
    return dsc, iou, recall, precision, f2


def boundary_pixels(mask: np.ndarray) -> np.ndarray:
    """Foreground pixels with a 4-neighbor background pixel or on the edge.

    Returns an N x 2 array of (row, col) coordinates.
    """
    m = mask.astype(bool)
    interior = np.zeros_like(m)  # no edge pixel is interior
    interior[1:-1, 1:-1] = m[:-2, 1:-1] & m[2:, 1:-1] & m[1:-1, :-2] & m[1:-1, 2:]
    return np.argwhere(m & ~interior)


def hausdorff(pred: np.ndarray, gt: np.ndarray, variant: str = "max") -> float:
    """Boundary-to-boundary Hausdorff distance in Euclidean pixels.

    variant "max" is the classical sup of directed distances; "hd95" is
    the 95th percentile (linear interpolation) of the pooled directed
    distances. Both masks empty -> 0; exactly one empty -> +inf.
    """
    if variant not in HD_VARIANTS:
        raise DataError(f"unknown Hausdorff variant {variant!r}")
    if pred.shape != gt.shape:
        raise ShapeError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    a = boundary_pixels(pred)
    b = boundary_pixels(gt)
    if len(a) == 0 and len(b) == 0:
        return 0.0
    if len(a) == 0 or len(b) == 0:
        return math.inf
    # exact integer squared distances; sqrt is monotone and correctly
    # rounded, so taking it after the min gives the float64 distances
    d2 = (a[:, None, 0] - b[None, :, 0]) ** 2 + (a[:, None, 1] - b[None, :, 1]) ** 2
    directed = np.sqrt(np.concatenate([d2.min(axis=1), d2.min(axis=0)]).astype(np.float64))
    if variant == "max":
        return float(directed.max())
    return float(np.percentile(directed, 95, method="linear"))


def confusion_multiclass(labels: np.ndarray, preds: np.ndarray, k: int) -> np.ndarray:
    """K x K count matrix, rows = true class, cols = predicted class."""
    labels = np.asarray(labels)
    preds = np.asarray(preds)
    if labels.shape != preds.shape:
        raise ShapeError("labels and predictions differ in length")
    m = np.zeros((k, k), dtype=np.int64)
    np.add.at(m, (labels, preds), 1)
    return m


def accuracy_mcc(confusion: np.ndarray):
    """Accuracy and multiclass Matthews correlation from a K x K matrix."""
    c = np.asarray(confusion, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] < 2:
        raise DataError(f"confusion matrix must be KxK with K >= 2, got {c.shape}")
    total = c.sum()
    if total == 0:
        raise DataError("empty confusion matrix")
    trace = np.trace(c)
    accuracy = float(trace / total)
    t_k = c.sum(axis=1)  # true-class counts
    p_k = c.sum(axis=0)  # predicted-class counts
    num = trace * total - float(t_k @ p_k)
    den = math.sqrt(total**2 - float(p_k @ p_k)) * math.sqrt(total**2 - float(t_k @ t_k))
    mcc = 0.0 if den == 0 else float(num / den)
    return accuracy, mcc


@dataclass
class SegmentationReport:
    per_image: list  # rows of (dsc, iou, recall, precision, f2, hd)

    @property
    def means(self):
        arr = np.asarray(self.per_image, dtype=np.float64)
        finite_hd = arr[np.isfinite(arr[:, 5]), 5]
        means = arr[:, :5].mean(axis=0).tolist()
        means.append(float(finite_hd.mean()) if len(finite_hd) else math.inf)
        return means


def evaluate_masks(preds: list, gts: list, hd_variant: str = "max") -> SegmentationReport:
    rows = []
    for p, g in zip(preds, gts):
        dsc, iou, rec, prec, f2 = dice_iou_prf(p, g)
        hd = hausdorff(p, g, variant=hd_variant)
        rows.append((dsc, iou, rec, prec, f2, hd))
    return SegmentationReport(rows)


def _fmt(v):
    """Counts and labels print as they are; measurements to 4 decimals."""
    if isinstance(v, (str, int)):
        return str(v)
    return "inf" if not np.isfinite(v) else f"{v:.4f}"


def render_csv(columns, rows) -> str:
    """`rows` are sequences of values in `columns` order."""
    lines = [",".join(columns)] + [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def render_markdown(columns, rows) -> str:
    lines = ["| " + " | ".join(columns) + " |", "|" + "---|" * len(columns)]
    lines += ["| " + " | ".join(_fmt(v) for v in row) + " |" for row in rows]
    return "\n".join(lines) + "\n"
