"""Deterministic synthetic datasets and file ingestion.

Generators are pure functions of their arguments and a seed. All random
draws go through a counter-based Philox generator, whose streams numpy
guarantees stable across releases and platforms, so datasets and splits
are bit-reproducible everywhere.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor
from .errors import DataError


@dataclass
class Sample:
    image: np.ndarray  # C x H x W in [0,1]
    target: object  # mask ndarray (segmentation) or int class id
    id: str


@dataclass
class SplitManifest:
    train: list
    val: list
    test: list
    seed: int

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "train": self.train, "val": self.val, "test": self.test},
            indent=2,
        )


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _ellipse_coverage(yy, xx, cy, cx, ry, rx, angle):
    """Soft interior indicator in [0,1] with a ~1px anti-aliased rim."""
    ca, sa = np.cos(angle), np.sin(angle)
    dy, dx = yy - cy, xx - cx
    u = (ca * dx + sa * dy) / rx
    v = (-sa * dx + ca * dy) / ry
    r = np.sqrt(u * u + v * v)
    edge = 1.0 / min(ry, rx)  # ~one pixel in normalized units
    return np.clip((1.0 - r) / edge + 0.5, 0.0, 1.0)


def _rect_coverage(yy, xx, cy, cx, hy, hx):
    dy = hy - np.abs(yy - cy)
    dx = hx - np.abs(xx - cx)
    return np.clip(dy + 0.5, 0, 1) * np.clip(dx + 0.5, 0, 1)


def gen_shapes_seg(n: int, hw: int = 32, seed: int = 0) -> list[Sample]:
    """Bright ellipses/rectangles on a textured noise background.

    Each image holds 1-3 shapes; the mask is the union of their interiors
    (coverage >= 0.5), guaranteed nonempty and within bounds.
    """
    if hw < 16:
        raise DataError(f"hw must be >= 16, got {hw}")
    rng = _rng(seed)
    yy, xx = np.mgrid[0:hw, 0:hw].astype(np.float64)
    samples = []
    for i in range(n):
        # low-frequency gradient plus pixel noise
        gy, gx, g0 = rng.uniform(-0.1, 0.1, size=3)
        background = 0.2 + g0 * 0.5 + gy * (yy / hw) + gx * (xx / hw)
        background += rng.uniform(-0.08, 0.08, size=(hw, hw))
        coverage = np.zeros((hw, hw))
        for _ in range(int(rng.integers(1, 4))):
            kind = rng.integers(0, 2)
            ry = rng.uniform(0.10, 0.22) * hw
            rx = rng.uniform(0.10, 0.22) * hw
            cy = rng.uniform(ry + 1, hw - ry - 1)
            cx = rng.uniform(rx + 1, hw - rx - 1)
            if kind == 0:
                angle = rng.uniform(0, np.pi)
                cov = _ellipse_coverage(yy, xx, cy, cx, ry, rx, angle)
            else:
                cov = _rect_coverage(yy, xx, cy, cx, ry, rx)
            coverage = np.maximum(coverage, cov)
        intensity = rng.uniform(0.75, 0.95)
        image = np.clip(background * (1 - coverage) + intensity * coverage, 0.0, 1.0)
        mask = (coverage >= 0.5).astype(np.float64)
        samples.append(Sample(image[None].astype(np.float64), mask[None], f"seg{i:05d}"))
    return samples


def gen_blobs_cls(n: int, k_classes: int = 4, hw: int = 16, seed: int = 0) -> list[Sample]:
    """Class-coded textures: each class is an oriented grating of its own
    frequency plus a class-positioned bright blob, under additive noise.
    Labels are round-robin (balanced within one), order shuffled.
    """
    if k_classes < 2:
        raise DataError(f"k_classes must be >= 2, got {k_classes}")
    rng = _rng(seed)
    yy, xx = np.mgrid[0:hw, 0:hw].astype(np.float64)
    labels = np.array([i % k_classes for i in range(n)])
    rng.shuffle(labels)
    samples = []
    for i in range(n):
        c = int(labels[i])
        angle = np.pi * c / k_classes
        freq = (2.0 + c) * 2 * np.pi / hw
        phase = rng.uniform(0, 2 * np.pi)
        grating = 0.5 + 0.35 * np.sin(freq * (np.cos(angle) * xx + np.sin(angle) * yy) + phase)
        # class-specific blob location on a circle around the center
        bcy = hw / 2 + 0.25 * hw * np.sin(2 * np.pi * c / k_classes)
        bcx = hw / 2 + 0.25 * hw * np.cos(2 * np.pi * c / k_classes)
        blob = 0.4 * np.exp(-(((yy - bcy) ** 2 + (xx - bcx) ** 2) / (2 * (hw * 0.12) ** 2)))
        image = np.clip(grating + blob + rng.uniform(-0.1, 0.1, size=(hw, hw)), 0.0, 1.0)
        samples.append(Sample(image[None].astype(np.float64), c, f"cls{i:05d}"))
    return samples


def split(ids: list, seed: int) -> SplitManifest:
    """Seeded shuffle then an 80/10/10 contiguous cut."""
    n = len(ids)
    if n < 10:
        raise DataError(f"need at least 10 ids to split, got {n}")
    order = list(ids)
    _rng(seed).shuffle(order)
    n_train = int(0.8 * n)
    n_val = int(0.1 * n)
    return SplitManifest(
        train=order[:n_train],
        val=order[n_train : n_train + n_val],
        test=order[n_train + n_val :],
        seed=seed,
    )


def save_dataset(samples: list[Sample], path) -> None:
    """Write MRT1 image (and mask) files; classification adds labels.csv."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    labels = []
    for s in samples:
        tensor.save_mrt1(path / f"{s.id}.image.mrt1", s.image)
        if isinstance(s.target, np.ndarray):
            tensor.save_mrt1(path / f"{s.id}.mask.mrt1", s.target)
        else:
            labels.append((s.id, int(s.target)))
    if labels:
        with open(path / "labels.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "label"])
            w.writerows(labels)


def load_sample_dir(path) -> list[Sample]:
    path = Path(path)
    image_files = sorted(path.glob("*.image.mrt1"))
    if not image_files:
        raise DataError(f"no *.image.mrt1 files in {path}")
    labels = {}
    labels_file = path / "labels.csv"
    if labels_file.exists():
        with open(labels_file, newline="") as fh:
            rows = csv.DictReader(fh)
            for row in rows:
                try:
                    labels[row["id"]] = int(row["label"])
                except (KeyError, TypeError, ValueError):
                    where = f"{labels_file}, line {rows.line_num}"
                    raise DataError(f"{where}: needs an id and an integer label") from None
    samples = []
    for f in image_files:
        sid = f.name[: -len(".image.mrt1")]
        image = tensor.load_mrt1(f)
        if not np.all(np.isfinite(image)):
            raise DataError(f"image for {sid!r} has non-finite pixels")
        if samples and image.shape != samples[0].image.shape:
            raise DataError(f"image for {sid!r} has shape {image.shape}, "
                            f"expected {samples[0].image.shape}")
        mask_file = path / f"{sid}.mask.mrt1"
        if mask_file.exists():
            mask = tensor.load_mrt1(mask_file)
            if not np.all((mask == 0) | (mask == 1)):
                raise DataError(f"mask for {sid!r} is not binary")
            if mask.shape[-2:] != image.shape[-2:]:
                raise DataError(f"mask/image spatial mismatch for {sid!r}")
            samples.append(Sample(image, mask, sid))
        elif sid in labels:
            samples.append(Sample(image, labels[sid], sid))
        else:
            raise DataError(f"sample {sid!r} has neither a mask file nor a label")
    return samples
