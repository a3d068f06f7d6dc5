import math

import numpy as np
import pytest

from momrev import loss
from momrev.errors import DataError, ShapeError
from util import rng


def test_bce_at_zero_logit():
    z = np.zeros((1, 4))
    t = np.ones((1, 4))
    lv = loss.bce_with_logits(z, t)
    assert lv.total == pytest.approx(math.log(2), rel=1e-12)
    assert lv.grad == pytest.approx(np.full((1, 4), -0.5 / 4))


def test_bce_large_logit_no_overflow():
    lv = loss.bce_with_logits(np.array([[50.0]]), np.array([[1.0]]))
    assert 0.0 <= lv.total < 1e-20
    assert np.isfinite(lv.grad).all()


def test_bce_rejects_soft_targets():
    with pytest.raises(DataError):
        loss.bce_with_logits(np.zeros((1, 2)), np.array([[0.5, 1.0]]))


def test_dice_perfect_prediction_limit():
    t = np.array([[1.0, 1.0, 0.0, 0.0]])
    z = np.where(t == 1, 200.0, -200.0)
    assert loss.soft_dice_loss(z, t).total == pytest.approx(0.0, abs=1e-12)


def test_dice_empty_mask_rescued_by_smooth():
    t = np.zeros((1, 6))
    z = np.full((1, 6), -200.0)
    assert loss.soft_dice_loss(z, t).total == pytest.approx(0.0, abs=1e-12)


def test_dice_pixel_permutation_invariance():
    r = rng(3)
    z = r.normal(size=(1, 16))
    t = (r.uniform(size=(1, 16)) < 0.5).astype(float)
    perm = r.permutation(16)
    assert loss.soft_dice_loss(z, t).total == pytest.approx(
        loss.soft_dice_loss(z[:, perm], t[:, perm]).total, rel=1e-14
    )


def test_hybrid_components_sum_and_grad_linearity():
    r = rng(4)
    z = r.normal(size=(2, 1, 4, 4))
    t = (r.uniform(size=z.shape) < 0.4).astype(float)
    h = loss.hybrid_loss(z, t)
    b = loss.bce_with_logits(z, t)
    d = loss.soft_dice_loss(z, t)
    assert h.total == pytest.approx(b.total + d.total, abs=1e-12)
    assert np.allclose(h.grad, b.grad + d.grad, atol=1e-15)


def test_hybrid_perfect_prediction():
    t = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    z = np.where(t == 1, 300.0, -300.0)
    assert loss.hybrid_loss(z, t).total == pytest.approx(0.0, abs=1e-10)


def test_cross_entropy_uniform_logits():
    lv = loss.cross_entropy(np.zeros((2, 4)), np.array([0, 3]))
    assert lv.total == pytest.approx(math.log(4), rel=1e-12)


def test_cross_entropy_confident_correct():
    z = np.array([[1000.0, 0.0, 0.0]])
    assert loss.cross_entropy(z, np.array([0])).total == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(DataError):
        loss.cross_entropy(np.zeros((1, 3)), np.array([3]))


def test_shape_mismatch():
    with pytest.raises(ShapeError):
        loss.bce_with_logits(np.zeros((1, 3)), np.zeros((1, 4)))


def test_losses_nonnegative():
    for seed in range(25):
        r = rng(seed)
        z = r.normal(size=(2, 8)) * 3
        t = (r.uniform(size=z.shape) < 0.5).astype(float)
        assert loss.bce_with_logits(z, t).total >= 0.0
        assert loss.soft_dice_loss(z, t).total >= 0.0
        assert loss.hybrid_loss(z, t).total >= 0.0
        labels = r.integers(0, 8, size=2)
        assert loss.cross_entropy(z, labels).total >= 0.0
