import math

import numpy as np
import pytest

from momrev import metrics
from momrev.errors import DataError
from momrev.verify import oracle_boundary, oracle_hausdorff
from util import rng

def random_mask(r, hw=8):
    return (r.uniform(size=(hw, hw)) < r.uniform(0.05, 0.7)).astype(np.uint8)


# binarize


def test_binarize_tie_goes_foreground():
    assert metrics.binarize(np.array([0.0]))[0] == 1


def test_binarize_negative():
    assert metrics.binarize(np.array([-3.0]))[0] == 0


def test_binarize_zero_threshold_all_ones():
    assert metrics.binarize(rng(1).normal(size=(4, 4)), threshold=0.0).all()


# ratio metrics


def test_perfect_match():
    m = np.array([[1, 1], [0, 1]], dtype=np.uint8)
    assert metrics.dice_iou_prf(m, m) == (1.0, 1.0, 1.0, 1.0, 1.0)


def test_half_overlap_counts():
    pred = np.array([1, 1, 0, 0], dtype=np.uint8).reshape(2, 2)
    gt = np.array([1, 0, 1, 0], dtype=np.uint8).reshape(2, 2)
    dsc, iou, rec, prec, f2 = metrics.dice_iou_prf(pred, gt)
    assert (dsc, rec, prec, f2) == (0.5, 0.5, 0.5, 0.5)
    assert iou == pytest.approx(1 / 3)


def test_empty_conventions():
    empty = np.zeros((3, 3), dtype=np.uint8)
    full = np.ones((3, 3), dtype=np.uint8)
    assert metrics.dice_iou_prf(empty, empty) == (1.0,) * 5
    assert metrics.dice_iou_prf(empty, full) == (0.0,) * 5
    assert metrics.dice_iou_prf(full, empty) == (0.0,) * 5


def test_dsc_iou_identity_and_duality():
    for seed in range(50):
        r = rng(seed)
        pred, gt = random_mask(r), random_mask(r)
        dsc, iou, rec, prec, _ = metrics.dice_iou_prf(pred, gt)
        assert abs(dsc - 2 * iou / (1 + iou)) <= 1e-12
        assert iou <= dsc + 1e-15
        sw = metrics.dice_iou_prf(gt, pred)
        assert sw[0] == dsc and sw[1] == iou
        assert sw[2] == prec and sw[3] == rec  # recall/precision duality


def test_ratio_metrics_permutation_invariant():
    for seed in range(30):
        r = rng(seed)
        pred, gt = random_mask(r), random_mask(r)
        perm = r.permutation(pred.size)
        pp = pred.ravel()[perm].reshape(pred.shape)
        gp = gt.ravel()[perm].reshape(gt.shape)
        assert metrics.dice_iou_prf(pp, gp) == metrics.dice_iou_prf(pred, gt)


# Hausdorff


def test_hausdorff_identical_masks():
    m = random_mask(rng(5))
    assert metrics.hausdorff(m, m) == 0.0


def test_hausdorff_3_4_5():
    a = np.zeros((6, 6), dtype=np.uint8)
    b = np.zeros((6, 6), dtype=np.uint8)
    a[0, 0] = 1
    b[3, 4] = 1
    assert metrics.hausdorff(a, b) == pytest.approx(5.0)


def test_hausdorff_empty_conventions():
    empty = np.zeros((4, 4), dtype=np.uint8)
    full = np.ones((4, 4), dtype=np.uint8)
    assert metrics.hausdorff(empty, empty) == 0.0
    assert math.isinf(metrics.hausdorff(empty, full))


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (2, 2), (3, 3), (8, 8), (7, 12)])
def test_boundary_pixels_match_the_bruteforce_oracle(shape):
    r = rng(sum(shape))
    masks = [np.ones(shape, np.uint8), np.zeros(shape, np.uint8)]
    masks += [r.uniform(size=shape) < r.uniform(0.1, 0.9) for _ in range(20)]
    for mask in masks:
        got = metrics.boundary_pixels(mask)
        assert got.shape == (len(oracle_boundary(mask)), 2)
        assert [tuple(p) for p in got.tolist()] == oracle_boundary(mask)


@pytest.mark.parametrize("seed", range(3))
def test_hausdorff_matches_bruteforce(seed):
    r = rng(1000 + seed)
    pred, gt = random_mask(r), random_mask(r)
    for variant in ("max", "hd95"):
        got = metrics.hausdorff(pred, gt, variant)
        want = oracle_hausdorff(pred, gt, variant)
        if math.isinf(want):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(want, abs=1e-12)


def test_hausdorff_symmetry_and_hd95_bound():
    for seed in range(40):
        r = rng(seed)
        pred, gt = random_mask(r), random_mask(r)
        hmax = metrics.hausdorff(pred, gt, "max")
        assert hmax == metrics.hausdorff(gt, pred, "max")
        h95 = metrics.hausdorff(pred, gt, "hd95")
        if math.isfinite(hmax):
            assert h95 <= hmax + 1e-12


# accuracy / MCC


def test_diagonal_confusion_perfect():
    acc, mcc = metrics.accuracy_mcc(np.diag([3, 5, 2]))
    assert acc == 1.0 and mcc == pytest.approx(1.0)


def test_symmetric_binary_confusion_zero_mcc():
    acc, mcc = metrics.accuracy_mcc(np.array([[1, 1], [1, 1]]))
    assert acc == 0.5 and mcc == 0.0


def test_empty_confusion_raises():
    with pytest.raises(DataError):
        metrics.accuracy_mcc(np.zeros((3, 3)))


def test_mcc_invariant_under_class_relabeling():
    for seed in range(30):
        r = rng(seed)
        conf = r.integers(0, 15, size=(4, 4))
        if conf.sum() == 0:
            conf[1, 2] = 3
        perm = r.permutation(4)
        _, mcc1 = metrics.accuracy_mcc(conf)
        _, mcc2 = metrics.accuracy_mcc(conf[np.ix_(perm, perm)])
        assert mcc1 == pytest.approx(mcc2, abs=1e-12)


def test_confusion_multiclass_counts():
    m = metrics.confusion_multiclass(np.array([0, 1, 1, 2]), np.array([0, 1, 2, 2]), 3)
    assert m.sum() == 4 and m[1, 2] == 1 and np.trace(m) == 3


# reports


def test_report_column_order_matches_tables():
    assert metrics.SEG_COLUMNS == ["mDSC", "mIoU", "Rec.", "Prec.", "F2", "HD"]
    report = metrics.evaluate_masks([np.ones((2, 2), dtype=np.uint8)],
                                    [np.ones((2, 2), dtype=np.uint8)])
    csv_text = metrics.render_csv(["name"] + metrics.SEG_COLUMNS, [["mean"] + report.means])
    assert csv_text.splitlines()[0] == "name,mDSC,mIoU,Rec.,Prec.,F2,HD"


def test_ground_truth_as_prediction_is_perfect():
    gts = [random_mask(rng(7)), random_mask(rng(8))]
    report = metrics.evaluate_masks(gts, gts)
    means = report.means
    assert means[:5] == [1.0] * 5
    assert means[5] == 0.0
