import numpy as np
import pytest

from momrev import data, loss, optim
from momrev.errors import DataError
from momrev.layers import Linear
from momrev.tensor import save_mrt1


def dataset_bytes(samples):
    return b"".join(s.image.tobytes() for s in samples)


def test_shapes_deterministic_per_seed():
    a = data.gen_shapes_seg(20, hw=32, seed=5)
    b = data.gen_shapes_seg(20, hw=32, seed=5)
    assert dataset_bytes(a) == dataset_bytes(b)
    assert all(x.id == y.id for x, y in zip(a, b))
    c = data.gen_shapes_seg(20, hw=32, seed=6)
    assert dataset_bytes(a) != dataset_bytes(c)


def test_shapes_masks_nonempty_and_binary():
    for s in data.gen_shapes_seg(50, hw=32, seed=1):
        assert s.target.sum() > 0
        assert set(np.unique(s.target)) <= {0.0, 1.0}
        assert s.target.shape == s.image.shape
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0


def test_shapes_mean_foreground_fraction_pinned():
    samples = data.gen_shapes_seg(1000, hw=32, seed=7)
    frac = np.mean([s.target.mean() for s in samples])
    assert 0.05 <= frac <= 0.45


def test_blobs_balanced_within_one():
    samples = data.gen_blobs_cls(101, k_classes=4, hw=16, seed=3)
    counts = np.bincount([s.target for s in samples], minlength=4)
    assert counts.max() - counts.min() <= 1


def test_blobs_deterministic():
    a = data.gen_blobs_cls(30, k_classes=3, hw=16, seed=9)
    b = data.gen_blobs_cls(30, k_classes=3, hw=16, seed=9)
    assert dataset_bytes(a) == dataset_bytes(b)
    assert [s.target for s in a] == [s.target for s in b]


def test_blobs_linearly_learnable():
    # pinned at build time: raw-pixel linear classifier reaches >= 60% val acc
    samples = data.gen_blobs_cls(400, k_classes=4, hw=16, seed=7)
    manifest = data.split([s.id for s in samples], seed=7)
    by_id = {s.id: s for s in samples}
    x_train = np.stack([by_id[i].image.ravel() for i in manifest.train])
    y_train = np.array([by_id[i].target for i in manifest.train])
    x_val = np.stack([by_id[i].image.ravel() for i in manifest.val])
    y_val = np.array([by_id[i].target for i in manifest.val])
    rng = np.random.Generator(np.random.Philox(0))
    lin = Linear(x_train.shape[1], 4, rng=rng)
    opt = optim.Adam(lin.params(), lr=1e-2)
    for _ in range(150):
        opt.zero_grad()
        lv = loss.cross_entropy(lin.forward(x_train), y_train)
        lin.backward(lv.grad)
        opt.step()
    acc = float((lin.forward(x_val, train=False).argmax(axis=1) == y_val).mean())
    assert acc >= 0.60


def test_split_exact_sizes():
    m = data.split([f"s{i}" for i in range(10)], seed=1)
    assert (len(m.train), len(m.val), len(m.test)) == (8, 1, 1)
    m = data.split([f"s{i}" for i in range(100)], seed=1)
    assert (len(m.train), len(m.val), len(m.test)) == (80, 10, 10)


def test_split_too_small():
    with pytest.raises(DataError):
        data.split(list("abcdefghi"), seed=0)


def test_split_partitions():
    for seed in range(30):
        n = 10 + 10 * seed
        ids = [f"id{i}" for i in range(n)]
        m = data.split(ids, seed)
        parts = [set(m.train), set(m.val), set(m.test)]
        assert sum(len(p) for p in parts) == n
        assert parts[0] | parts[1] | parts[2] == set(ids)
        assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])
        assert len(m.train) == int(0.8 * n) and len(m.val) == int(0.1 * n)


def test_split_stable_across_runs():
    ids = [f"id{i}" for i in range(57)]
    assert data.split(ids, 42).train == data.split(ids, 42).train


def test_save_load_roundtrip_segmentation(tmp_path):
    samples = data.gen_shapes_seg(5, hw=16, seed=2)
    data.save_dataset(samples, tmp_path)
    loaded = data.load_sample_dir(tmp_path)
    assert len(loaded) == 5
    for a, b in zip(samples, sorted(loaded, key=lambda s: s.id)):
        assert a.id == b.id
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.target, b.target)


def test_save_load_roundtrip_classification(tmp_path):
    samples = data.gen_blobs_cls(6, k_classes=3, hw=16, seed=2)
    data.save_dataset(samples, tmp_path)
    loaded = data.load_sample_dir(tmp_path)
    assert [s.target for s in sorted(loaded, key=lambda s: s.id)] == [
        s.target for s in samples
    ]


def test_missing_mask_names_sample(tmp_path):
    samples = data.gen_shapes_seg(2, hw=16, seed=2)
    data.save_dataset(samples, tmp_path)
    (tmp_path / f"{samples[1].id}.mask.mrt1").unlink()
    with pytest.raises(DataError, match=samples[1].id):
        data.load_sample_dir(tmp_path)


def test_non_binary_mask_rejected(tmp_path):
    samples = data.gen_shapes_seg(1, hw=16, seed=2)
    data.save_dataset(samples, tmp_path)
    bad = samples[0].target.copy()
    bad.ravel()[0] = 0.5
    save_mrt1(tmp_path / f"{samples[0].id}.mask.mrt1", bad)
    with pytest.raises(DataError):
        data.load_sample_dir(tmp_path)


def test_non_finite_image_rejected(tmp_path):
    samples = data.gen_blobs_cls(2, hw=8, seed=3)
    data.save_dataset(samples, tmp_path)
    save_mrt1(tmp_path / f"{samples[1].id}.image.mrt1", np.full((1, 8, 8), np.nan))
    with pytest.raises(DataError, match=samples[1].id):
        data.load_sample_dir(tmp_path)


def test_mixed_image_shapes_rejected(tmp_path):
    samples = data.gen_blobs_cls(2, hw=8, seed=3)
    data.save_dataset(samples, tmp_path)
    save_mrt1(tmp_path / f"{samples[1].id}.image.mrt1", np.zeros((1, 4, 4)))
    with pytest.raises(DataError, match=samples[1].id):
        data.load_sample_dir(tmp_path)
