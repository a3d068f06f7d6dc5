"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see
them on a green run). The training checks share one segmentation run
via a module fixture; budgets were calibrated so the whole module
stays well under its wall-clock limits on 4 CPU cores.
"""

import time

import numpy as np
import pytest

from momrev import memprofile, metrics, train
from momrev.layers import build_residual_function
from momrev.loss import bce_with_logits, cross_entropy, hybrid_loss, soft_dice_loss
from momrev.momentum import REVERSIBLE, STORED, MomentumBlock, MomentumState, build_chain
from momrev.verify import (
    collect_grads,
    fd_grad,
    oracle_hausdorff,
    oracle_mcc,
    oracle_ratio_metrics,
    rel_err,
)
from util import rng


def report(name, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}", flush=True)
    assert passed, f"{name}: {detail}"


def conv_block(gamma, r):
    f = build_residual_function(2, r, np.float64)
    return MomentumBlock(gamma, f)


def conv_chain(depth, gamma, mode, seed):
    return build_chain(2, depth, gamma, mode, rng(seed), name="acc")


def test_inversion_round_trip():
    start = time.perf_counter()
    r = rng(11)
    worst_block = 0.0
    for gamma in (0.1, 0.5, 0.9, 1.0):
        for _ in range(100):
            block = conv_block(gamma, r)
            s = MomentumState(r.normal(size=(1, 2, 4, 4)), r.normal(size=(1, 2, 4, 4)))
            back = block.inverse(block.forward(s))
            worst_block = max(worst_block,
                              np.abs(back.x - s.x).max(), np.abs(back.v - s.v).max())
    worst_chain = 0.0
    for case in range(20):
        blocks = [conv_block(0.9, r) for _ in range(10)]
        s = MomentumState(r.normal(size=(1, 2, 4, 4)), r.normal(size=(1, 2, 4, 4)))
        state = s
        for b in blocks:
            state = b.forward(state)
        for b in reversed(blocks):
            state = b.inverse(state)
        worst_chain = max(worst_chain,
                          np.abs(state.x - s.x).max(), np.abs(state.v - s.v).max())
    elapsed = time.perf_counter() - start
    report(
        "inversion-round-trip",
        worst_block <= 1e-10 and worst_chain <= 1e-8 and elapsed < 30,
        f"block err {worst_block:.2e} (tol 1e-10), depth-10 err {worst_chain:.2e} "
        f"(tol 1e-8), {elapsed:.1f}s (< 30s)",
    )


def test_plain_residual_endpoint_bit_exact():
    r = rng(13)
    exact = True
    for _ in range(100):
        f = build_residual_function(2, r, np.float64)
        block = MomentumBlock(0.0, f)
        x, v = r.normal(size=(1, 2, 4, 4)), r.normal(size=(1, 2, 4, 4))
        out = block.forward(MomentumState(x, v))
        exact &= np.array_equal(out.x, x + f.forward(x, train=False))
    report("plain-residual-endpoint", exact,
           "x' == x + f(x) bit-exactly at gamma=0 over 100 cases")


def test_gradient_mode_agreement_and_fd():
    start = time.perf_counter()
    worst_mode, worst_fd = 0.0, 0.0
    for seed in range(20):
        stored = conv_chain(10, 0.9, STORED, 500 + seed)
        rev = conv_chain(10, 0.9, REVERSIBLE, 500 + seed)
        r = rng(900 + seed)
        x0, w = r.normal(size=(1, 2, 4, 4)), r.normal(size=(1, 2, 4, 4))
        gx_s, pg_s = collect_grads(stored, x0, w)
        gx_r, pg_r = collect_grads(rev, x0, w)
        worst_mode = max(worst_mode, rel_err(gx_s, gx_r), rel_err(pg_s, pg_r))

        def loss():
            out = stored.forward(x0.copy(), train=False)
            return float((out.x * w).sum())

        worst_fd = max(worst_fd, rel_err(gx_s, fd_grad(loss, x0)))
        fd_params = np.concatenate(
            [fd_grad(loss, p.value).ravel() for p in stored.params()]
        )
        worst_fd = max(worst_fd, rel_err(pg_s, fd_params))
    elapsed = time.perf_counter() - start
    report(
        "gradient-modes",
        worst_mode <= 1e-8 and worst_fd <= 1e-6 and elapsed < 120,
        f"stored-vs-reversible rel err {worst_mode:.2e} (tol 1e-8), "
        f"fd rel err {worst_fd:.2e} (tol 1e-6), {elapsed:.1f}s (< 2min)",
    )


def test_memory_ledger_scaling():
    # the shipped segmenter as it trains: float32, batch 16; chains enc0 and
    # dec0 hold states of S0 = 16*8*32*32 scalars, enc1 of S1 = 16*16*16*16
    cfg = train.segmentation_defaults()
    desc = cfg.descriptor()
    batch = np.zeros((cfg.batch_size, *desc.input_shape), dtype=cfg.np_dtype())
    s0, s1 = 16 * 8 * 32 * 32, 16 * 16 * 16 * 16
    depths = [1, 2, 4, 8, 16]
    want = {(n, "stored"): n * (2 * s0 + s1) for n in depths}
    want.update({(n, "reversible"): 2 * (2 * s0 + s1) for n in depths})
    rows = [dict(zip(memprofile.LEDGER_COLUMNS, row))
            for row in memprofile.compare_modes(desc, batch, depths)]
    got = {(row["depth"], row["mode"]): row["chain_states"] for row in rows}
    report("memory-ledger", got == want,
           "segmentation preset: reversible retention constant at 655,360, "
           "stored exactly n*(2*S0 + S1) = n*327,680 over depths 1..16")


def test_metric_oracles_thousand_cases():
    start = time.perf_counter()
    r = rng(19)
    ok = True
    worst_identity, worst_mcc = 0.0, 0.0
    for _ in range(1000):
        pred = (r.uniform(size=(8, 8)) < r.uniform(0.05, 0.7)).astype(np.uint8)
        gt = (r.uniform(size=(8, 8)) < r.uniform(0.05, 0.7)).astype(np.uint8)
        got = metrics.dice_iou_prf(pred, gt)
        ok &= got == oracle_ratio_metrics(pred, gt)
        for variant in ("max", "hd95"):
            g = metrics.hausdorff(pred, gt, variant)
            w = oracle_hausdorff(pred, gt, variant)
            ok &= (g == w) or (np.isinf(g) and np.isinf(w)) or abs(g - w) <= 1e-12
        dsc, iou = got[0], got[1]
        worst_identity = max(worst_identity, abs(dsc - 2 * iou / (1 + iou)))
    for _ in range(1000):
        conf = r.integers(0, 20, size=(4, 4))
        if conf.sum() == 0:
            conf[0, 0] = 1
        _, mcc = metrics.accuracy_mcc(conf)
        worst_mcc = max(worst_mcc, abs(mcc - oracle_mcc(conf)))
    elapsed = time.perf_counter() - start
    report(
        "metric-oracles",
        ok and worst_identity <= 1e-12 and worst_mcc <= 1e-12 and elapsed < 60,
        f"1000 mask pairs exact, dsc-iou identity dev {worst_identity:.1e}, "
        f"mcc dev {worst_mcc:.1e} (tol 1e-12), {elapsed:.1f}s (< 60s)",
    )


def test_loss_gradients_fd():
    r = rng(23)
    worst = 0.0
    for _ in range(100):
        z = r.normal(size=(2, 1, 3, 3)) * 2
        t = (r.uniform(size=z.shape) < 0.4).astype(np.float64)
        for fn in (bce_with_logits, soft_dice_loss, hybrid_loss):
            lv = fn(z, t)
            worst = max(worst, rel_err(lv.grad, fd_grad(lambda: fn(z, t).total, z)))
        zl = r.normal(size=(3, 4)) * 2
        labels = r.integers(0, 4, size=3)
        lv = cross_entropy(zl, labels)
        worst = max(worst,
                    rel_err(lv.grad, fd_grad(lambda: cross_entropy(zl, labels).total, zl)))
    report("loss-gradients", worst <= 1e-6,
           f"fd rel err {worst:.2e} over 100 instances per loss (tol 1e-6)")


# -------------------- training checks (shared segmentation run) --------


def seg_config(out_dir, gamma=0.9, mode="reversible"):
    cfg = train.segmentation_defaults(epochs=30, out_dir=str(out_dir))
    for stage in cfg.network["stages"]:
        stage["gamma"] = gamma
        stage["mode"] = mode
    return cfg


def seg_report_csv(result):
    row = [result["test"][c] for c in metrics.SEG_COLUMNS]
    return metrics.render_csv(["name"] + metrics.SEG_COLUMNS, [["test"] + row])


@pytest.fixture(scope="module")
def seg_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("seg_momentum")
    start = time.perf_counter()
    result = train.train(seg_config(out))
    return result, time.perf_counter() - start


def test_segmentation_training(seg_run, tmp_path):
    result, elapsed = seg_run
    control = train.train(seg_config(tmp_path / "control", gamma=0.0, mode="stored"))
    rows = [
        ["momentum g=0.9"] + [result["test"][c] for c in metrics.SEG_COLUMNS],
        ["control g=0.0"] + [control["test"][c] for c in metrics.SEG_COLUMNS],
    ]
    print(metrics.render_markdown(["name"] + metrics.SEG_COLUMNS, rows), flush=True)
    mdsc = result["test"]["mDSC"]
    report("segmentation-training",
           mdsc >= 0.90 and elapsed < 600,
           f"test mDSC {mdsc:.4f} (>= 0.90) in {elapsed:.0f}s (< 600s); "
           f"control mDSC {control['test']['mDSC']:.4f} reported above")


def test_classification_training(tmp_path):
    cfg = train.classification_defaults(lr=1e-3, epochs=10,
                                        out_dir=str(tmp_path / "cls"))
    start = time.perf_counter()
    result = train.train(cfg)
    elapsed = time.perf_counter() - start
    acc, mcc = result["test"]["Accuracy"], result["test"]["MCC"]
    report("classification-training",
           acc >= 0.90 and mcc >= 0.80 and elapsed < 600,
           f"accuracy {acc:.4f} (>= 0.90), MCC {mcc:.4f} (>= 0.80), "
           f"{elapsed:.0f}s (< 600s)")


def test_reproducibility_bit_identical(seg_run, tmp_path):
    first, _ = seg_run
    second = train.train(seg_config(tmp_path / "repeat"))
    same = seg_report_csv(first) == seg_report_csv(second)
    log_a = (first["out_dir"] / "train_log.csv").read_text()
    log_b = (second["out_dir"] / "train_log.csv").read_text()
    report("reproducibility", same and log_a == log_b,
           "identical config and seed give bit-identical metric reports and logs")
