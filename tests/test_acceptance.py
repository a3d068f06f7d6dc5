"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line per check (run with `pytest -s`
to see them on a green run). The property checks call the suites of
`momrev.verify`, the same code `momrev verify` runs, some at larger
counts, and under wall-clock budgets. The training checks share one segmentation run
via a module fixture; budgets were calibrated so the whole module stays
well under its wall-clock limits on 4 CPU cores.
"""

import time

import numpy as np
import pytest

from momrev import memprofile, metrics, train
from momrev.verify import (
    VerifyResult,
    suite_chain_roundtrip,
    suite_gradient_modes,
    suite_inversion_roundtrip,
    suite_loss_gradients,
    suite_metric_oracles,
    suite_resnet_endpoint,
)


def report(result, start=None, budget=None):
    """Print a VerifyResult as one PASS/FAIL line and assert it passed; with
    a budget in seconds, the time since `start` must also stay under it."""
    passed, detail = result.passed, result.detail
    if budget is not None:
        elapsed = time.perf_counter() - start
        passed = passed and elapsed < budget
        detail += f", {elapsed:.1f}s (< {budget}s)"
    print(f"{'PASS' if passed else 'FAIL'} {result.name}: {detail}", flush=True)
    assert passed, f"{result.name}: {detail}"


def test_inversion_round_trip():
    start = time.perf_counter()
    report(suite_inversion_roundtrip())
    report(suite_chain_roundtrip(depth=10, gamma=0.9), start, 30)


def test_plain_residual_endpoint_bit_exact():
    report(suite_resnet_endpoint())


def test_gradient_mode_agreement_and_fd():
    start = time.perf_counter()
    report(suite_gradient_modes(depth=10, gamma=0.9, seeds=20, fd_cases=20), start, 120)


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
    # beside its states a reversible network holds only the batch
    want.update({(n, "reversible total"): 2 * (2 * s0 + s1) + batch.size for n in depths})
    rows = [dict(zip(memprofile.LEDGER_COLUMNS, row))
            for row in memprofile.compare_modes(desc, batch, depths)]
    got = {(row["depth"], row["mode"]): row["chain_states"] for row in rows}
    got.update({(row["depth"], "reversible total"): row["total"]
                for row in rows if row["mode"] == "reversible"})
    report(VerifyResult("memory-ledger", got == want,
                        "segmentation preset: reversible retention constant at 655,360, "
                        "total 671,744 with the batch; stored exactly n*(2*S0 + S1) = "
                        "n*327,680 over depths 1..16"))


def test_metric_oracles_thousand_cases():
    start = time.perf_counter()
    report(suite_metric_oracles(cases=1000), start, 60)


def test_loss_gradients_fd():
    report(suite_loss_gradients(cases=100))


# -------------------- training checks (shared segmentation run) --------


def seg_config(out_dir):
    """The segmentation preset (γ=0.9, reversible) for 30 epochs."""
    return train.segmentation_defaults(epochs=30, out_dir=str(out_dir))


def seg_report_csv(result):
    row = [result["test"][c] for c in metrics.SEG_COLUMNS]
    return metrics.render_csv(["name"] + metrics.SEG_COLUMNS, [["test"] + row])


@pytest.fixture(scope="module")
def seg_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("seg_momentum")
    start = time.perf_counter()
    result = train.train(seg_config(out))
    return result, time.perf_counter() - start


def test_segmentation_training(seg_run):
    result, elapsed = seg_run
    row = ["momentum g=0.9"] + [result["test"][c] for c in metrics.SEG_COLUMNS]
    print(metrics.render_markdown(["name"] + metrics.SEG_COLUMNS, [row]), flush=True)
    mdsc = result["test"]["mDSC"]
    report(VerifyResult("segmentation-training",
                        mdsc >= 0.90 and elapsed < 600,
                        f"test mDSC {mdsc:.4f} (>= 0.90) in {elapsed:.0f}s (< 600s)"))


def test_classification_training(tmp_path):
    cfg = train.classification_defaults(lr=1e-3, epochs=10,
                                        out_dir=str(tmp_path / "cls"))
    start = time.perf_counter()
    result = train.train(cfg)
    elapsed = time.perf_counter() - start
    acc, mcc = result["test"]["Accuracy"], result["test"]["MCC"]
    report(VerifyResult("classification-training",
                        acc >= 0.90 and mcc >= 0.80 and elapsed < 600,
                        f"accuracy {acc:.4f} (>= 0.90), MCC {mcc:.4f} (>= 0.80), "
                        f"{elapsed:.0f}s (< 600s)"))


def test_reproducibility_bit_identical(seg_run, tmp_path):
    first, _ = seg_run
    second = train.train(seg_config(tmp_path / "repeat"))
    same = seg_report_csv(first) == seg_report_csv(second)
    log_a = (first["out_dir"] / "train_log.csv").read_text()
    log_b = (second["out_dir"] / "train_log.csv").read_text()
    report(VerifyResult("reproducibility", same and log_a == log_b,
                        "identical config and seed give bit-identical metric reports "
                        "and logs"))
