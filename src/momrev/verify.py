"""Structural verification suites: inversion round-trips, the gamma=0
residual endpoint, stored-vs-reversible gradient agreement, finite
difference checks on losses and on every parameter of a chain, and
metric oracles.

Each suite returns a VerifyResult. They are the one implementation of
these checks: `run_all`, what the CLI's verify subcommand executes, runs
them, and the acceptance tests run the same suites, the gradient, loss
and metric suites at larger counts. Each suite fixes its own seed and
tolerance. Chains, layers and losses run in float64 here, and every
block uses the conv residual body the networks build.
The oracles are deliberately naive (explicit loops, set arithmetic,
central differences) and share no code with the implementations they
check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import loss as loss_mod
from . import metrics as metrics_mod
from .layers import build_residual_function
from .momentum import REVERSIBLE, STORED, MomentumBlock, build_chain, check_stage


@dataclass
class VerifyResult:
    name: str
    passed: bool
    detail: str


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def collect_grads(chain, x0, loss_weights):
    """Scalar loss <w, x_N>: returns (input grad, flat parameter grads)."""
    for p in chain.params():
        p.zero_grad()
    chain.clear_cache()
    chain.forward(x0.copy(), train=True)
    gx = chain.backward(loss_weights.copy())
    pg = np.concatenate([p.grad.ravel() for p in chain.params()])
    return gx, pg


def chain_loss(chain, x0, loss_weights):
    return float((chain.forward(x0.copy(), train=False) * loss_weights).sum())


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return float(np.abs(np.asarray(a) - np.asarray(b)).max() / denom)


def fd_grad(fn, x, h=1e-5):
    """Central finite differences of the scalar `fn()` with respect to the
    array x, which fn must read; x is perturbed in place and restored."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn()
        flat[i] = orig - h
        fm = fn()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


# ---------------------------------------------------------------- suites


def suite_inversion_roundtrip() -> VerifyResult:
    """inverse(forward(s)) == s for 100 random conv blocks at each gamma."""
    rng, tol = _rng(11), 1e-10
    worst = 0.0
    for gamma in (0.1, 0.5, 0.9, 1.0, 0.05):
        for _ in range(100):
            block = MomentumBlock(gamma, build_residual_function(2, rng, np.float64))
            x, v = rng.normal(size=(1, 2, 4, 4)), rng.normal(size=(1, 2, 4, 4))
            bx, bv = block.inverse(*block.forward(x, v))
            err = max(np.abs(bx - x).max(), np.abs(bv - v).max())
            worst = max(worst, err)
    return VerifyResult("inversion_roundtrip", worst <= tol,
                        f"max |inverse(forward(s)) - s| = {worst:.3e} (tol {tol:g})")


def suite_chain_roundtrip(depth=10, gamma=0.9) -> VerifyResult:
    rng, tol = _rng(12), 1e-8
    worst = 0.0
    for _ in range(20):
        chain = build_chain(2, depth, gamma, REVERSIBLE, rng, name="verify")
        x0, v0 = rng.normal(size=(1, 2, 4, 4)), rng.normal(size=(1, 2, 4, 4))
        x, v = x0, v0
        for b in chain.blocks:
            x, v = b.forward(x, v)
        for b in reversed(chain.blocks):
            x, v = b.inverse(x, v)
        err = max(np.abs(x - x0).max(), np.abs(v - v0).max())
        worst = max(worst, err)
    return VerifyResult("chain_roundtrip", worst <= tol,
                        f"depth-{depth} round-trip error = {worst:.3e} (tol {tol:g})")


def suite_resnet_endpoint() -> VerifyResult:
    rng, cases = _rng(13), 100
    ok = True
    for _ in range(cases):
        f = build_residual_function(2, rng, np.float64)
        block = MomentumBlock(0.0, f)
        x = rng.normal(size=(1, 2, 4, 4))
        v = rng.normal(size=(1, 2, 4, 4))
        x_next, _ = block.forward(x, v)
        expected = x + f.forward(x, train=False)
        ok &= np.array_equal(x_next, expected)
    return VerifyResult("resnet_endpoint_gamma0", ok,
                        f"x' == x + f(x) bit-exactly over {cases} cases" if ok
                        else "bitwise mismatch at gamma=0")


def suite_gradient_modes(depth=10, gamma=0.9, seeds=20, fd_cases=3) -> VerifyResult:
    """Stored vs reversible gradients of conv chains; for the first
    `fd_cases` seeds, finite differences of the input and of every
    parameter."""
    tol, fd_tol = 1e-8, 1e-6
    worst_mode = 0.0
    worst_fd = 0.0
    for s in range(seeds):
        stored = build_chain(2, depth, gamma, STORED, _rng(500 + s), name="verify")
        rev = build_chain(2, depth, gamma, REVERSIBLE, _rng(500 + s), name="verify")
        r = _rng(900 + s)
        x0 = r.normal(size=(1, 2, 4, 4))
        w = r.normal(size=(1, 2, 4, 4))
        gx_s, pg_s = collect_grads(stored, x0, w)
        gx_r, pg_r = collect_grads(rev, x0, w)
        worst_mode = max(worst_mode, rel_err(gx_s, gx_r), rel_err(pg_s, pg_r))
        if s < fd_cases:
            loss = partial(chain_loss, stored, x0, w)
            worst_fd = max(worst_fd, rel_err(gx_s, fd_grad(loss, x0)))
            fd_params = np.concatenate([fd_grad(loss, p.value).ravel()
                                        for p in stored.params()])
            worst_fd = max(worst_fd, rel_err(pg_s, fd_params))
    passed = worst_mode <= tol and worst_fd <= fd_tol
    return VerifyResult(
        "gradient_modes", passed,
        f"stored-vs-reversible rel err = {worst_mode:.3e} (tol {tol:g}) over {seeds} seeds; "
        f"fd rel err = {worst_fd:.3e} (tol {fd_tol:g}) over x0 and all {pg_s.size} "
        f"parameters of {min(fd_cases, seeds)} seeds",
    )


def suite_loss_gradients(cases=25) -> VerifyResult:
    rng, tol = _rng(23), 1e-6
    worst = 0.0
    for _ in range(cases):
        z = rng.normal(size=(2, 1, 3, 3)) * 2
        t = (rng.uniform(size=z.shape) < 0.4).astype(np.float64)
        for fn in (
            loss_mod.bce_with_logits,
            loss_mod.soft_dice_loss,
            loss_mod.hybrid_loss,
        ):
            lv = fn(z, t)
            fd = fd_grad(lambda: fn(z, t).total, z)
            worst = max(worst, rel_err(lv.grad, fd))
        zl = rng.normal(size=(3, 4)) * 2
        labels = rng.integers(0, 4, size=3)
        lv = loss_mod.cross_entropy(zl, labels)
        fd = fd_grad(lambda: loss_mod.cross_entropy(zl, labels).total, zl)
        worst = max(worst, rel_err(lv.grad, fd))
    return VerifyResult("loss_gradients", worst <= tol,
                        f"max fd rel err = {worst:.3e} over {cases} instances per loss "
                        f"(tol {tol:g})")


# -------- brute-force metric oracles (independent of metrics.py internals)


def oracle_ratio_metrics(pred, gt):
    a = {tuple(c) for c in np.argwhere(np.asarray(pred, dtype=bool))}
    b = {tuple(c) for c in np.argwhere(np.asarray(gt, dtype=bool))}
    if not a and not b:
        return 1.0, 1.0, 1.0, 1.0, 1.0
    tp = len(a & b)
    fp = len(a - b)
    fn = len(b - a)
    dsc = 2 * tp / (2 * tp + fp + fn)
    iou = tp / (tp + fp + fn)
    rec = tp / (tp + fn) if (tp + fn) else 0.0
    prec = tp / (tp + fp) if (tp + fp) else 0.0
    f2 = 5 * prec * rec / (4 * prec + rec) if (4 * prec + rec) else 0.0
    return dsc, iou, rec, prec, f2


def oracle_boundary(mask):
    m = np.asarray(mask, dtype=bool)
    h, w = m.shape
    pts = []
    for i in range(h):
        for j in range(w):
            if not m[i, j]:
                continue
            edge = i == 0 or j == 0 or i == h - 1 or j == w - 1
            if edge or not (m[i - 1, j] and m[i + 1, j] and m[i, j - 1] and m[i, j + 1]):
                pts.append((i, j))
    return pts


def oracle_hausdorff(pred, gt, variant="max"):
    a = oracle_boundary(pred)
    b = oracle_boundary(gt)
    if not a and not b:
        return 0.0
    if not a or not b:
        return math.inf
    directed = []
    for p in a:
        directed.append(min(math.dist(p, q) for q in b))
    for q in b:
        directed.append(min(math.dist(q, p) for p in a))
    if variant == "max":
        return max(directed)
    return float(np.percentile(directed, 95, method="linear"))


def oracle_mcc(confusion):
    """Covariance form over expanded one-hot label/prediction samples."""
    c = np.asarray(confusion, dtype=np.int64)
    k = c.shape[0]
    t_rows, p_rows = [], []
    for i in range(k):
        for j in range(k):
            for _ in range(int(c[i, j])):
                t = np.zeros(k)
                p = np.zeros(k)
                t[i] = 1.0
                p[j] = 1.0
                t_rows.append(t)
                p_rows.append(p)
    t = np.array(t_rows)
    p = np.array(p_rows)
    tc = t - t.mean(axis=0)
    pc = p - p.mean(axis=0)
    cov_tp = (tc * pc).sum()
    cov_tt = (tc * tc).sum()
    cov_pp = (pc * pc).sum()
    den = math.sqrt(cov_tt) * math.sqrt(cov_pp)
    return 0.0 if den == 0 else cov_tp / den


def suite_metric_oracles(cases=200) -> VerifyResult:
    """`cases` random 8x8 mask pairs against the oracles (ratio metrics
    exact, Hausdorff within 1e-12, the DSC-IoU identity within 1e-12), then
    `cases` random 4x4 confusion matrices against the MCC oracle."""
    rng = _rng(19)
    worst_identity = 0.0
    for _ in range(cases):
        pred = (rng.uniform(size=(8, 8)) < rng.uniform(0.05, 0.7)).astype(np.uint8)
        gt = (rng.uniform(size=(8, 8)) < rng.uniform(0.05, 0.7)).astype(np.uint8)
        got = metrics_mod.dice_iou_prf(pred, gt)
        if got != oracle_ratio_metrics(pred, gt):
            return VerifyResult("metric_oracles", False, "ratio metric mismatch")
        for variant in ("max", "hd95"):
            g = metrics_mod.hausdorff(pred, gt, variant)
            w = oracle_hausdorff(pred, gt, variant)
            same = (g == w) or (math.isinf(g) and math.isinf(w)) or abs(g - w) < 1e-12
            if not same:
                return VerifyResult("metric_oracles", False,
                                    f"hausdorff {variant} mismatch: {g} vs {w}")
        dsc, iou = got[0], got[1]
        worst_identity = max(worst_identity, abs(dsc - 2 * iou / (1 + iou)))
    worst_mcc = 0.0
    for _ in range(cases):
        conf = rng.integers(0, 20, size=(4, 4))
        if conf.sum() == 0:
            conf[0, 0] = 1
        _, mcc = metrics_mod.accuracy_mcc(conf)
        worst_mcc = max(worst_mcc, abs(mcc - oracle_mcc(conf)))
    return VerifyResult("metric_oracles", worst_identity <= 1e-12 and worst_mcc <= 1e-12,
                        f"{cases} mask pairs exact; dsc-iou identity dev = "
                        f"{worst_identity:.2e}, max MCC dev = {worst_mcc:.2e} (tol 1e-12)")


def run_all(depth=10, gamma=0.9) -> list[VerifyResult]:
    # refused before any suite runs; the chains below are stored ones, and
    # reversible ones too where gamma > 0 lets them invert
    check_stage(depth, [gamma], STORED, "verify chain ")
    results = [suite_inversion_roundtrip(), suite_resnet_endpoint()]
    if gamma > 0.0:
        # inversion-based sweeps need gamma > 0; the plain residual
        # endpoint above still covers gamma = 0
        results.insert(1, suite_chain_roundtrip(depth=depth, gamma=gamma))
        results.append(suite_gradient_modes(depth=depth, gamma=gamma,
                                            seeds=5, fd_cases=2))
    results.append(suite_loss_gradients())
    results.append(suite_metric_oracles())
    return results
