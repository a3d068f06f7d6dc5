"""momrev benchmark: train-step and eval throughput, memory, and a traced
per-layer run, on three workloads.

    python3 bench/run.py --workload seg-rev --seed 1 --seconds 35 --trace 0

Run from the repository root; the package is imported from ./src. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. A full record (environment, metrics,
sample counts and, for traced runs, every span) is written to
bench/out/<workload>-seed<seed>-trace<trace>.json. See bench/README.md.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from spans import NULL_TRACER, Tracer, conv_cost

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
BLAS_THREADS = 1  # at most nproc; one thread keeps a shared 2-CPU box steadier
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Steps trained before val_loss is taken; fixed so val_loss does not depend
# on speed. The timed loop always runs at least this many steps.
FIXED_STEPS = 16
WARMUP_STEPS = 2  # trained but left out of the step-time statistics
MIN_EVAL_PASSES = 3
EVAL_SHARE = 0.3  # of the measured time spent in evaluate_split
GRAD_BATCHES = 4
# Speed metrics are scaled to a host on which the probe kernel's median time
# is this many ms (about its time on the 2-vCPU Xeon VM the benchmark was
# defined on), so they read close to wall time on a quiet host of that kind.
PROBE_NOMINAL_MS = 4.0

# Each workload differs from a shipped preset only in the stage fields shown.
WORKLOADS = {
    "seg-rev": ("segmentation", {}),
    "seg-stored": ("segmentation", {"mode": "stored"}),
    "cls-deep-rev": ("classification", {"blocks": 8, "gamma": 0.5}),
}

class BenchError(Exception):
    """The benchmark cannot run here (bad arguments or no package to import)."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def import_momrev():
    """Import the package from ./src of this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "momrev" / "__init__.py").is_file():
        raise BenchError(f"no momrev package under {src}")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import momrev  # noqa: F401

    if Path(momrev.__file__).resolve().parent != (src / "momrev").resolve():
        raise BenchError(f"momrev imported from {momrev.__file__}, not from {src}")


# ---------------------------------------------------------------- environment

def environment():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(ROOT / ".git"),
        "source_sha256": source_digest(),
    }


def git_commit(git_dir: Path):
    """HEAD's commit read from the .git directory, or None outside a repository."""
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git_dir / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "momrev").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------- workload

def make_config(workload):
    from momrev import train

    preset, stage_fields = WORKLOADS[workload]
    cfg = (train.segmentation_defaults() if preset == "segmentation"
           else train.classification_defaults())
    for stage in cfg.network["stages"]:
        stage.update(stage_fields)
    return cfg


def generate(cfg, seed):
    from momrev import data

    d = cfg.data
    if d.generator == "shapes":
        return data.gen_shapes_seg(d.n, hw=d.hw, seed=seed)
    return data.gen_blobs_cls(d.n, k_classes=d.k_classes, hw=d.hw, seed=seed)


class Run:
    """Data, network and optimizer of one training run: the benchmark's set-up."""

    def __init__(self, cfg, seed):
        import numpy as np
        from momrev import data, network, optim

        samples = generate(cfg, seed)
        by_id = {s.id: s for s in samples}
        manifest = data.split([s.id for s in samples], seed)
        self.train_set = [by_id[i] for i in manifest.train]
        self.val_set = [by_id[i] for i in manifest.val]
        self.test_set = [by_id[i] for i in manifest.test]
        self.net = network.build(cfg.descriptor(), seed=cfg.seed, dtype=cfg.np_dtype())
        self.opt = optim.Adam(self.net.params(), lr=cfg.lr, weight_decay=cfg.weight_decay)
        self.shuffle = np.random.Generator(np.random.Philox(seed))
        self.order = []

    def next_chunk(self, batch_size):
        """Samples of the next batch, reshuffling at each epoch as train.train does."""
        if len(self.order) < batch_size:
            self.order = self.shuffle.permutation(len(self.train_set)).tolist()
        chunk, self.order = self.order[:batch_size], self.order[batch_size:]
        return [self.train_set[i] for i in chunk]


def stack_batch(cfg, chunk):
    import numpy as np

    images = np.stack([s.image for s in chunk]).astype(cfg.np_dtype())
    if cfg.task == "segmentation":
        targets = np.stack([s.target for s in chunk]).astype(cfg.np_dtype())
    else:
        targets = np.array([s.target for s in chunk], dtype=np.int64)
    return images, targets


def batch_loss(cfg, logits, targets):
    from momrev import loss

    if cfg.task == "segmentation":
        return loss.hybrid_loss(logits, targets, bce_weight=cfg.bce_weight,
                                dice_weight=cfg.dice_weight, smooth=cfg.dice_smooth)
    return loss.cross_entropy(logits, targets)


def train_step(cfg, run, images, targets):
    """One optimizer step, the same calls train.train makes per batch."""
    run.opt.zero_grad()
    lv = batch_loss(cfg, run.net.predict(images, train=True), targets)
    run.net.train_backward(lv.grad)
    run.opt.step()
    return lv.total


# ---------------------------------------------------------------- checks

class Checks:
    """Counts attempted and failed operations and checks (ops_failed)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {message}", file=sys.stderr)


def check_eval(checks, cfg, result, n_images, label):
    """Eval loss finite and every metric inside its valid range."""
    checks.check(math.isfinite(result["loss"]), f"{label}: non-finite eval loss")
    if cfg.task == "segmentation":
        rows = result["report"].per_image
        ok = len(rows) == n_images and all(
            all(0.0 <= v <= 1.0 for v in row[:5]) and row[5] >= 0.0 for row in rows)
        checks.check(ok, f"{label}: per-image segmentation metric out of range")
    else:
        ok = (0.0 <= result["Accuracy"] <= 1.0 and -1.0 <= result["MCC"] <= 1.0
              and int(result["confusion"].sum()) == n_images)
        checks.check(ok, f"{label}: classification metric out of range")


def check_counts(checks, workload, counts):
    """Exact counts must repeat between runs of the same source.

    The first run in a checkout records them in bench/out/counts.json;
    later runs of the same source must reproduce every recorded count.
    """
    path = OUT_DIR / "counts.json"
    digest = source_digest()
    try:
        saved = json.loads(path.read_text())
    except (OSError, ValueError):
        saved = {}
    if saved.get("source_sha256") != digest:
        saved = {"source_sha256": digest, "workloads": {}}
    recorded = saved["workloads"].setdefault(workload, {})
    for key, value in counts.items():
        if key in recorded:
            checks.check(recorded[key] == value,
                         f"{workload}: {key} changed between runs of the same source: "
                         f"{recorded[key]} then {value}")
        else:
            recorded[key] = value
    OUT_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(saved, indent=1, sort_keys=True))
    tmp.replace(path)


# ---------------------------------------------------------------- phases

class Lane:
    """One training run measured by `measure`, traced when given a Tracer.

    The tracer's patches are installed only while the lane runs, so a
    traced and an untraced lane can take turns in one process.
    """

    def __init__(self, cfg, seed, checks, tracer=NULL_TRACER, targets=()):
        self.cfg, self.seed, self.checks = cfg, seed, checks
        self.tracer, self.targets = tracer, targets
        self.setup_s, self.step_ms, self.losses, self.eval_rates = [], [], [], []
        self.iter_s = []  # batch stacking plus step, per counted iteration
        self.eval_time = 0.0
        self.val_loss = None
        with self.active():
            self.run = self.set_up()

    def active(self):
        return self.tracer.installed(self.targets)

    def set_up(self):
        with self.tracer.span("setup"):
            t0 = time.perf_counter()
            run = Run(self.cfg, self.seed)
            self.setup_s.append(time.perf_counter() - t0)
        return run

    def eval_pass(self):
        from momrev import train

        run = self.run
        with self.tracer.span("eval.pass"):
            t0 = time.perf_counter()
            result = train.evaluate_split(self.cfg, run.net, run.test_set)
            dt = time.perf_counter() - t0
        self.eval_rates.append(len(run.test_set) / dt)
        self.eval_time += dt
        check_eval(self.checks, self.cfg, result, len(run.test_set), "test")

    def iteration(self, i):
        """Train step i, then val_loss or an eval pass and a set-up when due.

        Returns the seconds spent on val_loss, which the clock excludes.
        """
        from momrev import errors, train

        cfg, run, tracer = self.cfg, self.run, self.tracer
        with tracer.span("train.step"):
            t0 = time.perf_counter()
            with tracer.span("data.batch"):
                images, targets = stack_batch(cfg, run.next_chunk(cfg.batch_size))
            t1 = time.perf_counter()
            try:
                lv = train_step(cfg, run, images, targets)
            except errors.MomrevError as exc:
                lv = math.nan
                print(f"step {i}: {exc!r}", file=sys.stderr)
            t2 = time.perf_counter()
        self.checks.check(math.isfinite(lv), f"step {i}: loss {lv}")
        self.losses.append(lv)
        if i < WARMUP_STEPS:
            return 0.0
        self.step_ms.append(1e3 * (t2 - t1))
        self.iter_s.append(t2 - t0)
        paused = 0.0
        if i + 1 == FIXED_STEPS:
            t_pause = time.perf_counter()
            val = train.evaluate_split(cfg, run.net, run.val_set)
            check_eval(self.checks, cfg, val, len(run.val_set), "val")
            self.val_loss = val["loss"]
            paused = time.perf_counter() - t_pause
        if self.eval_time < EVAL_SHARE / (1 - EVAL_SHARE) * sum(self.iter_s):
            self.eval_pass()
            self.set_up()
        return paused


class HostProbe:
    """Times a fixed kernel between steps to track the shared host's speed.

    Other tenants slow a shared host by 20-60% for seconds to minutes at a
    time. The kernel does what the program's convolutions do (per-tap
    float32 tensordots on fresh buffers), so its median time, taken over the
    same stretch as the steps, moves with the program's. It never calls the
    program, so a change to the program cannot move it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.x = rng.random((16, 8, 34, 34), dtype=np.float32)
        self.w = rng.random((8, 8, 3, 3), dtype=np.float32)
        self.ms = []

    def sample(self):
        import numpy as np

        t0 = time.perf_counter()
        x = self.x.copy()  # fresh buffers each time, as the program's steps have
        out = np.zeros((16, 8, 32, 32), dtype=np.float32)
        for i in range(3):
            for j in range(3):
                out += np.tensordot(x[:, :, i:i + 32, j:j + 32], self.w[:, :, i, j],
                                    axes=([1], [1])).transpose(0, 3, 1, 2)
        self.ms.append(1e3 * (time.perf_counter() - t0))

    def slowdown(self, average=statistics.median):
        """How much slower than nominal the host ran; divide times by it.

        Normalize a median by the median slowdown and a mean (a throughput)
        by the mean one, which also carries the bursts the mean absorbs.
        """
        return average(self.ms) / PROBE_NOMINAL_MS


def measure(lanes, seconds, probe=None):
    """Run the lanes in turns for `seconds` (never fewer than FIXED_STEPS steps).

    Eval passes over the test split (EVAL_SHARE of each lane's time) and
    set-up repetitions are interleaved with the training steps, and lanes
    alternate step by step, so everything measured samples the same stretch
    of a shared machine's varying speed. A HostProbe, if given, is sampled
    after every step.
    """
    deadline = time.perf_counter() + seconds
    i = 0
    while i < FIXED_STEPS or time.perf_counter() < deadline:
        for lane in (lanes if i % 2 == 0 else lanes[::-1]):
            with lane.active():
                deadline += lane.iteration(i)
            if probe:
                probe.sample()
        i += 1
    for lane in lanes:
        with lane.active():
            while len(lane.eval_rates) < MIN_EVAL_PASSES:
                lane.eval_pass()


def peak_step_bytes(cfg, run):
    """tracemalloc peak over one train step (untimed)."""
    images, targets = stack_batch(cfg, run.next_chunk(cfg.batch_size))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        train_step(cfg, run, images, targets)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def ledgers(cfg, run, checks):
    """profile_forward on two different batches; the ledgers must agree."""
    from momrev import memprofile

    first, second = (
        memprofile.profile_forward(run.net, stack_batch(cfg, run.next_chunk(cfg.batch_size))[0])
        for _ in range(2))
    checks.check(first == second, f"memory ledger differs between batches: {first} vs {second}")
    return first


def grad_rel_err(cfg, seed, checks):
    """Median over GRAD_BATCHES batches of verify.rel_err between this
    workload's parameter gradients and stored-mode gradients of the same
    weights, batch and dtype (0 for a stored-mode workload)."""
    import numpy as np
    from momrev import network, verify

    stored = copy.deepcopy(cfg.network)
    for stage in stored["stages"]:
        stage["mode"] = "stored"
    data_run = Run(cfg, seed)
    own = network.build(cfg.descriptor(), seed=cfg.seed, dtype=cfg.np_dtype())
    ref = network.build(network.NetworkDescriptor(**stored), seed=cfg.seed, dtype=cfg.np_dtype())
    errs = []
    for _ in range(GRAD_BATCHES):
        images, targets = stack_batch(cfg, data_run.next_chunk(cfg.batch_size))
        grads = []
        for net in (own, ref):
            net.zero_grad()
            lv = batch_loss(cfg, net.predict(images, train=True), targets)
            net.train_backward(lv.grad)
            grads.append(np.concatenate([p.grad.ravel() for p in net.params()]))
        checks.check(all(np.all(np.isfinite(g)) for g in grads), "non-finite gradient")
        errs.append(verify.rel_err(*grads))
    return statistics.median(errs)


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


# ---------------------------------------------------------------- runs

def untraced(cfg, args, checks):
    lane, probe = Lane(cfg, args.seed, checks), HostProbe()
    measure([lane], args.seconds, probe)
    peak = peak_step_bytes(cfg, lane.run)
    ledger = ledgers(cfg, lane.run, checks)
    slow = probe.slowdown()
    samples_per_s = cfg.batch_size * len(lane.iter_s) / sum(lane.iter_s)
    metrics = {
        "train_samples_per_s": (samples_per_s * probe.slowdown(statistics.fmean), "1/s"),
        "step_ms_p50": (percentile(lane.step_ms, 50) / slow, "ms"),
        "eval_images_per_s": (statistics.median(lane.eval_rates) * slow, "1/s"),
        "setup_s": (statistics.median(lane.setup_s) / slow, "s"),
        "peak_bytes": (peak, "bytes"),
        "retained_floats": (ledger.total, "floats"),
        "val_loss": (lane.val_loss, "loss"),
    }
    samples = {"steps": len(lane.step_ms), "eval_passes": len(lane.eval_rates),
               "setup_repeats": len(lane.setup_s),
               "host_slowdown": slow,
               "step_ms_p90": percentile(lane.step_ms, 90) / slow,
               "wall": {"train_samples_per_s": samples_per_s,
                        "step_ms_p50": percentile(lane.step_ms, 50),
                        "step_ms_p90": percentile(lane.step_ms, 90),
                        "eval_images_per_s": statistics.median(lane.eval_rates),
                        "setup_s": statistics.median(lane.setup_s)},
               "step_ms": lane.step_ms, "eval_images_per_s": lane.eval_rates,
               "setup_s": lane.setup_s, "probe_ms": probe.ms}
    return metrics, samples, {"retained_floats": ledger.total}


def traced(cfg, args, checks):
    """An untraced and a traced run from identical starts, taking turns step
    by step for --seconds; per-layer metrics come from the traced one."""
    from momrev import data, layers, loss, metrics, momentum, network, optim, tensor, train

    tracer = Tracer()

    def conv_fwd(a, y):
        self, x = a[0], a[1]
        flop, nbytes = conv_cost(x.shape, self.w.value.shape, y.shape, y.itemsize, False)
        tracer.add("conv_flop", flop)
        tracer.add("conv_bytes", nbytes)

    def conv_bwd(a, gx):
        self, gy = a[0], a[1]
        flop, nbytes = conv_cost(gx.shape, self.w.value.shape, gy.shape, gy.itemsize, True)
        tracer.add("conv_flop", flop)
        tracer.add("conv_bytes", nbytes)

    other = [layers.ReLU, layers.Tanh, layers.MaxPool2, layers.Upsample2,
             layers.GlobalAvgPool, layers.Linear]
    nets = [network.ClassifierNet, network.SegmenterNet]
    targets = [
        (tensor, "conv2d_batched", "tensor.conv2d_batched"),
        (layers.Conv2d, "forward", "layers.Conv2d.forward", conv_fwd),
        (layers.Conv2d, "backward", "layers.Conv2d.backward", conv_bwd),
        *[(cls, m, f"layers.other.{cls.__name__}.{m}") for cls in other
          for m in ("forward", "backward")],
        (momentum.MomentumBlock, "inverse", "momentum.MomentumBlock.inverse"),
        (momentum.MomentumBlock, "backward_step", "momentum.MomentumBlock.backward_step"),
        (momentum.MomentumChain, "forward", "momentum.MomentumChain.forward"),
        (momentum.MomentumChain, "backward", "momentum.MomentumChain.backward"),
        *[(cls, m, f"network.{m}") for cls in nets for m in ("predict", "train_backward")],
        (loss, "hybrid_loss", "loss.hybrid_loss"),
        (loss, "cross_entropy", "loss.cross_entropy"),
        (optim.Adam, "step", "optim.Adam.step"),
        (train, "evaluate_split", "train.evaluate_split"),
        (metrics, "evaluate_masks", "metrics.evaluate_masks"),
        (metrics, "hausdorff", "metrics.hausdorff"),
        (data, "gen_shapes_seg", "data.generate"),
        (data, "gen_blobs_cls", "data.generate"),
    ]
    base = Lane(cfg, args.seed, checks)
    tr = Lane(cfg, args.seed, checks, tracer, targets)
    measure([base, tr], args.seconds)
    checks.check(tr.losses == base.losses,
                 "traced and untraced runs trained with different losses")
    checks.check(tr.val_loss == base.val_loss,
                 f"val_loss traced {tr.val_loss} vs untraced {base.val_loss}")

    n_steps, st, per_step = tracer.aggregate("train.step", skip=WARMUP_STEPS)
    n_eval, ev, _ = tracer.aggregate("eval.pass")
    n_setup, su, _ = tracer.aggregate("setup")
    checks.check(all(c == per_step[0] for c in per_step),
                 "calls or computed FLOPs differ between traced steps")

    def step(name, stat="ms"):
        return st.get(name, {stat: 0})[stat] / n_steps

    conv_ms = step("layers.Conv2d.forward") + step("layers.Conv2d.backward")
    gflop = per_step[0]["conv_flop"] / 1e9
    ledger = ledgers(cfg, tr.run, checks)
    out = {
        "tensor.conv2d_batched.calls": (step("tensor.conv2d_batched", "calls"), "count"),
        "tensor.conv2d_batched.ms": (step("tensor.conv2d_batched"), "ms"),
        "layers.Conv2d.forward.calls": (step("layers.Conv2d.forward", "calls"), "count"),
        "layers.Conv2d.forward.ms": (step("layers.Conv2d.forward"), "ms"),
        "layers.Conv2d.backward.calls": (step("layers.Conv2d.backward", "calls"), "count"),
        "layers.Conv2d.backward.ms": (step("layers.Conv2d.backward"), "ms"),
        "layers.Conv2d.gflop": (gflop, "GFLOP"),
        "layers.Conv2d.bytes": (per_step[0]["conv_bytes"], "bytes"),
        "layers.Conv2d.gflop_per_s": (gflop / (conv_ms / 1e3), "GFLOP/s"),
        "layers.other.ms": (sum(v["ms"] for k, v in st.items()
                                if k.startswith("layers.other.")) / n_steps, "ms"),
        "momentum.MomentumBlock.inverse.calls":
            (step("momentum.MomentumBlock.inverse", "calls"), "count"),
        "momentum.MomentumBlock.inverse.ms": (step("momentum.MomentumBlock.inverse"), "ms"),
        "momentum.MomentumBlock.backward_step.calls":
            (step("momentum.MomentumBlock.backward_step", "calls"), "count"),
        "momentum.MomentumBlock.backward_step.ms":
            (step("momentum.MomentumBlock.backward_step"), "ms"),
        "momentum.MomentumChain.forward.self_ms":
            (step("momentum.MomentumChain.forward", "self_ms"), "ms"),
        "momentum.MomentumChain.backward.self_ms":
            (step("momentum.MomentumChain.backward", "self_ms"), "ms"),
        "momentum.chain_state_floats": (ledger.chain_states, "floats"),
        "momentum.f_transient_peak": (ledger.f_transient_peak, "floats"),
        "network.predict.self_ms": (step("network.predict", "self_ms"), "ms"),
        "network.train_backward.self_ms": (step("network.train_backward", "self_ms"), "ms"),
        "loss.ms": (step("loss.hybrid_loss") + step("loss.cross_entropy"), "ms"),
        "optim.Adam.step.ms": (step("optim.Adam.step"), "ms"),
        "metrics.evaluate_masks.ms":
            (ev.get("metrics.evaluate_masks", {"ms": 0})["ms"] / n_eval, "ms"),
        "metrics.hausdorff.calls":
            (ev.get("metrics.hausdorff", {"calls": 0})["calls"] / n_eval, "count"),
        "data.generate.ms": (su["data.generate"]["ms"] / n_setup, "ms"),
        "data.batch_ms": (step("data.batch"), "ms"),
        "grad_rel_err": (grad_rel_err(cfg, args.seed, checks), "ratio"),
        "trace.overhead_ms": (percentile(tr.step_ms, 50) - percentile(base.step_ms, 50), "ms"),
    }
    counts = {
        "calls_per_step": {k: v for k, v in per_step[0].items() if not k.startswith("conv_")},
        "conv_flop_per_step": per_step[0]["conv_flop"],
        "retained_floats": ledger.total,
    }
    samples = {"steps": len(tr.step_ms),
               "eval_passes": n_eval, "spans": tracer.export()}
    return out, samples, counts


def main(argv=None):
    args = parse_args(argv)
    try:
        import_momrev()
    except (BenchError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    cfg = make_config(args.workload)
    checks = Checks()
    metrics, samples, counts = (traced if args.trace else untraced)(cfg, args, checks)
    check_counts(checks, args.workload, counts)
    env = environment()
    for name, (value, unit) in metrics.items():
        checks.check(isinstance(value, (int, float)) and math.isfinite(value),
                     f"metric {name} is not a finite number: {value!r}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "samples": samples,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:>16.6g} {unit}")
    print("samples " + json.dumps({k: v for k, v in samples.items()
                                   if not isinstance(v, list)}))
    correct = checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
