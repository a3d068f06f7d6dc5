"""Training loop: config dataclass (the task is the network's), run
loading shared with `eval`, epoch loop with early stopping, per-epoch
CSV logging, and split evaluation."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from numbers import Integral
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import loss as loss_mod
from . import metrics as metrics_mod
from . import network as network_mod
from .errors import ConfigError
from .layers import _replace_file
from .optim import Adam, EarlyStopper

# seeds the train/val/test cut apart from `seed`, so a `dir` dataset is
# split the same way whatever seed a run trains with
SPLIT_SEED = 7


@dataclass
class DataConfig:
    generator: str = "shapes"  # shapes | blobs | dir
    n: int = 500
    hw: int = 32
    k_classes: int = 4
    path: str | None = None

    def __post_init__(self):
        network_mod.check_field_types(self, "data.")


@dataclass
class TrainConfig:
    network: dict = field(default_factory=dict)
    data: DataConfig = field(default_factory=DataConfig)
    seed: int = 7
    dtype: str = "float32"
    lr: float = 1e-4
    batch_size: int = 16
    epochs: int = 500
    patience: int = 50
    weight_decay: float = 0.0
    bce_weight: float = 1.0
    dice_weight: float = 1.0
    dice_smooth: float = 1.0
    eval_threshold: float = 0.5
    hd_variant: str = "max"
    out_dir: str = "runs/run"

    def __post_init__(self):
        if isinstance(self.data, dict):
            self.data = DataConfig(**self.data)
        network_mod.check_field_types(self)
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype: must be float32/float64, got {self.dtype!r}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        if self.lr <= 0:
            raise ConfigError(f"lr: must be > 0, got {self.lr!r}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay: must be >= 0, got {self.weight_decay!r}")
        if self.hd_variant not in metrics_mod.HD_VARIANTS:
            raise ConfigError(f"hd_variant: must be one of {metrics_mod.HD_VARIANTS}, "
                              f"got {self.hd_variant!r}")
        self.descriptor()  # a network that does not build is refused here

    @property
    def task(self) -> str:
        return self.network["task"]

    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    def descriptor(self) -> network_mod.NetworkDescriptor:
        try:
            return network_mod.NetworkDescriptor(**self.network)
        except TypeError as exc:  # unknown or missing key in network or in a stage
            raise ConfigError(f"network: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "TrainConfig":
        return cls(**json.loads(text))


def segmentation_defaults(**overrides) -> TrainConfig:
    """Default segmentation recipe at toy scale."""
    cfg = dict(
        network=dict(
            task="segmentation",
            input_shape=[1, 32, 32],
            stages=[dict(width=8, blocks=2, gamma=0.9, mode="reversible"),
                    dict(width=16, blocks=2, gamma=0.9, mode="reversible")],
        ),
        data=dict(generator="shapes", n=500, hw=32),
        lr=1e-4, batch_size=16, epochs=500, patience=50, weight_decay=0.0,
    )
    cfg.update(overrides)
    return TrainConfig(**cfg)


def classification_defaults(**overrides) -> TrainConfig:
    cfg = dict(
        network=dict(
            task="classification",
            input_shape=[1, 16, 16],
            stages=[dict(width=8, blocks=2, gamma=0.9, mode="reversible"),
                    dict(width=16, blocks=2, gamma=0.9, mode="reversible")],
            num_classes=4,
        ),
        data=dict(generator="blobs", n=2000, hw=16, k_classes=4),
        lr=1e-5, batch_size=32, epochs=500, patience=50, weight_decay=1e-4,
    )
    cfg.update(overrides)
    return TrainConfig(**cfg)


def load_dataset(cfg: TrainConfig) -> list[data_mod.Sample]:
    d = cfg.data
    if d.generator == "shapes":
        return data_mod.gen_shapes_seg(d.n, hw=d.hw, seed=cfg.seed)
    if d.generator == "blobs":
        return data_mod.gen_blobs_cls(d.n, k_classes=d.k_classes, hw=d.hw, seed=cfg.seed)
    if d.generator == "dir":
        if not d.path:
            raise ConfigError("data.path: required for the dir generator")
        return data_mod.load_sample_dir(d.path)
    raise ConfigError(f"data.generator: unknown {d.generator!r}")


def _check_fit(descriptor, samples):
    """Refuse data the network cannot take, naming the first misfit in dataset
    order: an image not of input_shape, a mask not 1 x H x W, a label not in [0, k)."""
    task, k = descriptor.task, descriptor.num_classes
    mask_shape = (1, *descriptor.input_shape[1:])
    if samples[0].image.shape != descriptor.input_shape:  # one shape per dataset
        raise ConfigError(f"data: network input_shape {descriptor.input_shape} does not "
                          f"fit the data's images of shape {samples[0].image.shape}")
    for s in samples:
        shape = np.shape(s.target)
        if task == "segmentation" and shape != mask_shape:
            raise ConfigError(f"data: segmentation needs {mask_shape} masks, sample "
                              f"{s.id!r} has a target of shape {shape}")
        label = isinstance(s.target, Integral)
        if task == "classification" and not (label and 0 <= s.target < k):
            got = f"label {s.target}" if label else f"a target of shape {shape}"
            raise ConfigError(f"data: classification needs int labels in [0, {k}) "
                              f"(network.num_classes), sample {s.id!r} has {got}")


def load_run(cfg: TrainConfig, checkpoint=None):
    """(network, split manifest, {split name: samples}) of a run. A given
    checkpoint is read before any data is made; the data must fit the net."""
    descriptor = cfg.descriptor()
    net = network_mod.build(descriptor, seed=cfg.seed, dtype=cfg.np_dtype())
    if checkpoint is not None:
        net.load(checkpoint)
    samples = load_dataset(cfg)
    by_id = {s.id: s for s in samples}
    manifest = data_mod.split([s.id for s in samples], SPLIT_SEED)
    _check_fit(descriptor, samples)
    sets = {name: [by_id[i] for i in getattr(manifest, name)]
            for name in ("train", "val", "test")}
    return net, manifest, sets


def _stack_batch(samples, dtype, task):
    images = np.stack([s.image for s in samples]).astype(dtype)
    if task == "segmentation":
        targets = np.stack([s.target for s in samples]).astype(dtype)
    else:
        targets = np.array([s.target for s in samples], dtype=np.int64)
    return images, targets


def _batch_loss(cfg, net, images, targets, train):
    logits = net.predict(images, train=train)
    if cfg.task == "segmentation":
        lv = loss_mod.hybrid_loss(logits, targets, bce_weight=cfg.bce_weight,
                                  dice_weight=cfg.dice_weight, smooth=cfg.dice_smooth)
    else:
        lv = loss_mod.cross_entropy(logits, targets)
    return logits, lv


def evaluate_split(cfg: TrainConfig, net, samples):
    """Mean loss plus task metrics over one split."""
    dtype = cfg.np_dtype()
    losses = []
    preds, gts, labels, label_preds = [], [], [], []
    for start in range(0, len(samples), cfg.batch_size):
        chunk = samples[start : start + cfg.batch_size]
        images, targets = _stack_batch(chunk, dtype, cfg.task)
        logits, lv = _batch_loss(cfg, net, images, targets, train=False)
        losses.append(lv.total * len(chunk))
        if cfg.task == "segmentation":
            masks = metrics_mod.binarize(logits, cfg.eval_threshold)
            for b in range(len(chunk)):
                preds.append(masks[b, 0])
                gts.append(targets[b, 0])
        else:
            labels.extend(int(t) for t in targets)
            label_preds.extend(int(i) for i in logits.argmax(axis=1))
    mean_loss = float(sum(losses) / len(samples))
    if cfg.task == "segmentation":
        report = metrics_mod.evaluate_masks(preds, gts, hd_variant=cfg.hd_variant)
        means = report.means
        return {"loss": mean_loss, "report": report,
                **dict(zip(metrics_mod.SEG_COLUMNS, means))}
    k = net.descriptor.num_classes
    confusion = metrics_mod.confusion_multiclass(np.array(labels), np.array(label_preds), k)
    acc, mcc = metrics_mod.accuracy_mcc(confusion)
    return {"loss": mean_loss, "Accuracy": acc, "MCC": mcc, "confusion": confusion}


def train(cfg: TrainConfig):
    """Run one episode, early-stopped on validation loss; returns a result dict.

    Loads the run with `load_run`, as `eval` does, before it writes
    anything, so a rejected run leaves no directory. Then writes into
    `cfg.out_dir`: resolved config, split, best checkpoint, per-epoch CSV
    log. The best checkpoint is flushed whenever it improves and the log
    after every epoch, so a numeric abort still leaves the last good
    checkpoint and the epochs before it on disk.
    """
    dtype = cfg.np_dtype()
    net, manifest, sets = load_run(cfg)
    train_set, val_set, test_set = sets["train"], sets["val"], sets["test"]

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(cfg.to_json())
    (out / "split.json").write_text(manifest.to_json())
    opt = Adam(net.params(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    ckpt_path = out / "checkpoint"
    net.save(ckpt_path)  # initial weights; overwritten on improvement

    log_path = out / "train_log.csv"
    log = "epoch,train_loss,val_loss\n"
    _replace_file(log_path, log.encode())
    stopper = EarlyStopper(cfg.patience)
    shuffle_rng = np.random.Generator(np.random.Philox(cfg.seed))
    for epoch in range(cfg.epochs):
        order = np.arange(len(train_set))
        shuffle_rng.shuffle(order)
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            chunk = [train_set[i] for i in order[start : start + cfg.batch_size]]
            images, targets = _stack_batch(chunk, dtype, cfg.task)
            opt.zero_grad()
            _, lv = _batch_loss(cfg, net, images, targets, train=True)
            net.train_backward(lv.grad)
            opt.step()
            epoch_loss += lv.total * len(chunk)
        epoch_loss /= len(train_set)
        val = evaluate_split(cfg, net, val_set)
        should_stop = stopper.update(val["loss"])
        if stopper.is_best:
            net.save(ckpt_path)
        log += f"{epoch},{epoch_loss:.6f},{val['loss']:.6f}\n"
        _replace_file(log_path, log.encode())
        if should_stop:
            break

    # evaluate the best checkpoint on the test split
    net.load(ckpt_path)
    test = evaluate_split(cfg, net, test_set)
    return {"out_dir": out, "test": test, "checkpoint": ckpt_path}
