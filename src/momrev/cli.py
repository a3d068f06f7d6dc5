"""Operator surface: `momrev {train,eval,verify,memprofile}`.

Runs are driven by a JSON config plus a few flag overrides; every run
writes its resolved config next to its outputs so it can be reproduced
from the file alone. `train` and `eval` load a run with `train.load_run`,
so both refuse the same config and data. `verify` runs the property
suites of `verify.py` in float64 at one depth and gamma, on the conv
residual chains the networks build, after the stage check that a config
passes too (`momentum.check_stage`: depth >= 1, gamma in [0, 1]); at
gamma 0 it skips the two suites that invert. `memprofile` reads a config
the way `train` does and tabulates the memory ledger of its network at
each of `--depths` blocks per chain, in both modes (stored only if a
stage has gamma 0), at the config's batch size and dtype. Exit codes: 0 success, 1 verification
failure, 2 config error, 3 data error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import memprofile as memprofile_mod
from . import metrics as metrics_mod
from . import train as train_mod
from . import verify as verify_mod
from .errors import ConfigError, DataError, NumericError, ShapeError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _load_config(args) -> train_mod.TrainConfig:
    if args.config:
        try:
            cfg = train_mod.TrainConfig.from_json(Path(args.config).read_text())
        except (OSError, ValueError, TypeError) as exc:
            raise ConfigError(f"config {args.config}: {exc}") from exc
    elif args.preset == "segmentation":
        cfg = train_mod.segmentation_defaults()
    elif args.preset == "classification":
        cfg = train_mod.classification_defaults()
    else:
        raise ConfigError("config: pass --config FILE or --preset")
    overrides = {key: getattr(args, key) for key in
                 ("lr", "epochs", "batch_size", "patience", "seed", "hd_variant",
                  "eval_threshold")
                 if getattr(args, key, None) is not None}
    if getattr(args, "out", None):
        overrides["out_dir"] = args.out
    # rebuilding runs TrainConfig's validation on the overridden values too
    return dataclasses.replace(cfg, **overrides)


def _metric_table(cfg, name, result):
    """Header and one row of the task's metrics, labelled `name`."""
    columns = metrics_mod.SEG_COLUMNS if cfg.task == "segmentation" else metrics_mod.CLS_COLUMNS
    return ["name"] + columns, [[name] + [result[c] for c in columns]]


def cmd_train(args) -> int:
    cfg = _load_config(args)
    result = train_mod.train(cfg)
    columns, rows = _metric_table(cfg, "test", result["test"])
    csv_text = metrics_mod.render_csv(columns, rows)
    (result["out_dir"] / "test_metrics.csv").write_text(csv_text)
    sys.stdout.write(metrics_mod.render_markdown(columns, rows))
    print(f"checkpoint: {result['checkpoint']}.bin")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    net, _, sets = train_mod.load_run(cfg, Path(args.checkpoint))
    result = train_mod.evaluate_split(cfg, net, sets[args.split])
    columns, rows = _metric_table(cfg, args.split, result)
    csv_text = metrics_mod.render_csv(columns, rows)
    sys.stdout.write(metrics_mod.render_markdown(columns, rows))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "eval_metrics.csv").write_text(csv_text)
        (out / "eval_metrics.md").write_text(metrics_mod.render_markdown(columns, rows))
        (out / "config.json").write_text(cfg.to_json())
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify_mod.run_all(depth=args.depth, gamma=args.gamma)
    ok = True
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
        ok &= r.passed
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_memprofile(args) -> int:
    if min(args.depths) < 1:
        raise ConfigError(f"--depths: each depth must be >= 1, got {args.depths}")
    cfg = _load_config(args)
    descriptor = cfg.descriptor()
    batch = np.zeros((cfg.batch_size, *descriptor.input_shape), dtype=cfg.np_dtype())
    rows = memprofile_mod.compare_modes(descriptor, batch, args.depths)
    columns = memprofile_mod.LEDGER_COLUMNS
    csv_text = metrics_mod.render_csv(columns, rows)
    sys.stdout.write(csv_text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "memprofile.csv").write_text(csv_text)
        (out / "memprofile.md").write_text(metrics_mod.render_markdown(columns, rows))
    return EXIT_OK


def _int_list(text: str) -> list[int]:
    try:
        return [int(d) for d in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="momrev",
                                     description="momentum residual training engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source_flags(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--config", help="JSON training config")
        source.add_argument("--preset", choices=["segmentation", "classification"])

    def add_run_flags(p):
        add_source_flags(p)
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out")

    p_train = sub.add_parser("train", help="train a network from a config")
    add_run_flags(p_train)
    p_train.add_argument("--lr", type=float)
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--patience", type=int)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    add_run_flags(p_eval)
    p_eval.add_argument("--checkpoint", required=True,
                        help="checkpoint path prefix (without .bin/.json)")
    p_eval.add_argument("--split", choices=["train", "val", "test"], default="test")
    p_eval.add_argument("--hd-variant", dest="hd_variant", choices=metrics_mod.HD_VARIANTS)
    p_eval.add_argument("--threshold", dest="eval_threshold", type=float)
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run the structural property suites")
    p_verify.add_argument("--depth", type=int, default=10)
    p_verify.add_argument("--gamma", type=float, default=0.9)
    p_verify.set_defaults(func=cmd_verify)

    p_mem = sub.add_parser("memprofile", help="activation-memory ledger vs depth")
    add_source_flags(p_mem)
    p_mem.add_argument("--depths", type=_int_list, default="1,2,4,8,16")
    p_mem.add_argument("--out")
    p_mem.set_defaults(func=cmd_memprofile)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ShapeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
