import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from momrev import cli, data, network, verify
from momrev.errors import NumericError
from momrev.optim import Adam
from momrev.train import TrainConfig, classification_defaults, segmentation_defaults


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tiny_seg_config(tmp_path, **overrides):
    """A small segmentation config file; `overrides` go into the JSON
    unchecked, so a test can write a config the CLI must reject."""
    cfg = segmentation_defaults(
        network=dict(
            task="segmentation",
            input_shape=[1, 16, 16],
            stages=[dict(width=4, blocks=1, gamma=0.9, mode="reversible")],
        ),
        data=dict(generator="shapes", n=20, hw=16),
        epochs=1,
        patience=5,
        out_dir=str(tmp_path / "run"),
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**json.loads(cfg.to_json()), **overrides}, indent=2))
    return path


def _stage(**extra):
    return dict(width=4, blocks=1, **extra)


def _seg_network(**stage):
    return dict(task="segmentation", input_shape=[1, 16, 16], stages=[{**_stage(), **stage}])


def test_train_writes_run_artifacts(tmp_path, capsys):
    check_run_artifacts(tmp_path, capsys, tiny_seg_config(tmp_path))


def test_train_plain_residual_writes_run_artifacts(tmp_path, capsys):
    """A gamma=0 stored network (the plain-residual control) trains end to end."""
    cfg_path = tiny_seg_config(tmp_path, network=_seg_network(gamma=0.0, mode="stored"))
    check_run_artifacts(tmp_path, capsys, cfg_path)


def check_run_artifacts(tmp_path, capsys, cfg_path):
    code, out, _ = run(["train", "--config", str(cfg_path)], capsys)
    assert code == 0
    run_dir = tmp_path / "run"
    for name in ("config.json", "split.json", "train_log.csv",
                 "checkpoint.bin", "checkpoint.json", "test_metrics.csv"):
        assert (run_dir / name).exists(), name
    assert out.splitlines()[0].startswith("| name | mDSC |")
    header = (run_dir / "test_metrics.csv").read_text().splitlines()[0]
    assert header == "name,mDSC,mIoU,Rec.,Prec.,F2,HD"


def test_train_zero_epochs_keeps_initial_weights(tmp_path, capsys):
    cfg_path = tiny_seg_config(tmp_path, epochs=0)
    code, _, _ = run(["train", "--config", str(cfg_path)], capsys)
    assert code == 0
    log = (tmp_path / "run" / "train_log.csv").read_text().splitlines()
    assert log == ["epoch,train_loss,val_loss"]
    assert (tmp_path / "run" / "checkpoint.bin").exists()


def test_numeric_abort_keeps_epoch_log(tmp_path, capsys, monkeypatch):
    steps = []
    real_step = Adam.step

    def step_until_second_epoch(self):
        steps.append(1)
        if len(steps) > 1:  # a batch larger than the train split: one step per epoch
            raise NumericError("non-finite gradient; step refused")
        real_step(self)

    monkeypatch.setattr(Adam, "step", step_until_second_epoch)
    cfg_path = tiny_seg_config(tmp_path, epochs=3, batch_size=64)
    code, _, err = run(["train", "--config", str(cfg_path)], capsys)
    assert code == cli.EXIT_NUMERIC == 4
    assert err.startswith("numeric error:")
    log = (tmp_path / "run" / "train_log.csv").read_text().splitlines()
    assert len(log) == 2 and log[0] == "epoch,train_loss,val_loss"
    assert log[1].startswith("0,")
    assert (tmp_path / "run" / "checkpoint.bin").exists()


def test_eval_reads_back_a_trained_checkpoint(tmp_path, capsys):
    cfg_path = tiny_seg_config(tmp_path)
    run(["train", "--config", str(cfg_path)], capsys)
    code, out, _ = run(
        ["eval", "--config", str(cfg_path),
         "--checkpoint", str(tmp_path / "run" / "checkpoint"),
         "--split", "test", "--hd-variant", "hd95", "--threshold", "0.4",
         "--out", str(tmp_path / "eval")],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0].startswith("| name | mDSC |")
    assert (tmp_path / "eval" / "eval_metrics.csv").exists()
    resolved = json.loads((tmp_path / "eval" / "config.json").read_text())
    assert resolved["hd_variant"] == "hd95" and resolved["eval_threshold"] == 0.4


def test_eval_matches_train_test_metrics(tmp_path, capsys):
    cfg_path = tiny_seg_config(tmp_path)
    run(["train", "--config", str(cfg_path)], capsys)
    trained = (tmp_path / "run" / "test_metrics.csv").read_text()
    code, _, _ = run(
        ["eval", "--config", str(cfg_path),
         "--checkpoint", str(tmp_path / "run" / "checkpoint"),
         "--split", "test", "--out", str(tmp_path / "eval")],
        capsys,
    )
    assert code == 0
    evaluated = (tmp_path / "eval" / "eval_metrics.csv").read_text()
    assert trained.splitlines()[1].split(",")[1:] == \
        evaluated.splitlines()[1].split(",")[1:]


def test_verify_passes(capsys):
    code, out, _ = run(["verify", "--depth", "4"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert lines and all(l.startswith("PASS ") for l in lines)


def test_verify_gamma_zero_stored_passes(capsys):
    code, out, _ = run(["verify", "--gamma", "0", "--depth", "3"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 4 and all(l.startswith("PASS ") for l in lines)
    assert not any("chain_roundtrip" in l or "gradient_modes" in l for l in lines)


@pytest.mark.parametrize("flags", [
    ["--gamma=-0.5"], ["--gamma", "nan"], ["--gamma", "1.5"], ["--gamma", "inf"],
    ["--depth", "0"], ["--depth=-3"],
], ids=["gamma-0.5", "gamma-nan", "gamma-1.5", "gamma-inf", "0", "-3"])
def test_verify_nonpositive_depth_exit_code(capsys, monkeypatch, flags):
    """A depth below 1 or a gamma outside [0, 1] is refused before any suite runs."""
    def no_suite():
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verify, "suite_inversion_roundtrip", no_suite)
    code, out, err = run(["verify", *flags], capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("flags", [["--mode", "stored"], ["--dtype", "f32"]],
                         ids=["mode", "dtype"])
def test_verify_has_no_mode_or_dtype_flag(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", *flags])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_memprofile_csv(tmp_path, capsys):
    code, out, _ = run(
        ["memprofile", "--preset", "classification", "--depths", "1,2",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("depth,mode,chain_states,f_transient_peak,transitions,total,"
                        "peak_bytes,peak_at")
    assert [l.split(",")[:2] for l in lines[1:]] == [
        ["1", "stored"], ["1", "reversible"], ["2", "stored"], ["2", "reversible"]]
    assert (tmp_path / "memprofile.csv").read_text() == out


def test_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dtype": "float16"}))
    code, _, err = run(["train", "--config", str(bad)], capsys)
    assert code == 2
    assert err.startswith("config error: dtype:")


def test_missing_config_and_preset_exit_code(capsys):
    code, _, err = run(["train"], capsys)
    assert code == 2


@pytest.mark.parametrize("text", [None, "{not json", '{"bogus": 1}'],
                         ids=["missing", "not-json", "unknown-field"])
def test_unreadable_config_exit_code(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    code, _, err = run(["train", "--config", str(path)], capsys)
    assert code == 2
    assert err.startswith("config error:")


def test_missing_data_dir_exit_code(tmp_path, capsys):
    cfg = segmentation_defaults(
        network=dict(task="segmentation", input_shape=[1, 16, 16],
                     stages=[dict(width=4, blocks=1)]),
        data=dict(generator="dir", path=str(tmp_path / "nowhere")),
        epochs=1, out_dir=str(tmp_path / "run"),
    )
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    code, _, err = run(["train", "--config", str(path)], capsys)
    assert code == 3
    assert "data error" in err


@pytest.mark.parametrize("header,row", [("id,label", "{sid},two"), ("id,class", "{sid},1")])
def test_malformed_labels_csv_exit_code(tmp_path, capsys, header, row):
    """A non-integer label or a missing column is a data error naming the
    file and the line, not a traceback."""
    samples = data.gen_blobs_cls(4, k_classes=2, hw=8, seed=1)
    data.save_dataset(samples, tmp_path / "data")
    lines = (tmp_path / "data" / "labels.csv").read_text().splitlines()
    lines[0], lines[2] = header, row.format(sid=samples[1].id)
    (tmp_path / "data" / "labels.csv").write_text("\n".join(lines) + "\n")
    cfg = classification_defaults(
        network=dict(task="classification", input_shape=[1, 8, 8],
                     stages=[dict(width=4, blocks=1)], num_classes=2),
        data=dict(generator="dir", path=str(tmp_path / "data")),
        epochs=1, out_dir=str(tmp_path / "run"),
    )
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    code, _, err = run(["train", "--config", str(path)], capsys)
    assert code == 3
    assert err.startswith("data error:") and "labels.csv, line " in err


def test_flag_overrides_written_to_resolved_config(tmp_path, capsys):
    cfg_path = tiny_seg_config(tmp_path, epochs=0)
    code, _, _ = run(["train", "--config", str(cfg_path), "--lr", "0.5",
                      "--batch-size", "4", "--seed", "123",
                      "--out", str(tmp_path / "ovr")], capsys)
    assert code == 0
    resolved = json.loads((tmp_path / "ovr" / "config.json").read_text())
    assert resolved["lr"] == 0.5 and resolved["batch_size"] == 4
    assert resolved["seed"] == 123


def test_repeat_runs_bit_identical(tmp_path, capsys):
    outputs = []
    for name in ("a", "b"):
        cfg_path = tiny_seg_config(tmp_path, epochs=2)
        code, _, _ = run(["train", "--config", str(cfg_path),
                          "--out", str(tmp_path / name)], capsys)
        assert code == 0
        d = tmp_path / name
        outputs.append(((d / "checkpoint.bin").read_bytes(),
                        (d / "train_log.csv").read_text(),
                        (d / "test_metrics.csv").read_text()))
    assert outputs[0] == outputs[1]


def test_eval_missing_checkpoint_exit_code(tmp_path, capsys, monkeypatch):
    def no_dataset(cfg):
        raise AssertionError("dataset loaded before the checkpoint was opened")

    monkeypatch.setattr(cli.train_mod, "load_dataset", no_dataset)
    cfg_path = tiny_seg_config(tmp_path)
    code, _, err = run(["eval", "--config", str(cfg_path),
                        "--checkpoint", str(tmp_path / "nowhere" / "ck")], capsys)
    assert code == 3
    assert err.startswith("data error:") and len(err.splitlines()) == 1


def test_eval_truncated_checkpoint_exit_code(tmp_path, capsys):
    cfg_path = tiny_seg_config(tmp_path, epochs=0)
    assert run(["train", "--config", str(cfg_path)], capsys)[0] == 0
    ckpt = tmp_path / "run" / "checkpoint"
    manifest = json.loads(ckpt.with_suffix(".json").read_text())
    cut = manifest[next(iter(manifest))]["offset"] + 8  # inside the first record's shape
    blob = ckpt.with_suffix(".bin")
    blob.write_bytes(blob.read_bytes()[:cut])
    code, _, err = run(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)], capsys)
    assert code == 3
    assert err.startswith("data error:") and len(err.splitlines()) == 1
    assert str(blob) in err and repr(next(iter(manifest))) in err


# each edit breaks the manifest's first entry, or the manifest itself
MANIFEST_EDITS = {
    "no-offset": lambda m, k: {**m, k: {f: v for f, v in m[k].items() if f != "offset"}},
    "string-offset": lambda m, k: {**m, k: {**m[k], "offset": str(m[k]["offset"])}},
    "negative-offset": lambda m, k: {**m, k: {**m[k], "offset": -1}},
    "entry-not-object": lambda m, k: {**m, k: list(m[k].values())},
    "manifest-not-object": lambda m, k: list(m.values()),
}


@pytest.mark.parametrize("edit", MANIFEST_EDITS.values(), ids=MANIFEST_EDITS.keys())
def test_eval_malformed_manifest_exit_code(tmp_path, capsys, edit):
    cfg_path = tiny_seg_config(tmp_path, epochs=0)
    assert run(["train", "--config", str(cfg_path)], capsys)[0] == 0
    ckpt = tmp_path / "run" / "checkpoint"
    manifest_path = ckpt.with_suffix(".json")
    manifest = json.loads(manifest_path.read_text())
    manifest_path.write_text(json.dumps(edit(manifest, next(iter(manifest)))))
    code, out, err = run(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)],
                         capsys)
    assert code == 3 and out == ""
    assert err.startswith("data error:") and len(err.splitlines()) == 1
    assert str(manifest_path) in err


def test_eval_training_flag_usage_error(tmp_path, capsys):
    for flag in ("--lr", "--epochs", "--patience"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--preset", "classification", flag, "1",
                      "--checkpoint", str(tmp_path / "ck")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_memprofile_bad_depths_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["memprofile", "--depths", "x"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["--preset", "classification", "--depths", "0"], "--depths"),
    (["--preset", "classification", "--depths", "2,-1"], "--depths"),
    (["--depths", "1"], "--preset"),
], ids=["zero-depth", "negative-depth", "no-config-source"])
def test_memprofile_config_error_exit_code(capsys, argv, named):
    code, out, err = run(["memprofile", *argv], capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert named in err


def test_memprofile_gamma_zero_stored_config(tmp_path, capsys):
    cfg_path = tiny_seg_config(tmp_path, network=_seg_network(gamma=0.0, mode="stored"))
    code, out, err = run(["memprofile", "--config", str(cfg_path), "--depths", "1,2"],
                         capsys)
    assert code == 0 and err == ""
    assert [l.split(",")[:2] for l in out.strip().splitlines()[1:]] == [
        ["1", "stored"], ["2", "stored"]]


# argparse reads "-1e-3" after a space as a flag, hence "--lr=-1e-3"
@pytest.mark.parametrize("flags", [["--batch-size", "0"], ["--epochs", "-2"], ["--lr", "nan"],
                                   ["--lr=-1e-3"]],
                         ids=["batch-size", "epochs", "lr-nan", "lr-negative"])
def test_invalid_flag_override_exit_code(tmp_path, capsys, flags):
    out_dir = tmp_path / "run"
    code, _, err = run(["train", "--preset", "classification", *flags,
                        "--out", str(out_dir)], capsys)
    assert code == 2
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert not out_dir.exists()


def test_reversible_gamma_zero_config_exit_code(tmp_path, capsys):
    # every command that loads the config refuses it, naming the stage
    cfg_path = tiny_seg_config(tmp_path, network=_seg_network(gamma=0.0, mode="reversible"))
    for command in (["train"], ["eval", "--checkpoint", "nowhere"],
                    ["memprofile", "--depths", "1"]):
        code, out, err = run([command[0], "--config", str(cfg_path), *command[1:]], capsys)
        assert code == 2 and out == "", command
        assert err.startswith("config error: stages[0].mode:") and len(err.splitlines()) == 1
        assert not (tmp_path / "run").exists()


def test_unknown_hd_variant_config_exit_code(tmp_path, capsys):
    cfg_path = tiny_seg_config(tmp_path, hd_variant="hd99")
    code, _, err = run(["train", "--config", str(cfg_path)], capsys)
    assert code == 2
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert "hd_variant" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("network", [
    dict(task="segmentation", input_shape=[1, 16, 16], stages=[_stage()], bogus=1),
    dict(task="segmentation", input_shape=[1, 16, 16], stages=[_stage(bogus=1)]),
    dict(task="segmentation", input_shape=[1, 8, 8], stages=[_stage()]),
    _seg_network(width=2.5),
    _seg_network(blocks=1.5),
    _seg_network(gamma="0.9"),
    _seg_network(width=0),
    _seg_network(mode="bogus"),
], ids=["unknown-network-key", "unknown-stage-key", "input-shape-vs-data-hw",
        "float-width", "float-blocks", "string-gamma", "zero-width", "unknown-mode"])
def test_inconsistent_network_config_exit_code(tmp_path, capsys, network):
    cfg_path = tiny_seg_config(tmp_path, network=network)
    code, _, err = run(["train", "--config", str(cfg_path)], capsys)
    assert code == 2
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("overrides, named", [
    (dict(network={**_seg_network(), "num_classes": 2.5}), "num_classes"),
    (dict(data=dict(generator="shapes", n="20", hw=16)), "data.n"),
    (dict(seed=1.5), "seed"),
    (dict(lr="x"), "lr"),
    (dict(batch_size=2.5), "batch_size"),
    (dict(epochs=True), "epochs"),
    (dict(lr=1, weight_decay=0, epochs=0), None),
    (dict(network={**_seg_network(), "input_shape": [0, 16, 16]}), "input_shape"),
    (dict(network={**_seg_network(), "input_shape": [1, "16", 16]}), "input_shape"),
    (dict(network={**_seg_network(), "input_shape": [1, 16.0, 16]}), "input_shape"),
    (dict(lr=float("nan")), "lr"),
    (dict(lr=-0.01), "lr"),
    (dict(weight_decay=-1.0), "weight_decay"),
    (dict(dice_smooth=float("inf")), "dice_smooth"),
], ids=["float-num-classes", "string-n", "float-seed", "string-lr", "float-batch-size",
        "bool-epochs", "int-for-float", "zero-channels", "string-height", "float-height",
        "nan-lr", "negative-lr", "negative-weight-decay", "inf-dice-smooth"])
def test_wrong_typed_config_value_exit_code(tmp_path, capsys, overrides, named):
    cfg_path = tiny_seg_config(tmp_path, **overrides)
    code, _, err = run(["train", "--config", str(cfg_path)], capsys)
    if named is None:
        assert code == 0 and err == ""
        return
    assert code == 2
    assert err.startswith(f"config error: {named}:") and len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


def test_task_is_set_in_network_only(tmp_path, capsys):
    cfg_path = tiny_seg_config(tmp_path, task="segmentation")
    for command in (["train"], ["eval", "--checkpoint", "nowhere"]):
        code, out, err = run([command[0], "--config", str(cfg_path), *command[1:]], capsys)
        assert code == 2 and out == "", command
        assert err.startswith("config error:") and "'task'" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "run").exists()
    cfg_path = tiny_seg_config(tmp_path, epochs=0)
    assert run(["train", "--config", str(cfg_path)], capsys)[0] == 0
    resolved = json.loads((tmp_path / "run" / "config.json").read_text())
    assert "task" not in resolved and resolved["network"]["task"] == "segmentation"


@pytest.mark.parametrize("defaults, data, num_classes", [
    (classification_defaults, dict(generator="shapes", n=20, hw=16), None),
    (segmentation_defaults, dict(generator="blobs", n=20, hw=32), None),
    (classification_defaults, dict(generator="blobs", n=20, hw=16, k_classes=4), 3),
], ids=["classifier-on-masks", "segmenter-on-labels", "label-out-of-range"])
def test_data_that_does_not_fit_the_task_exit_code(tmp_path, capsys, defaults, data,
                                                   num_classes):
    cfg = json.loads(defaults(data=data).to_json())
    if num_classes is not None:
        cfg["network"]["num_classes"] = num_classes
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    own = TrainConfig.from_json(path.read_text())  # eval reads a checkpoint of this network
    ckpt = tmp_path / "ck"
    network.build(own.descriptor(), seed=own.seed, dtype=own.np_dtype()).save(ckpt)
    errors = []
    for command in (["train"], ["eval", "--checkpoint", str(ckpt)]):
        code, out, err = run([command[0], "--config", str(path), *command[1:],
                              "--out", str(tmp_path / "run")], capsys)
        assert code == 2 and out == "", command
        assert err.startswith("config error: data:") and len(err.splitlines()) == 1
        assert not (tmp_path / "run").exists()
        errors.append(err)
    assert errors[0] == errors[1]  # eval refuses the data as train does


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, momrev.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.strip() == "False"
