"""Smoke tests of the benchmark at a tiny run length.

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
from spans import Tracer, conv_cost  # noqa: E402


def run_bench(cwd, workload, trace, seconds="1", seed="3"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", seed,
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out["metrics"]


def test_untraced_run_prints_every_end_to_end_metric():
    metrics = result(run_bench(ROOT, "seg-stored", 0))
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0


def test_traced_run_prints_every_per_layer_metric():
    metrics = result(run_bench(ROOT, "seg-rev", 1))
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["momentum.MomentumBlock.inverse.calls"] == 6
    assert value["layers.Conv2d.forward.calls"] == 41
    assert value["metrics.hausdorff.calls"] == 50


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "seg-rev", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_direct_children():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: next(ticks) / 1e3)  # one ms per clock read
    with tr.span("step"):  # 0 .. 7
        with tr.span("a"):  # 1 .. 4
            with tr.span("b"):  # 2 .. 3
                tr.add("flop", 5)
        with tr.span("b"):  # 5 .. 6
            pass
    n, totals, per_root = tr.aggregate("step")
    assert n == 1
    assert totals["step"]["ms"] == pytest.approx(7)
    assert totals["step"]["self_ms"] == pytest.approx(7 - 3 - 1)
    assert totals["a"]["self_ms"] == pytest.approx(3 - 1)
    assert totals["b"]["calls"] == 2 and totals["b"]["ms"] == pytest.approx(2)
    assert per_root[0] == {"step": 1, "a": 1, "b": 2, "flop": 5}


def test_conv_cost_counts_multiply_adds():
    flop, nbytes = conv_cost((2, 3, 8, 8), (4, 3, 3, 3), (2, 4, 8, 8), 4, backward=False)
    assert flop == 2 * 2 * 4 * 3 * 9 * 64
    assert nbytes == 4 * (2 * 3 * 64 + 2 * 4 * 64 + 4 * 3 * 9)
    assert conv_cost((2, 3, 8, 8), (4, 3, 3, 3), (2, 4, 8, 8), 4, backward=True)[0] == 2 * flop
