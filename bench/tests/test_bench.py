"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest bench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from specs import Spec  # noqa: E402

TINY = {
    "discover-m8": Spec("discover", n=1600, period=8, block_len=256, lengths=(8,)),
    "discover-m1024": Spec("discover", n=1600, period=64, block_len=128, lengths=(64,)),
    "sweep-2w": Spec("sweep", n=1536, period=32, block_len=32, lengths=(8, 16, 32, 64)),
}

# Loaded at start-up of every child process: makes the library return
# both snippets from one segment, an output the checks must reject.
# Only the package attribute is replaced, so a sweep's workers, which
# call the scheduler module's own binding, stay correct, and the wrong
# output shows up in the one-process repeat of the worker-invariance check.
CORRUPTING_SITECUSTOMIZE = """
import dataclasses
import sniplab

_select = sniplab.select_snippets

def _corrupt(*args, **kwargs):
    result = _select(*args, **kwargs)
    first = result.snippets[0]
    return dataclasses.replace(result, snippets=(first,) * len(result.snippets))

sniplab.select_snippets = _corrupt
"""


def declared(kind):
    return {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


def run_main(capsys, argv):
    code = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def printed(lines, name):
    """The value and unit a human-readable line gives for ``name``."""
    value, unit = next(line.split()[1:] for line in lines if line.split()[:1] == [name])
    return float(value), unit


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted(monkeypatch, capsys, name, trace):
    monkeypatch.setitem(run.WORKLOADS, name, TINY[name])
    argv = ["--workload", name, "--seed", "1", "--seconds", "0.1", "--trace", str(trace)]
    code, lines, result = run_main(capsys, argv)

    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    assert printed(lines, "fail_frac") == (0.0, "ratio")
    for metric, unit in units.items():
        assert printed(lines, metric)[1] == unit


@pytest.mark.parametrize(
    "name, message",
    [("discover-m8", "distinct regimes"), ("sweep-2w", "differs between worker processes")],
)
def test_wrong_output_is_counted_as_failed(monkeypatch, capsys, tmp_path, name, message):
    (tmp_path / "sitecustomize.py").write_text(CORRUPTING_SITECUSTOMIZE)
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    monkeypatch.setitem(run.WORKLOADS, name, TINY[name])
    argv = ["--workload", name, "--seed", "1", "--seconds", "0.1", "--trace", "0"]
    code, lines, result = run_main(capsys, argv)

    assert code == 1
    assert result["correct"] is False
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert any(message in line for line in lines)
    assert printed(lines, "fail_frac") == (1.0, "ratio")


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "bench/run.py", "--workload", "discover-m8", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
