"""CLI outputs on the reference series against committed reference files.

Every case re-runs one command on the CLI tests' reference series and
compares each file it writes with ``tests/data/cli_reference/``.  Keys,
strings, integers and label lines must match exactly; floats must agree
within a relative 1e-12, because BLAS dot kernels differ between CPUs.

After a deliberate change of output, rewrite the reference files with

    PYTHONPATH=src python tests/test_cli_reference.py
"""

import json
import math
from pathlib import Path

import pytest

from sniplab import TimeSeries
from sniplab.cli import main
from sniplab.series import save_series
from seriesgen import two_regime_series

REFERENCE_DIR = Path(__file__).parent / "data" / "cli_reference"
RTOL = 1e-12

# Case name to the command, without --input; every output goes to a
# file named after the case.
CASES = {
    "discover-k2": ["discover", "--m", "16", "--k", "2"],
    "discover-k3": ["discover", "--m", "16", "--k", "3"],
    "label-k2": ["label", "--m", "16", "--k", "2"],
    "sweep-k2": ["sweep", "--m-min", "8", "--m-max", "64", "--k", "2", "--no-log"],
}


def _output_flags(name: str) -> dict[str, str]:
    command = CASES[name][0]
    if command == "discover":
        return {
            "--output": f"{name}.json",
            "--export-curve": f"{name}-curve.csv",
            "--export-profiles": f"{name}-profiles.csv",
        }
    if command == "label":
        return {"--output": f"{name}.csv"}
    return {"--output": f"{name}.json", "--output-snippets": f"{name}-snippets.json"}


def run_case(name: str, workdir: Path) -> dict[str, str]:
    """Run one case in ``workdir``; returns its output file names and texts."""
    values, _ = two_regime_series(n=512, period=16, block_len=128, noise=0.05, seed=9)
    series_path = workdir / "series.csv"
    save_series(TimeSeries(values), series_path)
    outputs = _output_flags(name)
    argv = CASES[name] + ["--input", str(series_path), "--workers", "1"]
    for flag, file_name in outputs.items():
        argv += [flag, str(workdir / file_name)]
    code = main(argv)
    assert code == 0, f"{name} exited {code}"
    return {file_name: (workdir / file_name).read_text() for file_name in outputs.values()}


def _same_scalar(got, want) -> bool:
    if type(got) is not type(want):
        return False
    if isinstance(want, float):
        return math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)
    return got == want


def _assert_same_json(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys differ"
        for key in want:
            _assert_same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_json(g, w, f"{where}[{i}]")
    else:
        assert _same_scalar(got, want), f"{where}: {got!r} != {want!r}"


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _assert_same_csv(got: str, want: str, where: str) -> None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), f"{where}: line counts differ"
    for line_no, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        got_cells, want_cells = g.split(","), w.split(",")
        assert len(got_cells) == len(want_cells), f"{where}:{line_no}: cell counts differ"
        for got_cell, want_cell in zip(got_cells, want_cells):
            assert _same_scalar(_cell(got_cell), _cell(want_cell)), (
                f"{where}:{line_no}: {got_cell!r} != {want_cell!r}"
            )


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_reference(name, tmp_path):
    for file_name, text in run_case(name, tmp_path).items():
        want = (REFERENCE_DIR / file_name).read_text()
        if file_name.endswith(".json"):
            _assert_same_json(json.loads(text), json.loads(want), file_name)
        else:
            _assert_same_csv(text, want, file_name)


def test_reference_files_are_all_checked():
    written = {f for name in CASES for f in _output_flags(name).values()}
    assert {path.name for path in REFERENCE_DIR.iterdir()} == written


def regenerate() -> None:
    import tempfile

    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as workdir:
            for file_name, text in run_case(name, Path(workdir)).items():
                (REFERENCE_DIR / file_name).write_text(text)
                print(REFERENCE_DIR / file_name)


if __name__ == "__main__":
    regenerate()
