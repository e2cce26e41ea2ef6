"""CLI outputs on the reference series against committed reference files.

Every case re-runs one command on the CLI tests' reference series and
compares the bytes of each file it writes, line ends included, with
``tests/data/cli_reference/``.  No BLAS call is on the output path, so
the bytes are the same on every CPU; ``discover-m128`` is the case whose
picks read diagonals that start in column 0 of the distance matrix, and
``discover-k8`` runs seven bounded greedy rounds over 64 segments.

After a deliberate change of output, rewrite the reference files with

    PYTHONPATH=src python tests/test_cli_reference.py
"""

from pathlib import Path

import pytest

from sniplab import TimeSeries
from sniplab.cli import main
from sniplab.series import save_series
from seriesgen import two_regime_series

REFERENCE_DIR = Path(__file__).parent / "data" / "cli_reference"

# Case name to the command, without --input; every output goes to a
# file named after the case.
CASES = {
    "discover-k2": ["discover", "--m", "16", "--k", "2"],
    "discover-k3": ["discover", "--m", "16", "--k", "3"],
    "discover-k8": ["discover", "--m", "8", "--k", "8"],
    "discover-m128": ["discover", "--m", "128", "--k", "2"],
    "label-k2": ["label", "--m", "16", "--k", "2"],
    "sweep-k2": ["sweep", "--m-min", "8", "--m-max", "64", "--k", "2", "--no-log"],
}


def _output_flags(name: str) -> dict[str, str]:
    command = CASES[name][0]
    if command == "label":
        return {"--output": f"{name}.csv"}
    flags = {
        "--output": f"{name}.json",
        "--export-curve": f"{name}-curve.csv",
        "--export-profiles": f"{name}-profiles.csv",
    }
    if command == "sweep":
        flags["--output-snippets"] = f"{name}-snippets.json"
    return flags


def run_case(name: str, workdir: Path) -> dict[str, bytes]:
    """Run one case in ``workdir``; returns its output file names and bytes."""
    values, _ = two_regime_series(n=512, period=16, block_len=128, noise=0.05, seed=9)
    series_path = workdir / "series.csv"
    save_series(TimeSeries(values), series_path)
    outputs = _output_flags(name)
    argv = CASES[name] + ["--input", str(series_path), "--workers", "1"]
    for flag, file_name in outputs.items():
        argv += [flag, str(workdir / file_name)]
    code = main(argv)
    assert code == 0, f"{name} exited {code}"
    return {file_name: (workdir / file_name).read_bytes() for file_name in outputs.values()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_reference(name, tmp_path):
    for file_name, data in run_case(name, tmp_path).items():
        assert data == (REFERENCE_DIR / file_name).read_bytes(), f"{file_name} differs"


def test_reference_files_are_all_checked():
    written = {f for name in CASES for f in _output_flags(name).values()}
    assert {path.name for path in REFERENCE_DIR.iterdir()} == written


def regenerate() -> None:
    import tempfile

    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as workdir:
            for file_name, data in run_case(name, Path(workdir)).items():
                (REFERENCE_DIR / file_name).write_bytes(data)
                print(REFERENCE_DIR / file_name)


if __name__ == "__main__":
    regenerate()
