"""Command-line surface: discover, sweep, label, eval.

Exit codes: 0 on success, 1 on a runtime failure (bad file, numeric
error), 2 on a usage error (bad flags).  All JSON documents carry a
top-level ``"schema": 1`` and are stable byte-for-byte across worker
counts; only the append-only training log differs between runs, and
``--no-log`` turns it off.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from .labeling import evaluate, label_series, read_labels, write_labels
from .length_select import make_grid, select_length
from .mpdist import MPdistParams
from .scheduler import env_workers
from .series import load_series
from .snippets import export_curve_csv, export_profiles_csv, select_snippets


class UsageError(ValueError):
    """Bad flag combination; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs of one invocation."""

    command: str
    input: str | None = None
    column: int = 0
    snippet_size: int | None = None
    m_min: int | None = None
    m_max: int | None = None
    grid_rule: str = "pow2"
    step: int | None = None
    window_size: int | None = None
    window_frac: float = 0.5
    num_snippets: int = 2
    mpdist_k: int | None = None
    workers: int | None = None
    output: str | None = None
    output_snippets: str | None = None
    export_curve: str | None = None
    export_profiles: str | None = None
    training_log: str | None = None
    no_log: bool = False
    pred: str | None = None
    truth: str | None = None

    def __post_init__(self):
        fixed = self.snippet_size is not None
        ranged = self.m_min is not None or self.m_max is not None
        if fixed and ranged:
            raise UsageError("give either a fixed --m or a sweep range, not both")
        if self.command == "sweep":
            if self.m_min is None or self.m_max is None:
                raise UsageError("sweep needs both --m-min and --m-max")
            if self.m_min > self.m_max:
                raise UsageError(
                    f"--m-min {self.m_min} exceeds --m-max {self.m_max}"
                )
            if self.m_min < 2:
                raise UsageError(f"--m-min must be at least 2, got {self.m_min}")
            if not 0.0 < self.window_frac <= 1.0:
                raise UsageError(f"--l-frac must be in (0, 1], got {self.window_frac}")
            if self.num_snippets < 2:
                raise UsageError(
                    f"sweep needs --k of at least 2 to score a length, got {self.num_snippets}"
                )
            if self.step is not None and (self.grid_rule != "arith" or self.step < 1):
                raise UsageError(f"--step must be at least 1 with --grid arith, got {self.step}")
        if fixed:
            if self.snippet_size < 2:
                raise UsageError(f"--m must be at least 2, got {self.snippet_size}")
            if self.window_size is not None and not 1 <= self.window_size <= self.snippet_size:
                raise UsageError(
                    f"--l must be in [1, --m={self.snippet_size}], got {self.window_size}"
                )
        if self.column < 0:
            raise UsageError(f"--column must be non-negative, got {self.column}")
        if self.mpdist_k is not None and self.mpdist_k < 1:
            raise UsageError(f"--mpdist-k must be at least 1, got {self.mpdist_k}")
        if self.num_snippets < 1:
            raise UsageError(f"--k must be at least 1, got {self.num_snippets}")
        if self.workers is not None and self.workers < 1:
            raise UsageError(f"--workers must be at least 1, got {self.workers}")


def _emit_json(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _discover_params(config: RunConfig) -> MPdistParams:
    return MPdistParams(
        snippet_size=config.snippet_size,
        window_size=config.window_size,
        k=config.mpdist_k,
    )


def cmd_discover(config: RunConfig) -> int:
    series = load_series(config.input, column=config.column)
    result = select_snippets(series, _discover_params(config), config.num_snippets)
    _emit_json(result.to_dict(), config.output)
    if config.export_curve:
        export_curve_csv(result, config.export_curve)
    if config.export_profiles:
        export_profiles_csv(result, config.export_profiles)
    return 0


def cmd_sweep(config: RunConfig) -> int:
    workers = config.workers
    if workers is None:
        try:
            workers = env_workers()
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    series = load_series(config.input, column=config.column)
    grid = make_grid(config.m_min, config.m_max, rule=config.grid_rule, step=config.step)
    frac = config.window_frac

    def window_rule(m: int) -> int:
        return max(1, min(m, math.ceil(m * frac)))

    report, results = select_length(
        series,
        grid,
        config.num_snippets,
        window_rule=window_rule,
        workers=workers,
        training_log=False if config.no_log else config.training_log,
    )
    _emit_json(report.to_dict(), config.output)
    winner = results[report.m_best]
    if config.output_snippets:
        _emit_json(winner.to_dict(), config.output_snippets)
    if config.export_curve:
        export_curve_csv(winner, config.export_curve)
    if config.export_profiles:
        export_profiles_csv(winner, config.export_profiles)
    return 0


def cmd_label(config: RunConfig) -> int:
    series = load_series(config.input, column=config.column)
    result = select_snippets(series, _discover_params(config), config.num_snippets)
    labels = label_series(result)
    if config.output is None:
        for value in labels.labels:
            sys.stdout.write(f"{value}\n")
    else:
        write_labels(labels, config.output)
    return 0


def cmd_eval(config: RunConfig) -> int:
    pred = read_labels(config.pred)
    truth = read_labels(config.truth)
    report = evaluate(pred, truth)
    _emit_json(report.to_dict(), config.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sniplab",
        description="Snippet-based time series summarization and labeling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--input", required=True, help="series CSV, one value per line")
        p.add_argument("--column", type=int, default=0, help="CSV column to read")

    def add_fixed_m(p):
        p.add_argument("--m", type=int, required=True, dest="m", help="snippet length")
        p.add_argument("--l", type=int, default=None, dest="l",
                       help="inner window length (default: half of --m, rounded up)")
        p.add_argument("--mpdist-k", type=int, default=None,
                       help="MPdist order statistic (default: 5%% of 2m)")

    def add_k(p):
        p.add_argument("--k", type=int, default=2, dest="k", help="number of snippets")

    def add_output(p):
        p.add_argument("--output", default=None, help="write here instead of stdout")

    p = sub.add_parser("discover", help="find snippets at a fixed length")
    add_input(p)
    add_fixed_m(p)
    add_k(p)
    add_output(p)
    p.add_argument("--export-curve", default=None, help="representativeness curve CSV")
    p.add_argument("--export-profiles", default=None, help="snippet profiles CSV")

    p = sub.add_parser("sweep", help="pick the snippet length from a grid")
    add_input(p)
    add_k(p)
    add_output(p)
    p.add_argument("--m-min", type=int, required=True, help="smallest candidate length")
    p.add_argument("--m-max", type=int, required=True, help="largest candidate length")
    p.add_argument("--grid", choices=("pow2", "arith"), default="pow2")
    p.add_argument("--step", type=int, default=None, help="spacing for --grid arith")
    p.add_argument("--l-frac", type=float, default=0.5,
                   help="inner window length as a fraction of each candidate length")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: SNIPLAB_WORKERS or 1)")
    p.add_argument("--training-log", default=None,
                   help="JSON-lines timing log (default: SNIPLAB_TRAINING_LOG)")
    p.add_argument("--no-log", action="store_true", help="do not touch the training log")
    p.add_argument("--output-snippets", default=None,
                   help="also write the winning length's snippet JSON here")
    p.add_argument("--export-curve", default=None, help="winning curve CSV")
    p.add_argument("--export-profiles", default=None, help="winning profiles CSV")

    p = sub.add_parser("label", help="label every point with its nearest snippet")
    add_input(p)
    add_fixed_m(p)
    add_k(p)
    add_output(p)

    p = sub.add_parser("eval", help="score predicted labels against ground truth")
    p.add_argument("--pred", required=True, help="predicted labels CSV")
    p.add_argument("--truth", required=True, help="ground-truth labels CSV")
    add_output(p)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        input=getattr(args, "input", None),
        column=getattr(args, "column", 0),
        snippet_size=getattr(args, "m", None),
        m_min=getattr(args, "m_min", None),
        m_max=getattr(args, "m_max", None),
        grid_rule=getattr(args, "grid", "pow2"),
        step=getattr(args, "step", None),
        window_size=getattr(args, "l", None),
        window_frac=getattr(args, "l_frac", 0.5),
        num_snippets=getattr(args, "k", 2),
        mpdist_k=getattr(args, "mpdist_k", None),
        workers=getattr(args, "workers", None),
        output=getattr(args, "output", None),
        output_snippets=getattr(args, "output_snippets", None),
        export_curve=getattr(args, "export_curve", None),
        export_profiles=getattr(args, "export_profiles", None),
        training_log=getattr(args, "training_log", None),
        no_log=getattr(args, "no_log", False),
        pred=getattr(args, "pred", None),
        truth=getattr(args, "truth", None),
    )


_COMMANDS = {
    "discover": cmd_discover,
    "sweep": cmd_sweep,
    "label": cmd_label,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config = _config_from_args(args)
        return _COMMANDS[config.command](config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(
            "error: out of memory; try a longer --m or a shorter series",
            file=sys.stderr,
        )
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
