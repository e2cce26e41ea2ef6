"""Command-line surface: discover, sweep, label, eval.

Exit codes: 0 on success, 1 on bad data or a runtime failure (unreadable
file, numeric error), 2 on a bad flag or a bad ``SNIPLAB_WORKERS``.  For
a bad flag argparse prints the usage line and names the flag: argparse
checks each flag's own bounds while parsing, and :func:`flag_conflict`
checks the rules between flags right after.  All JSON documents carry a
top-level ``"schema": 1`` and are stable byte-for-byte across worker
counts; only the append-only training log differs between runs, and
``--no-log`` turns it off.
"""

from __future__ import annotations

import argparse
import json
import sys

from .labeling import evaluate, label_series, read_labels, write_labels
from .length_select import make_grid, select_length
from .mpdist import MPdistParams
from .series import load_series
from .snippets import (
    SnippetResult,
    export_curve_csv,
    export_profiles_csv,
    resolve_workers,
    select_snippets,
)


def _at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def fraction(text: str) -> float:
    """argparse type: a float in (0, 1]; ``nan`` is rejected."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


def flag_conflict(args: argparse.Namespace) -> str | None:
    """The first rule between flags that ``args`` breaks, or None."""
    if getattr(args, "l", None) is not None and args.l > args.m:
        return f"--l must be at most --m={args.m}, got {args.l}"
    if args.command == "sweep":
        if args.m_min > args.m_max:
            return f"--m-min {args.m_min} exceeds --m-max {args.m_max}"
        if args.k < 2:
            return f"sweep needs --k of at least 2 to score a length, got {args.k}"
        if args.step is not None and args.grid != "arith":
            return f"--step needs --grid arith, got --grid {args.grid}"
    return None


def _emit_json(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _search(args: argparse.Namespace) -> SnippetResult:
    series = load_series(args.input, column=args.column)
    params = MPdistParams(snippet_size=args.m, window_size=args.l, k=args.mpdist_k)
    return select_snippets(series, params, args.k, workers=args.workers)


def _export(result: SnippetResult, args: argparse.Namespace) -> None:
    if args.export_curve:
        export_curve_csv(result, args.export_curve)
    if args.export_profiles:
        export_profiles_csv(result, args.export_profiles)


def cmd_discover(args: argparse.Namespace) -> int:
    result = _search(args)
    _emit_json(result.to_dict(), args.output)
    _export(result, args)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    series = load_series(args.input, column=args.column)
    grid = make_grid(args.m_min, args.m_max, rule=args.grid, step=args.step)
    report, results = select_length(
        series,
        grid,
        args.k,
        l_frac=args.l_frac,
        workers=args.workers,
        training_log=False if args.no_log else args.training_log,
    )
    _emit_json(report.to_dict(), args.output)
    winner = results[report.m_best]
    if args.output_snippets:
        _emit_json(winner.to_dict(), args.output_snippets)
    _export(winner, args)
    return 0


def cmd_label(args: argparse.Namespace) -> int:
    write_labels(label_series(_search(args)), args.output or sys.stdout)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    pred = read_labels(args.pred)
    truth = read_labels(args.truth)
    report = evaluate(pred, truth)
    _emit_json(report.to_dict(), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sniplab",
        description="Snippet-based time series summarization and labeling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--input", required=True, help="series CSV, one value per line")
        p.add_argument("--column", type=_at_least(0), default=0, help="CSV column to read")

    def add_fixed_m(p):
        p.add_argument("--m", type=_at_least(2), required=True, dest="m", help="snippet length")
        p.add_argument("--l", type=_at_least(1), default=None, dest="l",
                       help="inner window length (default: half of --m, rounded up)")
        p.add_argument("--mpdist-k", type=_at_least(1), default=None,
                       help="MPdist order statistic (default: 5%% of 2m)")

    def add_k(p):
        p.add_argument("--k", type=_at_least(1), default=2, dest="k", help="number of snippets")

    def add_output(p):
        p.add_argument("--output", default=None, help="write here instead of stdout")

    def add_workers(p, what):
        p.add_argument("--workers", type=_at_least(1), default=None,
                       help=f"{what} (default: SNIPLAB_WORKERS or 1)")

    p = sub.add_parser("discover", help="find snippets at a fixed length")
    p.set_defaults(run=cmd_discover)
    add_input(p)
    add_fixed_m(p)
    add_k(p)
    add_output(p)
    add_workers(p, "profiling threads")
    p.add_argument("--export-curve", default=None, help="representativeness curve CSV")
    p.add_argument("--export-profiles", default=None, help="snippet profiles CSV")

    p = sub.add_parser("sweep", help="pick the snippet length from a grid")
    p.set_defaults(run=cmd_sweep)
    add_input(p)
    add_k(p)
    add_output(p)
    p.add_argument("--m-min", type=_at_least(2), required=True, help="smallest candidate length")
    p.add_argument("--m-max", type=int, required=True, help="largest candidate length")
    p.add_argument("--grid", choices=("pow2", "arith"), default="pow2")
    p.add_argument("--step", type=_at_least(1), default=None, help="spacing for --grid arith")
    p.add_argument("--l-frac", type=fraction, default=0.5,
                   help="inner window length as a fraction of each candidate length")
    add_workers(p, "processes running lengths, largest first: this one "
                   "and WORKERS-1 forked workers")
    p.add_argument("--training-log", default=None,
                   help="JSON-lines timing log (default: SNIPLAB_TRAINING_LOG)")
    p.add_argument("--no-log", action="store_true", help="do not touch the training log")
    p.add_argument("--output-snippets", default=None,
                   help="also write the winning length's snippet JSON here")
    p.add_argument("--export-curve", default=None, help="winning curve CSV")
    p.add_argument("--export-profiles", default=None, help="winning profiles CSV")

    p = sub.add_parser("label", help="label every point with its nearest snippet")
    p.set_defaults(run=cmd_label)
    add_input(p)
    add_fixed_m(p)
    add_k(p)
    add_output(p)
    add_workers(p, "profiling threads")

    p = sub.add_parser("eval", help="score predicted labels against ground truth")
    p.set_defaults(run=cmd_eval)
    p.add_argument("--pred", required=True, help="predicted labels CSV")
    p.add_argument("--truth", required=True, help="ground-truth labels CSV")
    add_output(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        conflict = flag_conflict(args)
        if conflict is not None:
            parser.error(conflict)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if "workers" in args:
        try:
            args.workers = resolve_workers(args.workers)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        return args.run(args)
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
