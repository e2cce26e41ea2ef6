"""One benchmark process: set up a workload's input, then run and check it once.

    python3 bench/child.py --spec JSON --seed N --mode MODE --workdir DIR --index I

MODE is ``setup`` (only time the set-up), ``op`` (one untraced
operation), ``invariance`` (repeat operation 0's sweep winner in one
process and compare bytes) or ``trace`` (one traced operation, see
layers.py).  Prints one JSON record on stdout.  ``bench/run.py`` starts
these processes so that every operation gets its own peak RSS and its
own set-up time.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "op", "invariance", "trace"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--index", type=int, default=0)
    args = parser.parse_args(argv)

    import numpy
    import scipy

    import sniplab
    import workloads
    from specs import Spec

    if not Path(sniplab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"sniplab was imported from {sniplab.__file__}, not from {ROOT / 'src'}")
    spec = Spec(**json.loads(args.spec))
    series, truth = workloads.make_input(spec, args.seed)
    record = {
        "setup_s": time.perf_counter() - STARTED,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "cores": os.cpu_count(),
        },
    }

    if args.mode == "op":
        started = time.perf_counter()
        training_log = args.workdir / f"training-{args.index}.jsonl"
        outcome = workloads.run_operation(spec, series, truth, training_log)
        record["wall_s"] = time.perf_counter() - started
        record["macro_f1"] = outcome.macro_f1
        record["problems"] = workloads.check_output(spec, truth, outcome)
        if spec.kind == "sweep":
            winner = args.workdir / f"winner-{args.index}.json"
            winner.write_text(workloads.document(outcome.result))
    elif args.mode == "invariance":
        doc = (args.workdir / "winner-0.json").read_text()
        solo = workloads.solo_search(series, doc)
        record["problems"] = workloads.invariance_problems(doc, solo)
    elif args.mode == "trace":
        import layers

        record.update(layers.traced_run(spec, series, truth, args.workdir))
    print(json.dumps(record))


if __name__ == "__main__":
    main()
