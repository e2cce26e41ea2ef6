"""sniplab benchmark: end-to-end and per-layer metrics on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads and metrics are declared in
BENCHMARK.json; bench/README.md says what each one is for.

With ``--trace 0`` the runner starts one child process per operation
(bench/child.py) until S seconds of operations are measured, plus
set-up-only children until there are ten set-up samples, and reports
medians.  Each child is a fresh process, so its peak RSS and set-up
time are its own.  With ``--trace 1`` it runs one traced operation
(bench/layers.py) and reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 2 when the library source is missing, 1 when an
operation fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from specs import WORKERS, WORKLOADS, Spec  # noqa: E402

SETUP_SAMPLES = 10
# Every run must end within 180 s; stop starting operations well before.
RUN_BUDGET_S = 160.0
POLL_S = 0.05


def child_env():
    env = dict(os.environ)
    env.pop("SNIPLAB_TRAINING_LOG", None)
    env["SNIPLAB_WORKERS"] = str(WORKERS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def tree_peaks(pid, peaks):
    """Raise ``peaks[p]`` to the peak resident bytes (VmHWM) of ``pid`` and each live descendant."""
    stack = [pid]
    while stack:
        proc = f"/proc/{stack.pop()}"
        try:
            with open(f"{proc}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peaks[proc] = max(peaks.get(proc, 0), int(line.split()[1]) * 1024)
                        break
            for task in os.listdir(f"{proc}/task"):
                with open(f"{proc}/task/{task}/children") as handle:
                    stack.extend(int(child) for child in handle.read().split())
        except (OSError, ValueError):
            continue  # the process ended while being read


def kill_group(pid):
    """Kill a child and any workers it left, which share its process group."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Starts child processes for one workload and seed, and keeps their records."""

    def __init__(self, spec: Spec, seed: int, workdir: Path, deadline: float):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()
        self.started = 0

    def child(self, mode, index=0):
        """Run one child to completion; its JSON record plus ``peak_rss`` and ``elapsed``."""
        self.started += 1
        stem = self.workdir / f"child-{self.started}"
        argv = [
            sys.executable, str(BENCH / "child.py"),
            "--spec", json.dumps(asdict(self.spec)),
            "--seed", str(self.seed), "--mode", mode,
            "--workdir", str(self.workdir), "--index", str(index),
        ]
        began = time.monotonic()
        with open(f"{stem}.out", "w") as out, open(f"{stem}.err", "w") as err:
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, env=self.env, cwd=ROOT, start_new_session=True
            )
        peaks = {}
        timed_out = False
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > self.deadline:
                    timed_out = True
                    kill_group(proc.pid)
                tree_peaks(proc.pid, peaks)
                time.sleep(POLL_S)
        except BaseException:
            kill_group(proc.pid)
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        kill_group(proc.pid)
        elapsed = time.monotonic() - began
        text = Path(f"{stem}.out").read_text().strip()
        if proc.returncode != 0 or not text:
            reason = "timed out" if timed_out else f"exited with {proc.returncode}"
            tail = Path(f"{stem}.err").read_text().strip().splitlines()[-3:]
            return {"problems": [f"{mode} child {reason}: {' | '.join(tail)}"], "elapsed": elapsed}
        record = json.loads(text.splitlines()[-1])
        record["peak_rss"] = max(sum(peaks.values()), usage.ru_maxrss * 1024)
        record["elapsed"] = elapsed
        return record


def run_untraced(runner: Runner, seconds: float):
    """Operations until ``seconds`` are measured, then set-up samples."""
    ops = []
    measured = 0.0
    while not ops or measured < seconds:
        left = runner.deadline - time.monotonic()
        if ops and left < 1.5 * max(op["elapsed"] for op in ops):
            break
        op = runner.child("op", index=len(ops))
        ops.append(op)
        measured += op.get("wall_s", op["elapsed"])
    setups = [op["setup_s"] for op in ops if "setup_s" in op]
    if runner.spec.kind == "sweep" and "wall_s" in ops[0]:
        # Worker invariance, once per run, in its own process so that no
        # operation's time or peak memory includes it.
        check = runner.child("invariance")
        ops[0]["problems"] += check["problems"]
        setups += [check["setup_s"]] if "setup_s" in check else []
    while len(setups) < SETUP_SAMPLES and runner.deadline - time.monotonic() > 10:
        probe = runner.child("setup")
        if "setup_s" not in probe:
            ops.append(probe)  # a set-up that crashed is a failed run
            break
        setups.append(probe["setup_s"])
    done = [op for op in ops if "wall_s" in op]
    metrics = {}
    if done:
        metrics = {
            "wall_s": statistics.median(op["wall_s"] for op in done),
            "peak_rss_mb": statistics.median(op["peak_rss"] for op in done) / float(1 << 20),
            "setup_s": statistics.median(setups),
            "macro_f1": statistics.median(op["macro_f1"] for op in done),
        }
    return ops, metrics


def declared_metrics(trace: bool):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def collect(spec: Spec, seed: int, seconds: float, trace: bool, workdir: Path):
    """Run one workload and return the result object the runner prints last."""
    runner = Runner(spec, seed, workdir, time.monotonic() + RUN_BUDGET_S)
    if trace:
        traced = runner.child("trace")
        ops, values = [traced], traced.get("layers", {})
    else:
        ops, values = run_untraced(runner, seconds)
    failed = sum(1 for op in ops if op.get("problems"))
    units = declared_metrics(trace)
    if values and set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    return {
        "correct": failed == 0 and bool(values),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }, ops


def describe(name, seed, result, ops):
    versions = next((op["versions"] for op in ops if "versions" in op), None)
    if versions:
        print(
            "machine: {cores} cores, Python {python}, numpy {numpy}, scipy {scipy}".format(
                **versions
            )
        )
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {name}, seed {seed}: {attempted} runs, {failed} failed")
    for i, op in enumerate(ops):
        wall = f"wall {op['wall_s']:.3f} s" if "wall_s" in op else "no wall time"
        print(f"  run {i}: {wall}, {op['elapsed']:.1f} s in all")
        for problem in op.get("problems", []):
            print(f"  run {i}: FAILED: {problem}")
    print(f"  {'fail_frac':30s} {failed / attempted:.6g} ratio")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:30s} {entry['value']:.6g} {entry['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sniplab" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'sniplab'}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        result, ops = collect(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is using it
    describe(args.workload, args.seed, result, ops)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
