"""Benchmark of the ``arctic`` CLI on three closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout.  One client sends each operation only after
the previous one returns, through ``arctic.cli.main`` in-process; every pass
over the workload runs in a fresh interpreter.

``--trace 0`` times ``SETUP_PROBES`` fresh imports of ``arctic.cli``
(``setup_s`` is their median), then runs passes until ``S`` seconds have gone
(at least ``MIN_PASSES``) and prints the other end-to-end metrics, from the
median time of each op over the passes: ``wall_s`` (their sum), ``max_op_s``
(the slowest op) and ``peak_rss_mb`` (the median over passes).  Times are
seconds scaled to a reference host speed (see ``speed.py``); the raw import
and pass times go to the summary line printed before the result.

``--trace 1`` runs one untraced and one traced pass and prints the per-layer
metrics of the traced pass, plus ``trace.overhead_s`` (traced minus untraced
``wall_s``).

An op fails if it exits nonzero, reports no checks, or its exact outputs
differ from the digests in ``digests.json``; float artifacts must be
byte-identical across the passes of a run.  The last line of standard output
is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
PROBE = HERE / "probe.py"
SETUP_PROBES = 9
# A median over one pass is that pass's time: the ~21 s saddle_scan pass would
# then take the host's drift whole, since it does not fit twice in S seconds.
MIN_PASSES = 2
RUN_LIMIT_S = 170.0


class Budget:
    """Wall-clock allowance shared by every child process of one run."""

    def __init__(self) -> None:
        self.start = time.monotonic()

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.start)


def child(budget: Budget, script: Path, *args: str) -> str:
    """Run a script in a fresh interpreter; returns its last output line."""
    timeout = budget.remaining()
    if timeout <= 0:
        raise SystemExit("run time limit reached")
    cmd = [sys.executable, str(script), *args]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{script.name} exceeded the run time limit: {' '.join(args)}")
    if proc.returncode != 0:
        raise SystemExit(f"{script.name} exited with {proc.returncode}: {' '.join(args)}")
    return proc.stdout.splitlines()[-1]


def run_pass(budget: Budget, *args: str) -> dict:
    return json.loads(child(budget, WORKER, "--root", str(ROOT), *args))


def count_failures(passes: list[dict]) -> int:
    """Failed ops; a float artifact differing from the first pass's is a failure."""
    first = {op["key"]: op["artifacts"] for op in passes[0]["ops"]}
    failed = 0
    for result in passes:
        for op in result["ops"]:
            if op["failure"] is None and op["artifacts"] != first[op["key"]]:
                op["failure"] = "artifact bytes differ between passes"
                print(f"FAILED {op['key']}: {op['failure']}", file=sys.stderr)
            failed += op["failure"] is not None
    return failed


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small variant, for self-tests")
    args = parser.parse_args()
    if not (ROOT / "src" / "arctic" / "cli.py").is_file():
        print(f"no arctic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    budget = Budget()
    workdir = HERE / "_work" / str(os.getpid())
    pass_args = ["--workload", args.workload, "--seed", str(args.seed),
                 "--workdir", str(workdir)] + (["--tiny"] if args.tiny else [])
    try:
        if args.trace:
            passes = [run_pass(budget, *pass_args), run_pass(budget, *pass_args, "--trace")]
        else:
            src = str(ROOT / "src")
            setups = [child(budget, PROBE, src).split() for _ in range(SETUP_PROBES)]
            passes = []
            start = time.monotonic()
            while len(passes) < MIN_PASSES or time.monotonic() - start < args.seconds:
                last = passes[-1]["raw_wall_s"] if passes else 0.0
                if len(passes) >= MIN_PASSES and budget.remaining() < 2 * last + 5:
                    break
                passes.append(run_pass(budget, *pass_args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    failed = count_failures(passes)
    attempted = sum(len(p["ops"]) for p in passes)
    if args.trace:
        traced = passes[1]
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - passes[0]["wall_s"]
        absent = sorted(set(tracing.UNITS) - set(layers))
        if absent:
            print(f"absent per-layer metrics (binding missing): {', '.join(absent)}",
                  file=sys.stderr)
        metrics = {name: metric(v, tracing.UNITS[name]) for name, v in sorted(layers.items())}
        nesting = traced["span_check"]
        correct = failed == 0 and nesting["outlasting_children"] == 0
        summary = {"spans": nesting}
    else:
        op_s = [statistics.median(times) for times in zip(
            *([op["seconds"] for op in p["ops"]] for p in passes))]
        metrics = {
            "wall_s": metric(sum(op_s), "s"),
            "setup_s": metric(statistics.median(float(scaled) for _, scaled in setups), "s"),
            "max_op_s": metric(max(op_s), "s"),
            "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        }
        correct = failed == 0
        summary = {"raw_setup_s": [float(raw) for raw, _ in setups]}
    summary.update(workload=args.workload, seed=args.seed, tiny=args.tiny,
                   passes=len(passes), raw_wall_s=[p["raw_wall_s"] for p in passes])
    print(json.dumps(summary))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
