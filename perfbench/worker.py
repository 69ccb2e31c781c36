"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --root ROOT --workdir DIR --workload NAME --seed N [--tiny] [--trace]

Imports ``arctic.cli`` from ``ROOT/src``, runs the workload's operations one
after another through ``arctic.cli.main`` with ``DIR`` as the working
directory, and prints one JSON line with the pass result.

Times are reported twice: raw, and scaled to a reference host speed by a
``speed.SpeedMeter`` sampling every ``SAMPLE_PERIOD_S`` while the ops run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedMeter

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
SAMPLE_PERIOD_S = 0.05


def import_cli(root: Path):
    """Import ``arctic.cli`` from ``root/src``."""
    src = (root / "src").resolve()
    if not (src / "arctic" / "cli.py").is_file():
        raise SystemExit(f"no arctic sources under {src}")
    sys.path.insert(0, str(src))
    import arctic.cli as cli

    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"arctic.cli imported from {cli.__file__}, not from {src}")
    return cli


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def checks_digest(report: dict) -> str:
    """Digest of a report's ``checks`` array (the version field is not in it)."""
    return sha256(json.dumps(report["checks"], sort_keys=True).encode())


def run_op(cli, op, workdir: Path) -> dict:
    """Run one op in-process; returns its exit code, report and digests."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(op.argv))
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an op that raises is a failed op, not a crashed run
        traceback.print_exc()
        rc = -1
    end = time.perf_counter()
    out = {"key": op.key, "rc": rc, "start": start, "end": end, "report": None, "exact": None,
           "artifacts": {}, "artifact_bytes": 0, "report_bytes": len(buf.getvalue().encode())}
    try:
        report = json.loads(buf.getvalue())
    except json.JSONDecodeError:
        return out
    out["report"] = report
    if op.exact_checks:
        out["exact"] = checks_digest(report)
    for name in report.get("artifacts", []):
        path = workdir / name
        if path.is_file():
            data = path.read_bytes()
            out["artifacts"][name] = sha256(data)
            out["artifact_bytes"] += len(data)
            if name == op.exact_csv:
                out["exact"] = sha256(data)
    return out


def op_failure(result: dict, expected: dict[str, str]) -> str | None:
    """Why an op failed the correctness gate, or None if it passed."""
    if result["rc"] != 0:
        return f"exit code {result['rc']}"
    report = result["report"]
    if report is None or not report.get("checks"):
        return "report has no checks"
    if result["exact"] is not None and expected.get(result["key"]) != result["exact"]:
        return "exact-output digest differs from the recorded one"
    return None


def run_pass(cli, ops, workdir: Path, meter: SpeedMeter, on_result=None) -> dict:
    """Run ``ops`` in order; returns per-op records and the pass totals."""
    expected = json.loads(DIGESTS.read_text())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    records = []
    start = time.perf_counter()
    try:
        for op in ops:
            result = run_op(cli, op, workdir)
            if on_result is not None:
                on_result(result)
            failure = op_failure(result, expected)
            if failure:
                print(f"FAILED {op.key}: {failure}", file=sys.stderr)
            records.append({"key": op.key, "start": result["start"], "end": result["end"],
                            "failure": failure, "artifacts": result["artifacts"]})
    finally:
        os.chdir(cwd)
    wall = time.perf_counter() - start
    for r in records:
        op_start, op_end = r.pop("start"), r.pop("end")
        r["seconds"] = (op_end - op_start) * meter.scale(op_start, op_end)
    return {"raw_wall_s": wall, "wall_s": sum(r["seconds"] for r in records), "ops": records,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    cli = import_cli(args.root)
    import workloads

    ops = workloads.build(args.workload, args.seed, args.tiny)
    with SpeedMeter(SAMPLE_PERIOD_S) as meter:
        if not args.trace:
            result = run_pass(cli, ops, args.workdir, meter)
        else:
            import tracing

            tracer = tracing.Tracer()
            absent = tracer.install()
            result = run_pass(cli, ops, args.workdir, meter, tracer.observe)
            result["layers"] = tracer.metrics(absent)
            result["span_check"] = tracer.check_nesting()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
